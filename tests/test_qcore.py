import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psigauge import qcore
from psigauge.ensembles import theorem1_ensemble, theorem2_ensemble, theorem4_ensemble
from psigauge.qcore import (
    OP_TOL,
    Ball,
    ContractViolation,
    Operator,
    Povm,
    StateVector,
    born_prob,
    effect_traces,
    gram,
    haar_state as sample_haar_state,
    inner,
    normalized,
    operator_from_json,
    operator_to_json,
    outcome_table,
    pair_at_fidelity,
    povm_from_json,
    povm_to_json,
    projector,
    sample_state_in_ball,
    state_from_json,
    state_to_json,
    symmetric_frames,
    tensor_power,
    unitary_from_correspondence,
    validate_povm,
)

from conftest import dense_measurement, haar_state


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(2, np.array([1.0, 1.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            StateVector(3, np.array([1.0, 0.0]))

    def test_rejects_dim_zero(self):
        with pytest.raises(ValueError):
            StateVector(0, np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # abs(nan - 1) > tol is False, so the norm check alone lets NaN through
        with pytest.raises(ValueError, match="non-finite"):
            StateVector(2, np.array([bad, 0.0]))

    def test_basis_and_uniform(self):
        b = StateVector.basis(4, 2)
        assert b.amplitudes[2] == 1.0 and abs(b.amplitudes).sum() == 1.0
        u = StateVector.uniform(4)
        assert np.allclose(u.amplitudes, 0.5)

    def test_amplitudes_frozen(self):
        s = StateVector.basis(2, 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_normalized_factory(self):
        s = normalized(np.array([3.0, 4.0]))
        assert np.allclose(s.amplitudes, [0.6, 0.8])
        with pytest.raises(ValueError):
            normalized(np.zeros(2))


class TestBornRule:
    def test_projector_probability(self):
        s = normalized(np.array([1.0, 1.0]))
        assert abs(born_prob(s, projector(StateVector.basis(2, 0))) - 0.5) < 1e-15

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            born_prob(StateVector.basis(2, 0), Operator(2, np.array([[0, 1], [0, 0]], dtype=float)))

    def test_basis_povm_sums_to_one(self):
        rng = np.random.default_rng(0)
        s = haar_state(rng, 5)
        total = sum(born_prob(s, e) for e in Povm.basis(5).effects)
        assert abs(total - 1.0) < 1e-12

    @given(st.integers(0, 10_000), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_probabilities_in_range(self, seed, dim):
        rng = np.random.default_rng(seed)
        s = haar_state(rng, dim)
        for effect in Povm.basis(dim).effects:
            p = born_prob(s, effect)
            assert 0.0 <= p <= 1.0

    @pytest.mark.parametrize(
        "ens", [theorem1_ensemble(5), dense_measurement(theorem2_ensemble(3, 2))]
    )
    def test_outcome_table_equals_born_prob_entrywise(self, ens):
        table = outcome_table(ens.states, ens.measurement)
        assert table.shape == (len(ens.states), ens.measurement.outcome_count)
        assert not table.flags.writeable
        for k, s in enumerate(ens.states):
            for r, effect in enumerate(ens.measurement.effects):
                assert table[k, r] == born_prob(s, effect)

    def test_outcome_table_rejects_invalid_povm(self):
        broken = Povm(2, (Operator.identity(2), Operator.identity(2)))
        with pytest.raises(ContractViolation, match="invalid POVM"):
            outcome_table([StateVector.basis(2, 0)], broken)

    def test_outcome_table_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            outcome_table([StateVector.basis(2, 0)], Povm.basis(3))

    def test_outcome_table_validates_once(self, monkeypatch):
        ens = theorem1_ensemble(4)
        calls = []
        real = qcore.validate_povm
        monkeypatch.setattr(qcore, "validate_povm", lambda p: calls.append(p) or real(p))
        outcome_table(ens.states, ens.measurement)
        assert len(calls) == 1


class TestTensorPower:
    def test_dimension_and_norm(self):
        s = normalized(np.array([1.0, 1j, -0.5]))
        t = tensor_power(s, 3)
        assert t.dim == 27
        assert abs(np.linalg.norm(t.amplitudes) - 1.0) < 1e-12

    def test_single_copy_is_identity(self):
        s = StateVector.basis(3, 1)
        assert np.array_equal(tensor_power(s, 1).amplitudes, s.amplitudes)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            tensor_power(StateVector.basis(3, 0), 20)

    @given(st.integers(0, 10_000), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_inner_product_powers(self, seed, n):
        rng = np.random.default_rng(seed)
        a, b = haar_state(rng, 3), haar_state(rng, 3)
        lhs = inner(tensor_power(a, n), tensor_power(b, n))
        assert abs(lhs - inner(a, b) ** n) < 1e-12


class TestGram:
    def test_identity_for_orthonormal(self):
        states = [StateVector.basis(3, k) for k in range(3)]
        assert np.allclose(gram(states), np.eye(3))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_positive_semidefinite(self, seed):
        rng = np.random.default_rng(seed)
        states = [haar_state(rng, 4) for _ in range(5)]
        eigs = np.linalg.eigvalsh(gram(states))
        assert eigs.min() >= -1e-12


@pytest.mark.parametrize(
    "family, message",
    [((), "need at least one state"),
     ((StateVector.basis(2, 0), StateVector.basis(3, 0)), "mixed dimensions")],
    ids=["empty", "mixed-dimensions"],
)
@pytest.mark.parametrize(
    "reader",
    [gram, lambda f: outcome_table(f, Povm.basis(2)), lambda f: symmetric_frames(f, f)],
    ids=["gram", "outcome_table", "symmetric_frames"],
)
def test_family_readers_reject_empty_and_mixed_families(reader, family, message):
    with pytest.raises(ValueError, match=message):
        reader(family)


class TestUnitaryFromCorrespondence:
    def test_swap(self):
        src = [StateVector.basis(2, 0), StateVector.basis(2, 1)]
        dst = [StateVector.basis(2, 1), StateVector.basis(2, 0)]
        u = unitary_from_correspondence(src, dst)
        assert np.allclose(u.entries, np.array([[0, 1], [1, 0]]))

    def test_gram_mismatch_rejected(self):
        src = [StateVector.basis(2, 0), StateVector.basis(2, 1)]
        dst = [normalized(np.array([1.0, 1.0])), StateVector.basis(2, 0)]
        with pytest.raises(ValueError):
            unitary_from_correspondence(src, dst)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_isometric_on_source_span(self, seed):
        rng = np.random.default_rng(seed)
        src = [haar_state(rng, 4) for _ in range(3)]
        w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(w)
        dst = [StateVector(4, q @ s.amplitudes) for s in src]
        v = unitary_from_correspondence(src, dst).entries
        frame, _ = np.linalg.qr(np.column_stack([s.amplitudes for s in src]))
        span_projector = frame @ frame.conj().T
        assert np.linalg.norm(v.conj().T @ v - span_projector) < 1e-9
        worst = max(
            np.linalg.norm(v @ a.amplitudes - b.amplitudes) for a, b in zip(src, dst)
        )
        assert worst < 1e-9


class TestBallSampling:
    def test_deterministic_per_seed(self):
        ball = Ball(normalized(np.array([1.0, 1.0])), 0.3)
        a = sample_state_in_ball(ball, 7)
        b = sample_state_in_ball(ball, 7)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            Ball(StateVector.basis(2, 0), 0.0)
        with pytest.raises(ValueError):
            Ball(StateVector.basis(2, 0), 1.5)

    @given(st.integers(0, 5_000))
    @settings(max_examples=50, deadline=None)
    def test_samples_stay_inside(self, seed):
        ball = Ball(normalized(np.array([1.0, 1j, 0.0])), 0.25)
        s = sample_state_in_ball(ball, seed)
        assert ball.contains(s)
        assert abs(inner(s, ball.center)) >= 1 - 0.25 - 1e-9

    def test_dim_one_returns_center(self):
        ball = Ball(StateVector.basis(1, 0), 0.5)
        assert abs(inner(sample_state_in_ball(ball, 0), ball.center)) > 1 - 1e-12


class TestPovmValidation:
    def test_basis_povm_passes(self):
        rep = validate_povm(Povm.basis(4))
        assert rep.passed
        assert rep.completeness_error <= 1e-12

    def test_incomplete_flagged(self):
        rep = validate_povm(Povm(2, (projector(StateVector.basis(2, 0)),)))
        assert not rep.passed
        assert rep.completeness_error > 0.5

    def test_negative_effect_flagged(self):
        eye = Operator.identity(2)
        bad = Operator(2, np.diag([1.5, -0.5]) + 0j)
        good = Operator(2, eye.entries - bad.entries)
        rep = validate_povm(Povm(2, (bad, good)))
        assert not rep.passed
        assert rep.min_eigenvalue < -1e-10

    def test_non_finite_effect_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Operator(2, np.array([[np.nan, 0.0], [0.0, 1.0]]))


REPORT_FIELDS = ("hermiticity_error", "min_eigenvalue", "completeness_error")


def _assert_reports_agree(factored: Povm):
    fast, dense = validate_povm(factored), validate_povm(Povm(factored.dim, factored.effects))
    for field in REPORT_FIELDS:
        assert abs(getattr(fast, field) - getattr(dense, field)) <= 1e-12, field
    assert fast.passed == dense.passed
    return fast, dense


class TestFactoredPovm:
    @pytest.mark.parametrize(
        "ens",
        [theorem1_ensemble(5), theorem4_ensemble(6, 0.5)]
        + [theorem2_ensemble(3, n) for n in (1, 2, 3)],
        ids=["thm1(5)", "thm4(6,0.5)", "thm2(3,1)", "thm2(3,2)", "thm2(3,3)"],
    )
    def test_agrees_with_its_dense_effects(self, ens):
        m = ens.measurement
        assert m.vectors is not None
        dense = Povm(m.dim, m.effects)
        rng = np.random.default_rng(3)
        states = list(ens.states) + [haar_state(rng, m.dim) for _ in range(4)]
        gap = np.abs(outcome_table(states, m) - outcome_table(states, dense))
        assert gap.max() <= 1e-12
        assert np.abs(effect_traces(m) - effect_traces(dense)).max() <= 1e-12
        fast, _ = _assert_reports_agree(m)
        assert fast.passed

    @pytest.mark.parametrize("rows", [1, 2])
    def test_wide_frame_agrees_with_its_dense_effects(self, rows):
        # rows of a unitary: m > D vectors with UU^dag = I, as an exclusion
        # search lifts them for more states than dimensions
        rng = np.random.default_rng(rows)
        unitary, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        m = Povm.completion(unitary[:rows])
        dense = Povm(rows, m.effects)
        states = [haar_state(rng, rows) for _ in range(3)]
        assert np.abs(outcome_table(states, m) - outcome_table(states, dense)).max() <= 1e-12
        assert np.abs(effect_traces(m) - effect_traces(dense)).max() <= 1e-12
        fast, _ = _assert_reports_agree(m)
        assert fast.passed

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_theorem2_table_is_the_theorem1_table(self, d, n):
        # <u_m|psi_k^(n)> = <m|t_k> and the complement never fires on the
        # span of the powers, so the table does not depend on n
        ens = theorem2_ensemble(d, n)
        table = outcome_table(ens.states, ens.measurement)
        expected = (1.0 - np.eye(d)) / (d - 1)
        assert np.abs(table - expected).max() <= 1e-12

    def test_long_column_fails_on_min_eigenvalue(self):
        rng = np.random.default_rng(0)
        frame, _ = np.linalg.qr(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
        frame[:, 0] *= 1.1
        fast, dense = _assert_reports_agree(Povm.completion(frame))
        assert fast.min_eigenvalue < -OP_TOL and dense.min_eigenvalue < -OP_TOL
        assert not fast.passed

    def test_square_non_unitary_fails_on_completeness(self):
        # the complement of a square U is dropped, so 0.9 I leaves 0.19 missing
        fast, _ = _assert_reports_agree(Povm.completion(0.9 * np.eye(3)))
        assert abs(fast.completeness_error - 0.19) <= 1e-12
        assert not fast.passed

    @pytest.mark.parametrize(
        "vectors",
        [np.ones(3), np.ones((2, 3)), np.zeros((3, 0)), np.array([[np.nan], [1.0]])],
        ids=["one-dimensional", "more columns than rows", "no columns", "nan"],
    )
    def test_completion_rejects_malformed_vectors(self, vectors):
        with pytest.raises(ValueError):
            Povm.completion(vectors)

    def test_basis_effects_are_the_basis_projectors(self):
        for k, effect in enumerate(Povm.basis(3).effects):
            assert np.array_equal(effect.entries, projector(StateVector.basis(3, k)).entries)


class TestDenseStack:
    def test_dense_readers_do_not_walk_the_effects(self, monkeypatch):
        ens = dense_measurement(theorem2_ensemble(3, 2))
        expected = (
            validate_povm(ens.measurement),
            outcome_table(ens.states, ens.measurement),
            effect_traces(ens.measurement),
        )

        def walked(self):
            raise AssertionError("a reader walked Povm.effects")

        monkeypatch.setattr(Povm, "effects", property(walked))
        assert validate_povm(ens.measurement) == expected[0]
        assert np.array_equal(outcome_table(ens.states, ens.measurement), expected[1])
        assert np.array_equal(effect_traces(ens.measurement), expected[2])

    def test_factored_effects_are_built_once(self):
        u = theorem2_ensemble(3, 2).measurement.vectors
        povm = Povm.completion(u)
        first, second = povm.effects, povm.effects
        assert second is first
        stack = first[0].entries.base
        assert stack is not None and all(e.entries.base is stack for e in first)
        rest = (np.eye(9) - u @ u.conj().T) / 3
        for effect, col in zip(first, u.T):
            assert np.array_equal(effect.entries, np.outer(col, col.conj()) + rest)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: unitary_from_correspondence(
                [StateVector.basis(2, 0), StateVector.basis(2, 1)],
                [StateVector.basis(2, 1), StateVector.basis(2, 0)],
            ),
            lambda: theorem2_ensemble(3, 2),
        ],
        ids=["unitary_from_correspondence", "theorem2_ensemble"],
    )
    def test_frame_pairing_is_checked(self, monkeypatch, build):
        real, calls = qcore._inv_sqrt, []

        def perturbed(mat, floor):  # the first family's frame drifts by 1e-6
            calls.append(mat)
            return real(mat, floor) * (1.0 + 1e-6 * (len(calls) == 1))

        monkeypatch.setattr(qcore, "_inv_sqrt", perturbed)
        with pytest.raises(ContractViolation, match="constructed isometry misses a target"):
            build()


class TestHaarSamplers:
    def test_haar_state_draws_real_then_imaginary_parts(self):
        a = sample_haar_state(3, np.random.default_rng(4))
        b = haar_state(np.random.default_rng(4), 3)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("fidelity", [0.0, 0.3, 0.9, 1.0])
    def test_pair_sits_at_the_requested_fidelity(self, fidelity):
        first, second = pair_at_fidelity(2, fidelity, 5)
        assert abs(abs(inner(first, second)) - fidelity) <= 1e-12

    @pytest.mark.parametrize("fidelity", [-0.1, 1.5, np.nan])
    def test_pair_rejects_fidelity_out_of_range(self, fidelity):
        with pytest.raises(ValueError, match="fidelity"):
            pair_at_fidelity(2, fidelity, 0)


class TestJson:
    def test_state_round_trip(self):
        s = normalized(np.array([1.0, 1j, -0.5]))
        obj = state_to_json(s)
        assert json.dumps(obj)  # serializable
        back = state_from_json(obj)
        assert back.dim == s.dim
        assert np.array_equal(back.amplitudes, s.amplitudes)

    def test_operator_round_trip(self):
        op = projector(normalized(np.array([1.0, 1j])))
        back = operator_from_json(operator_to_json(op))
        assert np.array_equal(back.entries, op.entries)

    def test_povm_round_trip(self):
        povm = Povm.basis(3)
        back = povm_from_json(povm_to_json(povm))
        assert back.dim == 3
        for a, b in zip(povm.effects, back.effects):
            assert np.array_equal(a.entries, b.entries)

    def test_missing_field_diagnostics(self):
        with pytest.raises(ValueError):
            state_from_json({"dim": 2, "re": [1.0, 0.0]})

    @pytest.mark.parametrize("decode", [state_from_json, operator_from_json, povm_from_json])
    @pytest.mark.parametrize("payload", [5, [5], "state", None])
    def test_non_object_rejected(self, decode, payload):
        with pytest.raises(ValueError, match="expected an object"):
            decode(payload)

    @pytest.mark.parametrize("field, value", [("dim", [2]), ("re", {"a": 1.0})])
    def test_wrong_field_type_rejected(self, field, value):
        obj = state_to_json(StateVector.basis(2, 0))
        obj[field] = value
        with pytest.raises(ValueError, match="state JSON"):
            state_from_json(obj)

    def test_povm_effects_must_be_a_list(self):
        with pytest.raises(ValueError, match="effects must be a list"):
            povm_from_json({"dim": 2, "effects": 5})


class TestContractViolation:
    def test_is_runtime_error(self):
        assert issubclass(ContractViolation, RuntimeError)
