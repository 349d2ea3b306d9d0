import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psigauge import qcore
from psigauge.ensembles import theorem1_ensemble, theorem2_ensemble
from psigauge.qcore import (
    Ball,
    ContractViolation,
    Operator,
    Povm,
    StateVector,
    born_prob,
    gram,
    inner,
    normalized,
    operator_from_json,
    operator_to_json,
    outcome_table,
    povm_from_json,
    povm_to_json,
    projector,
    sample_state_in_ball,
    state_from_json,
    state_to_json,
    tensor_power,
    unitary_from_correspondence,
    validate_povm,
)

from conftest import haar_state


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

    @pytest.mark.parametrize("ens", [theorem1_ensemble(5), theorem2_ensemble(3, 2)])
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


class TestContractViolation:
    def test_is_runtime_error(self):
        assert issubclass(ContractViolation, RuntimeError)
