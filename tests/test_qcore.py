import ast
import json
from decimal import Decimal, localcontext
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psigauge import exclusion, experiment, ontic, orbit, qcore
from psigauge.ensembles import theorem1_ensemble, theorem2_ensemble, theorem4_ensemble
from psigauge.exclusion import ExclusionResult
from psigauge.ontic import DiscreteOnticModel
from psigauge.orbit import OrbitCloud
from psigauge.qcore import (
    OP_TOL,
    Ball,
    ContractViolation,
    Operator,
    Povm,
    StateVector,
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
    sample_state_in_ball,
    state_from_json,
    state_to_json,
    tensor_power,
    unitary_from_correspondence,
    validate_povm,
)

from conftest import born, dense_measurement, gram_level_and_floor, haar_state, random_effects


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


class TestRowsAsStates:
    """qcore._rows_as_states checks a matrix once, by StateVector's rules."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_rejects_a_non_finite_row(self, bad):
        rows = np.eye(3, dtype=complex)
        rows[2, 0] = bad
        with pytest.raises(ValueError, match="state has a non-finite amplitude"):
            qcore._rows_as_states(rows)

    @pytest.mark.parametrize("off", [2 * qcore.NORM_TOL, -2 * qcore.NORM_TOL, 1e300])
    def test_rejects_a_row_whose_squared_norm_is_off(self, off):
        rows = np.eye(3, dtype=complex)
        rows[1, 1] = np.sqrt(1.0 + off)
        with pytest.raises(ValueError, match=r"state is not normalized: sum \|a_j\|\^2 = "):
            qcore._rows_as_states(rows)

    def test_accepts_a_squared_norm_within_the_tolerance(self):
        rows = np.eye(3, dtype=complex)
        rows[1, 1] = np.sqrt(1.0 + qcore.NORM_TOL / 2)
        assert qcore._rows_as_states(rows)[1].amplitudes[1] == rows[1, 1]

    def test_rows_are_read_only_views_of_one_frozen_matrix(self):
        rows = np.array([[0.6, 0.8j], [1.0, 0.0], [0.0, -1.0]])
        states = qcore._rows_as_states(rows)
        assert [s.dim for s in states] == [2, 2, 2]
        assert all(type(s) is StateVector for s in states)
        assert np.array_equal(qcore._amplitudes(states), rows)
        matrix = states[0].amplitudes.base
        assert not matrix.flags.writeable
        assert all(s.amplitudes.base is matrix and not s.amplitudes.flags.writeable
                   for s in states)
        with pytest.raises(ValueError):
            states[2].amplitudes[0] = 1.0

    def test_quotes_the_first_off_norm_after_any_non_finite_entry(self):
        rows = np.eye(3, dtype=complex)
        rows[1, 1], rows[2, 2] = 2.0, 3.0
        with pytest.raises(ValueError, match=r"sum \|a_j\|\^2 = 4\.0$"):
            qcore._rows_as_states(rows)
        rows[2, 2] = np.nan  # StateVector's order: finiteness before the norm
        with pytest.raises(ValueError, match="state has a non-finite amplitude"):
            qcore._rows_as_states(rows)

    @pytest.mark.parametrize("amps", [[np.nan, 0.0], [np.inf, 0.0], [2.0, 0.0], [1e200, 0.0],
                                      [0.6, 0.8j * (1 + 3e-12)]])
    def test_a_state_and_a_one_row_family_fail_alike(self, amps):
        with pytest.raises(ValueError) as single:
            StateVector(2, np.array(amps))
        with pytest.raises(ValueError) as family:
            qcore._rows_as_states(np.array([amps]))
        assert str(single.value) == str(family.value)


class TestBoundaryFidelity:
    """qcore._boundary_fidelity, Theorem 1's f*(d) = sqrt((d-1)/d)."""

    @pytest.mark.parametrize("d", [2, 3, 8, 64, 1000, 999_983, 10**6])
    def test_is_the_correctly_rounded_root_of_the_rounded_ratio(self, d):
        with localcontext() as ctx:
            ctx.prec = 40
            assert qcore._boundary_fidelity(d) == float(Decimal((d - 1) / d).sqrt())

    def test_is_the_one_place_src_takes_the_root(self):
        # sqrt((x - 1) / x) calls, in code only (docstrings and messages may name it)
        def is_the_root(node) -> bool:
            return (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("sqrt")
                    and len(node.args) == 1 and isinstance(node.args[0], ast.BinOp)
                    and isinstance(node.args[0].op, ast.Div)
                    and ast.unparse(node.args[0].left).endswith("- 1"))

        package = Path(qcore.__file__).parent
        found = {path.stem: sum(map(is_the_root, ast.walk(ast.parse(path.read_text()))))
                 for path in package.glob("*.py")}
        assert {name: n for name, n in found.items() if n} == {"qcore": 1}


class TestBornRule:
    def test_projector_probability(self):
        s = normalized(np.array([1.0, 1.0]))
        projectors = Povm(2, [Operator(2, np.outer(e, e)) for e in np.eye(2)])
        assert np.abs(outcome_table([s], projectors) - 0.5).max() < 1e-15

    def test_basis_povm_sums_to_one(self):
        rng = np.random.default_rng(0)
        s = haar_state(rng, 5)
        assert abs(outcome_table([s], Povm.basis(5)).sum() - 1.0) < 1e-12

    @pytest.mark.parametrize(
        "ens", [theorem1_ensemble(5), dense_measurement(theorem2_ensemble(3, 2))]
    )
    def test_outcome_table_equals_born_prob_entrywise(self, ens):
        table = outcome_table(ens.states, ens.measurement)
        assert table.shape == (len(ens.states), ens.measurement.outcome_count)
        assert not table.flags.writeable
        for k, s in enumerate(ens.states):
            for r, effect in enumerate(ens.measurement.effects):
                assert abs(table[k, r] - born(s, effect.entries)) <= 1e-15

    def test_outcome_table_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            outcome_table([StateVector.basis(2, 0)], Povm.basis(3))


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
    [gram, lambda f: outcome_table(f, Povm.basis(2)), lambda f: unitary_from_correspondence(f, f)],
    ids=["gram", "outcome_table", "unitary_from_correspondence"],
)
def test_family_readers_reject_empty_and_mixed_families(reader, family, message):
    with pytest.raises(ValueError, match=message):
        reader(family)


FIDELITIES = {
    "f*": lambda d: np.sqrt((d - 1) / d),
    "f*+0.02": lambda d: np.sqrt((d - 1) / d) + 0.02,
    "0.999": lambda d: 0.999,
}


class TestEqualOverlapFamily:
    """The witness geometry against its closed forms: d states at fidelity f
    from a Haar centre, Gram matrix (1 - c)I + cJ with c = f^2 - (1 - f^2)/(d - 1),
    and exclusion vectors that attain the least exclusion value E. Every f
    here is at least f* = sqrt((d-1)/d), so c >= (d-2)/(d-1) and E is attained."""

    @pytest.mark.parametrize("fidelity", sorted(FIDELITIES))
    @pytest.mark.parametrize("d", range(2, 9))
    def test_family_and_exclusion_vectors_meet_their_closed_forms(self, d, fidelity):
        f = FIDELITIES[fidelity](d)
        center = haar_state(np.random.default_rng([d, 2024]), d)
        rows = np.array([s.amplitudes for s in qcore._equal_overlap_family(center, 1 - f * f)])
        assert rows.shape == (d, d)
        assert np.abs(np.abs(rows @ center.amplitudes.conj()) - f).max() <= 1e-12
        c, floor = gram_level_and_floor(d, 1, f)
        assert np.abs(rows.conj() @ rows.T - ((1 - c) * np.eye(d) + c)).max() <= 1e-12
        m = qcore._exclusion_vectors(rows, c)
        assert np.abs(m.conj().T @ m - np.eye(d)).max() <= 1e-12
        value = float(np.sum(np.abs(np.einsum("dk,kd->k", m.conj(), rows)) ** 2))
        assert abs(value - floor) <= 1e-12

    @pytest.mark.parametrize("fidelity", ["f*", "0.95"])
    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10, 1e-11, 1e-12])
    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_centres_near_the_uniform_state_keep_the_closed_forms(self, d, eps, fidelity):
        # the centre is within eps of u: a construction that divides by
        # |u - centre|^2 loses both closed forms here, by up to 8.4e-5
        f = np.sqrt((d - 1) / d) if fidelity == "f*" else 0.95
        z = haar_state(np.random.default_rng([d, 7]), d).amplitudes
        center = normalized(StateVector.uniform(d).amplitudes + eps * z)
        rows = np.array([s.amplitudes for s in qcore._equal_overlap_family(center, 1 - f * f)])
        assert np.abs(np.abs(rows @ center.amplitudes.conj()) - f).max() <= 1e-12
        c, _ = gram_level_and_floor(d, 1, f)
        assert np.abs(rows.conj() @ rows.T - ((1 - c) * np.eye(d) + c)).max() <= 1e-12

    def test_dimension_one_has_no_family(self):
        assert qcore._equal_overlap_family(StateVector(1, [1.0]), 0.5) == []


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
        assert abs(inner(s, ball.center)) >= 1 - 0.25 - 1e-12

    def test_dim_one_returns_center(self):
        ball = Ball(StateVector.basis(1, 0), 0.5)
        assert abs(inner(sample_state_in_ball(ball, 0), ball.center)) > 1 - 1e-12


class TestPovmValidation:
    def test_basis_povm_passes(self):
        rep = validate_povm(Povm.basis(4))
        assert rep.passed
        assert rep.completeness_error <= 1e-12

    @pytest.mark.parametrize(
        "effects, failure",
        [
            ([[[0, 1], [0, 0]], [[1, -1], [0, 1]]], "hermiticity error 1.000e+00"),
            ([np.diag([1.0, 0.0])], "completeness error 1.000e+00"),
            ([np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])], "min eigenvalue -5.000e-01"),
            ([np.eye(2), np.eye(2)], "completeness error 1.000e+00"),
        ],
        ids=["non-Hermitian", "incomplete", "negative", "doubled identity"],
    )
    def test_invalid_effects_are_refused_when_made(self, effects, failure):
        with pytest.raises(ValueError, match="invalid POVM") as raised:
            Povm(2, [Operator(2, np.array(e, dtype=complex)) for e in effects])
        assert failure in str(raised.value)

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


def _optimized(count: int, dim: int) -> SimpleNamespace:
    """``count`` Haar states in C^dim with the completion that optimize lifts for them."""
    rng = np.random.default_rng(count * dim)
    states = tuple(haar_state(rng, dim) for _ in range(count))
    result = exclusion.optimize(exclusion.ExclusionProblem(states), restarts=2)
    return SimpleNamespace(states=states, measurement=exclusion.result_to_povm(result, count))


def _lengthened_frame() -> np.ndarray:
    """Three orthonormal columns in C^5, the first then lengthened by 10%."""
    rng = np.random.default_rng(0)
    frame, _ = np.linalg.qr(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
    frame[:, 0] *= 1.1
    return frame


class TestFactoredPovm:
    @pytest.mark.parametrize(
        "ens",
        [theorem1_ensemble(5), theorem4_ensemble(6, 0.5)]
        + [theorem2_ensemble(3, n) for n in (1, 2, 3)]
        + [_optimized(3, 5), _optimized(5, 3), _optimized(1, 3)],
        ids=["thm1(5)", "thm4(6,0.5)", "thm2(3,1)", "thm2(3,2)", "thm2(3,3)",
             "optimize(3 states in C^5)", "optimize(5 states in C^3)",
             "optimize(1 state in C^3)"],
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

    def test_many_states_in_one_more_dimension_hold_no_cubic_stack(self):
        """150 orthonormal columns in C^151, as an exclusion search lifts 150
        states spanning C^151. One complex 150 x 150 x 150 stack is 51.5 MiB;
        checking it as a stack peaked at 206 MiB under tracemalloc. The bound
        covers making the POVM as well as reading its report."""
        import tracemalloc

        rng = np.random.default_rng(0)
        z = rng.standard_normal((151, 150)) + 1j * rng.standard_normal((151, 150))
        frame = np.linalg.qr(z)[0]
        tracemalloc.start()
        try:
            povm = Povm.completion(frame)
            report = validate_povm(povm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 16 * 2**20

    @pytest.mark.parametrize(
        "vectors",
        [np.ones(3), np.ones((2, 3)), np.zeros((3, 0)), np.array([[np.nan], [1.0]]),
         _lengthened_frame(), 0.9 * np.eye(3), np.array([[1e200, 1e200], [1e200, -1e200]])],
        ids=["one-dimensional", "more columns than rows", "no columns", "nan",
             "lengthened column", "square non-unitary", "overflowing products"],
    )
    def test_completion_rejects_malformed_vectors(self, vectors):
        with pytest.raises(ValueError):
            Povm.completion(vectors)

    def test_a_square_completion_is_decided_by_the_sum_of_its_effects(self):
        # the unitary DFT with column 0 lengthened: UU^dag is 3.1e-11 from I,
        # within OP_TOL, though U^dag U is 5.0e-10 from I
        u = np.fft.fft(np.eye(16)) / 4.0
        u[:, 0] *= np.sqrt(1.0 + 5e-10)
        povm = Povm.completion(u)
        assert validate_povm(povm).completeness_error == pytest.approx(3.125e-11, rel=1e-3)
        total = sum(effect.entries for effect in povm.effects)
        assert np.abs(total - np.eye(16)).max() <= OP_TOL

    @pytest.mark.parametrize("vectors", [[[1.0], [1.0]], np.ones((3, 2)) / 2],
                             ids=["long column", "overlapping columns"])
    def test_a_tall_completion_needs_orthonormal_columns(self, vectors):
        # UU^dag has an eigenvalue above 1, so the complement (I - UU^dag)/m is not PSD
        with pytest.raises(ValueError, match="completion needs an isometry"):
            Povm.completion(vectors)

    def test_a_factored_report_is_read_off_without_a_factorization(self, monkeypatch):
        povms = [theorem2_ensemble(3, 2).measurement, Povm.basis(4), _optimized(5, 3).measurement]

        def refused(*args, **kwargs):
            raise AssertionError("validate_povm factorized a completion")

        for name in ("qr", "eigvalsh", "eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, refused)
        assert all(validate_povm(povm).passed for povm in povms)

    def test_basis_effects_are_the_basis_projectors(self):
        for k, effect in enumerate(Povm.basis(3).effects):
            assert np.array_equal(effect.entries, np.outer(np.eye(3)[k], np.eye(3)[k]))


class TestEffectColumns:
    @pytest.mark.parametrize("dim", range(1, 7))
    def test_split_effects_give_their_born_table_and_traces(self, dim):
        rng = np.random.default_rng(dim)
        states = [haar_state(rng, dim) for _ in range(4)]
        for name, effects in random_effects(rng, dim).items():
            povm = Povm(dim, [Operator(dim, e) for e in effects])
            table, traces = outcome_table(states, povm), effect_traces(povm)
            tol = OP_TOL if name == "clipped" else 1e-12
            for k, s in enumerate(states):
                assert np.abs(table[k] - [born(s, e) for e in effects]).max() <= tol, name
            assert np.abs(traces - [np.trace(e).real for e in effects]).max() <= tol, name
            if name == "clipped":
                assert abs(validate_povm(povm).min_eigenvalue + 5e-11) <= 1e-15

    def test_readers_never_check_a_built_povm(self, monkeypatch):
        built = [theorem1_ensemble(5), theorem2_ensemble(3, 2),
                 dense_measurement(theorem2_ensemble(3, 2))]

        def refused(*args, **kwargs):
            raise AssertionError("a reader checked a built Povm")

        monkeypatch.setattr(qcore, "validate_povm", refused)
        monkeypatch.setattr(np.linalg, "eigh", refused)
        for ens in built:
            outcome_table(ens.states, ens.measurement)
            effect_traces(ens.measurement)
            exclusion.exclusion_value(ens.states, ens.measurement)
            experiment.run_protocol(ens, experiment.NoiseSpec(0.02, 0.01), 100, seed=0)

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
        ],
        ids=["unitary_from_correspondence"],
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
        a = normalized(np.array([1.0, 1j])).amplitudes
        op = Operator(2, np.outer(a, a.conj()))
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dim", 1.9),
            ("dim", 1.0),
            ("dim", "1"),
            ("dim", " 1 "),
            ("dim", True),
            ("re", ["1"]),
            ("re", [True]),
            ("im", [False]),
        ],
    )
    def test_numbers_must_be_json_numbers(self, field, value):
        # int() or float() would turn each value into a valid |0> of C^1
        obj = dict(state_to_json(StateVector.basis(1, 0)), **{field: value})
        problem = "dim must be an integer >= 1, got" if field == "dim" else f"{field}: expected"
        with pytest.raises(ValueError, match=f"state JSON: {problem}"):
            state_from_json(obj)

    def test_dim_below_one_is_refused_at_the_field(self):
        obj = {"dim": 0, "re": [], "im": []}
        with pytest.raises(ValueError, match="^state JSON: dim must be an integer >= 1, got 0$"):
            state_from_json(obj)

    def test_povm_dim_must_be_an_integer(self):
        with pytest.raises(ValueError, match="povm JSON: dim must be an integer >= 1, got 3.0"):
            povm_from_json(dict(povm_to_json(Povm.basis(3)), dim=3.0))

    def test_povm_effects_must_be_a_list(self):
        with pytest.raises(ValueError, match="effects must be a list"):
            povm_from_json({"dim": 2, "effects": 5})


class TestContractViolation:
    def test_is_runtime_error(self):
        assert issubclass(ContractViolation, RuntimeError)


# each value constructor that keeps an array: (build from the array, read the
# kept array back, a valid array to build from)
VALUE_ARRAYS = {
    "state": (lambda a: StateVector(2, a), lambda v: v.amplitudes, [1, 0]),
    "operator": (lambda a: Operator(2, a), lambda v: v.entries, [[1, 0], [0, 1]]),
    "ontic preparation": (
        lambda a: DiscreteOnticModel(2, {"q": a}, {}), lambda v: v.preparations["q"], [0.5, 0.5]),
    "ontic response": (
        lambda a: DiscreteOnticModel(2, {}, {"m": a}), lambda v: v.responses["m"],
        [[1.0, 0.0], [0.0, 1.0]]),
    "orbit cloud": (lambda a: OrbitCloud(a, 0, 0.02), lambda v: v.points, [[0.0, 0.0, 1.0]]),
    "exclusion result": (
        lambda a: ExclusionResult(0.0, a, 1, "value", 0.0), lambda v: v.basis, [[1, 0], [0, 1]]),
}


class TestValueArrays:
    """A value keeps a read-only array that its caller cannot write to."""

    @pytest.mark.parametrize("build, read, entries", VALUE_ARRAYS.values(), ids=VALUE_ARRAYS)
    def test_the_callers_array_stays_writeable_and_apart(self, build, read, entries):
        array = np.array(entries, dtype=read(build(entries)).dtype)
        value = build(array)
        before = read(value).copy()
        array[0] = 5  # the caller's array is neither frozen nor aliased
        assert np.array_equal(read(value), before)
        assert not read(value).flags.writeable

    @pytest.mark.parametrize("build, read, entries", VALUE_ARRAYS.values(), ids=VALUE_ARRAYS)
    def test_a_read_only_array_is_kept_as_it_is(self, build, read, entries):
        array = np.array(entries, dtype=read(build(entries)).dtype)
        array.flags.writeable = False
        assert np.shares_memory(read(build(array)), array)

    def test_the_package_builders_hand_over_frozen_arrays(self, monkeypatch):
        # so that building a value from the package's own arrays copies nothing
        handed, real = [], qcore._immutable

        def spy(array):
            handed.append(array.flags.writeable)
            return real(array)

        for module in (qcore, ontic, orbit, exclusion):
            monkeypatch.setattr(module, "_immutable", spy)
        rng = np.random.default_rng(0)
        family = theorem2_ensemble(3, 2)
        omit_one = theorem1_ensemble(3).states
        unitary_from_correspondence(omit_one, omit_one[::-1])
        sample_state_in_ball(Ball(StateVector.basis(1, 0), 0.5), rng)
        sample_state_in_ball(Ball(sample_haar_state(3, rng), 0.5), rng)
        pair_at_fidelity(3, 0.5, rng)
        state_from_json(state_to_json(family.center))
        povm_from_json(povm_to_json(Povm.basis(2)))
        theorem4_ensemble(5, 0.5)
        ks = ontic.ks_qubit_model(100)
        table = ontic.model_from_parametric(ks, {"a": StateVector.basis(2, 0)})
        ontic.product_model(ontic.psi_ontic_fixture(family.states, [family.measurement]), 2)
        ontic.product_model(table, 2)
        orbit.orbit_step(orbit.initial_cloud(1.0))
        exclusion.optimize(exclusion.ExclusionProblem(family.states), restarts=1, max_iters=5)
        assert handed and not any(handed)
