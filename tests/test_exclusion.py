import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psigauge import exclusion, qcore
from psigauge.ensembles import theorem1_ensemble, theorem2_ensemble
from psigauge.exclusion import (
    ExclusionProblem,
    ExclusionResult,
    exclusion_value,
    optimize,
    result_to_json,
    result_to_povm,
)
from psigauge.qcore import Operator, Povm, StateVector, tensor_power

from conftest import gram_level_and_floor, haar_state


class TestExclusionProblem:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExclusionProblem(())

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            ExclusionProblem((StateVector.basis(2, 0), StateVector.basis(3, 0)))

    def test_state_count_may_exceed_dimension(self):
        problem = ExclusionProblem(tuple(StateVector.basis(2, k % 2) for k in range(3)))
        assert len(problem.states) == 3


class TestExclusionValue:
    def test_constructed_measurement_excludes(self):
        ens = theorem1_ensemble(4)
        assert exclusion_value(ens.states, ens.measurement) <= 1e-12

    def test_identity_pairing_maximizes(self):
        states = tuple(StateVector.basis(3, k) for k in range(3))
        assert abs(exclusion_value(states, Povm.basis(3)) - 3.0) <= 1e-12

    def test_tensor_family_measurement(self):
        ens = theorem2_ensemble(3, 2)
        assert exclusion_value(ens.states, ens.measurement) <= 1e-9

    def test_too_few_outcomes(self):
        states = tuple(StateVector.basis(3, k) for k in range(3))
        short = Povm(3, (Operator(3, np.eye(3)),))
        with pytest.raises(ValueError):
            exclusion_value(states, short)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exclusion_value((StateVector.basis(2, 0),), Povm.basis(3))


class TestOptimize:
    def test_finds_perfect_exclusion_for_omit_one_family(self):
        ens = theorem1_ensemble(3)
        result = optimize(ExclusionProblem(ens.states), restarts=20, seed=0)
        assert result.best_value <= 1e-6

    def test_single_state_cannot_be_excluded(self):
        # one state gets one outcome, and the only one-outcome POVM is {I}
        result = optimize(ExclusionProblem((StateVector.basis(2, 0),)), restarts=3)
        assert abs(result.best_value - 1.0) <= 1e-12
        assert result.stop_reason == "certificate"

    def test_identical_states_in_a_point_space_cannot_be_excluded(self):
        state = StateVector(1, np.array([1.0 + 0j]))
        result = optimize(ExclusionProblem((state, state)), restarts=3)
        assert abs(result.best_value - 1.0) <= 1e-9

    def test_eigh_geodesic_is_the_matrix_exponential(self):
        from scipy.linalg import expm

        rng = np.random.default_rng(4)
        for dim in (1, 3, 8):
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            omega = raw - raw.conj().T
            basis = np.linalg.qr(rng.standard_normal((dim, dim)) + 0j)[0]
            along = exclusion._geodesic(omega, basis)
            for tau in (1.0, 0.25, 1e-3):
                moved = along(tau)
                assert np.allclose(moved.conj().T @ moved, np.eye(dim), rtol=0, atol=1e-12)
                assert np.allclose(moved, expm(-tau * omega) @ basis, rtol=0, atol=1e-12)

    def test_history_is_monotone_nonincreasing(self):
        ens = theorem1_ensemble(4)
        result = optimize(ExclusionProblem(ens.states), restarts=2, seed=0)
        hist = np.array(result.history)
        assert hist.size >= 1
        assert np.all(np.diff(hist) <= 1e-15)

    def test_reported_value_matches_reported_basis(self):
        ens = theorem1_ensemble(3)
        result = optimize(ExclusionProblem(ens.states), restarts=5, seed=0)
        povm = result_to_povm(result, 3)
        recomputed = exclusion_value(ens.states, povm)
        assert abs(recomputed - result.best_value) <= 1e-12

    def test_deterministic(self):
        ens = theorem1_ensemble(3)
        a = optimize(ExclusionProblem(ens.states), restarts=4, seed=9)
        b = optimize(ExclusionProblem(ens.states), restarts=4, seed=9)
        assert a.best_value == b.best_value
        assert np.array_equal(a.basis, b.basis)

    def test_restart_validation(self):
        problem = ExclusionProblem((StateVector.basis(2, 0),))
        with pytest.raises(ValueError):
            optimize(problem, restarts=0)
        with pytest.raises(ValueError):
            optimize(problem, max_iters=0)

    def test_early_stop_spares_restarts(self):
        ens = theorem1_ensemble(2)
        result = optimize(ExclusionProblem(ens.states), restarts=20, seed=0)
        assert result.restarts_used < 20

    def test_padded_embedding_for_more_states_than_dimensions(self):
        # three qubit states are searched in C^3; the lifted 2 x 3 basis
        # must be a valid three-outcome POVM on the qubit
        rng = np.random.default_rng(2)
        states = []
        for _ in range(3):
            raw = rng.normal(size=2) + 1j * rng.normal(size=2)
            states.append(StateVector(2, raw / np.linalg.norm(raw)))
        result = optimize(ExclusionProblem(tuple(states)), restarts=8, seed=0)
        assert result.basis.shape == (2, 3)
        povm = result_to_povm(result, 3)
        assert povm.dim == 2 and povm.outcome_count == 3
        assert qcore.validate_povm(povm).passed
        assert abs(exclusion_value(states, povm) - result.best_value) <= 1e-12
        assert result.dual_bound <= result.best_value + 1e-12


class TestResultExport:
    def test_povm_has_one_outcome_per_state(self):
        states = (StateVector.basis(4, 0), StateVector.basis(4, 1))
        result = optimize(ExclusionProblem(states), restarts=2)
        assert result.basis.shape == (4, 2)
        povm = result_to_povm(result, 2)
        assert povm.outcome_count == 2
        total = sum(e.entries for e in povm.effects)
        assert np.allclose(total, np.eye(4), atol=1e-10)
        # the complement of span(states) is split evenly and never fires
        assert result.best_value <= 1e-12

    def test_povm_outcome_range_checked(self):
        result = optimize(ExclusionProblem((StateVector.basis(2, 0),)), restarts=2)
        with pytest.raises(ValueError):
            result_to_povm(result, 5)

    def test_json_keys(self):
        result = optimize(ExclusionProblem((StateVector.basis(2, 0),)), restarts=2)
        obj = result_to_json(result)
        assert set(obj) == {
            "best_value", "dual_bound", "gap", "restarts_used", "stop_reason", "basis"
        }
        assert obj["gap"] == obj["best_value"] - obj["dual_bound"]
        assert obj["stop_reason"] in ("value", "certificate", "gradient", "iterations")
        assert (obj["basis"]["dim"], obj["basis"]["outcomes"]) == (2, 1)
        assert len(obj["basis"]["re"]) == len(obj["basis"]["im"]) == 2

    def test_result_freezes_basis(self):
        result = ExclusionResult(0.0, np.eye(2, 3, dtype=complex), 1, "value", 0.0)
        with pytest.raises(ValueError):
            result.basis[0, 0] = 5.0


def _cfs_margin(vectors) -> float:
    """Caves-Fuchs-Schack (arXiv:quant-ph/0206110): with x the squared
    pairwise overlaps, three pure states are antidistinguishable iff
    sum(x) < 1 and (sum(x) - 1)^2 >= 4 x1 x2 x3. The margin is positive
    inside that region and negative outside it."""
    x = [abs(np.vdot(vectors[i], vectors[j])) ** 2 for i, j in ((1, 2), (0, 2), (0, 1))]
    total = sum(x)
    return min(1.0 - total, (total - 1.0) ** 2 - 4.0 * x[0] * x[1] * x[2])


def _random_povm(rng: np.random.Generator, outcomes: int, dim: int) -> Povm:
    """S^(-1/2) A_k S^(-1/2) for random PSD A_k with sum S."""
    raw = rng.standard_normal((outcomes, dim, dim)) + 1j * rng.standard_normal((outcomes, dim, dim))
    psd = raw @ raw.conj().transpose(0, 2, 1)
    w, v = np.linalg.eigh(psd.sum(axis=0))
    root = (v / np.sqrt(w)) @ v.conj().T
    return Povm(dim, tuple(Operator(dim, root @ a @ root) for a in psd))


def _random_projective(rng: np.random.Generator, outcomes: int, dim: int) -> Povm:
    """A Haar basis of C^dim with its vectors dealt at random to the outcomes,
    some of which may get none."""
    basis = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    owner = rng.integers(0, outcomes, size=dim)
    return Povm(
        dim,
        tuple(
            Operator(dim, basis[:, owner == k] @ basis[:, owner == k].conj().T)
            for k in range(outcomes)
        ),
    )


class TestIndependentOracles:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_caves_fuchs_schack_criterion(self, seed):
        # the answer must not depend on the space the triple is written in:
        # C^3, zero-padded into C^4, or an isometric image in C^9
        rng = np.random.default_rng(seed)
        triple = [haar_state(rng, 3).amplitudes for _ in range(3)]
        margin = _cfs_margin(triple)
        assume(abs(margin) >= 0.02)
        isometry = np.linalg.qr(rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3)))[0]
        for vectors in (triple, [np.append(v, 0.0) for v in triple], [isometry @ v for v in triple]):
            states = tuple(StateVector(v.size, v) for v in vectors)
            result = optimize(ExclusionProblem(states), restarts=10)
            if margin > 0:
                assert result.best_value <= 1e-9
            else:
                assert result.best_value > 1e-6
            assert result.dual_bound <= result.best_value + 1e-12

    @pytest.mark.parametrize("count, dim", [(3, 3), (4, 6), (5, 3), (3, 2)])
    def test_dual_bound_lies_below_every_measurement(self, count, dim):
        rng = np.random.default_rng(10 * count + dim)
        states = tuple(haar_state(rng, dim) for _ in range(count))
        best = optimize(ExclusionProblem(states), restarts=5)
        # a bound read off a basis far from optimal must hold as well
        rough = optimize(ExclusionProblem(states), restarts=1, max_iters=2).dual_bound
        values = [best.best_value]
        for _ in range(20):
            for povm in (_random_projective(rng, count, dim), _random_povm(rng, count, dim)):
                values.append(exclusion_value(states, povm))
        assert max(best.dual_bound, rough) <= min(values) + 1e-12


def _padded_coeffs(states) -> np.ndarray:
    """The d x d coefficients ``optimize`` searches on: Q^H S zero-padded to d rows."""
    smat = qcore._amplitudes(states).T
    q, _ = np.linalg.qr(smat)
    coeffs = np.zeros((smat.shape[1], smat.shape[1]), dtype=complex)
    coeffs[: q.shape[1]] = q.conj().T @ smat
    return coeffs


def _stacked_polish(coeffs: np.ndarray, basis: np.ndarray, value: float):
    """The polish built from the 2d rank-one generators c_k b_k^H and
    i c_k b_k^H stacked into a (2d, d, d) array: their skew-Hermitian parts
    are the rows, and the rows' 2d x 2d Gram system gives the step. Only the
    system differs from ``exclusion._polish``; the geodesic and the value are
    shared."""
    d = coeffs.shape[1]
    for _ in range(8):
        if value <= 1e-30:
            break
        overlaps = np.einsum("ik,ik->k", coeffs.conj(), basis)
        outer = coeffs.T[:, :, None] * basis.conj().T[:, None, :]
        outer = np.concatenate([outer, 1j * outer])
        rows = 0.5 * (outer - outer.conj().transpose(0, 2, 1)).reshape(2 * d, -1)
        rhs = -np.concatenate([overlaps.real, overlaps.imag])
        weights = np.linalg.lstsq((rows.conj() @ rows.T).real, rhs, rcond=None)[0]
        trial = exclusion._geodesic(-(weights @ rows).reshape(d, d), basis)(1.0)
        trial_value, _ = exclusion._value_and_direction(coeffs, trial)
        if trial_value >= value:
            break
        basis, value = trial, trial_value
    return value, basis


class TestClosedFormSystems:
    """The polish and the dual bound, built from d x d overlap matrices, held
    to the stacked constructions they replace. Where the first Gauss-Newton
    system is near-singular (two non-orthogonal qubit states far from their
    positive minimum), either construction amplifies rounding by its condition
    number, and an accepted step can leave the two 4e-8 apart in basis; at
    these seeded starts they agree to about 1e-14."""

    @staticmethod
    def assert_polish_matches(coeffs, basis):
        value, _ = exclusion._value_and_direction(coeffs, basis)
        got_value, got_basis = exclusion._polish(coeffs, basis, value)
        want_value, want_basis = _stacked_polish(coeffs, basis, value)
        assert abs(got_value - want_value) <= 1e-10
        assert np.abs(got_basis - want_basis).max() <= 1e-9

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 16])
    def test_polish_matches_the_stacked_generators(self, d):
        for dim in sorted({1, d - 1, d, d + 2} - {0}):
            rng = np.random.default_rng([d, dim])
            coeffs = _padded_coeffs([haar_state(rng, dim) for _ in range(d)])
            self.assert_polish_matches(coeffs, exclusion._reference_basis(d, rng))

    @pytest.mark.parametrize("d, dim", [(3, 3), (5, 4), (8, 10)])
    def test_polish_keeps_an_inexact_basis_gram(self, d, dim):
        rng = np.random.default_rng([d, dim, 1])
        coeffs = _padded_coeffs([haar_state(rng, dim) for _ in range(d)])
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        drift = 0.5e-8 * (raw + raw.conj().T) / np.linalg.norm(raw)
        basis = exclusion._reference_basis(d, rng) @ (np.eye(d) + drift)
        off = np.abs(basis.conj().T @ basis - np.eye(d)).max()
        assert 1e-9 <= off <= 1e-7
        self.assert_polish_matches(coeffs, basis)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 4), st.integers(0, 2**32 - 1))
    def test_dual_bound_equals_the_stacked_eigvalsh(self, r, extra, seed):
        rng = np.random.default_rng(seed)
        d = r + extra
        coeffs = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
        vectors = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
        _, x = exclusion._overlaps(coeffs, vectors)
        y = 0.5 * (x + x.conj().T)
        rhos = coeffs.T[:, :, None] * coeffs.conj().T[:, None, :]
        slack = float(np.linalg.eigvalsh(rhos - y).min())
        expected = float(np.trace(y).real) + r * min(0.0, slack)
        assert exclusion._dual_bound(coeffs, vectors) == expected


def test_search_over_many_qubit_states_holds_no_cubic_buffer():
    """100 states in C^2 with one short descent. One complex d x d x d
    buffer is 15.3 MiB, so no such buffer fits beside the search's own
    d x d arrays within the 16 MiB budget."""
    import tracemalloc

    rng = np.random.default_rng(0)
    problem = ExclusionProblem(tuple(haar_state(rng, 2) for _ in range(100)))
    tracemalloc.start()
    try:
        optimize(problem, restarts=1, max_iters=10, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def moved_family(d: int, n: int, f: float) -> tuple:
    """n-fold tensor powers of theorem1's family moved to fidelity f from the
    uniform centre u: psi_k = f u + sqrt(1 - f^2) w_k, with the unit
    directions w_k = (u/sqrt(d) - e_k)/sqrt((d-1)/d) orthogonal to u."""
    u = np.full(d, 1.0 / np.sqrt(d))
    w = (u / np.sqrt(d) - np.eye(d)) / np.sqrt((d - 1) / d)
    return tuple(tensor_power(qcore.normalized(f * u + np.sqrt(1 - f * f) * wk), n) for wk in w)


def _f_star(d: int) -> float:
    return float(np.sqrt((d - 1) / d))


class TestClosedFormFloor:
    """Below Theorem 1's threshold f* = sqrt((d-1)/d) the moved family has a
    positive exclusion floor E in closed form. f* + 1e-3 is left out: there
    the default search still stops on its iteration budget."""

    CASES = [
        (3, 1, _f_star(3) + 0.02),
        (4, 1, _f_star(4) + 0.1),
        (8, 1, 0.999),
        (3, 2, _f_star(3) + 0.1),
        (4, 2, 0.999),
        (3, 3, _f_star(3) + 0.02),
    ]

    @pytest.mark.parametrize("d, n, f", CASES)
    def test_search_brackets_the_floor(self, d, n, f):
        _, floor = gram_level_and_floor(d, n, f)
        result = optimize(ExclusionProblem(moved_family(d, n, f)), seed=0)
        assert result.stop_reason in ("value", "certificate")
        assert abs(result.best_value - floor) <= 1e-9
        assert result.dual_bound <= floor + 1e-12

    # below the Gram level (d-2)/(d-1) the floor is 0: m_k misses it there,
    # and the search reaches it
    ATTAINED = [
        (d, n, f) for d, n, f in CASES if gram_level_and_floor(d, n, f)[0] >= (d - 2) / (d - 1)
    ]

    @pytest.mark.parametrize("d, n, f", ATTAINED)
    def test_closed_form_measurement_attains_the_floor(self, d, n, f):
        c, floor = gram_level_and_floor(d, n, f)
        psi = np.array([s.amplitudes for s in moved_family(d, n, f)])
        mean = psi.mean(axis=0)
        m = (psi - mean) / np.sqrt(1 - c) - mean / np.sqrt(1 + (d - 1) * c)
        assert np.abs(m.conj() @ m.T - np.eye(d)).max() <= 1e-12
        value = float(np.sum(np.abs(np.einsum("kd,kd->k", m.conj(), psi)) ** 2))
        assert abs(value - floor) <= 1e-12


def _states_in_ball(rng: np.random.Generator, d: int, f: float, on_sphere: bool) -> tuple:
    """d states in C^d at fidelity f (on the sphere) or uniform in [f, 1]
    (inside) from a Haar centre c: f_k c + sqrt(1 - f_k^2) v_k, with v_k a
    Haar direction orthogonal to c, times a random phase."""
    centre = haar_state(rng, d).amplitudes
    states = []
    for _ in range(d):
        fk = f if on_sphere else rng.uniform(f, 1.0)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v -= np.vdot(centre, v) * centre
        psi = fk * centre + np.sqrt(1 - fk * fk) * v / np.linalg.norm(v)
        states.append(qcore.normalized(np.exp(2j * np.pi * rng.uniform()) * psi))
    return tuple(states)


class TestOneCopyFloor:
    """No d states in the ball {psi : |<psi|c>| >= f} are excluded better
    than the one-copy floor E(d, f, 1): each outcome k scores at least the
    ball's minimum of P(k|psi), and Jensen bounds their sum by E, which is 0
    from Theorem 1's f* = sqrt((d-1)/d) down. So the search never reports a
    value below E, nor a dual bound above its own value."""

    CASES = [
        (d, f, on_sphere)
        for d in range(2, 9)
        for f in (_f_star(d) - 0.2, _f_star(d) - 0.02, _f_star(d), _f_star(d) + 0.02,
                  (1 + _f_star(d)) / 2, 0.999)
        for on_sphere in (False, True)
    ]

    @pytest.mark.parametrize("d, f, on_sphere", CASES)
    def test_search_never_beats_the_floor(self, d, f, on_sphere):
        rng = np.random.default_rng([d, round(1000 * f), on_sphere])
        _, floor = gram_level_and_floor(d, 1, f)
        result = optimize(ExclusionProblem(_states_in_ball(rng, d, f, on_sphere)),
                          restarts=3, max_iters=200, seed=0)
        assert result.best_value >= floor - 1e-9
        assert result.dual_bound <= result.best_value + 1e-12
