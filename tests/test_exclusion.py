import numpy as np
import pytest

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
from psigauge.qcore import ContractViolation, Operator, Povm, StateVector


class TestExclusionProblem:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ExclusionProblem(())

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError):
            ExclusionProblem((StateVector.basis(2, 0), StateVector.basis(3, 0)))

    def test_state_count_may_exceed_dimension(self):
        problem = ExclusionProblem(tuple(StateVector.basis(2, k % 2) for k in range(3)))
        assert problem.dim == 2
        assert problem.outcome_states == 3


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
        short = Povm(3, (Operator.identity(3),))
        with pytest.raises(ValueError):
            exclusion_value(states, short)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exclusion_value((StateVector.basis(2, 0),), Povm.basis(3))

    def test_invalid_povm(self):
        broken = Povm(2, (Operator.identity(2), Operator.identity(2)))
        with pytest.raises(ContractViolation):
            exclusion_value((StateVector.basis(2, 0),), broken)

    def test_validates_the_povm_once(self, monkeypatch):
        ens = theorem1_ensemble(5)
        calls = []
        real = qcore.validate_povm
        monkeypatch.setattr(qcore, "validate_povm", lambda p: calls.append(p) or real(p))
        exclusion_value(ens.states, ens.measurement)
        assert len(calls) == 1


class TestOptimize:
    def test_finds_perfect_exclusion_for_omit_one_family(self):
        ens = theorem1_ensemble(3)
        result = optimize(ExclusionProblem(ens.states), restarts=20, seed=0)
        assert result.best_value <= 1e-6

    def test_single_state_is_trivially_excludable(self):
        result = optimize(ExclusionProblem((StateVector.basis(2, 0),)), restarts=3)
        assert result.best_value <= 1e-12

    def test_identical_states_in_a_point_space_cannot_be_excluded(self):
        state = StateVector(1, np.array([1.0 + 0j]))
        result = optimize(ExclusionProblem((state, state)), restarts=3)
        assert abs(result.best_value - 1.0) <= 1e-9

    def test_retractions_go_through_the_module_expm(self, monkeypatch):
        # perfbench times expm where optimize looks it up
        calls = []
        real = exclusion.expm
        monkeypatch.setattr(exclusion, "expm", lambda m: calls.append(m) or real(m))
        optimize(ExclusionProblem(theorem1_ensemble(3).states), restarts=1, seed=0)
        assert calls

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
        # three qubit states force a 3-dimensional search space; the basis
        # returned must still assemble into a valid POVM on that space
        rng = np.random.default_rng(2)
        states = []
        for _ in range(3):
            raw = rng.normal(size=2) + 1j * rng.normal(size=2)
            states.append(StateVector(2, raw / np.linalg.norm(raw)))
        result = optimize(ExclusionProblem(tuple(states)), restarts=8, seed=0)
        assert result.basis.shape == (3, 3)
        povm = result_to_povm(result, 3)
        assert povm.dim == 3
        assert 0.0 <= result.best_value <= 3.0


class TestResultExport:
    def test_povm_includes_complement_lump(self):
        result = optimize(ExclusionProblem((StateVector.basis(3, 0),)), restarts=2)
        povm = result_to_povm(result, 1)
        assert povm.outcome_count == 2
        total = sum(e.entries for e in povm.effects)
        assert np.allclose(total, np.eye(3), atol=1e-10)

    def test_povm_outcome_range_checked(self):
        result = optimize(ExclusionProblem((StateVector.basis(2, 0),)), restarts=2)
        with pytest.raises(ValueError):
            result_to_povm(result, 5)

    def test_json_keys(self):
        result = optimize(ExclusionProblem((StateVector.basis(2, 0),)), restarts=2)
        obj = result_to_json(result)
        assert set(obj) == {"best_value", "restarts_used", "converged", "basis"}
        assert obj["basis"]["dim"] == 2

    def test_result_freezes_basis(self):
        result = ExclusionResult(0.0, np.eye(2, dtype=complex), 1, True)
        with pytest.raises(ValueError):
            result.basis[0, 0] = 5.0
