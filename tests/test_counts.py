"""Every count and size the library takes goes through one integer rule,
``qcore._integer``: a float, a bool or a value below the least one is refused
with a ValueError naming the parameter, and a numpy integer is accepted and
kept as a Python int, so every value the count reaches is strict JSON."""

import dataclasses
import json

import numpy as np
import pytest

from psigauge._geometry import fibonacci_sphere
from psigauge.ensembles import theorem1_ensemble, theorem2_ensemble, theorem2_span_ensemble
from psigauge.exclusion import ExclusionProblem, optimize
from psigauge.experiment import NoiseSpec, report_to_json, run_protocol, sweep
from psigauge.ontic import (
    DiscreteOnticModel,
    delta_continuity_probe,
    ks_qubit_model,
    model_from_json,
    model_to_json,
    product_model,
)
from psigauge.orbit import coverage, initial_cloud, orbit_step, steps_to_cover
from psigauge.qcore import (
    Operator,
    Povm,
    StateVector,
    haar_state,
    pair_at_fidelity,
    povm_from_json,
    povm_to_json,
    state_from_json,
    state_to_json,
    tensor_power,
)

QUIET = NoiseSpec(0.0, 0.0)
PLUS = StateVector(2, np.array([1.0, 1.0]) / np.sqrt(2.0))
PAIR_MODEL = DiscreteOnticModel(2, {"a": [0.5, 0.5]}, {"m": np.eye(2)})
KS = ks_qubit_model(100)
CLOUD = initial_cloud(1.0)
THM1, THM2 = theorem1_ensemble(3), theorem2_ensemble(3, 2)
PROBLEM = ExclusionProblem(THM1.states)


def thm1_factory(d, n):
    return theorem1_ensemble(d)


def with_copies(n):
    return dataclasses.replace(THM2, params={**THM2.params, "n": n})


# site: (call taking the count, the name its message gives, the least count,
# a valid count, and where the result keeps the count, or None)
COUNTS = {
    "StateVector dim": (
        lambda v: StateVector(v, [1.0, 0.0]), "state dimension", 1, 2, lambda r: r.dim),
    "Operator dim": (
        lambda v: Operator(v, np.eye(2)), "operator dimension", 1, 2, lambda r: r.dim),
    "Povm dim": (
        lambda v: Povm(v, [Operator(2, np.eye(2))]), "POVM dimension", 1, 2, lambda r: r.dim),
    "tensor_power n": (lambda v: tensor_power(PLUS, v), "tensor power n", 1, 2, lambda r: r.dim),
    "haar_state dim": (lambda v: haar_state(v, 0), "state dimension", 1, 2, lambda r: r.dim),
    "pair_at_fidelity dim": (
        lambda v: pair_at_fidelity(v, 0.5, 0), "pair dimension", 2, 2, lambda r: r[0].dim),
    "fibonacci_sphere n": (fibonacci_sphere, "sphere point count n", 1, 3, None),
    "DiscreteOnticModel lambda_count": (
        lambda v: DiscreteOnticModel(v, {"a": [0.5, 0.5]}, {}), "lambda_count", 1, 2,
        lambda r: r.lambda_count),
    "product_model n": (
        lambda v: product_model(PAIR_MODEL, v), "copy count n", 1, 2, lambda r: r.lambda_count),
    "ks_qubit_model grid_size": (ks_qubit_model, "grid size", 100, 100, lambda r: r.lambda_count),
    "coverage grid_size": (lambda v: coverage(CLOUD, v, 0.05), "grid size", 100, 100, None),
    "delta_continuity_probe n_samples": (
        lambda v: delta_continuity_probe(KS, PLUS, 0.25, v), "sample count n_samples", 1, 2,
        lambda r: r.n_samples),
    "orbit_step rotations_per_pair": (
        lambda v: orbit_step(CLOUD, v), "rotations per pair", 4, 4, None),
    "steps_to_cover max_steps": (
        lambda v: steps_to_cover(1.0, 0.01, 0.05, grid_size=100, max_steps=v), "max steps", 0, 0,
        None),
    "optimize restarts": (
        lambda v: optimize(PROBLEM, restarts=v, max_iters=5), "restarts", 1, 1,
        lambda r: r.restarts_used),
    "optimize max_iters": (
        lambda v: optimize(PROBLEM, restarts=1, max_iters=v), "max_iters", 1, 2, None),
    "run_protocol shots": (
        lambda v: run_protocol(THM1, QUIET, v), "shots", 1, 10,
        lambda r: r.shots_per_preparation),
    "run_protocol copy count": (
        lambda v: run_protocol(with_copies(v), QUIET, 10), "copy count n", 1, 2,
        lambda r: r.n_copies),
    "sweep grid dim": (
        lambda v: sweep(thm1_factory, [(v, 1)], QUIET, 10), "grid dim", 1, 3,
        lambda r: r[0]["dim"]),
    "sweep grid copies": (
        lambda v: sweep(theorem2_span_ensemble, [(3, v)], QUIET, 10), "grid copies", 1, 2,
        lambda r: r[0]["copies"]),
}
SITES = pytest.mark.parametrize("call, name, least, valid, stored", COUNTS.values(),
                                ids=COUNTS.keys())


@SITES
@pytest.mark.parametrize("kind", ["float", "bool", "below least"])
def test_a_count_that_is_no_integer_or_too_small_is_refused_by_name(
        call, name, least, valid, stored, kind):
    value = {"float": float(valid), "bool": True, "below least": least - 1}[kind]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} must be an integer >= {least}, got {value!r}"


@SITES
def test_a_numpy_integer_count_is_accepted_and_kept_as_an_int(call, name, least, valid, stored):
    result = call(np.int64(valid))
    if stored is not None:
        assert type(stored(result)) is int
        assert stored(result) == stored(call(valid))


def test_run_protocol_refuses_fractional_shots():
    # it drew 100 shots per row but divided the estimate by 100.5
    with pytest.raises(ValueError, match="shots must be an integer >= 1, got 100.5"):
        run_protocol(THM1, QUIET, 100.5)


def test_run_protocol_refuses_bool_shots():
    # it reported "shots_per_preparation": true
    with pytest.raises(ValueError, match="shots must be an integer >= 1, got True"):
        run_protocol(THM1, QUIET, True)


@pytest.mark.parametrize("build, name", [
    (lambda: StateVector(2.0, [1.0, 0.0]), "state dimension"),
    (lambda: Povm(2.0, [Operator(2, np.eye(2))]), "POVM dimension"),
    (lambda: DiscreteOnticModel(2.0, {"a": [0.5, 0.5]}, {}), "lambda_count"),
])
def test_a_float_size_is_refused_before_it_reaches_json(build, name):
    # each was built and wrote a 2.0 that its own JSON reader rejects
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got 2.0"):
        build()


def test_numpy_sizes_write_json_their_readers_take_back():
    state = StateVector(np.int64(2), [1.0, 0.0])
    povm = Povm(np.int64(2), [Operator(np.int64(2), np.eye(2))])
    model = DiscreteOnticModel(np.int64(2), {"a": [0.5, 0.5]}, {})
    assert state_from_json(json.loads(json.dumps(state_to_json(state)))).dim == 2
    assert povm_from_json(json.loads(json.dumps(povm_to_json(povm)))).dim == 2
    assert model_from_json(json.loads(json.dumps(model_to_json(model)))).lambda_count == 2


def test_sweep_refuses_a_fractional_grid_point():
    # it ran the grid point (3.7, 1) as d = 3
    with pytest.raises(ValueError, match="grid dim must be an integer >= 1, got 3.7"):
        sweep(thm1_factory, [(3.7, 1)], QUIET, 10)


def test_numpy_counts_give_strict_json_reports_and_rows():
    report = run_protocol(THM1, QUIET, np.int64(10))
    rows = sweep(theorem2_span_ensemble, [(np.int64(3), np.int64(2))], QUIET, np.int64(10))
    json.dumps(report_to_json(report), allow_nan=False)
    json.dumps(rows, allow_nan=False)
    assert rows[0]["shots"] == report.shots_per_preparation == 10
