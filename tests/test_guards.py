"""The argument guards of the library, one row each: every call raises the
listed exception with a message that names what was wrong."""

import json
import tracemalloc

import numpy as np
import pytest

from psigauge._geometry import bloch_from_state, fibonacci_sphere
from psigauge.ensembles import (
    ensemble_to_json,
    gamma_coefficient,
    theorem1_ensemble,
    theorem2_ensemble,
    theorem2_span_ensemble,
    theorem2_states,
    theorem4_ensemble,
    theorem4_states,
)
from psigauge.ontic import DiscreteOnticModel, classify, product_model, total_variation
from psigauge.orbit import OrbitCloud, orbit_step, steps_to_cover
from psigauge.qcore import (
    ContractViolation,
    Operator,
    Povm,
    StateVector,
    inner,
    outcome_table,
    pair_at_fidelity,
    tensor_power,
    unitary_from_correspondence,
)

QUBIT, QUTRIT = StateVector.basis(2, 0), StateVector.basis(3, 0)
POINT_MODEL = DiscreteOnticModel(1, {"a": [1.0]}, {})
# passes validation (min eigenvalue -9e-11, within OP_TOL) yet gives |0> a
# probability 1 + 1.8e-10, past the clamp's tolerance
STRAY_POVM = Povm(2, [Operator(2, np.diag(d)) for d in
                      ([-0.9e-10, 0.5], [-0.9e-10, 0.5], [1 + 1.8e-10, 0.0])])

GUARDS = {
    "basis index": (lambda: StateVector.basis(2, 2), ValueError, "basis index 2 out of range"),
    # the basis and uniform builders take their sizes by the one integer rule
    "basis float index": (
        lambda: StateVector.basis(2, 0.5), ValueError,
        "basis index must be an integer >= 0, got 0.5"),
    "basis bool index": (
        lambda: StateVector.basis(2, True), ValueError,
        "basis index must be an integer >= 0, got True"),
    "basis float dim": (
        lambda: StateVector.basis(2.0, 0), ValueError,
        "state dimension must be an integer >= 1, got 2.0"),
    "uniform float dim": (
        lambda: StateVector.uniform(2.0), ValueError,
        "state dimension must be an integer >= 1, got 2.0"),
    "uniform bool dim": (
        lambda: StateVector.uniform(True), ValueError,
        "state dimension must be an integer >= 1, got True"),
    "povm basis float dim": (
        lambda: Povm.basis(2.0), ValueError, "POVM dimension must be an integer >= 1, got 2.0"),
    "povm basis bool dim": (
        lambda: Povm.basis(True), ValueError, "POVM dimension must be an integer >= 1, got True"),
    "operator dim": (
        lambda: Operator(0, np.zeros((0, 0))), ValueError,
        "dimension must be an integer >= 1, got 0"),
    "operator shape": (lambda: Operator(2, np.eye(3)), ValueError, "expected a 2x2 matrix"),
    "empty povm": (lambda: Povm(2, ()), ValueError, "at least one effect"),
    "povm effect dim": (
        lambda: Povm(2, (Operator(3, np.eye(3)),)), ValueError, "of the POVM dimension"),
    "inner dims": (lambda: inner(QUBIT, QUTRIT), ValueError, "dimension mismatch: 2 vs 3"),
    "born range": (
        lambda: outcome_table([QUBIT], STRAY_POVM), ContractViolation,
        "probability 1.00000000018 outside [0, 1]"),
    "tensor power": (
        lambda: tensor_power(QUBIT, 0), ValueError, "n must be an integer >= 1, got 0"),
    "correspondence dims": (
        lambda: unitary_from_correspondence([QUBIT], [QUTRIT]), ValueError,
        "ambient dimensions differ"),
    "correspondence lengths": (
        lambda: unitary_from_correspondence([QUBIT], [QUBIT, QUBIT]), ValueError,
        "families of equal length"),
    "correspondence rank": (
        lambda: unitary_from_correspondence([QUBIT, QUBIT], [QUBIT, QUBIT]), ValueError,
        "rank-deficient"),
    "pair dim": (
        lambda: pair_at_fidelity(1, 0.5, 0), ValueError, "dimension must be an integer >= 2"),
    "sphere size": (lambda: fibonacci_sphere(0), ValueError, "n must be an integer >= 1, got 0"),
    "bloch qubit": (lambda: bloch_from_state(QUTRIT), ValueError, "needs a qubit, got dim 3"),
    "cloud shape": (
        lambda: OrbitCloud(np.zeros((2, 2)), 0, 0.02), ValueError, "expected an (n, 3) array"),
    "cloud finite": (
        lambda: OrbitCloud([[0.0, 0.0, 1.0], [np.nan, 0.0, 0.0]], 0, 0.02), ValueError,
        "non-finite points"),
    "cloud float generation": (
        lambda: OrbitCloud([[0.0, 0.0, 1.0]], 2.5, 0.02), ValueError,
        "generation must be an integer >= 0, got 2.5"),
    "cloud bool generation": (
        lambda: OrbitCloud([[0.0, 0.0, 1.0]], True, 0.02), ValueError,
        "generation must be an integer >= 0, got True"),
    "cloud negative generation": (
        lambda: OrbitCloud([[0.0, 0.0, 1.0]], -1, 0.02), ValueError,
        "generation must be an integer >= 0, got -1"),
    "coverage target": (
        lambda: steps_to_cover(1.0, 0.0, 0.05), ValueError, "target coverage must lie in (0, 1]"),
    "coverage steps": (
        lambda: steps_to_cover(1.0, 0.9, 0.05, max_steps=-1), ValueError,
        "max steps must be an integer >= 0, got -1"),
    "ontic space": (
        lambda: DiscreteOnticModel(0, {}, {}), ValueError, "lambda_count must be an integer >= 1"),
    "classify labels": (
        lambda: classify(POINT_MODEL, ["a"]), ValueError, "at least two preparations"),
    "variation lengths": (
        lambda: total_variation([0.5, 0.5], [1.0]), ValueError, "length mismatch"),
    "product copies": (
        lambda: product_model(POINT_MODEL, 0), ValueError,
        "copy count n must be an integer >= 1, got 0"),
    # every family builder takes its dimension by one integer rule
    "theorem4 dim": (
        lambda: theorem4_states(1, 0.0), ValueError, "d must be an integer >= 2, got 1"),
    "theorem4 float dim": (
        lambda: theorem4_ensemble(3.0, 0.5), ValueError, "d must be an integer >= 2, got 3.0"),
    "theorem1 float dim": (
        lambda: theorem1_ensemble(3.0), ValueError, "d must be an integer >= 2, got 3.0"),
    "theorem1 zero dim": (
        lambda: theorem1_ensemble(0), ValueError, "d must be an integer >= 2, got 0"),
    "theorem1 bool dim": (
        lambda: theorem1_ensemble(True), ValueError, "d must be an integer >= 2, got True"),
    "gamma fractional dim": (
        lambda: gamma_coefficient(3.5), ValueError, "d must be an integer >= 3, got 3.5"),
    "gamma small dim": (
        lambda: gamma_coefficient(2), ValueError, "d must be an integer >= 3, got 2"),
    # ((d-2)/(d-1))**(1/n) is 1.0 there: the d states would coincide, at delta_nd 0
    "theorem2 gram level": (
        lambda: theorem2_states(3, 10**17), ValueError, "rounds to 1 at d = 3, n = 10"),
    "theorem2 gram level, d = 1000": (
        lambda: theorem2_states(1000, 10**14), ValueError, "the states coincide"),
    # Theorem 2's counts are integers, as run_protocol requires of a file's n;
    # a bool is not a count, and 3.0 is refused like 2.5
    "theorem2 fractional copies": (
        lambda: theorem2_states(3, 2.5), ValueError, "n must be an integer >= 1, got 2.5"),
    "theorem2 span fractional copies": (
        lambda: theorem2_span_ensemble(3, 2.5), ValueError, "n must be an integer >= 1"),
    "theorem2 ensemble fractional copies": (
        lambda: theorem2_ensemble(3, 2.5), ValueError, "n must be an integer >= 1"),
    "theorem2 bool copies": (
        lambda: theorem2_states(3, True), ValueError, "n must be an integer >= 1, got True"),
    "theorem2 float copies": (
        lambda: theorem2_states(3, 3.0), ValueError, "n must be an integer >= 1, got 3.0"),
    "theorem2 float dim": (
        lambda: theorem2_span_ensemble(3.0, 2), ValueError, "d must be an integer >= 3, got 3.0"),
}


@pytest.mark.parametrize("call, error, fragment", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_a_numpy_integer_dimension_is_stored_as_a_python_int():
    # params go to strict JSON, which has no encoder for numpy integers
    for ensemble in (theorem1_ensemble(np.int64(3)), theorem4_ensemble(np.int64(3), 0.5)):
        assert type(ensemble.params["d"]) is int
        json.dumps(ensemble_to_json(ensemble))
    assert gamma_coefficient(np.int64(5)) == gamma_coefficient(5)


def test_numpy_integer_sizes_are_taken_as_python_ints():
    three, one = np.int64(3), np.int64(1)
    for state, expected in ((StateVector.basis(three, one), [0, 1, 0]),
                            (StateVector.uniform(three), [1 / np.sqrt(3)] * 3)):
        assert type(state.dim) is int and np.array_equal(state.amplitudes, expected)
    assert type(Povm.basis(three).dim) is int and Povm.basis(three).outcome_count == 3
    cloud = OrbitCloud([[0.0, 0.0, 1.0]], three, 0.02)
    assert type(cloud.generation) is int and cloud.generation == 3
    assert orbit_step(cloud).generation == 4


HUGE_POWERS = {
    "tensor power": lambda n: tensor_power(StateVector.uniform(3), n),
    "product model": lambda n: product_model(
        DiscreteOnticModel(3, {"a": [1 / 3] * 3}, {}), n),
    "theorem2 ensemble": lambda n: theorem2_ensemble(3, n),
}


@pytest.mark.parametrize("call", HUGE_POWERS.values(), ids=HUGE_POWERS.keys())
def test_a_huge_power_is_refused_without_being_computed(call):
    # 3**(10**7) alone takes megabytes and seconds to compute
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the cap"):
            call(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_product_tables_are_capped_not_only_the_ontic_space():
    # 2**11 ontic states pass a cap on the ontic space, but each product
    # response table would hold (2 * 2)**11 entries
    model = DiscreteOnticModel(2, {"a": [0.5, 0.5]}, {"m": np.eye(2)})
    with pytest.raises(ValueError, match="exceeds the cap"):
        product_model(model, 11)


def test_a_one_dimensional_power_is_not_multiplied_out():
    point = DiscreteOnticModel(1, {"a": [1.0]}, {"m": [[1.0]]})
    tracemalloc.start()
    try:
        state = tensor_power(StateVector(1, [1.0]), 10**7)
        product = product_model(point, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.dim == 1 and state.amplitudes.tolist() == [1.0]
    assert product is point
    assert peak < 64 * 1024
    # a phase whose modulus is off by 1e-13 (within the norm tolerance) would
    # underflow or overflow if its modulus were raised to the power too
    for modulus in (1 - 1e-13, 1 + 1e-13):
        assert tensor_power(StateVector(1, [modulus * np.exp(0.3j)]), 10**16).dim == 1


def test_theorem2_family_builds_while_its_gram_level_stays_below_one():
    family = theorem2_states(3, 10**16)  # one ulp below 1
    assert family.c == np.nextafter(1.0, 0.0)
    assert family.alpha < 0.0 and family.delta_nd > 0.0


def test_orbit_step_on_an_empty_cloud_only_advances_the_generation():
    grown = orbit_step(OrbitCloud(np.zeros((0, 3)), 4, 0.02))
    assert grown.size == 0
    assert grown.generation == 5


def test_orbit_step_on_a_one_point_cloud_only_advances_the_generation():
    # no pair to rotate about, so no candidates for the dedup
    grown = orbit_step(OrbitCloud([[0.0, 0.0, 1.0]], 4, 0.02))
    assert grown.points.tolist() == [[0.0, 0.0, 1.0]]
    assert grown.generation == 5
