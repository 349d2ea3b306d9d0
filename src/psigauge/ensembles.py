"""Exact constructions of the antidistinguishable state families, their
conclusive-exclusion measurements, the continuity bounds they certify, and
the resource-scaling comparisons between the different routes.

Each factory returns a :class:`NoGoEnsemble` whose states sit exactly on the
boundary of the fidelity ball around the ensemble center, and whose
measurement never fires outcome k on state k (up to construction residuals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import exclusion
from .qcore import (
    ContractViolation,
    Povm,
    StateVector,
    _amplitudes,
    _boundary_fidelity,
    _equal_overlap_family,
    _exclusion_vectors,
    _field,
    _float,
    _integer,
    _require,
    _rows_as_states,
    normalized,
    povm_from_json,
    povm_to_json,
    state_from_json,
    state_to_json,
    tensor_power,
)

KIND_THEOREM1 = "theorem1"
KIND_THEOREM2 = "theorem2"
KIND_THEOREM4 = "theorem4"

# scaling_report's floor: below it 2**pbr_copies outgrows the 4,300 digits
# the interpreter converts to a decimal string, so no report could be printed
MIN_SCALING_DELTA = 1e-8


@dataclass(frozen=True)
class NoGoEnsemble:
    """A packaged instance: preparations, exclusion measurement, the center
    state they all hug, and the fidelity-ball radius placing them exactly on
    its boundary. ``params`` records the construction inputs plus derived
    quantities (single-copy bound, Gram level, ...)."""

    kind: str
    params: dict
    states: tuple
    measurement: Povm
    center: StateVector
    delta_star: float


@dataclass(frozen=True)
class ScalingReport:
    """Resource counts needed to reach a target continuity bound by three
    different routes: growing the dimension, growing the copy count at d=3,
    or the product-qubit route (asymptotic formula only)."""

    delta_target: float
    thm1_dim: int
    thm2_copies_d3: int
    pbr_copies: int
    pbr_state_count: int
    notes: str


def _assemble(kind, params, states, measurement, center, delta_star) -> NoGoEnsemble:
    """Bundle an ensemble after verifying its two defining guarantees."""
    amps = _amplitudes(states)
    if amps.shape[1] != center.dim:
        raise ValueError(f"dimension mismatch: {amps.shape[1]} vs {center.dim}")
    target = 1.0 - delta_star
    fid = np.abs(amps @ center.amplitudes.conj())
    del amps  # exclusion_value stacks its own copy; do not hold two at once
    for k in np.flatnonzero(~(np.abs(fid - target) <= 1e-10)):  # NaN delta_star fails too
        raise ContractViolation(
            f"state {k} sits at fidelity {float(fid[k])!r}, expected {target!r}"
        )
    excl = exclusion.exclusion_value(states, measurement)
    if excl > 1e-9:
        raise ContractViolation(f"exclusion sum {excl:.3e} exceeds 1e-9")
    return NoGoEnsemble(kind, dict(params), tuple(states), measurement, center, delta_star)


def theorem1_ensemble(d: int) -> NoGoEnsemble:
    """The d states that each omit one basis direction, excluded by the
    computational-basis measurement: theorem4_ensemble at its widest t = f*,
    qcore's ``_boundary_fidelity(d)``, where state k is exactly normalized(1 - e_k).

    states[k] = (1/sqrt(d-1)) sum_{j != k} |j>; every state has fidelity f*
    to the uniform center, so the certified ball radius is delta_star =
    1 - f*, computed as (1/d)/(1 + f*) (1 - f*^2 = 1/d), which keeps the
    digits that 1 - f* cancels. ValueError unless d >= 2 is an integer.
    """
    d = _integer("dimension d", d, 2)
    f = _boundary_fidelity(d)
    return replace(theorem4_ensemble(d, f), kind=KIND_THEOREM1, params={"d": d},
                   delta_star=(1 / d) / (1 + f))


class Theorem2Family(NamedTuple):
    states: tuple
    c: float
    alpha: float
    beta: float
    delta_nd: float


def theorem2_states(d: int, n: int) -> Theorem2Family:
    """Single-copy states whose n-fold tensor powers have pairwise overlap
    (d-2)/(d-1): qcore's equal-overlap family about the uniform center at
    fidelity 1 - delta_nd, with the fields :func:`_theorem2_params` gives;
    state k is alpha |k> + (beta/sqrt(d)) sum_i |i>. ValueError as there."""
    x, p = _theorem2_params(d, n)
    states = tuple(_equal_overlap_family(StateVector.uniform(d), x))
    return Theorem2Family(states, p["c"], p["alpha"], p["beta"], p["delta_nd"])


def theorem2_ensemble(d: int, n: int) -> NoGoEnsemble:
    """n-copy ensemble: tensor powers of the theorem2_states family plus a
    d-outcome measurement on C_(d^n) that never fires outcome k on state k:
    the completion of qcore's exclusion vectors at the powers' Gram level
    (d-2)/(d-1). It is held as those d columns, so time and memory grow as
    d * d**n, not (d**n)**2.

    delta_star is the n-copy ball radius 1 - (1 - delta_nd)^n around the
    uniform center of C_(d^n); the single-copy bound delta_nd is in params.
    ValueError when d**n exceeds TENSOR_CAP, and from Povm.completion when
    the powers miss that Gram level, so their exclusion vectors are not
    orthonormal.
    """
    _, params = _theorem2_params(d, n)
    powers = [tensor_power(s, n) for s in theorem2_states(d, n).states]
    delta_star = params.pop("n_copy_delta_star")  # this ensemble's own radius
    measurement = Povm.completion(_exclusion_vectors(_amplitudes(powers), (d - 2) / (d - 1)))
    return _assemble(KIND_THEOREM2, params, powers, measurement, StateVector.uniform(d**n),
                     delta_star)


def theorem2_span_ensemble(d: int, n: int) -> NoGoEnsemble:
    """:func:`theorem2_ensemble` in the span of its states, at d amplitudes
    per state for any n. The isometry onto the theorem1 states takes power k
    to state k and E_k to |k><k| there, and tr(E_k)/D = 1/d on both sides, so
    the two share one outcome table, noisy or not, up to rounding. This is
    theorem1_ensemble(d), at its own radius, under theorem2's kind and params,
    which add the n-copy radius n_copy_delta_star and build no state."""
    params = _theorem2_params(d, n)[1]  # first: it checks d and n
    return replace(theorem1_ensemble(d), kind=KIND_THEOREM2, params=params)


def _theorem2_params(d: int, n: int) -> tuple:
    """(x, params) of d dimensions and n copies, from closed forms alone:
    c = ((d-2)/(d-1))^(1/n), x = (d-1)(1-c)/d = 1 - f^2 at single-copy fidelity
    f, alpha = -sqrt(1-c), beta = f - alpha/sqrt(d), delta_nd = 1 - f = x/(1 + f)
    and n_copy_delta_star = 1 - (1 - delta_nd)^n. 1 - c = -expm1(log1p(-1/(d-1))/n)
    keeps every field's digits at large n. ValueError unless d >= 3 and n >= 1
    are integers (not bools), and once c rounds to 1, where the states coincide."""
    d, n = _integer("dimension d", d, 3), _integer("copy count n", n, 1)
    gap = -math.expm1(math.log1p(-1.0 / (d - 1)) / n)  # 1 - c, without cancellation
    if 1.0 - gap == 1.0:
        raise ValueError(f"Gram level rounds to 1 at d = {d}, n = {n}: the states coincide")
    alpha, x = -math.sqrt(gap), (d - 1) * gap / d
    f = math.sqrt(1.0 - x)
    delta_nd = x / (1.0 + f)
    return x, {"d": d, "n": n, "c": 1.0 - gap, "alpha": alpha,
               "beta": f - alpha / math.sqrt(d), "delta_nd": delta_nd,
               "n_copy_delta_star": -math.expm1(n * math.log1p(-delta_nd))}


def gamma_coefficient(d: int) -> float:
    """Leading coefficient of the large-n continuity bound at dimension d:
    n * delta_nd -> gamma = (d-1) log1p(1/(d-2)) / (2d), cancelling nothing at large d."""
    d = _integer("dimension d", d, 3)
    return (d - 1) * math.log1p(1 / (d - 2)) / (2 * d)


def theorem4_states(d: int, t: float):
    """Cyclic-shift family of real states at fidelity t from the uniform
    center, each with zero amplitude on one basis direction.

    State 0 is normalized(p (1 - e_0) + tilt (e_1 - e_2)) with p = t / t_max,
    t_max = qcore's ``_boundary_fidelity(d)`` and tilt = sqrt((1-p)(1+p)(d-1)/2):
    the two parts are orthogonal, with squared norms p^2 (d-1) and
    (1-p^2)(d-1), so the state's overlap with the uniform center is p t_max = t.
    State 0 is normalized once, and state k is its k-step cyclic shift, bit for
    bit, so its amplitude at position k vanishes and the basis measurement
    conclusively excludes it. The d shifts are one matrix, checked once by
    qcore's ``_rows_as_states``. At t_max, p is exactly 1 and
    the tilt exactly 0, so state k is normalized(1 - e_k), theorem1's state;
    at t = 0 state 0 is (e_1 - e_2)/sqrt(2). Requires 0 <= t <= t_max and an
    integer d >= 2; at d = 2 only t = t_max is consistent (e_2 does not exist).

    Returns (states, center).
    """
    d = _integer("dimension d", d, 2)
    t_max = _boundary_fidelity(d)
    if not -1e-12 <= t <= t_max + 1e-12:
        raise ValueError(f"fidelity parameter t = {t!r} outside [0, {t_max!r}]")
    t = min(max(t, 0.0), t_max)
    if d == 2 and 1.0 - 2.0 * t * t > 1e-12:
        raise ValueError(f"at d = 2 only t = {t_max!r} admits real coefficients, got t = {t!r}")
    p = t / t_max
    coeff = np.full(d, p)
    coeff[0] = 0.0
    if d >= 3:
        tilt = math.sqrt((1.0 - p) * (1.0 + p) * (d - 1) / 2)
        coeff[1] += tilt
        coeff[2] -= tilt
    row = normalized(coeff).amplitudes
    # the windows of row + row starting at 1..d, reversed: window k is row shifted by k
    shifts = np.lib.stride_tricks.sliding_window_view(np.concatenate((row, row))[1:], d)[::-1]
    return _rows_as_states(shifts.copy()), StateVector.uniform(d)


def theorem4_ensemble(d: int, t: float) -> NoGoEnsemble:
    """theorem4_states packaged with the computational-basis measurement."""
    states, center = theorem4_states(d, t)
    return _assemble(KIND_THEOREM4, {"d": int(d), "t": t}, states, Povm.basis(d), center,
                     1.0 - t)


def scaling_report(delta_target: float) -> ScalingReport:
    """Resource counts to certify a continuity bound of delta_target.

    With t = delta(2 - delta), the thm1 bound 1 - sqrt((d-1)/d) <= delta
    holds exactly when d >= 1/t, and the d = 3 copies bound delta_nd <= delta
    exactly when 2**(-1/n) >= 1 - 3t/2, so both counts are closed forms
    (thm1_dim in exact rational arithmetic). The product-qubit route is
    reported from its asymptotic formula only (ceil(sqrt(2) ln 2 /
    sqrt(delta)) copies, 2^n states) and is flagged as such in the notes.
    """
    if not MIN_SCALING_DELTA <= delta_target < 1.0:
        raise ValueError(
            f"delta target must lie in [{MIN_SCALING_DELTA:g}, 1), got {delta_target}"
        )
    from fractions import Fraction  # here, so that start-up does not load decimal

    t = Fraction(delta_target) * (2 - Fraction(delta_target))
    copies = 1  # a single copy already reaches delta once t >= 1/3
    if t < Fraction(1, 3):
        copies = math.ceil(math.log(2.0) / -math.log1p(-1.5 * float(t)))
    pbr_copies = math.ceil(math.sqrt(2.0) * math.log(2.0) / math.sqrt(delta_target))
    return ScalingReport(
        delta_target=delta_target,
        thm1_dim=max(2, math.ceil(1 / t)),
        thm2_copies_d3=copies,
        pbr_copies=pbr_copies,
        pbr_state_count=2**pbr_copies,
        notes=(
            "dimension and copy counts are closed forms; the "
            "product-qubit route uses its asymptotic formula only"
        ),
    )


def ensemble_to_json(e: NoGoEnsemble) -> dict:
    return {
        "kind": e.kind,
        "params": dict(e.params),
        "states": [state_to_json(s) for s in e.states],
        "measurement": povm_to_json(e.measurement)["effects"],
        "center": state_to_json(e.center),
        "delta_star": e.delta_star,
    }


def ensemble_from_json(obj: dict) -> NoGoEnsemble:
    _require(obj, ("kind", "params", "states", "measurement", "center", "delta_star"), "ensemble")
    if not isinstance(obj["kind"], str):
        raise ValueError("ensemble JSON: kind must be a string")
    if not isinstance(obj["params"], dict):
        raise ValueError("ensemble JSON: params must be an object")
    if not isinstance(obj["states"], list) or not obj["states"]:
        raise ValueError("ensemble JSON: states must be a nonempty list")
    states = tuple(state_from_json(s) for s in obj["states"])
    dim = states[0].dim
    povm = povm_from_json({"dim": dim, "effects": obj["measurement"]})
    # re-verify the boundary-fidelity and exclusion invariants: serialized
    # payloads come from outside and must not bypass construction checks
    return _assemble(
        kind=obj["kind"],
        params=dict(obj["params"]),
        states=states,
        measurement=povm,
        center=state_from_json(obj["center"]),
        delta_star=_field(obj, "delta_star", "ensemble", _float),
    )


def states_from_json(payload) -> tuple:
    """The states of a list of states, a {"states": [...]} object or an ensemble
    object; TypeError for any other shape, ValueError for a malformed one."""
    if isinstance(payload, dict) and "kind" in payload:
        return ensemble_from_json(payload).states
    if isinstance(payload, dict) and "states" in payload:
        payload = payload["states"]
        if not isinstance(payload, list):
            raise ValueError("states JSON: 'states' must be a list of states")
    elif not isinstance(payload, list):
        raise TypeError(
            "expected a state list, a {'states': [...]} object, or an ensemble object"
        )
    return tuple(state_from_json(s) for s in payload)
