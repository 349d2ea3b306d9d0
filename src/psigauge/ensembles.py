"""Exact constructions of the antidistinguishable state families, their
conclusive-exclusion measurements, the continuity bounds they certify, and
the resource-scaling comparisons between the different routes.

Each factory returns a :class:`NoGoEnsemble` whose states sit exactly on the
boundary of the fidelity ball around the ensemble center, and whose
measurement never fires outcome k on state k (up to construction residuals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .qcore import (
    ContractViolation,
    Povm,
    StateVector,
    _amplitudes,
    _field,
    _require,
    normalized,
    outcome_table,
    povm_from_json,
    povm_to_json,
    state_from_json,
    state_to_json,
    symmetric_frames,
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
    for k in np.flatnonzero(~(np.abs(fid - target) <= 1e-10)):  # NaN delta_star fails too
        raise ContractViolation(
            f"state {k} sits at fidelity {float(fid[k])!r}, expected {target!r}"
        )
    if measurement.outcome_count < len(states):
        raise ValueError(
            f"measurement has {measurement.outcome_count} outcomes for {len(states)} states"
        )
    excl = sum(outcome_table(states, measurement).diagonal())
    if excl > 1e-9:
        raise ContractViolation(f"exclusion sum {excl:.3e} exceeds 1e-9")
    return NoGoEnsemble(kind, dict(params), tuple(states), measurement, center, delta_star)


def theorem1_ensemble(d: int) -> NoGoEnsemble:
    """The d states that each omit one basis direction, excluded by the
    computational-basis measurement.

    states[k] = (1/sqrt(d-1)) sum_{j != k} |j>; every state has fidelity
    sqrt((d-1)/d) to the uniform center, so the certified ball radius is
    delta_star = 1 - sqrt((d-1)/d).
    """
    if d < 2:
        raise ValueError(f"need dimension >= 2, got {d}")
    states = tuple(map(normalized, 1.0 - np.eye(d)))
    delta_star = 1.0 - math.sqrt((d - 1) / d)
    return _assemble(
        KIND_THEOREM1,
        {"d": d},
        states,
        Povm.basis(d),
        StateVector.uniform(d),
        delta_star,
    )


class Theorem2Family(NamedTuple):
    states: tuple
    c: float
    alpha: float
    beta: float
    delta_nd: float


def _delta_from_alpha(d: int, alpha: float) -> float:
    return 1.0 - math.sqrt(1.0 - (d - 1) * alpha * alpha / d)


def theorem2_states(d: int, n: int) -> Theorem2Family:
    """Single-copy states whose n-fold tensor powers have pairwise overlap
    (d-2)/(d-1).

    c = ((d-2)/(d-1))^(1/n) is the single-copy Gram level; the states are
    states[k] = alpha |k> + (beta/sqrt(d)) sum_i |i> with alpha = -sqrt(1-c)
    and beta chosen so each state is normalized. All of them sit at fidelity
    1 - delta_nd from the uniform center, delta_nd = 1 - sqrt(1-(d-1)a^2/d).
    """
    if d < 3:
        raise ValueError(f"need dimension >= 3, got {d}")
    if n < 1:
        raise ValueError(f"need copy count >= 1, got {n}")
    c = ((d - 2) / (d - 1)) ** (1.0 / n)
    alpha = -math.sqrt(1.0 - c)
    beta = -alpha / math.sqrt(d) + math.sqrt(alpha * alpha / d + c)
    rows = np.full((d, d), beta / math.sqrt(d))
    rows[np.diag_indices(d)] += alpha
    states = tuple(map(normalized, rows))
    return Theorem2Family(states, c, alpha, beta, _delta_from_alpha(d, alpha))


def theorem2_ensemble(d: int, n: int) -> NoGoEnsemble:
    """n-copy ensemble: tensor powers of the theorem2_states family plus a
    d-outcome measurement on C_(d^n) that never fires outcome k on state k.

    The measurement comes from the isometry V matching the tensor powers to
    the theorem1_ensemble states embedded in C_(d^n) (legitimate because the
    two families share one Gram matrix). With u_k the V-preimage of embedded
    |k>, the effects are E_k = |u_k><u_k| + (1/d)(I - sum_m |u_m><u_m|); the
    complement never fires on the span of the tensor powers, so the
    zero-probability property survives the completion. The measurement is
    held in factored form (:meth:`Povm.completion` of the u_k), so time and
    memory grow as d * d**n, not (d**n)**2.

    delta_star is the n-copy ball radius 1 - (1 - delta_nd)^n around the
    uniform center of C_(d^n); the single-copy bound delta_nd is in params.
    ValueError when d**n exceeds TENSOR_CAP.
    """
    family = theorem2_states(d, n)
    powers = [tensor_power(s, n) for s in family.states]
    delta_star = 1.0 - (1.0 - family.delta_nd) ** n
    params = {
        "d": d,
        "n": n,
        "c": family.c,
        "alpha": family.alpha,
        "beta": family.beta,
        "delta_nd": family.delta_nd,
    }
    return _assemble(
        KIND_THEOREM2,
        params,
        powers,
        _theorem2_measurement(powers),
        StateVector.uniform(d**n),
        delta_star,
    )


def _theorem2_measurement(powers: list) -> Povm:
    """The factored measurement of :func:`theorem2_ensemble`. With the frames
    :func:`symmetric_frames` pairs for the powers and the theorem1 states,
    column k of the D x d array U = f_src f_dst^dag is the preimage of |k>;
    no D x D matrix is formed."""
    f_src, f_dst = symmetric_frames(powers, theorem1_ensemble(len(powers)).states)
    return Povm.completion(f_src @ f_dst.conj().T)


def gamma_coefficient(d: int) -> float:
    """Leading coefficient of the large-n continuity bound at dimension d:
    n * delta_nd -> gamma = (d-1)(log(d-1) - log(d-2)) / (2d)."""
    if d < 3:
        raise ValueError(f"need dimension >= 3, got {d}")
    return (d - 1) * (math.log(d - 1) - math.log(d - 2)) / (2 * d)


def theorem4_states(d: int, t: float):
    """Cyclic-shift family of real states at fidelity t from the uniform
    center, each with zero amplitude on one basis direction.

    Coefficients: a_0 = 0 and (a_1, ..., a_(d-1)) = (t sqrt(d)/(d-1)) * ones
    + r * w, where w = (1, -1, 0, ..., 0)/sqrt(2) is a fixed unit vector
    orthogonal to the ones vector and r = sqrt(1 - t^2 d/(d-1)). State k is
    the k-step cyclic shift, so its amplitude at position k vanishes and the
    basis measurement conclusively excludes it. Requires
    0 <= t <= sqrt((d-1)/d); at d = 2 only the extreme point t = 1/sqrt(2)
    is consistent (the orthogonal direction w does not exist in 1 dimension).

    Returns (states, center).
    """
    if d < 2:
        raise ValueError(f"need dimension >= 2, got {d}")
    t_max = math.sqrt((d - 1) / d)
    if not -1e-12 <= t <= t_max + 1e-12:
        raise ValueError(f"fidelity parameter t = {t!r} outside [0, {t_max!r}]")
    t = min(max(t, 0.0), t_max)
    r_sq = 1.0 - t * t * d / (d - 1)
    if d == 2 and r_sq > 1e-12:
        raise ValueError(
            f"at d = 2 only t = {t_max!r} admits real coefficients, got t = {t!r}"
        )
    r = math.sqrt(max(0.0, r_sq))
    coeff = np.full(d, t * math.sqrt(d) / (d - 1))
    coeff[0] = 0.0
    if d >= 3:
        coeff[1] += r / math.sqrt(2.0)
        coeff[2] -= r / math.sqrt(2.0)
    shifts = np.arange(d)[None, :] - np.arange(d)[:, None]  # row k is coeff rolled by k
    return tuple(map(normalized, coeff[shifts % d])), StateVector.uniform(d)


def theorem4_ensemble(d: int, t: float) -> NoGoEnsemble:
    """theorem4_states packaged with the computational-basis measurement."""
    states, center = theorem4_states(d, t)
    return _assemble(
        KIND_THEOREM4, {"d": d, "t": t}, states, Povm.basis(d), center, 1.0 - t
    )


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
        kind=str(obj["kind"]),
        params=dict(obj["params"]),
        states=states,
        measurement=povm,
        center=state_from_json(obj["center"]),
        delta_star=_field(obj, "delta_star", "ensemble", float),
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
