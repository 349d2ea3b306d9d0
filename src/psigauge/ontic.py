"""Discrete ontological models: preparation distributions over a finite
ontic space, response tables, quantum-reproduction checks, the overlap
functional and its exclusion inequality, epistemic/ontic classification,
continuity probing, and product (separable) models.

Ontic spaces are finite weighted sets throughout; continuous densities enter
only through discretization (see :func:`ks_qubit_model`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Mapping, Sequence

import numpy as np

from ._geometry import bloch_from_state, fibonacci_sphere
from .qcore import Ball, Povm, StateVector, gram, normalized, outcome_table, sample_state_in_ball
from .qcore import _at_fidelity, _field, _floats, _frozen, _require

SUM_TOL = 1e-10
#: below this, a preparation weight counts as "not in the support"
SUPPORT_THRESHOLD = 1e-12


def _check_distribution(vec: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{what}: non-finite entry")
    if float(vec.min(initial=0.0)) < 0.0:
        raise ValueError(f"{what}: negative entry {float(vec.min()):.3e}")
    with np.errstate(over="ignore"):  # an overflowing sum fails the check below
        total = float(vec.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"{what}: entries sum to {total!r}, expected 1")
    return _frozen(vec)


@dataclass(frozen=True)
class DiscreteOnticModel:
    """Finite ontic space with preparation distributions P(lambda|Q) and
    row-stochastic response tables P(r|M,lambda)."""

    lambda_count: int
    preparations: Mapping[str, np.ndarray]
    responses: Mapping[str, np.ndarray]

    def __post_init__(self):
        if self.lambda_count < 1:
            raise ValueError("ontic space must contain at least one state")
        preps = {}
        for label, vec in self.preparations.items():
            arr = np.asarray(vec, dtype=float)
            if arr.shape != (self.lambda_count,):
                raise ValueError(
                    f"preparations[{label!r}]: expected {self.lambda_count} entries,"
                    f" got shape {arr.shape}"
                )
            preps[str(label)] = _check_distribution(arr, f"preparations[{label!r}]")
        resps = {}
        for label, mat in self.responses.items():
            arr = np.asarray(mat, dtype=float)
            if arr.ndim != 2 or arr.shape[0] != self.lambda_count:
                raise ValueError(
                    f"responses[{label!r}]: expected a {self.lambda_count}-row matrix,"
                    f" got shape {arr.shape}"
                )
            # a valid row has entries >= 0 (false for NaN) that sum to 1; the sums run
            # over |entries|, so that no inf - inf arises, and one past float range fails
            with np.errstate(over="ignore"):
                sums = np.abs(arr).sum(axis=1)
            bad = ~(arr >= 0.0).all(axis=1) | (np.abs(sums - 1.0) > SUM_TOL)
            for i in np.flatnonzero(bad):  # the first bad row raises its own diagnostic
                _check_distribution(arr[i], f"responses[{label!r}] row {i}")
            resps[str(label)] = _frozen(arr)
        object.__setattr__(self, "preparations", preps)
        object.__setattr__(self, "responses", resps)


@dataclass(frozen=True)
class ParametricModel:
    """Model defined by rules instead of tables: maps any pure state to a
    preparation distribution over a fixed ontic space, and any measurement
    description to a response table. Needed wherever a whole ball of states
    must be evaluated."""

    dim: int
    lambda_count: int
    preparation_rule: Callable[[StateVector], np.ndarray]
    response_rule: Callable[[np.ndarray], np.ndarray]
    description: str = ""

    def predict(self, state: StateVector, measurement) -> np.ndarray:
        """Outcome distribution for a state and a measurement description."""
        return self.preparation_rule(state) @ self.response_rule(measurement)


@dataclass(frozen=True)
class OverlapReport:
    """Common overlap of a preparation family: epsilon = sum over lambda of
    min_k P(lambda|Q_k)."""

    epsilon: float
    witness_lambdas: tuple
    per_lambda_min: np.ndarray


@dataclass(frozen=True)
class NoGoCheck:
    lhs: float
    epsilon: float
    inequality_holds: bool


@dataclass(frozen=True)
class Classification:
    verdict: str  # "psi-epistemic" | "psi-ontic"
    pair: tuple | None
    overlap: float


@dataclass(frozen=True)
class ContinuityReport:
    """Result of probing one fidelity ball. A nonempty common support is a
    witness of continuity at this radius; an empty one is evidence against
    it (the ball was only sampled), never proof."""

    delta: float
    n_samples: int
    common_support: tuple
    empirical_epsilon: float
    verdict: str  # "continuous-at-delta" | "no-witness-found"


def _prep(model: DiscreteOnticModel, label: str) -> np.ndarray:
    try:
        return model.preparations[label]
    except KeyError:
        raise ValueError(f"unknown preparation label {label!r}") from None


def _resp(model: DiscreteOnticModel, label: str) -> np.ndarray:
    try:
        return model.responses[label]
    except KeyError:
        raise ValueError(f"unknown measurement label {label!r}") from None


def predict(model: DiscreteOnticModel, q: str, m: str) -> np.ndarray:
    """Outcome distribution P(r|M,Q) = sum_lambda P(r|M,lambda) P(lambda|Q)."""
    return _prep(model, q) @ _resp(model, m)


def _overlap_sum(per_min: np.ndarray) -> float:
    """Sum of a pointwise minimum of distributions, capped at 1. The entries
    are non-negative, but each distribution sums to 1 only within SUM_TOL,
    so the sum for two equal ones can exceed 1 by rounding."""
    return min(float(per_min.sum()), 1.0)


def epsilon_overlap(model: DiscreteOnticModel, qs: Sequence[str]) -> OverlapReport:
    """Exact common overlap of the given preparations over the finite space."""
    if len(qs) < 2:
        raise ValueError("overlap needs at least two preparations")
    stacked = np.array([_prep(model, q) for q in qs])
    per_min = np.min(stacked, axis=0)
    witnesses = tuple(int(i) for i in np.nonzero(per_min > 0.0)[0])
    return OverlapReport(_overlap_sum(per_min), witnesses, _frozen(per_min))


def nogo_check(model: DiscreteOnticModel, qs: Sequence[str], m: str) -> NoGoCheck:
    """Compare the exclusion sum sum_k P(k|M,Q_k) against the overlap epsilon.

    The lower bound lhs >= epsilon is guaranteed when the measurement's
    outcome count equals the number of preparations (the response rows then
    spend all their mass on the summed outcomes).
    """
    rows = _resp(model, m)
    if rows.shape[1] < len(qs):
        raise ValueError(
            f"measurement {m!r} has {rows.shape[1]} outcomes,"
            f" fewer than the {len(qs)} preparations"
        )
    lhs = float(sum(predict(model, q, m)[k] for k, q in enumerate(qs)))
    eps = epsilon_overlap(model, qs).epsilon
    return NoGoCheck(lhs, eps, lhs >= eps - 1e-9)


def classify(model: DiscreteOnticModel, qs: Sequence[str]) -> Classification:
    """Epistemic iff some pair of (distinct-state) preparations shares ontic
    support; returns the maximizing pair."""
    if len(qs) < 2:
        raise ValueError("classification needs at least two preparations")
    best_pair = None
    best = 0.0
    for i in range(len(qs)):
        p_i = _prep(model, qs[i])
        for j in range(i + 1, len(qs)):
            ov = _overlap_sum(np.minimum(p_i, _prep(model, qs[j])))
            if ov > best:
                best = ov
                best_pair = (qs[i], qs[j])
    if best > SUPPORT_THRESHOLD:
        return Classification("psi-epistemic", best_pair, best)
    return Classification("psi-ontic", None, best)


def total_variation(p: Sequence[float], q: Sequence[float]) -> float:
    """(1/2) sum |p - q|. For two preparations, epsilon = 1 - total_variation."""
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise ValueError(f"length mismatch: {pa.shape} vs {qa.shape}")
    return 0.5 * float(np.abs(pa - qa).sum())


def product_model(model: DiscreteOnticModel, n: int) -> DiscreteOnticModel:
    """n independent copies: ontic space Lambda^n, preparation distributions
    P(lambda^n|Q^n) = prod_i P(lambda_i|Q), response tables for the product
    measurements. Separable by construction: every single-copy support point
    keeps nonzero probability on its diagonal n-tuple. The product space
    holds at most 10**6 ontic states."""
    if n < 1:
        raise ValueError(f"copy count must be >= 1, got {n}")
    if n == 1:
        return model
    if model.lambda_count**n > 10**6:
        raise ValueError(
            f"product ontic space {model.lambda_count}**{n} exceeds the cap of {10**6}"
        )
    preps = {label: reduce(np.kron, [vec] * n) for label, vec in model.preparations.items()}
    resps = {label: reduce(np.kron, [mat] * n) for label, mat in model.responses.items()}
    return DiscreteOnticModel(model.lambda_count**n, preps, resps)


def ks_qubit_model(grid_size: int) -> ParametricModel:
    """Discretized hemisphere qubit model on a Fibonacci lattice.

    Preparation weights P(lambda|psi) are proportional to
    max(0, b_psi . b_lambda); the response to a projective measurement along
    Bloch axis m is deterministic per lattice point: outcome + iff
    b_m . b_lambda >= 0 (ties, a measure-zero set, go to +). The continuum
    version reproduces the Born rule exactly; the lattice version reproduces
    it up to discretization error that shrinks as the grid grows.

    Measurement descriptions are unit Bloch 3-vectors (the + axis).
    """
    if grid_size < 100:
        raise ValueError(f"grid size must be >= 100, got {grid_size}")
    points = fibonacci_sphere(grid_size)

    def preparation_rule(state: StateVector) -> np.ndarray:
        weights = np.maximum(0.0, points @ bloch_from_state(state))
        return weights / weights.sum()

    def response_rule(axis) -> np.ndarray:
        axis = np.asarray(axis, dtype=float)
        if axis.shape != (3,):
            raise ValueError(f"measurement axis must be a 3-vector, got {axis.shape}")
        axis = axis / np.linalg.norm(axis)
        plus = points @ axis >= 0.0
        table = np.zeros((grid_size, 2))
        table[plus, 0] = 1.0
        table[~plus, 1] = 1.0
        return table

    return ParametricModel(
        dim=2,
        lambda_count=grid_size,
        preparation_rule=preparation_rule,
        response_rule=response_rule,
        description=f"hemisphere qubit model, {grid_size}-point Fibonacci lattice",
    )


def psi_ontic_fixture(
    states: Sequence[StateVector], measurements: Sequence[Povm]
) -> DiscreteOnticModel:
    """One ontic state per quantum state; responses straight from the Born
    rule. Reproduces quantum statistics exactly on the given families and is
    psi-ontic by construction. Labels are q0..q{n-1} and m0..m{n-1}."""
    for i, j in np.argwhere(np.abs(np.triu(gram(states), 1)) >= 1.0 - 1e-12):  # first pair
        raise ValueError(f"states {i} and {j} coincide up to phase")
    count = len(states)
    preps = {f"q{k}": np.eye(count)[k] for k in range(count)}
    resps = {}
    for idx, povm in enumerate(measurements):
        rows = outcome_table(states, povm)
        resps[f"m{idx}"] = rows / rows.sum(axis=1, keepdims=True)
    return DiscreteOnticModel(count, preps, resps)


def model_from_parametric(
    family: ParametricModel,
    states: Mapping[str, StateVector],
    measurements: Mapping[str, object] | None = None,
) -> DiscreteOnticModel:
    """Tabulate a rule-based model on concrete states and measurements."""
    preps = {label: family.preparation_rule(s) for label, s in states.items()}
    resps = {}
    for label, m in (measurements or {}).items():
        resps[label] = family.response_rule(m)
    return DiscreteOnticModel(family.lambda_count, preps, resps)


def _extremal_probe_states(center: StateVector, delta: float) -> list:
    """Worst-case deterministic probe family for one ball.

    The theorem1_ensemble states are carried from the uniform center to the
    probe center by a Householder swap. If the ball is smaller than their
    natural fidelity radius they are pulled along the geodesic onto the ball
    boundary; otherwise they are included unchanged (pushing them outward
    would destroy extremal pairs such as the antipodal qubit pair).
    """
    from .ensembles import theorem1_ensemble  # local import to avoid a cycle

    d = center.dim
    if d < 2:
        return []
    reference = theorem1_ensemble(d)
    u = reference.center.amplitudes
    c = center.amplitudes
    z = complex(np.vdot(c, u))
    c_aligned = c * np.exp(1j * np.angle(z)) if abs(z) > 0 else c
    v = u - c_aligned
    vnorm_sq = float(np.vdot(v, v).real)
    if vnorm_sq > 1e-24:
        householder = np.eye(d) - 2.0 * np.outer(v, v.conj()) / vnorm_sq
    else:
        householder = np.eye(d)
    moved = [normalized(householder @ s.amplitudes) for s in reference.states]
    if delta > reference.delta_star + 1e-12:
        return moved
    out = []
    target = 1.0 - delta
    for s in moved:
        z_k = complex(np.vdot(c, s.amplitudes))
        aligned = s.amplitudes * np.exp(-1j * np.angle(z_k))
        orth = aligned - abs(z_k) * c
        out.append(_at_fidelity(c, orth / np.linalg.norm(orth), target))
    return out


def delta_continuity_probe(
    family: ParametricModel,
    center: StateVector,
    delta: float,
    n_samples: int,
    seed: int = 0,
) -> ContinuityReport:
    """Search one fidelity ball for an ontic state shared by every sampled
    preparation in it.

    Evaluates P(lambda|phi) for n_samples seeded ball states plus the
    deterministic extremal family (see :func:`_extremal_probe_states`) and
    intersects the supports at SUPPORT_THRESHOLD. Per-sample seeds derive
    from the master seed, so results are independent of evaluation order.
    """
    if n_samples < 1:
        raise ValueError("sample count must be >= 1")
    if family.dim != center.dim:
        raise ValueError(f"model dimension {family.dim} != center dimension {center.dim}")
    ball = Ball(center, delta)
    probes = []
    for child in np.random.SeedSequence(seed).spawn(n_samples):
        probes.append(sample_state_in_ball(ball, np.random.default_rng(child)))
    probes.extend(_extremal_probe_states(center, delta))
    mask = np.ones(family.lambda_count, dtype=bool)
    running_min = np.full(family.lambda_count, np.inf)
    for phi in probes:
        weights = family.preparation_rule(phi)
        mask &= weights > SUPPORT_THRESHOLD
        running_min = np.minimum(running_min, weights)
    support = tuple(int(i) for i in np.nonzero(mask)[0])
    verdict = "continuous-at-delta" if support else "no-witness-found"
    return ContinuityReport(delta, n_samples, support, float(running_min.sum()), verdict)


def model_to_json(model: DiscreteOnticModel) -> dict:
    return {
        "lambda_count": model.lambda_count,
        "preparations": {k: v.tolist() for k, v in model.preparations.items()},
        "responses": {k: v.tolist() for k, v in model.responses.items()},
    }


def model_from_json(obj: dict) -> DiscreteOnticModel:
    _require(obj, ("lambda_count", "preparations", "responses"), "model")

    def tables(field: str) -> dict:
        _require(obj[field], (), f"model {field}")
        return {str(k): _field(obj[field], k, f"model {field}", _floats) for k in obj[field]}

    return DiscreteOnticModel(
        _field(obj, "lambda_count", "model"), tables("preparations"), tables("responses")
    )
