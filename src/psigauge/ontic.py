"""Discrete ontological models: preparation distributions and response
tables over a finite ontic space, every row checked by one row-stochastic
rule; quantum-reproduction checks; the overlap functional, its exclusion
inequality and the epistemic/ontic classification read off it; continuity
probing; and product (separable) models.

Ontic spaces are finite weighted sets throughout; continuous densities enter
only through discretization (see :func:`ks_qubit_model`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations
from typing import Callable, Mapping, Sequence

import numpy as np

from ._geometry import bloch_from_state, fibonacci_sphere
from .qcore import TENSOR_CAP, Ball, Povm, StateVector, gram, outcome_table, sample_state_in_ball
from .qcore import _boundary_fidelity, _equal_overlap_family, _field, _floats, _frozen, _immutable
from .qcore import _integer, _power_at_most, _require

SUM_TOL = 1e-10
#: below this, a preparation weight counts as "not in the support"
SUPPORT_THRESHOLD = 1e-12


def _stochastic(table: np.ndarray, what: str) -> np.ndarray:
    """``table`` frozen, or ValueError naming its first row (along the last
    axis) that is not a distribution: finite, >= 0 and summing to 1 within
    SUM_TOL. A 1-D table is one row."""
    rows = np.atleast_2d(table)
    # a valid row has entries >= 0 (false for NaN) that sum to 1; the sums run
    # over |entries|, so that no inf - inf arises, and one past float range fails
    with np.errstate(over="ignore"):
        sums = np.abs(rows).sum(axis=1)
        for i in np.flatnonzero(~(rows >= 0.0).all(axis=1) | (np.abs(sums - 1.0) > SUM_TOL)):
            row, where = rows[i], what if table.ndim == 1 else f"{what} row {i}"
            if not np.isfinite(row).all():
                raise ValueError(f"{where}: non-finite entry")
            if row.min(initial=0.0) < 0.0:
                raise ValueError(f"{where}: negative entry {float(row.min()):.3e}")
            raise ValueError(f"{where}: entries sum to {float(row.sum())!r}, expected 1")
    return _immutable(table)


@dataclass(frozen=True)
class DiscreteOnticModel:
    """Finite ontic space with preparation distributions P(lambda|Q) and
    row-stochastic response tables P(r|M,lambda). ValueError unless
    ``lambda_count`` is an integer >= 1."""

    lambda_count: int
    preparations: Mapping[str, np.ndarray]
    responses: Mapping[str, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "lambda_count", _integer("lambda_count", self.lambda_count, 1))
        n = self.lambda_count
        for kind, ndim in (("preparations", 1), ("responses", 2)):
            tables = {}
            for label, table in getattr(self, kind).items():
                arr, what = np.asarray(table, dtype=float), f"{kind}[{label!r}]"
                if arr.ndim != ndim or arr.shape[0] != n:
                    expected = f"{n} entries" if ndim == 1 else f"a {n}-row matrix"
                    raise ValueError(f"{what}: expected {expected}, got shape {arr.shape}")
                tables[str(label)] = _stochastic(arr, what)
            object.__setattr__(self, kind, tables)


@dataclass(frozen=True)
class ParametricModel:
    """Model defined by rules instead of tables: maps any pure state to a
    preparation distribution over a fixed ontic space, and any measurement
    description to a response table. Needed wherever a whole ball of states
    must be evaluated. ``preparation_rule`` must return a distribution: the
    continuity probe stops once its running minimum is zero everywhere."""

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
    it (the ball was only sampled), never proof. So the support and
    empirical_epsilon are upper bounds on the ball's exact ones. n_samples is
    the requested count; the probe evaluates its d extremal states first and
    may stop before drawing them all, or any."""

    delta: float
    n_samples: int
    common_support: tuple
    empirical_epsilon: float
    verdict: str  # "continuous-at-delta" | "no-witness-found"


def _lookup(tables: Mapping[str, np.ndarray], kind: str, label: str) -> np.ndarray:
    try:
        return tables[label]
    except KeyError:
        raise ValueError(f"unknown {kind} label {label!r}") from None


def predict(model: DiscreteOnticModel, q: str, m: str) -> np.ndarray:
    """Outcome distribution P(r|M,Q) = sum_lambda P(r|M,lambda) P(lambda|Q)."""
    prep = _lookup(model.preparations, "preparation", q)
    return prep @ _lookup(model.responses, "measurement", m)


def _overlap(model: DiscreteOnticModel, qs: Sequence[str]) -> tuple[float, np.ndarray]:
    """Common overlap of the preparations qs and the pointwise minimum it sums.
    The sum is capped at 1: the entries are non-negative, but each
    distribution sums to 1 only within SUM_TOL, so the sum for two equal ones
    can exceed 1 by rounding."""
    per_min = reduce(np.minimum, [_lookup(model.preparations, "preparation", q) for q in qs])
    return min(float(per_min.sum()), 1.0), per_min


def epsilon_overlap(model: DiscreteOnticModel, qs: Sequence[str]) -> OverlapReport:
    """Exact common overlap of the given preparations over the finite space."""
    if len(qs) < 2:
        raise ValueError("overlap needs at least two preparations")
    epsilon, per_min = _overlap(model, qs)
    return OverlapReport(epsilon, tuple(np.flatnonzero(per_min > 0.0).tolist()))


def nogo_check(model: DiscreteOnticModel, qs: Sequence[str], m: str) -> NoGoCheck:
    """Compare the exclusion sum sum_k P(k|M,Q_k) against the overlap epsilon.

    The measurement must have exactly one outcome per preparation: only then
    do the response rows spend all their mass on the summed outcomes, so that
    lhs >= epsilon is a theorem. ValueError for any other outcome count.
    """
    rows = _lookup(model.responses, "measurement", m)
    if rows.shape[1] != len(qs):
        raise ValueError(
            f"measurement {m!r} has {rows.shape[1]} outcomes for {len(qs)} preparations"
        )
    lhs = float(sum(predict(model, q, m)[k] for k, q in enumerate(qs)))
    eps = epsilon_overlap(model, qs).epsilon
    return NoGoCheck(lhs, eps, lhs >= eps - 1e-9)


def classify(model: DiscreteOnticModel, qs: Sequence[str]) -> Classification:
    """Epistemic iff some pair of (distinct-state) preparations shares ontic
    support; returns the maximizing pair, the first in qs order on ties."""
    if len(qs) < 2:
        raise ValueError("classification needs at least two preparations")
    best, best_pair = max(
        ((_overlap(model, pair)[0], pair) for pair in combinations(qs, 2)), key=lambda t: t[0]
    )
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
    keeps nonzero probability on its diagonal n-tuple. Each product response
    table, with (Lambda * m)**n entries for m outcomes, holds at most 10**6
    entries; a model with Lambda * m = 1 is its own product. ValueError
    unless n is an integer >= 1."""
    n = _integer("copy count n", n, 1)
    width = model.lambda_count * max((t.shape[1] for t in model.responses.values()), default=1)
    if n == 1 or width == 1:
        return model
    if not _power_at_most(width, n, TENSOR_CAP):
        raise ValueError(
            f"product response table (ontic states x outcomes = {width})**{n}"
            f" exceeds the cap of {TENSOR_CAP} entries"
        )
    preps = {k: _frozen(reduce(np.kron, [v] * n)) for k, v in model.preparations.items()}
    resps = {k: _frozen(reduce(np.kron, [m] * n)) for k, m in model.responses.items()}
    return DiscreteOnticModel(model.lambda_count**n, preps, resps)


def ks_qubit_model(grid_size: int) -> ParametricModel:
    """Discretized hemisphere qubit model on a Fibonacci lattice.

    Preparation weights P(lambda|psi) are proportional to
    max(0, b_psi . b_lambda); the response to a projective measurement along
    Bloch axis m is deterministic per lattice point: outcome + iff
    b_m . b_lambda >= 0 (ties, a measure-zero set, go to +). The continuum
    version reproduces the Born rule exactly; the lattice version reproduces
    it up to discretization error that shrinks as the grid grows.

    Measurement descriptions are finite nonzero Bloch 3-vectors (the + axis).
    ValueError unless grid_size is an integer >= 100.
    """
    grid_size = _integer("grid size", grid_size, 100)
    points = fibonacci_sphere(grid_size)

    def preparation_rule(state: StateVector) -> np.ndarray:
        weights = np.maximum(0.0, points @ bloch_from_state(state))
        return _frozen(weights / weights.sum())

    def response_rule(axis) -> np.ndarray:
        axis = np.asarray(axis, dtype=float)
        if axis.shape != (3,):
            raise ValueError(f"measurement axis must be a 3-vector, got {axis.shape}")
        if not (np.isfinite(axis).all() and axis.any()):
            raise ValueError(f"measurement axis must be finite and nonzero, got {axis.tolist()}")
        # only the sign counts; scaling by the largest entry keeps tiny and huge axes finite
        plus = points @ (axis / np.abs(axis).max()) >= 0.0
        return np.stack([plus, ~plus], axis=1).astype(float)

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
    preps = {f"q{k}": row for k, row in enumerate(_frozen(np.eye(count)))}
    resps = {}
    for idx, povm in enumerate(measurements):
        rows = outcome_table(states, povm)
        resps[f"m{idx}"] = _frozen(rows / rows.sum(axis=1, keepdims=True))
    return DiscreteOnticModel(count, preps, resps)


def model_from_parametric(
    family: ParametricModel, states: Mapping[str, StateVector]
) -> DiscreteOnticModel:
    """Tabulate a rule-based model's preparations on concrete states."""
    preps = {label: family.preparation_rule(s) for label, s in states.items()}
    return DiscreteOnticModel(family.lambda_count, preps, {})


def delta_continuity_probe(
    family: ParametricModel,
    center: StateVector,
    delta: float,
    n_samples: int,
    seed: int = 0,
) -> ContinuityReport:
    """Search one fidelity ball for an ontic state shared by every sampled
    preparation in it.

    Evaluates P(lambda|phi) for a deterministic extremal family of d states,
    then for n_samples seeded ball states, and intersects the supports at
    SUPPORT_THRESHOLD, stopping once the running minimum is zero everywhere.
    Per-sample seeds derive from the master seed, so results are independent
    of evaluation order; the extremal states go first, as they alone often
    end the probe. The extremal family is qcore's equal-overlap family at
    fidelity max(1 - delta, f*), f* = qcore's ``_boundary_fidelity(d)``:
    never wider than theorem1's, which keeps extremal pairs such as the
    antipodal qubit pair. ValueError unless n_samples is an integer >= 1.
    """
    n_samples = _integer("sample count n_samples", n_samples, 1)
    if family.dim != center.dim:
        raise ValueError(f"model dimension {family.dim} != center dimension {center.dim}")
    ball = Ball(center, delta)
    seeds = np.random.SeedSequence(seed)  # spawn(1) per draw yields the children of spawn(n)
    draws = (np.random.default_rng(seeds.spawn(1)[0]) for _ in range(n_samples))
    samples = (sample_state_in_ball(ball, rng) for rng in draws)
    running_min = np.full(family.lambda_count, np.inf)
    f = max(1.0 - delta, _boundary_fidelity(center.dim))
    for phi in chain(_equal_overlap_family(center, 1.0 - f * f), samples):
        # np.minimum keeps a NaN weight, which then fails the threshold
        np.minimum(running_min, family.preparation_rule(phi), out=running_min)
        if not running_min.any():  # no distribution lifts a zero, so no later probe counts
            break
    support = tuple(np.flatnonzero(running_min > SUPPORT_THRESHOLD).tolist())
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

    lambda_count = _integer("model JSON: lambda_count", obj["lambda_count"], 1)
    return DiscreteOnticModel(lambda_count, tables("preparations"), tables("responses"))
