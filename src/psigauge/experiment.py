"""Finite-shot simulation of the exclusion tests under noise.

The noise model is depolarizing (weight p on the maximally mixed state)
followed by a uniform outcome flip (weight q on the uniform outcome
distribution). The overlap bound uses exact one-sided Clopper-Pearson
intervals with a union bound across the d excluded outcomes; zero-count
cells dominate these experiments and exact intervals are much tighter
there than Hoeffding-style bounds. The choice of statistical procedure is
recorded in every report via the confidence field and, for multi-copy
ensembles, the preparation-independence flag.

Each limit is the exact Clopper-Pearson limit at every count:
``scipy.special.betaincinv`` where one evaluation of the binomial tail
(``betaincc``) confirms it, bisection on the tail elsewhere. Both are
imported inside ``_clopper_pearson_upper`` so that the CLI starts without
scipy; importing ``scipy.stats`` for ``beta.ppf``, which runs the same
kernel, would be most of a command's start-up.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .ensembles import KIND_THEOREM2, NoGoEnsemble
from .qcore import Povm, StateVector, _frozen, _integer, effect_traces, outcome_table

#: betaincinv's value is kept when its tail is this close to the significance,
#: relatively, so a kept limit holds at level 1 - significance·(1 + TAIL_TOL)
TAIL_TOL = 1e-5


@dataclass(frozen=True)
class NoiseSpec:
    depolarizing_p: float
    outcome_flip_q: float

    def __post_init__(self):
        for name, value in (
            ("depolarizing_p", self.depolarizing_p),
            ("outcome_flip_q", self.outcome_flip_q),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class EstimateReport:
    ensemble_kind: str
    shots_per_preparation: int
    counts: np.ndarray  # (preparations, outcomes) integer matrix
    epsilon_exp_hat: float
    epsilon_upper_bound: float
    confidence: float
    n_copies: int
    epsilon_single_copy_bound: float
    assumes_preparation_independence: bool
    seed: int


def _noisy_rows(table: np.ndarray, povm: Povm, noise: NoiseSpec) -> np.ndarray:
    """Outcome distributions on the depolarized states of an outcome table's
    rows, each then mixed with the uniform outcome distribution with weight q."""
    p = noise.depolarizing_p
    q = noise.outcome_flip_q
    mixed = effect_traces(povm) / povm.dim
    probs = (1.0 - p) * table + p * mixed
    probs = (1.0 - q) * probs + q / povm.outcome_count
    return probs / probs.sum(axis=1, keepdims=True)


def noisy_outcome_distribution(
    state: StateVector, povm: Povm, noise: NoiseSpec
) -> np.ndarray:
    """Outcome distribution on the depolarized state, then mixed with the
    uniform outcome distribution with weight q."""
    return _noisy_rows(outcome_table([state], povm), povm, noise)[0]


def _clopper_pearson_upper(successes: int, trials: int, significance: float) -> float:
    """Exact one-sided upper confidence limit for a binomial proportion: the
    u in (k/n, 1] where the tail P(Bin(n, u) <= k) falls to significance.
    It is betaincinv's value where one evaluation of the tail confirms it,
    and otherwise the least such float, found by bisection on the tail."""
    from scipy.special import betaincc, betaincinv

    if successes >= trials:
        return 1.0
    # the inverse regularized incomplete beta function is the Beta(k+1, n-k) quantile
    upper = float(betaincinv(successes + 1, trials - successes, 1.0 - significance))
    # P(Bin(n, u) <= k) taken in u, not in 1 - u, which rounds to 1 below 1.1e-16
    tail = partial(betaincc, successes + 1, trials - successes)
    rate = successes / trials
    if rate < upper and abs(tail(upper) - significance) <= TAIL_TOL * significance:
        return upper
    low, high = rate, 1.0
    while low < (mid := 0.5 * (low + high)) < high:
        if tail(mid) > significance:
            low = mid
        else:
            high = mid
    return high


def run_protocol(
    ensemble: NoGoEnsemble,
    noise: NoiseSpec,
    shots: int,
    confidence: float = 0.95,
    seed: int = 0,
) -> EstimateReport:
    """Sample multinomial counts per preparation and bound the overlap.

    epsilon_exp_hat sums the empirical frequencies of each preparation's
    paired outcome. The upper bound sums per-term Clopper-Pearson limits at
    significance (1 - confidence)/d, a union bound over the d terms. For an
    n-copy ensemble the single-copy bound is the n-th root of the bound,
    valid only if the n copies are prepared independently; the report says
    so explicitly. ValueError unless shots and the ensemble's copy count n
    are integers >= 1.
    """
    shots = _integer("shots", shots, 1)
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    n = ensemble.params.get("n", 1) if ensemble.kind == KIND_THEOREM2 else 1
    n_copies = _integer("copy count n", n, 1)
    d = len(ensemble.states)
    povm = ensemble.measurement
    dists = _noisy_rows(outcome_table(ensemble.states, povm), povm, noise)
    children = np.random.SeedSequence(seed).spawn(d)
    draws = [np.random.default_rng(c).multinomial(shots, row) for c, row in zip(children, dists)]
    counts = _frozen(np.array(draws))

    paired = counts.diagonal().tolist()  # Python ints, so the sum cannot wrap at 2^63
    eps_hat = float(sum(paired)) / shots
    per_term = (1.0 - confidence) / d
    eps_upper = float(sum(_clopper_pearson_upper(c, shots, per_term) for c in paired))

    return EstimateReport(
        ensemble_kind=ensemble.kind,
        shots_per_preparation=shots,
        counts=counts,
        epsilon_exp_hat=eps_hat,
        epsilon_upper_bound=eps_upper,
        confidence=confidence,
        n_copies=n_copies,
        epsilon_single_copy_bound=eps_upper ** (1.0 / n_copies),
        assumes_preparation_independence=n_copies > 1,
        seed=seed,
    )


def report_to_json(report: EstimateReport) -> dict:
    return {**asdict(report), "counts": report.counts.tolist()}


def sweep(
    factory: Callable[[int, int], NoGoEnsemble],
    grid: Sequence[tuple],
    noise: NoiseSpec,
    shots: int,
    confidence: float = 0.95,
    seed: int = 0,
) -> list:
    """One protocol run per (dim, copies) grid point; row i uses seed + i.
    ValueError unless dim and copies are integers >= 1 (the factory may ask more)."""
    if not grid:
        raise ValueError("parameter grid must be nonempty")
    rows = []
    for index, (dim, copies) in enumerate(grid):
        dim, copies = _integer("grid dim", dim, 1), _integer("grid copies", copies, 1)
        report = run_protocol(factory(dim, copies), noise, shots, confidence, seed + index)
        rows.append(
            {
                "family": report.ensemble_kind,
                "dim": dim,
                "copies": report.n_copies,
                "noise_p": noise.depolarizing_p,
                "noise_q": noise.outcome_flip_q,
                "shots": report.shots_per_preparation,
                "eps_hat": report.epsilon_exp_hat,
                "eps_upper": report.epsilon_upper_bound,
                "confidence": confidence,
                "seed": seed + index,
            }
        )
    return rows


def sweep_to_csv(rows: Sequence[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()
