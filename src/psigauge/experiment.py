"""Finite-shot simulation of the exclusion tests under noise.

The noise model is depolarizing (weight p on the maximally mixed state)
followed by a uniform outcome flip (weight q on the uniform outcome
distribution). The overlap bound uses exact one-sided Clopper-Pearson
intervals with a union bound across the d excluded outcomes; zero-count
cells dominate these experiments and exact intervals are much tighter
there than Hoeffding-style bounds. The choice of statistical procedure is
recorded in every report via the confidence field and, for multi-copy
ensembles, the preparation-independence flag.

The limits come from ``scipy.special.betaincinv``, imported inside
``_clopper_pearson_upper`` so that the CLI starts without scipy; importing
``scipy.stats`` for ``beta.ppf``, which runs the same kernel, would be most
of a command's start-up.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .ensembles import KIND_THEOREM2, NoGoEnsemble
from .qcore import Povm, StateVector, _frozen, effect_traces, outcome_table


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
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum(axis=1, keepdims=True)


def noisy_outcome_distribution(
    state: StateVector, povm: Povm, noise: NoiseSpec
) -> np.ndarray:
    """Outcome distribution on the depolarized state, then mixed with the
    uniform outcome distribution with weight q."""
    return _noisy_rows(outcome_table([state], povm), povm, noise)[0]


def _clopper_pearson_upper(successes: int, trials: int, significance: float) -> float:
    """Exact one-sided upper confidence limit for a binomial proportion."""
    from scipy.special import betaincinv

    if successes >= trials:
        return 1.0
    # the inverse regularized incomplete beta function is the Beta(k+1, n-k) quantile
    return float(betaincinv(successes + 1, trials - successes, 1.0 - significance))


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
    so explicitly.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    d = len(ensemble.states)
    povm = ensemble.measurement
    dists = _noisy_rows(outcome_table(ensemble.states, povm), povm, noise)
    children = np.random.SeedSequence(seed).spawn(d)
    draws = [np.random.default_rng(c).multinomial(shots, row) for c, row in zip(children, dists)]
    counts = _frozen(np.array(draws))

    eps_hat = float(sum(counts[k][k] for k in range(d))) / shots
    per_term = (1.0 - confidence) / d
    eps_upper = float(
        sum(_clopper_pearson_upper(int(counts[k][k]), shots, per_term) for k in range(d))
    )

    n_copies = int(ensemble.params.get("n", 1)) if ensemble.kind == KIND_THEOREM2 else 1
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


SWEEP_FIELDS = (
    "family",
    "dim",
    "copies",
    "noise_p",
    "noise_q",
    "shots",
    "eps_hat",
    "eps_upper",
    "confidence",
    "seed",
)


def sweep(
    factory: Callable[[int, int], NoGoEnsemble],
    grid: Sequence[tuple],
    noise: NoiseSpec,
    shots: int,
    confidence: float = 0.95,
    seed: int = 0,
) -> list:
    """One protocol run per (dim, copies) grid point; row i uses seed + i."""
    if not grid:
        raise ValueError("parameter grid must be nonempty")
    rows = []
    for index, (dim, copies) in enumerate(grid):
        ensemble = factory(int(dim), int(copies))
        report = run_protocol(ensemble, noise, shots, confidence, seed + index)
        rows.append(
            {
                "family": report.ensemble_kind,
                "dim": int(dim),
                "copies": report.n_copies,
                "noise_p": noise.depolarizing_p,
                "noise_q": noise.outcome_flip_q,
                "shots": shots,
                "eps_hat": report.epsilon_exp_hat,
                "eps_upper": report.epsilon_upper_bound,
                "confidence": confidence,
                "seed": seed + index,
            }
        )
    return rows


def sweep_to_csv(rows: Sequence[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=SWEEP_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()
