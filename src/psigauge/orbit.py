"""Orbit closure on the Bloch sphere: grow a point cloud by rotating every
point about other points' axes, measure how fast the generated set fills the
sphere.

Points are unit 3-vectors. Each growth step is quadratic in the cloud size
before budgeting, so candidate generation is capped and subsampled with a
seeded generator. Dedup has no Python loop: a grid pass keeps the first
point under each packed int64 cell key, then a greedy pass over the
KD-tree's pair list runs in vectorized rounds, so steps stay near-linear in
the candidate count.

``cKDTree`` is imported inside the two functions that build one, so that
importing this module (and with it the CLI) loads no scipy module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._geometry import fibonacci_sphere, rodrigues_rotate
from .qcore import _frozen

# below this the dedup cell grid has over 2^21 cells per axis, and its
# packed keys can outgrow an int64
MIN_DEDUP_TOLERANCE = 2e-6
#: candidates one orbit step generates at most, before dedup
MAX_CANDIDATES = 200_000
#: points one orbit step keeps at most, after dedup
POINT_CAP = 100_000


@dataclass(frozen=True)
class OrbitCloud:
    """A point cloud and the angular tolerance its dedup merges points
    within, in [MIN_DEDUP_TOLERANCE, pi] = [2e-6, pi] radians."""

    points: np.ndarray  # (n, 3) unit vectors
    generation: int
    dedup_tolerance: float

    def __post_init__(self):
        if not MIN_DEDUP_TOLERANCE <= self.dedup_tolerance <= np.pi:
            raise ValueError(
                f"dedup tolerance must lie in [{MIN_DEDUP_TOLERANCE:g}, pi] so the"
                f" cell keys fit an int64, got {self.dedup_tolerance}"
            )
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"expected an (n, 3) array, got shape {pts.shape}")
        norms = np.linalg.norm(pts, axis=1)
        if pts.shape[0] and (np.abs(norms - 1.0) > 1e-9).any():
            raise ValueError("cloud contains non-unit vectors")
        object.__setattr__(self, "points", _frozen(pts))

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class CoverageTrajectory:
    steps: int | None  # first generation reaching the target, None if not reached
    reached: bool
    trajectory: tuple  # ((generation, cloud_size, coverage), ...)


def _chord(angular_tol: float) -> float:
    # Euclidean distance corresponding to an angular separation
    return 2.0 * np.sin(angular_tol / 2.0)


def _dedup(points: np.ndarray, tol: float) -> np.ndarray:
    """Keep earliest representatives of clusters closer than the angular tol.

    Pass 1 snaps points to a grid with cells small enough that cell-mates are
    always within tol (cell diagonal = chord), packs each cell into one int64
    key and keeps the first point per key. Pass 2 resolves neighbors that
    pass 1 put in different cells: it keeps each representative that no kept
    earlier one lies within the chord of. It does so in rounds over the pair
    list: a point with no open smaller neighbour is kept and drops its larger
    neighbours, then pairs touching a dropped point go. Below
    MIN_DEDUP_TOLERANCE, ``np.ravel_multi_index`` may raise ValueError.
    """
    from scipy.spatial import cKDTree

    if points.shape[0] == 0:
        return points
    chord = _chord(tol)
    cell = chord / np.sqrt(3.0)
    keys = np.floor(points / cell).astype(np.int64)
    low = keys.min(axis=0)
    packed = np.ravel_multi_index((keys - low).T, keys.max(axis=0) - low + 1)
    # 1-D unique sorts stably, so each index is the cell's first occurrence
    _, first = np.unique(packed, return_index=True)
    reps = points[np.sort(first)]
    pairs = cKDTree(reps).query_pairs(chord, output_type="ndarray")  # rows i < j
    keep = np.ones(reps.shape[0], dtype=bool)
    while pairs.size:
        blocked = np.zeros(reps.shape[0], dtype=bool)
        blocked[pairs[:, 1]] = True
        keep[pairs[~blocked[pairs[:, 0]], 1]] = False
        pairs = pairs[keep[pairs[:, 0]] & keep[pairs[:, 1]]]
    return reps[keep]


def initial_cloud(theta: float, dedup_tolerance: float = 0.02) -> OrbitCloud:
    """Two points separated by the angle theta: the pole and a point tilted
    by theta in the xz-plane."""
    if not 0.0 < theta <= np.pi:
        raise ValueError(f"theta must lie in (0, pi], got {theta}")
    if theta <= dedup_tolerance:
        raise ValueError(
            f"theta {theta} does not exceed the dedup tolerance {dedup_tolerance};"
            " the two seed points would merge"
        )
    pts = np.array([[0.0, 0.0, 1.0], [np.sin(theta), 0.0, np.cos(theta)]])
    return OrbitCloud(pts, 0, dedup_tolerance)


def orbit_step(cloud: OrbitCloud, rotations_per_pair: int = 24, seed: int = 0) -> OrbitCloud:
    """One closure step: rotate points about other points' axes.

    For each selected (point, axis) pair, ``rotations_per_pair`` evenly
    spaced angles (offset by half a step so the identity rotation is never
    wasted) produce candidates. When the full quadratic pair set exceeds
    MAX_CANDIDATES candidates, pairs are subsampled with a generator
    seeded by ``seed``; the grown cloud is likewise thinned to POINT_CAP
    points. Existing points always survive dedup because they are listed
    first.
    """
    if rotations_per_pair < 4:
        raise ValueError(f"rotations per pair must be >= 4, got {rotations_per_pair}")
    n = cloud.size
    if n == 0:
        return OrbitCloud(cloud.points, cloud.generation + 1, cloud.dedup_tolerance)
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * (np.arange(rotations_per_pair) + 0.5) / rotations_per_pair

    pair_budget = max(1, MAX_CANDIDATES // rotations_per_pair)
    if n * (n - 1) <= pair_budget:
        idx_i, idx_j = np.nonzero(~np.eye(n, dtype=bool))
    else:
        idx_i = rng.integers(0, n, size=pair_budget)
        # j != i, uniform over the other points
        idx_j = (idx_i + rng.integers(1, n, size=pair_budget)) % n

    vectors = cloud.points[idx_i][:, None, :]  # (p, 1, 3)
    axes = cloud.points[idx_j][:, None, :]
    rotated = rodrigues_rotate(vectors, axes, angles[None, :])  # (p, R, 3)
    candidates = rotated.reshape(-1, 3)
    candidates /= np.linalg.norm(candidates, axis=1, keepdims=True)

    merged = np.concatenate([cloud.points, candidates], axis=0)
    deduped = _dedup(merged, cloud.dedup_tolerance)
    if deduped.shape[0] > POINT_CAP:
        pick = rng.choice(deduped.shape[0], size=POINT_CAP, replace=False)
        deduped = deduped[np.sort(pick)]
    return OrbitCloud(deduped, cloud.generation + 1, cloud.dedup_tolerance)


def coverage(cloud: OrbitCloud, grid_size: int, angular_tol: float) -> float:
    """Fraction of a reference Fibonacci grid within angular_tol of the cloud."""
    from scipy.spatial import cKDTree

    if grid_size < 100:
        raise ValueError(f"grid size must be >= 100, got {grid_size}")
    if not 0.0 < angular_tol <= np.pi:
        raise ValueError(f"angular tolerance must lie in (0, pi], got {angular_tol}")
    if cloud.size == 0:
        return 0.0
    grid = fibonacci_sphere(grid_size)
    tree = cKDTree(cloud.points)
    dist, _ = tree.query(grid, k=1)
    return float(np.mean(dist <= _chord(angular_tol)))


def coverage_trajectory(
    cloud: OrbitCloud,
    grid_size: int,
    angular_tol: float,
    seed: int = 0,
    step=orbit_step,
    measure=coverage,
    **step_options,
):
    """Yield (generation, cloud_size, coverage) for ``cloud`` and then for
    each closure step after it, without end. Step k is ``step(cloud, seed=
    seed + k, **step_options)`` and runs only when its row is asked for.
    ``step`` and ``measure`` default to ``orbit_step`` and ``coverage``; a
    caller may pass its own bindings of them, e.g. ones wrapped for tracing.
    """
    while True:
        yield cloud.generation, cloud.size, measure(cloud, grid_size, angular_tol)
        cloud = step(cloud, seed=seed + cloud.generation + 1, **step_options)


def steps_to_cover(
    theta: float,
    target_coverage: float,
    angular_tol: float,
    seed: int = 0,
    rotations_per_pair: int = 24,
    dedup_tolerance: float = 0.02,
    grid_size: int = 4000,
    max_steps: int = 30,
) -> CoverageTrajectory:
    """Grow the two-point seed cloud until the coverage target is reached.

    Returns the full (generation, size, coverage) trajectory; ``steps`` is
    the first generation at or above the target, or None if it is not hit
    within ``max_steps``. Step k uses seed + k so trajectories are
    reproducible per step.
    """
    if not 0.0 < target_coverage <= 1.0:
        raise ValueError(f"target coverage must lie in (0, 1], got {target_coverage}")
    trajectory = coverage_trajectory(
        initial_cloud(theta, dedup_tolerance), grid_size, angular_tol, seed,
        rotations_per_pair=rotations_per_pair,
    )
    rows = []
    for row in islice(trajectory, max(max_steps, 0) + 1):
        rows.append(row)
        if row[2] >= target_coverage:
            return CoverageTrajectory(row[0], True, tuple(rows))
    return CoverageTrajectory(None, False, tuple(rows))
