"""Orbit closure on the Bloch sphere: grow a point cloud by rotating every
point about other points' axes, measure how fast the generated set fills the
sphere.

Points are unit 3-vectors. Each growth step is quadratic in the cloud size
before budgeting, so candidate generation is capped and subsampled with a
seeded generator, and written into a buffer of candidates only. Dedup has
no Python loop: a grid pass keeps the first candidate per packed int64 cell
key and is the buffer's last reader, a KD-tree query drops those within
the chord of the cloud, and a greedy pass pairs up the rest over a
sliding-midpoint KD-tree in vectorized rounds, so steps stay near-linear in
the candidate count. Existing points skip the dedup and so survive it by
construction; POINT_CAP thinning may still drop any point. Coverage bounds
each grid point's nearest-neighbour query just above the tolerance's chord.

A trajectory measures each step's new points against the grid points still
uncovered: a step returns the old points as its first rows, so a covered
grid point stays covered. KD-tree queries run on the CPUs in the process's
affinity mask. Neither changes a byte of any row.

``cKDTree`` is imported inside the functions that build one, so that
importing this module (and with it the CLI) loads no scipy module.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._geometry import fibonacci_sphere, rodrigues_rotate
from .qcore import _frozen, _immutable, _integer

# below this the dedup cell grid has over 2^21 cells per axis, and its
# packed keys can outgrow an int64
MIN_DEDUP_TOLERANCE = 2e-6
#: a step generates at most max(MAX_CANDIDATES, rotations_per_pair) candidates
#: before dedup: a single pair's rotations when they outnumber this cap
MAX_CANDIDATES = 200_000
#: points one orbit step keeps at most, after dedup
POINT_CAP = 100_000


@dataclass(frozen=True)
class OrbitCloud:
    """A point cloud and the angular tolerance its dedup merges points
    within, in [MIN_DEDUP_TOLERANCE, pi] = [2e-6, pi] radians. ValueError
    unless ``generation`` is an integer >= 0."""

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
        if not np.isfinite(pts).all():
            raise ValueError("cloud contains non-finite points")
        if (np.abs(np.linalg.norm(pts, axis=1) - 1.0) > 1e-9).any():
            raise ValueError("cloud contains non-unit vectors")
        object.__setattr__(self, "points", _immutable(pts))
        object.__setattr__(self, "generation", _integer("generation", self.generation, 0))

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class CoverageTrajectory:
    steps: int | None  # first generation reaching the target, None if not reached
    reached: bool
    trajectory: tuple  # ((generation, cloud_size, coverage), ...)


@dataclass
class _Uncovered:
    """A trajectory's ledger: the grid key (size, tolerance), the int32
    indices of the grid points still uncovered (None: all of them) and the
    cloud points they were measured against."""

    key: tuple | None = None
    indices: np.ndarray | None = None
    points: np.ndarray | None = None

    def measured(self, cloud: OrbitCloud, key: tuple) -> int:
        """How many leading points of ``cloud`` the ledger has measured: all
        it last measured when the key matches and the cloud opens with them
        bit for bit, else 0, which starts it over."""
        n = 0 if self.points is None else self.points.shape[0]
        # a shorter cloud's slice has fewer rows, which array_equal tells apart
        return n if key == self.key and np.array_equal(cloud.points[:n], self.points) else 0


def _chord(angular_tol: float) -> float:
    # Euclidean distance corresponding to an angular separation
    return 2.0 * np.sin(angular_tol / 2.0)


def _workers() -> int:
    # the CPUs of the affinity mask: scipy's workers=-1 reads os.cpu_count(),
    # which ignores the mask and may be None
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _greedy_keep(reps: np.ndarray, chord: float) -> np.ndarray:
    """Mask of the points that no kept earlier one lies within the chord of.

    It runs in rounds over the pair list of a sliding-midpoint KD-tree: a
    point with no open smaller neighbour is kept and drops its larger
    neighbours, then pairs touching a dropped point go. The rounds depend
    only on the set of pairs, not on their order."""
    from scipy.spatial import cKDTree

    tree = cKDTree(reps, balanced_tree=False, compact_nodes=False)
    pairs = tree.query_pairs(chord, output_type="ndarray")  # rows i < j
    keep = np.ones(reps.shape[0], dtype=bool)
    while pairs.size:
        blocked = np.zeros(reps.shape[0], dtype=bool)
        blocked[pairs[:, 1]] = True
        keep[pairs[~blocked[pairs[:, 0]], 1]] = False
        pairs = pairs[keep[pairs[:, 0]] & keep[pairs[:, 1]]]
    return keep


def _dedup(points: np.ndarray, tol: float, settled: np.ndarray | None = None) -> np.ndarray:
    """Keep earliest representatives of clusters closer than the angular tol.

    Pass 1 snaps points to a grid whose cell diagonal is the chord, so
    cell-mates are always within tol. It packs each cell, an axis at a time,
    into one int64 key over the cube of cells the coordinates span, sorts the
    keys, and keeps the smallest index under each, in input order. When
    ``settled`` is an (m, 3) array, a nearest-neighbour query over it drops
    every representative within the chord of a settled point (rechecking
    rooted distances within 1e-9 of the chord by the pair list's squared
    rule). Pass 2, ``_greedy_keep``, runs on the rest; the settled points are
    not returned. Pass 1 is the last reader of ``points``, so a caller keeping
    no reference, as ``orbit_step`` keeps none, has it freed before any
    KD-tree is built. A cube whose cell count overflows an int64, which a tol
    below MIN_DEDUP_TOLERANCE can give, raises ValueError."""
    from scipy.spatial import cKDTree

    chord = _chord(tol)
    cell = chord / np.sqrt(3.0)
    low = int(np.floor(points.min() / cell))  # floor is monotone: the smallest cell index
    side = int(np.floor(points.max() / cell)) - low + 1
    if side**3 > np.iinfo(np.int64).max:
        raise ValueError(f"{side}^3 grid cells overflow an int64 key; tol {tol} is too small")
    packed = np.zeros(points.shape[0], dtype=np.int64)
    for axis in range(3):
        packed *= side
        packed += np.floor(points[:, axis] / cell).astype(np.int64) - low
    order = np.argsort(packed)
    packed = packed[order]
    starts = np.flatnonzero(np.concatenate(([True], packed[1:] != packed[:-1])))
    # the sort is unstable, so each cell's first occurrence is its smallest index
    first = np.minimum.reduceat(order, starts)
    del packed, order, starts
    first.sort()
    reps = points[first]
    del first, points
    if settled is not None:
        tree = cKDTree(settled)
        workers = _workers()
        dist = tree.query(reps, distance_upper_bound=chord * (1 + 2e-9), workers=workers)[0]
        edge = np.flatnonzero(np.abs(dist - chord) <= 1e-9 * chord)
        hits = tree.query_ball_point(reps[edge], chord, return_length=True, workers=workers)
        dist[edge] = np.where(hits > 0, 0.0, np.inf)
        reps = reps[dist > chord]
    return reps[_greedy_keep(reps, chord)]


def _candidates(points: np.ndarray, idx_i: np.ndarray, idx_j: np.ndarray,
                rotations: int) -> np.ndarray:
    """Each point ``idx_i`` rotated about the axis ``idx_j`` by ``rotations``
    evenly spaced angles, renormalized, in one buffer."""
    angles = 2.0 * np.pi * (np.arange(rotations) + 0.5) / rotations
    candidates = np.empty((idx_i.shape[0] * rotations, 3))
    rodrigues_rotate(points[idx_i][:, None, :], points[idx_j][:, None, :], angles[None, :],
                     out=candidates.reshape(-1, rotations, 3))
    # np.linalg.norm's sum of squares, without its full-size temporaries
    candidates /= np.sqrt(sum(np.square(candidates[:, axis]) for axis in range(3)))[:, None]
    return candidates


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
    return OrbitCloud(_frozen(pts), 0, dedup_tolerance)


def orbit_step(cloud: OrbitCloud, rotations_per_pair: int = 24, seed: int = 0) -> OrbitCloud:
    """One closure step: rotate points about other points' axes.

    For each selected (point, axis) pair, ``rotations_per_pair`` evenly
    spaced angles (offset by half a step so the identity rotation is never
    wasted) produce candidates. When the full quadratic pair set has more
    than max(1, MAX_CANDIDATES // rotations_per_pair) pairs, that many are
    subsampled with a generator seeded by ``seed``, so a step generates at
    most max(MAX_CANDIDATES, rotations_per_pair) candidates; the grown cloud
    is likewise thinned to POINT_CAP points. Only the candidates are deduped,
    against the existing points and each other, so every existing point
    survives dedup by construction; the POINT_CAP thinning may drop any point.
    ValueError unless rotations_per_pair is an integer >= 4.
    """
    rotations_per_pair = _integer("rotations per pair", rotations_per_pair, 4)
    n = cloud.size
    if n < 2:  # no pair, so no candidate
        return OrbitCloud(cloud.points, cloud.generation + 1, cloud.dedup_tolerance)
    rng = np.random.default_rng(seed)

    pair_budget = max(1, MAX_CANDIDATES // rotations_per_pair)
    if n * (n - 1) <= pair_budget:
        idx_i, idx_j = np.nonzero(~np.eye(n, dtype=bool))
    else:
        idx_i = rng.integers(0, n, size=pair_budget)
        # j != i, uniform over the other points
        idx_j = (idx_i + rng.integers(1, n, size=pair_budget)) % n

    # no name here holds the buffer: CPython 3.11+ moves the argument into
    # _dedup, which frees it after its grid pass
    fresh = _dedup(_candidates(cloud.points, idx_i, idx_j, rotations_per_pair),
                   cloud.dedup_tolerance, settled=cloud.points)
    grown = np.concatenate([cloud.points, fresh])
    if grown.shape[0] > POINT_CAP:
        pick = rng.choice(grown.shape[0], size=POINT_CAP, replace=False)
        grown = grown[np.sort(pick)]
    return OrbitCloud(_frozen(grown), cloud.generation + 1, cloud.dedup_tolerance)


def coverage(cloud: OrbitCloud, grid_size: int, angular_tol: float, *,
             uncovered: _Uncovered | None = None) -> float:
    """Fraction of a reference Fibonacci grid within angular_tol of the cloud.

    Each grid point's nearest-neighbour search stops beyond the chord. The
    bound sits just above it because cKDTree's bound is strict. With a
    ledger ``uncovered`` whose points the cloud opens with, only the grid
    points still uncovered are queried, against the cloud's later points
    alone; the ledger then holds this cloud. ValueError unless grid_size is
    an integer >= 100.
    """
    from scipy.spatial import cKDTree

    grid_size = _integer("grid size", grid_size, 100)
    if not 0.0 < angular_tol <= np.pi:
        raise ValueError(f"angular tolerance must lie in (0, pi], got {angular_tol}")
    key = (grid_size, angular_tol)
    done = 0 if uncovered is None else uncovered.measured(cloud, key)
    left = uncovered.indices if done else None
    fresh = cloud.points[done:]
    if fresh.shape[0] and (left is None or left.size):
        chord = _chord(angular_tol)
        grid = fibonacci_sphere(grid_size)
        if left is not None:  # rebinding frees the whole grid before the tree is built
            grid = grid[left]
        dist, _ = cKDTree(fresh).query(grid, k=1, distance_upper_bound=chord * (1 + 1e-9),
                                       workers=_workers())
        missed = np.flatnonzero(dist > chord)
        index = np.int32 if grid_size <= 2**31 else np.int64
        left = missed.astype(index) if left is None else left[missed]
    if uncovered is not None:
        uncovered.key, uncovered.indices, uncovered.points = key, left, cloud.points
    return 0.0 if left is None else (grid_size - left.size) / grid_size  # None: an empty cloud


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
    ``measure`` is called once per row as ``measure(cloud, grid_size,
    angular_tol, uncovered=ledger)``, with one ``_Uncovered`` ledger kept
    across the rows, and returns the row's coverage.
    """
    ledger = _Uncovered()
    while True:
        yield cloud.generation, cloud.size, measure(cloud, grid_size, angular_tol,
                                                    uncovered=ledger)
        cloud = step(cloud, seed=seed + cloud.generation + 1, **step_options)


def steps_to_cover(
    theta: float,
    target_coverage: float,
    angular_tol: float,
    seed: int = 0,
    grid_size: int = 4000,
    max_steps: int = 30,
) -> CoverageTrajectory:
    """Grow the two-point seed cloud until the coverage target is reached.

    Returns the full (generation, size, coverage) trajectory; ``steps`` is
    the first generation at or above the target, or None if it is not hit
    within ``max_steps``. Step k uses seed + k so trajectories are
    reproducible per step. ValueError unless max_steps is an integer >= 0.
    """
    if not 0.0 < target_coverage <= 1.0:
        raise ValueError(f"target coverage must lie in (0, 1], got {target_coverage}")
    max_steps = _integer("max steps", max_steps, 0)
    trajectory = coverage_trajectory(initial_cloud(theta), grid_size, angular_tol, seed)
    rows = []
    for row in islice(trajectory, max_steps + 1):
        rows.append(row)
        if row[2] >= target_coverage:
            return CoverageTrajectory(row[0], True, tuple(rows))
    return CoverageTrajectory(None, False, tuple(rows))
