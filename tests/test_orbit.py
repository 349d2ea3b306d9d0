import os
import sys
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import psigauge.orbit as orbit_module
from psigauge._geometry import fibonacci_sphere, rodrigues_rotate
from psigauge.orbit import (
    CoverageTrajectory,
    OrbitCloud,
    coverage,
    initial_cloud,
    orbit_step,
    steps_to_cover,
)
from psigauge.orbit import MAX_CANDIDATES, MIN_DEDUP_TOLERANCE, _chord, _dedup, coverage_trajectory


@pytest.fixture(scope="module")
def third_step_cloud():
    """The cloud of the second step from theta 0.5: the third step dedups
    199,992 candidates against its 9,143 points."""
    return orbit_step(orbit_step(initial_cloud(0.5), seed=1), seed=2)


class TestInitialCloud:
    def test_two_points_at_theta(self):
        cloud = initial_cloud(np.pi / 3)
        assert cloud.size == 2
        cos = float(cloud.points[0] @ cloud.points[1])
        assert abs(cos - np.cos(np.pi / 3)) <= 1e-12

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            initial_cloud(0.0)
        with pytest.raises(ValueError):
            initial_cloud(3.5)
        with pytest.raises(ValueError):
            initial_cloud(0.01, dedup_tolerance=0.02)

    def test_cloud_rejects_non_unit_points(self):
        with pytest.raises(ValueError):
            OrbitCloud(np.array([[0.0, 0.0, 2.0]]), 0, 0.02)


class TestOrbitStep:
    def test_rotation_count_validation(self):
        cloud = initial_cloud(1.0)
        with pytest.raises(ValueError):
            orbit_step(cloud, rotations_per_pair=3)

    def test_deterministic(self):
        cloud = initial_cloud(1.0)
        a = orbit_step(cloud, seed=3)
        b = orbit_step(cloud, seed=3)
        assert np.array_equal(a.points, b.points)

    def test_generation_increments(self):
        cloud = initial_cloud(1.0)
        assert orbit_step(cloud).generation == 1

    def test_existing_points_survive(self):
        cloud = initial_cloud(1.0)
        grown = orbit_step(cloud, seed=0)
        for p in cloud.points:
            dist = np.linalg.norm(grown.points - p, axis=1).min()
            assert dist <= 1e-12

    def test_existing_points_within_the_chord_all_survive(self):
        # a pair 0.01 rad apart at tol 0.02: only the candidates are deduped,
        # so both stay, and no candidate is kept within the chord of either
        points = np.array([[0.0, 0.0, 1.0], [np.sin(0.01), 0.0, np.cos(0.01)], [1.0, 0.0, 0.0]])
        cloud = OrbitCloud(points, 0, 0.02)
        grown = orbit_step(cloud, seed=0)
        assert np.array_equal(grown.points[:3], cloud.points)
        near = cKDTree(cloud.points).query_ball_point(grown.points[3:], _chord(0.02),
                                                      return_length=True)
        assert grown.size > 3 and not near.any()

    def test_dedup_respects_tolerance(self):
        grown = orbit_step(orbit_step(initial_cloud(1.0), seed=0), seed=1)
        pts = grown.points
        # sample pairwise distances; no pair may sit inside the dedup chord
        rng = np.random.default_rng(0)
        idx = rng.choice(pts.shape[0], size=min(400, pts.shape[0]), replace=False)
        sub = pts[idx]
        d2 = np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=-1)
        np.fill_diagonal(d2, 1.0)
        chord = 2.0 * np.sin(grown.dedup_tolerance / 2.0)
        assert d2.min() > chord * 0.999

    def test_point_cap_thins_cloud(self, monkeypatch):
        cloud = orbit_step(initial_cloud(1.0), seed=0)
        monkeypatch.setattr(orbit_module, "POINT_CAP", 40)
        capped = orbit_step(cloud, seed=1)
        assert capped.size == 40

    def test_one_pair_can_outnumber_the_candidate_cap(self, monkeypatch):
        # above MAX_CANDIDATES rotations the pair budget is one pair, whose
        # rotations are all deduped
        rows = []

        def record(points, tol, **options):
            rows.append(points.shape[0])
            return _dedup(points, tol, **options)

        monkeypatch.setattr(orbit_module, "_dedup", record)
        assert 300_000 > MAX_CANDIDATES
        orbit_step(initial_cloud(2.0), rotations_per_pair=300_000)
        assert rows == [300_000]


def _rotation_matrices(axes, angles):
    """I cos t + sin t [u]x + (1 - cos t) u u^T, one 3x3 matrix per (axis, angle)."""
    x, y, z = axes[..., 0], axes[..., 1], axes[..., 2]
    zero = np.zeros_like(x)
    rows = ([zero, -z, y], [z, zero, -x], [-y, x, zero])
    cross = np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)
    cos, sin = np.cos(angles)[..., None, None], np.sin(angles)[..., None, None]
    outer = axes[..., :, None] * axes[..., None, :]
    return np.eye(3) * cos + sin * cross + (1.0 - cos) * outer


def _unit_rows(rng, shape):
    rows = rng.standard_normal(shape)
    return rows / np.linalg.norm(rows, axis=-1, keepdims=True)


class TestRodrigues:
    def test_rows_equal_their_rotation_matrices(self):
        rng = np.random.default_rng(3)
        vectors, axes = _unit_rows(rng, (500, 3)), _unit_rows(rng, (500, 3))
        angles = rng.uniform(-2 * np.pi, 2 * np.pi, 500)
        expected = np.einsum("nij,nj->ni", _rotation_matrices(axes, angles), vectors)
        out = np.empty((500, 3))
        assert np.abs(rodrigues_rotate(vectors, axes, angles) - expected).max() <= 1e-14
        assert np.abs(rodrigues_rotate(vectors, axes, angles, out=out) - expected).max() <= 1e-14

    def test_pairs_by_angles_equal_their_rotation_matrices(self):
        # the orbit step's shapes: (p, 1, 3) vectors and axes, (1, R) angles
        rng = np.random.default_rng(4)
        vectors, axes = _unit_rows(rng, (60, 1, 3)), _unit_rows(rng, (60, 1, 3))
        angles = 2.0 * np.pi * (np.arange(7) + 0.5)[None, :] / 7
        matrices = _rotation_matrices(np.repeat(axes, 7, axis=1), np.repeat(angles, 60, axis=0))
        expected = np.einsum("prij,pj->pri", matrices, vectors[:, 0, :])
        out = np.empty((60, 7, 3))
        got = rodrigues_rotate(vectors, axes, angles)
        assert got.shape == (60, 7, 3)
        assert np.abs(got - expected).max() <= 1e-14
        assert np.abs(rodrigues_rotate(vectors, axes, angles, out=out) - expected).max() <= 1e-14

    def test_out_is_returned_and_bitwise_equal(self):
        rng = np.random.default_rng(5)
        vectors, axes = _unit_rows(rng, (40, 1, 3)), _unit_rows(rng, (40, 1, 3))
        angles = rng.uniform(0.0, 2 * np.pi, (1, 9))
        out = np.full((40, 9, 3), np.nan)
        assert rodrigues_rotate(vectors, axes, angles, out=out) is out
        assert np.array_equal(out, rodrigues_rotate(vectors, axes, angles))


def _rotated_by(points, angle, rng):
    """Each point turned by ``angle`` (one, or one per point) about its own
    random perpendicular axis, so it lands at the chord of ``angle`` from
    where it was."""
    axes = np.cross(points, rng.standard_normal(points.shape))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    moved = rodrigues_rotate(points, axes, np.full(points.shape[0], angle))
    return moved / np.linalg.norm(moved, axis=1, keepdims=True)


@st.composite
def _coverage_cases(draw):
    """(cloud points, grid size, angular tolerance): random unit vectors, or
    reference-grid points rotated by exactly the tolerance."""
    grid_size = draw(st.integers(100, 600))
    tol = np.pi if draw(st.integers(0, 4)) == 0 else 10.0 ** draw(st.floats(-3.0, 0.4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        points = rng.standard_normal((draw(st.integers(1, 300)), 3))
        return points / np.linalg.norm(points, axis=1, keepdims=True), grid_size, tol
    grid = fibonacci_sphere(grid_size)
    pick = rng.choice(grid_size, size=draw(st.integers(1, grid_size)), replace=False)
    return _rotated_by(grid[pick], tol, rng), grid_size, tol


class TestCoverage:
    def test_empty_cloud_covers_nothing(self):
        empty = OrbitCloud(np.zeros((0, 3)), 0, 0.02)
        assert coverage(empty, 500, 0.05) == 0.0

    def test_grid_precondition(self):
        with pytest.raises(ValueError):
            coverage(initial_cloud(1.0), 50, 0.05)

    def test_two_points_cover_little(self):
        assert coverage(initial_cloud(1.0), 2000, 0.05) < 0.01

    def test_full_sphere_lattice_covers_everything(self):
        from psigauge._geometry import fibonacci_sphere

        dense = OrbitCloud(fibonacci_sphere(3000), 0, 0.02)
        assert coverage(dense, 1000, 0.1) == 1.0

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(_coverage_cases())
    def test_equals_brute_force_nearest_distance(self, case):
        points, grid_size, tol = case
        grid = fibonacci_sphere(grid_size)
        nearest = np.sqrt(((grid[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)).min(axis=1)
        cloud = OrbitCloud(points, 0, 0.02)
        assert coverage(cloud, grid_size, tol) == np.mean(nearest <= _chord(tol))


class TestStepsToCover:
    def test_right_angle_fills_fast(self):
        traj = steps_to_cover(np.pi / 2, 0.99, 0.05, seed=0)
        assert traj.reached
        assert traj.steps <= 4

    def test_trajectory_rows_are_cumulative(self):
        traj = steps_to_cover(np.pi / 2, 0.99, 0.05, seed=0)
        gens = [row[0] for row in traj.trajectory]
        assert gens == list(range(len(gens)))
        covs = [row[2] for row in traj.trajectory]
        assert covs[-1] >= 0.99

    def test_unreachable_target_reports_none(self):
        traj = steps_to_cover(np.pi / 2, 1.0, 0.001, seed=0, max_steps=1, grid_size=500)
        assert isinstance(traj, CoverageTrajectory)
        assert not traj.reached
        assert traj.steps is None

    def test_halving_theta_adds_constant_steps(self):
        steps = [
            steps_to_cover(theta, 0.99, 0.05, seed=0).steps
            for theta in (np.pi / 4, np.pi / 8, np.pi / 16)
        ]
        assert all(s is not None for s in steps)
        increments = [b - a for a, b in zip(steps, steps[1:])]
        assert all(0 <= inc <= 2 for inc in increments)


def _greedy_reference(points, tol, settled=None):
    """The dedup as a plain loop: first point per grid cell, drop those
    within the chord of a settled point, then walk the rest in order and drop
    each later neighbour of a kept one."""
    if points.shape[0] == 0:
        return points
    chord = _chord(tol)
    keys = np.floor(points / (chord / np.sqrt(3.0))).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    reps = points[np.sort(first)]
    if settled is not None:
        reps = reps[cKDTree(settled).query_ball_point(reps, chord, return_length=True) == 0]
    keep = np.ones(reps.shape[0], dtype=bool)
    for i, neighbors in enumerate(cKDTree(reps).query_ball_point(reps, chord)):
        if not keep[i]:
            continue
        for j in neighbors:
            if j > i:
                keep[j] = False
    return reps[keep]


@st.composite
def _settled_cases(draw):
    """(settled, points, tol): a settled cloud with no pair within the chord,
    or one that opens with a cluster of points pairwise within it, and new
    points drawn at random, repeated, or turned from settled points by up to
    twice tol."""
    tol = draw(st.sampled_from([0.02, 0.1, 0.3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    settled = _unit_rows(rng, (draw(st.integers(1, 200)), 3))
    if draw(st.booleans()):
        settled = _greedy_reference(settled, tol)
    else:
        # turned from the first point by at most tol / 2, so pairwise within tol
        k = draw(st.integers(2, 40))
        cluster = _rotated_by(np.repeat(settled[:1], k, axis=0), rng.uniform(0.0, tol / 2, k), rng)
        settled = np.concatenate([cluster, settled])
    layout = draw(st.sampled_from(["random", "repeated", "near"]))
    m = draw(st.integers(1, 150))
    if layout == "random":
        points = _unit_rows(rng, (2 * m, 3))
    elif layout == "repeated":
        points = np.repeat(fibonacci_sphere(m), 3, axis=0)[rng.permutation(3 * m)]
    else:
        near = settled[rng.integers(0, settled.shape[0], 2 * m)]
        points = _rotated_by(near, rng.uniform(0.0, 2 * tol, 2 * m), rng)
    return settled, points, tol


class TestDedupMatchesGreedy:
    @pytest.mark.parametrize("theta", [0.196, 1.0])
    def test_equals_reference_on_orbit_step_inputs(self, monkeypatch, theta):
        inputs = []

        def record(points, tol, **options):
            inputs.append((points.copy(), tol, options))
            return _dedup(points, tol, **options)

        monkeypatch.setattr(orbit_module, "_dedup", record)
        orbit_step(orbit_step(initial_cloud(theta), seed=1), seed=2)
        assert len(inputs) == 2
        for points, tol, options in inputs:
            # a package cloud has no pair within the chord, so deduping it and its
            # candidates as one list keeps the cloud, then what the step keeps
            settled = options["settled"]
            expected = _greedy_reference(np.concatenate([settled, points]), tol)
            assert np.array_equal(expected[: settled.shape[0]], settled)
            assert np.array_equal(_dedup(points, tol, **options), expected[settled.shape[0] :])
            assert np.array_equal(_dedup(points, tol), _greedy_reference(points, tol))

    def test_chain_keeps_every_other_point(self):
        # consecutive points 0.9 chord apart on the equator never share a grid
        # cell, and points two apart lie beyond the chord: the greedy keeps the
        # even ones, where dropping every point with a smaller neighbour in
        # one round would keep only the first
        tol = 0.02
        step = 2.0 * np.arcsin(0.9 * _chord(tol) / 2.0)
        phi = 0.3 + step * np.arange(21)
        chain = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=1)
        kept = _dedup(chain, tol)
        assert np.array_equal(kept, chain[::2])
        assert np.array_equal(kept, _greedy_reference(chain, tol))

    def test_grown_cloud_has_no_pair_within_the_chord(self):
        grown = orbit_step(orbit_step(initial_cloud(1.0), seed=0), seed=1)
        chord = _chord(grown.dedup_tolerance)
        assert len(cKDTree(grown.points).query_pairs(chord)) == 0

    @pytest.mark.parametrize("tol", [0.02, 0.3])
    @pytest.mark.parametrize("layout", ["repeated", "octants", "cell-edges"])
    def test_equals_reference_on_constructed_clouds(self, layout, tol):
        rng = np.random.default_rng(11)
        if layout == "repeated":
            # each point three times, in shuffled order
            points = np.repeat(fibonacci_sphere(400), 3, axis=0)[rng.permutation(1200)]
        elif layout == "octants":
            # one patch reflected into all eight octants, axis-plane points included
            patch = np.abs(rng.standard_normal((150, 3)))
            patch[:10, 0] = 0.0
            signs = np.array(np.meshgrid([1, -1], [1, -1], [1, -1])).reshape(3, -1).T
            points = (patch[None, :, :] * signs[:, None, :]).reshape(-1, 3)
            points /= np.linalg.norm(points, axis=1, keepdims=True)
        else:
            # x and y exact multiples of the cell side chord/sqrt(3), where
            # grid cells meet, and z completing a unit vector
            cell = _chord(tol) / np.sqrt(3.0)
            steps = np.arange(-int(1 / cell), int(1 / cell) + 1)
            xy = np.stack(np.meshgrid(steps, steps), axis=-1).reshape(-1, 2) * cell
            xy = xy[(xy**2).sum(axis=1) <= 1.0][:3000]
            z = np.sqrt(1.0 - (xy**2).sum(axis=1))
            points = np.concatenate([np.c_[xy, z], np.c_[xy, -z]])
        assert np.array_equal(_dedup(points, tol), _greedy_reference(points, tol))

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(_settled_cases())
    def test_settled_filter_equals_reference(self, case):
        settled, points, tol = case
        kept = _dedup(points, tol, settled=settled)
        assert np.array_equal(kept, _greedy_reference(points, tol, settled=settled))
        if not cKDTree(settled).query_pairs(_chord(tol)):
            # listed first, a separated cloud survives a one-list dedup whole
            expected = _greedy_reference(np.concatenate([settled, points]), tol)
            assert np.array_equal(expected[: settled.shape[0]], settled)
            assert np.array_equal(kept, expected[settled.shape[0] :])

    def test_new_point_at_exactly_the_chord_is_dropped(self):
        # each new point is a settled one rotated by exactly tol; query_pairs
        # pairs two points when their squared distance is <= chord^2, and at
        # this tol the rooted distance of a nearest-neighbour query misses
        # that rule by one ulp on about 90 of the 1000 points
        tol = 0.05
        settled = fibonacci_sphere(1000)
        moved = _rotated_by(settled, tol, np.random.default_rng(8))
        chord = _chord(tol)
        tree = cKDTree(settled)
        paired = tree.query_ball_point(moved, chord, return_length=True) > 0
        assert paired.any() and not paired.all()
        assert ((tree.query(moved)[0] <= chord) != paired).any()
        expected = _greedy_reference(np.concatenate([settled, moved]), tol)
        assert np.array_equal(expected[: settled.shape[0]], settled)
        fresh = _dedup(moved, tol, settled=settled)
        assert np.array_equal(fresh, expected[settled.shape[0] :])
        assert not (tree.query_ball_point(fresh, chord, return_length=True) > 0).any()

    def test_holds_no_more_memory_than_before(self, third_step_cloud):
        """The 199,992 candidates of the third step from theta 0.5. Under
        tracemalloc a grid pass through np.unique peaked at 12.8 MiB on these
        and the cloud's 9,143 points together, the sorted pass over a float
        key array at 9.6 MiB, and the pass that builds the packed key one axis
        at a time at 5.0 MiB; on the candidates alone it peaks at 4.6 MiB."""
        import tracemalloc

        inputs = []

        def record(points, tol, **options):
            inputs.append((points.copy(), tol, options))
            return _dedup(points, tol, **options)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(orbit_module, "_dedup", record)
            orbit_step(third_step_cloud, seed=3)
        points, tol, options = inputs[0]
        assert points.shape[0] == 199_992
        tracemalloc.start()
        try:
            _dedup(points, tol, **options)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_orbit_step_holds_no_more_memory_than_before(self, third_step_cloud):
        """The same third step from theta 0.5, whole. Under tracemalloc it
        peaks at 19.4 MiB with full-size rotation, norm and key temporaries
        and a pair list over every representative, at 10.2 MiB when the
        candidates are written into the cloud's buffer and the dedup settles
        the cloud first, and at 10.0 MiB when the buffer holds only the
        candidates."""
        import tracemalloc

        tracemalloc.start()
        try:
            orbit_step(third_step_cloud, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11 * 2**20

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="CPython before 3.11 keeps call arguments on the caller's stack")
    def test_trees_are_built_after_the_candidates_are_freed(self, third_step_cloud):
        """The same third step, whole. With the cloud settled in its buffer,
        the buffer was 5.0 MB and three trees were built: live memory at
        them read 7.1, 7.3 and 8.9 MiB while the step held it, and 2.3, 2.5
        and 4.1 MiB once the grid pass was its last reader. The buffer of
        199,992 candidates alone is 4.8 MB, and the two trees over the cloud
        and over the cell representatives see 2.2 and 1.6 MiB live."""
        import tracemalloc

        import scipy.spatial

        built = scipy.spatial.cKDTree
        live = []

        def spy(*args, **kwargs):
            live.append(tracemalloc.get_traced_memory()[0])
            return built(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scipy.spatial, "cKDTree", spy)
            tracemalloc.start()
            try:
                orbit_step(third_step_cloud, seed=3)
            finally:
                tracemalloc.stop()
        assert len(live) == 2
        assert max(live) < 3 * 2**20

    def test_key_space_beyond_int64_raises(self):
        from psigauge._geometry import fibonacci_sphere

        sphere = fibonacci_sphere(1000)
        assert _dedup(sphere, MIN_DEDUP_TOLERANCE).shape == sphere.shape
        with pytest.raises(ValueError):
            _dedup(sphere, MIN_DEDUP_TOLERANCE / 2.0)


class TestTolerances:
    @pytest.mark.parametrize("tol", [0.0, -0.1, float("nan"), float("inf"), 3.5, 1e-6])
    def test_cloud_rejects_dedup_tolerance(self, tol):
        with pytest.raises(ValueError, match="int64"):
            OrbitCloud(np.array([[0.0, 0.0, 1.0]]), 0, tol)

    @pytest.mark.parametrize("tol", [MIN_DEDUP_TOLERANCE, np.pi])
    def test_cloud_accepts_dedup_tolerance_bounds(self, tol):
        assert OrbitCloud(np.array([[0.0, 0.0, 1.0]]), 0, tol).size == 1

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), 3.5])
    def test_coverage_rejects_angular_tolerance(self, tol):
        with pytest.raises(ValueError, match="angular tolerance"):
            coverage(initial_cloud(1.0), 500, tol)

    def test_coverage_accepts_pi(self):
        assert coverage(initial_cloud(1.0), 500, np.pi) == 1.0


class TestTrajectory:
    def test_golden_steps_at_seed_zero(self):
        steps = [
            steps_to_cover(theta, 0.99, 0.05, seed=0).steps
            for theta in (np.pi / 2, np.pi / 4, np.pi / 8, np.pi / 16)
        ]
        assert steps == [2, 2, 3, 4]

    @pytest.mark.parametrize(
        "theta, grid_size, rows",
        [
            (np.pi / 2, 4000, ((0, 2, 0.00125), (1, 50, 0.0305), (2, 9647, 0.9995))),
            (
                np.pi / 8,
                4000,
                ((0, 2, 0.00125), (1, 50, 0.02875), (2, 7220, 0.55275), (3, 16861, 1.0)),
            ),
            (
                0.5,
                100_000,
                ((0, 2, 0.00123), (1, 50, 0.02982), (2, 9143, 0.76516), (3, 16986, 1.0)),
            ),
        ],
        ids=["pi/2", "pi/8", "0.5-grid-100k"],
    )
    def test_pinned_rows_at_seed_zero(self, theta, grid_size, rows):
        # every (generation, cloud size, coverage) row, exactly as first recorded
        trajectory = coverage_trajectory(initial_cloud(theta), grid_size, 0.05, seed=0)
        assert tuple(next(trajectory) for _ in rows) == rows

    def test_rows_match_steps_to_cover(self):
        traj = steps_to_cover(np.pi / 8, 0.99, 0.05, seed=5)
        rows = coverage_trajectory(initial_cloud(np.pi / 8), 4000, 0.05, seed=5)
        assert tuple(next(rows) for _ in traj.trajectory) == traj.trajectory

    def test_steps_run_only_when_asked_for(self):
        calls = []

        def step(cloud, **options):
            calls.append(options["seed"])
            return orbit_step(cloud, **options)

        rows = coverage_trajectory(initial_cloud(1.0), 500, 0.05, seed=7, step=step)
        assert [next(rows)[0] for _ in range(3)] == [0, 1, 2]
        assert calls == [8, 9]


def _ledger_rows(cloud, grid_size, tol, steps, seed=0, step=orbit_step):
    """(points the ledger reused, trajectory coverage, one-shot coverage) for
    each row of a trajectory."""
    rows = []

    def measure(cloud, grid_size, angular_tol, *, uncovered):
        reused = uncovered.measured(cloud, (grid_size, angular_tol))
        value = coverage(cloud, grid_size, angular_tol, uncovered=uncovered)
        rows.append((reused, value, coverage(cloud, grid_size, angular_tol)))
        return value

    trajectory = coverage_trajectory(cloud, grid_size, tol, seed, step=step, measure=measure)
    assert len(list(islice(trajectory, steps + 1))) == steps + 1
    return rows


class TestLedger:
    @pytest.mark.parametrize("theta, grid_size, tol, seed, steps", [
        (0.5, 100_000, 0.05, 0, 3),
        (np.pi / 8, 4000, 0.05, 0, 3),
        (1.0, 2000, 0.05, 3, 4),
        (0.3, 500, 0.03, 9, 4),
        (np.pi / 2, 1000, np.pi, 1, 2),
    ])
    def test_rows_equal_one_shot_coverage(self, theta, grid_size, tol, seed, steps):
        rows = _ledger_rows(initial_cloud(theta), grid_size, tol, steps, seed)
        assert [value for _, value, _ in rows] == [one_shot for _, _, one_shot in rows]
        # every step keeps its input as its first rows, so each later row reuses them
        assert rows[0][0] == 0 and all(reused > 0 for reused, _, _ in rows[1:])

    def test_point_cap_thinning_starts_the_ledger_over(self, monkeypatch):
        monkeypatch.setattr(orbit_module, "POINT_CAP", 40)
        rows = _ledger_rows(initial_cloud(1.0), 500, 0.2, 4)
        assert [value for _, value, _ in rows] == [one_shot for _, _, one_shot in rows]
        assert any(reused == 0 for reused, _, _ in rows[1:])

    def test_permuting_step_starts_the_ledger_over(self):
        def reversed_step(cloud, **options):
            grown = orbit_step(cloud, **options)
            return OrbitCloud(grown.points[::-1], grown.generation, grown.dedup_tolerance)

        rows = _ledger_rows(initial_cloud(0.5), 4000, 0.05, 3, step=reversed_step)
        assert [value for _, value, _ in rows] == [one_shot for _, _, one_shot in rows]
        assert all(reused == 0 for reused, _, _ in rows)

    def test_new_key_or_shorter_cloud_starts_the_ledger_over(self, third_step_cloud):
        ledger = orbit_module._Uncovered()
        coverage(third_step_cloud, 4000, 0.05, uncovered=ledger)
        shorter = OrbitCloud(third_step_cloud.points[:50], 2, 0.02)
        for cloud, grid_size, tol in [(third_step_cloud, 4000, 0.02),
                                      (third_step_cloud, 5000, 0.02),
                                      (shorter, 5000, 0.02)]:
            assert ledger.measured(cloud, (grid_size, tol)) == 0
            got = coverage(cloud, grid_size, tol, uncovered=ledger)
            assert got == coverage(cloud, grid_size, tol)

    def test_holds_indices_and_the_measured_points_only(self):
        """Between rows the ledger holds int32 indices of the uncovered grid
        points and the measured cloud's own points, never grid coordinates:
        a coverage call retains at most the new index array."""
        import tracemalloc

        ledgers = []

        def measure(cloud, grid_size, angular_tol, *, uncovered):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                value = coverage(cloud, grid_size, angular_tol, uncovered=uncovered)
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            ledgers.append((cloud, value, retained, dict(vars(uncovered))))
            return value

        trajectory = coverage_trajectory(initial_cloud(0.5), 100_000, 0.05, measure=measure)
        assert len(list(islice(trajectory, 4))) == 4
        for cloud, value, retained, held in ledgers:
            assert set(held) == {"key", "indices", "points"}
            assert held["key"] == (100_000, 0.05)
            assert held["points"] is cloud.points
            assert held["indices"].dtype == np.int32
            assert value == (100_000 - held["indices"].size) / 100_000
            assert retained <= held["indices"].nbytes + 4096

    def test_whole_grid_is_freed_before_the_query(self, monkeypatch):
        """The third row from theta 0.5 at a 100k grid queries the 97,018
        grid points still uncovered. Holding the whole grid (2.3 MiB) beside
        that subset (2.2 MiB) through the query raised orbit's peak RSS by
        about 3 MB. The worker count is read as the query starts."""
        import tracemalloc

        first = initial_cloud(0.5)
        second = orbit_step(first, seed=1)
        ledger = orbit_module._Uncovered()
        for cloud in (first, second):
            coverage(cloud, 100_000, 0.05, uncovered=ledger)
        assert ledger.indices.size == 97_018
        third = orbit_step(second, seed=2)
        live = []
        workers = orbit_module._workers

        def spy():
            live.append(tracemalloc.get_traced_memory()[0])
            return workers()

        monkeypatch.setattr(orbit_module, "_workers", spy)
        tracemalloc.start()
        try:
            coverage(third, 100_000, 0.05, uncovered=ledger)
        finally:
            tracemalloc.stop()
        assert len(live) == 1
        assert live[0] < 3 * 2**20


class TestWorkers:
    def test_worker_count_is_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert orbit_module._workers() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert orbit_module._workers() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert orbit_module._workers() == 3

    def test_coverage_and_dedup_keep_every_byte_across_worker_counts(self, monkeypatch,
                                                                      third_step_cloud):
        inputs = []

        def record(points, tol, **options):
            inputs.append((points.copy(), tol, options))
            return _dedup(points, tol, **options)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(orbit_module, "_dedup", record)
            orbit_step(third_step_cloud, seed=3)
        points, tol, options = inputs[0]
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(orbit_module, "_workers", lambda: workers)
            ledger = orbit_module._Uncovered()
            rows = [coverage(cloud, 100_000, 0.05, uncovered=ledger)
                    for cloud in (third_step_cloud, orbit_step(third_step_cloud, seed=3))]
            results.append((rows, ledger.indices, _dedup(points, tol, **options)))
        (rows_1, left_1, kept_1), (rows_2, left_2, kept_2) = results
        assert rows_1 == rows_2
        assert np.array_equal(left_1, left_2)
        assert np.array_equal(kept_1, kept_2)
