import numpy as np
import pytest
from scipy.spatial import cKDTree

import psigauge.orbit as orbit_module
from psigauge.orbit import (
    CoverageTrajectory,
    OrbitCloud,
    coverage,
    initial_cloud,
    orbit_step,
    steps_to_cover,
)
from psigauge.orbit import MIN_DEDUP_TOLERANCE, _chord, _dedup, coverage_trajectory


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


def _greedy_reference(points, tol):
    """The dedup as a plain loop: first point per grid cell, then walk the
    representatives in order and drop each later neighbour of a kept one."""
    if points.shape[0] == 0:
        return points
    chord = _chord(tol)
    keys = np.floor(points / (chord / np.sqrt(3.0))).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    reps = points[np.sort(first)]
    keep = np.ones(reps.shape[0], dtype=bool)
    for i, neighbors in enumerate(cKDTree(reps).query_ball_point(reps, chord)):
        if not keep[i]:
            continue
        for j in neighbors:
            if j > i:
                keep[j] = False
    return reps[keep]


class TestDedupMatchesGreedy:
    @pytest.mark.parametrize("theta", [0.196, 1.0])
    def test_equals_reference_on_orbit_step_inputs(self, monkeypatch, theta):
        inputs = []

        def record(points, tol):
            inputs.append((points.copy(), tol))
            return _dedup(points, tol)

        monkeypatch.setattr(orbit_module, "_dedup", record)
        orbit_step(orbit_step(initial_cloud(theta), seed=1), seed=2)
        assert len(inputs) == 2
        for points, tol in inputs:
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
