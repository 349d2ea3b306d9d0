import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psigauge._geometry import bloch_from_state, fibonacci_sphere
from psigauge.ensembles import theorem1_ensemble
from psigauge.ontic import (
    ContinuityReport,
    DiscreteOnticModel,
    ParametricModel,
    classify,
    delta_continuity_probe,
    epsilon_overlap,
    ks_qubit_model,
    model_from_json,
    model_to_json,
    nogo_check,
    predict,
    product_model,
    psi_ontic_fixture,
    total_variation,
)
from psigauge.ontic import SUPPORT_THRESHOLD
from psigauge.qcore import Ball, StateVector, _equal_overlap_family, gram, inner, normalized
from psigauge.qcore import sample_state_in_ball

from conftest import born, haar_state, random_discrete_model


def shared_core_model(core_weight: float, n_prep: int = 2) -> DiscreteOnticModel:
    """Preparations agreeing on one ontic state and disjoint elsewhere; the
    structure that makes the n-copy overlap exactly multiplicative."""
    lam = n_prep + 1
    preps = {}
    for k in range(n_prep):
        vec = np.zeros(lam)
        vec[0] = core_weight
        vec[k + 1] = 1.0 - core_weight
        preps[f"q{k}"] = vec
    resps = {"m": np.tile(np.eye(n_prep)[0], (lam, 1))}
    return DiscreteOnticModel(lam, preps, resps)


class TestModelValidation:
    def test_negative_entry_rejected_with_label(self):
        with pytest.raises(ValueError, match="q0"):
            DiscreteOnticModel(2, {"q0": np.array([1.2, -0.2])}, {})

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteOnticModel(2, {"q0": np.array([0.7, 0.4])}, {})

    def test_non_stochastic_response_row_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            DiscreteOnticModel(
                2,
                {"q0": np.array([0.5, 0.5])},
                {"m": np.array([[1.0, 0.0], [0.3, 0.3]])},
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DiscreteOnticModel(3, {"q0": np.array([0.5, 0.5])}, {})

    def test_non_finite_weight_rejected(self):
        # abs(nan - 1) > tol is False, so the sum check alone lets NaN through
        with pytest.raises(ValueError, match="non-finite"):
            DiscreteOnticModel(2, {"q0": np.array([np.nan, 1.0])}, {})

    def test_arrays_frozen(self):
        m = shared_core_model(0.5)
        with pytest.raises(ValueError):
            m.preparations["q0"][0] = 0.9


class TestPredict:
    def test_known_distribution(self):
        m = shared_core_model(0.5)
        out = predict(m, "q0", "m")
        assert np.allclose(out, [1.0, 0.0])

    def test_unknown_labels(self):
        m = shared_core_model(0.5)
        with pytest.raises(ValueError, match="nope"):
            predict(m, "nope", "m")
        with pytest.raises(ValueError, match="bad"):
            predict(m, "q0", "bad")


def over_normalized_pair() -> DiscreteOnticModel:
    """Two equal preparations whose entries sum to just above 1, within the
    normalization tolerance."""
    vec = np.full(3, 1.0 / 3.0)
    vec[0] += 1e-12
    return DiscreteOnticModel(3, {"q0": vec, "q1": vec.copy()}, {})


class TestEpsilonOverlap:
    def test_requires_two_preparations(self):
        m = shared_core_model(0.5)
        with pytest.raises(ValueError):
            epsilon_overlap(m, ["q0"])

    def test_shared_core_value(self):
        rep = epsilon_overlap(shared_core_model(0.3), ["q0", "q1"])
        assert abs(rep.epsilon - 0.3) <= 1e-15
        assert rep.witness_lambdas == (0,)

    def test_witnesses_are_strictly_positive(self):
        m = DiscreteOnticModel(
            2,
            {"q0": np.array([1.0, 0.0]), "q1": np.array([0.0, 1.0])},
            {},
        )
        rep = epsilon_overlap(m, ["q0", "q1"])
        assert rep.epsilon == 0.0
        assert rep.witness_lambdas == ()

    def test_equal_preparations_give_exactly_one(self):
        m = over_normalized_pair()
        assert float(m.preparations["q0"].sum()) > 1.0
        assert epsilon_overlap(m, ["q0", "q1"]).epsilon == 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_matches_total_variation_for_pairs(self, seed):
        rng = np.random.default_rng(seed)
        lam = int(rng.integers(2, 10))
        p = rng.dirichlet(np.ones(lam))
        q = rng.dirichlet(np.ones(lam))
        m = DiscreteOnticModel(lam, {"a": p, "b": q}, {})
        eps = epsilon_overlap(m, ["a", "b"]).epsilon
        assert abs(eps - (1.0 - total_variation(p, q))) <= 1e-12


class TestNoGoCheck:
    def test_hand_built_instance(self):
        m = DiscreteOnticModel(
            3,
            {
                "q0": np.array([0.5, 0.5, 0.0]),
                "q1": np.array([0.5, 0.0, 0.5]),
                "q2": np.array([0.5, 0.25, 0.25]),
            },
            {"m": np.array([[1 / 3, 1 / 3, 1 / 3], [1, 0, 0], [0, 1, 0]])},
        )
        res = nogo_check(m, ["q0", "q1", "q2"], "m")
        assert abs(res.lhs - 1.5) <= 1e-12
        assert abs(res.epsilon - 0.5) <= 1e-12
        assert res.inequality_holds

    def test_outcome_count_precondition(self):
        m = shared_core_model(0.5, n_prep=3)  # measurement has 3 outcomes
        with pytest.raises(ValueError):
            nogo_check(m, ["q0", "q1", "q2", "q0"], "m")

    def test_more_outcomes_than_preparations_raise(self):
        # lhs would read 0 < epsilon = 1 here, though the model is valid
        m = DiscreteOnticModel(1, {"q0": [1.0], "q1": [1.0]}, {"m": [[0.0, 0.0, 1.0]]})
        with pytest.raises(ValueError, match="3 outcomes for 2 preparations"):
            nogo_check(m, ["q0", "q1"], "m")

    def test_random_models_never_violate(self):
        for seed in range(60):
            model = random_discrete_model(seed)
            qs = sorted(model.preparations)
            for m in sorted(model.responses):
                res = nogo_check(model, qs, m)
                assert res.inequality_holds, (seed, m, res)


class TestClassify:
    def test_disjoint_supports_are_ontic(self):
        m = DiscreteOnticModel(
            2,
            {"q0": np.array([1.0, 0.0]), "q1": np.array([0.0, 1.0])},
            {},
        )
        res = classify(m, ["q0", "q1"])
        assert res.verdict == "psi-ontic"
        assert res.pair is None

    def test_overlapping_supports_are_epistemic_with_best_pair(self):
        m = DiscreteOnticModel(
            3,
            {
                "q0": np.array([1.0, 0.0, 0.0]),
                "q1": np.array([0.0, 1.0, 0.0]),
                "q2": np.array([0.5, 0.5, 0.0]),
            },
            {},
        )
        res = classify(m, ["q0", "q1", "q2"])
        assert res.verdict == "psi-epistemic"
        assert res.pair == ("q0", "q2")  # ties with (q1, q2) and goes to the first pair
        assert res.overlap == 0.5

    def test_equal_preparations_overlap_exactly_one(self):
        res = classify(over_normalized_pair(), ["q0", "q1"])
        assert res.verdict == "psi-epistemic"
        assert res.overlap == 1.0

    def test_overlap_is_the_largest_pairwise_epsilon(self):
        for seed in range(60):
            model = random_discrete_model(seed)
            qs = sorted(model.preparations)
            pairs = [(a, b) for i, a in enumerate(qs) for b in qs[i + 1:]]
            overlaps = [epsilon_overlap(model, pair).epsilon for pair in pairs]
            res = classify(model, qs)
            assert res.overlap == max(overlaps), seed
            if res.verdict == "psi-epistemic":
                assert res.pair == pairs[overlaps.index(res.overlap)], seed


class TestProductModel:
    def test_single_copy_is_same_object(self):
        m = shared_core_model(0.5)
        assert product_model(m, 1) is m

    def test_cap_enforced(self):
        m = shared_core_model(0.5, n_prep=4)  # 5 ontic states
        with pytest.raises(ValueError):
            product_model(m, 9)

    def test_kron_structure(self):
        m = shared_core_model(0.5)
        m2 = product_model(m, 2)
        assert m2.lambda_count == 9
        p = m.preparations["q0"]
        assert np.allclose(m2.preparations["q0"], np.kron(p, p))
        r = m.responses["m"]
        assert np.allclose(m2.responses["m"], np.kron(r, r))

    def test_shared_core_overlap_is_exactly_multiplicative(self):
        m = shared_core_model(0.37)
        eps = epsilon_overlap(m, ["q0", "q1"]).epsilon
        for n in (2, 3):
            eps_n = epsilon_overlap(product_model(m, n), ["q0", "q1"]).epsilon
            assert abs(eps_n - eps**n) <= 1e-12

    @given(st.integers(0, 5_000), st.integers(2, 3))
    @settings(max_examples=40, deadline=None)
    def test_product_overlap_at_least_power(self, seed, n):
        # independent copies can only help the overlap: eps_n >= eps^n
        rng = np.random.default_rng(seed)
        lam = int(rng.integers(2, 6))
        m = DiscreteOnticModel(
            lam,
            {"a": rng.dirichlet(np.ones(lam)), "b": rng.dirichlet(np.ones(lam))},
            {},
        )
        eps = epsilon_overlap(m, ["a", "b"]).epsilon
        eps_n = epsilon_overlap(product_model(m, n), ["a", "b"]).epsilon
        assert eps_n >= eps**n - 1e-12


class TestKsQubitModel:
    def test_grid_precondition(self):
        with pytest.raises(ValueError):
            ks_qubit_model(50)

    def test_preparation_weights_are_distributions(self):
        fam = ks_qubit_model(500)
        rng = np.random.default_rng(1)
        w = fam.preparation_rule(haar_state(rng, 2))
        assert w.min() >= 0.0
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_response_tables_are_deterministic_rows(self):
        fam = ks_qubit_model(500)
        table = fam.response_rule(np.array([0.0, 0.0, 1.0]))
        assert table.shape == (500, 2)
        assert np.array_equal(table.sum(axis=1), np.ones(500))
        assert set(np.unique(table)) <= {0.0, 1.0}

    @staticmethod
    def scatter_table(points, axis):
        """The response table as two boolean-mask scatters into zeros."""
        axis = np.asarray(axis, dtype=float)
        plus = points @ (axis / np.linalg.norm(axis)) >= 0.0
        table = np.zeros((len(points), 2))
        table[plus, 0] = 1.0
        table[~plus, 1] = 1.0
        return table

    def assert_same_table(self, fam, points, axis):
        table = fam.response_rule(axis)
        expected = self.scatter_table(points, axis)
        assert table.dtype == expected.dtype and table.shape == expected.shape
        assert table.tobytes() == expected.tobytes()
        return table

    @pytest.mark.parametrize("grid", [100, 1001, 10_000])
    def test_response_table_equals_the_scatter_construction(self, grid):
        fam = ks_qubit_model(grid)
        points = fibonacci_sphere(grid)
        rng = np.random.default_rng(grid)
        for axis in [*rng.standard_normal((20, 3)), *np.eye(3), *-np.eye(3)]:
            self.assert_same_table(fam, points, axis)

    def test_middle_point_of_an_odd_grid_goes_to_plus(self):
        # z of the middle point is cos(arccos(0)), 6e-17: the nearest tie
        points = fibonacci_sphere(1001)
        assert abs(points[500, 2]) < 1e-16
        table = self.assert_same_table(ks_qubit_model(1001), points, [0.0, 0.0, 1.0])
        assert table[500].tolist() == [1.0, 0.0]

    def test_exact_ties_go_to_plus(self, monkeypatch):
        import psigauge.ontic as ontic

        points = fibonacci_sphere(200)
        points[:4] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
        monkeypatch.setattr(ontic, "fibonacci_sphere", lambda n: points)
        table = self.assert_same_table(ks_qubit_model(200), points, [0.0, 0.0, 2.0])
        assert table[:4].tolist() == [[1.0, 0.0]] * 4

    def test_born_rule_reproduction_improves_with_grid(self):
        def worst(grid):
            fam = ks_qubit_model(grid)
            rng = np.random.default_rng(0)
            err = 0.0
            for _ in range(30):
                s = haar_state(rng, 2)
                axis = rng.standard_normal(3)
                axis /= np.linalg.norm(axis)
                from psigauge._geometry import bloch_from_state

                born = (1.0 + bloch_from_state(s) @ axis) / 2.0
                err = max(err, abs(fam.predict(s, axis)[0] - born))
            return err

        coarse, fine = worst(1_000), worst(20_000)
        assert fine < coarse
        assert fine < 0.01

    @pytest.mark.parametrize("axis", [[0.0, 0.0, 0.0], [np.inf, 0.0, 0.0], [np.nan, 0.0, 1.0]])
    def test_undefined_axes_are_rejected(self, axis):
        fam = ks_qubit_model(500)
        state = normalized(np.array([1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for call in (lambda: fam.response_rule(axis), lambda: fam.predict(state, axis)):
                with pytest.raises(ValueError, match="axis must be finite and nonzero"):
                    call()

    def test_axis_shape_message_is_kept(self):
        with pytest.raises(ValueError, match=r"axis must be a 3-vector, got \(2,\)"):
            ks_qubit_model(500).response_rule([1.0, 0.0])

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_axis_length_does_not_matter(self, scale):
        fam = ks_qubit_model(500)
        axis = np.array([0.3, -0.5, 0.8])
        assert np.array_equal(fam.response_rule(scale * axis), fam.response_rule(axis))


class TestPsiOnticFixture:
    def test_reproduces_born_rows(self):
        e = theorem1_ensemble(3)
        fx = psi_ontic_fixture(list(e.states), [e.measurement])
        for k, s in enumerate(e.states):
            row = fx.responses["m0"][k]
            expect = [born(s, eff.entries) for eff in e.measurement.effects]
            assert np.allclose(row, expect, atol=1e-12)

    def test_classified_ontic(self):
        e = theorem1_ensemble(3)
        fx = psi_ontic_fixture(list(e.states), [e.measurement])
        assert classify(fx, ["q0", "q1", "q2"]).verdict == "psi-ontic"

    def test_duplicate_states_rejected(self):
        s = StateVector.basis(2, 0)
        with pytest.raises(ValueError):
            psi_ontic_fixture([s, s], [])


@pytest.fixture(scope="module")
def ks10k():
    return ks_qubit_model(10_000)


class TestContinuityProbe:
    def test_preconditions(self, ks10k):
        plus = normalized(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            delta_continuity_probe(ks10k, plus, 0.0, 10)
        with pytest.raises(ValueError):
            delta_continuity_probe(ks10k, StateVector.basis(3, 0), 0.2, 10)
        with pytest.raises(ValueError):
            delta_continuity_probe(ks10k, plus, 0.2, 0)

    def test_deterministic(self, ks10k):
        plus = normalized(np.array([1.0, 1.0]))
        a = delta_continuity_probe(ks10k, plus, 0.2, 50, seed=5)
        b = delta_continuity_probe(ks10k, plus, 0.2, 50, seed=5)
        assert a == b

    def test_bracket_around_plus(self, ks10k):
        plus = normalized(np.array([1.0, 1.0]))
        below = delta_continuity_probe(ks10k, plus, 0.25, 100, seed=0)
        above = delta_continuity_probe(ks10k, plus, 0.35, 100, seed=0)
        assert below.verdict == "continuous-at-delta"
        assert len(below.common_support) > 0
        assert above.verdict == "no-witness-found"
        assert above.common_support == ()

    def test_small_ball_is_continuous_anywhere(self, ks10k):
        center = StateVector.basis(2, 0)
        rep = delta_continuity_probe(ks10k, center, 0.05, 50, seed=2)
        assert rep.verdict == "continuous-at-delta"
        assert rep.empirical_epsilon > 0.0


def recording(family, nan_call=None):
    """family with a preparation rule that records every weight vector it
    returns; call number nan_call (if any) gets a NaN at its largest weight."""
    seen = []

    def rule(phi):
        weights = family.preparation_rule(phi).copy()
        if len(seen) == nan_call:
            weights[np.argmax(weights)] = np.nan
        seen.append(weights)
        return weights

    return dataclasses.replace(family, preparation_rule=rule), seen


def mask_support(seen) -> tuple:
    """The support as the intersection of the per-probe threshold masks."""
    mask = np.ones(seen[0].size, dtype=bool)
    for weights in seen:
        mask &= weights > SUPPORT_THRESHOLD
    return tuple(int(i) for i in np.nonzero(mask)[0])


@pytest.fixture(scope="module")
def ks100k():
    return ks_qubit_model(100_000)


class TestContinuitySupport:
    @pytest.mark.parametrize("delta", [0.10, 0.25, 0.28, 0.35])
    def test_running_minimum_matches_the_mask_intersection(self, ks100k, delta):
        family, seen = recording(ks100k)
        plus = normalized(np.array([1.0, 1.0]))
        report = delta_continuity_probe(family, plus, delta, 20, seed=3)
        assert report.common_support == mask_support(seen)

    def test_nan_weight_leaves_the_support(self, ks10k):
        plus = normalized(np.array([1.0, 1.0]))
        family, seen = recording(ks10k, nan_call=4)
        report = delta_continuity_probe(family, plus, 0.1, 20, seed=3)
        dropped = int(np.flatnonzero(np.isnan(seen[4]))[0])
        assert report.common_support == mask_support(seen)
        assert report.common_support and dropped not in report.common_support
        clean = delta_continuity_probe(ks10k, plus, 0.1, 20, seed=3)
        assert dropped in clean.common_support


def extremal_probe_states(center: StateVector, delta: float) -> list:
    """The probe's extremal family: qcore's equal-overlap family at fidelity
    1 - delta, clipped at theorem1's fidelity sqrt((d-1)/d) in a wider ball."""
    f = max(1.0 - delta, np.sqrt((center.dim - 1) / center.dim))
    return _equal_overlap_family(center, 1.0 - f * f)


def probe_every_state(family, center, delta, n_samples, seed=0) -> ContinuityReport:
    """The probe without its early stop: draw every sample from the seeds of
    one spawn(n_samples), append the extremal family, then take the running
    minimum over all of them."""
    ball = Ball(center, delta)
    children = np.random.SeedSequence(seed).spawn(n_samples)
    probes = [sample_state_in_ball(ball, np.random.default_rng(c)) for c in children]
    probes.extend(extremal_probe_states(center, delta))
    running_min = np.full(family.lambda_count, np.inf)
    for phi in probes:
        running_min = np.minimum(running_min, family.preparation_rule(phi))
    support = tuple(int(i) for i in np.flatnonzero(running_min > SUPPORT_THRESHOLD))
    verdict = "continuous-at-delta" if support else "no-witness-found"
    return ContinuityReport(delta, n_samples, support, float(running_min.sum()), verdict)


def sharpened_hemisphere(grid_size: int, power: int) -> ParametricModel:
    """Hemisphere model with weights max(0, b_psi . b_lambda)**power: the
    same exact supports as the KS model, but lattice points near a
    hemisphere's rim keep positive weights below SUPPORT_THRESHOLD."""
    points = fibonacci_sphere(grid_size)

    def rule(state):
        weights = np.maximum(0.0, points @ bloch_from_state(state)) ** power
        return weights / weights.sum()

    return dataclasses.replace(ks_qubit_model(grid_size), preparation_rule=rule)


DELTA_STAR_2 = 1.0 - 1.0 / np.sqrt(2.0)
PROBE_CENTERS = {
    "plus": lambda: normalized(np.array([1.0, 1.0])),
    "basis0": lambda: StateVector.basis(2, 0),
    "haar": lambda: haar_state(np.random.default_rng(2024), 2),
}


class TestEarlyStop:
    @pytest.mark.parametrize("center", sorted(PROBE_CENTERS))
    @pytest.mark.parametrize("delta", [0.25, 0.28, DELTA_STAR_2 + 0.001, 0.35, 0.5, 1.0])
    def test_report_equals_the_probe_that_evaluates_every_state(self, ks10k, center, delta):
        for seed in (0, 1, 13644731):
            args = (PROBE_CENTERS[center](), delta, 60, seed)
            assert delta_continuity_probe(ks10k, *args) == probe_every_state(ks10k, *args)

    @pytest.mark.parametrize("delta", [0.26, 0.28, DELTA_STAR_2 + 0.001, 0.35])
    def test_sub_threshold_weights_do_not_stop_the_probe(self, delta):
        # an empty thresholded support is not yet a zero running minimum:
        # later probes still lower empirical_epsilon
        family = sharpened_hemisphere(10_000, 8)
        plus = PROBE_CENTERS["plus"]()
        for seed in (0, 1, 2):
            want = probe_every_state(family, plus, delta, 60, seed)
            assert delta_continuity_probe(family, plus, delta, 60, seed) == want

    @pytest.mark.parametrize("delta, stops", [(0.25, False), (0.35, True)])
    def test_rule_calls_stop_at_a_zero_running_minimum(self, ks100k, delta, stops):
        family, seen = recording(ks100k)
        plus = PROBE_CENTERS["plus"]()
        report = delta_continuity_probe(family, plus, delta, 200, seed=0)
        assert report.n_samples == 200
        if stops:
            assert len(seen) < 200 + 2
            assert not np.minimum.reduce(seen).any() and np.minimum.reduce(seen[:-1]).any()
        else:
            assert len(seen) == 200 + 2

    @staticmethod
    def counted_draws(monkeypatch) -> list:
        """The rngs of every ball sample the probe draws, in order."""
        import psigauge.ontic

        draws = []

        def counted(ball, rng):
            draws.append(rng)
            return sample_state_in_ball(ball, rng)

        monkeypatch.setattr(psigauge.ontic, "sample_state_in_ball", counted)
        return draws

    def test_extremal_states_go_first_and_can_end_the_probe(self, monkeypatch, ks100k):
        # beyond delta*(2) the two extremal states are antipodal, so their
        # hemispheres share no lattice point and no sample is needed
        draws = self.counted_draws(monkeypatch)
        family, seen = recording(ks100k)
        plus = PROBE_CENTERS["plus"]()
        report = delta_continuity_probe(family, plus, 0.35, 200, seed=0)
        assert draws == [] and len(seen) == 2
        for weights, phi in zip(seen, extremal_probe_states(plus, 0.35)):
            assert np.array_equal(weights, ks100k.preparation_rule(phi))
        assert report.verdict == "no-witness-found" and report.empirical_epsilon == 0.0

    def test_samples_are_drawn_only_until_the_stop(self, monkeypatch):
        # the real extremal states land on e0, every complex sample on e1: the
        # first draw ends the probe, where samples first would draw all 200
        e0, e1 = np.eye(2)
        toy = ParametricModel(
            dim=2,
            lambda_count=2,
            preparation_rule=lambda s: e0 if np.isreal(s.amplitudes).all() else e1,
            response_rule=lambda m: np.eye(2),
        )
        draws = self.counted_draws(monkeypatch)
        report = delta_continuity_probe(toy, PROBE_CENTERS["plus"](), 0.2, 200, seed=0)
        assert len(draws) == 1
        assert report.common_support == () and report.empirical_epsilon == 0.0

    def test_seeds_are_not_spawned_up_front(self):
        """spawn(n) up front held one SeedSequence and one state per sample:
        5,000 samples peaked at 3.5 MiB under tracemalloc; drawn one at a
        time they peak near 12 KiB."""
        import tracemalloc

        family = ks_qubit_model(100)
        plus = PROBE_CENTERS["plus"]()
        delta_continuity_probe(family, plus, 0.01, 10)  # warm every import and cache
        tracemalloc.start()
        try:
            report = delta_continuity_probe(family, plus, 0.01, 5000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == "continuous-at-delta"
        assert peak < 512 * 1024


class TestExtremalProbeStates:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("radius", ["half", "at", "above", "wide"])
    def test_probes_sit_at_the_clipped_radius(self, d, radius):
        reference = theorem1_ensemble(d)
        star = reference.delta_star
        delta = {"half": star / 2, "at": star, "above": star + 0.01, "wide": 0.9}[radius]
        center = haar_state(np.random.default_rng(d), d)
        probes = extremal_probe_states(center, delta)
        assert len(probes) == d
        for phi in probes:
            assert abs(abs(inner(phi, center)) - (1.0 - min(delta, star))) <= 1e-12
        if delta > star:
            assert np.abs(gram(probes) - gram(reference.states)).max() <= 1e-12

    @staticmethod
    def moved_then_pulled(center, delta):
        """The probe family built the long way: theorem1_ensemble's states
        carried to the center by the dense rotation in the plane of the uniform
        state u and the phase-turned center z that takes u to z,
        I + 2 z u^dag - (u + z)(u + z)^dag / (1 + <u|z>), then pulled along the
        geodesic onto the ball boundary when the ball is no wider than their radius."""
        reference = theorem1_ensemble(center.dim)
        u, c = reference.center.amplitudes, center.amplitudes
        z = c * np.exp(1j * np.angle(np.vdot(c, u)))
        rotation = (np.eye(center.dim) + 2.0 * np.outer(z, u.conj())
                    - np.outer(u + z, (u + z).conj()) / (1.0 + np.vdot(u, z).real))
        moved = [normalized(rotation @ s.amplitudes).amplitudes for s in reference.states]
        if delta > reference.delta_star + 1e-12:
            return moved
        pulled = []
        for s in moved:
            z_k = complex(np.vdot(c, s))
            orth = s * np.exp(-1j * np.angle(z_k)) - abs(z_k) * c
            orth /= np.linalg.norm(orth)
            pulled.append((1.0 - delta) * c + np.sqrt(1.0 - (1.0 - delta) ** 2) * orth)
        return pulled

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_closed_form_matches_the_moved_theorem1_states(self, d):
        star = 1.0 - np.sqrt((d - 1) / d)
        deltas = [star / 2, star - 1e-13, star, star + 1e-13, star + 0.01, 0.9, 1.0]
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng([d, seed])
            phase = np.exp(2j * np.pi * rng.random())
            centers = [
                haar_state(rng, d),
                StateVector(d, phase * StateVector.uniform(d).amplitudes),
                StateVector.basis(d, 0),
            ]
            for center in centers:
                for delta in deltas:
                    new = extremal_probe_states(center, delta)
                    old = self.moved_then_pulled(center, delta)
                    assert len(new) == len(old) == d
                    for a, b in zip(old, new):
                        worst = max(worst, 1.0 - abs(np.vdot(a, b.amplitudes)))
        assert worst <= 1e-12

    def test_probe_builds_no_theorem1_ensemble(self, monkeypatch, ks10k):
        import psigauge.ensembles

        def refuse(d):
            raise AssertionError("the probe built a theorem1 ensemble")

        monkeypatch.setattr(psigauge.ensembles, "theorem1_ensemble", refuse)
        plus = normalized(np.array([1.0, 1.0]))
        report = delta_continuity_probe(ks10k, plus, 0.2, 5)
        assert report.n_samples == 5 and report.verdict == "continuous-at-delta"


class TestModelJson:
    def test_round_trip(self):
        m = random_discrete_model(3)
        back = model_from_json(model_to_json(m))
        assert back.lambda_count == m.lambda_count
        for k in m.preparations:
            assert np.array_equal(back.preparations[k], m.preparations[k])
        for k in m.responses:
            assert np.array_equal(back.responses[k], m.responses[k])

    def test_missing_field(self):
        with pytest.raises(ValueError, match="responses"):
            model_from_json({"lambda_count": 1, "preparations": {}})


class TestResponseTableCheck:
    @staticmethod
    def table(bad_rows, value):
        rows = np.full((10, 2), 0.5)
        for i in bad_rows:
            rows[i] = value
        return rows

    def test_first_bad_row_is_named(self):
        with pytest.raises(ValueError, match=r"responses\['m'\] row 3: entries sum"):
            DiscreteOnticModel(10, {}, {"m": self.table([3, 7], [0.5, 0.6])})

    @pytest.mark.parametrize(
        "value, message",
        [
            ([np.nan, 1.0], "row 3: non-finite"),
            ([np.inf, -np.inf], "row 3: non-finite"),
            ([1.5, -0.5], "row 3: negative entry"),
        ],
    )
    def test_diagnostic_without_runtime_warning(self, value, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                DiscreteOnticModel(10, {}, {"m": self.table([3, 7], value)})

    def test_valid_tables_are_frozen(self):
        m = DiscreteOnticModel(10, {}, {"m": self.table([], 0.0)})
        assert not m.responses["m"].flags.writeable

    @pytest.mark.parametrize(
        "value, problem",
        [
            ([np.nan, 1.0], "non-finite entry"),
            ([np.inf, -np.inf], "non-finite entry"),
            ([1.5, -0.5], "negative entry -5.000e-01"),
            ([0.7, 0.4], "entries sum to 1.1, expected 1"),
            ([1e308, 1e308], "entries sum to inf, expected 1"),
        ],
    )
    @pytest.mark.parametrize("kind", ["preparations", "responses"])
    def test_one_rule_for_preparations_and_responses(self, kind, value, problem):
        if kind == "preparations":
            args, where = (2, {"q": value}, {}), r"preparations\['q'\]"
        else:
            args, where = (10, {}, {"m": self.table([3, 7], value)}), r"responses\['m'\] row 3"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{where}: {problem}"):
                DiscreteOnticModel(*args)

    def test_zero_column_table_is_no_distribution(self):
        with pytest.raises(ValueError, match=r"responses\['m'\] row 0: entries sum to 0.0,"):
            DiscreteOnticModel(3, {}, {"m": np.zeros((3, 0))})


class TestModelFromJsonFields:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("preparations", [], "preparations JSON: expected an object"),
            ("responses", 5, "responses JSON: expected an object"),
            ("lambda_count", [2], "model JSON: lambda_count"),
            ("lambda_count", float("inf"), "model JSON: lambda_count"),
        ],
    )
    def test_wrong_field_is_a_value_error(self, field, value, message):
        obj = model_to_json(random_discrete_model(3))
        obj[field] = value
        with pytest.raises(ValueError, match=message):
            model_from_json(obj)

    @pytest.mark.parametrize("edit", [float, str, lambda count: count + 0.7, bool])
    def test_lambda_count_must_be_a_json_integer(self, edit):
        obj = model_to_json(random_discrete_model(3))
        obj["lambda_count"] = edit(obj["lambda_count"])
        with pytest.raises(ValueError, match="model JSON: lambda_count must be an integer >= 1"):
            model_from_json(obj)

    @pytest.mark.parametrize("one, zero", [(True, False), ("1", "0")], ids=["bool", "string"])
    def test_preparation_entries_must_be_numbers(self, one, zero):
        obj = model_to_json(random_discrete_model(3))
        obj["preparations"]["q0"] = [one] + [zero] * (obj["lambda_count"] - 1)
        with pytest.raises(ValueError, match="preparations JSON: q0: expected numbers"):
            model_from_json(obj)

    @pytest.mark.parametrize("value", [{"x": 1}, [10**400]])
    def test_preparation_that_is_no_float_array_is_a_value_error(self, value):
        obj = model_to_json(random_discrete_model(3))
        obj["preparations"]["q0"] = value
        with pytest.raises(ValueError, match=r"preparations JSON: q0"):
            model_from_json(obj)
