import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psigauge.ensembles import theorem1_ensemble
from psigauge.ontic import (
    DiscreteOnticModel,
    classify,
    delta_continuity_probe,
    epsilon_overlap,
    ks_qubit_model,
    model_from_json,
    model_from_parametric,
    model_to_json,
    nogo_check,
    predict,
    product_model,
    psi_ontic_fixture,
    total_variation,
)
from psigauge.ontic import _extremal_probe_states
from psigauge.qcore import StateVector, born_prob, gram, inner, normalized

from conftest import haar_state, random_discrete_model


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
        assert set(res.pair) <= {"q0", "q1", "q2"}
        assert res.overlap == 0.5

    def test_equal_preparations_overlap_exactly_one(self):
        res = classify(over_normalized_pair(), ["q0", "q1"])
        assert res.verdict == "psi-epistemic"
        assert res.overlap == 1.0


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


class TestPsiOnticFixture:
    def test_reproduces_born_rows(self):
        e = theorem1_ensemble(3)
        fx = psi_ontic_fixture(list(e.states), [e.measurement])
        for k, s in enumerate(e.states):
            row = fx.responses["m0"][k]
            expect = [born_prob(s, eff) for eff in e.measurement.effects]
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


class TestExtremalProbeStates:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("radius", ["half", "at", "above", "wide"])
    def test_probes_sit_at_the_clipped_radius(self, d, radius):
        reference = theorem1_ensemble(d)
        star = reference.delta_star
        delta = {"half": star / 2, "at": star, "above": star + 0.01, "wide": 0.9}[radius]
        center = haar_state(np.random.default_rng(d), d)
        probes = _extremal_probe_states(center, delta)
        assert len(probes) == d
        for phi in probes:
            assert abs(abs(inner(phi, center)) - (1.0 - min(delta, star))) <= 1e-12
        if delta > star:
            assert np.abs(gram(probes) - gram(reference.states)).max() <= 1e-12


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

    @pytest.mark.parametrize("value", [{"x": 1}, [10**400]])
    def test_preparation_that_is_no_float_array_is_a_value_error(self, value):
        obj = model_to_json(random_discrete_model(3))
        obj["preparations"]["q0"] = value
        with pytest.raises(ValueError, match=r"preparations JSON: q0"):
            model_from_json(obj)
