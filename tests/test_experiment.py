import dataclasses
import itertools
import json

import numpy as np
import pytest

from psigauge import experiment
from psigauge.ensembles import theorem1_ensemble, theorem2_ensemble, theorem2_span_ensemble
from psigauge.ensembles import ensemble_from_json, ensemble_to_json
from psigauge.experiment import (
    NoiseSpec,
    _chernoff_upper,
    _clopper_pearson_upper,
    _noisy_rows,
    noisy_outcome_distribution,
    report_to_json,
    run_protocol,
    sweep,
    sweep_to_csv,
)
from psigauge.qcore import (
    Povm,
    StateVector,
    effect_traces,
    outcome_table,
)

from conftest import born, dense_measurement


QUIET = NoiseSpec(0.0, 0.0)


class TestNoiseSpec:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1, 0.0)
        with pytest.raises(ValueError):
            NoiseSpec(0.0, 1.2)

    def test_endpoints_allowed(self):
        NoiseSpec(0.0, 1.0)
        NoiseSpec(1.0, 0.0)


class TestNoisyOutcomeDistribution:
    def test_no_noise_reduces_to_born_rule(self, rng=np.random.default_rng(5)):
        povm = Povm.basis(4)
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = StateVector(4, raw / np.linalg.norm(raw))
        dist = noisy_outcome_distribution(state, povm, QUIET)
        for r, effect in enumerate(povm.effects):
            assert abs(dist[r] - born(state, effect.entries)) <= 1e-12

    def test_full_depolarizing_forgets_the_state(self):
        povm = Povm.basis(3)
        dist = noisy_outcome_distribution(
            StateVector.basis(3, 0), povm, NoiseSpec(1.0, 0.0)
        )
        assert np.allclose(dist, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_full_flip_is_uniform_over_outcomes(self):
        povm = Povm.basis(3)
        dist = noisy_outcome_distribution(
            StateVector.basis(3, 1), povm, NoiseSpec(0.0, 1.0)
        )
        assert np.allclose(dist, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_depolarizing_leak_into_excluded_outcome(self):
        # each excluded outcome picks up exactly p * tr(effect) / dim
        ens = theorem1_ensemble(3)
        p = 0.01
        for k, state in enumerate(ens.states):
            dist = noisy_outcome_distribution(state, ens.measurement, NoiseSpec(p, 0.0))
            assert abs(dist[k] - p / 3.0) <= 1e-12

    @pytest.mark.parametrize(
        "ens", [theorem1_ensemble(5), dense_measurement(theorem2_ensemble(3, 2))]
    )
    def test_table_mixing_equals_per_outcome_loop(self, ens):
        # reference: one entry of the table and one effect at a time, in the same
        # arithmetic; tr E comes from effect_traces, whose accuracy
        # test_split_effects_give_their_born_table_and_traces checks
        p, q = 0.03, 0.02
        povm = ens.measurement
        table, traces = outcome_table(ens.states, povm), effect_traces(povm)
        rows = _noisy_rows(table, povm, NoiseSpec(p, q))
        for k in range(len(ens.states)):
            probs = np.empty(povm.outcome_count)
            for r in range(povm.outcome_count):
                mixed = float(traces[r]) / povm.dim
                probs[r] = (1.0 - p) * table[k, r] + p * mixed
            probs = np.clip((1.0 - q) * probs + q / povm.outcome_count, 0.0, None)
            assert np.array_equal(rows[k], probs / probs.sum())


class TestClopperPearson:
    def test_zero_count_closed_form(self):
        # Beta(1, n) upper quantile has the closed form 1 - a**(1/n)
        for n in (100, 10_000):
            a = 0.05 / 3.0
            assert abs(_clopper_pearson_upper(0, n, a) - (1.0 - a ** (1.0 / n))) <= 1e-15

    def test_all_successes_gives_one(self):
        assert _clopper_pearson_upper(10, 10, 0.05) == 1.0

    def test_monotone_in_count(self):
        uppers = [_clopper_pearson_upper(x, 1000, 0.05) for x in (0, 1, 5, 50)]
        assert uppers == sorted(uppers)
        assert all(0.0 < u < 1.0 for u in uppers)

    @pytest.mark.parametrize("trials", [1, 10, 100_000])
    def test_equals_the_beta_quantile_bitwise(self, trials):
        from scipy.stats import beta

        k = np.arange(trials)
        for d in (2, 8, 32, 64, 729):
            significance = (1.0 - 0.95) / d
            expected = beta.ppf(1.0 - significance, k + 1, trials - k)
            got = np.array([_clopper_pearson_upper(j, trials, significance) for j in range(trials)])
            assert np.array_equal(got, expected), d

    def test_betaincinv_failures_fall_back_to_the_chernoff_limit(self):
        from scipy.special import betaincinv

        significance = 0.05 / 3.0
        for trials, successes in [(10**17, 10**16), (10**18, 10**17), (10**18, 10**16)]:
            # the kernel's NaN, exactly where the limit went missing
            assert np.isnan(betaincinv(successes + 1, trials - successes, 1.0 - significance))
            upper = _clopper_pearson_upper(successes, trials, significance)
            assert upper == _chernoff_upper(successes, trials, significance)
            assert successes / trials < upper < 1.0

    @pytest.mark.parametrize("trials", [100, 10_000, 2**63 - 1])
    def test_chernoff_zero_count_closed_form(self, trials):
        # n·KL(0 ‖ u) = -n·ln(1 - u), so u = 1 - a**(1/n)
        a = 0.05 / 3.0
        expected = -np.expm1(np.log(a) / trials)
        assert abs(_chernoff_upper(0, trials, a) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("trials", [20, 1000, 100_000])
    def test_chernoff_limit_is_covered_and_wider_than_clopper_pearson(self, trials):
        from scipy.special import rel_entr
        from scipy.stats import binom

        for significance in (0.5, 0.05 / 3.0, 1e-6):
            for k in sorted({0, 1, trials // 3, trials - 1}):
                upper = _chernoff_upper(k, trials, significance)
                r, level = k / trials, -np.log(significance)

                def divergence(u):
                    return trials * (rel_entr(r, u) + rel_entr(1.0 - r, 1.0 - u))

                # the least float whose divergence reaches the level
                assert divergence(upper) >= level * (1 - 1e-9)
                assert divergence(np.nextafter(upper, 0.0)) <= level * (1 + 1e-9)
                # equal at k = 0, where the Chernoff bound is the exact tail (1 - u)^n
                assert binom.cdf(k, trials, upper) <= significance * (1 + 1e-9)
                assert upper >= _clopper_pearson_upper(k, trials, significance)


class TestRunProtocol:
    def test_preconditions(self):
        ens = theorem1_ensemble(2)
        with pytest.raises(ValueError):
            run_protocol(ens, QUIET, 0)
        with pytest.raises(ValueError):
            run_protocol(ens, QUIET, 100, confidence=1.0)

    def test_noiseless_counts_stay_off_diagonal(self):
        report = run_protocol(theorem1_ensemble(3), QUIET, 10_000, seed=0)
        assert report.epsilon_exp_hat == 0.0
        assert np.all(np.diag(report.counts) == 0)
        assert report.counts.sum() == 3 * 10_000

    def test_hat_matches_diagonal_frequencies(self):
        report = run_protocol(theorem1_ensemble(3), NoiseSpec(0.05, 0.0), 2_000, seed=7)
        hat = sum(int(report.counts[k][k]) for k in range(3)) / 2_000
        assert report.epsilon_exp_hat == hat
        assert report.epsilon_upper_bound >= report.epsilon_exp_hat

    def test_zero_noise_upper_bound_closed_form(self):
        report = run_protocol(theorem1_ensemble(3), QUIET, 100_000, seed=0)
        a = 0.05 / 3.0
        expected = 3.0 * (1.0 - a ** (1.0 / 100_000))
        assert abs(report.epsilon_upper_bound - expected) <= 1e-12
        assert report.epsilon_upper_bound <= 2e-4

    def test_deterministic(self):
        a = run_protocol(theorem1_ensemble(3), NoiseSpec(0.02, 0.01), 500, seed=11)
        b = run_protocol(theorem1_ensemble(3), NoiseSpec(0.02, 0.01), 500, seed=11)
        assert np.array_equal(a.counts, b.counts)
        assert a.epsilon_upper_bound == b.epsilon_upper_bound

    def test_single_copy_conversion_takes_the_root(self):
        report = run_protocol(theorem2_ensemble(3, 2), QUIET, 1_000, seed=0)
        assert report.n_copies == 2
        assert report.assumes_preparation_independence
        assert abs(
            report.epsilon_single_copy_bound - report.epsilon_upper_bound**0.5
        ) <= 1e-15

    @pytest.mark.parametrize("n", [0, -1, 2.7, 2.0, None, True, "2"])
    def test_copy_count_must_be_a_positive_integer(self, n):
        payload = ensemble_to_json(theorem2_ensemble(3, 2))
        payload["params"]["n"] = n
        from_file = ensemble_from_json(json.loads(json.dumps(payload)))
        built = theorem2_ensemble(3, 2)
        replaced = dataclasses.replace(built, params={**built.params, "n": n})
        for ens in (from_file, replaced):
            with pytest.raises(ValueError, match="copy count n must be an integer >= 1"):
                run_protocol(ens, QUIET, 100)

    def test_numpy_integer_copy_count_is_accepted(self):
        built = theorem2_ensemble(3, 2)
        ens = dataclasses.replace(built, params={**built.params, "n": np.int64(2)})
        report = run_protocol(ens, QUIET, 1_000, seed=0)
        assert type(report.n_copies) is int and report.n_copies == 2
        assert report_to_json(report) == report_to_json(run_protocol(built, QUIET, 1_000, seed=0))

    def test_one_copy_reports_bound_unchanged(self):
        report = run_protocol(theorem1_ensemble(3), QUIET, 1_000, seed=0)
        assert report.n_copies == 1
        assert not report.assumes_preparation_independence
        assert report.epsilon_single_copy_bound == report.epsilon_upper_bound

    def test_one_clopper_pearson_call_per_preparation(self, monkeypatch):
        # perfbench times the bound where run_protocol looks it up
        calls = []
        real = experiment._clopper_pearson_upper
        monkeypatch.setattr(
            experiment, "_clopper_pearson_upper", lambda *a: calls.append(a) or real(*a)
        )
        run_protocol(theorem1_ensemble(8), QUIET, 100, seed=0)
        assert len(calls) == 8

    def test_json_round_shape(self):
        report = run_protocol(theorem1_ensemble(2), QUIET, 50, seed=3)
        obj = report_to_json(report)
        assert obj["ensemble_kind"] == report.ensemble_kind
        assert obj["counts"] == [[int(c) for c in row] for row in report.counts]
        assert set(obj) >= {
            "epsilon_exp_hat",
            "epsilon_upper_bound",
            "confidence",
            "n_copies",
            "seed",
        }


# every d up to 40, the most outcomes one block of effects validates at once,
# and d = 100 past it, with every n at which the dense powers fit 10**4 amplitudes
SPAN_DIMS = [*range(3, 41), 100]
NOISE_GRID = [NoiseSpec(p, q) for p in (0.0, 0.01, 1.0) for q in (0.0, 0.05, 1.0)]


class TestTheorem2SpanCoordinates:
    """theorem2_span_ensemble, checked against the dense theorem2_ensemble it
    stands for."""

    @pytest.mark.parametrize("d", SPAN_DIMS)
    def test_noisy_rows_equal_the_dense_rows(self, d):
        for n in itertools.takewhile(lambda n: d**n <= 10**4, itertools.count(1)):
            pair = theorem2_ensemble(d, n), theorem2_span_ensemble(d, n)
            tables = [outcome_table(e.states, e.measurement) for e in pair]
            for noise in NOISE_GRID:
                dense, span = (_noisy_rows(t, e.measurement, noise) for t, e in zip(tables, pair))
                assert np.abs(dense - span).max() <= 1e-14, (n, noise)
            # the depolarized share of each outcome is 1/d on both sides
            traces = effect_traces(pair[0].measurement) / d**n
            assert np.abs(traces * d - 1.0).max() <= 1e-14, n

    @pytest.mark.parametrize("d, n", [(3, 1), (3, 7), (4, 3), (10, 2)])
    def test_is_the_theorem1_ensemble_under_the_dense_params(self, d, n):
        span, dense = theorem2_span_ensemble(d, n), theorem2_ensemble(d, n)
        thm1 = theorem1_ensemble(d)
        assert span.kind == dense.kind == "theorem2"
        assert span.params == {**dense.params, "n_copy_delta_star": dense.delta_star}
        for s, t in zip(span.states + (span.center,), thm1.states + (thm1.center,), strict=True):
            assert np.array_equal(s.amplitudes, t.amplitudes)
        assert np.array_equal(span.measurement.vectors, thm1.measurement.vectors)
        assert span.delta_star == thm1.delta_star

    def test_runs_the_protocol_at_a_million_copies(self):
        report = run_protocol(theorem2_span_ensemble(4, 10**6), QUIET, 1_000, seed=0)
        assert report.n_copies == 10**6 and report.assumes_preparation_independence
        assert report.epsilon_exp_hat == 0.0
        assert report.epsilon_single_copy_bound == report.epsilon_upper_bound ** 1e-6


class TestSweep:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(lambda d, n: theorem1_ensemble(d), [], QUIET, 100)

    def test_one_row_per_grid_point_with_stepped_seeds(self):
        grid = [(2, 1), (3, 1), (4, 1)]
        rows = sweep(lambda d, n: theorem1_ensemble(d), grid, QUIET, 200, seed=10)
        assert len(rows) == 3
        assert [r["seed"] for r in rows] == [10, 11, 12]
        assert [r["dim"] for r in rows] == [2, 3, 4]
        assert all(r["eps_hat"] == 0.0 for r in rows)

    def test_hat_grows_with_depolarizing_noise(self):
        def factory(d, n):
            return theorem1_ensemble(d)

        hats = []
        for p in (0.0, 0.01, 0.05):
            rows = sweep(factory, [(3, 1)], NoiseSpec(p, 0.0), 100_000, seed=1)
            hats.append(rows[0]["eps_hat"])
        assert hats[0] < hats[1] < hats[2]

    def test_csv_header_and_layout(self):
        rows = sweep(lambda d, n: theorem1_ensemble(d), [(2, 1)], QUIET, 100, seed=0)
        text = sweep_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == "family,dim,copies,noise_p,noise_q,shots,eps_hat,eps_upper,confidence,seed"
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "2"
