import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import psigauge
from psigauge.cli import (
    COMMANDS,
    FLAG_RULES,
    MODEL_CHECKS,
    UsageError,
    _int_list,
    _render_json,
    build_parser,
    check_flags,
    main,
)
from psigauge.ensembles import (
    ensemble_to_json,
    gamma_coefficient,
    theorem1_ensemble,
    theorem2_ensemble,
)
from psigauge.ontic import DiscreteOnticModel, ks_qubit_model, model_from_parametric, model_to_json
from psigauge.qcore import StateVector, state_to_json

from conftest import four_outcome_measurements, random_discrete_model


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 0, err
    return json.loads(out)


def run_process(argv, **env):
    """The CLI in a fresh interpreter, so a traceback or a message printed
    by LAPACK itself would show up in the captured streams."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(psigauge.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "psigauge.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, **env},
    )
    return proc.returncode, proc.stdout, proc.stderr


def model_file(tmp_path, name, edit):
    discrete = model_from_parametric(
        ks_qubit_model(200), {"q0": StateVector.basis(2, 0), "q1": StateVector.basis(2, 1)}
    )
    obj = model_to_json(discrete)
    edit(obj)
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def bad_model_file(tmp_path):
    model = ks_qubit_model(200)
    from psigauge.ontic import model_from_parametric
    from psigauge.qcore import StateVector

    discrete = model_from_parametric(
        model, {"q0": StateVector.basis(2, 0), "q1": StateVector.basis(2, 1)}
    )
    obj = model_to_json(discrete)
    obj["preparations"]["q0"][0] += 0.1  # break normalization
    path = tmp_path / "bad_model.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        rc, out, _ = run(capsys, ["scaling", "--delta", "0.1"])
        assert rc == 0
        assert out

    def test_flag_contract_is_one(self, capsys):
        rc, _, err = run(capsys, ["thm1", "--dim", "1", "--shots", "10"])
        assert rc == 1
        assert "error" in err

    def test_missing_file_is_one(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, ["model", "--file", str(tmp_path / "nope.json"), "--check", "validate"]
        )
        assert rc == 1

    def test_numerical_contract_violation_is_two(self, capsys, bad_model_file):
        rc, _, err = run(
            capsys, ["model", "--file", bad_model_file, "--check", "classify"]
        )
        assert rc == 2
        assert "contract violation" in err

    def test_validate_reports_broken_file_instead_of_failing(
        self, capsys, bad_model_file
    ):
        obj = run_json(
            capsys, ["model", "--file", bad_model_file, "--check", "validate"]
        )
        check = obj["results"]["checks"][0]
        assert check["passed"] is False
        assert "sum" in check["diagnostic"]

    def test_unparseable_flags_exit_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["thm1", "--dim", "three"])
        assert info.value.code == 1

    @pytest.mark.parametrize(
        "argv", [["thm1", "--shots", "0"], ["sweep", "--shots", "0"]]
    )
    def test_zero_shots_exits_one(self, capsys, argv):
        rc, out, err = run(capsys, argv)
        assert rc == 1
        assert "error" in err
        assert out == ""

    def test_negative_seed_exits_one(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["thm1", "--seed", "-1"])
        assert info.value.code == 1
        assert "non-negative" in capsys.readouterr().err

    def test_bad_seed_variable_exits_one_without_traceback(self):
        rc, out, err = run_process(["thm1", "--shots", "10"], PSI_GAUGE_SEED="abc")
        assert rc == 1
        assert "PSI_GAUGE_SEED" in err
        assert "Traceback" not in err
        assert out == ""


class TestEnvelope:
    def test_thm1_envelope_and_closed_form(self, capsys):
        obj = run_json(capsys, ["thm1", "--dim", "3", "--shots", "1000", "--seed", "0"])
        assert set(obj) == {"tool", "version", "command", "config", "results"}
        assert obj["tool"] == "psigauge"
        assert obj["command"] == "thm1"
        assert obj["config"]["dim"] == 3
        assert obj["config"]["shots"] == 1000
        res = obj["results"]
        assert abs(res["delta_star"] - (1.0 - np.sqrt(2.0 / 3.0))) <= 1e-15
        assert res["epsilon_exp_hat"] == 0.0

    def test_byte_identical_repeat_runs(self, capsys):
        argv = ["thm2", "--dim", "3", "--copies", "2", "--shots", "500", "--seed", "4"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_seed_env_variable_sets_default(self, capsys, monkeypatch):
        monkeypatch.setenv("PSI_GAUGE_SEED", "77")
        obj = run_json(capsys, ["thm1", "--dim", "2", "--shots", "100"])
        assert obj["config"]["seed"] == 77
        monkeypatch.delenv("PSI_GAUGE_SEED")
        obj = run_json(capsys, ["thm1", "--dim", "2", "--shots", "100"])
        assert obj["config"]["seed"] == 0

    def test_payload_is_strict_json(self):
        args = argparse.Namespace(command="scaling", delta=0.1)
        with pytest.raises(ValueError):
            _render_json(args, {"value": float("nan")})

    def test_out_writes_the_stdout_payload(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        argv = ["scaling", "--delta", "0.2", "--seed", "0"]
        rc, _, _ = run(capsys, argv + ["--out", str(path)])
        assert rc == 0
        rc, out, _ = run(capsys, argv)
        assert path.read_text() == out


# what a report may hold at its leaves: ints past 2**63, -0.0, the least
# subnormal, bools (ints that render as true/false) and strings with a quote,
# a backslash, a NUL, non-ASCII characters and the separators ", " and "], ["
NUMBERS = (0, 1, -7, 2**63, -(2**64) - 3, 10**40, 0.0, -0.0, 5e-324, 1e300, -1e300, 0.1, 1 / 3)
LEAVES = (*NUMBERS, True, False, None, "", "a, b", 'say "hi"', "back\\slash", "nul\x00",
          "\u00fcber \u2713 \U0001f600", "], [", "tab\tnew\nline")


def _random_report(rng: random.Random, depth: int = 0):
    """A random JSON value: nested dicts and lists, empty ones, lists of
    numbers (bools mixed in or not) and lists of lists of ints like the counts."""
    kind = rng.randrange(7) if depth < 4 else 0
    size = rng.randrange(5)
    if kind == 0:
        return rng.choice(LEAVES)
    if kind == 1:
        return [rng.choice(NUMBERS) if rng.random() < 0.8 else rng.uniform(-1e3, 1e3)
                for _ in range(size)]
    if kind == 2:
        return [[rng.randrange(-(2**70), 2**70) for _ in range(rng.randrange(4))]
                for _ in range(size)]
    if kind == 3:
        return [rng.choice(LEAVES) for _ in range(size)]
    if kind == 4:
        return tuple(_random_report(rng, depth + 1) for _ in range(size))
    keys = [rng.choice(LEAVES[-8:]) + str(rng.randrange(3)) for _ in range(size)]
    if kind == 5:
        keys = [rng.randrange(-5, 5) for _ in range(size)]  # json writes them as strings
    return {key: _random_report(rng, depth + 1) for key in keys}


class TestRenderer:
    """_render_json is json.dumps(indent=2, sort_keys=True, allow_nan=False)."""

    ARGS = argparse.Namespace(command="scaling", delta=0.1)

    def expected(self, results) -> str:
        envelope = {"tool": "psigauge", "version": psigauge.__version__, "command": "scaling",
                    "config": vars(self.ARGS), "results": results}
        return json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def test_ten_thousand_random_reports_render_byte_equal(self):
        rng = random.Random(20121105)
        for _ in range(10_000):
            results = _random_report(rng)
            assert _render_json(self.ARGS, results) == self.expected(results), results

    @pytest.mark.parametrize("results", [
        {}, [], [[]], [[], [1]], {"a": {}, "b": []}, [[1, 2], [3, 4]], [[1.5, -0.0], [2**64]],
        [1, True, 2.5], [False], [[1, True]], [[0, 1], [2, None]], [5e-324, 1e300, -0.0],
        {"k, \"\\\x00\u00e9": "v, \"\\\x00\u00e9"}, ["], [", "x, y"], {2: 1, -1: 2, 10: 3},
        (1, 2), [(1, 2), (3,)], 2**63, -0.0,
    ], ids=repr)
    def test_edge_cases_render_byte_equal(self, results):
        assert _render_json(self.ARGS, results) == self.expected(results)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("place", [
        lambda x: x, lambda x: [1, x], lambda x: [[0, 1], [2, x]], lambda x: {"a": [{"b": x}]},
        lambda x: [True, x], lambda x: {x: 1},
    ], ids=["scalar", "numbers", "counts", "nested", "mixed", "key"])
    def test_a_nan_or_an_infinity_raises_value_error(self, bad, place):
        with pytest.raises(ValueError):
            self.expected(place(bad))
        with pytest.raises(ValueError):
            _render_json(self.ARGS, place(bad))


class TestFamilies:
    def test_thm2_reports_asymptotic_ratio(self, capsys):
        obj = run_json(
            capsys, ["thm2", "--dim", "3", "--copies", "2", "--shots", "100", "--seed", "0"]
        )
        res = obj["results"]
        assert res["n_copies"] == 2
        assert res["assumes_preparation_independence"] is True
        assert 0.5 < res["n_delta_over_gamma"] < 1.0
        assert res["delta_nd"] < res["delta_star"]

    def test_hat_sums_the_paired_counts_past_int64(self, capsys):
        # with q = 1 the two paired counts add up to about the shot count, which
        # an int64 sum of them wraps to a negative number
        shots = 2**63 - 1
        argv = ["thm1", "--dim", "2", "--noise-q", "1", "--shots", str(shots), "--seed", "0"]
        results = run_json(capsys, argv)["results"]
        paired = results["counts"][0][0] + results["counts"][1][1]
        assert paired > shots
        assert results["epsilon_exp_hat"] == pytest.approx(paired / shots, rel=1e-15)

    def test_thm2_reaches_its_asymptote_at_a_thousand_copies(self, capsys):
        # c03's tolerance: n delta_nd / gamma_d within 1% of 1
        obj = run_json(capsys, ["thm2", "--dim", "3", "--copies", "1000", "--shots", "1000"])
        res = obj["results"]
        assert res["n_copies"] == res["copies"] == 1000
        assert abs(res["n_delta_over_gamma"] - 1.0) <= 0.01
        assert res["epsilon_exp_hat"] == 0.0

    @pytest.mark.parametrize("d, n", [(3, 1), (4, 3), (10, 2)])
    def test_thm2_reports_the_radii_of_the_dense_family(self, capsys, d, n):
        argv = ["thm2", "--dim", str(d), "--copies", str(n), "--shots", "100"]
        res = run_json(capsys, argv)["results"]
        dense = theorem2_ensemble(d, n)
        assert res["delta_star"] == dense.delta_star
        assert res["delta_nd"] == dense.params["delta_nd"]
        assert res["gamma_d"] == gamma_coefficient(d)

    def test_thm4_exclusion_is_exact(self, capsys):
        obj = run_json(capsys, ["thm4", "--dim", "3", "--t", "0.5"])
        res = obj["results"]
        assert res["exclusion_value"] == 0.0
        assert res["zero_amplitude_max"] <= 1e-15
        assert all(abs(o - 0.5) <= 1e-12 for o in res["center_overlaps"])

    def test_thm4_default_t_is_the_maximum(self, capsys):
        obj = run_json(capsys, ["thm4", "--dim", "4"])
        assert abs(obj["results"]["t"] - np.sqrt(3.0 / 4.0)) <= 1e-12

    def test_scaling_large_delta_degenerates_to_a_qubit(self, capsys):
        obj = run_json(capsys, ["scaling", "--delta", "0.5"])
        assert obj["results"]["thm1_dim"] == 2

    @pytest.mark.parametrize("argv, digest", [
        (["thm1", "--dim", "8", "--seed", "0"],
         "3d719386088e8e46d647c333c79fc42d90b0d65191036f90973e0b04552e78ae"),
        (["thm2", "--dim", "3", "--copies", "2", "--noise-p", "0.01", "--seed", "0"],
         "21883e8afcbf99648d9a144f5dbf8b76fbe6ee107a4aa1030157e8363929ba87"),
    ], ids=["thm1-d8", "thm2-d3-n2"])
    def test_protocol_stdout_pinned_at_seed_zero(self, capsys, argv, digest):
        # the protocol's output, exactly as recorded: a refactor must keep every byte
        rc, out, err = run(capsys, argv)
        assert rc == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv", [
        ["--noise-p", "0.3", "--shots", "9223372036854775807"],
        ["--noise-q", "1", "--shots", "9223372036854775807"],
        ["--noise-q", "1", "--shots", "1000000000000", "--confidence", "1e-9"],
    ], ids=["nan-limit", "limit-below-count", "tiny-confidence"])
    def test_bound_is_finite_and_above_the_estimate_at_large_shot_counts(self, capsys, argv):
        # betaincinv returned NaN here (exit 2), or a limit below its own count/shots
        res = run_json(capsys, ["thm1", "--dim", "2", *argv, "--seed", "0"])["results"]
        assert math.isfinite(res["epsilon_upper_bound"])
        assert res["epsilon_upper_bound"] >= res["epsilon_exp_hat"]


class TestModelChecks:
    def test_ks_reproduces_born_statistics(self, capsys):
        obj = run_json(
            capsys, ["model", "--builtin", "ks", "--check", "reproduce", "--seed", "0"]
        )
        check = obj["results"]["checks"][0]
        assert check["pairs"] == 100
        assert check["max_error"] <= 0.01

    def test_continuity_bracket_around_plus(self, capsys):
        base = ["model", "--builtin", "ks", "--check", "continuity", "--seed", "0"]
        near = run_json(capsys, base + ["--delta", "0.25"])
        far = run_json(capsys, base + ["--delta", "0.35"])
        assert near["results"]["checks"][0]["verdict"] == "continuous-at-delta"
        assert near["results"]["checks"][0]["common_support_size"] > 0
        assert far["results"]["checks"][0]["verdict"] == "no-witness-found"

    @pytest.mark.parametrize("delta, row, digest", [
        ("0.25", dict(common_support_size=538, empirical_epsilon=0.0009830232065341964,
                      verdict="continuous-at-delta"),
         "d082e308cf8a8a91fb7ebb3885af99c9748d06383802e2614ea36948d52ad4e8"),
        ("0.35", dict(common_support_size=0, empirical_epsilon=0.0, verdict="no-witness-found"),
         "3d1318edcc57420781f37107d07eada9a3438118108dcfbb6fce24ae4a805ccd"),
    ], ids=["delta-0.25", "delta-0.35"])
    def test_continuity_stdout_pinned_at_seed_zero(self, capsys, delta, row, digest):
        # the probe's output, exactly as first recorded: a speed-up must keep every byte
        rc, out, err = run(capsys, ["model", "--builtin", "ks", "--grid", "100000", "--check",
                                    "continuity", "--delta", delta, "--seed", "0"])
        assert rc == 0, err
        check = dict(check="continuity", delta=float(delta), n_samples=200, **row)
        assert json.loads(out)["results"]["checks"] == [check]
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_classify_close_pair_as_epistemic(self, capsys):
        obj = run_json(
            capsys,
            ["model", "--builtin", "ks", "--check", "classify", "--fidelity", "0.9",
             "--seed", "0"],
        )
        check = obj["results"]["checks"][0]
        assert check["verdict"] == "psi-epistemic"
        assert check["overlap"] > 0

    def test_equal_preparations_overlap_exactly_one(self, capsys):
        obj = run_json(
            capsys,
            ["model", "--builtin", "ks", "--check", "classify", "--check", "epsilon",
             "--fidelity", "1", "--grid", "1000", "--seed", "0"],
        )
        classify_check, epsilon_check = obj["results"]["checks"]
        assert classify_check["overlap"] == 1.0
        assert epsilon_check["epsilon"] == 1.0

    def test_nogo_lists_only_measurements_with_one_outcome_per_preparation(
        self, capsys, tmp_path
    ):
        # both preparations put all weight on one ontic state, so epsilon = 1;
        # the 3-outcome "wide" measurement sums to 0 over two outcomes
        model = DiscreteOnticModel(
            1, {"q0": [1.0], "q1": [1.0]}, {"square": [[0.5, 0.5]], "wide": [[0.0, 0.0, 1.0]]}
        )
        path = _write_json(tmp_path / "model.json", model_to_json(model))
        obj = run_json(capsys, ["model", "--file", path, "--check", "nogo"])
        (check,) = obj["results"]["checks"]
        assert check["results"] == [
            {"measurement": "square", "lhs": 1.0, "epsilon": 1.0, "inequality_holds": True}
        ]

    def test_reproduce_requires_a_rule_based_model(self, capsys, bad_model_file):
        rc, _, err = run(
            capsys, ["model", "--file", bad_model_file, "--check", "reproduce"]
        )
        assert rc == 1
        assert "builtin" in err


class TestOrbitCommand:
    def test_right_angle_coverage_in_three_steps(self, capsys):
        obj = run_json(
            capsys, ["orbit", "--theta", "1.5707963267948966", "--steps", "3", "--seed", "0"]
        )
        res = obj["results"]
        assert res["final_coverage"] >= 0.99
        assert len(res["trajectory"]) == 4
        covs = [row["coverage"] for row in res["trajectory"]]
        assert covs == sorted(covs)

    def test_csv_format(self, capsys):
        rc, out, _ = run(
            capsys,
            ["orbit", "--theta", "1.0", "--steps", "1", "--format", "csv", "--seed", "0"],
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("# psigauge ")
        assert lines[1] == "step,cloud_size,coverage"
        assert len(lines) == 4

    @pytest.mark.parametrize("argv, digest", [
        (["orbit", "--theta", "0.5", "--steps", "3", "--grid", "100000", "--seed", "0"],
         "8a260d7722f2f8fcce365cab43b9a33131901646bdf7877bf22a4285c7e8dabb"),
        (["orbit", "--theta", "0.19634954", "--steps", "4", "--format", "csv", "--seed", "0"],
         "0289b0bd2f005690bff39602c20ffc4a393522a2a2cae7cefaf56fb97f7c3cde"),
    ], ids=["json-theta-0.5-grid-100k", "csv-theta-pi/16"])
    def test_stdout_pinned_at_seed_zero(self, capsys, argv, digest):
        # the trajectory's output, exactly as recorded before coverage kept a ledger
        rc, out, err = run(capsys, argv)
        assert rc == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _merge_last_two(effects: list) -> list:
    """Serialized effects with the last two added into one."""
    *kept, a, b = effects
    merged = dict(a, re=np.add(a["re"], b["re"]).tolist(), im=np.add(a["im"], b["im"]).tolist())
    return kept + [merged]


class TestExclusionCommand:
    def test_states_object_file(self, capsys, tmp_path):
        ens = theorem1_ensemble(3)
        path = tmp_path / "states.json"
        path.write_text(json.dumps({"states": [state_to_json(s) for s in ens.states]}))
        obj = run_json(capsys, ["exclusion", "--states", str(path), "--seed", "0"])
        res = obj["results"]
        assert res["best_value"] <= 1e-6
        assert res["state_count"] == 3
        assert res["basis"]["dim"] == 3

    def test_bare_list_file(self, capsys, tmp_path):
        ens = theorem1_ensemble(2)
        path = tmp_path / "bare.json"
        path.write_text(json.dumps([state_to_json(s) for s in ens.states]))
        obj = run_json(capsys, ["exclusion", "--states", str(path), "--seed", "0"])
        assert obj["results"]["best_value"] <= 1e-6

    @pytest.mark.parametrize(
        "shorten, message",
        [
            (lambda effects: effects[:2], "invalid POVM"),
            (_merge_last_two, "2 outcomes for 3 states"),
        ],
        ids=["truncated", "merged"],
    )
    def test_short_measurement_in_ensemble_file_exits_two(self, tmp_path, shorten, message):
        # truncated, the measurement is incomplete and refused when it is made;
        # merged, it is complete and refused for its outcome count
        obj = ensemble_to_json(theorem1_ensemble(3))
        obj["measurement"] = shorten(obj["measurement"])
        path = tmp_path / "short.json"
        path.write_text(json.dumps(obj))
        rc, out, err = run_process(["exclusion", "--states", str(path)])
        assert rc == 2
        assert message in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("name", sorted(four_outcome_measurements()))
    def test_extra_outcome_in_ensemble_file_exits_two(self, tmp_path, name):
        obj = ensemble_to_json(theorem1_ensemble(3))
        obj["measurement"] = four_outcome_measurements()[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        rc, out, err = run_process(["exclusion", "--states", str(path)])
        assert rc == 2
        assert "4 outcomes for 3 states" in err
        assert "Traceback" not in err
        assert out == ""

    def test_rolled_measurement_in_ensemble_file_exits_two(self, tmp_path):
        # still a POVM, but outcome k now fires on state k half the time
        obj = ensemble_to_json(theorem1_ensemble(3))
        obj["measurement"] = obj["measurement"][-1:] + obj["measurement"][:-1]
        path = tmp_path / "rolled.json"
        path.write_text(json.dumps(obj))
        rc, out, err = run_process(["exclusion", "--states", str(path)])
        assert rc == 2
        assert "exclusion sum 1.500e+00 exceeds 1e-9" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("flags", [("--restarts", "0"), ("--max-iters", "0")])
    def test_search_budget_out_of_range_exits_one(self, capsys, tmp_path, flags):
        path = tmp_path / "states.json"
        path.write_text(json.dumps([state_to_json(s) for s in theorem1_ensemble(2).states]))
        rc, out, err = run(capsys, ["exclusion", "--states", str(path), *flags])
        assert rc == 1
        assert flags[0] in err
        assert out == ""

    def test_center_of_another_dimension_exits_two(self, capsys, tmp_path):
        obj = ensemble_to_json(theorem1_ensemble(3))
        obj["center"] = state_to_json(StateVector.uniform(4))
        path = tmp_path / "center.json"
        path.write_text(json.dumps(obj))
        rc, out, err = run(capsys, ["exclusion", "--states", str(path)])
        assert rc == 2
        assert err == "psigauge exclusion: contract violation: dimension mismatch: 3 vs 4\n"
        assert out == ""

    def test_wrong_payload_shape_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"not_states": 1}))
        rc, _, err = run(capsys, ["exclusion", "--states", str(path)])
        assert rc == 1
        assert "expected" in err


class TestSweepCommand:
    def test_csv_layout(self, capsys):
        rc, out, _ = run(
            capsys,
            ["sweep", "--family", "thm1", "--dims", "2,3", "--shots", "200", "--seed", "0"],
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("# psigauge ")
        assert json.loads(lines[0].split("sweep ", 1)[1])["dims"] == [2, 3]
        assert (
            lines[1]
            == "family,dim,copies,noise_p,noise_q,shots,eps_hat,eps_upper,confidence,seed"
        )
        assert len(lines) == 4

    def test_json_format_rows(self, capsys):
        obj = run_json(
            capsys,
            ["sweep", "--family", "thm2", "--dims", "3", "--copies", "1,2",
             "--shots", "100", "--format", "json", "--seed", "0"],
        )
        rows = obj["results"]["rows"]
        assert [r["copies"] for r in rows] == [1, 2]
        assert [r["seed"] for r in rows] == [0, 1]

    def test_thm2_dimension_floor(self, capsys):
        rc, _, err = run(capsys, ["sweep", "--family", "thm2", "--dims", "2,3"])
        assert rc == 1


class TestNonFiniteInput:
    def test_nan_amplitude_in_ensemble_file_exits_two(self, tmp_path):
        obj = ensemble_to_json(theorem1_ensemble(3))
        obj["states"][0]["re"][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(obj))
        rc, out, err = run_process(["exclusion", "--states", str(path)])
        assert rc == 2
        assert "non-finite" in err
        assert "DLASCL" not in out + err
        assert "Traceback" not in err

    def test_nan_weight_in_model_file_fails_validation(self, capsys, tmp_path):
        def poison(obj):
            obj["preparations"]["q0"][0] = float("nan")

        path = model_file(tmp_path, "nan_model.json", poison)
        obj = run_json(capsys, ["model", "--file", path, "--check", "validate"])
        check = obj["results"]["checks"][0]
        assert check["passed"] is False
        assert "non-finite" in check["diagnostic"]
        rc, out, err = run(capsys, ["model", "--file", path, "--check", "epsilon"])
        assert rc == 2
        assert out == ""


class TestFlagRanges:
    @pytest.mark.parametrize(
        "argv",
        [
            ["thm1", "--confidence", "1.0"],
            ["thm2", "--confidence", "1.0"],
            ["sweep", "--confidence", "1.0"],
            ["thm1", "--noise-p", "1.5"],
            ["thm1", "--noise-q", "1.5"],
            ["sweep", "--noise-p", "-0.1"],
        ],
    )
    def test_protocol_flag_out_of_range_exits_one(self, capsys, argv):
        rc, out, err = run(capsys, argv + ["--shots", "10"])
        assert rc == 1
        assert argv[1] in err
        assert out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--grid", "50"],
            ["--rotations", "3"],
            ["--dedup-tol", "0"],
            ["--dedup-tol", "-0.1"],
            ["--dedup-tol", "1e-7"],
            ["--tol", "nan"],
            ["--tol", "-1"],
        ],
    )
    def test_orbit_flag_out_of_range_exits_one(self, capsys, flags):
        rc, out, err = run(capsys, ["orbit", "--theta", "1.0", "--steps", "1", *flags])
        assert rc == 1
        assert flags[0] in err
        assert out == ""


class TestOrbitTrajectory:
    def test_rows_equal_steps_to_cover(self, capsys):
        from psigauge.orbit import steps_to_cover

        traj = steps_to_cover(np.pi / 8, 0.99, 0.05, seed=2)
        argv = ["orbit", "--theta", repr(np.pi / 8), "--steps", str(traj.steps), "--seed", "2"]
        rows = run_json(capsys, argv)["results"]["trajectory"]
        assert tuple((r["step"], r["cloud_size"], r["coverage"]) for r in rows) == traj.trajectory

    def test_each_step_goes_through_the_cli_bindings(self, capsys, monkeypatch):
        import psigauge.cli as cli

        calls = []
        for name in ("orbit_step", "coverage"):
            original = getattr(cli, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        run_json(capsys, ["orbit", "--theta", "1.0", "--steps", "2", "--grid", "500"])
        assert calls.count("orbit_step") == 2
        assert calls.count("coverage") == 3


class TestMalformedEnsembleFile:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("states", [], "nonempty list"),
            ("params", 5, "params must be an object"),
            ("kind", ["x"], "kind must be a string"),
        ],
    )
    def test_exits_two_without_traceback(self, tmp_path, field, value, message):
        obj = ensemble_to_json(theorem1_ensemble(3))
        obj[field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(obj))
        rc, out, err = run_process(["exclusion", "--states", str(path)])
        assert rc == 2
        assert message in err
        assert "Traceback" not in err
        assert out == ""


class TestMalformedStateFile:
    @pytest.mark.parametrize(
        "payload",
        [
            {"states": 5},
            [5],
            {"states": [5]},
            [{"dim": 2.5, "re": [1, 0], "im": [0, 0]}],
            [{"dim": "2", "re": [1, 0], "im": [0, 0]}],
            [{"dim": 2, "re": ["1", "0"], "im": [0, 0]}],
            [{"dim": 2, "re": [True, False], "im": [0, 0]}],
        ],
        ids=[
            "states-not-a-list",
            "list-of-numbers",
            "states-of-numbers",
            "fractional-dim",
            "string-dim",
            "string-amplitudes",
            "bool-amplitudes",
        ],
    )
    def test_exits_two_without_traceback(self, tmp_path, payload):
        path = tmp_path / "states.json"
        path.write_text(json.dumps(payload))
        rc, out, err = run_process(["exclusion", "--states", str(path)])
        assert rc == 2, err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert out == ""

    def test_a_long_list_where_dim_belongs_gets_a_short_message(self, capsys, tmp_path):
        path = tmp_path / "states.json"
        path.write_text(json.dumps([{"dim": [0] * 10_000, "re": [1], "im": [0]}]))
        rc, out, err = run(capsys, ["exclusion", "--states", str(path)])
        assert rc == 2 and out == ""
        message = err.split("contract violation: ", 1)[1]
        assert message.startswith("state JSON: dim must be an integer >= 1, got [0, 0")
        assert len(message) < 120


class TestModelFlagRanges:
    KS = ["model", "--builtin", "ks", "--grid", "1000"]

    def test_fidelity_out_of_range_exits_one_before_any_arithmetic(self):
        rc, out, err = run_process(self.KS + ["--check", "classify", "--fidelity", "1.5"])
        assert rc == 1, err
        assert "--fidelity" in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ("--check", "classify", "--fidelity", "-0.1"),
            ("--check", "reproduce", "--pairs", "-3"),
            ("--check", "reproduce", "--pairs", "0"),
            ("--check", "continuity", "--samples", "-2"),
            ("--check", "continuity", "--samples", "0"),
            ("--check", "continuity", "--delta", "1.5"),
            ("--check", "continuity", "--delta", "0"),
        ],
    )
    def test_out_of_range_exits_one(self, capsys, flags):
        rc, out, err = run(capsys, self.KS + list(flags))
        assert rc == 1, err
        assert flags[2] in err
        assert out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ("--check", "classify", "--fidelity", "0"),
            ("--check", "classify", "--fidelity", "1"),
            ("--check", "reproduce", "--pairs", "1"),
            ("--check", "continuity", "--samples", "1"),
            ("--check", "continuity", "--delta", "1"),
        ],
    )
    def test_range_ends_are_accepted(self, capsys, flags):
        rc, _, err = run(capsys, self.KS + list(flags))
        assert rc == 0, err


class TestStartup:
    def test_cli_starts_without_scipy(self):
        code = (
            "import contextlib, io, sys\n"
            "from psigauge.cli import build_parser, main\n"
            "build_parser()\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = main(['thm1', '--dim', '8', '--seed', '1'])\n"
            "print(rc, 'scipy.stats' in sys.modules)\n"
        )
        assert self._fresh_run(code) == ["[]", "0 False"]

    def test_exclusion_loads_no_scipy(self, tmp_path):
        path = tmp_path / "states.json"
        path.write_text(json.dumps([state_to_json(s) for s in theorem1_ensemble(3).states]))
        code = (
            "import contextlib, io, sys\n"
            "from psigauge.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = main(['exclusion', '--states', {str(path)!r}, '--restarts', '2'])\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert self._fresh_run(code) == ["0 []"]

    @staticmethod
    def _fresh_run(code: str) -> list:
        # a fresh interpreter: this test process has long since loaded scipy
        src = os.path.dirname(os.path.dirname(os.path.abspath(psigauge.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()


def parsed(argv):
    return build_parser().parse_args(argv)


def first_broken_row(args):
    """Index of the first FLAG_RULES row that args break, or None."""
    for index, (commands, _, _, ok, _) in enumerate(FLAG_RULES):
        if ok is not None and args.command in commands and not ok(args):
            return index
    return None


PI = repr(math.pi)
ULP_ABOVE_PI = repr(math.nextafter(math.pi, 4.0))
KS = ["model", "--builtin", "ks"]
FILE = ["model", "--file", "model.json"]
ORBIT = ["orbit", "--theta", "1.0"]
THM2_SWEEP = ["sweep", "--family", "thm2"]

# (argv, the flag its first broken row names); nothing here is ever run
OUT_OF_RANGE = [
    (["thm1", "--shots", "0"], "--shots"),
    (["thm2", "--shots", str(2**63)], "--shots"),
    (["sweep", "--shots", "99999999999999999999"], "--shots"),
    (["thm1", "--confidence", "1"], "--confidence"),
    (["sweep", "--confidence", "0"], "--confidence"),
    (["thm1", "--noise-p", "nan"], "--noise-p"),
    (["thm2", "--noise-q", "-0.1"], "--noise-q"),
    (["thm1", "--dim", "1001"], "--dim"),
    (["thm4", "--dim", "1"], "--dim"),
    (["thm2", "--dim", "2"], "--dim"),
    (["thm2", "--copies", "0"], "--copies"),
    (["thm2", "--copies", "1000001"], "--copies"),
    (["thm2", "--dim", "1000", "--copies", "99999999999999999999"], "--copies"),
    (["thm4", "--dim", "3", "--t", "0.8165"], "--t"),
    (["thm4", "--t", "0"], "--t"),
    (["thm4", "--t", "inf"], "--t"),
    (["thm4", "--dim", "2", "--t", "0.5"], "--t"),
    (FILE + ["--check", "continuity"], "--check"),
    (KS + ["--check", "nogo"], "--check"),
    (FILE + ["--grid", "50"], "--grid"),
    (KS + ["--grid", "1000001"], "--grid"),
    (KS + ["--pairs", "0"], "--pairs"),
    (KS + ["--fidelity", "1.0000000000000002"], "--fidelity"),
    (KS + ["--delta", "0"], "--delta"),
    (KS + ["--samples", "1000001"], "--samples"),
    (["orbit", "--theta", ULP_ABOVE_PI], "--theta"),
    (ORBIT + ["--steps", "-1"], "--steps"),
    (ORBIT + ["--steps", str(sys.maxsize)], "--steps"),
    (ORBIT + ["--grid", "99"], "--grid"),
    (ORBIT + ["--grid", "1000001"], "--grid"),
    (ORBIT + ["--tol=-inf"], "--tol"),
    (ORBIT + ["--rotations", "1000001"], "--rotations"),
    (ORBIT + ["--dedup-tol", "1.9999999999999995e-06"], "--dedup-tol"),
    (["orbit", "--theta", "0.02", "--dedup-tol", "0.02"], "--theta"),
    (["scaling", "--delta", "9.999999999999999e-09"], "--delta"),
    (["scaling", "--delta", "1"], "--delta"),
    (["exclusion", "--states", "s.json", "--restarts", "0"], "--restarts"),
    (["exclusion", "--states", "s.json", "--max-iters", "-1"], "--max-iters"),
    (["sweep", "--dims", ""], "--dims"),
    (["sweep", "--dims", "1,2"], "--dims"),
    (THM2_SWEEP + ["--dims", "2,3"], "--dims"),
    (["sweep", "--dims", "3,1001"], "--dims"),
    (["sweep", "--copies", ","], "--copies"),
    (["sweep", "--family", "thm1", "--copies", "0"], "--copies"),
    (THM2_SWEEP + ["--dims", "3", "--copies", "0,1"], "--copies"),
    (THM2_SWEEP + ["--dims", "3", "--copies", "1,1000001"], "--copies"),
    (THM2_SWEEP + ["--dims", "1000", "--copies", "1000001"], "--copies"),
    (["thm2", "--dim", "1001"], "--dim"),
    (["thm2", "--dim", "1000", "--copies", "1000001"], "--copies"),
    (KS + ["--pairs", "1000001"], "--pairs"),
    (["exclusion", "--states", "s.json", "--restarts", "1000001"], "--restarts"),
    (["exclusion", "--states", "s.json", "--max-iters", "1000001"], "--max-iters"),
    (["sweep", "--family", "thm1", "--copies", "1,2"], "--copies"),
]

# range ends the table must accept; parsed and checked only, never run
AT_THE_BOUNDS = [
    ["thm1", "--shots", str(2**63 - 1), "--dim", "1000"],
    ["thm1", "--shots", "1", "--confidence", "5e-324", "--noise-p", "1", "--noise-q", "0"],
    ["thm2", "--dim", "3", "--copies", "12"],
    ["thm2", "--dim", "1000", "--copies", "1"],
    ["thm2", "--dim", "10", "--copies", "6"],
    ["thm2", "--dim", "1000", "--copies", "1000000"],
    ["thm4", "--dim", "1000"],
    ["thm4", "--dim", "3", "--t", repr(math.sqrt(2.0 / 3.0))],
    ["thm4", "--dim", "2", "--t", repr(math.sqrt(0.5))],
    ["thm4", "--dim", "3", "--t", "5e-324"],
    KS + ["--grid", "100", "--pairs", "1", "--fidelity", "0", "--delta", "1", "--samples", "1"],
    KS + ["--grid", "1000000", "--samples", "1000000", "--check", "continuity"],
    FILE + ["--check", "nogo", "--grid", "100"],
    ["orbit", "--theta", repr(math.pi), "--steps", str(sys.maxsize - 1), "--grid", "1000000"],
    ORBIT + ["--steps", "0", "--tol", repr(math.pi), "--rotations", "4"],
    ORBIT + ["--rotations", "1000000", "--dedup-tol", "2e-06"],
    ["orbit", "--theta", PI, "--dedup-tol", repr(math.nextafter(math.pi, 0.0))],
    ["scaling", "--delta", "1e-08"],
    ["scaling", "--delta", "0.9999999999999999"],
    ["exclusion", "--states", "s.json", "--restarts", "1", "--max-iters", "1"],
    ["sweep", "--dims", "2,1000", "--copies", "1"],
    THM2_SWEEP + ["--dims", "3,1000", "--copies", "1"],
    THM2_SWEEP + ["--dims", "3,1000", "--copies", "1,1000000"],
    KS + ["--pairs", "1000000"],
    ["exclusion", "--states", "s.json", "--restarts", "1000000", "--max-iters", "1000000"],
]


class TestFlagTable:
    @pytest.mark.parametrize("argv, flag", OUT_OF_RANGE)
    def test_out_of_range_value_is_rejected_naming_its_flag(self, argv, flag):
        args = parsed(argv)
        with pytest.raises(UsageError) as info:
            check_flags(args)
        assert str(info.value).startswith(flag + " ")
        assert FLAG_RULES[first_broken_row(args)][1] == flag

    @pytest.mark.parametrize("argv", AT_THE_BOUNDS)
    def test_range_ends_pass_the_table(self, argv):
        assert check_flags(parsed(argv)) is None

    def test_every_row_rejects_some_case(self):
        fired = {first_broken_row(parsed(argv)) for argv, _ in OUT_OF_RANGE}
        assert fired == {index for index, row in enumerate(FLAG_RULES) if row[3] is not None}

    @pytest.mark.parametrize(
        "command, flag",
        [
            (command, flag)
            for commands, flag, options, _, _ in FLAG_RULES
            if options and options.get("type") in (int, float, _int_list)
            for command in commands
        ],
    )
    def test_every_number_flag_has_an_upper_bound(self, capsys, command, flag):
        required = {"model": KS[1:], "orbit": ORBIT[1:], "scaling": ["--delta", "0.5"],
                    "exclusion": ["--states", "missing.json"],
                    "sweep": THM2_SWEEP[1:] + ["--dims", "3"]}
        rc, out, err = run(capsys, [command, *required.get(command, ()), flag, str(10**20)])
        assert (rc, out) == (1, ""), err
        assert f"error: {flag} " in err, err

    def test_table_runs_before_the_handler(self, capsys, monkeypatch):
        import psigauge.cli as cli

        calls = []
        monkeypatch.setattr(cli, "cmd_thm1", lambda args: calls.append(args) or "")
        rc, out, err = run(capsys, ["thm1", "--shots", "0"])
        assert (rc, out, calls) == (1, "", [])
        assert "--shots" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (THM2_SWEEP + ["--dims", "3", "--copies", "99999999999999999999"], "--copies"),
            (THM2_SWEEP + ["--dims", "3", "--copies", "0"], "--copies"),
            (["thm1", "--shots", "99999999999999999999"], "--shots"),
            (ORBIT + ["--steps", "99999999999999999999"], "--steps"),
            (["scaling", "--delta", "1e-9"], "--delta"),
            (["scaling", "--delta", "3e-13"], "--delta"),
        ],
    )
    def test_former_contract_breaks_exit_one(self, capsys, argv, flag):
        rc, out, err = run(capsys, argv)
        assert rc == 1, err
        assert out == ""
        assert f"error: {flag} " in err

    def test_scaling_dimension_is_exact_at_a_near_tie(self, capsys):
        obj = run_json(capsys, ["scaling", "--delta", "1.294023331038712e-08"])
        assert obj["results"]["thm1_dim"] == 38639180


class TestFileErrors:
    def test_directory_as_state_file_exits_one(self, tmp_path):
        self._assert_usage_error(["exclusion", "--states", str(tmp_path)])

    def test_directory_as_model_file_exits_one(self, tmp_path):
        self._assert_usage_error(["model", "--file", str(tmp_path)])

    def test_out_into_missing_directory_exits_one(self, tmp_path):
        out = tmp_path / "missing" / "x.json"
        self._assert_usage_error(["scaling", "--delta", "0.1", "--out", str(out)])

    @staticmethod
    def _assert_usage_error(argv):
        rc, out, err = run_process(argv)
        assert rc == 1, err
        assert "Traceback" not in err
        assert "error" in err
        assert out == ""


NON_FINITE = ("nan", "inf", "-inf")
HUGE = str(10**20)
NEG_HUGE = str(-(10**20))
DEFAULT = ()  # leaves a flag at its default


def _flag(flag, good, bad):
    """A slot of argv fragments: values inside the flag's range, and values
    past it. One token each, so that argparse takes "-inf" as a value."""
    return [(f"{flag}={v}",) for v in good], [(f"{flag}={v}",) for v in bad]


def _fuzz_slots(files) -> dict:
    """Per subcommand, the slots to draw from: the table's range ends and one
    step past them, 0, negatives, non-finite values and huge integers. Sizes
    inside a range stay small, so that every case is cheap to run."""
    seed = ([("--seed=0",), ("--seed=7",), DEFAULT], [("--seed=-1",), ("--seed=x",)])
    protocol = [
        _flag("--shots", ("1", "10", "1000"), ("0", "-1", str(2**63), HUGE, *NON_FINITE)),
        _flag("--confidence", ("0.95", "5e-324", "0.9999999999999999"),
              ("0", "1", "-0.5", *NON_FINITE)),
        _flag("--noise-p", ("0", "0.5", "1"), ("-5e-324", "1.0000000000000002", *NON_FINITE)),
        _flag("--noise-q", ("0", "0.25", "1"), ("-1", "1.0000000000000002", *NON_FINITE)),
        seed,
    ]
    dim = _flag("--dim", ("3", "2", "8"), ("1", "0", "-3", "1001", HUGE, NEG_HUGE, "nan"))
    model_sources = (
        [("--builtin", "ks"), ("--file", files["model"])],
        [("--file", files["dir"]), ("--file", files["missing"]), DEFAULT,
         ("--builtin", "ks", "--file", files["model"])],
    )
    model_checks = (
        [("--check", c) for c in MODEL_CHECKS]
        + [DEFAULT, ("--check", "classify", "--check", "epsilon")],
        [("--check", "bogus")],
    )
    return {
        "thm1": [dim, *protocol],
        "thm2": [
            _flag("--dim", ("3", "4", "8"), ("2", "0", "-3", HUGE)),
            _flag("--copies", ("1", "2", "3"), ("0", "-1", "1000001", HUGE)),
            *protocol,
        ],
        "thm4": [
            dim,
            _flag("--t", ("0.5", repr(math.sqrt(0.5)), repr(math.sqrt(2 / 3)), "5e-324"),
                  ("0", "-0.1", "1", *NON_FINITE)),
            seed,
        ],
        "model": [
            model_sources,
            model_checks,
            _flag("--grid", ("100", "1000"), ("99", "0", "-1", "1000001", HUGE, "nan")),
            _flag("--pairs", ("1", "5"), ("0", "-1", "1000001", NEG_HUGE, "inf")),
            _flag("--fidelity", ("0", "0.9", "1"), ("-0.1", "1.0000000000000002", *NON_FINITE)),
            _flag("--delta", ("5e-324", "0.25", "1"), ("0", "1.0000000000000002", *NON_FINITE)),
            _flag("--center", ("plus", "one"), ("bogus",)),
            _flag("--samples", ("1", "5"), ("0", "-2", "1000001", HUGE, "nan")),
            seed,
        ],
        "orbit": [
            _flag("--theta", ("1.0", PI, "5e-324"), (ULP_ABOVE_PI, "0", "-1", *NON_FINITE)),
            _flag("--steps", ("0", "1", "2"), ("-1", str(sys.maxsize), HUGE, "nan")),
            _flag("--grid", ("100", "1000"), ("99", "1000001", HUGE, "-inf")),
            _flag("--tol", ("0.05", PI, "5e-324"), (ULP_ABOVE_PI, "0", *NON_FINITE)),
            _flag("--rotations", ("4", "24"), ("3", "0", "1000001", HUGE)),
            _flag("--dedup-tol", ("0.02", "2e-06", PI),
                  ("1.9999999999999995e-06", ULP_ABOVE_PI, *NON_FINITE)),
            _flag("--format", ("json", "csv"), ("xml",)),
            seed,
        ],
        "scaling": [
            _flag("--delta", ("1e-08", "0.5", "0.9999999999999999"),
                  ("9.999999999999999e-09", "1", "0", "-0.1", "3e-13", *NON_FINITE)),
            seed,
        ],
        "exclusion": [
            _flag("--states", (files["states"],), (files["dir"], files["missing"], files["model"])),
            _flag("--restarts", ("1", "2"), ("0", "-1", "1000001", NEG_HUGE, "nan")),
            _flag("--max-iters", ("1", "50"), ("0", "-1", "1000001", NEG_HUGE, "inf")),
            seed,
        ],
        "sweep": [
            _flag("--family", ("thm2", "thm1"), ("thm3",)),
            _flag("--dims", ("3", "3,4", "8"), ("1", "1,2", "2,3", "3,1001", HUGE, "", ",", "x")),
            _flag("--copies", ("1", "1,3"), ("0", "-1", "1000001", HUGE, "", "x")),
            *protocol,
            _flag("--format", ("csv", "json"), ("tsv",)),
        ],
    }


@st.composite
def _invocations(draw, command, slots):
    """argv with at most two slots drawn past their range."""
    broken = draw(st.sets(st.integers(0, len(slots) - 1), max_size=2))
    argv = [command]
    for index, (good, bad) in enumerate(slots):
        argv += draw(st.sampled_from(bad if index in broken else good))
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    states = root / "states.json"
    states.write_text(json.dumps([state_to_json(s) for s in theorem1_ensemble(3).states]))
    discrete = model_from_parametric(
        ks_qubit_model(200), {"q0": StateVector.basis(2, 0), "q1": StateVector.basis(2, 1)}
    )
    model = root / "model.json"
    model.write_text(json.dumps(model_to_json(discrete)))
    return {"states": str(states), "model": str(model), "dir": str(root),
            "missing": str(root / "missing.json")}


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _contract_exit(argv) -> int:
    """main's exit code on argv, once what it printed is held to the
    contract: main returns 0, 1 or 2 and raises nothing else; a failure
    prints nothing on stdout, and a success strict JSON or the CSV header."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code
    assert rc in (0, 1, 2), (argv, rc)
    text = stdout.getvalue()
    if rc:
        assert text == "", argv
    elif not text.startswith("# psigauge "):
        json.loads(text, parse_constant=_reject_constant)
    return rc


COMMANDS = ["thm1", "thm2", "thm4", "model", "orbit", "scaling", "exclusion", "sweep"]


class TestContractFuzz:
    """Every subcommand, driven with values at and past the table's range ends."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_value_past_a_range_exits_one_on_its_own(self, command, fuzz_files):
        slots = _fuzz_slots(fuzz_files)[command]

        def argv(index=None, fragment=()):
            return [command] + [
                token for i, (good, _) in enumerate(slots)
                for token in (fragment if i == index else good[0])
            ]

        assert _contract_exit(argv()) == 0, argv()
        for index, (_, bad) in enumerate(slots):
            for fragment in bad:
                assert _contract_exit(argv(index, fragment)) == 1, argv(index, fragment)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_exit_code_contract(self, command, fuzz_files):
        codes = []

        @settings(max_examples=30, derandomize=True, deadline=None, database=None)
        @given(_invocations(command, _fuzz_slots(fuzz_files)[command]))
        def check(argv):
            codes.append(_contract_exit(argv))

        check()
        assert {0, 1} <= set(codes), codes  # cases reach the handlers as well as the table


def _write_json(path, obj) -> str:
    """obj as a JSON file; the strings "HUGE" and "-HUGE" become the literals
    1e400 and -1e400, which Python's json module reads as infinite floats."""
    text = json.dumps(obj).replace('"-HUGE"', "-1e400").replace('"HUGE"', "1e400")
    path.write_text(text)
    return str(path)


class TestMalformedModelFile:
    """Fields of the wrong type or past float range, each of which raised a
    Python exception that main did not map to an exit code."""

    EDITS = {
        "preparations-list": lambda obj: obj.update(preparations=[]),
        "responses-number": lambda obj: obj.update(responses=5),
        "preparation-object": lambda obj: obj["preparations"].update(q0={"x": 1}),
        "lambda-count-list": lambda obj: obj.update(lambda_count=[2]),
        "lambda-count-1e400": lambda obj: obj.update(lambda_count="HUGE"),
        "lambda-count-fraction": lambda obj: obj.update(lambda_count=obj["lambda_count"] + 0.7),
        "preparation-bools": lambda obj: obj["preparations"].update(
            q0=[True] + [False] * (obj["lambda_count"] - 1)
        ),
    }

    @pytest.fixture(params=sorted(EDITS))
    def path(self, request, tmp_path):
        obj = model_to_json(random_discrete_model(3))
        self.EDITS[request.param](obj)
        return _write_json(tmp_path / "model.json", obj)

    def test_validate_reports_the_diagnostic(self, path):
        rc, out, err = run_process(["model", "--file", path, "--check", "validate"])
        assert rc == 0, err
        check = json.loads(out)["results"]["checks"][0]
        assert check["passed"] is False
        assert "model" in check["diagnostic"] and "JSON" in check["diagnostic"]
        assert err == ""

    def test_other_checks_exit_two_without_traceback(self, path):
        rc, out, err = run_process(["model", "--file", path, "--check", "epsilon"])
        assert rc == 2, err
        assert "contract violation" in err
        assert "Traceback" not in err
        assert out == ""


class TestOverflowingStateDim:
    def test_exits_two_without_traceback(self, tmp_path):
        obj = state_to_json(StateVector.basis(2, 0))
        path = _write_json(tmp_path / "states.json", [dict(obj, dim="HUGE"), obj])
        rc, out, err = run_process(["exclusion", "--states", path])
        assert rc == 2, err
        assert "state JSON: dim" in err
        assert "Traceback" not in err
        assert out == ""


def _overflowing_payloads() -> dict:
    """(argv, payload) by name: finite entries near the top of float range,
    in payloads that fail their checks."""
    state = state_to_json(StateVector.basis(2, 0))
    diagonal, off_diagonal = (ensemble_to_json(theorem1_ensemble(3)) for _ in range(2))
    diagonal["measurement"][0]["re"][0] = 1e308
    off_diagonal["measurement"][0]["re"][1] = 1e308
    off_diagonal["measurement"][0]["re"][3] = -1e308
    preparation, response = (model_to_json(random_discrete_model(3)) for _ in range(2))
    preparation["preparations"]["q0"] = [1e308] * len(preparation["preparations"]["q0"])
    response["responses"]["m0"][0] = [1e308] * len(response["responses"]["m0"][0])
    exclusion, model = ["exclusion", "--states"], ["model", "--check", "epsilon", "--file"]
    return {
        "state-1e308": (exclusion, [dict(state, re=[1e308, 0.0]), state]),
        "state-1e200": (exclusion, [dict(state, re=[1e200, 0.0]), state]),
        "effect-diagonal-1e308": (exclusion, diagonal),
        "effect-off-diagonal-1e308": (exclusion, off_diagonal),
        "preparation-1e308": (model, preparation),
        "response-row-1e308": (model, response),
    }


OVERFLOWING = _overflowing_payloads()


class TestOverflowingEntries:
    """Sums and squares of finite entries past float range fail the input's
    check without a RuntimeWarning on stderr."""

    @pytest.mark.parametrize("name", sorted(OVERFLOWING))
    def test_one_diagnostic_line(self, tmp_path, name):
        argv, payload = OVERFLOWING[name]
        rc, out, err = run_process(argv + [_write_json(tmp_path / "payload.json", payload)])
        assert rc == 2, err
        assert out == ""
        assert err.startswith(f"psigauge {argv[0]}: ") and err.count("\n") == 1, err


class TestModelHandler:
    def test_file_is_parsed_once_for_every_check(self, capsys, monkeypatch, tmp_path):
        import psigauge.cli as cli

        calls = []
        real = cli.model_from_json
        monkeypatch.setattr(cli, "model_from_json", lambda obj: calls.append(obj) or real(obj))
        path = _write_json(tmp_path / "model.json", model_to_json(random_discrete_model(3)))
        checks = ["validate", "nogo", "classify", "epsilon"]
        argv = ["model", "--file", path] + [t for c in checks for t in ("--check", c)]
        obj = run_json(capsys, argv)
        assert [c["check"] for c in obj["results"]["checks"]] == checks
        assert len(calls) == 1

    def test_check_after_validate_raises_the_held_error(self, capsys, bad_model_file):
        alone = run(capsys, ["model", "--file", bad_model_file, "--check", "classify"])
        after = run(
            capsys,
            ["model", "--file", bad_model_file, "--check", "validate", "--check", "classify"],
        )
        assert alone[0] == after[0] == 2
        assert alone[2] == after[2]
        assert "sum" in after[2]
        assert after[1] == ""


# ---------------------------------------------------------------------------
# payload fuzz: real serializer output with one field mutated
# ---------------------------------------------------------------------------


def _base_payloads() -> dict:
    listed = [state_to_json(s) for s in theorem1_ensemble(3).states]
    payloads = {
        "state-list": listed,
        "states-object": {"states": listed},
        "thm1-ensemble": ensemble_to_json(theorem1_ensemble(3)),
        "thm2-ensemble": ensemble_to_json(theorem2_ensemble(3, 2)),
        "model": model_to_json(random_discrete_model(3)),
    }
    return json.loads(json.dumps(payloads))  # plain lists, dicts and numbers


def _paths(node, prefix=()):
    """Every field of a JSON tree, as the key or index path to it."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)) and child:
            yield from _paths(child, prefix + (key,))


DELETE = object()
MUTATIONS = (
    DELETE, "x", {"x": 1}, [2], None, True, "HUGE", "-HUGE", float("nan"), 10**400, [],
    1e308, -1e308, 1e200, "3", "0.5",
)


def _mutated(payload, path, value):
    copy = json.loads(json.dumps(payload))
    *parents, last = path
    node = copy
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return copy


@st.composite
def _mutations(draw):
    name = draw(st.sampled_from(sorted(BASE_PAYLOADS)))
    payload = BASE_PAYLOADS[name]
    path = draw(st.sampled_from(list(_paths(payload))))
    return _mutated(payload, path, draw(st.sampled_from(MUTATIONS)))


BASE_PAYLOADS = _base_payloads()
PAYLOAD_COMMANDS = (
    ["exclusion", "--restarts", "1", "--max-iters", "5", "--states"],
    ["model", "--check", "validate", "--check", "epsilon", "--file"],
)


class TestPayloadFuzz:
    """Each reader, fed serializer output with one field deleted, retyped or
    put past float range, keeps the exit-code contract."""

    def test_unmutated_payloads_run(self, tmp_path):
        for name, payload in BASE_PAYLOADS.items():
            path = _write_json(tmp_path / f"{name}.json", payload)
            command = PAYLOAD_COMMANDS[name == "model"]
            assert _contract_exit(command + [path]) == 0, name

    def test_one_field_mutations_keep_the_contract(self, tmp_path):
        path = tmp_path / "payload.json"
        codes = []

        @settings(max_examples=300, derandomize=True, deadline=None, database=None)
        @given(_mutations())
        def check(payload):
            _write_json(path, payload)
            for command in PAYLOAD_COMMANDS:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    codes.append(_contract_exit(command + [str(path)]))

        check()
        assert {0, 1, 2} <= set(codes), codes

    @pytest.mark.parametrize(
        "name, path",
        [
            ("thm1-ensemble", ("delta_star",)),
            ("state-list", (0, "dim")),
            ("model", ("lambda_count",)),
        ],
    )
    def test_number_written_as_a_string_exits_two(self, tmp_path, name, path):
        # "0.18350341907227397" for delta_star; int() or float() would accept it
        payload = BASE_PAYLOADS[name]
        value = payload
        for key in path:
            value = value[key]
        mutated = _write_json(tmp_path / "payload.json", _mutated(payload, path, repr(value)))
        assert _contract_exit(PAYLOAD_COMMANDS[name == "model"] + [mutated]) == 2


class TestDeeplyNestedFile:
    @pytest.mark.parametrize(
        "argv, code", [(["exclusion", "--states"], 2), (["model", "--file"], 0)]
    )
    def test_is_a_malformed_file(self, capsys, tmp_path, argv, code):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        rc, out, err = run(capsys, argv + [str(path)])
        assert rc == code, err
        assert "nested too deeply" in (err if code else out)


# per command, a value argparse itself rejects (a bad type, or a missing
# required flag), so the parse ends in the subcommand's own error
BAD_TYPE = {
    "thm1": ["thm1", "--dim", "x"],
    "thm2": ["thm2", "--copies", "x"],
    "thm4": ["thm4", "--t", "x"],
    "model": ["model"],
    "orbit": ["orbit"],
    "scaling": ["scaling", "--delta", "x"],
    "exclusion": ["exclusion", "--states", "s.json", "--restarts", "x"],
    "sweep": ["sweep", "--dims", "x"],
}


def _parse_output(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as info:
            parser.parse_args(argv)
    return info.value.code, out.getvalue(), err.getvalue()


class TestOneCommandParser:
    """main builds the parser of the invoked command alone; every screen and
    message it prints matches the full parser's."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_matches_the_full_parser(self, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        assert set(BAD_TYPE) == set(COMMANDS)
        for argv in ([command, "-h"], [command, "--bogus"], BAD_TYPE[command]):
            alone = _parse_output(build_parser(command), argv)
            full = _parse_output(build_parser(), argv)
            assert alone == full, argv
            assert alone[0] in (0, 1), argv

    @pytest.mark.parametrize(
        "flag",
        sorted(
            {flag for commands, flag, options, _, _ in FLAG_RULES if options is not None}
            - {flag for commands, flag, options, _, _ in FLAG_RULES if "thm1" in commands}
        ),
    )
    def test_declares_no_flag_of_another_command(self, flag):
        code, out, err = _parse_output(build_parser("thm1"), ["thm1", flag, "1"])
        assert (code, out) == (1, ""), err
        assert f"unrecognized arguments: {flag} 1" in err

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["thm1", "--dim", "3", "--seed", "1"]
        expected = run(capsys, argv)
        monkeypatch.setattr(sys, "argv", ["psigauge", *argv])
        assert run(capsys, None) == expected
        assert expected[0] == 0
