import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import psigauge
from psigauge.cli import _render_json, main
from psigauge.ensembles import ensemble_to_json, theorem1_ensemble
from psigauge.ontic import ks_qubit_model, model_from_parametric, model_to_json
from psigauge.qcore import StateVector, state_to_json


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

    def test_short_measurement_in_ensemble_file_exits_two(self, tmp_path):
        obj = ensemble_to_json(theorem1_ensemble(3))
        obj["measurement"] = obj["measurement"][:2]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(obj))
        rc, out, err = run_process(["exclusion", "--states", str(path)])
        assert rc == 2
        assert "2 outcomes for 3 states" in err
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
        [("states", [], "nonempty list"), ("params", 5, "params must be an object")],
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
        [{"states": 5}, [5], {"states": [5]}],
        ids=["states-not-a-list", "list-of-numbers", "states-of-numbers"],
    )
    def test_exits_two_without_traceback(self, tmp_path, payload):
        path = tmp_path / "states.json"
        path.write_text(json.dumps(payload))
        rc, out, err = run_process(["exclusion", "--states", str(path)])
        assert rc == 2, err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert out == ""


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
