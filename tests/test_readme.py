"""README's library example runs and prints what its comments say, and each
command line of its "Command line" block exits 0."""

import contextlib
import io
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from psigauge.cli import main
from psigauge.ensembles import ensemble_to_json, theorem1_ensemble
from psigauge.ontic import model_to_json

from conftest import random_discrete_model

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block under the "## Library example" heading."""
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def command_lines() -> list:
    """The psigauge lines of the sh block under the "## Command line" heading."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("psigauge ")]


@pytest.mark.parametrize("line", command_lines())
def test_command_line_exits_zero(line, tmp_path, monkeypatch, capsys):
    # the files the block names: a serialized ensemble and a model file
    (tmp_path / "states.json").write_text(json.dumps(ensemble_to_json(theorem1_ensemble(3))))
    (tmp_path / "model.json").write_text(json.dumps(model_to_json(random_discrete_model(3))))
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0, capsys.readouterr().err


def test_library_example_prints_its_commented_values():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(library_example(), {})
    value, diagonal, search, protocol = out.getvalue().splitlines()
    assert float(value) == 0.0
    assert np.array(diagonal.strip("[]").split(), dtype=float).tolist() == [0.0] * 4
    best_value, stop_reason = search.split()
    assert float(best_value) <= 1e-12
    assert stop_reason == "value"
    assert float(protocol.split()[0]) == 0.0
