"""README's library example runs and prints what its comments say."""

import contextlib
import io
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block under the "## Library example" heading."""
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


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
