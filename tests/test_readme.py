"""The README's library example runs as written and prints its stated figures."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library example"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_figures():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_example(), str(README), "exec"), {})
    levels, verdict = (line.split() for line in out.getvalue().splitlines())
    c_star, c_tilde = map(float, levels)
    assert c_star == 632.8125
    assert c_tilde == pytest.approx(9.23, abs=0.005)
    assert [int(v) for v in verdict] == [500, 0]
