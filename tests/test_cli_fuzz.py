"""Malformed configurations end in exit code 0, 1 or 2 with at most one stderr line."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from mfcert.cli import main
from mfcert.config import preset

BASE = preset("scenario1").to_dict()
DROP = object()


def _paths(node, prefix=()):
    """Every key path of the config tree, list elements included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = list(_paths(BASE))

VALUES = st.one_of(
    st.just(DROP),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 1e200,
                     -1e200, 1e-300, 0.0, 0, -1.0, -7]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["x", "", None, True]),
    st.builds(dict),
    st.builds(list),
    st.lists(st.floats(-10.0, 10.0), max_size=4),
)


def _mutate(cfg, path, value):
    """Drop or replace the node at ``path``; a path an earlier mutation removed is skipped."""
    parent = cfg
    for key in path[:-1]:
        try:
            parent = parent[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    if isinstance(parent, dict) and (key in parent or value is not DROP):
        if value is DROP:
            del parent[key]
        else:
            parent[key] = value
    elif isinstance(parent, list) and isinstance(key, int) and key < len(parent):
        if value is DROP:
            del parent[key]  # a list of the wrong length
        else:
            parent[key] = value


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from(["analyze", "steady-state", "roa"]),
    mutations=st.lists(st.tuples(st.sampled_from(PATHS), VALUES), min_size=1, max_size=3),
)
def test_malformed_config_exits_cleanly(command, mutations):
    cfg = copy.deepcopy(BASE)
    for path, value in mutations:
        _mutate(cfg, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))  # NaN and Infinity as JavaScript literals
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) == (code != 0)  # one line per failure
