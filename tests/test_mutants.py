"""Every mutant of ``tools/mutants.py`` still names code that is there, once.

A mutant whose original text has moved or been duplicated is stale, and the
script reports it only when run by hand.  This check runs no mutant: it loads
the script by path and counts each original text in its source file.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _mutants()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[str(n) for n in range(1, len(MUTANTS) + 1)])
def test_original_text_occurs_once(mutant):
    name, old, new, _ = mutant
    assert old != new
    assert (ROOT / "src" / "mfcert" / name).read_text().count(old) == 1
