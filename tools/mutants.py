"""Run tier-1 against one-line mutants of the verdict-making code; print the survivors.

    python tools/mutants.py          # every mutant, in order
    python tools/mutants.py 5 13     # the mutants numbered 5 and 13

Each mutant replaces one source string, which must occur exactly once, in a
fresh temporary copy of the repository (without ``.git``), and runs tier-1
there with ``-x``: ``python -m pytest -q -x --continue-on-collection-errors``
with ``src`` on ``PYTHONPATH``.  The mutant is killed when tier-1 fails and
survives when it passes.  A mutant whose string is missing or repeated is
stale: the code it names has moved, and the list must follow it.  Tier-1
runs once unmutated first, since a failing suite would kill every mutant.
The exit status is 0 when every mutant is killed, 1 when one survives or is
stale, and 2 when tier-1 fails unmutated.

Standard library only.  Not a CI step: a killed mutant stops at its first
failing test, but a survivor costs a full tier-1 run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: (file under src/mfcert, original text, mutated text, what the mutant does)
MUTANTS = [
    ("simulate.py",
     "near = dist <= np.maximum(0.01 * np.linalg.norm",
     "near = dist <= np.maximum(0.05 * np.linalg.norm",
     "_run_outcome's convergence radius 0.01 d0 -> 0.05 d0"),
    ("falsify.py",
     "DECREASE_TOLERANCE = 1e-9",
     "DECREASE_TOLERANCE = 1e-4",
     "DECREASE_TOLERANCE 1e-9 -> 1e-4"),
    ("falsify.py",
     "floor = 1e-12 * level",
     "floor = 1e-3 * level",
     "decrease floor 1e-12 level -> 1e-3 level"),
    ("falsify.py",
     "in_set = v_prev <= level * (1.0 + 1e-12)",
     "in_set = v_prev <= level / 2",
     "in-set monitoring only from V <= level / 2"),
    ("falsify.py",
     "elif viol_v_all[i]:",
     "elif viol_v_all[i] and False:",
     "V-increase never reported"),
    ("plant.py",
     "candidates.append(0.0)",
     "pass",
     "phi_lipschitz_sup drops its x1 = 0 candidate"),
    ("steady_state.py",
     "_MARGINAL_TOL = 1e-9",
     "_MARGINAL_TOL = 1e-3",
     "steady_state._MARGINAL_TOL 1e-9 -> 1e-3"),
    ("simulate.py",
     "start = (self.reference.y_d, 0.0) if",
     "start = (0.0, 0.0) if",
     "ControllerSpec's default model start (y_d, 0) -> (0, 0)"),
    ("cli.py",
     '"max": lambda value, row: value < row["tol"]',
     '"max": lambda value, row: value <= row["tol"]',
     "_ROW_KINDS' max test < -> <="),
    ("cli.py",
     '"rel": lambda value, row: abs(value - row["expected"]) <= row["tol"]',
     '"rel": lambda value, row: abs(value - row["expected"]) < row["tol"]',
     "_ROW_KINDS' rel test <= -> <"),
    ("simulate.py",
     "abs(steps * h - horizon) > 1e-9 * horizon",
     "abs(steps * h - horizon) > 1e-6 * horizon",
     "whole_steps' tolerance 1e-9 -> 1e-6"),
    ("roa.py",
     "return model + self._value(0.0, x, x_star) <= self.slice_level",
     "return model + self._value(0.0, x, x_star) < self.slice_level",
     "RoaEstimate.contains <= -> <"),
    ("roa.py",
     "if inner <= 0.0:",
     "if inner < 0.0:",
     "aux_radius' inner test <= -> <"),
    ("roa.py",
     "if core < 0.0:",
     "if core <= 0.0:",
     "aux_radius' core test < -> <="),
    ("roa.py",
     "if r < 0.0:\n        return None, REASON_RADIUS",
     "if r <= 0.0:\n        return None, REASON_RADIUS",
     "aux_radius' radius test < -> <="),
]


def _tier1(mutant=None) -> str:
    """Tier-1 in a fresh copy of the repository, with ``mutant`` applied if one is
    given: "passed", "failed", or "stale" when the mutant's text is not there once."""
    with tempfile.TemporaryDirectory(prefix="mfcert-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_work"))
        if mutant is not None:
            name, old, new, _ = mutant
            path = tree / "src" / "mfcert" / name
            text = path.read_text()
            if text.count(old) != 1:
                return "stale"
            path.write_text(text.replace(old, new))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            ["src"] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
             "-p", "no:cacheprovider"],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return "passed" if run.returncode == 0 else "failed"


def main(argv: list[str]) -> int:
    numbers = [int(a) for a in argv] or list(range(1, len(MUTANTS) + 1))
    if _tier1() != "passed":
        print("tier-1 fails unmutated, so no mutant can be judged")
        return 2
    survivors, stale = [], []
    for number in numbers:
        mutant = MUTANTS[number - 1]
        verdict = {"passed": "SURVIVED", "failed": "killed", "stale": "stale"}[_tier1(mutant)]
        if verdict == "SURVIVED":
            survivors.append(number)
        elif verdict == "stale":
            stale.append(number)
        print(f"{number:2d} {verdict:8s} {mutant[0]}: {mutant[3]}", flush=True)
    print(f"{len(survivors)} of {len(numbers)} survived"
          + (f": {', '.join(map(str, survivors))}" if survivors else "")
          + (f"; stale: {', '.join(map(str, stale))}" if stale else ""))
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
