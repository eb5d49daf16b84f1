"""Tests of the benchmark itself, on smaller copies of the workloads.

Run from the repository root with ``python3 -m pytest perfbench -q``.  They
check that counters and verdict digests repeat exactly for a fixed seed, that
a second seed passes every output check, that the checks can fail, that the
tracer leaves the package as it found it, and that the command prints the
metrics ``BENCHMARK.json`` names and refuses to run outside a source checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "reproduce": workloads.Reproduce(scenarios=("scenario2",), samples=16),
    "trajectories": workloads.Trajectories(states=2),
    "design-sweep": workloads.DesignSweep(designs=12),
}


def _traced_pass(workload, seed, work_dir):
    inputs = workload.make_inputs(seed)
    tracer = layers.Tracer()
    tracer.install()
    try:
        result = workload.run_pass(inputs, work_dir)
    finally:
        tracer.uninstall()
    exact = {name: value for name, (value, unit) in tracer.layer_metrics().items()
             if unit in ("count", "ratio")}
    return result, exact


def _failures(result):
    return [(op.name, op.failures) for op in result.ops if not op.ok]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counters_and_digest_repeat(name, tmp_path):
    """Counts and ratios of the traced run repeat exactly, as does the digest."""
    first, exact1 = _traced_pass(SMALL[name], 0, tmp_path)
    second, exact2 = _traced_pass(SMALL[name], 0, tmp_path)
    assert _failures(first) == [] and _failures(second) == []
    assert first.digest() == second.digest()
    assert exact1 == exact2
    assert any(exact1.values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_second_seed_passes_every_check(name, tmp_path):
    workload = SMALL[name]
    result = workload.run_pass(workload.make_inputs(1), tmp_path)
    assert _failures(result) == []
    assert result.work > 0


def test_seed_changes_the_inputs():
    for workload in (SMALL["trajectories"], SMALL["design-sweep"]):
        assert repr(workload.make_inputs(0)) != repr(workload.make_inputs(1))


def test_endpoint_check_can_fail(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "ENDPOINT_TOL", -1.0)
    result = SMALL["trajectories"].run_pass(SMALL["trajectories"].make_inputs(0), tmp_path)
    failed = {op.name.split("/")[1] for op in result.ops if not op.ok}
    assert failed == {"SLHG", "MFC"}


def test_residual_check_can_fail(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "RESIDUAL_TOL", -1.0)
    result = SMALL["design-sweep"].run_pass(SMALL["design-sweep"].make_inputs(0), tmp_path)
    assert all(not op.ok for op in result.ops)


def test_tracer_restores_the_package():
    before = {(m.__name__, k): v for m in layers.MODULES for k, v in vars(m).items()}
    boundary = workloads.roa.RoaEstimate.boundary
    tracer = layers.Tracer()
    tracer.install()
    assert workloads.cli.run_roa is not before[("mfcert.cli", "run_roa")]
    tracer.uninstall()
    after = {(m.__name__, k): v for m in layers.MODULES for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert workloads.roa.RoaEstimate.boundary is boundary


def _result_line(stdout):
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_the_declared_metrics(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "design-sweep",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = _result_line(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 200
    declared = {m["name"]: m["unit"] for m in spec[key]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == declared


def test_refuses_to_run_outside_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reproduce", "--seed", "0",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
