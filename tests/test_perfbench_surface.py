"""The names that the benchmark in ``perfbench/`` wraps and calls still exist.

``perfbench/layers.py`` replaces module attributes and class methods of the
package by name, and ``perfbench/kernels.py`` times a closed loop through
``build_closed_loop``'s ``make_v`` and the private ``_rk4_components``.  A
deleted or renamed name fails here, in the tier-1 suite, and not only under
``python -m pytest perfbench``.  A counter that goes dead or doubles when a
stage is rewired fails here too.  The benchmark modules are loaded by path and
left unchanged.
"""

import importlib.util
import math
from pathlib import Path

from mfcert import cli, roa, simulate
from mfcert.config import preset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    layers = _load("layers")
    owners = (*layers.MODULES, roa.RoaEstimate, simulate.Trajectory)
    before = [dict(vars(owner)) for owner in owners]
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert roa.RoaEstimate.__dict__["boundary"] is not before[-2]["boundary"]
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before


def test_kernel_loop_calls():
    kernels = _load("kernels")
    loop, P, x_s = kernels._mfc_loop()
    y = kernels._states(loop, x_s, 1, 0)
    v_of = loop.make_v(P, tuple(float(v) for v in x_s))
    assert math.isfinite(v_of(0.0, y))
    step = simulate._rk4_components(loop.rhs, 0.0, y, kernels.STEP)
    assert len(step) == 4 and all(map(math.isfinite, step))


def _traced(run):
    layers = _load("layers")
    tracer = layers.Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return layers, tracer


def test_roa_stage_records_one_sweep_and_one_split_estimate():
    _, tracer = _traced(lambda: cli.run_roa(preset("scenario1")))
    assert len(tracer.spans["roa.region_sweep"]) == 1
    assert tracer.counts["roa.attempted.MFC2"] == 1


def test_reproduce_builds_its_design_once(tmp_path):
    layers, tracer = _traced(lambda: cli.run_reproduce(
        preset("scenario1"), "scenario1", tmp_path, samples=2, seed=0))
    assert len(tracer.spans["synthesis.design_gains"]) == 1
    for stage in layers.STAGES:
        assert len(tracer.spans[f"cli.stage.{stage}"]) == 1
    assert tracer.counts["roa.attempted.MFC2"] == 1


def test_stages_on_one_config_share_its_design():
    cfg = preset("scenario1")
    _, tracer = _traced(lambda: (cli.run_analyze(cfg), cli.run_steady_state(cfg),
                                 cli.run_roa(cfg)))
    assert len(tracer.spans["synthesis.design_gains"]) == 1
