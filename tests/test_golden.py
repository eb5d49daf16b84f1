"""Golden bytes of the closed-loop kernels.

The digests pin the trajectory CSVs of ``run_simulate`` (every controller
kind, 1 s horizon), a small ``run_falsify`` report, and the analyze,
steady-state and ROA reports on both presets, and one digest over the
steady-state and ROA outputs of twelve seeded designs around ``scenario1``.  A
change that moves any bit of an integrated state, input, Lyapunov value,
equilibrium, level or boundary fails here, and has to say so and re-pin the
digests.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from mfcert import cli
from mfcert.config import parse_config, preset

KINDS = ("SL", "SLHG", "MFC", "FFLIN")

TRAJECTORY_SHA256 = {
    "scenario1": {
        "SL": "beca68ce8ce0bd18c9485d795b5a829d6aa43fc8722cb8abe61b9f6289ced87e",
        "SLHG": "7e0cb27bc84f53c76f823aac8a8d09b769114eecaf769e3b43686e62d5dd74b7",
        "MFC": "cc8a48afb9e11dc5adc5fd709e47163431c1a8cadae40d907897f3653e98c152",
        "FFLIN": "e4cde3b5934b5cf663319cea02cd1286bdc631b1eaffe0e2fa4af9a0ff26d2a2",
    },
    "scenario2": {
        "SL": "01e3fbda232095068c672b9c8cce755001f18593f06d6d27b18e24858eff017f",
        "SLHG": "0c7b0891512187ef2757f7e8c78d7dce781759dd0163d7bdd2b62349297d9be3",
        "MFC": "bcf62172a900d6419a24bea32a3e28e1cdb51bf08e02284d0ffdae4cb8b0501c",
        "FFLIN": "25679ac7f23b88aa6e48bd20f6fd2faa466cf9f7c72e0090ac9762688d121a69",
    },
}

FALSIFY_SHA256 = {
    "scenario1": "f25276ac3c82ad85f77d574b1d839265d2cf8c2dabe627368a7a524f8a7b73ca",
    "scenario2": "c10a3791b74ad5372925ceb2084af8ec111b5d1d1162d47d298f8246d390ca95",
}

REPORT_SHA256 = {
    "scenario1": {
        "analyze.json": "85d3f138734c3b7b9729ce13104a2803f4bc461faf52831fbd589b2625ba0fa3",
        "steady_state.json": "027383c479dcd6fe0ee25163e22b9dc655776dbbd13f5039d41864c1678171ab",
        "steady_state_sweep.csv":
            "3d4941cf1f901d57d1355013e5097eaea9aac037ff4ab80f11ed0e4a100c5db5",
        "roa.json": "ce276681cfbfe2a816d6c0bfc15bcf76e06040d51f754945d9c137d7252a8cc6",
        "roa_boundaries.csv": "ba70c93ff94bf83036ff57b0f5ea97a075817b82033cdb007d3a278be9ed7a61",
    },
    "scenario2": {
        "analyze.json": "85d3f138734c3b7b9729ce13104a2803f4bc461faf52831fbd589b2625ba0fa3",
        "steady_state.json": "e09a16afa0c1598eacc6f3e345b38153817e96fecfd4f4d2781e8bb0c1127e13",
        "steady_state_sweep.csv":
            "3d4941cf1f901d57d1355013e5097eaea9aac037ff4ab80f11ed0e4a100c5db5",
        "roa.json": "b58d1c128d2fe0a466018ffc62a94c01ed5ed68366f78e7a04f1782069461a33",
        "roa_boundaries.csv": "1e8ffd5ee4a1c10769bbe95efe744edcf5019768acc5a793f616f08e64325865",
    },
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _short(name):
    return dataclasses.replace(preset(name), horizon=1.0, controllers=KINDS)


@pytest.mark.parametrize("name", sorted(TRAJECTORY_SHA256))
def test_trajectory_csv_bytes(tmp_path, name):
    cli.run_simulate(_short(name), tmp_path)
    digests = {kind: _sha256(tmp_path / f"traj_{kind}.csv") for kind in KINDS}
    assert digests == TRAJECTORY_SHA256[name]


@pytest.mark.parametrize("name", sorted(FALSIFY_SHA256))
def test_falsify_report_bytes(tmp_path, name):
    report = cli.run_falsify(_short(name), samples=40, seed=0)
    cli._write_json(tmp_path / "falsify.json", report)
    assert _sha256(tmp_path / "falsify.json") == FALSIFY_SHA256[name]


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_design_report_bytes(tmp_path, name):
    cfg = preset(name)
    cli._write_json(tmp_path / "analyze.json", cli.run_analyze(cfg))
    report, sweep = cli.run_steady_state(cfg)
    cli._write_json(tmp_path / "steady_state.json", report)
    cli._write_sweep_csv(tmp_path / "steady_state_sweep.csv", sweep)
    report, boundaries = cli.run_roa(cfg)
    cli._write_json(tmp_path / "roa.json", report)
    cli._write_boundaries_csv(tmp_path / "roa_boundaries.csv", boundaries)
    digests = {file: _sha256(tmp_path / file) for file in REPORT_SHA256[name]}
    assert digests == REPORT_SHA256[name]


#: One SHA-256 over the steady-state and ROA outputs of the seeded designs.
DESIGNS_SHA256 = "a18b5abba34f213beb6a1206cba59ed3737c52ec7f8be924ed8b0444dde97aee"


def _seeded_designs(count=12, seed=2024):
    """Designs around scenario1: each (epsilon, vartheta) pair, a drawn set-point and pole."""
    rng = np.random.Generator(np.random.PCG64(seed))
    base = preset("scenario1").to_dict()
    designs = []
    for i in range(count):
        pole = float(rng.uniform(-3.0, -1.0))
        designs.append(parse_config({
            **base,
            "epsilon": (0.05, 0.1, 0.2)[i % 3],
            "vartheta": (1e2, 1e3, 1e4)[(i // 3) % 3],
            "y_d": float(rng.uniform(0.1, 2.5)),
            "poles": [pole, pole],
        }))
    return designs


def test_seeded_design_outputs_bytes(tmp_path):
    digest = hashlib.sha256()
    for cfg in _seeded_designs():
        report, sweep = cli.run_steady_state(cfg)
        cli._write_json(tmp_path / "steady_state.json", report)
        cli._write_sweep_csv(tmp_path / "steady_state_sweep.csv", sweep)
        report, boundaries = cli.run_roa(cfg)
        cli._write_json(tmp_path / "roa.json", report)
        cli._write_boundaries_csv(tmp_path / "roa_boundaries.csv", boundaries)
        for file in ("steady_state.json", "steady_state_sweep.csv", "roa.json",
                     "roa_boundaries.csv"):
            digest.update((tmp_path / file).read_bytes())
    assert digest.hexdigest() == DESIGNS_SHA256
