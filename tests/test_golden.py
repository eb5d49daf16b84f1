"""Golden bytes of the closed-loop kernels.

The digests pin the files that ``cli._run_stage`` writes: the trajectory CSVs
of the simulate stage (every controller kind, 1 s horizon), a small falsify
report, and the analyze, steady-state and ROA reports on both presets, and one
digest over the steady-state and ROA outputs of twelve seeded designs around
``scenario1``.  A change that moves any bit of an integrated state, input,
Lyapunov value, equilibrium, level or boundary fails here, and has to say so
and re-pin the digests.  On the same presets and designs, the region sweep's
split level is checked against the MFC2 estimate's, bit for bit.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from mfcert import cli, roa
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
        "steady_state.json": "fb204c96077e4011a7d730755fd7449e15008cc13da10837e61317547e1f166e",
        "steady_state_sweep.csv":
            "3d4941cf1f901d57d1355013e5097eaea9aac037ff4ab80f11ed0e4a100c5db5",
        "roa.json": "f3418bb21b07bd8812af6f73df4bbb068b01b39d7b6cbfaad50eeb3ba153fa7d",
        "roa_boundaries.csv": "7ffdf609d78f1879193b861ff0d2411c1bf7db6506c4d89497702148fe867727",
    },
    "scenario2": {
        "analyze.json": "85d3f138734c3b7b9729ce13104a2803f4bc461faf52831fbd589b2625ba0fa3",
        "steady_state.json": "bd0a9d89dfdb340404634c12daf829099441891cbfb9f7c8ecad05e1557805ca",
        "steady_state_sweep.csv":
            "3d4941cf1f901d57d1355013e5097eaea9aac037ff4ab80f11ed0e4a100c5db5",
        "roa.json": "7c95b4984511493a302a93a2bcabaa0989031ebb89dfa015f67a17b5729935fa",
        "roa_boundaries.csv": "97f0c5b2a7985bea9d25dab7d94659867538180a4b989a74cf90e8d88c67e9bc",
    },
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _short(name):
    return dataclasses.replace(preset(name), horizon=1.0, controllers=KINDS)


@pytest.mark.parametrize("name", sorted(TRAJECTORY_SHA256))
def test_trajectory_csv_bytes(tmp_path, name):
    cli._run_stage(_short(name), "simulate", tmp_path)
    digests = {kind: _sha256(tmp_path / f"traj_{kind}.csv") for kind in KINDS}
    assert digests == TRAJECTORY_SHA256[name]


@pytest.mark.parametrize("name", sorted(FALSIFY_SHA256))
def test_falsify_report_bytes(tmp_path, name):
    cli._run_stage(_short(name), "falsify", tmp_path, samples=40, seed=0)
    assert _sha256(tmp_path / "falsify.json") == FALSIFY_SHA256[name]


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_design_report_bytes(tmp_path, name):
    cfg = preset(name)
    for stage in ("analyze", "steady_state", "roa"):
        cli._run_stage(cfg, stage, tmp_path)
    digests = {file: _sha256(tmp_path / file) for file in REPORT_SHA256[name]}
    assert digests == REPORT_SHA256[name]


#: One SHA-256 over the steady-state and ROA outputs of the seeded designs.
DESIGNS_SHA256 = "661b82e5269116bf2ae826e096cdcbc36682f97cdfddcd3c1fdfecae9074cc7e"


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
        for stage in ("steady_state", "roa"):
            cli._run_stage(cfg, stage, tmp_path)
        for file in ("steady_state.json", "steady_state_sweep.csv", "roa.json",
                     "roa_boundaries.csv"):
            digest.update((tmp_path / file).read_bytes())
    assert digest.hexdigest() == DESIGNS_SHA256


def test_sweep_split_levels_are_the_estimates(monkeypatch):
    """c_tilde_level, MFC2.c_tilde and compare_levels agree bit for bit, and every
    grey ring of the sweep sits at lambda_min r r of r_mfc2 at its c_star."""
    fans = []
    outer_extent = roa._outer_extent

    def recording(dirs, Q, centroid, centers, thresholds):
        fans.append(thresholds)
        return outer_extent(dirs, Q, centroid, centers, thresholds)

    monkeypatch.setattr(roa, "_outer_extent", recording)
    ring_starts = 1 + roa.SWEEP_SAMPLES // 4 * np.arange(roa.SWEEP_LEVELS - 1)
    swept = 0
    for cfg in [preset(name) for name in sorted(REPORT_SHA256)] + _seeded_designs():
        fans.clear()
        report, _ = cli.run_roa(cfg)
        if not report["MFC2"]["valid"]:
            assert "MFC2_sweep" not in report and not fans
            continue
        swept += 1
        design = cli._design(cfg)
        cert, est = design.cert, design.estimates["MFC2"]
        ref = float(np.linalg.norm(est.x_s))
        lam, vth = cert.lambda_min, cert.vartheta
        sweep = report["MFC2_sweep"]
        levels = (sweep["c_tilde_level"], report["MFC2"]["c_tilde"],
                  roa.compare_levels(est.c_star, cfg.plant, cert.gamma_mfc, ref, vth, lam)[1])
        assert all(type(level) is float for level in levels)
        assert len({level.hex() for level in levels}) == 1
        green, grey = fans
        assert green.tolist() == [est.c_tilde] * roa.SWEEP_SAMPLES
        rings = np.split(grey, ring_starts)
        for ring, cs in zip(rings, np.linspace(0.0, sweep["c_star_max"], roa.SWEEP_LEVELS)):
            r, _ = roa.r_mfc2(cfg.plant, cert.gamma_mfc, ref, float(cs), vth, lam)
            # at the budget r may round below 0 and the members shrink to points
            expected = 0.0 if r is None else lam * r * r
            assert ring.tolist() == [expected] * len(ring)
    assert swept == 12  # both presets and 10 of the 12 designs
