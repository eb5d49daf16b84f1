"""Golden bytes of the closed-loop kernels.

The digests pin the files that ``cli._run_stage`` writes: the trajectory CSVs
of the simulate stage (SL, SLHG and MFC, 1 s horizon) and of the library's
FFLIN loop on the same configuration, a small falsify
report, and the analyze, steady-state and ROA reports on both presets, and one
digest over the steady-state and ROA outputs of twelve seeded designs around
``scenario1``.  A change that moves any bit of an integrated state, input,
Lyapunov value, equilibrium, level or boundary fails here, and has to say so
and re-pin the digests.  On the same presets and designs, the region sweep's
split level is checked against the MFC2 estimate's, and the single-loop root
sweep against one ``solve_cubic`` call per set-point, bit for bit.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from mfcert import cli, roa
from mfcert.config import parse_config, preset
from mfcert.simulate import simulate_closed_loop, steady_state_of
from mfcert.steady_state import (
    SWEEP_STEP,
    Y_D_MAX,
    Y_D_MIN,
    sl_root_sweep,
    sl_steady_polynomial,
    solve_cubic,
)

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
        "roa.json": "d2ef706aa1e4e65aded9f1390f598926aa0355be6b8f080490a484f24bb482ed",
        "roa_boundaries.csv": "a9be76dcbd18485441cc89ebf1f136e96bbd6a0ab8b74c8a2194acc169ac4e6b",
    },
    "scenario2": {
        "analyze.json": "85d3f138734c3b7b9729ce13104a2803f4bc461faf52831fbd589b2625ba0fa3",
        "steady_state.json": "bd0a9d89dfdb340404634c12daf829099441891cbfb9f7c8ecad05e1557805ca",
        "steady_state_sweep.csv":
            "3d4941cf1f901d57d1355013e5097eaea9aac037ff4ab80f11ed0e4a100c5db5",
        "roa.json": "9d7eb8989b1066981acd1c0baf3aa38769657fdfff6d9923fc5c6284d892ecd6",
        "roa_boundaries.csv": "995d2aba8bf01a0d18094669ab432c253ababea2931a0886a5416b8f1d3e0a60",
    },
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _short(name):
    return dataclasses.replace(preset(name), horizon=1.0)


@pytest.mark.parametrize("name", sorted(TRAJECTORY_SHA256))
def test_trajectory_csv_bytes(tmp_path, name):
    cfg = _short(name)
    cli._run_stage(cfg, "simulate", tmp_path)
    design = cfg.design
    simulate_closed_loop(design.plant, design.controller("FFLIN"), cfg.x0, cfg.horizon,
                         cfg.step, vartheta=cfg.vartheta).to_csv(tmp_path / "traj_FFLIN.csv")
    digests = {kind: _sha256(tmp_path / f"traj_{kind}.csv") for kind in KINDS}
    assert digests == TRAJECTORY_SHA256[name]


@pytest.mark.parametrize("name", sorted(TRAJECTORY_SHA256))
def test_run_v_is_its_sets_lyapunov_value(name):
    """The V column of each 1 s run is its certified set's ``lyapunov_value`` bit for
    bit, scenario2's invalid SL set included: the loops and the sets scale by one D^-1."""
    cfg = _short(name)
    _, trajectories = cli.run_simulate(cfg)
    estimates = cfg.design.estimates
    for kind, sets in (("SL", ("SL",)), ("SLHG", ("SLHG",)), ("MFC", ("MFC1", "MFC2"))):
        traj = trajectories[kind]
        for set_kind in sets:
            v = estimates[set_kind].lyapunov_value(traj.x, traj.x_star)
            assert np.array_equal(traj.V, v), (kind, set_kind)


@pytest.mark.parametrize("name", sorted(FALSIFY_SHA256))
def test_falsify_report_bytes(tmp_path, name):
    cfg = dataclasses.replace(_short(name), falsify_samples=40, falsify_seed=0)
    cli._run_stage(cfg, "falsify", tmp_path)
    assert _sha256(tmp_path / "falsify.json") == FALSIFY_SHA256[name]


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_design_report_bytes(tmp_path, name):
    cfg = preset(name)
    for stage in ("analyze", "steady_state", "roa"):
        cli._run_stage(cfg, stage, tmp_path)
    digests = {file: _sha256(tmp_path / file) for file in REPORT_SHA256[name]}
    assert digests == REPORT_SHA256[name]


#: One SHA-256 over the steady-state and ROA outputs of the seeded designs.
DESIGNS_SHA256 = "1767343f1138a57e81e08e0a78016253715c79d0baabd9dc69069499e35f0038"


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


def test_seeded_rest_states_are_one_float():
    """Each loop's certified sets and its runs sit on one rest state: the design's
    selected root of that loop's own cubic."""
    for cfg in _seeded_designs():
        design = cfg.design
        estimates = design.estimates
        for kind, rest, sets in (("SL", design.sl.selected, ("SL",)),
                                 ("SLHG", design.slhg.selected, ("SLHG",)),
                                 ("MFC", cfg.y_d + design.mfc.selected, ("MFC1", "MFC2"))):
            x_s = steady_state_of(design.plant, design.controller(kind))[0]
            assert x_s == rest, kind
            assert all(estimates[name].x_s[0] == rest for name in sets), kind


def test_root_sweeps_are_per_row_solve_cubic():
    """Every row of ``sl_root_sweep`` has the bits of its own ``solve_cubic`` call on
    ``sl_steady_polynomial``, at both single-loop gains of the presets and the
    seeded designs."""
    ys = np.arange(Y_D_MIN, Y_D_MAX + 1e-9, SWEEP_STEP).tolist()
    differ = []
    for cfg in [preset(name) for name in sorted(REPORT_SHA256)] + _seeded_designs():
        gains = cfg.design.gains
        for k1 in (gains.k_star[0], gains.k_tilde[0]):
            rows = [{"y_d": y, "roots": solve_cubic(sl_steady_polynomial(cfg.plant, k1, y))}
                    for y in ys]
            sweep = sl_root_sweep(cfg.plant, k1)
            differ += [(k1, a, b) for a, b in zip(sweep, rows) if repr(a) != repr(b)]
            assert len(sweep) == len(rows)
    assert differ == []


def test_sweep_split_levels_are_the_estimates():
    """c_tilde_level, MFC2.c_tilde and compare_levels agree bit for bit, c_star_max is
    c_star_budget's, and along every ray the sweep's support is that of members at
    lambda_min r r of r_mfc2: the green members' at the estimate's c_star, and the
    grey region's the largest over 17 c_star levels from 0 to the budget."""
    theta = 2.0 * np.pi * np.arange(roa.SWEEP_RAYS) / roa.SWEEP_RAYS
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    swept = 0
    for cfg in [preset(name) for name in sorted(REPORT_SHA256)] + _seeded_designs():
        report, _ = cli.run_roa(cfg)
        if not report["MFC2"]["valid"]:
            assert "MFC2_sweep" not in report
            continue
        swept += 1
        design = cfg.design
        cert, est = design.cert, design.estimates["MFC2"]
        ref = float(np.linalg.norm(est.x_s))
        lam, vth = cert.lambda_min, cert.vartheta
        sweep = report["MFC2_sweep"]
        levels = (sweep["c_tilde_level"], report["MFC2"]["c_tilde"],
                  roa.compare_levels(est.c_star, cfg.plant, cert.gamma_mfc, ref, vth, lam)[1])
        assert all(type(level) is float for level in levels)
        assert len({level.hex() for level in levels}) == 1
        budget = roa.c_star_budget(cfg.plant, cert.gamma_mfc, ref, vth, lam)
        assert sweep["c_star_max"].hex() == budget.hex()

        # a member about x_s + e*, vartheta e*' P e* = c, at level l has support
        # sqrt(c / vartheta) h1 + sqrt(l) h2 at its best e* on the c ellipse
        P_inv = np.linalg.inv(est.P)
        D = est.d_matrix()
        h1 = np.sqrt(np.einsum("ri,ij,rj->r", dirs, P_inv, dirs))
        h2 = np.sqrt(np.einsum("ri,ij,rj->r", dirs, D @ P_inv @ D, dirs))

        def ring(c_star):
            r, _ = roa.r_mfc2(cfg.plant, cert.gamma_mfc, ref, float(c_star), vth, lam)
            # at the budget r may round below 0 and the members shrink to points
            return np.sqrt(c_star / vth) * h1 + np.sqrt(0.0 if r is None else lam * r * r) * h2

        region = roa.mfc2_region_sweep(cfg.plant, cert, est)
        for polygon, support in (
                (region.green, ring(est.c_star)),
                (region.grey, np.max([ring(c) for c in np.linspace(0.0, budget, 17)], axis=0))):
            drawn = np.einsum("ri,ri->r", dirs, polygon - np.asarray(est.x_s)) / (1.0 - 1e-9)
            assert drawn == pytest.approx(support, rel=1e-12)
    assert swept == 12  # both presets and 10 of the 12 designs
