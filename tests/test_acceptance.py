"""Acceptance suite: every shipped claim checked at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all)
and then asserts, so a red criterion fails the build.
"""

import math
import time

import numpy as np
import pytest

from mfcert import (
    ControllerSpec,
    MsdParams,
    SetPoint,
    aux_radius,
    compare_levels,
    estimate_mfc1,
    estimate_mfc2,
    estimate_sl,
    estimate_slhg,
    falsify_sets,
    gamma_empirical,
    high_gain,
    mfc_equilibria,
    multiplicity_transition,
    phi_lipschitz_sup,
    simulate_closed_loop,
    single_loop_equilibria,
    solve_lyapunov,
    time_to_track,
)
from mfcert.plant import DEFAULT_DOMAIN, msd_f
from mfcert.simulate import _rk4_components, build_closed_loop
from mfcert.synthesis import closed_loop_matrix


def _law(plant, gains, kind, y_d=0.75):
    """Control law of one closed loop as a function of its state components."""
    spec = ControllerSpec(kind=kind, gains=gains, reference=SetPoint(y_d))
    loop = build_closed_loop(plant, spec, 1000.0)
    return lambda *y: loop.control(0.0, y)


def _report(num: int, description: str, ok: bool):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def scenario(table_params, gains, cert):
    x_d = np.array([0.75, 0.0])
    mfc = mfc_equilibria(table_params, gains, 0.75)
    sl = single_loop_equilibria(table_params, gains, 0.75)
    return {
        "x_d": x_d,
        "mfc": mfc,
        "sl": sl,
        "x_s_mfc": np.array([0.75 + mfc.selected, 0.0]),
        "x_s_sl": np.array([sl.selected, 0.0]),
    }


def test_criterion_1_lyapunov_matrix(p_expected):
    solve_lyapunov([-4.0, -4.0])  # warm-up
    best = min(
        _timed(lambda: solve_lyapunov([-4.0, -4.0]))[0] for _ in range(5)
    )
    P = solve_lyapunov([-4.0, -4.0])
    exact = float(np.max(np.abs(P - p_expected))) <= 1e-10
    _report(1, f"P matrix exact to 1e-10 and solved in {best*1e3:.3f} ms",
            exact and best < 1e-3)


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def test_criterion_2_gain_scaling():
    k_tilde, _ = high_gain([-4.0, -4.0], 0.1)
    _report(2, "high-gain scaling yields (-400, -40) exactly",
            k_tilde.tolist() == [-400.0, -40.0])


def test_criterion_3_robustness_bounds(cert):
    ok = (
        abs(cert.gamma_mfc - 24.9256) <= 0.003 * 24.9256
        and abs(cert.gamma_sl - 2.4988) <= 0.001 * 2.4988
        and abs(cert.gamma_slhg - 24.9878) <= 0.001 * 24.9878
    )
    _report(3, f"bounds ({cert.gamma_mfc:.4f}, {cert.gamma_sl:.4f}, "
               f"{cert.gamma_slhg:.4f}) within stated tolerances", ok)


def test_criterion_4_roa_levels(table_params, cert, scenario):
    def levels():
        sl = estimate_sl(table_params, cert, scenario["x_s_sl"], scenario["x_d"])
        slhg = estimate_slhg(table_params, cert, scenario["x_s_mfc"], scenario["x_d"])
        mfc2 = estimate_mfc2(
            table_params, cert, scenario["x_s_mfc"], scenario["x_d"], (0.0, 0.0)
        )
        return sl.level, slhg.level, mfc2.c_star, mfc2.c_tilde, mfc2.level

    levels()  # warm-up
    elapsed, (c_sl, c_slhg, cs, ct, total) = _timed(levels)
    ok = (
        abs(c_sl - 0.75) <= 0.02 * 0.75
        and abs(c_slhg - 14.74) <= 0.01 * 14.74
        and abs(cs - 632.813) <= 0.001 * 632.813
        and abs(ct - 9.2) <= 0.02 * 9.2
        and abs(total - 642.045) <= 0.01 * 642.045
        and elapsed < 0.010
    )
    _report(4, f"levels c_SL={c_sl:.4f}, c_SLHG={c_slhg:.4f}, c*={cs:.3f}, "
               f"c~={ct:.4f}, total={total:.3f} in {elapsed*1e3:.2f} ms", ok)


def test_criterion_5_steady_states(table_params, gains, scenario):
    sl_err = abs(scenario["sl"].selected - 0.75) / 0.75 * 100.0
    mfc_err = abs(scenario["mfc"].selected) / 0.75 * 100.0
    slhg = single_loop_equilibria(table_params, gains, 0.75, high_gain=True)
    slhg_err = abs(slhg.selected - 0.75) / 0.75 * 100.0
    transition = multiplicity_transition(table_params, gains.k_star[0])
    ok = (
        abs(sl_err - 4.3) <= 0.3
        and mfc_err < 0.1
        and slhg_err < 0.1
        and transition is not None
        and abs(transition - 1.95) <= 0.05
    )
    _report(5, f"steady states: SL error {sl_err:.2f}%, two-loop {mfc_err:.4f}%, "
               f"root-count transition at y_d={transition:.3f}", ok)


def test_criterion_6_control_peaks(plant, gains):
    u_hg1 = _law(plant, gains, "SLHG")(0.0, 0.0)
    u_hg2 = _law(plant, gains, "SLHG", y_d=2.0)(0.0, 0.0)
    mfc = _law(plant, gains, "MFC")
    u_m0 = mfc(0.0, 0.0, 0.0, 0.0)
    u_ma = mfc(0.0, 0.0, 0.1, -8.0)
    u_mb = mfc(0.0, 0.0, -0.25, 6.0)
    ok = (
        abs(u_hg1 - 310.0) <= 0.02 * 310.0
        and abs(u_hg2 - 810.0) <= 0.02 * 810.0
        and abs(u_m0 - 13.0) <= 1.0
        and abs(u_ma - 290.0) <= 0.02 * 290.0
        and abs(u_mb - (-125.8)) <= 0.02 * 125.8
    )
    _report(6, f"peaks u_SLHG={u_hg1:.2f}/{u_hg2:.2f}, u_MFC={u_m0:.2f}/{u_ma:.2f}; "
               f"u_MFC(0)={u_mb:.2f} for the third start (reference rounds to -127, "
               f"about 1% off the computed value)", ok)


def test_criterion_7_simulation_endpoints(plant, gains):
    spec = ControllerSpec(
        kind="MFC", gains=gains, reference=SetPoint(0.75), model_initial=(0.0, 0.0)
    )
    elapsed, traj = _timed(
        lambda: simulate_closed_loop(plant, spec, (0.0, 0.0), 10.0, 1e-3, vartheta=1000.0)
    )
    gap = abs(float(traj.x[-1, 0]) - 0.75)
    track_times = []
    for x0 in ((0.1, -8.0), (-0.25, 6.0)):
        run = simulate_closed_loop(plant, spec, x0, 2.0, 1e-3, vartheta=1000.0)
        track_times.append(time_to_track(run))
    ok = (
        gap < 7.5e-4
        and elapsed < 1.0
        and all(t is not None and t <= 0.5 for t in track_times)
    )
    _report(7, f"end gap {gap:.2e} in {elapsed:.2f} s; perturbed starts rejoin the "
               f"model trajectory within {max(track_times):.3f} s", ok)


def test_criterion_8_property_suite(table_params, plant, gains, cert):
    rng = np.random.default_rng(80)
    checks = {}

    acl = closed_loop_matrix(gains.k_star)
    checks["lyapunov residual"] = (
        float(np.max(np.abs(acl.T @ cert.P + cert.P @ acl + np.eye(2)))) <= 1e-10
    )

    spec_m = ControllerSpec(
        kind="MFC", gains=gains, reference=SetPoint(0.75), model_initial=(0.75, 0.0)
    )
    spec_hg = ControllerSpec(kind="SLHG", gains=gains, reference=SetPoint(0.75))
    tm = simulate_closed_loop(plant, spec_m, (0.0, 0.0), 3.0, 1e-3, vartheta=1000.0)
    th = simulate_closed_loop(plant, spec_hg, (0.0, 0.0), 3.0, 1e-3, vartheta=1000.0)
    checks["two-loop degenerates to high-gain loop"] = (
        float(np.max(np.abs(tm.u - th.u))) <= 1e-9
    )

    flat_ok = True
    split_ok = True
    mfc, sl = _law(plant, gains, "MFC"), _law(plant, gains, "SL")
    for _ in range(1000):
        x = tuple(rng.uniform(-5, 5, size=2))
        xs = tuple(rng.uniform(-5, 5, size=2))
        u_on_model = mfc(*x, *x)
        u_fb = sl(*x)
        flat_ok &= abs(u_on_model - u_fb) <= 1e-12 * max(1.0, abs(u_fb))
        u_split = mfc(*xs, *x)
        combined = (
            -msd_f(table_params, x)
            + sum(gains.k_star[i] * (xs[i] - (0.75, 0.0)[i]) for i in range(2))
            + sum(gains.k_tilde[i] * (x[i] - xs[i]) for i in range(2))
        ) / (1.0 / table_params.m)
        split_ok &= abs(u_split - combined) <= 1e-12 * max(1.0, abs(combined))
    checks["two-loop law matches single-loop law on the model state"] = flat_ok
    checks["split law equals one-line law"] = split_ok

    dominated = 0
    while dominated < 1000:
        p = MsdParams(
            k=rng.uniform(0.5, 3.0), c_d=rng.uniform(0.1, 1.0),
            alpha=rng.uniform(0.1, 1.5), m=rng.uniform(0.5, 2.0), g0=9.81,
            dk=rng.uniform(-0.3, -0.01), dc_d=rng.uniform(0.0, 0.2),
            dalpha=rng.uniform(-0.3, -0.01),
        )
        gamma = rng.uniform(1.0, 30.0)
        ref = rng.uniform(0.0, 1.5)
        vth = rng.uniform(1.0 + 1e-9, 5000.0)
        lam = rng.uniform(0.05, 1.0)
        ra, _ = aux_radius(p, gamma, ref)
        if ra is None:
            continue
        cs = rng.uniform(0.0, vth * lam * ra * ra)
        _, _, diff = compare_levels(cs, p, gamma, ref, vth, lam)
        if diff <= 0:
            break
        dominated += 1
    checks["split level dominates on random draws"] = dominated == 1000

    emp = gamma_empirical(table_params, DEFAULT_DOMAIN, 100_000, seed=81)
    checks["sampled gain below gradient supremum"] = (
        emp <= phi_lipschitz_sup(table_params, DEFAULT_DOMAIN)
    )

    def rk4_error(h):
        y = (1.0,)
        for _ in range(int(round(1.0 / h))):
            y = _rk4_components(lambda t, v: (-v[0],), 0.0, y, h)
        return abs(y[0] - math.exp(-1.0))

    order = math.log2(rk4_error(0.1) / rk4_error(0.05))
    checks["integrator convergence order"] = order >= 3.9

    for label, ok in checks.items():
        print(f"  criterion 8 [{label}]: {'PASS' if ok else 'FAIL'}")
    _report(8, "always-on property suite", all(checks.values()))


def test_criterion_9_falsification_soundness(table_params, gains, cert, plant):
    t0 = time.perf_counter()
    total_violations = 0
    total_sets = 0
    for y_d in (0.75, 2.0):
        x_d = np.array([y_d, 0.0])
        mfc = mfc_equilibria(table_params, gains, y_d)
        sl = single_loop_equilibria(table_params, gains, y_d)
        x_s_mfc = np.array([y_d + mfc.selected, 0.0])
        x_s_sl = np.zeros(2)
        x_s_sl[0] = sl.selected
        candidates = [
            estimate_mfc1(table_params, cert, x_s_mfc, x_d),
            estimate_mfc2(table_params, cert, x_s_mfc, x_d, (0.0, 0.0)),
            estimate_sl(table_params, cert, x_s_sl, x_d),
            estimate_slhg(table_params, cert, x_s_mfc, x_d),
        ]
        for est in candidates:
            if not est.valid:
                print(f"  criterion 9: skipping invalid {est.kind} at y_d={y_d} "
                      f"({est.reason})")
        # one stacked batch per set-point; equal to per-set runs (TestFalsifySets)
        sets = [est for est in candidates if est.valid]
        reports = falsify_sets(sets, plant, gains, count=500, horizon=10.0, h=1e-3, seed=0)
        for rep in reports:
            total_sets += 1
            total_violations += len(rep.violations)
            print(f"  criterion 9: y_d={y_d} {rep.kind}: "
                  f"{rep.converged}/{rep.samples} converged")
    elapsed = time.perf_counter() - t0
    ok = total_violations == 0 and elapsed < 120.0 and total_sets >= 7
    _report(9, f"{total_sets} certified sets, 500 samples each, "
               f"{total_violations} violations in {elapsed:.1f} s", ok)
