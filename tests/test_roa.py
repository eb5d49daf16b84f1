import dataclasses
import math

import numpy as np
import pytest

from mfcert import (
    MsdParams,
    aux_radius,
    c_star,
    compare_levels,
    ellipse_boundary,
    estimate_mfc1,
    estimate_mfc2,
    estimate_sl,
    estimate_slhg,
    mfc2_region_sweep,
    mfc_equilibria,
    r_mfc2,
    single_loop_equilibria,
)
from mfcert.roa import REASON_CSTAR, REASON_RADICAND, c_star_budget, polygon_area


@pytest.fixture(scope="module")
def scenario1(table_params, gains, cert):
    x_d = np.array([0.75, 0.0])
    mfc = mfc_equilibria(table_params, gains, 0.75)
    sl = single_loop_equilibria(table_params, gains, 0.75)
    return {
        "x_d": x_d,
        "x_s_mfc": np.array([0.75 + mfc.selected, 0.0]),
        "x_s_sl": np.array([sl.selected, 0.0]),
    }


class TestCStar:
    def test_benchmark_value(self, cert):
        assert c_star(1000.0, cert.P, (-0.75, 0.0)) == pytest.approx(632.813, abs=1e-3)

    def test_zero_offset(self, cert):
        assert c_star(7.0, cert.P, (0.0, 0.0)) == 0.0

    def test_larger_offset(self, cert):
        # 1000 * 4 * 36/32
        assert c_star(1000.0, cert.P, (-2.0, 0.0)) == pytest.approx(4500.0, abs=1e-9)

    def test_requires_positive_weight(self, cert):
        with pytest.raises(ValueError):
            c_star(0.0, cert.P, (1.0, 0.0))


class TestRadii:
    def test_mfc1_benchmark(self, table_params, cert, scenario1):
        ref = float(np.linalg.norm(scenario1["x_s_mfc"]))
        est = estimate_mfc1(table_params, cert, scenario1["x_s_mfc"], scenario1["x_d"])
        r, reason = est.radius_aux, est.reason
        assert reason is None
        assert r == pytest.approx(7.24, rel=0.02)
        c1 = cert.lambda_min * r * r
        assert c1 == pytest.approx(7.36, rel=0.02)
        # identical to the shared radius shrunk by sqrt(2)
        ra, _ = aux_radius(table_params, cert.gamma_mfc, ref)
        assert r == pytest.approx(ra / math.sqrt(2.0), rel=1e-12)

    def test_zero_sigma_bar_rejected(self, nominal_params, cert):
        with pytest.raises(ZeroDivisionError):
            aux_radius(nominal_params, cert.gamma_sl, 0.5)
        for fn in (estimate_mfc1, estimate_sl, estimate_slhg):
            with pytest.raises(ZeroDivisionError):
                fn(nominal_params, cert, (0.5, 0.0), (0.5, 0.0))

    def test_small_gamma_absent(self, table_params, cert):
        # gamma below the damping threshold leaves a negative inner radicand
        weak = dataclasses.replace(cert, gamma_mfc=0.01)
        est = estimate_mfc1(table_params, weak, (0.75, 0.0), (0.75, 0.0))
        assert est.radius_aux is None and est.reason is not None

    def test_mfc2_benchmark(self, table_params, cert, scenario1):
        ref = float(np.linalg.norm(scenario1["x_s_mfc"]))
        r, reason = r_mfc2(table_params, cert.gamma_mfc, ref, 632.8125, 1000.0, cert.lambda_min)
        assert reason is None
        c_tilde = cert.lambda_min * r * r
        assert c_tilde == pytest.approx(9.2, rel=0.01)
        assert 632.8125 + c_tilde == pytest.approx(642.045, rel=0.01)

    def test_mfc2_degenerates_to_high_gain_radius(self, table_params, cert, scenario1):
        from mfcert.synthesis import gamma_mfc as gm

        ref = float(np.linalg.norm(scenario1["x_s_mfc"]))
        gamma_limit = gm(cert.epsilon, 1e12, cert.P)
        r2, _ = r_mfc2(table_params, gamma_limit, ref, 0.0, 1e12, cert.lambda_min)
        r_hg, _ = aux_radius(table_params, cert.gamma_slhg, ref)
        assert r2 == pytest.approx(r_hg, abs=1e-6)

    def test_mfc2_budget_exceeded_absent(self, table_params, cert, scenario1):
        ref = float(np.linalg.norm(scenario1["x_s_mfc"]))
        budget = c_star_budget(table_params, cert.gamma_mfc, ref, 1000.0, cert.lambda_min)
        r, reason = r_mfc2(
            table_params, cert.gamma_mfc, ref, budget * 1.0001, 1000.0, cert.lambda_min
        )
        assert r is None and reason == REASON_CSTAR

    def test_sl_benchmark(self, table_params, cert, scenario1):
        r, reason = aux_radius(
            table_params, cert.gamma_sl, float(np.linalg.norm(scenario1["x_s_sl"]))
        )
        assert reason is None
        assert cert.lambda_min * r * r == pytest.approx(0.75, rel=0.02)

    def test_slhg_benchmark(self, table_params, cert, scenario1):
        r, reason = aux_radius(
            table_params, cert.gamma_slhg, float(np.linalg.norm(scenario1["x_s_mfc"]))
        )
        assert reason is None
        assert cert.lambda_min * r * r == pytest.approx(14.74, rel=0.01)

    def test_sl_invalid_for_far_steady_state(self, table_params, cert):
        # scenario-2 single-loop equilibrium is too far out for the plain bound
        r, reason = aux_radius(table_params, cert.gamma_sl, 5.983)
        assert r is None and reason == REASON_RADICAND


class TestCompareLevels:
    def test_benchmark(self, table_params, cert, scenario1):
        ref = float(np.linalg.norm(scenario1["x_s_mfc"]))
        c1t, c2t, diff = compare_levels(
            632.8125, table_params, cert.gamma_mfc, ref, 1000.0, cert.lambda_min
        )
        assert c2t == pytest.approx(9.23, rel=0.01)
        assert diff > 0

    def test_zero_c_star_reduction(self, table_params, cert, scenario1):
        ref = float(np.linalg.norm(scenario1["x_s_mfc"]))
        ra, _ = aux_radius(table_params, cert.gamma_mfc, ref)
        c1t, c2t, diff = compare_levels(
            0.0, table_params, cert.gamma_mfc, ref, 1000.0, cert.lambda_min
        )
        assert diff == pytest.approx(cert.lambda_min * ra * ra / 2.0, rel=1e-12)

    def test_over_budget_c_star_rejected(self, table_params, cert, scenario1):
        ref = float(np.linalg.norm(scenario1["x_s_mfc"]))
        budget = c_star_budget(table_params, cert.gamma_mfc, ref, 1000.0, cert.lambda_min)
        with pytest.raises(ValueError, match=REASON_CSTAR):
            compare_levels(
                2.0 * budget, table_params, cert.gamma_mfc, ref, 1000.0, cert.lambda_min
            )

    def test_split_route_dominates_on_random_draws(self, cert):
        rng = np.random.default_rng(30)
        checked = 0
        while checked < 1000:
            p = MsdParams(
                k=rng.uniform(0.5, 3.0), c_d=rng.uniform(0.1, 1.0),
                alpha=rng.uniform(0.1, 1.5), m=rng.uniform(0.5, 2.0), g0=9.81,
                dk=rng.uniform(-0.3, -0.01), dc_d=rng.uniform(0.0, 0.2),
                dalpha=rng.uniform(-0.3, -0.01),
            )
            gamma = rng.uniform(1.0, 30.0)
            ref = rng.uniform(0.0, 1.5)
            vth = rng.uniform(1.0 + 1e-6, 5000.0)
            lam = rng.uniform(0.05, 1.0)
            ra, reason = aux_radius(p, gamma, ref)
            if ra is None:
                continue
            cs = rng.uniform(0.0, vth * lam * ra * ra)
            _, _, diff = compare_levels(cs, p, gamma, ref, vth, lam)
            assert diff > 0
            checked += 1


class TestEllipseGeometry:
    def test_unit_circle(self):
        pts = ellipse_boundary(np.eye(2), 1.0, (0.0, 0.0), 4)
        assert pts == pytest.approx(
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), abs=1e-12
        )

    def test_boundary_satisfies_quadratic_form(self, cert, table_params, scenario1):
        est = estimate_sl(table_params, cert, scenario1["x_s_sl"], scenario1["x_d"])
        pts = est.boundary()
        Q, level, center = est.physical_shape()
        diffs = pts - center
        vals = np.einsum("ki,ij,kj->k", diffs, Q, diffs)
        assert np.max(np.abs(vals - level)) <= 1e-9 * level

    def test_split_set_center_and_membership(self, cert, table_params, scenario1):
        est = estimate_mfc2(
            table_params, cert, scenario1["x_s_mfc"], scenario1["x_d"], (0.0, 0.0)
        )
        assert est.center == pytest.approx([2.96e-4, 0.0], abs=2e-6)
        pts = est.boundary()
        for pt in pts:
            v = est.lyapunov_value(pt, (0.0, 0.0))
            assert v == pytest.approx(est.c_star + est.c_tilde, rel=1e-9)

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            ellipse_boundary(np.eye(2), 0.0, (0.0, 0.0), 8)

    def test_scaled_frame_round_trip(self, cert, table_params, scenario1):
        est = estimate_slhg(table_params, cert, scenario1["x_s_mfc"], scenario1["x_d"])
        theta = np.linspace(0, 2 * np.pi, 17)
        z = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        physical = np.asarray(est.x_s) + z @ est.d_matrix().T
        back = (physical - np.asarray(est.x_s)) @ est.d_inv().T
        assert np.max(np.abs(back - z)) <= 1e-12


class TestMonotonicity:
    def test_level_decreases_with_c_star(self, table_params, cert, scenario1):
        ref = float(np.linalg.norm(scenario1["x_s_mfc"]))
        budget = c_star_budget(table_params, cert.gamma_mfc, ref, 1000.0, cert.lambda_min)
        levels = []
        for cs in np.linspace(0.0, budget * 0.999, 100):
            r, _ = r_mfc2(table_params, cert.gamma_mfc, ref, cs, 1000.0, cert.lambda_min)
            levels.append(cert.lambda_min * r * r)
        assert all(a >= b - 1e-12 for a, b in zip(levels, levels[1:]))

    def test_level_increases_with_gamma(self, table_params, cert, scenario1):
        ref = float(np.linalg.norm(scenario1["x_s_mfc"]))
        levels = []
        for gamma in np.linspace(5.0, cert.gamma_mfc, 100):
            r, _ = r_mfc2(table_params, gamma, ref, 100.0, 1000.0, cert.lambda_min)
            levels.append(None if r is None else cert.lambda_min * r * r)
        valid = [v for v in levels if v is not None]
        assert all(a <= b + 1e-12 for a, b in zip(valid, valid[1:]))


class TestEstimateBuilders:
    def test_scenario1_all_valid(self, table_params, cert, scenario1):
        ests = [
            estimate_mfc1(table_params, cert, scenario1["x_s_mfc"], scenario1["x_d"]),
            estimate_mfc2(table_params, cert, scenario1["x_s_mfc"], scenario1["x_d"], (0.0, 0.0)),
            estimate_sl(table_params, cert, scenario1["x_s_sl"], scenario1["x_d"]),
            estimate_slhg(table_params, cert, scenario1["x_s_mfc"], scenario1["x_d"]),
        ]
        assert all(e.valid for e in ests)
        assert {e.kind for e in ests} == {"MFC1", "MFC2", "SL", "SLHG"}

    def test_invalid_estimate_reports_reason(self, table_params, cert, scenario1):
        est = estimate_sl(table_params, cert, np.array([5.983, 0.0]), scenario1["x_d"])
        assert not est.valid
        assert est.level is None
        assert est.reason == REASON_RADICAND
        with pytest.raises(ValueError):
            est.boundary()

    def test_perturbed_benchmark_states_inside_split_set(self, table_params, cert, scenario1):
        est = estimate_mfc2(
            table_params, cert, scenario1["x_s_mfc"], scenario1["x_d"], (0.0, 0.0)
        )
        for x0 in ((0.1, -8.0), (-0.25, 6.0)):
            assert est.contains(np.array(x0), np.array([0.0, 0.0]))


@pytest.fixture(scope="module")
def sweep(table_params, cert, scenario1):
    return mfc2_region_sweep(table_params, cert, scenario1["x_s_mfc"], 632.8125)


class TestRegionSweep:
    def test_vertices_on_union_boundary(self, sweep, scenario1):
        center = scenario1["x_s_mfc"]
        for polygon, contains in (
            (sweep.green, sweep.green_contains),
            (sweep.grey, sweep.grey_contains),
        ):
            assert bool(np.all(contains(polygon)))
            outward = center + 1.01 * (polygon - center)
            assert not np.any(contains(outward))

    def test_degenerate_sweep_is_single_ellipse(self, table_params, cert, scenario1):
        region = mfc2_region_sweep(table_params, cert, scenario1["x_s_mfc"], 0.0)
        est = estimate_mfc2(
            table_params, cert, scenario1["x_s_mfc"], scenario1["x_d"],
            tuple(scenario1["x_d"]),
        )
        Q, level, center = est.physical_shape()
        diffs = region.green - center
        vals = np.einsum("ki,ij,kj->k", diffs, Q, diffs)
        assert np.max(np.abs(vals - level)) <= 1e-3 * level

    def test_union_dominates_high_gain_ellipse(self, sweep, table_params, cert, scenario1):
        est = estimate_slhg(table_params, cert, scenario1["x_s_mfc"], scenario1["x_d"])
        Q, level, _ = est.physical_shape()
        slhg_area = math.pi * level / math.sqrt(np.linalg.det(Q))
        assert polygon_area(sweep.green) >= slhg_area
        assert polygon_area(sweep.grey) >= polygon_area(sweep.green)
