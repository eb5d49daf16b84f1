import numpy as np
import pytest

from mfcert import (
    MsdParams,
    classify_stability,
    mfc_equilibria,
    mfc_steady_polynomial,
    msd_phi,
    multiplicity_transition,
    single_loop_equilibria,
    sl_steady_polynomial,
    solve_cubic,
)
from mfcert.steady_state import _select, sl_root_sweep


def _scan_roots(coeffs, lo=-100.0, hi=100.0, n=2_000_001):
    """Brute-force sign-change root finder used as an independent oracle."""
    a3, a2, a1, a0 = coeffs
    xs = np.linspace(lo, hi, n)
    vals = ((a3 * xs + a2) * xs + a1) * xs + a0
    roots = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0)[0]:
        a, b = xs[i], xs[i + 1]
        fa = ((a3 * a + a2) * a + a1) * a + a0
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = ((a3 * mid + a2) * mid + a1) * mid + a0
            if fa * fm <= 0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    merged = []
    for r in sorted(roots):
        if merged and abs(r - merged[-1]) < 1e-6:
            continue
        merged.append(r)
    return merged


class TestSolveCubic:
    def test_simple_symmetric(self):
        assert solve_cubic((1.0, 0.0, -1.0, 0.0)) == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)

    def test_three_integer_roots(self):
        assert solve_cubic((1.0, -6.0, 11.0, -6.0)) == pytest.approx([1.0, 2.0, 3.0], abs=1e-9)

    def test_single_root_case(self):
        coeffs = (0.147, 0.0, -3.925, 8.0)
        roots = solve_cubic(coeffs)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(-5.99, abs=0.02)
        oracle = _scan_roots(coeffs)
        assert len(oracle) == 1
        assert roots[0] == pytest.approx(oracle[0], abs=1e-7)

    def test_double_root_collapsed(self):
        # x (x - 1)^2
        assert solve_cubic((1.0, -2.0, 1.0, 0.0)) == pytest.approx([0.0, 1.0], abs=1e-7)

    def test_quadratic_fallback(self):
        assert solve_cubic((0.0, 1.0, -3.0, 2.0)) == pytest.approx([1.0, 2.0], abs=1e-12)
        assert solve_cubic((0.0, 1.0, 0.0, 1.0)) == []

    def test_linear_fallback(self):
        assert solve_cubic((0.0, 0.0, 2.0, -4.0)) == pytest.approx([2.0], abs=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            solve_cubic((0.0, 0.0, 0.0, 0.0))

    def test_residuals_on_random_cubics(self):
        rng = np.random.default_rng(20)
        for _ in range(500):
            coeffs = rng.normal(size=4)
            coeffs[0] = np.sign(coeffs[0] or 1.0) * (abs(coeffs[0]) + 0.1)
            roots = solve_cubic(tuple(coeffs))
            bound = 1e-9 * (1.0 + np.max(np.abs(coeffs)))
            for r in roots:
                val = ((coeffs[0] * r + coeffs[1]) * r + coeffs[2]) * r + coeffs[3]
                assert abs(val) <= bound
            assert roots == sorted(roots)


class TestMfcSteadyState:
    def test_benchmark_selected_root(self, table_params, gains):
        eq = mfc_equilibria(table_params, gains, 0.75)
        # fixed-point oracle: e = phi(y_d + e) / (-k1 eps^-2)
        e = 0.0
        for _ in range(60):
            e = msd_phi(table_params, (0.75 + e, 0.0)) / 400.0
        assert eq.selected == pytest.approx(e, rel=1e-9)
        assert eq.selected == pytest.approx(2.96e-4, rel=0.05)

    def test_zero_uncertainty_unique_zero_root(self, nominal_params, gains):
        eq = mfc_equilibria(nominal_params, gains, 1.3)
        assert eq.roots == (0.0,)
        assert eq.selected == 0.0
        assert eq.stability == ("stable",)

    def test_large_setpoint_error_small(self, table_params, gains):
        eq = mfc_equilibria(table_params, gains, 2.0)
        assert abs(eq.selected) < 1e-2
        assert eq.selected == pytest.approx(
            msd_phi(table_params, (2.0 + eq.selected, 0.0)) / 400.0, rel=1e-9
        )

    def test_outer_equilibria_unstable(self, table_params, gains):
        eq = mfc_equilibria(table_params, gains, 2.0)
        assert len(eq.roots) == 3
        assert eq.stability == ("unstable", "stable", "unstable")

    def test_polynomial_requires_stabilising_gain(self, table_params):
        with pytest.raises(ValueError):
            mfc_steady_polynomial(table_params, 4.0, 0.1, 0.75)
        with pytest.raises(ValueError):
            mfc_steady_polynomial(table_params, -4.0, 0.0, 0.75)


class TestSingleLoopSteadyState:
    def test_benchmark_error(self, table_params, gains):
        eq = single_loop_equilibria(table_params, gains, 0.75)
        assert abs(eq.selected - 0.75) / 0.75 == pytest.approx(0.043, abs=0.003)
        assert eq.stability[eq.selected_index] == "stable"

    def test_scenario_two_single_unstable_root(self, table_params, gains):
        eq = single_loop_equilibria(table_params, gains, 2.0)
        assert len(eq.roots) == 1
        assert eq.selected == pytest.approx(-6.0, abs=0.05)
        assert eq.stability == ("unstable",)

    def test_high_gain_root(self, table_params, gains):
        eq = single_loop_equilibria(table_params, gains, 0.75, high_gain=True)
        assert eq.selected == pytest.approx(0.7503, abs=1e-3)

    def test_gain_sign_validated(self, table_params):
        with pytest.raises(ValueError):
            sl_steady_polynomial(table_params, 4.0, 0.75)


class TestClassifyStability:
    def test_benchmark_cases(self, table_params, gains):
        assert classify_stability(0.7822591164639632, "SL", table_params, gains) == "stable"
        assert classify_stability(-5.98303397855248, "SL", table_params, gains) == "unstable"

    def test_nominal_plant_origin_stable(self, nominal_params, gains):
        for kind in ("SL", "SLHG", "MFC"):
            assert classify_stability(0.0, kind, nominal_params, gains, y_d=0.0) == "stable"

    def test_unknown_kind_rejected(self, table_params, gains):
        with pytest.raises(ValueError):
            classify_stability(0.0, "XX", table_params, gains)


class TestInvariants:
    def test_mfc_matches_high_gain_single_loop(self, gains):
        rng = np.random.default_rng(21)
        for _ in range(200):
            p = MsdParams(
                k=rng.uniform(0.5, 3.0), c_d=rng.uniform(0.1, 1.0),
                alpha=rng.uniform(0.1, 1.5), m=rng.uniform(0.5, 2.0), g0=9.81,
                dk=rng.uniform(-0.2, 0.2), dc_d=rng.uniform(-0.1, 0.1),
                dalpha=rng.uniform(-0.2, 0.2),
            )
            y_d = rng.uniform(-1.5, 1.5)
            mfc = mfc_equilibria(p, gains, y_d)
            slhg = single_loop_equilibria(p, gains, y_d, high_gain=True)
            assert mfc.selected + y_d == pytest.approx(slhg.selected, abs=1e-9)

    def test_root_count_transition(self, table_params, gains):
        y = multiplicity_transition(table_params, gains.k_star[0])
        assert y == pytest.approx(1.95, abs=0.05)
        counts = {
            len(row["roots"])
            for row in sl_root_sweep(table_params, gains.k_star[0])
        }
        assert counts <= {1, 2, 3}

    def test_selection_tie_prefers_smaller_root(self):
        idx, tie = _select([-1.0, 1.0], 0.0)
        assert idx == 0 and tie

    def test_selection_no_tie(self):
        idx, tie = _select([-1.0, 0.5, 2.0], 0.0)
        assert idx == 1 and not tie
