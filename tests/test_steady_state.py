import json

import numpy as np
import pytest

from mfcert import (
    GainSet,
    MsdParams,
    classify_stability,
    design_gains,
    mfc_equilibria,
    mfc_steady_polynomial,
    msd_phi,
    multiplicity_transition,
    single_loop_equilibria,
    sl_steady_polynomial,
    solve_cubic,
)
from mfcert.steady_state import (
    SWEEP_STEP,
    Y_D_MAX,
    Y_D_MIN,
    _select,
    sl_root_sweep,
)
from mfcert.cli import main
from mfcert.config import preset


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

    @pytest.mark.parametrize("kind", ["sl", "Sl", "slhg", "mfc"])
    def test_kinds_are_not_case_folded(self, table_params, gains, kind):
        # ControllerSpec refuses these spellings, and so does the classification
        with pytest.raises(ValueError, match="unknown closed-loop kind"):
            classify_stability(0.0, kind, table_params, gains)

    def test_small_real_parts_are_not_marginal(self, nominal_params):
        # real parts -1e-6: far above the marginal band of rounding noise
        gains = GainSet(k_star=(-1.0, -2e-6), k_tilde=(-100.0, -2e-5), epsilon=0.1)
        assert classify_stability(0.0, "SL", nominal_params, gains) == "stable"


def _hex(values):
    return [float(v).hex() for v in values]


class TestRestState:
    @pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
    def test_each_frame_turns_its_root_into_the_rest_state(self, scenario):
        cfg = preset(scenario)
        gains = design_gains(cfg.poles, cfg.epsilon)
        mfc = mfc_equilibria(cfg.plant, gains, cfg.y_d)
        assert mfc.frame == "x_tilde_1"
        assert _hex(mfc.rest_state) == _hex((cfg.y_d + mfc.selected, 0.0))
        for high_gain in (False, True):
            eq = single_loop_equilibria(cfg.plant, gains, cfg.y_d, high_gain=high_gain)
            assert eq.frame == "x_1"
            assert _hex(eq.rest_state) == _hex((eq.selected, 0.0))


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

    @pytest.mark.parametrize("gain", ["k_star", "k_tilde"])
    def test_scans_match_per_point_reference(self, table_params, gains, gain):
        k1 = getattr(gains, gain)[0]
        rows = [
            {"y_d": float(y),
             "roots": solve_cubic(sl_steady_polynomial(table_params, k1, y))}
            for y in np.arange(Y_D_MIN, Y_D_MAX + 1e-9, SWEEP_STEP)
        ]
        sweep = sl_root_sweep(table_params, k1)
        assert repr(sweep) == repr(rows)
        fold = multiplicity_transition(table_params, k1)
        assert (fold is None) == (gain == "k_tilde")  # the high-gain fold lies past Y_D_MAX
        for row in sweep:
            below = fold is None or row["y_d"] < fold
            assert len(row["roots"]) == (3 if below else 1)
        # the 0.005-step scan that reported the grid midpoint before the closed form
        scanned, y, prev_y, prev_count = None, Y_D_MIN, None, None
        while y <= Y_D_MAX + 1e-12:
            count = len(solve_cubic(sl_steady_polynomial(table_params, k1, y)))
            if prev_count == 3 and count < 3:
                scanned = y if count == 2 else 0.5 * (prev_y + y)
                break
            prev_y, prev_count = y, count
            y += 0.005
        assert (scanned is None) == (fold is None)
        if fold is not None:
            assert abs(scanned - fold) <= 0.0025
            # at the fold itself the cubic has a double root
            assert len(solve_cubic(sl_steady_polynomial(table_params, k1, fold))) == 2

    def test_no_transition_without_cubic_term(self, tmp_path, gains):
        p = MsdParams(k=1.5, c_d=0.3, alpha=0.5, m=1.0, g0=9.81, dk=0.0, dc_d=0.06, dalpha=0.0)
        assert sl_steady_polynomial(p, gains.k_star[0], 1.0)[0] == 0.0
        assert multiplicity_transition(p, gains.k_star[0]) is None
        cfg = preset("scenario1").to_dict()
        cfg["plant"] = {**cfg["plant"], "delta_k": 0.0, "delta_alpha": 0.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["steady-state", "--config", str(path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "steady_state.json").read_text())
        assert report["sl_multiplicity_transition_y_d"] is None

    def test_no_transition_for_a_softening_plant(self, gains):
        p = MsdParams(k=1.5, c_d=0.3, alpha=0.5, m=1.0, g0=9.81,
                      dk=0.075, dc_d=0.06, dalpha=0.1)
        a3, _, a1, _ = sl_steady_polynomial(p, gains.k_star[0], 1.0)
        assert a1 / a3 > 0.0  # P > 0: a monotone cubic, one root at every set-point
        assert multiplicity_transition(p, gains.k_star[0]) is None

    def test_selection_tie_prefers_smaller_root(self):
        idx, tie = _select([-1.0, 1.0], 0.0)
        assert idx == 0 and tie

    def test_selection_no_tie(self):
        idx, tie = _select([-1.0, 0.5, 2.0], 0.0)
        assert idx == 1 and not tie


def _per_row_sweep(p, k1):
    """The root sweep as one ``solve_cubic`` call per set-point."""
    return [{"y_d": y, "roots": solve_cubic(sl_steady_polynomial(p, k1, y))}
            for y in np.arange(Y_D_MIN, Y_D_MAX + 1e-9, SWEEP_STEP).tolist()]


def _stiffening(dk):
    return MsdParams(k=1.5, c_d=0.3, alpha=0.5, m=1.0, g0=9.81,
                     dk=dk, dc_d=0.06, dalpha=0.1)


class TestRootSweepBranches:
    """The root sweep equals ``solve_cubic`` of each row's cubic by ``repr`` on its rare rows."""

    def test_triple_root_at_zero_set_point(self):
        p = _stiffening(-0.2)
        k1 = p.dk / p.m
        assert sl_steady_polynomial(p, k1, 1.0)[2] == 0.0  # a1 == 0: x^3 = 0 at y_d = 0
        sweep = sl_root_sweep(p, k1)
        assert sweep[0]["roots"] == [0.0]
        assert repr(sweep) == repr(_per_row_sweep(p, k1))

    def test_double_root_on_a_grid_point(self):
        p = _stiffening(-0.2)
        lo, hi = -0.2, 0.0  # the fold grows with k1 on this interval
        while True:
            k1 = 0.5 * (lo + hi)
            if k1 in (lo, hi):
                break
            if multiplicity_transition(p, k1) > 1.0:
                hi = k1
            else:
                lo = k1
        assert multiplicity_transition(p, k1) == pytest.approx(1.0, abs=1e-15)
        sweep = sl_root_sweep(p, k1)
        row = round(1.0 / SWEEP_STEP)
        assert sweep[row]["y_d"] == 1.0
        assert [len(r["roots"]) for r in sweep[row - 1:row + 2]] == [3, 2, 1]
        assert repr(sweep) == repr(_per_row_sweep(p, k1))

    def test_roots_closer_than_1e8_are_not_merged(self):
        # a1 is one ulp of dk/m, so at y_d = 0 the roots are 0 and +-6.9e-9
        p = _stiffening(-0.05)
        k1 = float(np.nextafter(p.dk / p.m, 0.0))
        sweep = sl_root_sweep(p, k1)
        lo, mid, hi = sweep[0]["roots"]
        assert mid == 0.0 and -1e-8 < lo < 0.0 < hi < 1e-8
        assert repr(sweep) == repr(_per_row_sweep(p, k1))

    def test_plant_without_cubic_term(self, gains):
        p = MsdParams(k=1.5, c_d=0.3, alpha=0.5, m=1.0, g0=9.81, dk=0.0, dc_d=0.06, dalpha=0.0)
        k1 = gains.k_star[0]
        assert sl_steady_polynomial(p, k1, 1.0)[0] == 0.0
        sweep = sl_root_sweep(p, k1)
        assert all(len(row["roots"]) == 1 for row in sweep)
        assert repr(sweep) == repr(_per_row_sweep(p, k1))

    def test_overflowing_cubic_raises(self):
        p = preset("scenario1").plant
        with pytest.raises(OverflowError):
            _per_row_sweep(p, -1e110)
        with pytest.raises(OverflowError):
            sl_root_sweep(p, -1e110)
