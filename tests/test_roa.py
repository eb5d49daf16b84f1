import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mfcert import (
    MsdParams,
    aux_radius,
    c_star,
    compare_levels,
    config,
    estimate_mfc1,
    estimate_mfc2,
    estimate_sl,
    estimate_slhg,
    mfc2_region_sweep,
    mfc_equilibria,
    r_mfc2,
    roa,
    single_loop_equilibria,
)
from mfcert.roa import (
    BOUNDARY_POINTS,
    REASON_CSTAR,
    REASON_DAMPING,
    REASON_RADICAND,
    SWEEP_RAYS,
    RoaEstimate,
    _level,
    c_star_budget,
)
from mfcert.falsify import sample_in_set
from mfcert.synthesis import time_scaling


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

    def test_preset_levels_are_exact_one_at_a_time_and_batched(self, cert):
        assert c_star(1000.0, cert.P, (-0.75, 0.0)) == 632.8125
        assert c_star(1000.0, cert.P, (-2.0, 0.0)) == 4500.0
        batch = c_star(1000.0, cert.P, np.array([[-0.75, 0.0], [-2.0, 0.0]]))
        assert batch.tolist() == [632.8125, 4500.0]

    @pytest.mark.parametrize("vartheta", [1.5, 100.0, 1000.0, 1e4])
    def test_batch_is_per_row_bit_for_bit(self, cert, vartheta):
        rng = np.random.Generator(np.random.PCG64(5))
        e0 = rng.normal(size=(3, 40, 2)) * 10.0 ** rng.uniform(-3, 3, size=(3, 40, 1))
        batch = c_star(vartheta, cert.P, e0)
        assert batch.shape == (3, 40)
        rows = np.array([[c_star(vartheta, cert.P, e) for e in block] for block in e0])
        assert batch.tobytes() == rows.tobytes()

    def test_non_finite_row_is_named(self, cert):
        e0 = np.zeros((5, 2))
        e0[3] = (1e200, 0.0)
        with pytest.raises(ArithmeticError, match=r"e0 = \[1e\+200, 0\.0\] in row \(3,\)"):
            c_star(1000.0, cert.P, e0)
        with pytest.raises(ArithmeticError, match=r"c_star = inf for e0 = \[1e\+200, 0\.0\]$"):
            c_star(1000.0, cert.P, e0[3])

    @pytest.mark.parametrize("e0", [(1.0, 0.0, 2.0), np.zeros((4, 3)), 1.0, np.zeros((2, 1))])
    def test_model_error_has_two_components(self, cert, e0):
        with pytest.raises(ValueError, match="has 2 components"):
            c_star(1000.0, cert.P, e0)


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

    @pytest.mark.parametrize("dk, gamma, ref_norm, expected", [
        (1.0, 0.75, 0.0, (None, REASON_DAMPING)),  # inner = 0.75^2 - 0.75^2 = 0
        (1.0, 1.25, 0.0, (0.0, None)),  # core = (sqrt(1) - 1) / 1 - 0 = 0
        (0.25, 1.25, 1.0, (0.0, None)),  # r = sqrt((1 - 0.25) / 0.25 - 0.75) - 1.5 = 0
    ], ids=["inner", "core", "radius"])
    def test_each_comparison_at_exactly_zero(self, dk, gamma, ref_norm, expected):
        # a zero inner radicand has no radius; a zero radicand or radius is a point set
        p = MsdParams(k=1, c_d=1, alpha=1, m=1, g0=0, dk=dk, dc_d=0.75)
        assert aux_radius(p, gamma, ref_norm) == expected

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
        pts = roa._on_ellipse(roa._inv_sqrt(np.eye(2)), roa._unit_circle(4), 1.0, (0.0, 0.0))
        assert pts == pytest.approx(
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), abs=1e-12
        )

    @pytest.mark.parametrize("name, points", [("_BOUNDARY_CIRCLE", BOUNDARY_POINTS),
                                              ("_SWEEP_CIRCLE", SWEEP_RAYS)])
    def test_fixed_circles_are_read_only_fresh_builds(self, name, points):
        circle = getattr(roa, name)
        assert circle.shape == (points, 2)
        assert circle.tobytes() == _unit_circle(points).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            circle[0, 0] = 2.0

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

    def test_unknown_kind_rejected(self, cert):
        with pytest.raises(ValueError, match="MFC3"):
            RoaEstimate(kind="MFC3", level=1.0, radius_aux=1.0, x_d=(0.75, 0.0),
                        x_s=(0.75, 0.0), P=cert.P, vartheta=cert.vartheta,
                        epsilon=cert.epsilon)

    @pytest.mark.parametrize("x_d, x_s", [((0.75, 0.1), (0.75, 0.0)),
                                          ((0.75, 0.0), (0.75, -0.1))])
    def test_frame_centres_must_rest(self, cert, x_d, x_s):
        # V measures e* and z from (y_d, 0) and (x_s1, 0); a moving centre is refused
        with pytest.raises(ValueError, match="rest"):
            RoaEstimate(kind="SLHG", level=1.0, radius_aux=1.0, x_d=x_d, x_s=x_s, P=cert.P,
                        vartheta=cert.vartheta, epsilon=cert.epsilon)

    @pytest.mark.parametrize("kind", ["MFC1", "MFC2", "SL", "SLHG"])
    def test_frame_map_round_trip(self, table_params, cert, scenario1, kind):
        """V of x* = x_d + e*, x = x_s + e* + D z is vartheta e*'P e* + z'P z."""
        x_s = scenario1["x_s_sl" if kind == "SL" else "x_s_mfc"]
        args = (table_params, cert, x_s, scenario1["x_d"])
        est = {"MFC1": lambda: estimate_mfc1(*args),
               "MFC2": lambda: estimate_mfc2(*args, (0.0, 0.0)),
               "SL": lambda: estimate_sl(*args),
               "SLHG": lambda: estimate_slhg(*args)}[kind]()
        rng = np.random.default_rng(0)
        z = rng.normal(size=(50, 2))
        e_star = rng.normal(size=(50, 2)) if est.controller == "MFC" else np.zeros(2)
        x_star, x = est.to_physical(e_star, z)
        expected = np.einsum("ki,ij,kj->k", z, cert.P, z)
        if est.controller == "MFC":
            expected += cert.vartheta * np.einsum("ki,ij,kj->k", e_star, cert.P, e_star)
        assert est.lyapunov_value(x, x_star) == pytest.approx(expected, rel=1e-9)
        if kind == "SL":
            assert np.array_equal(est.d_matrix(), np.eye(2))

    def test_perturbed_benchmark_states_inside_split_set(self, table_params, cert, scenario1):
        est = estimate_mfc2(
            table_params, cert, scenario1["x_s_mfc"], scenario1["x_d"], (0.0, 0.0)
        )
        for x0 in ((0.1, -8.0), (-0.25, 6.0)):
            assert est.contains(np.array(x0), np.array([0.0, 0.0]))


@pytest.fixture(scope="module")
def split_set(table_params, cert, scenario1):
    return estimate_mfc2(table_params, cert, scenario1["x_s_mfc"], scenario1["x_d"], (0.0, 0.0))


@pytest.fixture(scope="module")
def sweep(table_params, cert, split_set):
    return mfc2_region_sweep(table_params, cert, split_set)


def polygon_area(polygon):
    """Shoelace area of a closed polygon given as ordered vertices."""
    x, y = polygon[:, 0], polygon[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


#: The sweep's inward nudge of each vertex offset.
NUDGE = 1.0 - 1e-9


def _unit_circle(count):
    theta = 2.0 * math.pi * np.arange(count) / count
    return np.stack([np.cos(theta), np.sin(theta)], axis=1)


def _supports(est, dirs):
    """h1(u) = max of u'v over the unit ball B_P of P, and h2(u) = that over D B_P."""
    S_inv = np.linalg.cholesky(np.linalg.inv(est.P))  # B_P = S_inv (unit disc)
    return (np.linalg.norm(dirs @ S_inv, axis=1),
            np.linalg.norm(dirs @ est.d_matrix() @ S_inv, axis=1))


def _scales(cert, region):
    """s, rho and R of the sweep: the green model start's, the green members' and the
    grey region's radii in the norm of P."""
    vth = cert.vartheta
    return (math.sqrt(region.c_star_level / vth), math.sqrt(region.c_tilde_level),
            math.sqrt(region.c_star_max / vth))


class TestRegionSweep:
    def test_vertices_on_union_boundary(self, sweep, table_params, cert, split_set, scenario1):
        """Each vertex lies in the member of one model start, and pushed 1% outward
        it lies in no sampled member."""
        center = scenario1["x_s_mfc"]
        _, Q, green, grey = _fans(table_params, cert, split_set)
        for polygon, (centers, thresholds), which in (
                (sweep.green, green, "green"), (sweep.grey, grey, "grey")):
            e_star = _witnesses(cert, split_set, sweep, which)
            assert np.all(_in_members(table_params, cert, split_set, polygon, e_star))
            outward = center + 1.01 * (polygon - center)
            diffs = outward[:, None, :] - centers[None, :, :]
            vals = np.einsum("kmi,ij,kmj->km", diffs, Q, diffs)
            assert not np.any(vals <= thresholds[None, :])

    def test_degenerate_sweep_is_single_ellipse(self, table_params, cert, scenario1):
        est = estimate_mfc2(
            table_params, cert, scenario1["x_s_mfc"], scenario1["x_d"],
            tuple(scenario1["x_d"]),
        )
        assert est.c_star == 0.0
        region = mfc2_region_sweep(table_params, cert, est)
        Q, level, center = est.physical_shape()
        diffs = region.green - center
        vals = np.einsum("ki,ij,kj->k", diffs, Q, diffs)
        assert np.max(np.abs(vals - level)) <= 1e-3 * level
        assert region.green_area == pytest.approx(
            math.pi * level / math.sqrt(np.linalg.det(Q)), rel=1e-12)

    def test_union_dominates_high_gain_ellipse(self, sweep, table_params, cert, scenario1):
        est = estimate_slhg(table_params, cert, scenario1["x_s_mfc"], scenario1["x_d"])
        Q, level, _ = est.physical_shape()
        slhg_area = math.pi * level / math.sqrt(np.linalg.det(Q))
        assert polygon_area(sweep.green) >= slhg_area
        assert polygon_area(sweep.grey) >= polygon_area(sweep.green)
        assert sweep.grey_area >= sweep.green_area >= slhg_area

    def test_rejects_over_budget_split_set(self, table_params, cert, scenario1):
        est = estimate_mfc2(
            table_params, cert, scenario1["x_s_mfc"], scenario1["x_d"], (-5.0, 0.0)
        )
        assert est.reason == REASON_CSTAR
        with pytest.raises(ValueError, match=REASON_CSTAR):
            mfc2_region_sweep(table_params, cert, est)

    def test_rejects_other_kinds(self, table_params, cert, scenario1):
        for est in (
            estimate_mfc1(table_params, cert, scenario1["x_s_mfc"], scenario1["x_d"]),
            estimate_slhg(table_params, cert, scenario1["x_s_mfc"], scenario1["x_d"]),
        ):
            assert est.valid
            with pytest.raises(ValueError, match="MFC2"):
                mfc2_region_sweep(table_params, cert, est)


def _sweep_case(name):
    """Plant, certificate and MFC2 estimate of a preset."""
    cfg = config.preset(name)
    design = cfg.design
    return cfg.plant, design.cert, design.estimates["MFC2"]


def _budget(p, cert, est):
    return c_star_budget(p, cert.gamma_mfc, float(np.linalg.norm(est.x_s)),
                         cert.vartheta, cert.lambda_min)


def _at_budget(p, cert, est):
    """The MFC2 estimate whose model start, on the ray of est's, is scaled to the budget."""
    e0 = np.asarray(est.x0_star) - np.asarray(est.x_d)
    scale = math.sqrt(_budget(p, cert, est) / est.c_star)
    return estimate_mfc2(p, cert, est.x_s, est.x_d, np.asarray(est.x_d) + scale * e0)


def _ring_level(p, cert, x_s, cs):
    """lambda_min r^2 of the split radius at c_star = cs; 0 where r rounds below 0."""
    r, _ = r_mfc2(p, cert.gamma_mfc, float(np.linalg.norm(x_s)), cs,
                  cert.vartheta, cert.lambda_min)
    return 0.0 if r is None else _level(cert.lambda_min, r)


def _fans(p, cert, est, samples=360, levels=17, rays=SWEEP_RAYS):
    """Ray fan and the sampled green and grey members, one ``roa._on_ellipse`` per ring:
    ``samples`` model starts on the estimate's c_star ellipse, and samples // 4 on each of
    ``levels`` c_star ellipses from 0 to the budget, at the levels of r_mfc2."""
    x_s = np.asarray(est.x_s, dtype=float)
    vth = cert.vartheta
    Dinv = np.diag(time_scaling(1.0 / cert.epsilon, len(x_s)))
    Q = Dinv @ np.asarray(cert.P) @ Dinv

    def members(c_stars, count):
        S, circle = roa._inv_sqrt(cert.P), roa._unit_circle(count)
        rings = [x_s[None, :] if cs == 0.0 else roa._on_ellipse(S, circle, cs / vth, x_s)
                 for cs in map(float, c_stars)]
        thresholds = [np.full(len(pts), _ring_level(p, cert, x_s, cs))
                      for pts, cs in zip(rings, map(float, c_stars))]
        return np.concatenate(rings), np.concatenate(thresholds)

    green = members([est.c_star], samples)
    grey = members(np.linspace(0.0, _budget(p, cert, est), levels), samples // 4)
    return _unit_circle(rays), Q, green, grey


def _sampled_union(dirs, Q, centroid, centers, thresholds, block=48):
    """Outer boundary of the sampled members on a ray fan from the centroid.

    Along a ray each member ellipse is an exact interval (its quadratic form is
    quadratic in the ray parameter); the vertex is the largest interval end.  A
    member the ray misses gives a NaN root, which fmax skips; a ray meeting none
    gets 0.  Rays go in blocks, so the (rays, members) arrays stay small.
    """
    alpha = np.einsum("ri,ij,rj->r", dirs, Q, dirs)
    diff = centroid - centers
    q_diff = Q @ diff.T
    gamma = np.einsum("mi,ij,mj->m", diff, Q, diff) - thresholds
    extent = np.empty(len(dirs))
    for lo in range(0, len(dirs), block):
        rays = slice(lo, lo + block)
        beta = 2.0 * dirs[rays] @ q_diff
        with np.errstate(invalid="ignore"):
            roots = np.sqrt(beta * beta - 4.0 * alpha[rays, None] * gamma) - beta
        extent[rays] = np.fmax.reduce(roots, axis=1) / (2.0 * alpha[rays])
    return centroid + np.fmax(extent, 0.0)[:, None] * dirs


def _in_members(p, cert, est, x, e_star):
    """Whether each x lies in the member at model error e*: the split set's process
    slice about x_s + e*, at the level of r_mfc2 at c_star = vartheta e*' P e*."""
    x_s = np.asarray(est.x_s)
    Q, _, _ = est.physical_shape()
    c_stars = cert.vartheta * np.einsum("ki,ij,kj->k", e_star, est.P, e_star)
    levels = np.array([_ring_level(p, cert, x_s, float(cs)) for cs in c_stars])
    diffs = x - x_s - e_star
    return np.einsum("ki,ij,kj->k", diffs, Q, diffs) <= levels


def _witnesses(cert, est, region, which):
    """The model error of a member holding each vertex of the green or grey polygon.

    Green: e* = s P^-1 u / h1 on the c_star ellipse; where c_tilde is 0 its members
    are points, and the nudged vertex's own offset is used, as on a grey B_P arc.
    Grey: the vertex offset on an arc of B_P (z = 0), and 0 on an arc of D B_P.
    """
    dirs = _unit_circle(SWEEP_RAYS)
    x_s = np.asarray(est.x_s)
    h1, h2 = _supports(est, dirs)
    s, _, _ = _scales(cert, region)
    if which == "green":
        if region.c_tilde_level == 0.0:
            return region.green - x_s
        return s * (dirs @ np.linalg.inv(est.P)) / h1[:, None]
    return np.where((h1 >= h2)[:, None], region.grey - x_s, 0.0)


CASES = [("scenario1", "preset"), ("scenario2", "preset"),
         ("scenario1", "zero"), ("scenario2", "budget")]


@pytest.fixture(scope="module", params=CASES, ids=["-".join(case) for case in CASES])
def swept(request):
    """A preset's plant, certificate, MFC2 estimate and sweep: at the preset's model
    start, at c_star 0, or at the budget (c_tilde 0)."""
    name, level = request.param
    p, cert, est = _sweep_case(name)
    if level == "zero":
        est = estimate_mfc2(p, cert, est.x_s, est.x_d, est.x_d)
        assert est.c_star == 0.0
    elif level == "budget":
        est = _at_budget(p, cert, est)
        assert est.valid and est.c_tilde == 0.0
    return p, cert, est, mfc2_region_sweep(p, cert, est)


class TestClosedForm:
    """The closed-form sweep against the sampled union it replaces, and against
    quadratures of its support functions."""

    def test_sampled_members_lie_within_the_exact_support(self, swept):
        # a member's support is the largest u'x over its points, u'(c - x_s) + sqrt(t) h2
        p, cert, est, region = swept
        x_s = np.asarray(est.x_s)
        dirs, Q, green, grey = _fans(p, cert, est)
        member_h = np.sqrt(np.einsum("ri,ij,rj->r", dirs, np.linalg.inv(Q), dirs))
        for polygon, (centers, thresholds) in ((region.green, green), (region.grey, grey)):
            support = np.einsum("ri,ri->r", dirs, polygon - x_s) / NUDGE
            members = (centers - x_s) @ dirs.T + np.sqrt(thresholds)[:, None] * member_h
            assert np.all(members <= support + 1e-12 * support.max())

    def test_sampled_areas_fall_short_and_a_denser_sample_comes_closer(self, swept):
        p, cert, est, region = swept
        x_s = np.asarray(est.x_s, dtype=float)
        gaps = []
        for samples, levels in ((360, 17), (720, 33)):
            dirs, Q, green, grey = _fans(p, cert, est, samples, levels, rays=samples)
            gaps.append([exact - polygon_area(_sampled_union(dirs, Q, x_s, *members))
                         for exact, members in ((region.green_area, green),
                                                (region.grey_area, grey))])
        (green, grey), (denser_green, denser_grey) = gaps
        assert green >= 0.0 and grey > 0.0
        assert 0.0 <= denser_green <= green and 0.0 < denser_grey < grey
        if region.c_tilde_level > 0.0:  # at the budget the green members are points
            assert denser_green < green

    def test_vertices_lie_in_their_witness_members(self, swept):
        p, cert, est, region = swept
        x_s = np.asarray(est.x_s)
        for polygon, which in ((region.green, "green"), (region.grey, "grey")):
            e_star = _witnesses(cert, est, region, which)
            assert np.all(_in_members(p, cert, est, polygon, e_star))
            outward = x_s + 1.01 * (polygon - x_s)
            assert not np.any(_in_members(p, cert, est, outward, e_star))

    def test_vertices_pushed_outward_leave_the_region(self, swept):
        p, cert, est, region = swept
        x_s = np.asarray(est.x_s)
        dirs = _unit_circle(SWEEP_RAYS)
        h1, h2 = _supports(est, dirs)
        s, rho, R = _scales(cert, region)
        for polygon, support in ((region.green, s * h1 + rho * h2),
                                 (region.grey, R * np.maximum(h1, h2))):
            outward = x_s + 1.01 * (polygon - x_s)
            assert np.all(np.einsum("ri,ri->r", dirs, outward - x_s) > support)
            assert np.all(np.einsum("ri,ri->r", dirs, polygon - x_s) <= support)

    def test_exact_areas_match_a_support_quadrature(self, swept):
        # support points on 2^17 directions: their polygon's area converges as count^-2,
        # and its edges draw the grey hull's bitangents exactly
        _, cert, est, region = swept
        dirs = _unit_circle(2**17)
        P_inv = np.linalg.inv(est.P)
        D = est.d_matrix()
        h1, h2 = _supports(est, dirs)
        v1, v2 = dirs @ P_inv / h1[:, None], dirs @ (D @ P_inv @ D) / h2[:, None]
        s, rho, R = _scales(cert, region)
        green = s * v1 + rho * v2
        grey = R * np.where((h1 >= h2)[:, None], v1, v2)
        assert region.green_area == pytest.approx(polygon_area(green), rel=1e-6)
        assert region.grey_area == pytest.approx(polygon_area(grey), rel=1e-6)

    def test_headline_area_ratio(self, swept):
        # the SLHG set is about epsilon (0.1) of the grey region on both presets
        p, cert, est, region = swept
        slhg = estimate_slhg(p, cert, est.x_s, est.x_d)
        Q, level, _ = slhg.physical_shape()
        ratio = math.pi * level / math.sqrt(np.linalg.det(Q)) / region.grey_area
        assert ratio == pytest.approx(0.0998, abs=0.0002)


class TestSplitMembership:
    """``contains`` keeps c_tilde where the level c_star + c_tilde rounds it away."""

    @pytest.mark.parametrize("name", ["scenario1", "scenario2"])
    def test_grey_vertices_lie_in_the_set_of_their_own_model_start(self, name):
        # on a B_P arc a grey vertex's offset is its member's model error (z = 0), and
        # that member's c_star is the budget less the nudge, so c_tilde is about 1e-17
        p, cert, est = _sweep_case(name)
        region = mfc2_region_sweep(p, cert, est)
        h1, h2 = _supports(est, _unit_circle(SWEEP_RAYS))
        x_s, x_d = np.asarray(est.x_s), np.asarray(est.x_d)
        vertices = region.grey[h1 >= h2]
        assert len(vertices) == 250
        for vertex in vertices:
            start = x_d + (vertex - x_s)
            member = estimate_mfc2(p, cert, est.x_s, est.x_d, start)
            outward = x_s + 1.01 * (vertex - x_s)
            assert member.valid and member.c_tilde < 1e-12 * member.c_star
            assert member.contains(vertex, start)
            assert not member.contains(outward, start)
        both = member.contains(np.stack([vertex, outward]), np.stack([start, start]))
        assert both.tolist() == [True, False]

    @pytest.mark.parametrize("name", ["scenario1", "scenario2"])
    def test_a_set_on_its_budget_contains_its_centre(self, name):
        # c_tilde is 0, so the slice is one point: z = 0 at the set's own model start
        p, cert, est = _sweep_case(name)
        at = _at_budget(p, cert, est)
        assert at.valid and at.c_tilde == 0.0
        assert at._value(0.0, at.center, at.x0_star) == 0.0
        assert at.contains(at.center, at.x0_star)
        assert at.contains(at.center[None], np.array([at.x0_star])).tolist() == [True]


class TestCentre:
    def test_centre_is_the_point_the_sampler_adds_d_z_to(self):
        # x0_star + (x_s - x_d) and x_s + (x0_star - x_d) differ in x1's last bit here
        cfg = config.parse_config({**config.preset("scenario1").to_dict(),
                                   "x0_star": [-0.9, 0.0]})
        est = cfg.design.estimates["MFC2"]
        assert est.valid
        e_star = np.subtract(est.x0_star, est.x_d)
        assert est.center.tobytes() == est.to_physical(e_star, np.zeros(2))[1].tobytes()
        assert est.boundary().mean(axis=0) == pytest.approx(est.center, abs=1e-12)


def _preset_sets(name):
    return {k: est for k, est in config.preset(name).design.estimates.items() if est.valid}


class TestOneLevelRule:
    """``c_star`` is V's model term, so ``contains`` tests a batch by one rule."""

    @pytest.mark.parametrize("name", ["scenario1", "scenario2"])
    def test_v_is_c_star_plus_process_bytes(self, name):
        sets = {k: est for k, est in _preset_sets(name).items() if k in ("MFC1", "MFC2")}
        assert len(sets) == 2
        for est in sets.values():
            x, x_star = sample_in_set(est, 500, seed=0)
            v = est.lyapunov_value(x, x_star)
            model = c_star(est.vartheta, est.P, x_star - np.asarray(est.x_d))
            assert v.tobytes() == (model + est._value(0.0, x, x_star)).tobytes()

    @pytest.mark.parametrize("name", ["scenario1", "scenario2"])
    def test_batched_contains_is_per_row(self, name):
        sets = _preset_sets(name)
        # every set's own starts and the same pushed 1.5 times as far from its centre,
        # tested against every set: members and non-members of each
        xs, x_stars = [], []
        for est in sets.values():
            x, x_star = sample_in_set(est, 60, seed=1)
            x_d, x_s = np.asarray(est.x_d), np.asarray(est.x_s)
            xs += [x, x_s + 1.5 * (x - x_s)]
            x_stars += [x_star, x_d + 1.5 * (x_star - x_d)]
        x, x_star = np.concatenate(xs), np.concatenate(x_stars)
        for est in sets.values():
            model = x_star if est.controller == "MFC" else None
            batch = est.contains(x, model)
            rows = [est.contains(x[i], None if model is None else model[i]) for i in range(len(x))]
            assert all(isinstance(row, bool) for row in rows)
            assert batch.tolist() == rows
            assert 0 < batch.sum() < len(x)


class TestSweepMemory:
    def test_sweep_peak_memory_bounded(self, table_params, cert, split_set):
        mfc2_region_sweep(table_params, cert, split_set)  # warm up
        tracemalloc.start()
        try:
            mfc2_region_sweep(table_params, cert, split_set)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 250_000  # about 61 kB: a few (rays, 2) arrays
