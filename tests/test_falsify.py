import json

import numpy as np
import pytest

from mfcert import (
    Box,
    ControllerSpec,
    IntegrationError,
    SetPoint,
    Trajectory,
    certify,
    design_gains,
    estimate_mfc1,
    estimate_mfc2,
    estimate_sl,
    estimate_slhg,
    falsify_roa,
    falsify_sets,
    gamma_empirical,
    lyapunov_decrease_check,
    mfc_equilibria,
    msd_plant,
    phi_lipschitz_sup,
    preset,
    sample_in_set,
    simulate_closed_loop,
    single_loop_equilibria,
)
from mfcert.falsify import DecreaseCheck
from mfcert.roa import RoaEstimate

def _inflated(est, factor):
    return RoaEstimate(
        kind=est.kind, level=factor * est.level, radius_aux=est.radius_aux,
        x_d=est.x_d, x_s=est.x_s, P=est.P, vartheta=est.vartheta, epsilon=est.epsilon,
    )


@pytest.fixture(scope="module")
def scenario1_estimates(table_params, gains, cert):
    x_d = np.array([0.75, 0.0])
    mfc = mfc_equilibria(table_params, gains, 0.75)
    sl = single_loop_equilibria(table_params, gains, 0.75)
    x_s_mfc = np.array([0.75 + mfc.selected, 0.0])
    x_s_sl = np.array([sl.selected, 0.0])
    return {
        "MFC1": estimate_mfc1(table_params, cert, x_s_mfc, x_d),
        "MFC2": estimate_mfc2(table_params, cert, x_s_mfc, x_d, (0.0, 0.0)),
        "SL": estimate_sl(table_params, cert, x_s_sl, x_d),
        "SLHG": estimate_slhg(table_params, cert, x_s_mfc, x_d),
    }


class TestSampleInSet:
    @pytest.mark.parametrize("kind", ["MFC1", "MFC2", "SL", "SLHG"])
    def test_samples_satisfy_membership(self, scenario1_estimates, kind):
        est = scenario1_estimates[kind]
        x0, x0_star = sample_in_set(est, 1000, seed=7)
        star = x0_star if x0_star is not None else [None] * len(x0)
        vals = np.array([est.lyapunov_value(x, s) for x, s in zip(x0, star)])
        assert np.all(vals <= est.level)

    def test_degenerate_level_collapses_to_center(self, scenario1_estimates):
        est = scenario1_estimates["SL"]
        tiny = RoaEstimate(
            kind="SL", level=1e-30, radius_aux=0.0, x_d=est.x_d, x_s=est.x_s,
            P=est.P, vartheta=est.vartheta, epsilon=est.epsilon,
        )
        x0, _ = sample_in_set(tiny, 10, seed=1)
        assert np.max(np.abs(x0 - np.asarray(est.x_s))) <= 1e-12

    def test_sample_mean_near_center(self, scenario1_estimates):
        est = scenario1_estimates["SL"]
        x0, _ = sample_in_set(est, 10_000, seed=3)
        # uniform ellipsoid: cov = level * P^-1 / (dim + 2)
        cov = 0.999 * est.level * np.linalg.inv(np.asarray(est.P)) / 4.0
        sigma = np.sqrt(np.diag(cov) / len(x0))
        assert np.all(np.abs(x0.mean(axis=0) - est.center) <= 3.0 * sigma)

    def test_invalid_estimate_rejected(self, table_params, cert):
        bad = estimate_sl(table_params, cert, np.array([5.983, 0.0]), np.array([2.0, 0.0]))
        with pytest.raises(ValueError):
            sample_in_set(bad, 10, seed=0)


class TestFalsifyRoa:
    def test_split_set_certified(self, scenario1_estimates, plant, gains):
        rep = falsify_roa(
            scenario1_estimates["MFC2"], plant, gains,
            count=150, horizon=10.0, h=1e-3, seed=0,
        )
        assert rep.converged == rep.samples == 150
        assert rep.violations == ()

    def test_single_loop_set_certified(self, scenario1_estimates, plant, gains):
        rep = falsify_roa(
            scenario1_estimates["SL"], plant, gains,
            count=150, horizon=10.0, h=1e-3, seed=0,
        )
        assert rep.violations == ()

    def test_inflated_set_report_is_consistent(self, scenario1_estimates, plant, gains):
        est = scenario1_estimates["SL"]
        inflated = RoaEstimate(
            kind="SL", level=25.0 * est.level, radius_aux=est.radius_aux,
            x_d=est.x_d, x_s=est.x_s, P=est.P,
            vartheta=est.vartheta, epsilon=est.epsilon,
        )
        rep = falsify_roa(inflated, plant, gains, count=200, horizon=10.0, h=1e-3, seed=0)
        assert rep.converged + len(rep.violations) == rep.samples
        for x0, mode, _ in rep.violations:
            assert mode in ("diverged", "wrong-equilibrium", "V-increase")
            assert len(x0) == 2

    def test_reports_are_deterministic(self, scenario1_estimates, plant, gains):
        def run():
            rep = falsify_roa(
                scenario1_estimates["SLHG"], plant, gains,
                count=60, horizon=5.0, h=1e-3, seed=11,
            )
            return json.dumps(rep.to_dict(), sort_keys=True)

        assert run() == run()

    def test_gamma_fields_ordered(self, scenario1_estimates, plant, gains):
        rep = falsify_roa(
            scenario1_estimates["SL"], plant, gains,
            count=20, horizon=5.0, h=1e-3, seed=2,
        )
        assert rep.empirical_gamma <= rep.analytic_gamma + 1e-9


class TestFalsifySets:
    @pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
    def test_fused_batch_matches_per_set_runs(self, scenario):
        cfg = preset(scenario)
        gains = design_gains(cfg.poles, cfg.epsilon)
        cert = certify(gains, cfg.vartheta)
        plant = msd_plant(cfg.plant, cfg.domain)
        x_d = np.array([cfg.y_d, 0.0])
        mfc = mfc_equilibria(cfg.plant, gains, cfg.y_d)
        sl = single_loop_equilibria(cfg.plant, gains, cfg.y_d)
        x_s_mfc = np.array([cfg.y_d + mfc.selected, 0.0])
        x_s_sl = np.array([sl.selected, 0.0])
        estimates = [
            estimate_mfc1(cfg.plant, cert, x_s_mfc, x_d),
            estimate_mfc2(cfg.plant, cert, x_s_mfc, x_d, cfg.x0_star),
            estimate_sl(cfg.plant, cert, x_s_sl, x_d),
            estimate_slhg(cfg.plant, cert, x_s_mfc, x_d),
        ]
        sets = [est for est in estimates if est.valid]
        assert len(sets) >= 3
        kwargs = dict(count=40, horizon=2.0, h=1e-3, seed=0)
        fused = falsify_sets(sets, plant, gains, **kwargs)
        single = [falsify_roa(est, plant, gains, **kwargs) for est in sets]
        assert [r.to_dict() for r in fused] == [r.to_dict() for r in single]
        # the short horizon leaves slow runs unsettled, so the lists are not empty
        assert any(r.violations for r in fused)

    def test_violations_stay_in_their_set(self, scenario1_estimates, plant, gains):
        inflated = _inflated(scenario1_estimates["SL"], 200.0)
        kwargs = dict(count=16, horizon=3.0, h=1e-3, seed=0)
        clean1, bad, clean2 = falsify_sets(
            [scenario1_estimates["MFC1"], inflated, scenario1_estimates["SLHG"]],
            plant, gains, **kwargs,
        )
        for rep in (clean1, clean2):
            assert rep.violations == () and rep.converged == 16
        assert "diverged" in {mode for _, mode, _ in bad.violations}
        alone = falsify_roa(inflated, plant, gains, **kwargs)
        assert bad.to_dict() == alone.to_dict()

    def test_fail_time_is_the_single_run_fail_time(self, scenario1_estimates, plant, gains):
        # the batch finds a dead column through its non-finite V; the time must
        # still be the first step at which one of its components went non-finite
        inflated = _inflated(scenario1_estimates["SL"], 200.0)
        _, bad = falsify_sets(
            [scenario1_estimates["MFC1"], inflated],
            plant, gains, count=16, horizon=3.0, h=1e-3, seed=0,
        )
        diverged = [(x0, time) for x0, mode, time in bad.violations if mode == "diverged"]
        assert diverged
        spec = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(0.75))
        for x0, time in diverged:
            with pytest.raises(IntegrationError) as err:
                simulate_closed_loop(plant, spec, x0, 3.0, 1e-3, vartheta=1000.0)
            assert err.value.time == time

    def test_empty_batch(self, plant, gains):
        assert falsify_sets([], plant, gains, count=4, horizon=1.0, h=1e-3, seed=0) == []

    def test_each_set_runs_under_the_loop_it_certifies(self, scenario1_estimates):
        assert {kind: est.controller for kind, est in scenario1_estimates.items()} == {
            "MFC1": "MFC", "MFC2": "MFC", "SL": "SL", "SLHG": "SLHG"}


class TestGammaEmpirical:
    def test_zero_uncertainty(self, nominal_params):
        assert gamma_empirical(nominal_params, Box((-2, -2), (2, 2)), 1000, seed=0) == 0.0

    def test_converges_to_gradient_supremum(self, table_params):
        region = Box((-1.0, -1.0), (1.0, 1.0))
        sup = phi_lipschitz_sup(table_params, region)
        got = gamma_empirical(table_params, region, 100_000, seed=5)
        assert 0.95 * 0.5194 < got <= sup

    def test_point_region_convention(self, table_params):
        assert gamma_empirical(table_params, Box((1.0, 1.0), (1.0, 1.0)), 100, seed=0) == 0.0

    def test_never_exceeds_analytic_bound(self, table_params):
        rng = np.random.default_rng(6)
        for _ in range(10):
            lo = rng.uniform(-4, 0, size=2)
            hi = lo + rng.uniform(0.5, 4, size=2)
            region = Box(tuple(lo), tuple(hi))
            assert gamma_empirical(table_params, region, 5000, seed=9) <= (
                phi_lipschitz_sup(table_params, region) + 1e-9
            )


class TestLyapunovDecreaseCheck:
    def test_certified_run_passes(self, plant, gains, scenario1_estimates):
        spec = ControllerSpec(
            kind="MFC", gains=gains, reference=SetPoint(0.75), model_initial=(0.0, 0.0)
        )
        traj = simulate_closed_loop(plant, spec, (0.0, 0.0), 10.0, 1e-3, vartheta=1000.0)
        result = lyapunov_decrease_check(
            traj, level=scenario1_estimates["MFC2"].level
        )
        assert result.passed
        assert result.first_violation_time is None

    def test_constant_trajectory_passes(self):
        K = 50
        traj = Trajectory(
            t=np.arange(K) * 0.1,
            x=np.zeros((K, 2)),
            x_star=np.zeros((K, 2)),
            u=np.zeros(K),
            V=np.full(K, 2.5),
        )
        assert lyapunov_decrease_check(traj).passed

    def test_increase_and_exit_follow_the_batch_rule(self):
        def check(values, **kwargs):
            K = len(values)
            traj = Trajectory(t=np.arange(K) * 0.1, x=np.zeros((K, 2)),
                              x_star=np.zeros((K, 2)), u=np.zeros(K), V=np.array(values))
            return lyapunov_decrease_check(traj, **kwargs)

        assert check([3.0, 2.0, 2.5]) == DecreaseCheck(False, pytest.approx(0.2), None)
        assert not check([3.0, 5.0], level=4.0).passed
        # leaving the level within the tolerance ends the scan before the later increase
        assert check([4.0, 4.000000001, 8.0], level=4.0) == DecreaseCheck(
            True, None, pytest.approx(0.1))
        assert check([5.0, 6.0], level=4.0) == DecreaseCheck(True, None, 0.0)
        # steps from below the floor are not tested; later ones are
        assert check([1e-14, 2e-14, 1.0], floor=1e-12).passed
        assert not check([1e-14, 2e-12, 1.0], floor=1e-12).passed
        assert check([1.0, float("nan"), 2.0]) == DecreaseCheck(True, None, pytest.approx(0.1))
        assert not check([1.0, float("inf")]).passed

    def test_unstable_loop_fails_with_timestamp(self, plant, gains):
        spec = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(2.0))
        traj = simulate_closed_loop(plant, spec, (0.0, 0.0), 5.0, 1e-3, vartheta=1000.0)
        result = lyapunov_decrease_check(traj)
        assert (not result.passed and result.first_violation_time is not None) or (
            result.passed and result.exit_time is not None
        )
