import dataclasses
import hashlib
import json
from collections import Counter

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
    mfc_equilibria,
    msd_plant,
    phi_lipschitz_sup,
    preset,
    sample_in_set,
    simulate_closed_loop,
    single_loop_equilibria,
)
from mfcert import falsify, simulate
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
        vals = np.array([est.lyapunov_value(x, s) for x, s in zip(x0, x0_star)])
        assert np.all(vals <= est.level)

    @pytest.mark.parametrize("kind", ["MFC2", "SL", "SLHG"])
    def test_model_rows_are_the_sets_own_start(self, scenario1_estimates, kind):
        est = scenario1_estimates[kind]
        _, model_starts = sample_in_set(est, 50, seed=7)
        own = np.tile(np.asarray(est.x0_star, dtype=float), (50, 1))
        assert model_starts.tobytes() == own.tobytes()
        assert est.x0_star == ((0.0, 0.0) if kind == "MFC2" else est.x_d)

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

    def test_inflated_set_reports_v_increase(self, scenario1_estimates, plant, gains):
        # 20x the SL level (15.03) lies above the set's first V' >= 0 level (13.78),
        # yet every run converges: only the decrease test can flag the set
        inflated = _inflated(scenario1_estimates["SL"], 20.0)
        assert inflated.level == pytest.approx(15.03, abs=0.01)
        rep = falsify_roa(inflated, plant, gains, count=500, horizon=10.0, h=1e-3, seed=0)
        assert "V-increase" in {mode for _, mode, _ in rep.violations}

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
        # still be the first step at which one of its components went non-finite.
        # Every start's final verdict is also its single run's: one rule decides both
        inflated = _inflated(scenario1_estimates["SL"], 200.0)
        sets = [scenario1_estimates["MFC1"], inflated]
        reports = falsify_sets(sets, plant, gains, count=16, horizon=3.0, h=1e-3, seed=0)
        seen = set()
        for est, rep in zip(sets, reports):
            modes = {x0: (mode, time) for x0, mode, time in rep.violations}
            starts, model_starts = sample_in_set(est, 16, seed=0)
            for i, x0 in enumerate(starts):
                mode, time = modes.get(tuple(x0), ("converged", None))
                mode = "converged" if mode == "V-increase" else mode  # a converged final state
                seen.add(mode)
                spec = ControllerSpec(kind=est.controller, gains=gains, reference=SetPoint(0.75),
                                      model_initial=model_starts[i])
                if mode == "diverged":
                    with pytest.raises(IntegrationError) as err:
                        simulate_closed_loop(plant, spec, x0, 3.0, 1e-3, vartheta=1000.0)
                    assert err.value.time == time
                    traj = err.value.trajectory
                else:
                    traj = simulate_closed_loop(plant, spec, x0, 3.0, 1e-3, vartheta=1000.0)
                assert traj.metadata["outcome"] == mode, (est.kind, tuple(x0))
        assert seen == {"converged", "wrong-equilibrium", "diverged"}

    @pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
    def test_batch_v_is_each_sets_lyapunov_value(self, scenario, monkeypatch):
        # the V that the batch watches, at the starts, bit for bit that of each set's frame
        cfg = preset(scenario)
        design = cfg.design
        sets = [est for est in design.estimates.values() if est.valid]
        assert len(sets) >= 3
        step, first_v = falsify._decrease_step, []

        def spy(v_prev, *args):
            first_v.append(np.array(v_prev, copy=True))
            return step(v_prev, *args)

        monkeypatch.setattr(falsify, "_decrease_step", spy)
        count = 500
        falsify_sets(sets, design.plant, design.gains, count=count, horizon=cfg.step,
                     h=cfg.step, seed=0)
        for j, est in enumerate(sets):
            own = est.lyapunov_value(*sample_in_set(est, count, seed=0))
            assert first_v[0][j * count:(j + 1) * count].tobytes() == own.tobytes(), est.kind

    def test_empty_batch(self, plant, gains):
        assert falsify_sets([], plant, gains, count=4, horizon=1.0, h=1e-3, seed=0) == []

    @pytest.mark.parametrize("count", [0, -1, 2.5, 3.0, True, "3"])
    def test_sample_count_must_be_a_positive_integer(self, scenario1_estimates, plant, gains,
                                                     count):
        # one rule for the batch, an empty batch and a direct draw
        for batch in ([scenario1_estimates["SL"]], []):
            with pytest.raises(ValueError, match="count must be a positive integer"):
                falsify_sets(batch, plant, gains, count=count, horizon=1.0, h=1e-3, seed=0)
        with pytest.raises(ValueError, match="count must be a positive integer"):
            sample_in_set(scenario1_estimates["SL"], count, seed=0)

    @pytest.mark.parametrize("seed", [2.5, True, "3", -1, None])
    def test_seed_must_be_a_nonnegative_integer(self, monkeypatch, scenario1_estimates, plant,
                                                gains, seed):
        # refused before any step, by one rule for the batch, an empty batch and a direct draw
        steps = TestStepCounters._counting(monkeypatch, falsify)
        for batch in ([scenario1_estimates["SL"]], []):
            with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
                falsify_sets(batch, plant, gains, count=4, horizon=1.0, h=1e-3, seed=seed)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            sample_in_set(scenario1_estimates["SL"], 4, seed=seed)
        assert steps == []

    def test_numpy_integers_give_the_bytes_of_plain_ints(self, scenario1_estimates, plant,
                                                         gains):
        est = scenario1_estimates["MFC1"]
        kwargs = dict(horizon=0.5, h=1e-3)
        plain = falsify_sets([est], plant, gains, count=8, seed=3, **kwargs)[0]
        wide = falsify_sets([est], plant, gains, count=np.int64(8), seed=np.int64(3),
                            **kwargs)[0]
        assert type(wide.samples) is int and type(wide.seed) is int
        assert json.dumps(wide.to_dict()) == json.dumps(plain.to_dict())
        drawn = sample_in_set(est, np.int64(8), seed=np.uint32(3))
        assert [a.tobytes() for a in drawn] == [a.tobytes() for a in sample_in_set(est, 8, 3)]

    def test_a_batch_shares_one_vartheta(self, monkeypatch, scenario1_estimates, plant, gains):
        sl = scenario1_estimates["SL"]
        steps = TestStepCounters._counting(monkeypatch, falsify)
        with pytest.raises(ValueError, match="one set-point, Lyapunov matrix and vartheta"):
            falsify_sets([sl, dataclasses.replace(sl, vartheta=2.0 * sl.vartheta)], plant,
                         gains, count=4, horizon=1.0, h=1e-3, seed=0)
        assert steps == []

    def test_every_set_keeps_its_run_in_the_batch_law(self, monkeypatch, scenario1_estimates,
                                                      plant, gains):
        # the SLHG columns all freeze and leave; the law still lists that set, with count 0
        build, runs = falsify.build_closed_loop, []

        def spy(plant, spec, vartheta, columns=None):
            runs.append(list(columns))
            return build(plant, spec, vartheta, columns)

        monkeypatch.setattr(falsify, "build_closed_loop", spy)
        sets = [scenario1_estimates[kind] for kind in ("MFC2", "SLHG", "SL")]
        falsify_sets(sets, plant, gains, count=20, horizon=3.0, h=1e-3, seed=3)
        assert runs[0] == [("MFC", 20), ("SLHG", 20), ("SL", 20)]
        assert all([kind for kind, _ in run] == ["MFC", "SLHG", "SL"] for run in runs)
        assert runs[-1][1] == ("SLHG", 0)

    def test_each_set_runs_under_the_loop_it_certifies(self, scenario1_estimates):
        assert {kind: est.controller for kind, est in scenario1_estimates.items()} == {
            "MFC1": "MFC", "MFC2": "MFC", "SL": "SL", "SLHG": "SLHG"}


class TestGammaEmpirical:
    @pytest.mark.parametrize("bad", [2.5, True, "3", -1, None])
    def test_pairs_and_seed_are_checked_before_any_draw(self, monkeypatch, table_params, bad):
        draws = []
        monkeypatch.setattr(falsify, "_rng", draws.append)
        region = Box((-1.0, -1.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="pairs must be a positive integer"):
            gamma_empirical(table_params, region, bad, seed=0)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            gamma_empirical(table_params, region, 100, seed=bad)
        assert draws == []

    def test_numpy_integers_give_the_plain_ints_value(self, table_params):
        region = Box((-1.0, -1.0), (1.0, 1.0))
        plain = gamma_empirical(table_params, region, 1000, seed=7)
        wide = gamma_empirical(table_params, region, np.int64(1000), seed=np.uint32(7))
        assert type(wide) is float and wide == plain

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


def decrease_scan(traj, level=None, floor=0.0):
    """The batch's decrease rule, ``falsify._decrease_step``, along one trajectory's V.

    Returns (passed, first violation time, exit time): the scan starts inside
    when V(t_0) is within ``level`` and stops at the first increase from
    inside or the first step that leaves the set.
    """
    V, t = np.asarray(traj.V, dtype=float), traj.t
    bound = np.finfo(float).max if level is None else level
    if len(V) and not V[0] <= bound:
        return True, None, float(t[0])
    increase, inside = falsify._decrease_step(V[:-1], V[1:], bound, floor)
    stops = np.flatnonzero(increase | ~inside)
    if len(stops) == 0:
        return True, None, None
    k = stops[0]
    return (False, float(t[k + 1]), None) if increase[k] else (True, None, float(t[k + 1]))


class TestLyapunovDecreaseCheck:
    def test_certified_run_passes(self, plant, gains, scenario1_estimates):
        spec = ControllerSpec(
            kind="MFC", gains=gains, reference=SetPoint(0.75), model_initial=(0.0, 0.0)
        )
        traj = simulate_closed_loop(plant, spec, (0.0, 0.0), 10.0, 1e-3, vartheta=1000.0)
        passed, first_violation_time, _ = decrease_scan(
            traj, level=scenario1_estimates["MFC2"].level
        )
        assert passed
        assert first_violation_time is None

    def test_constant_trajectory_passes(self):
        K = 50
        traj = Trajectory(
            t=np.arange(K) * 0.1,
            x=np.zeros((K, 2)),
            x_star=np.zeros((K, 2)),
            u=np.zeros(K),
            V=np.full(K, 2.5),
        )
        assert decrease_scan(traj)[0]

    def test_increase_and_exit_follow_the_batch_rule(self):
        def check(values, **kwargs):
            K = len(values)
            traj = Trajectory(t=np.arange(K) * 0.1, x=np.zeros((K, 2)),
                              x_star=np.zeros((K, 2)), u=np.zeros(K), V=np.array(values))
            return decrease_scan(traj, **kwargs)

        assert check([3.0, 2.0, 2.5]) == (False, pytest.approx(0.2), None)
        assert not check([3.0, 5.0], level=4.0)[0]
        # leaving the level within the tolerance ends the scan before the later increase
        assert check([4.0, 4.000000001, 8.0], level=4.0) == (True, None, pytest.approx(0.1))
        assert check([5.0, 6.0], level=4.0) == (True, None, 0.0)
        # steps from below the floor are not tested; later ones are
        assert check([1e-14, 2e-14, 1.0], floor=1e-12)[0]
        assert not check([1e-14, 2e-12, 1.0], floor=1e-12)[0]
        assert check([1.0, float("nan"), 2.0]) == (True, None, pytest.approx(0.1))
        assert not check([1.0, float("inf")])[0]

    def test_unstable_loop_fails_with_timestamp(self, plant, gains):
        spec = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(2.0))
        traj = simulate_closed_loop(plant, spec, (0.0, 0.0), 5.0, 1e-3, vartheta=1000.0)
        passed, first_violation_time, exit_time = decrease_scan(traj)
        assert (not passed and first_violation_time is not None) or (
            passed and exit_time is not None
        )


class TestStepCounters:
    """One ``_rk4_components`` call per step, looked up in the calling module.

    A profiler that wraps the module attribute counts the steps of single
    runs (``simulate``) apart from those of sampled batches (``falsify``).
    """

    @staticmethod
    def _counting(monkeypatch, module):
        calls = []
        step = module._rk4_components

        def counted(rhs, t, y, h):
            calls.append(len(y[0]) if isinstance(y[0], np.ndarray) else 1)
            return step(rhs, t, y, h)

        monkeypatch.setattr(module, "_rk4_components", counted)
        return calls

    @pytest.mark.parametrize("kind, horizon, h", [
        ("SL", 0.5, 1e-3), ("MFC", 0.5, 1e-3), ("FFLIN", 0.28, 0.07), ("SLHG", 0.1, 0.1),
    ])
    def test_single_runs(self, monkeypatch, plant, gains, kind, horizon, h):
        single = self._counting(monkeypatch, simulate)
        batch = self._counting(monkeypatch, falsify)
        spec = ControllerSpec(kind=kind, gains=gains, reference=SetPoint(0.75))
        simulate_closed_loop(plant, spec, (0.1, 0.0), horizon, h, vartheta=1000.0)
        assert single == [1] * round(horizon / h)
        assert batch == []

    def test_batches(self, monkeypatch, scenario1_estimates, plant, gains):
        single = self._counting(monkeypatch, simulate)
        batch = self._counting(monkeypatch, falsify)
        sets = [scenario1_estimates[kind] for kind in ("MFC1", "SL")]
        falsify_sets(sets, plant, gains, count=7, horizon=0.25, h=1e-3, seed=0)
        assert batch == [2 * 7] * round(0.25 / 1e-3)
        assert single == []

    # 0.3 / 0.07 rounds to 4 steps ending at 0.28; 0.03 / 0.07 rounds to none at all
    @pytest.mark.parametrize("horizon, h", [(0.3, 0.07), (0.03, 0.07)])
    def test_off_grid_horizons_are_refused(self, monkeypatch, scenario1_estimates, plant,
                                           gains, horizon, h):
        single = self._counting(monkeypatch, simulate)
        batch = self._counting(monkeypatch, falsify)
        spec = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(0.75))
        with pytest.raises(ValueError, match="whole number of steps"):
            simulate_closed_loop(plant, spec, (0.1, 0.0), horizon, h, vartheta=1000.0)
        with pytest.raises(ValueError, match="whole number of steps"):
            falsify_sets([scenario1_estimates["SL"]], plant, gains, count=7,
                         horizon=horizon, h=h, seed=0)
        assert single == batch == []


class TestRetirement:
    """Dead, frozen and merged columns leave the batch; no report byte moves."""

    KWARGS = dict(count=100, horizon=10.0, h=1e-3, seed=0)

    @pytest.fixture(scope="class")
    def oracle(self):
        design = preset("scenario1").design
        est = design.estimates
        sets = [est["MFC1"], est["MFC2"], est["SLHG"],
                _inflated(est["SL"], 20.0), _inflated(est["SL"], 200.0)]
        return design, sets

    @pytest.fixture(scope="class")
    def retired(self, oracle):
        design, sets = oracle
        with pytest.MonkeyPatch.context() as patch:
            widths = TestStepCounters._counting(patch, falsify)
            reports = falsify_sets(sets, design.plant, design.gains, **self.KWARGS)
        return reports, widths

    def test_reports_keep_the_digest_of_the_unretired_batch(self, retired):
        reports, _ = retired
        text = json.dumps([r.to_dict() for r in reports], sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "890956c5d38db83043ad2605baffeb603e7b0ba7a12a3f08018b242b6793039e")
        assert Counter(mode for _, mode, _ in reports[-1].violations) == {
            "diverged": 49, "V-increase": 3}

    def test_the_batch_narrows(self, retired):
        # frozen SLHG columns and the merged MFC2 columns leave; the rest run on
        _, widths = retired
        assert len(widths) == 10_000 and widths[0] == 500 and widths[-1] < 300

    def test_reports_equal_those_without_retirement(self, monkeypatch, oracle, retired):
        design, sets = oracle
        monkeypatch.setattr(falsify, "RETIRE_EVERY", 10**9)
        kept = falsify_sets(sets, design.plant, design.gains, **self.KWARGS)
        assert [r.to_dict() for r in kept] == [r.to_dict() for r in retired[0]]

    def test_merged_columns_keep_their_own_verdicts(self, monkeypatch):
        # The samples of an MFC2 set share one model start, so they merge bit
        # for bit by about 3 s.  A wrong P and a shifted centre make their
        # reports differ anyway: some start outside the level, some increase V
        # at once, and some only at 5.55 s, at 9e-5 of the level (so below the
        # decrease floor's 1e-12, but not 1e-3), as the run nears the true rest
        # state.  A centre 0.02 off splits converged from wrong-equilibrium by
        # each start's own d0.
        design = preset("scenario1").design
        m2 = design.estimates["MFC2"]
        P = np.array([[1.125, -0.15], [-0.15, 0.15625]])

        def off_centre(shift, level):
            return dataclasses.replace(m2, P=P, vartheta=1.0, level=level,
                                       x_s=(m2.x_s[0] + shift, 0.0))

        sets = [off_centre(-0.002, 5.0), off_centre(-0.02, 10.0)]
        kwargs = dict(count=50, horizon=6.0, h=1e-3, seed=0)
        widths = TestStepCounters._counting(monkeypatch, falsify)
        retired = falsify_sets(sets, design.plant, design.gains, **kwargs)
        assert widths[0] == 100 and widths[-1] < 10
        monkeypatch.setattr(falsify, "RETIRE_EVERY", 10**9)
        kept = falsify_sets(sets, design.plant, design.gains, **kwargs)
        assert [r.to_dict() for r in retired] == [r.to_dict() for r in kept]
        x0, x0_star = sample_in_set(sets[0], 50, seed=0)
        outside = np.sum(sets[0].lyapunov_value(x0, x0_star) > sets[0].level)
        late = [t for rep in retired for _, mode, t in rep.violations
                if mode == "V-increase" and t > 5.0]
        assert outside > 0 and len(late) >= 2
        assert {mode for _, mode, _ in retired[1].violations} == {
            "V-increase", "wrong-equilibrium"}

    def test_a_batch_that_retires_every_column_stops(self, monkeypatch, scenario1_estimates,
                                                     plant, gains):
        # every SLHG column reaches an exact fixed point by about 2.2 s
        kwargs = dict(count=20, horizon=10.0, h=1e-3, seed=3)
        widths = TestStepCounters._counting(monkeypatch, falsify)
        retired = falsify_sets([scenario1_estimates["SLHG"]], plant, gains, **kwargs)
        assert len(widths) < 3_000
        monkeypatch.setattr(falsify, "RETIRE_EVERY", 10**9)
        kept = falsify_sets([scenario1_estimates["SLHG"]], plant, gains, **kwargs)
        assert retired[0].to_dict() == kept[0].to_dict()
        assert retired[0].converged == 20
