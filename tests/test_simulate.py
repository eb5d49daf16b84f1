import dataclasses
import math

import numpy as np
import pytest

from mfcert import (
    BrunovskyDims,
    Box,
    ControllerSpec,
    IntegrationError,
    PlantModel,
    ReferenceTrajectory,
    SetPoint,
    control_fflin,
    control_mfc,
    control_sl,
    lyapunov_decrease_check,
    metrics,
    msd_phi,
    msd_plant,
    simulate_closed_loop,
    steady_state_of,
    step_rk4,
    time_to_track,
)
from mfcert.simulate import _rk4_components, build_closed_loop
from mfcert.steady_state import mfc_equilibria, single_loop_equilibria

X_D = (0.75, 0.0)


class TestControlMfc:
    def test_setpoint_from_origin(self, plant, gains):
        u, u_star, u_tilde = control_mfc(
            (0.0, 0.0), (0.0, 0.0), X_D, 0.0, gains.k_star, gains.k_tilde, plant
        )
        assert u == pytest.approx(12.81, abs=1e-9)  # 9.81 + (-4)(-0.75)
        assert u == pytest.approx(u_star + u_tilde, abs=1e-12)

    def test_perturbed_initial_state(self, plant, gains):
        u, _, _ = control_mfc(
            (0.1, -8.0), (0.0, 0.0), X_D, 0.0, gains.k_star, gains.k_tilde, plant
        )
        assert u == pytest.approx(290.560375, abs=1e-9)
        assert u == pytest.approx(290.6, rel=0.02)

    def test_reduces_to_single_loop_law_on_model_state(self, plant, gains):
        rng = np.random.default_rng(40)
        for _ in range(1000):
            x = tuple(rng.uniform(-5, 5, size=2))
            u, _, u_tilde = control_mfc(x, x, X_D, 0.0, gains.k_star, gains.k_tilde, plant)
            u_fb = control_sl(x, X_D, 0.0, gains.k_star, plant)
            assert u_tilde == 0.0
            assert u == pytest.approx(u_fb, abs=1e-12 * max(1.0, abs(u_fb)))

    def test_split_equals_combined_form(self, plant, gains):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            x = tuple(rng.uniform(-5, 5, size=2))
            xs = tuple(rng.uniform(-5, 5, size=2))
            u, _, _ = control_mfc(x, xs, X_D, 0.0, gains.k_star, gains.k_tilde, plant)
            combined = control_sl(x, X_D, 0.0, gains.k_tilde, plant) + sum(
                (gains.k_star[i] - gains.k_tilde[i]) * (xs[i] - X_D[i]) for i in range(2)
            ) * plant.params.m
            assert u == pytest.approx(combined, abs=1e-12 * max(1.0, abs(u)))


class TestControlSl:
    def test_high_gain_peaks(self, plant, gains):
        u = control_sl((0.0, 0.0), X_D, 0.0, gains.k_tilde, plant)
        assert u == pytest.approx(309.81, abs=1e-9)
        assert u == pytest.approx(310.0, rel=0.02)
        u2 = control_sl((0.0, 0.0), (2.0, 0.0), 0.0, gains.k_tilde, plant)
        assert u2 == pytest.approx(809.81, abs=1e-9)

    def test_pure_feedforward_residue(self, plant, gains):
        u = control_sl(X_D, X_D, 0.0, gains.k_star, plant)
        assert u == pytest.approx(-plant.params.m * plant.f(X_D), abs=1e-12)

    def test_vanishing_gain_rejected(self, gains):
        dead = PlantModel(
            dims=BrunovskyDims(2), f=lambda x: 0.0, g=lambda x: 0.0,
            phi=lambda x: 0.0, domain=Box((-1, -1), (1, 1)),
        )
        with pytest.raises(ZeroDivisionError):
            control_sl((0.0, 0.0), X_D, 0.0, gains.k_star, dead)


class TestControlFflin:
    def test_pure_feedforward_value(self, plant):
        u = control_fflin(X_D, 0.0, 0.0, plant)
        assert u == pytest.approx(11.09320, abs=1e-4)
        assert u == pytest.approx(11.09, abs=1e-2)

    def test_feedback_term_matches_single_loop_on_reference(self, plant, gains):
        v = sum(gains.k_tilde[i] * (X_D[i] - X_D[i]) for i in range(2))
        u = control_fflin(X_D, 0.0, v, plant)
        assert u == pytest.approx(control_sl(X_D, X_D, 0.0, gains.k_tilde, plant), abs=1e-12)

    def test_model_loop_rides_the_reference(self, plant, gains):
        ref = ReferenceTrajectory(
            lambda t: (0.5 * math.sin(t), 0.5 * math.cos(t), -0.5 * math.sin(t))
        )
        spec = ControllerSpec(kind="MFC", gains=gains, reference=ref, model_initial=(0.0, 0.5))
        traj = simulate_closed_loop(plant, spec, (0.3, 0.0), 3.0, 1e-3)
        x_d = np.stack(
            [[0.5 * math.sin(t), 0.5 * math.cos(t)] for t in traj.t]
        )
        assert np.max(np.abs(traj.x_star - x_d)) <= 1e-9


def _random_states(dim, count, seed):
    rng = np.random.default_rng(seed)
    return tuple(rng.uniform(-3.0, 3.0, count) for _ in range(dim))


def _column(comps, j):
    return tuple(float(c[j]) for c in comps)


class TestBatchedLaw:
    @pytest.mark.parametrize("kind", ["SL", "SLHG", "MFC", "FFLIN"])
    def test_scalar_step_equals_batch_column(self, plant, gains, kind):
        spec = ControllerSpec(kind=kind, gains=gains, reference=SetPoint(0.75))
        loop = build_closed_loop(plant, spec, 1000.0)
        dim = 2 * loop.n if kind == "MFC" else loop.n
        y = _random_states(dim, 64, seed=len(kind))
        batch_rhs = loop.rhs(0.0, y)
        batch_step = _rk4_components(loop.rhs, 0.0, y, 1e-3)
        for j in range(64):
            yj = _column(y, j)
            assert loop.rhs(0.0, yj) == _column(batch_rhs, j)
            assert _rk4_components(loop.rhs, 0.0, yj, 1e-3) == _column(batch_step, j)

    def test_single_loop_columns_ride_the_two_loop_law(self, table_params, gains):
        # with m = 0.7 the unmasked model acceleration at x_d rounds to 2e-15
        plant = msd_plant(dataclasses.replace(table_params, m=0.7))
        x_d = (0.75, 0.0)
        kinds = ("MFC", "SL", "SLHG")
        spec = ControllerSpec(kind="MFC", gains=gains, reference=SetPoint(x_d[0]))
        stacked = build_closed_loop(plant, spec, 1000.0, columns=[(k, 8) for k in kinds])
        model = _random_states(2, 24, seed=3)
        for i in range(2):
            model[i][8:] = x_d[i]
        y = model + _random_states(2, 24, seed=4)
        dy = stacked.rhs(0.0, y)
        for block, kind in enumerate(kinds):
            own = build_closed_loop(
                plant, ControllerSpec(kind=kind, gains=gains, reference=SetPoint(x_d[0])),
                1000.0,
            )
            for j in range(8 * block, 8 * block + 8):
                yj = _column(y, j)
                if kind == "MFC":
                    assert own.rhs(0.0, yj) == _column(dy, j)
                else:
                    assert _column(dy, j)[:2] == (0.0, 0.0)
                    assert own.rhs(0.0, yj[2:]) == _column(dy, j)[2:]

    def test_stacking_needs_a_set_point(self, plant, gains):
        ref = ReferenceTrajectory(lambda t: (0.0, 0.0, 0.0))
        spec = ControllerSpec(kind="MFC", gains=gains, reference=ref)
        with pytest.raises(ValueError):
            build_closed_loop(plant, spec, 1000.0, columns=[("SL", 4)])


class TestStepRk4:
    def test_exponential_decay(self):
        assert step_rk4(lambda y: -y, 1.0, 0.1) == pytest.approx(math.exp(-0.1), abs=1e-6)

    def test_zero_dynamics(self):
        assert step_rk4(lambda y: 0.0 * y, 3.5, 0.2) == 3.5

    def test_convergence_order(self):
        def run(h):
            y = 1.0
            for _ in range(int(round(1.0 / h))):
                y = step_rk4(lambda v: -v, y, h)
            return abs(y - math.exp(-1.0))

        order = math.log2(run(0.1) / run(0.05))
        assert order >= 3.9

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            step_rk4(lambda y: -y, 1.0, 0.0)

    def test_nonfinite_raises(self):
        with pytest.raises(IntegrationError):
            step_rk4(lambda y: float("inf"), 1.0, 0.1)


class TestClosedLoopRuns:
    def test_mfc_setpoint_endpoint(self, plant, gains):
        spec = ControllerSpec(
            kind="MFC", gains=gains, reference=SetPoint(0.75), model_initial=(0.0, 0.0)
        )
        traj = simulate_closed_loop(plant, spec, (0.0, 0.0), 10.0, 1e-3, vartheta=1000.0)
        assert abs(traj.x[-1, 0] - 0.75) / 0.75 < 1e-3
        assert traj.u[0] == pytest.approx(12.81, abs=1e-9)

    def test_sl_setpoint_endpoint(self, plant, gains):
        spec = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(0.75))
        traj = simulate_closed_loop(plant, spec, (0.0, 0.0), 10.0, 1e-3)
        err = abs(traj.x[-1, 0] - 0.75) / 0.75 * 100.0
        assert err == pytest.approx(4.3, abs=0.3)

    def test_perturbed_mfc_reconverges_quickly(self, plant, gains):
        spec = ControllerSpec(
            kind="MFC", gains=gains, reference=SetPoint(0.75), model_initial=(0.0, 0.0)
        )
        for x0 in ((0.1, -8.0), (-0.25, 6.0)):
            traj = simulate_closed_loop(plant, spec, x0, 2.0, 1e-3)
            t_track = time_to_track(traj, threshold=0.01)
            assert t_track is not None and t_track <= 0.5

    def test_mfc_with_model_on_reference_equals_high_gain_loop(self, plant, gains):
        spec_m = ControllerSpec(
            kind="MFC", gains=gains, reference=SetPoint(0.75), model_initial=(0.75, 0.0)
        )
        spec_hg = ControllerSpec(kind="SLHG", gains=gains, reference=SetPoint(0.75))
        tm = simulate_closed_loop(plant, spec_m, (0.0, 0.0), 3.0, 1e-3)
        th = simulate_closed_loop(plant, spec_hg, (0.0, 0.0), 3.0, 1e-3)
        assert np.max(np.abs(tm.u - th.u)) <= 1e-9

    def test_nominal_plant_all_controllers_exact(self, nominal_params, gains):
        plant0 = msd_plant(nominal_params)
        for kind in ("SL", "SLHG", "MFC", "FFLIN"):
            spec = ControllerSpec(
                kind=kind, gains=gains, reference=SetPoint(0.75),
                model_initial=(0.0, 0.0) if kind == "MFC" else None,
            )
            traj = simulate_closed_loop(plant0, spec, (0.0, 0.0), 10.0, 1e-3)
            assert abs(traj.x[-1, 0] - 0.75) < 1e-6

    def test_lyapunov_decreases_inside_certified_set(self, plant, gains):
        spec = ControllerSpec(
            kind="MFC", gains=gains, reference=SetPoint(0.75), model_initial=(0.0, 0.0)
        )
        traj = simulate_closed_loop(plant, spec, (0.0, 0.0), 10.0, 1e-3, vartheta=1000.0)
        assert lyapunov_decrease_check(traj, 1e-9).passed

    def test_divergent_run_raises_with_partial_data(self, plant, gains):
        spec = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(2.0))
        with pytest.raises(IntegrationError) as err:
            simulate_closed_loop(plant, spec, (0.0, 0.0), 60.0, 1e-3)
        assert err.value.time is not None
        partial = err.value.trajectory
        assert partial.metadata["diverged"]
        assert np.all(np.isfinite(partial.x))

    def test_rejects_inconsistent_grid(self, plant, gains):
        spec = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(0.75))
        with pytest.raises(ValueError):
            simulate_closed_loop(plant, spec, (0.0, 0.0), 0.0005, 1e-3)
        with pytest.raises(ValueError):
            simulate_closed_loop(plant, spec, (0.0, 0.0), 1.0, -1e-3)


class TestSteadyStateResolution:
    def test_matches_cubic_roots(self, plant, table_params, gains):
        mfc_eq = mfc_equilibria(table_params, gains, 0.75)
        sl_eq = single_loop_equilibria(table_params, gains, 0.75)
        spec_m = ControllerSpec(
            kind="MFC", gains=gains, reference=SetPoint(0.75), model_initial=(0.0, 0.0)
        )
        spec_sl = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(0.75))
        assert steady_state_of(plant, spec_m)[0] == pytest.approx(
            0.75 + mfc_eq.selected, abs=1e-9
        )
        assert steady_state_of(plant, spec_sl)[0] == pytest.approx(sl_eq.selected, abs=1e-9)

    def test_scenario_two_single_loop(self, plant, gains):
        spec = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(2.0))
        assert steady_state_of(plant, spec)[0] == pytest.approx(-5.983034, abs=1e-5)


class TestMetricsAndCsv:
    def test_high_gain_metrics(self, plant, gains):
        spec = ControllerSpec(kind="SLHG", gains=gains, reference=SetPoint(0.75))
        x_s = steady_state_of(plant, spec)
        traj = simulate_closed_loop(plant, spec, (0.0, 0.0), 10.0, 1e-3)
        m = metrics(traj, x_s)
        assert m["u0"] == pytest.approx(310.0, rel=0.02)
        assert m["peak_abs_u"] >= m["u0"]
        assert m["steady_state_error_pct"] < 0.1
        assert m["settle_time"] is not None

    def test_equilibrium_hold_reports_analytic_offset(self, table_params, gains):
        sl_eq = single_loop_equilibria(table_params, gains, 0.75)
        x_s = (sl_eq.selected, 0.0)
        frozen_value = msd_phi(table_params, x_s)
        frozen = msd_plant(table_params)
        frozen = PlantModel(
            dims=frozen.dims, f=frozen.f, g=frozen.g,
            phi=lambda x: frozen_value + 0.0 * x[0], domain=frozen.domain,
        )
        spec = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(0.75))
        traj = simulate_closed_loop(frozen, spec, x_s, 5.0, 1e-3)
        m = metrics(traj, np.asarray(x_s))
        analytic = abs(sl_eq.selected - 0.75) / 0.75 * 100.0
        assert m["steady_state_error_pct"] == pytest.approx(analytic, rel=1e-6)
        assert m["settle_time"] == 0.0

    def test_csv_format(self, plant, gains, tmp_path):
        spec = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(0.75))
        traj = simulate_closed_loop(plant, spec, (0.0, 0.0), 0.1, 1e-3)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,xstar1,xstar2,u,V"
        assert len(lines) == len(traj.t) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == 0.75  # single-loop runs repeat the reference state
