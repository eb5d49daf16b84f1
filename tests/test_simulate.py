import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mfcert import (
    ControllerSpec,
    IntegrationError,
    SetPoint,
    design_gains,
    metrics,
    msd_phi,
    msd_plant,
    preset,
    simulate_closed_loop,
    steady_state_of,
    time_to_track,
)
from mfcert.plant import msd_f
from mfcert import falsify
from mfcert.simulate import (CSV_BLOCK_ROWS, Trajectory, _rk4_components, build_closed_loop,
                             whole_steps)
from mfcert.synthesis import solve_lyapunov
from mfcert.steady_state import mfc_equilibria, single_loop_equilibria

X_D = (0.75, 0.0)


def _law(plant, gains, kind, y_d=X_D[0]):
    """Control law of one closed loop as a function of its state components."""
    spec = ControllerSpec(kind=kind, gains=gains, reference=SetPoint(y_d))
    loop = build_closed_loop(plant, spec, 1000.0)
    return lambda *y: loop.control(0.0, y)


class TestControlMfc:
    def test_setpoint_from_origin(self, plant, gains):
        u = _law(plant, gains, "MFC")(0.0, 0.0, 0.0, 0.0)
        assert u == pytest.approx(12.81, abs=1e-9)  # 9.81 + (-4)(-0.75)

    def test_perturbed_initial_state(self, plant, gains):
        u = _law(plant, gains, "MFC")(0.0, 0.0, 0.1, -8.0)
        assert u == pytest.approx(290.560375, abs=1e-9)
        assert u == pytest.approx(290.6, rel=0.02)

    def test_reduces_to_single_loop_law_on_model_state(self, plant, gains):
        mfc, sl = _law(plant, gains, "MFC"), _law(plant, gains, "SL")
        rng = np.random.default_rng(40)
        for _ in range(1000):
            x = tuple(rng.uniform(-5, 5, size=2))
            u = mfc(*x, *x)
            u_fb = sl(*x)
            assert u == pytest.approx(u_fb, abs=1e-12 * max(1.0, abs(u_fb)))

    def test_split_equals_combined_form(self, plant, gains):
        mfc, slhg = _law(plant, gains, "MFC"), _law(plant, gains, "SLHG")
        rng = np.random.default_rng(41)
        for _ in range(1000):
            x = tuple(rng.uniform(-5, 5, size=2))
            xs = tuple(rng.uniform(-5, 5, size=2))
            u = mfc(*xs, *x)
            combined = slhg(*x) + sum(
                (gains.k_star[i] - gains.k_tilde[i]) * (xs[i] - X_D[i]) for i in range(2)
            ) * plant.params.m
            assert u == pytest.approx(combined, abs=1e-12 * max(1.0, abs(u)))


class TestControlSl:
    def test_high_gain_peaks(self, plant, gains):
        u = _law(plant, gains, "SLHG")(0.0, 0.0)
        assert u == pytest.approx(309.81, abs=1e-9)
        assert u == pytest.approx(310.0, rel=0.02)
        u2 = _law(plant, gains, "SLHG", y_d=2.0)(0.0, 0.0)
        assert u2 == pytest.approx(809.81, abs=1e-9)

    def test_pure_feedforward_residue(self, plant, gains):
        u = _law(plant, gains, "SL")(*X_D)
        assert u == pytest.approx(-plant.params.m * msd_f(plant.params, X_D), abs=1e-12)


class TestControlFflin:
    def test_pure_feedforward_value(self, plant, gains):
        u = _law(plant, gains, "FFLIN")(*X_D)
        assert u == pytest.approx(11.09320, abs=1e-4)
        assert u == pytest.approx(11.09, abs=1e-2)

    def test_feedback_term_matches_single_loop_on_reference(self, plant, gains):
        u = _law(plant, gains, "FFLIN")(*X_D)
        assert u == pytest.approx(_law(plant, gains, "SLHG")(*X_D), abs=1e-12)


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
        # with m = 0.7, f(x_d) + g(x_d) u*(x_d) would round to 2e-15; the linear
        # model chain gives exactly 0 without masking
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
        step = _rk4_components(stacked.rhs, 0.0, y, 1e-3)
        for i in range(2):
            assert np.all(step[i][8:] == x_d[i])

    @pytest.mark.parametrize("columns", [None, [("MFC", 8), ("SL", 8), ("SLHG", 8)]])
    def test_model_loop_is_the_linear_chain(self, plant, gains, columns):
        spec = ControllerSpec(kind="MFC", gains=gains, reference=SetPoint(0.75))
        loop = build_closed_loop(plant, spec, 1000.0, columns=columns)
        y = _random_states(4, 24, seed=5)
        if columns is not None:
            for i in range(2):
                y[i][8:] = X_D[i]
        k = gains.k_star
        mfc = slice(0, 24 if columns is None else 8)  # the MFC columns
        xs = [c[mfc] for c in y[:2]]
        expected = 0.0 + (k[0] * (xs[0] - X_D[0]) + k[1] * (xs[1] - X_D[1]))
        dy = loop.rhs(0.0, y)
        assert np.array_equal(dy[0][mfc], xs[1])
        assert np.array_equal(dy[1][mfc], expected)

    def test_model_loop_follows_the_reference_acceleration(self, plant, gains):
        # a set-point's acceleration is 0: the model derivative is k*'(x* - x_d)
        x_d = (0.3, 0.0)
        loop = build_closed_loop(
            plant, ControllerSpec(kind="MFC", gains=gains, reference=SetPoint(x_d[0])), 1000.0)
        y = _random_states(4, 16, seed=6)
        k = gains.k_star
        expected = k[0] * (y[0] - x_d[0]) + k[1] * (y[1] - x_d[1])
        assert np.array_equal(loop.rhs(0.0, y)[1], expected)


def _close(got, f, gu, ph):
    """|got - (f + g u + phi)| within 1e-12 max(1, |f|, |g u|, |phi|), per column."""
    scale = np.maximum(np.maximum(1.0, np.abs(f)), np.maximum(np.abs(gu), np.abs(ph)))
    return np.all(np.abs(got - (f + gu + ph)) <= 1e-12 * scale)


class TestTargetAcceleration:
    """The loops integrate the plant under the real input: f + g u + phi.

    The model loop is the nominal model under the plain single-loop law.
    """

    @pytest.mark.parametrize("kind", ["SL", "SLHG", "MFC"])
    def test_single_run_is_the_plant_under_its_law(self, plant, gains, kind):
        p, g = plant.params, 1.0 / plant.params.m
        spec = ControllerSpec(kind=kind, gains=gains, reference=SetPoint(0.75))
        loop = build_closed_loop(plant, spec, 1000.0)
        model_law = _law(plant, gains, "SL")
        dim = 2 * loop.n if kind == "MFC" else loop.n
        y = _random_states(dim, 200, seed=9)
        for j in range(200):
            yj = _column(y, j)
            x = yj[-2:]
            u = loop.control(0.0, yj)
            if kind == "MFC":
                model = loop.rhs(0.0, yj)[1]
                assert _close(model, msd_f(p, yj[:2]), g * model_law(*yj[:2]), 0.0)
            acc = loop.rhs(0.0, yj)[-1]
            assert _close(acc, msd_f(p, x), g * u, msd_phi(p, x))

    def test_stacked_batch_is_the_plant_under_each_law(self, plant, gains):
        p, g = plant.params, 1.0 / plant.params.m
        kinds = (("MFC", 22), ("SL", 21), ("SLHG", 21))
        spec = ControllerSpec(kind="MFC", gains=gains, reference=SetPoint(X_D[0]))
        loop = build_closed_loop(plant, spec, 1000.0, columns=kinds)
        model = _random_states(2, 64, seed=10)
        for i in range(2):
            model[i][22:] = X_D[i]
        x = _random_states(2, 64, seed=11)
        dy = loop.rhs(0.0, model + x)
        mfc, sl, slhg = slice(0, 22), slice(22, 43), slice(43, 64)
        xs = tuple(c[mfc] for c in model)
        u = np.empty(64)
        u[mfc] = _law(plant, gains, "MFC")(*xs, *(c[mfc] for c in x))
        u[sl] = _law(plant, gains, "SL")(*(c[sl] for c in x))
        u[slhg] = _law(plant, gains, "SLHG")(*(c[slhg] for c in x))
        assert _close(dy[-1], msd_f(p, x), g * u, msd_phi(p, x))
        u_star = _law(plant, gains, "SL")(*xs)
        assert _close(dy[1][mfc], msd_f(p, xs), g * u_star, 0.0)
        assert np.all(dy[1][22:] == 0.0)


def _unchanged_after(call, comps):
    copies = [np.array(c, copy=True) for c in comps]
    call()
    return all(np.array_equal(c, k) for c, k in zip(comps, copies))


class TestInputsUntouched:
    """The kernels accumulate in place; none may write an input component."""

    @pytest.mark.parametrize("kind", ["SL", "SLHG", "MFC", "FFLIN"])
    def test_rhs_step_and_lyapunov_value(self, plant, gains, kind):
        spec = ControllerSpec(kind=kind, gains=gains, reference=SetPoint(0.75))
        loop = build_closed_loop(plant, spec, 1000.0)
        dim = 2 * loop.n if kind == "MFC" else loop.n
        y = _random_states(dim, 64, seed=7)
        v_of = loop.make_v(solve_lyapunov(gains.k_star), (0.8, 0.0))
        assert _unchanged_after(lambda: loop.rhs(0.0, y), y)
        assert _unchanged_after(lambda: loop.control(0.0, y), y)
        assert _unchanged_after(lambda: _rk4_components(loop.rhs, 0.0, y, 1e-3), y)
        assert _unchanged_after(lambda: v_of(0.0, y), y)

    def test_drift_and_uncertainty(self, table_params):
        x = _random_states(2, 64, seed=8)
        assert _unchanged_after(lambda: msd_f(table_params, x), x)
        assert _unchanged_after(lambda: msd_phi(table_params, x), x)


def _decay(t, y):
    return -y[0], -y[1]


def _rk4_reference(rhs, t, y, h):
    """The per-component RK4 step that the written-out kernel reproduces bit for bit."""

    def stage(y, k, h):
        out = []
        for a, b in zip(y, k):
            z = b * h
            z += a
            out.append(z)
        return tuple(out)

    h2 = 0.5 * h
    k1 = rhs(t, y)
    k2 = rhs(t + h2, stage(y, k1, h2))
    k3 = rhs(t + h2, stage(y, k2, h2))
    k4 = rhs(t + h, stage(y, k3, h))
    s = h / 6.0
    out = []
    for a, b, c, d, e in zip(y, k1, k2, k3, k4):
        acc = c + d
        acc *= 2.0
        acc += b
        acc += e
        acc *= s
        acc += a
        out.append(acc)
    return tuple(out)


def _mixing(t, y):
    """A derivative mixing neighbouring components and t; its first component is y[1] itself."""
    out = [y[1]]
    for i in range(1, len(y)):
        dy = np.sin(y[i - 1])
        dy *= i + 1.0
        dy -= y[i]
        dy += t
        out.append(dy)
    return tuple(out)


def _same_bits(a, b):
    return len(a) == len(b) and all(
        np.array_equal(np.asarray(p, dtype=float).view(np.int64),
                       np.asarray(q, dtype=float).view(np.int64))
        for p, q in zip(a, b)
    )


class TestStepRk4:
    """One classical RK4 step on a tuple of components."""

    def test_exponential_decay(self):
        y, _ = _rk4_components(_decay, 0.0, (1.0, 1.0), 0.1)
        assert y == pytest.approx(math.exp(-0.1), abs=1e-6)

    def test_zero_dynamics(self):
        zero = lambda t, y: (0.0 * y[0], 0.0 * y[1])  # noqa: E731
        assert _rk4_components(zero, 0.0, (3.5, 3.5), 0.2) == (3.5, 3.5)

    def test_convergence_order(self):
        def run(h):
            y = (1.0, 1.0)
            for _ in range(int(round(1.0 / h))):
                y = _rk4_components(_decay, 0.0, y, h)
            return abs(y[0] - math.exp(-1.0))

        order = math.log2(run(0.1) / run(0.05))
        assert order >= 3.9


class TestStepKernel:
    """The written-out step against the per-component formula it replaces."""

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("count", [None, 64])
    def test_matches_the_per_component_formula(self, dim, count):
        y = _random_states(dim, count or 1, seed=dim)
        if count is None:
            y = _column(y, 0)
        # long steps too: with s = h / 6 small, a reordered sum rarely shows in a + s (...)
        for t, h in ((0.0, 1e-3), (0.37, 0.05), (2.0, -0.01), (0.5, 2.0), (1.0, 6.0)):
            assert _same_bits(_rk4_components(_mixing, t, y, h),
                              _rk4_reference(_mixing, t, y, h))

    @pytest.mark.parametrize("kind", ["SL", "SLHG", "MFC", "FFLIN"])
    def test_closed_loops_match_the_formula(self, plant, gains, kind):
        spec = ControllerSpec(kind=kind, gains=gains, reference=SetPoint(0.75))
        loop = build_closed_loop(plant, spec, 1000.0)
        y = _random_states(4 if kind == "MFC" else 2, 32, seed=9)
        assert _same_bits(_rk4_components(loop.rhs, 0.0, y, 1e-3),
                          _rk4_reference(loop.rhs, 0.0, y, 1e-3))
        scalar = _column(y, 5)
        for _ in range(100):
            step = _rk4_components(loop.rhs, 0.0, scalar, 1e-3)
            assert _same_bits(step, _rk4_reference(loop.rhs, 0.0, scalar, 1e-3))
            scalar = step

    @pytest.mark.parametrize("dim", [0, 1, 3, 5])
    def test_other_component_counts_are_rejected(self, dim):
        with pytest.raises(ValueError, match="2 or 4 components"):
            _rk4_components(lambda t, y: y, 0.0, (1.0,) * dim, 0.1)


class TestWholeSteps:
    def test_steps_must_meet_the_horizon_to_within_1e_9_of_it(self):
        assert whole_steps(1.0, 0.25) == 4 and whole_steps(1.0, 1.0 / 3.0) == 3
        with pytest.raises(ValueError, match="whole number of steps"):
            whole_steps(1.0, 0.3333333)  # 3 steps end 1e-7 short


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
        traj = simulate_closed_loop(plant, spec, (0.0, 0.0), 10.0, 1e-3, vartheta=1000.0)
        err = abs(traj.x[-1, 0] - 0.75) / 0.75 * 100.0
        assert err == pytest.approx(4.3, abs=0.3)

    def test_perturbed_mfc_reconverges_quickly(self, plant, gains):
        spec = ControllerSpec(
            kind="MFC", gains=gains, reference=SetPoint(0.75), model_initial=(0.0, 0.0)
        )
        for x0 in ((0.1, -8.0), (-0.25, 6.0)):
            traj = simulate_closed_loop(plant, spec, x0, 2.0, 1e-3, vartheta=1000.0)
            t_track = time_to_track(traj)
            assert t_track is not None and t_track <= 0.5

    def test_mfc_with_model_on_reference_equals_high_gain_loop(self, plant, gains):
        spec_m = ControllerSpec(
            kind="MFC", gains=gains, reference=SetPoint(0.75), model_initial=(0.75, 0.0)
        )
        spec_hg = ControllerSpec(kind="SLHG", gains=gains, reference=SetPoint(0.75))
        tm = simulate_closed_loop(plant, spec_m, (0.0, 0.0), 3.0, 1e-3, vartheta=1000.0)
        th = simulate_closed_loop(plant, spec_hg, (0.0, 0.0), 3.0, 1e-3, vartheta=1000.0)
        assert np.max(np.abs(tm.u - th.u)) <= 1e-9

    def test_mfc_model_starts_on_the_reference_unless_a_start_is_given(self, plant, gains):
        # the spec resolves the default model start once: (y_d, 0), not the origin
        def run(**start):
            spec = ControllerSpec(kind="MFC", gains=gains, reference=SetPoint(0.75), **start)
            return simulate_closed_loop(plant, spec, (0.1, -0.2), 2.0, 1e-3, vartheta=1000.0)

        default, on_reference = run(), run(model_initial=(0.75, 0.0))
        origin = run(model_initial=(0.0, 0.0))
        for column in ("t", "x", "x_star", "u", "V"):
            assert getattr(default, column).tobytes() == getattr(on_reference, column).tobytes()
        assert default.metadata == on_reference.metadata
        assert default.x_star.tobytes() != origin.x_star.tobytes()
        assert default.x.tobytes() != origin.x.tobytes()

    def test_nominal_plant_all_controllers_exact(self, nominal_params, gains):
        plant0 = msd_plant(nominal_params)
        for kind in ("SL", "SLHG", "MFC", "FFLIN"):
            spec = ControllerSpec(
                kind=kind, gains=gains, reference=SetPoint(0.75),
                model_initial=(0.0, 0.0) if kind == "MFC" else None,
            )
            traj = simulate_closed_loop(plant0, spec, (0.0, 0.0), 10.0, 1e-3, vartheta=1000.0)
            assert abs(traj.x[-1, 0] - 0.75) < 1e-6

    def test_lyapunov_decreases_inside_certified_set(self, plant, gains):
        spec = ControllerSpec(
            kind="MFC", gains=gains, reference=SetPoint(0.75), model_initial=(0.0, 0.0)
        )
        traj = simulate_closed_loop(plant, spec, (0.0, 0.0), 10.0, 1e-3, vartheta=1000.0)
        # the falsifier's decrease rule along V: no increase before V first leaves the set
        increase, inside = falsify._decrease_step(traj.V[:-1], traj.V[1:],
                                                  np.finfo(float).max, 0.0)
        stops = np.flatnonzero(increase | ~inside)
        assert len(stops) == 0 or not increase[stops[0]]

    def test_divergent_run_raises_with_partial_data(self, plant, gains):
        spec = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(2.0))
        with pytest.raises(IntegrationError) as err:
            simulate_closed_loop(plant, spec, (0.0, 0.0), 60.0, 1e-3, vartheta=1000.0)
        assert err.value.time is not None
        partial = err.value.trajectory
        assert partial.metadata["diverged"]
        assert np.all(np.isfinite(partial.x))

    def test_rejects_inconsistent_grid(self, plant, gains):
        spec = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(0.75))
        with pytest.raises(ValueError):
            simulate_closed_loop(plant, spec, (0.0, 0.0), 0.0005, 1e-3, vartheta=1000.0)
        with pytest.raises(ValueError):
            simulate_closed_loop(plant, spec, (0.0, 0.0), 1.0, -1e-3, vartheta=1000.0)


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

    def test_needs_msd_plant(self, table_params, gains):
        spec = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(0.75))
        with pytest.raises(TypeError):
            steady_state_of(table_params, spec)
        with pytest.raises(TypeError):
            build_closed_loop(table_params, spec, 1000.0)


class TestSetPointOnly:
    """A reference is a set-point: (y_d, 0) with a zero acceleration."""

    def test_spec_takes_a_set_point(self, gains):
        with pytest.raises(TypeError):
            ControllerSpec(kind="SL", gains=gains, reference=(0.75, 0.0, 0.0))

    def test_lyapunov_value_is_centred_on_a_rest_state(self, plant, gains):
        spec = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(0.75))
        loop = build_closed_loop(plant, spec, 1000.0)
        with pytest.raises(ValueError):
            loop.make_v(solve_lyapunov(gains.k_star), (0.8, 0.1))


def _rest_state(kind, y_d, s):
    """Rest state of a set-point loop with output s; the model rests at x_d."""
    return ((y_d, 0.0) if kind == "MFC" else ()) + (s, 0.0)


def _scan_equilibria(loop, kind, y_d):
    """Sign changes of the terminal rest residual on a 4001-point grid, bisected.

    An oracle independent of the closed-form cubics: it only evaluates the
    assembled loop's own right-hand side.
    """
    span = max(10.0, 5.0 * (abs(y_d) + 1.0))
    grid = np.linspace(y_d - span, y_d + span, 4001)
    res = np.asarray(loop.rhs(0.0, _rest_state(kind, y_d, grid))[-1])

    def residual(s):
        return float(loop.rhs(0.0, _rest_state(kind, y_d, s))[-1])

    roots = [float(grid[i]) for i in np.nonzero(res == 0.0)[0]]
    for i in np.nonzero(res[:-1] * res[1:] < 0.0)[0]:
        lo, hi, flo = float(grid[i]), float(grid[i + 1]), float(res[i])
        for _ in range(90):
            mid = 0.5 * (lo + hi)
            fm = residual(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if flo * fm < 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        roots.append(0.5 * (lo + hi))
    return roots


class TestSteadyStateOracle:
    """The closed-form steady state against the loop it is the rest state of."""

    @pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
    @pytest.mark.parametrize("kind", ["SL", "SLHG", "MFC", "FFLIN"])
    def test_rest_state_of_the_assembled_loop(self, scenario, kind):
        cfg = preset(scenario)
        gains = design_gains(cfg.poles, cfg.epsilon)
        plant = msd_plant(cfg.plant, cfg.domain)
        for y_d in [cfg.y_d] + list(np.linspace(-2.5, 2.5, 11)):
            y_d = float(y_d)
            spec = ControllerSpec(kind=kind, gains=gains, reference=SetPoint(y_d))
            loop = build_closed_loop(plant, spec, cfg.vartheta)
            x_s = steady_state_of(plant, spec)
            s = float(x_s[0])
            assert x_s[1] == 0.0
            deriv = loop.rhs(0.0, _rest_state(kind, y_d, s))
            assert max(abs(float(c)) for c in deriv) <= 1e-9 * max(1.0, abs(s))
            roots = _scan_equilibria(loop, kind, y_d)
            nearest = min(roots, key=lambda r: abs(r - y_d))
            assert s == pytest.approx(nearest, rel=1e-12, abs=1e-12)


class TestMetricsAndCsv:
    def test_high_gain_metrics(self, plant, gains):
        spec = ControllerSpec(kind="SLHG", gains=gains, reference=SetPoint(0.75))
        x_s = steady_state_of(plant, spec)
        traj = simulate_closed_loop(plant, spec, (0.0, 0.0), 10.0, 1e-3, vartheta=1000.0)
        m = metrics(traj, x_s)
        assert m["u0"] == pytest.approx(310.0, rel=0.02)
        assert m["peak_abs_u"] >= m["u0"]
        assert m["steady_state_error_pct"] < 0.1
        assert m["settle_time"] is not None

    def test_equilibrium_hold_reports_analytic_offset(self, plant, table_params, gains):
        sl_eq = single_loop_equilibria(table_params, gains, 0.75)
        x_s = (sl_eq.selected, 0.0)
        spec = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(0.75))
        traj = simulate_closed_loop(plant, spec, x_s, 5.0, 1e-3, vartheta=1000.0)
        m = metrics(traj, np.asarray(x_s))
        analytic = abs(sl_eq.selected - 0.75) / 0.75 * 100.0
        assert m["steady_state_error_pct"] == pytest.approx(analytic, rel=1e-6)
        assert m["settle_time"] == 0.0

    @staticmethod
    def _reference_csv(traj):
        table = np.column_stack((traj.t, traj.x, traj.x_star, traj.u, traj.V)).tolist()
        return "t,x1,x2,xstar1,xstar2,u,V\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in table)

    @pytest.mark.parametrize("kind", ["SL", "MFC"])
    def test_csv_bytes_of_runs(self, plant, gains, tmp_path, kind):
        spec = ControllerSpec(kind=kind, gains=gains, reference=SetPoint(0.75))
        traj = simulate_closed_loop(plant, spec, (0.1, -0.2), 0.2, 1e-3, vartheta=1000.0)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        assert path.read_bytes() == self._reference_csv(traj).encode()

    @pytest.mark.parametrize("columns", [
        # signed zeros: equal values, different bits
        [[0.0, 1.0], [0.5, 0.5], [0.0, -0.0], [-0.0, -0.0], [2.0, 3.0], [0.0, 0.0]],
        # the partial trajectory of a diverged run
        [[0.0, 1e308], [1.0, math.inf], [0.75, 0.75], [0.0, 0.0], [math.inf, math.nan],
         [math.nan, math.nan]],
        [[1.0, -math.inf, math.nan], [math.nan, math.inf, 0.0], [1e-5] * 3, [1e16] * 3,
         [-math.inf] * 3, [math.inf] * 3],
        # one row: every column is constant
        [[0.0], [0.75], [-0.0], [0.75], [math.nan], [12.81]],
    ])
    def test_csv_bytes_of_edge_tables(self, tmp_path, columns):
        x1, x2, xs1, xs2, u, V = (np.array(c) for c in columns)
        traj = Trajectory(t=np.arange(len(x1)) * 1e-3, x=np.column_stack((x1, x2)),
                          x_star=np.column_stack((xs1, xs2)), u=u, V=V)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        expected = self._reference_csv(traj)
        assert len(expected.splitlines()) == len(x1) + 1
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                      CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1])
    def test_csv_bytes_across_row_blocks(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        x1 = rng.standard_normal(rows)
        x2 = np.zeros(rows)
        x2[-1:] = -0.0  # equal to every other cell, but not the same bits
        xs1 = np.full(rows, 0.75)
        xs2 = np.full(rows, 0.75)
        xs2[-1:] = 0.5  # changes only in its last row
        u = np.full(rows, math.nan)  # constant: NaN has one bit pattern here
        V = np.where(np.arange(rows) % 3 == 0, math.nan, rng.standard_normal(rows))
        traj = Trajectory(t=np.arange(rows) * 1e-3, x=np.column_stack((x1, x2)),
                          x_star=np.column_stack((xs1, xs2)), u=u, V=V)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        assert path.read_bytes() == self._reference_csv(traj).encode()

    def test_csv_bytes_of_all_constant_columns(self, tmp_path):
        rows = 2 * CSV_BLOCK_ROWS + 1
        const = np.full(rows, -0.0)
        traj = Trajectory(t=const, x=np.column_stack((const, np.full(rows, 0.75))),
                          x_star=np.column_stack((const, const)), u=np.full(rows, math.nan),
                          V=np.full(rows, 12.81))
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        expected = self._reference_csv(traj)
        assert len(expected.splitlines()) == rows + 1
        assert path.read_bytes() == expected.encode()

    def test_csv_refuses_columns_of_unequal_length(self, tmp_path):
        traj = Trajectory(t=np.arange(3) * 1e-3, x=np.zeros((3, 2)), x_star=np.zeros((3, 2)),
                          u=np.zeros(3), V=np.zeros(2))
        with pytest.raises(ValueError):
            traj.to_csv(tmp_path / "traj.csv")

    def test_csv_peak_memory_does_not_grow_with_rows(self, tmp_path):
        rows = 50_000
        data = np.random.default_rng(0).standard_normal((rows, 6))
        traj = Trajectory(t=np.arange(rows) * 1e-3, x=data[:, :2], x_star=data[:, 2:4],
                          u=data[:, 4], V=data[:, 5])
        tracemalloc.start()
        try:
            traj.to_csv(tmp_path / "traj.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000  # about 0.6 MB: one block of rows as Python floats

    def test_run_peak_memory_per_step(self, plant, gains):
        spec = ControllerSpec(kind="MFC", gains=gains, reference=SetPoint(0.75))
        simulate_closed_loop(plant, spec, (0.1, -0.2), 0.1, 1e-3, vartheta=1000.0)  # warm up
        tracemalloc.start()
        try:
            traj = simulate_closed_loop(plant, spec, (0.1, -0.2), 20.0, 1e-3, vartheta=1000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        steps = len(traj.t) - 1
        assert steps == 20_000
        # about 104 B: the packed record (32 B), t, u, V and the input's temporaries
        assert peak < 150 * steps

    def test_csv_format(self, plant, gains, tmp_path):
        spec = ControllerSpec(kind="SL", gains=gains, reference=SetPoint(0.75))
        traj = simulate_closed_loop(plant, spec, (0.0, 0.0), 0.1, 1e-3, vartheta=1000.0)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,xstar1,xstar2,u,V"
        assert len(lines) == len(traj.t) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[3]) == 0.75  # single-loop runs repeat the reference state
