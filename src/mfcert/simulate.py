"""Closed-loop simulation of the controller variants with fixed-step RK4.

The integrator works on tuples of state components.  Components may be plain
floats (single runs) or numpy arrays (batched runs); every control law and
right-hand side is written as broadcast-friendly arithmetic so both paths
share one code path.  The control law is applied at every integrator stage;
the recorded input samples come from the same pre-step states the stage
evaluations use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .plant import PlantModel
from .synthesis import GainSet, solve_lyapunov

__all__ = [
    "SetPoint",
    "ReferenceTrajectory",
    "ControllerSpec",
    "Trajectory",
    "IntegrationError",
    "control_sl",
    "control_mfc",
    "control_fflin",
    "step_rk4",
    "simulate_closed_loop",
    "steady_state_of",
    "metrics",
    "time_to_track",
]

CONTROLLER_KINDS = ("SL", "SLHG", "MFC", "FFLIN")


class IntegrationError(RuntimeError):
    """Raised when an integration step produces a non-finite state."""

    def __init__(self, message: str, time: float | None = None, trajectory=None):
        super().__init__(message)
        self.time = time
        self.trajectory = trajectory


@dataclass(frozen=True)
class SetPoint:
    """Constant output reference; every derivative is zero."""

    y_d: float

    def derivatives(self, t: float, n: int) -> tuple:
        return (float(self.y_d),) + (0.0,) * n


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Smooth reference supplying the output and its first n derivatives.

    ``derivs(t)`` must return a sequence of length n + 1:
    (y_d, y_d', ..., y_d^(n)).
    """

    derivs: Callable[[float], Sequence[float]]

    def derivatives(self, t: float, n: int) -> tuple:
        d = tuple(float(v) for v in self.derivs(t))
        if len(d) != n + 1:
            raise ValueError(f"reference must supply {n + 1} derivatives, got {len(d)}")
        return d


@dataclass(frozen=True)
class ControllerSpec:
    """Which loop to close and with what gains and reference.

    The plain single loop feeds back with k_star, the high-gain single loop
    with k_tilde.  ``model_initial`` seeds the model loop (two-loop scheme
    only; defaults to the reference state).  ``fflin_vfb`` is the stabilising
    feedback term of the feedforward-linearising law, a callable
    (t, x_components, reference_derivatives) -> scalar; it defaults to the
    high-gain error feedback when the law runs standalone.
    """

    kind: str
    gains: GainSet
    reference: SetPoint | ReferenceTrajectory
    model_initial: tuple | None = None
    fflin_vfb: Callable | None = None

    def __post_init__(self):
        if self.kind not in CONTROLLER_KINDS:
            raise ValueError(f"controller kind must be one of {CONTROLLER_KINDS}")
        if self.model_initial is not None:
            object.__setattr__(
                self, "model_initial", tuple(float(v) for v in self.model_initial)
            )


@dataclass
class Trajectory:
    """Uniform-grid time series of one closed-loop run."""

    t: np.ndarray
    x: np.ndarray
    x_star: np.ndarray
    u: np.ndarray
    V: np.ndarray
    metadata: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        n = self.x.shape[1]
        header = (
            "t,"
            + ",".join(f"x{i+1}" for i in range(n))
            + ","
            + ",".join(f"xstar{i+1}" for i in range(n))
            + ",u,V"
        )
        lines = [header]
        for k in range(len(self.t)):
            cells = [repr(float(self.t[k]))]
            cells += [repr(float(v)) for v in self.x[k]]
            cells += [repr(float(v)) for v in self.x_star[k]]
            cells += [repr(float(self.u[k])), repr(float(self.V[k]))]
            lines.append(",".join(cells))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _nonzero_gain(g):
    if np.any(np.asarray(g) == 0):
        raise ZeroDivisionError("input gain g vanishes at the evaluated state")


# One law per controller kind; ``d`` is (x_d, y_d^(n)).  A law returns its input
# with the f and g it evaluated, reused in x_n' = f(x) + g(x) u + phi(x).


def _single_loop_law(f, g, k, d, x):
    """(-f(x) + y_d^(n) + k'(x - x_d)) / g(x), with f(x) and g(x)."""
    fx = f(x)
    gv = g(x)
    acc = d[len(k)] - fx
    for i in range(len(k)):
        acc = acc + k[i] * (x[i] - d[i])
    return acc / gv, fx, gv


def _two_loop_law(f, g, k_star, k_tilde, d, x_star, x):
    """Model input (-f(x*) + y_d^(n) + k*'(x* - x_d)) / g(x*) and process input
    (-f(x) + y_d^(n) + k*'(x* - x_d) + k~'(x - x*)) / g(x), each with its f, g.

    With k* = 0 and x* = x_d the process input is the single-loop law with
    gain k~, bit for bit.
    """
    n = len(k_star)
    shared = k_star[0] * (x_star[0] - d[0])
    for i in range(1, n):
        shared = shared + k_star[i] * (x_star[i] - d[i])
    fs = f(x_star)
    gs = g(x_star)
    fx = f(x)
    gv = g(x)
    acc = d[n] - fx + shared
    for i in range(n):
        acc = acc + k_tilde[i] * (x[i] - x_star[i])
    return ((d[n] - fs + shared) / gs, fs, gs), (acc / gv, fx, gv)


def _fflin_law(f, g, d, v_fb):
    """(-f(x_d) + y_d^(n) + v_fb) / g(x_d)."""
    x_d = d[:-1]
    return (d[-1] - f(x_d) + v_fb) / g(x_d)


def control_sl(x, x_d, y_d_n, k: Sequence[float], plant: PlantModel):
    """Single-loop feedback linearising law (-f(x) + y_d^(n) + k'(x - x_d)) / g(x)."""
    _nonzero_gain(plant.g(x))
    return _single_loop_law(plant.f, plant.g, k, tuple(x_d) + (y_d_n,), x)[0]


def control_mfc(
    x,
    x_star,
    x_d,
    y_d_n,
    k_star: Sequence[float],
    k_tilde: Sequence[float],
    plant: PlantModel,
):
    """Two-loop control: model law at the model state plus the process correction.

    Returns (u, u_star, u_tilde).  The model law linearises the nominal model
    about the reference; the correction u_tilde = u - u_star cancels the drift
    and gain mismatch between process and model states, and is exactly 0 when
    they coincide.
    """
    _nonzero_gain(plant.g(x_star))
    _nonzero_gain(plant.g(x))
    d = tuple(x_d) + (y_d_n,)
    (u_star, _, _), (u, _, _) = _two_loop_law(
        plant.f, plant.g, k_star, k_tilde, d, x_star, x
    )
    return u, u_star, u - u_star


def control_fflin(x_d, y_d_n, v_fb, plant: PlantModel):
    """Feedforward linearising law (-f(x_d) + y_d^(n) + v_fb) / g(x_d)."""
    _nonzero_gain(plant.g(x_d))
    return _fflin_law(plant.f, plant.g, tuple(x_d) + (y_d_n,), v_fb)


def step_rk4(dynamics: Callable, state, h: float):
    """One classical four-stage Runge-Kutta step for an autonomous system."""
    if h <= 0:
        raise ValueError("step size must be positive")
    (result,) = _rk4_components(lambda t, y: (dynamics(y[0]),), 0.0, (state,), h)
    if not np.all(np.isfinite(result)):
        raise IntegrationError("integration step produced a non-finite state")
    return result


def _rk4_components(rhs, t, y, h, k1=None):
    """One RK4 step on a tuple of components; ``k1`` is rhs(t, y) if known."""
    h2 = 0.5 * h
    if k1 is None:
        k1 = rhs(t, y)
    k2 = rhs(t + h2, tuple(a + h2 * b for a, b in zip(y, k1)))
    k3 = rhs(t + h2, tuple(a + h2 * b for a, b in zip(y, k2)))
    k4 = rhs(t + h, tuple(a + h * b for a, b in zip(y, k3)))
    s = h / 6.0
    return tuple(
        a + s * (b + 2.0 * (c + d) + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)
    )


def _quadform(P, v):
    """v'Pv as sum_i v_i (P_ii v_i + sum_{j>i} (P_ij + P_ji) v_j)."""
    total = None
    for i in range(len(v)):
        acc = P[i][i] * v[i]
        for j in range(i + 1, len(v)):
            acc = acc + (P[i][j] + P[j][i]) * v[j]
        total = v[i] * acc if total is None else total + v[i] * acc
    return total


@dataclass
class _Loop:
    """Closed loop: ``law(t, y)`` gives (derivative, input), ``rhs`` the first.

    ``dref`` gives the reference derivatives at a time, or as rows on a grid.
    """

    n: int
    law: Callable
    rhs: Callable
    dref: Callable
    eq_comps: Callable
    make_v: Callable


def build_closed_loop(
    plant: PlantModel,
    controller: ControllerSpec,
    vartheta: float | np.ndarray,
    columns: Sequence[tuple[str, int]] | None = None,
) -> _Loop:
    """Wire a controller kind into component-wise closed-loop dynamics.

    The two-loop state lists the model components first; ``vartheta`` weighs
    the model error in its Lyapunov value.  ``columns``, a sequence of
    (kind, count) runs of SL, SLHG or MFC, stacks set-point loops into one
    batch, with ``controller`` giving gains and set-point and ``vartheta`` one
    value per column.  A batch with MFC columns runs the two-loop law: a
    single-loop column holds its model at x_d with model gain 0, process gain
    k* (SL) or k~ (SLHG) and its model derivative masked to exactly 0, so its
    process rows follow the single-loop law bit for bit.  A batch without MFC
    columns runs the single-loop law on process rows alone.
    """
    n = plant.dims.n
    f, g, phi = plant.f, plant.g, plant.phi
    gains = controller.gains
    if gains.n != n:
        raise ValueError("gain dimension does not match the plant")
    kst = gains.k_star
    ktd = gains.k_tilde
    ref = controller.reference
    kind = controller.kind

    if isinstance(ref, SetPoint):
        const = ref.derivatives(0.0, n)

        def dref(t):
            return const

    else:

        def dref(t):
            if np.ndim(t) == 0:
                return ref.derivatives(t, n)
            return tuple(np.array(c) for c in zip(*(ref.derivatives(s, n) for s in t)))

    inv_eps = 1.0 / gains.epsilon
    dinv_scale = tuple(inv_eps ** (n - 1 - j) for j in range(n))
    zero, ones = (0.0,) * n, (1.0,) * n
    scale = dinv_scale if kind in ("SLHG", "MFC") else ones
    k = kst if kind == "SL" else ktd
    model = 1.0

    if columns is not None:
        if not isinstance(ref, SetPoint):
            raise ValueError("a stacked batch needs a set-point reference")
        # per kind: model gain, process gain, model-derivative mask, V scaling
        slots = {
            "MFC": (kst, ktd, 1.0, dinv_scale),
            "SLHG": (zero, ktd, 0.0, dinv_scale),
            "SL": (zero, kst, 0.0, ones),
        }
        kinds = {c for c, _ in columns}
        if kinds - slots.keys():
            raise ValueError(f"kinds {sorted(kinds - slots.keys())} cannot ride in a stacked batch")
        counts = [count for _, count in columns]
        kst, ktd, model, scale = (
            np.repeat(np.asarray(values, dtype=float), counts, axis=0).T
            for values in zip(*(slots[c] for c, _ in columns))
        )
        k = ktd
        kind = "MFC" if "MFC" in kinds else "SL"

    if kind in ("SL", "SLHG"):

        def law(t, y):
            u, fx, gv = _single_loop_law(f, g, k, dref(t), y)
            return y[1:] + (fx + gv * u + phi(y),), u

    elif kind == "MFC":

        def law(t, y):
            xs, x = y[:n], y[n:]
            (u_star, fs, gs), (u, fx, gv) = _two_loop_law(f, g, kst, ktd, dref(t), xs, x)
            model_acc = (fs + gs * u_star) * model
            return xs[1:] + (model_acc,) + x[1:] + (fx + gv * u + phi(x),), u

    elif kind == "FFLIN":
        custom = controller.fflin_vfb

        def law(t, y):
            d = dref(t)
            if custom is not None:
                v_fb = custom(t, y, d)
            else:
                v_fb = 0.0
                for i in range(n):
                    v_fb = v_fb + ktd[i] * (y[i] - d[i])
            u = _fflin_law(f, g, d, v_fb)
            return y[1:] + (f(y) + g(y) * u + phi(y),), u

    else:  # pragma: no cover - guarded by ControllerSpec
        raise ValueError(f"unknown controller kind {kind!r}")

    def rhs(t, y):
        return law(t, y)[0]

    def eq_comps(s, zero):
        """Rest state with output s; the two-loop model rests at the reference."""
        rest = (s,) + (zero,) * (n - 1)
        return tuple(dref(0.0)[:n]) + rest if kind == "MFC" else rest

    def make_v(P: np.ndarray, x_s: Sequence | None):
        P = np.asarray(P, dtype=float).tolist()
        if kind == "MFC":

            def v_of(t, y):
                d = dref(t)
                center = x_s if x_s is not None else d[:n]
                es = tuple(y[i] - d[i] for i in range(n))
                zt = tuple(((y[n + i] - center[i]) - es[i]) * scale[i] for i in range(n))
                return vartheta * _quadform(P, es) + _quadform(P, zt)

        else:  # FFLIN measures the deviation from the reference state

            def v_of(t, y):
                d = dref(t)
                center = d[:n] if x_s is None or kind == "FFLIN" else x_s
                return _quadform(P, tuple((y[i] - center[i]) * scale[i] for i in range(n)))

        return v_of

    return _Loop(n=n, law=law, rhs=rhs, dref=dref, eq_comps=eq_comps, make_v=make_v)


def _steady_state_from_loop(loop: _Loop, y_d: float) -> np.ndarray:
    """Equilibrium output of the assembled loop, chosen closest to the set-point.

    Scans the residual (the terminal acceleration component at rest states)
    for sign changes over a generous interval around the set-point and
    bisects each bracket.
    """
    span = max(10.0, 5.0 * (abs(y_d) + 1.0))
    grid = np.linspace(y_d - span, y_d + span, 4001)
    zeros = np.zeros_like(grid)
    res = np.asarray(loop.rhs(0.0, loop.eq_comps(grid, zeros))[-1])

    def residual(s: float) -> float:
        return float(loop.rhs(0.0, loop.eq_comps(float(s), 0.0))[-1])

    roots: list[float] = []
    for i in range(len(grid) - 1):
        a, b = float(res[i]), float(res[i + 1])
        if a == 0.0:
            roots.append(float(grid[i]))
            continue
        if a * b < 0.0:
            lo, hi = float(grid[i]), float(grid[i + 1])
            flo = a
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
    if float(res[-1]) == 0.0:
        roots.append(float(grid[-1]))
    if not roots:
        raise ArithmeticError("no closed-loop equilibrium found near the set-point")
    best = min(roots, key=lambda r: abs(r - y_d))
    x_s = np.zeros(loop.n)
    x_s[0] = best
    return x_s


def steady_state_of(
    plant: PlantModel, controller: ControllerSpec, vartheta: float | None = None
) -> np.ndarray:
    """Steady state of the chosen closed loop for a set-point reference."""
    if not isinstance(controller.reference, SetPoint):
        raise ValueError("steady states are defined for set-point references")
    if vartheta is None:
        vartheta = 100.0 / controller.gains.epsilon
    loop = build_closed_loop(plant, controller, vartheta)
    return _steady_state_from_loop(loop, controller.reference.y_d)


def simulate_closed_loop(
    plant: PlantModel,
    controller: ControllerSpec,
    x0: Sequence[float],
    horizon: float,
    h: float,
    vartheta: float | None = None,
) -> Trajectory:
    """Integrate one closed loop and record states, input and Lyapunov value.

    The two-loop scheme integrates the coupled model/process pair; the model
    loop sees no uncertainty by construction.  Single-loop runs repeat the
    reference state in the model-state slot.  Raises IntegrationError when a
    state goes non-finite; the partial trajectory rides on the exception.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    if horizon < h:
        raise ValueError("horizon must be at least one step")
    n = plant.dims.n
    if len(x0) != n:
        raise ValueError(f"x0 must have {n} components")
    if vartheta is None:
        vartheta = 100.0 / controller.gains.epsilon

    loop = build_closed_loop(plant, controller, vartheta)
    set_point = isinstance(controller.reference, SetPoint)
    x_s = _steady_state_from_loop(loop, controller.reference.y_d) if set_point else None

    P = solve_lyapunov(controller.gains.k_star)
    v_of = loop.make_v(P, None if x_s is None else tuple(x_s))

    comps = tuple(float(v) for v in x0)
    if controller.kind == "MFC":
        x0_star = controller.model_initial
        if x0_star is None:
            x0_star = loop.dref(0.0)[:n]
        comps = tuple(float(v) for v in x0_star) + comps

    steps = int(round(horizon / h))
    law = loop.law
    rhs = loop.rhs
    states = [comps]
    inputs = []
    fail_time = None
    for k in range(steps):
        t = k * h
        k1, u = law(t, comps)
        inputs.append(u)
        comps = _rk4_components(rhs, t, comps, h, k1)
        if not all(map(math.isfinite, comps)):
            fail_time = (k + 1) * h
            break
        states.append(comps)
    else:
        inputs.append(law(steps * h, comps)[1])

    # V and the single-loop model slot are evaluated on the whole grid at once
    t_grid = np.arange(len(states)) * h
    rows = tuple(np.array(states).T)
    if controller.kind == "MFC":
        x_star, x = rows[:n], rows[n:]
    else:
        x_star, x = loop.dref(t_grid)[:n], rows

    traj = Trajectory(
        t=t_grid,
        x=np.column_stack(x),
        x_star=np.column_stack(np.broadcast_arrays(*x_star, t_grid)[:n]),
        u=np.array(inputs, dtype=float),
        V=np.asarray(v_of(t_grid, rows), dtype=float),
        metadata={
            "kind": controller.kind,
            "step": h,
            "horizon": horizon,
            "y_d": controller.reference.y_d if set_point else None,
            "x_s": None if x_s is None else [float(v) for v in x_s],
            "epsilon": controller.gains.epsilon,
            "vartheta": vartheta,
            "diverged": fail_time is not None,
            "fail_time": fail_time,
        },
    )
    if fail_time is not None:
        raise IntegrationError(
            f"{controller.kind} state became non-finite at t = {fail_time:.6g} s",
            time=fail_time,
            trajectory=traj,
        )
    return traj


def metrics(traj: Trajectory, x_s_expected: Sequence[float]) -> dict:
    """Headline numbers of a run: initial and peak input, settling, final error.

    The steady-state error compares the mean output over the final tenth of
    the horizon against the set-point.  The settling time is the first grid
    time after which the distance to the expected equilibrium stays below one
    percent of the initial distance (0.01 absolute when starting on it).
    """
    if len(traj.t) == 0:
        raise ValueError("trajectory is empty")
    x_s = np.asarray(x_s_expected, dtype=float)
    u0 = float(traj.u[0])
    peak = float(np.max(np.abs(traj.u)))

    y_d = traj.metadata.get("y_d")
    tail = max(1, len(traj.t) // 10)
    mean_tail = float(np.mean(traj.x[-tail:, 0]))
    if y_d is None:
        sse_pct = None
    else:
        scale = abs(y_d) if y_d != 0 else 1.0
        sse_pct = abs(mean_tail - y_d) / scale * 100.0

    dist = np.linalg.norm(traj.x - x_s, axis=1)
    d0 = float(dist[0])
    threshold = 0.01 * d0 if d0 > 0 else 0.01
    above = np.nonzero(dist >= threshold)[0]
    if len(above) == 0:
        settle = float(traj.t[0])
    elif above[-1] == len(dist) - 1:
        settle = None
    else:
        settle = float(traj.t[above[-1] + 1])

    return {
        "u0": u0,
        "peak_abs_u": peak,
        "steady_state_error_pct": sse_pct,
        "settle_time": settle,
    }


def time_to_track(traj: Trajectory, threshold: float = 0.01) -> float | None:
    """First grid time after which the process stays within threshold of the model."""
    gap = np.linalg.norm(traj.x - traj.x_star, axis=1)
    above = np.nonzero(gap >= threshold)[0]
    if len(above) == 0:
        return float(traj.t[0])
    if above[-1] == len(gap) - 1:
        return None
    return float(traj.t[above[-1] + 1])
