"""Closed-loop simulation of the controller variants with fixed-step RK4.

The integrator works on tuples of state components.  Components may be plain
floats (single runs) or numpy arrays (batched runs); every control law and
right-hand side is written as broadcast-friendly arithmetic so both paths
share one code path.  The control law is applied at every integrator stage;
the recorded input samples are evaluated afterwards on the recorded grid
states, which are the pre-step states of the stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .plant import MsdPlant, PlantModel
from .steady_state import fflin_equilibrium, mfc_equilibria, single_loop_equilibria
from .synthesis import GainSet, solve_lyapunov, time_scaling

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
    and the feedforward-linearising law with k_tilde.  ``model_initial``
    seeds the model loop (two-loop scheme only; defaults to the reference
    state).
    """

    kind: str
    gains: GainSet
    reference: SetPoint | ReferenceTrajectory
    model_initial: tuple | None = None

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
        table = np.column_stack((self.t, self.x, self.x_star, self.u, self.V)).tolist()
        with open(path, "w") as fh:
            fh.write(header + "\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in table)


def _nonzero_gain(g):
    if np.any(np.asarray(g) == 0):
        raise ZeroDivisionError("input gain g vanishes at the evaluated state")


# The laws of the SL, SLHG and MFC loops cancel the known drift f and gain g,
# so the closed loop's terminal derivative is the law's target acceleration v
# plus phi(x); the input u = (v - f(x)) / g(x) is formed only where it is
# recorded.  A law reads its reference d = (x_d, y_d^(n)) through
# ``_skip_zeros``.  Each sum accumulates into a temporary the law owns, so
# array components cost no allocation per operation; on floats augmented
# assignment is plain rebinding.


def _skip_zeros(ref) -> tuple:
    """``ref`` with each float +0.0 as None, which ``_errors`` and ``_feedback`` skip.

    x - 0.0 is x bit for bit, and x + 0.0 differs from x at most in the sign
    of a zero; set-point derivatives are all 0.0.
    """
    return tuple(
        None if isinstance(r, float) and r == 0.0 and math.copysign(1.0, r) > 0.0 else r
        for r in ref
    )


def _errors(x, ref) -> list:
    """x_i - ref_i per component; where ref_i is None the term is x_i itself (read only)."""
    return [xi if r is None else xi - r for xi, r in zip(x, ref)]


def _feedback(k, x, ref, base=None):
    """k'(x - ref) + base: the sum is formed first, base is added last.

    Each term is a temporary of its own; a None reference component is not
    subtracted and a None base is not added.
    """
    acc = None
    for ki, xi, r in zip(k, x, ref):
        if r is None:
            term = xi * ki
        else:
            term = xi - r
            term *= ki
        if acc is None:
            acc = term
        else:
            acc += term
    if base is not None:
        acc += base
    return acc


def _single_loop_law(k, d, x):
    """Target acceleration y_d^(n) + k'(x - x_d)."""
    return _feedback(k, x, d, d[len(k)])


def _two_loop_law(k_star, k_tilde, d, x_star, x):
    """Model acceleration v* = y_d^(n) + k*'(x* - x_d) and process target v* + k~'(x - x*).

    The model loop is the nominal model under its own linearising input, so
    it is the linear chain.  With k* = 0 and x* = x_d, v* is 0 and the process
    target is the single-loop law with gain k~, bit for bit.
    """
    v_star = _feedback(k_star, x_star, d, d[len(k_star)])
    return v_star, _feedback(k_tilde, x, x_star, v_star)


def _input(f, g, v, x):
    """Input (v - f(x)) / g(x) that gives the nominal chain the acceleration v."""
    u = v - f(x)
    u /= g(x)
    return u


def _fflin_law(f, g, d, v_fb):
    """(-f(x_d) + y_d^(n) + v_fb) / g(x_d)."""
    x_d = d[:-1]
    return (d[-1] - f(x_d) + v_fb) / g(x_d)


def control_sl(x, x_d, y_d_n, k: Sequence[float], plant: PlantModel):
    """Single-loop feedback linearising law (-f(x) + y_d^(n) + k'(x - x_d)) / g(x)."""
    _nonzero_gain(plant.g(x))
    d = _skip_zeros(tuple(x_d) + (y_d_n,))
    return _input(plant.f, plant.g, _single_loop_law(k, d, x), x)


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
    d = _skip_zeros(tuple(x_d) + (y_d_n,))
    v_star, v = _two_loop_law(k_star, k_tilde, d, x_star, x)
    u_star = _input(plant.f, plant.g, v_star, x_star)
    u = _input(plant.f, plant.g, v, x)
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


def _rk4_components(rhs, t, y, h):
    """One RK4 step on a tuple of components."""
    h2 = 0.5 * h
    k1 = rhs(t, y)
    k2 = rhs(t + h2, _stage(y, k1, h2))
    k3 = rhs(t + h2, _stage(y, k2, h2))
    k4 = rhs(t + h, _stage(y, k3, h))
    s = h / 6.0
    out = []
    for a, b, c, d, e in zip(y, k1, k2, k3, k4):
        acc = c + d  # a + s (b + 2 (c + d) + e)
        acc *= 2.0
        acc += b
        acc += e
        acc *= s
        acc += a
        out.append(acc)
    return tuple(out)


def _stage(y, k, h):
    """Stage state y + h k, one fresh component each (k may alias y)."""
    out = []
    for a, b in zip(y, k):
        z = b * h
        z += a
        out.append(z)
    return tuple(out)


def _quadform(P, v):
    """v'Pv as sum_i v_i (P_ii v_i + sum_{j>i} (P_ij + P_ji) v_j)."""
    total = None
    for i in range(len(v)):
        acc = v[i] * P[i][i]
        for j in range(i + 1, len(v)):
            term = v[j] * (P[i][j] + P[j][i])
            acc += term
        acc *= v[i]
        if total is None:
            total = acc
        else:
            total += acc
    return total


@dataclass
class _Loop:
    """Closed loop: ``rhs(t, y)`` gives the derivative, ``control(t, y)`` the input.

    ``dref`` gives the reference derivatives at a time, or as rows on a grid.
    """

    n: int
    rhs: Callable
    control: Callable
    dref: Callable
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
    single-loop column holds its model at x_d with model gain 0 and process
    gain k* (SL) or k~ (SLHG).  Its model derivative is then exactly 0 and its
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
        sparse = _skip_zeros(const)

        def dref(t):
            return const

        def law_ref(t):
            return sparse

    else:

        def dref(t):
            if np.ndim(t) == 0:
                return ref.derivatives(t, n)
            return tuple(np.array(c) for c in zip(*(ref.derivatives(s, n) for s in t)))

        def law_ref(t):
            return _skip_zeros(dref(t))

    dinv_scale = time_scaling(1.0 / gains.epsilon, n)
    zero, ones = (0.0,) * n, (1.0,) * n
    scale = dinv_scale if kind in ("SLHG", "MFC") else ones
    k = kst if kind == "SL" else ktd

    if columns is not None:
        if not isinstance(ref, SetPoint):
            raise ValueError("a stacked batch needs a set-point reference")
        # per kind: model gain, process gain, V scaling
        slots = {
            "MFC": (kst, ktd, dinv_scale),
            "SLHG": (zero, ktd, dinv_scale),
            "SL": (zero, kst, ones),
        }
        kinds = {c for c, _ in columns}
        if kinds - slots.keys():
            raise ValueError(f"kinds {sorted(kinds - slots.keys())} cannot ride in a stacked batch")
        counts = [count for _, count in columns]
        # one contiguous (n, N) row block per slot
        kst, ktd, scale = (
            np.repeat(np.asarray(values, dtype=float).T, counts, axis=1)
            for values in zip(*(slots[c] for c, _ in columns))
        )
        k = ktd
        kind = "MFC" if "MFC" in kinds else "SL"

    if kind == "FFLIN":  # f and g are taken at x_d, so nothing cancels

        def control(t, y):
            return _fflin_law(f, g, dref(t), _feedback(ktd, y, law_ref(t)))

        def rhs(t, y):
            acc = g(y) * control(t, y)
            acc += f(y)
            acc += phi(y)
            return y[1:] + (acc,)

    else:
        if kind == "MFC":

            def law(t, y):
                """(model derivative, process state, process target acceleration)."""
                xs, x = y[:n], y[n:]
                v_star, v = _two_loop_law(kst, ktd, law_ref(t), xs, x)
                return xs[1:] + (v_star,), x, v

        else:

            def law(t, y):
                return (), y, _single_loop_law(k, law_ref(t), y)

        def rhs(t, y):
            head, x, v = law(t, y)
            v += phi(x)
            return head + x[1:] + (v,)

        def control(t, y):
            _, x, v = law(t, y)
            return _input(f, g, v, x)

    def make_v(P: np.ndarray, x_s: Sequence | None):
        P = np.asarray(P, dtype=float).tolist()
        center = None if x_s is None else _skip_zeros(x_s)
        if kind == "MFC":

            def v_of(t, y):
                d = law_ref(t)
                es = _errors(y[:n], d)
                zt = _errors(y[n:], d if center is None else center)
                for i in range(n):
                    zt[i] = zt[i] - es[i]
                    zt[i] *= scale[i]
                v = _quadform(P, es)
                v *= vartheta
                v += _quadform(P, zt)
                return v

        else:  # FFLIN measures the deviation from the reference state

            def v_of(t, y):
                z = _errors(y, law_ref(t) if center is None or kind == "FFLIN" else center)
                for i in range(n):
                    z[i] = z[i] * scale[i]
                return _quadform(P, z)

        return v_of

    return _Loop(n=n, rhs=rhs, control=control, dref=dref, make_v=make_v)


def steady_state_of(
    plant: PlantModel, controller: ControllerSpec, vartheta: float | None = None
) -> np.ndarray:
    """Steady state of the chosen closed loop for a set-point reference.

    The equilibrium output is the selected root of the loop's closed-form
    steady-state cubic, built from the parameters of an ``MsdPlant``: for the
    two-loop scheme the output error closest to zero, for the other kinds the
    output closest to the set-point.  The state rests, so every other
    component is zero.  ``vartheta`` only weighs the Lyapunov value and does
    not affect the equilibrium.
    """
    if not isinstance(controller.reference, SetPoint):
        raise ValueError("steady states are defined for set-point references")
    if not isinstance(plant, MsdPlant):
        raise TypeError("closed-form steady states need an MsdPlant")
    params = plant.params
    y_d = controller.reference.y_d
    gains = controller.gains
    kind = controller.kind
    x_s = np.zeros(plant.dims.n)
    if kind == "MFC":
        x_s[0] = y_d + mfc_equilibria(params, gains, y_d).selected
    elif kind == "FFLIN":
        x_s[0] = fflin_equilibrium(params, gains, y_d)
    else:
        x_s[0] = single_loop_equilibria(params, gains, y_d, high_gain=kind == "SLHG").selected
    return x_s


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
    reference state in the model-state slot.  A set-point run centres V on
    ``steady_state_of``, so its plant must be an ``MsdPlant``.  Raises
    IntegrationError when a state goes non-finite; the partial trajectory
    rides on the exception.
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
    x_s = steady_state_of(plant, controller) if set_point else None

    P = solve_lyapunov(controller.gains.k_star)
    v_of = loop.make_v(P, None if x_s is None else tuple(float(v) for v in x_s))

    comps = tuple(float(v) for v in x0)
    if controller.kind == "MFC":
        x0_star = controller.model_initial
        if x0_star is None:
            x0_star = loop.dref(0.0)[:n]
        comps = tuple(float(v) for v in x0_star) + comps

    steps = int(round(horizon / h))
    rhs = loop.rhs
    states = [comps]
    fail_time = None
    for k in range(steps):
        comps = _rk4_components(rhs, k * h, comps, h)
        if not all(map(math.isfinite, comps)):
            fail_time = (k + 1) * h
            break
        states.append(comps)

    # the input, V and the single-loop model slot are evaluated on the whole
    # grid at once; a diverging run may overflow there, and is reported below
    t_grid = np.arange(len(states)) * h
    rows = tuple(np.array(states).T)
    if controller.kind == "MFC":
        x_star, x = rows[:n], rows[n:]
    else:
        x_star, x = loop.dref(t_grid)[:n], rows
    with np.errstate(all="ignore"):
        u = np.asarray(loop.control(t_grid, rows), dtype=float)
        V = np.asarray(v_of(t_grid, rows), dtype=float)

    traj = Trajectory(
        t=t_grid,
        x=np.column_stack(x),
        x_star=np.column_stack(np.broadcast_arrays(*x_star, t_grid)[:n]),
        u=u,
        V=V,
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
