"""Closed-loop simulation of the set-point controllers with fixed-step RK4.

The plant is the n = 2 mass-spring-damper (an ``MsdPlant``) and every
reference is a ``SetPoint``.  ``build_closed_loop`` binds the gains, the
set-point and the plant's coefficients once and closes each loop as
straight-line arithmetic on the state components (x1, x2), model components
first for the two-loop scheme.  Components may be plain floats (single runs)
or numpy arrays (batched runs) and share one code path.  The kernels that a
batch runs every step accumulate each sum into a temporary they own, so arrays
cost no allocation per operation; ``_input`` and the FFLIN law and
right-hand side, which see only floats per step, are plain expressions.  The
Lyapunov value of a run is its certified frame's, ``roa._frame_v``.  The
RK4 step is written out for the two state sizes a loop has, 2 components
(single loop) and 4 (two-loop scheme).  The control law is applied at every
integrator stage; the recorded input samples are evaluated afterwards on the
recorded grid states, which are the pre-step states of the stages.  A single
run records its grid states as packed doubles, one ``array.array`` extended
by each accepted step and viewed as a (steps + 1, components) table, so a
finished trajectory keeps 56 B per step: t, u, V and four state columns.

``Trajectory.to_csv`` writes each cell as the Python ``repr`` of its float,
so parsing a cell gives back the recorded float, NaN payloads aside.  A
column other than ``t`` whose cells all share one bit pattern (the model-state
columns of a single-loop run, say) is formatted once, into the row format; the
others are formatted in blocks of ``CSV_BLOCK_ROWS`` rows, so the writer's
memory does not grow with the run.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .plant import MsdPlant, msd_f_of, msd_g, msd_phi_of
from .roa import _frame_epsilon, _frame_v
from .steady_state import fflin_equilibrium, mfc_equilibria, single_loop_equilibria
from .synthesis import GainSet, solve_lyapunov, time_scaling

__all__ = [
    "SetPoint",
    "ControllerSpec",
    "Trajectory",
    "IntegrationError",
    "simulate_closed_loop",
    "steady_state_of",
    "whole_steps",
    "metrics",
    "time_to_track",
]

CONTROLLER_KINDS = ("SL", "SLHG", "MFC", "FFLIN")
#: Distance between process and model state below which the process tracks.
TRACK_GAP = 0.01
#: Rows that ``Trajectory.to_csv`` formats at a time: a 2 s run at h = 1e-3 is one block.
CSV_BLOCK_ROWS = 2048


class IntegrationError(RuntimeError):
    """Raised when an integration step produces a non-finite state."""

    def __init__(self, message: str, time: float | None = None, trajectory=None):
        super().__init__(message)
        self.time = time
        self.trajectory = trajectory


@dataclass(frozen=True)
class SetPoint:
    """Constant output reference y_d: the reference state is (y_d, 0), y_d'' = 0."""

    y_d: float


@dataclass(frozen=True)
class ControllerSpec:
    """Which loop to close and with what gains and set-point.

    The plain single loop feeds back with k_star, the high-gain single loop
    and the feedforward-linearising law with k_tilde.  ``model_initial``
    seeds the model loop of the two-loop scheme; it is resolved here, to the
    reference state (y_d, 0) unless a start is given, and is a tuple of floats.
    """

    kind: str
    gains: GainSet
    reference: SetPoint
    model_initial: tuple | None = None

    def __post_init__(self):
        if self.kind not in CONTROLLER_KINDS:
            raise ValueError(f"controller kind must be one of {CONTROLLER_KINDS}")
        if not isinstance(self.reference, SetPoint):
            raise TypeError("the reference must be a SetPoint")
        start = (self.reference.y_d, 0.0) if self.model_initial is None else self.model_initial
        object.__setattr__(self, "model_initial", tuple(float(v) for v in start))


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
        """Write one row per grid time, each cell the ``repr`` of its float.

        A column other than ``t`` whose cells all have the same bits is
        formatted once, into the row format; bits, not values, because
        0.0 == -0.0 and NaN != NaN.  The other columns are formatted
        ``CSV_BLOCK_ROWS`` rows at a time, read from this trajectory's own
        arrays, so the writer's memory does not grow with the run's length.
        """
        n = self.x.shape[1]
        header = (
            "t,"
            + ",".join(f"x{i+1}" for i in range(n))
            + ","
            + ",".join(f"xstar{i+1}" for i in range(n))
            + ",u,V"
        )
        columns = [np.asarray(c, dtype=float)
                   for c in (self.t, *self.x.T, *self.x_star.T, self.u, self.V)]
        rows = len(self.t)
        if any(len(c) != rows for c in columns):
            raise ValueError("every trajectory column needs one cell per grid time")
        cells, varying = ["%r"], columns[:1]  # t per row, so every row has a varying cell
        for c in columns[1:]:
            bits = c.view(np.int64)
            if rows and (bits == bits[0]).all():
                cells.append(repr(float(c[0])))
            else:
                cells.append("%r")
                varying.append(c)
        row_format = ",".join(cells) + "\n"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for start in range(0, rows, CSV_BLOCK_ROWS):
                stop = min(start + CSV_BLOCK_ROWS, rows)
                block = zip(*(c[start:stop].tolist() for c in varying))
                fh.writelines(map(row_format.__mod__, block))


# The laws of the SL, SLHG and MFC loops cancel the known drift f and gain g,
# so the closed loop's terminal derivative is the law's target acceleration v
# plus phi(x); the input u = (v - f(x)) / g is formed only where it is
# recorded.  Each law binds its gains and the set-point y_d once and returns a
# function of the state components.  The set-point's velocity and
# acceleration are zero, so no law carries an x2 - 0.0 or a + y_d'' term.


def _single_loop_target(k, y_d):
    """Target acceleration k1 (x1 - y_d) + k2 x2, as a function of (x1, x2)."""
    k1, k2 = k

    def target(x1, x2):
        v = x1 - y_d
        v *= k1
        term = x2 * k2
        v += term
        return v

    return target


def _two_loop_targets(k_star, k_tilde, y_d):
    """Model acceleration v* and process target v = k~'(x - x*) + v*, from (x*1, x*2, x1, x2).

    v* is the single-loop target of the model state with gain k*: the model
    loop is the nominal model under its own linearising input, so it is the
    linear chain.  With k* = 0 and x* = x_d, v* is 0 and the process target
    is the single-loop law with gain k~, bit for bit.
    """
    model = _single_loop_target(k_star, y_d)
    kt1, kt2 = k_tilde

    def targets(xs1, xs2, x1, x2):
        v_star = model(xs1, xs2)
        v = x1 - xs1
        v *= kt1
        term = x2 - xs2
        term *= kt2
        v += term
        v += v_star
        return v_star, v

    return targets


def _input(f, g, v, x1, x2):
    """Input (v - f(x1, x2)) / g that gives the nominal chain the acceleration v."""
    return (v - f(x1, x2)) / g


def _rk4_components(rhs, t, y, h):
    """One RK4 step on a tuple of 2 (single loop) or 4 (two-loop) components.

    Written out per component count; every component takes the same
    operations in the same order.  A stage state is y + h k, each component
    a fresh object (``rhs`` may hand back a component of its argument as one
    of its own), and the step is a + s (b + 2 (c + d) + e) with s = h / 6,
    y = a and the stage slopes b, c, d, e.
    """
    if len(y) == 2:
        return _rk4_2(rhs, t, y, h)
    if len(y) == 4:
        return _rk4_4(rhs, t, y, h)
    raise ValueError(f"RK4 steps take 2 or 4 components, got {len(y)}")


def _rk4_2(rhs, t, y, h):
    h2 = 0.5 * h
    a1, a2 = y
    b1, b2 = rhs(t, y)
    z1 = b1 * h2
    z1 += a1
    z2 = b2 * h2
    z2 += a2
    c1, c2 = rhs(t + h2, (z1, z2))
    z1 = c1 * h2
    z1 += a1
    z2 = c2 * h2
    z2 += a2
    d1, d2 = rhs(t + h2, (z1, z2))
    z1 = d1 * h
    z1 += a1
    z2 = d2 * h
    z2 += a2
    e1, e2 = rhs(t + h, (z1, z2))
    s = h / 6.0
    o1 = c1 + d1
    o1 *= 2.0
    o1 += b1
    o1 += e1
    o1 *= s
    o1 += a1
    o2 = c2 + d2
    o2 *= 2.0
    o2 += b2
    o2 += e2
    o2 *= s
    o2 += a2
    return o1, o2


def _rk4_4(rhs, t, y, h):
    h2 = 0.5 * h
    a1, a2, a3, a4 = y
    b1, b2, b3, b4 = rhs(t, y)
    z1 = b1 * h2
    z1 += a1
    z2 = b2 * h2
    z2 += a2
    z3 = b3 * h2
    z3 += a3
    z4 = b4 * h2
    z4 += a4
    c1, c2, c3, c4 = rhs(t + h2, (z1, z2, z3, z4))
    z1 = c1 * h2
    z1 += a1
    z2 = c2 * h2
    z2 += a2
    z3 = c3 * h2
    z3 += a3
    z4 = c4 * h2
    z4 += a4
    d1, d2, d3, d4 = rhs(t + h2, (z1, z2, z3, z4))
    z1 = d1 * h
    z1 += a1
    z2 = d2 * h
    z2 += a2
    z3 = d3 * h
    z3 += a3
    z4 = d4 * h
    z4 += a4
    e1, e2, e3, e4 = rhs(t + h, (z1, z2, z3, z4))
    s = h / 6.0
    o1 = c1 + d1
    o1 *= 2.0
    o1 += b1
    o1 += e1
    o1 *= s
    o1 += a1
    o2 = c2 + d2
    o2 *= 2.0
    o2 += b2
    o2 += e2
    o2 *= s
    o2 += a2
    o3 = c3 + d3
    o3 *= 2.0
    o3 += b3
    o3 += e3
    o3 *= s
    o3 += a3
    o4 = c4 + d4
    o4 *= 2.0
    o4 += b4
    o4 += e4
    o4 *= s
    o4 += a4
    return o1, o2, o3, o4


@dataclass
class _Loop:
    """Closed loop: derivative ``rhs(t, y)``, input ``control(t, y)``, set-point ``dref(t)``."""

    n: int
    rhs: Callable
    control: Callable
    dref: Callable
    make_v: Callable | None


def build_closed_loop(
    plant: MsdPlant,
    controller: ControllerSpec,
    vartheta: float,
    columns: Sequence[tuple[str, int]] | None = None,
) -> _Loop:
    """Wire a controller kind into component-wise closed-loop dynamics.

    The two-loop state lists the model components first; ``vartheta`` weighs
    the model error in ``make_v``'s V, the certified frame's (``roa._frame_v``).
    One table gives each kind its model and process gains; V scales by the
    kind's ``D^-1`` (``roa._frame_epsilon``).
    ``columns``, a sequence of (kind, count) runs of SL, SLHG or MFC, stacks
    loops into one batch that takes only its gains from the table, as rows of
    (2, N) arrays, and has no ``make_v``: each stacked set has its own frame.
    A batch with MFC columns runs the two-loop law: a single-loop column holds
    its model at x_d with model gain 0.  Its model derivative is then exactly 0
    and its process rows follow the single-loop law bit for bit.  A batch
    without MFC columns runs the single-loop law on process rows alone.
    """
    if not isinstance(plant, MsdPlant):
        raise TypeError("closed loops need an MsdPlant")
    gains = controller.gains
    if gains.n != 2:
        raise ValueError("gain dimension does not match the plant")
    y_d = float(controller.reference.y_d)
    kind = controller.kind

    zero = (0.0, 0.0)
    # per kind: model gain, process gain
    table = {
        "MFC": (gains.k_star, gains.k_tilde),
        "SLHG": (zero, gains.k_tilde),
        "SL": (zero, gains.k_star),
        "FFLIN": (zero, gains.k_tilde),
    }
    if columns is None:
        k_model, k = table[kind]
    else:
        kinds = {c for c, _ in columns}
        if not kinds <= {"SL", "SLHG", "MFC"}:
            raise ValueError(f"only SL, SLHG and MFC ride in a stacked batch, not {kinds}")
        counts = [count for _, count in columns]
        k_model, k = (np.repeat(np.asarray(values, dtype=float).T, counts, axis=1)
                      for values in zip(*(table[c] for c, _ in columns)))
        kind = "MFC" if "MFC" in kinds else "SL"

    f = msd_f_of(plant.params)
    g = msd_g(plant.params)
    phi = msd_phi_of(plant.params)
    const = (y_d, 0.0)

    def dref(t):
        return const

    if kind == "FFLIN":  # f and g are taken at x_d, so nothing cancels
        v_fb = _single_loop_target(k, y_d)
        feedforward = 0.0 - f(y_d, 0.0)  # y_d'' - f(x_d)

        def control(t, y):
            return (feedforward + v_fb(y[0], y[1])) / g

        def rhs(t, y):
            x1, x2 = y
            return x2, control(t, y) * g + f(x1, x2) + phi(x1, x2)

    elif kind == "MFC":
        targets = _two_loop_targets(k_model, k, y_d)

        def rhs(t, y):
            xs1, xs2, x1, x2 = y
            v_star, v = targets(xs1, xs2, x1, x2)
            v += phi(x1, x2)
            return xs2, v_star, x2, v

        def control(t, y):
            _, v = targets(*y)
            return _input(f, g, v, y[2], y[3])

    else:
        target = _single_loop_target(k, y_d)

        def rhs(t, y):
            x1, x2 = y
            v = target(x1, x2)
            v += phi(x1, x2)
            return x2, v

        def control(t, y):
            x1, x2 = y
            return _input(f, g, target(x1, x2), x1, x2)

    def make_v(P: np.ndarray, x_s: Sequence):
        """V centred on the rest state x_s = (x_s1, 0); FFLIN measures from x_d."""
        if np.any(np.asarray(x_s[1]) != 0.0):
            raise ValueError("V is centred on a rest state: x_s[1] must be 0")
        scale = time_scaling(1.0 / _frame_epsilon(kind, gains.epsilon), 2)
        return _frame_v(P, vartheta, y_d, y_d if kind == "FFLIN" else x_s[0], scale, kind == "MFC")

    return _Loop(2, rhs, control, dref, make_v if columns is None else None)


def _run_outcome(finite, x0, x_end, x_s) -> list[str]:
    """Each run's verdict from (N, 2) rows of its start, end and rest state x_s:
    "diverged" unless it stayed ``finite``, else "converged" if it ends within
    max(0.01 d0, 0.01) of x_s, d0 = ||x0 - x_s||, else "wrong-equilibrium"."""
    with np.errstate(all="ignore"):
        dist = np.linalg.norm(x_end - x_s, axis=1)
        near = dist <= np.maximum(0.01 * np.linalg.norm(x0 - x_s, axis=1), 0.01)
    return np.where(finite, np.where(near, "converged", "wrong-equilibrium"),
                    "diverged").tolist()


def whole_steps(horizon: float, h: float) -> int:
    """Every integrator's step count: ValueError unless ``horizon`` is positive and
    finite and ``h > 0`` divides it into a whole number of steps, at least one, to
    within 1e-9 of the horizon."""
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    if not h > 0:
        raise ValueError("step size must be positive")
    ratio = horizon / h
    if not math.isfinite(ratio):
        raise ValueError("is too small: horizon / step overflows")
    steps = round(ratio)
    if steps < 1 or abs(steps * h - horizon) > 1e-9 * horizon:
        raise ValueError("must divide the horizon into a whole number of steps")
    return steps


def steady_state_of(
    plant: MsdPlant, controller: ControllerSpec, vartheta: float | None = None
) -> np.ndarray:
    """Steady state of the chosen closed loop.

    The equilibrium is that of the loop's closed-form steady-state cubic,
    built from the parameters of an ``MsdPlant``: for the two-loop scheme the
    output error closest to zero, for the other kinds the output closest to
    the set-point.  The SL, SLHG and MFC loops rest at their equilibrium
    set's ``rest_state``, which the CLI's certified sets are centred on too.
    ``vartheta`` is unused: the equilibrium does not depend on it.
    """
    if not isinstance(plant, MsdPlant):
        raise TypeError("closed-form steady states need an MsdPlant")
    params = plant.params
    y_d = controller.reference.y_d
    gains = controller.gains
    kind = controller.kind
    if kind == "FFLIN":
        return np.array([fflin_equilibrium(params, gains, y_d), 0.0])
    if kind == "MFC":
        eq = mfc_equilibria(params, gains, y_d)
    else:
        eq = single_loop_equilibria(params, gains, y_d, high_gain=kind == "SLHG")
    return np.array(eq.rest_state)


def simulate_closed_loop(
    plant: MsdPlant,
    controller: ControllerSpec,
    x0: Sequence[float],
    horizon: float,
    h: float,
    vartheta: float,
) -> Trajectory:
    """Integrate one closed loop and record states, input and Lyapunov value.

    The two-loop scheme integrates the coupled model/process pair from
    ``controller.model_initial``; the model loop sees no uncertainty by
    construction.  Single-loop runs repeat the reference state in the
    model-state slot.  V is centred on ``steady_state_of``; ``vartheta``
    weighs its model error.  The run ends at the horizon, after
    ``whole_steps(horizon, h)`` steps, its ``outcome`` the batch's verdict
    (``_run_outcome``).  Raises IntegrationError when a state goes
    non-finite; the partial trajectory, "diverged", rides on the exception.
    """
    steps = whole_steps(horizon, h)
    if len(x0) != 2:
        raise ValueError("x0 must have 2 components")

    loop = build_closed_loop(plant, controller, vartheta)
    x_s = steady_state_of(plant, controller)
    P = solve_lyapunov(controller.gains.k_star)
    v_of = loop.make_v(P, tuple(float(v) for v in x_s))

    comps = tuple(float(v) for v in x0)
    if controller.kind == "MFC":
        comps = controller.model_initial + comps

    rhs = loop.rhs
    record = array.array("d", comps)
    fail_time = None
    for k in range(steps):
        comps = _rk4_components(rhs, k * h, comps, h)
        if not all(map(math.isfinite, comps)):
            fail_time = (k + 1) * h
            break
        record.extend(comps)

    # the input, V and the single-loop model slot are evaluated on the whole
    # grid at once; a diverging run may overflow there, and is reported below
    table = np.frombuffer(record).reshape(-1, len(comps))
    t_grid = np.arange(len(table)) * h
    rows = tuple(table.T)
    if controller.kind == "MFC":
        x_star, x = table[:, :2], table[:, 2:]
    else:
        x_star, x = np.column_stack(np.broadcast_arrays(*loop.dref(0.0), t_grid)[:2]), table
    with np.errstate(all="ignore"):
        u = np.asarray(loop.control(t_grid, rows), dtype=float)
        V = np.asarray(v_of(t_grid, rows), dtype=float)

    traj = Trajectory(
        t=t_grid,
        x=x,
        x_star=x_star,
        u=u,
        V=V,
        metadata={
            "kind": controller.kind,
            "step": h,
            "horizon": horizon,
            "y_d": controller.reference.y_d,
            "x_s": [float(v) for v in x_s],
            "epsilon": controller.gains.epsilon,
            "vartheta": vartheta,
            "diverged": fail_time is not None,
            "outcome": _run_outcome([fail_time is None], x[:1], x[-1:], [x_s])[0],
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
    percent of the initial distance (0.01 absolute when starting on it).  It
    times the approach, so unlike the verdict's (``_run_outcome``) it has no
    0.01 floor: a start within 1 of x_s is timed to a tighter band.
    """
    if len(traj.t) == 0:
        raise ValueError("trajectory is empty")
    x_s = np.asarray(x_s_expected, dtype=float)
    u0 = float(traj.u[0])
    peak = float(np.max(np.abs(traj.u)))

    y_d = traj.metadata["y_d"]
    tail = max(1, len(traj.t) // 10)
    mean_tail = float(np.mean(traj.x[-tail:, 0]))

    dist = np.linalg.norm(traj.x - x_s, axis=1)
    d0 = float(dist[0])
    return {
        "u0": u0,
        "peak_abs_u": peak,
        "steady_state_error_pct": _percent_of_set_point(mean_tail - y_d, y_d),
        "settle_time": _settle_time(traj.t, dist, 0.01 * d0 if d0 > 0 else 0.01),
    }


def _percent_of_set_point(error: float, y_d: float) -> float:
    """|error| in percent of |y_d|; of 1 when the set-point is zero."""
    return abs(error) / (abs(y_d) if y_d != 0 else 1.0) * 100.0


def _settle_time(t: np.ndarray, dist: np.ndarray, threshold: float) -> float | None:
    """First grid time after which ``dist`` stays below ``threshold``; None if it ends above."""
    above = np.nonzero(dist >= threshold)[0]
    if len(above) == 0:
        return float(t[0])
    if above[-1] == len(dist) - 1:
        return None
    return float(t[above[-1] + 1])


def time_to_track(traj: Trajectory) -> float | None:
    """First grid time after which the process stays within TRACK_GAP of the model."""
    with np.errstate(over="ignore"):  # a diverging run's gap may overflow to inf, silently
        gap = np.linalg.norm(traj.x - traj.x_star, axis=1)
    return _settle_time(traj.t, gap, TRACK_GAP)
