"""Brute-force validation of the certificates by batched Monte-Carlo runs.

Initial states are sampled uniformly inside each certified level set
(slightly shrunk, since the certified sets are open).  The samples of every
set of one design are integrated together as one stacked batch, and each run
is classified: converged to the analytic equilibrium, diverged, settled
elsewhere, or Lyapunov increase while inside its set.  Sampling uses a
counter-based generator, so reports are byte-for-byte reproducible for a
fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plant import Box, MsdParams, MsdPlant, msd_phi, phi_lipschitz_sup
from .roa import RoaEstimate, _inv_sqrt
from .simulate import (
    ControllerSpec,
    SetPoint,
    Trajectory,
    _rk4_components,
    build_closed_loop,
)
from .synthesis import GainSet

__all__ = [
    "FalsificationReport",
    "DecreaseCheck",
    "sample_in_set",
    "falsify_roa",
    "falsify_sets",
    "gamma_empirical",
    "lyapunov_decrease_check",
]

#: Certified sets are open; samples are drawn from this fraction of the level.
BOUNDARY_MARGIN = 0.999
#: Relative rise of V per step that counts as a Lyapunov increase.
DECREASE_TOLERANCE = 1e-9
#: Point pairs behind the sampled Lipschitz constant of each report.
LIPSCHITZ_PAIRS = 10_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(int(seed)))


def _unit_ball(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((count, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = rng.random(count) ** (1.0 / dim)
    return g / norms * radii[:, None]


def sample_in_set(
    estimate: RoaEstimate, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Uniform initial states inside a certified set, in physical coordinates.

    Unit-ball samples are pushed through the inverse symmetric square root of
    the set's shape matrix and mapped to physical coordinates.  Returns the
    process states (count, n) and, for the two-loop kinds, the matching model
    states; single-loop kinds return None for the model part.
    """
    if not estimate.valid:
        raise ValueError(f"cannot sample the invalid {estimate.kind} estimate "
                         f"({estimate.reason})")
    rng = _rng(seed)
    n = estimate.n
    P = np.asarray(estimate.P)
    S = _inv_sqrt(P)
    D = estimate.d_matrix()
    x_s = np.asarray(estimate.x_s)
    x_d = np.asarray(estimate.x_d)
    # the combined set draws model and process error from one 2n-ball
    u = _unit_ball(rng, count, 2 * n if estimate.kind == "MFC1" else n)

    if estimate.kind == "SL":
        x0 = x_s + math.sqrt(BOUNDARY_MARGIN * estimate.level) * u @ S.T
        return x0, None
    if estimate.kind == "SLHG":
        z = math.sqrt(BOUNDARY_MARGIN * estimate.level) * u @ S.T
        return x_s + z @ D.T, None
    if estimate.kind == "MFC2":
        zt = math.sqrt(BOUNDARY_MARGIN * estimate.c_tilde) * u @ S.T
        e_star = np.asarray(estimate.x0_star) - x_d
        x0 = x_s + e_star + zt @ D.T
        x0_star = np.tile(np.asarray(estimate.x0_star), (count, 1))
        return x0, x0_star
    if estimate.kind == "MFC1":
        es = math.sqrt(BOUNDARY_MARGIN * estimate.level / estimate.vartheta) * u[:, :n] @ S.T
        zt = math.sqrt(BOUNDARY_MARGIN * estimate.level) * u[:, n:] @ S.T
        x0 = x_s + es + zt @ D.T
        return x0, x_d + es
    raise ValueError(f"unknown estimate kind {estimate.kind!r}")


@dataclass(frozen=True)
class DecreaseCheck:
    """Outcome of a discrete Lyapunov-decrease scan along one trajectory."""

    passed: bool
    first_violation_time: float | None
    exit_time: float | None


def _decrease_step(v_prev, v_new, level, floor):
    """One step of the online Lyapunov-decrease test: (increase, still inside).

    The step increases when V(t_{k+1}) > V(t_k) (1 + DECREASE_TOLERANCE) from a value
    above ``floor``, which keeps the rounding noise of a numerically
    converged run from counting.  The test holds while V stays within
    ``level``; a non-finite V leaves the set.  Works on floats and arrays.
    """
    return (v_new > v_prev * (1.0 + DECREASE_TOLERANCE)) & (v_prev > floor), v_new <= level


def lyapunov_decrease_check(
    traj: Trajectory, level: float | None = None, floor: float = 0.0
) -> DecreaseCheck:
    """Check V(t_{k+1}) <= V(t_k) (1 + DECREASE_TOLERANCE) while the state stays certified.

    The scan applies the online test of the Monte-Carlo batch to one
    trajectory and exits vacuously once the Lyapunov value leaves the level
    set; steps from below ``floor`` are not tested.
    """
    V = np.asarray(traj.V, dtype=float)
    t = traj.t
    bound = np.finfo(float).max if level is None else level
    if len(V) and not V[0] <= bound:
        return DecreaseCheck(True, None, float(t[0]))
    increase, inside = _decrease_step(V[:-1], V[1:], bound, floor)
    stops = np.flatnonzero(increase | ~inside)
    if len(stops) == 0:
        return DecreaseCheck(True, None, None)
    k = stops[0]
    time = float(t[k + 1])
    return DecreaseCheck(False, time, None) if increase[k] else DecreaseCheck(True, None, time)


def gamma_empirical(p: MsdParams, region: Box, pairs: int, seed: int) -> float:
    """Largest sampled difference quotient of the uncertainty on a box.

    Half of the pairs are independent uniform draws (long baselines); the
    other half pair a uniform base point with a nearby second point, which
    resolves the local gradient so the maximum converges to the analytic
    gradient supremum from below.  A degenerate point region yields 0 by
    convention.
    """
    if pairs < 1:
        raise ValueError("need at least one pair")
    rng = _rng(seed)
    a = region.sample(rng, pairs)
    b = region.sample(rng, pairs)
    half = pairs // 2
    widths = np.asarray(region.hi) - np.asarray(region.lo)
    scale = 1e-3 * float(np.max(widths))
    if half > 0 and scale > 0:
        dirs = rng.standard_normal((half, region.dim))
        norms = np.linalg.norm(dirs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        b[:half] = np.clip(a[:half] + scale * dirs / norms, region.lo, region.hi)
    num = np.abs(msd_phi(p, (a[:, 0], a[:, 1])) - msd_phi(p, (b[:, 0], b[:, 1])))
    den = np.linalg.norm(a - b, axis=1)
    mask = den > 0
    if not np.any(mask):
        return 0.0
    return float(np.max(num[mask] / den[mask]))


@dataclass(frozen=True)
class FalsificationReport:
    """Monte-Carlo verdict over one certified set."""

    kind: str
    level: float
    samples: int
    converged: int
    violations: tuple
    empirical_gamma: float
    analytic_gamma: float
    seed: int
    horizon: float
    h: float

    def to_dict(self) -> dict:
        violations = [{"x0": list(x0), "mode": mode, "time": time}
                      for x0, mode, time in self.violations]
        return {**vars(self), "violations": violations}


def falsify_roa(
    estimate: RoaEstimate,
    plant: MsdPlant,
    gains: GainSet,
    count: int,
    horizon: float,
    h: float,
    seed: int,
) -> FalsificationReport:
    """Simulate sampled initial states from one certified set: ``falsify_sets`` of one."""
    return falsify_sets([estimate], plant, gains, count, horizon, h, seed)[0]


def falsify_sets(
    estimates,
    plant: MsdPlant,
    gains: GainSet,
    count: int,
    horizon: float,
    h: float,
    seed: int,
) -> list[FalsificationReport]:
    """Falsify several certified sets of one design in one stacked batch.

    Each estimate runs under the loop it certifies (``RoaEstimate.controller``)
    and gets ``count`` samples drawn with ``seed``; all columns run under
    one law (see ``build_closed_loop``) with their set's level, centre and
    Lyapunov scaling.  A run converges when its final state lies
    within one percent of its initial distance to the analytic equilibrium
    (0.01 absolute when starting on it).  Lyapunov increase is monitored
    online while the state remains inside its set.  Violations are data, not
    errors.  Returns one report per set, in order.
    """
    if not estimates:
        return []
    first = estimates[0]
    if any(not (np.array_equal(est.x_d, first.x_d) and np.array_equal(est.P, first.P))
           for est in estimates):
        raise ValueError("a batch needs sets of one set-point and one Lyapunov matrix")
    n = first.n
    x_d = np.asarray(first.x_d, dtype=float)
    x0, x0_star = [], []
    for est in estimates:
        x, star = sample_in_set(est, count, seed)
        x0.append(x)
        x0_star.append(np.tile(x_d, (count, 1)) if star is None else star)
    x0 = np.concatenate(x0)
    total = len(x0)

    def per_column(values):
        return np.repeat(np.asarray(values, dtype=float), count, axis=0)

    level = per_column([est.level for est in estimates])
    floor = 1e-12 * level
    x_s = per_column([est.x_s for est in estimates])
    spec = ControllerSpec(kind="MFC", gains=gains, reference=SetPoint(float(x_d[0])))
    loop = build_closed_loop(plant, spec, per_column([est.vartheta for est in estimates]),
                             columns=[(est.controller, count) for est in estimates])
    v_of = loop.make_v(first.P, tuple(x_s.T.copy()))
    comps = tuple(x0.T.copy())
    if any(est.controller == "MFC" for est in estimates):
        comps = tuple(np.concatenate(x0_star).T.copy()) + comps
    steps = int(round(horizon / h))
    alive = np.ones(total, dtype=bool)
    fail_time = np.full(total, np.nan)
    viol_v = np.zeros(total, dtype=bool)
    viol_v_time = np.full(total, np.nan)

    with np.errstate(all="ignore"):
        v_prev = v_of(0.0, comps)
        in_set = v_prev <= level * (1.0 + 1e-12)
        for k in range(steps):
            t = k * h
            comps = _rk4_components(loop.rhs, t, comps, h)
            v_new = v_of(t + h, comps)
            # V is positive definite in every state component, so a state can
            # only have gone non-finite where V did
            if not np.isfinite(v_new).all():
                finite = np.logical_and.reduce([np.isfinite(c) for c in comps])
                newly_dead = alive & ~finite
                if np.any(newly_dead):
                    fail_time[newly_dead] = (k + 1) * h
                    alive &= finite
            increase, inside = _decrease_step(v_prev, v_new, level, floor)
            inc = in_set & increase
            fresh = inc & ~viol_v
            if np.any(fresh):
                viol_v_time[fresh] = (k + 1) * h
                viol_v |= inc
            in_set &= inside
            v_prev = v_new

        dist = np.linalg.norm(np.stack(comps[-n:], axis=1) - x_s, axis=1)
    threshold = np.maximum(0.01 * np.linalg.norm(x0 - x_s, axis=1), 0.01)
    near = alive & (dist <= threshold)

    empirical = gamma_empirical(plant.params, plant.domain, LIPSCHITZ_PAIRS, seed + 1)
    analytic = phi_lipschitz_sup(plant.params, plant.domain)
    reports = []
    for j, est in enumerate(estimates):
        violations = []
        for i in range(j * count, (j + 1) * count):
            if not alive[i]:
                violations.append((tuple(x0[i]), "diverged", float(fail_time[i])))
            elif not near[i]:
                violations.append((tuple(x0[i]), "wrong-equilibrium", None))
            elif viol_v[i]:
                violations.append((tuple(x0[i]), "V-increase", float(viol_v_time[i])))
        violations.sort(key=lambda item: item[0])
        reports.append(FalsificationReport(
            kind=est.kind, level=float(est.level), samples=count,
            converged=count - len(violations), violations=tuple(violations),
            empirical_gamma=empirical, analytic_gamma=analytic,
            seed=seed, horizon=horizon, h=h,
        ))
    return reports
