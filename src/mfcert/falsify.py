"""Brute-force validation of the certificates by batched Monte-Carlo runs.

Initial states are sampled uniformly inside each certified level set
(slightly shrunk, since the certified sets are open).  The samples of every
set of one design are integrated together as one stacked batch, and each run
is classified: converged to the analytic equilibrium, diverged, settled
elsewhere (a single run's verdict too, ``simulate._run_outcome``), or
Lyapunov increase while inside its set.  Sampling uses a counter-based
generator, so reports are byte-for-byte reproducible for a fixed seed.

Every ``RETIRE_EVERY`` steps the batch drops the columns whose report is
decided, and no report byte moves: a dead column stays non-finite; a frozen
one, whose last step kept its state bits, keeps them, as the loop is
autonomous and its columns never interact; a merged one, equal in state bits,
set, ``in_set`` and ``viol_v`` to a column that stays, shares its future.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .plant import Box, MsdParams, MsdPlant, msd_phi, phi_lipschitz_sup
from .roa import RoaEstimate, _frame_v, _inv_sqrt
from .simulate import (
    ControllerSpec,
    SetPoint,
    _rk4_components,
    _run_outcome,
    build_closed_loop,
    whole_steps,
)
from .synthesis import GainSet

__all__ = [
    "FalsificationReport",
    "sample_in_set",
    "falsify_roa",
    "falsify_sets",
    "gamma_empirical",
]

#: Certified sets are open; samples are drawn from this fraction of the level.
BOUNDARY_MARGIN = 0.999
#: Relative rise of V per step that counts as a Lyapunov increase.
DECREASE_TOLERANCE = 1e-9
#: Point pairs behind the sampled Lipschitz constant of each report.
LIPSCHITZ_PAIRS = 10_000
#: Steps between two passes that retire the batch's decided columns.
RETIRE_EVERY = 256


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(int(seed)))


def _unit_ball(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    g = rng.standard_normal((count, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = rng.random(count) ** (1.0 / dim)
    return g / norms * radii[:, None]


def _check_draw(count, seed, count_name: str = "count") -> tuple[int, int]:
    """The count and seed rule of every draw (``sample_in_set``, ``falsify_sets`` and
    ``gamma_empirical``, whose count is ``pairs``): a positive and a nonnegative
    integer, neither a bool, returned as Python ints."""
    for name, value, least in ((count_name, count, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            sign = "positive" if least else "nonnegative"
            raise ValueError(f"{name} must be a {sign} integer, got {value!r}")
    return int(count), int(seed)


def sample_in_set(
    estimate: RoaEstimate, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform initial states inside a certified set, in physical coordinates.

    Unit-ball samples are pushed through the inverse symmetric square root of
    the set's shape matrix and mapped to physical coordinates through the
    set's frame (``RoaEstimate.to_physical``).  Returns the process states
    (count, n) and the matching model states (count, n): sampled for MFC1,
    whose set draws model and process error together, and the set's own
    ``x0_star`` in every row for the other kinds.  ``count`` must be a
    positive integer and ``seed`` a nonnegative one (``_check_draw``).
    """
    count, seed = _check_draw(count, seed)
    if not estimate.valid:
        raise ValueError(f"cannot sample the invalid {estimate.kind} estimate "
                         f"({estimate.reason})")
    n = estimate.n
    S = _inv_sqrt(np.asarray(estimate.P))
    # the combined set draws model and process error from one 2n-ball
    u = _unit_ball(_rng(seed), count, 2 * n if estimate.kind == "MFC1" else n)
    z = math.sqrt(BOUNDARY_MARGIN * estimate.slice_level) * u[:, -n:] @ S.T
    if estimate.kind == "MFC1":
        scale = math.sqrt(BOUNDARY_MARGIN * estimate.level / estimate.vartheta)
        x_star, x0 = estimate.to_physical(scale * u[:, :n] @ S.T, z)
        return x0, x_star
    x0_star = np.asarray(estimate.x0_star, dtype=float)
    _, x0 = estimate.to_physical(x0_star - np.asarray(estimate.x_d), z)
    return x0, np.tile(x0_star, (count, 1))


def _decrease_step(v_prev, v_new, level, floor):
    """One step of the online Lyapunov-decrease test: (increase, still inside).

    The step increases when V(t_{k+1}) > V(t_k) (1 + DECREASE_TOLERANCE) from a value
    above ``floor``, which keeps the rounding noise of a numerically
    converged run from counting.  The test holds while V stays within
    ``level``; a non-finite V leaves the set.  Works on floats and arrays.
    """
    return (v_new > v_prev * (1.0 + DECREASE_TOLERANCE)) & (v_prev > floor), v_new <= level


def gamma_empirical(p: MsdParams, region: Box, pairs: int, seed: int) -> float:
    """Largest sampled difference quotient of the uncertainty on a box.

    Half of the pairs are independent uniform draws (long baselines); the
    other half pair a uniform base point with a nearby second point, which
    resolves the local gradient so the maximum converges to the analytic
    gradient supremum from below.  A degenerate point region yields 0 by
    convention.  ``pairs`` must be a positive integer and ``seed`` a
    nonnegative one (``_check_draw``).
    """
    pairs, seed = _check_draw(pairs, seed, "pairs")
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
    one law (see ``build_closed_loop``) with their set's level, and V is each
    set's own ``lyapunov_value``.  A run's final verdict is a single run's,
    ``simulate._run_outcome``: converged, diverged or wrong-equilibrium.
    Lyapunov increase is monitored online while the state remains inside its
    set and reported for a run that converged.  Violations are data, not
    errors.  Every run takes ``whole_steps(horizon, h)`` steps.  Returns one
    report per set, in order.  The sets share one certificate: ``x_d``, ``P``
    and ``vartheta``.  ``count`` must be a positive integer and ``seed`` a
    nonnegative one; the reports hold both as Python ints.

    Every ``RETIRE_EVERY`` steps a column whose report is decided leaves the
    batch.  Dead: a non-finite component stays so; the run is ``diverged`` at
    its fail time.  Frozen: a step that kept the state bits keeps them ever
    after, so V is constant and ``_decrease_step`` counts no increase (a
    rounding-negative V lies below the floor).  Merged: equal in state bits,
    set, ``in_set`` and ``viol_v`` to a column that stays, it evolves bit for
    bit alike, so it ends with that column's state, ``alive``, fail time and,
    unless it had violated already, later ``V-increase``; its outcome still
    weighs its own start.
    """
    steps = whole_steps(horizon, h)
    count, seed = _check_draw(count, seed)
    if not estimates:
        return []
    first = estimates[0]
    if any(not (np.array_equal(est.x_d, first.x_d) and np.array_equal(est.P, first.P)
                and est.vartheta == first.vartheta) for est in estimates):
        raise ValueError("a batch needs sets of one set-point, Lyapunov matrix and vartheta")
    x0, x0_star = (np.concatenate(rows) for rows in
                   zip(*(sample_in_set(est, count, seed) for est in estimates)))
    total = len(x0)

    def per_column(values):
        return np.repeat(np.asarray(values, dtype=float), count, axis=0)

    set_of = np.repeat(np.arange(len(estimates), dtype=np.uint64), count)
    level = per_column([est.level for est in estimates])
    floor = 1e-12 * level
    x_s = per_column([est.x_s for est in estimates])
    scale = per_column([np.diag(est.d_inv()) for est in estimates]).T.copy()
    spec = ControllerSpec(kind="MFC", gains=gains, reference=SetPoint(float(first.x_d[0])))
    two_loop = any(est.controller == "MFC" for est in estimates)

    def batch(cols):
        """The loop and V of ``cols``: each set a run of its count, so zeros keep the law."""
        counts = np.bincount(set_of[cols], minlength=len(estimates)).tolist()
        loop = build_closed_loop(plant, spec, first.vartheta,
                                 columns=[(est.controller, n) for est, n in zip(estimates, counts)])
        return loop, _frame_v(first.P, first.vartheta, first.x_d[0], x_s[cols, 0],
                              scale[:, cols], two_loop)

    cols = np.arange(total)  # each batch column's index among all runs
    loop, v_of = batch(cols)
    comps = tuple(x0.T.copy())
    if two_loop:
        comps = tuple(x0_star.T.copy()) + comps
    end = np.empty((len(comps), total))
    alive = np.ones(total, dtype=bool)
    fail_time = np.full(total, np.nan)
    viol_v_all = np.zeros(total, dtype=bool)
    viol_v = viol_v_all.copy()
    viol_v_time = np.full(total, np.nan)
    merges = []  # (followers, their representatives)

    with np.errstate(all="ignore"):
        v_prev = v_of(0.0, comps)
        in_set = v_prev <= level * (1.0 + 1e-12)
        for k in range(steps):
            t = k * h
            before, comps = comps, _rk4_components(loop.rhs, t, comps, h)
            v_new = v_of(t + h, comps)
            # V is positive definite in every state component, so a state can
            # only have gone non-finite where V did
            if not np.isfinite(v_new).all():
                finite = np.logical_and.reduce([np.isfinite(c) for c in comps])
                newly_dead = alive[cols] & ~finite
                if np.any(newly_dead):
                    fail_time[cols[newly_dead]] = (k + 1) * h
                    alive[cols[newly_dead]] = False
            increase, inside = _decrease_step(v_prev, v_new, level, floor)
            inc = in_set & increase
            fresh = inc & ~viol_v
            if np.any(fresh):
                viol_v_time[cols[fresh]] = (k + 1) * h
                viol_v |= inc
            in_set &= inside
            v_prev = v_new
            if (k + 1) % RETIRE_EVERY or k + 1 == steps:
                continue
            # retire the columns whose report is decided: dead, frozen, or merged
            bits = [c.view(np.uint64) for c in comps]
            frozen = np.logical_and.reduce([b == a.view(np.uint64) for a, b in zip(before, bits)])
            live = alive[cols]
            _, first_of, group = np.unique(np.column_stack(bits + [set_of[cols], in_set, viol_v]),
                                           axis=0, return_index=True, return_inverse=True)
            rep = first_of[group]
            follows = live & (rep != np.arange(len(cols)))
            keep = live & ~frozen & ~follows
            if keep.all():
                continue
            merges.append((cols[follows], cols[rep[follows]]))
            end[:, cols] = comps
            viol_v_all[cols] = viol_v
            cols = cols[keep]
            comps = tuple(c[keep] for c in comps)
            v_prev, in_set, viol_v, level, floor = (
                a[keep] for a in (v_prev, in_set, viol_v, level, floor))
            if not len(cols):
                break
            loop, v_of = batch(cols)

    end[:, cols] = comps
    viol_v_all[cols] = viol_v
    for followers, reps in reversed(merges):  # a representative may follow later
        inherits = ~viol_v_all[followers]  # as it was when they left the batch
        end[:, followers] = end[:, reps]
        alive[followers] = alive[reps]
        fail_time[followers] = fail_time[reps]
        followers, reps = followers[inherits], reps[inherits]
        viol_v_all[followers] = viol_v_all[reps]
        viol_v_time[followers] = viol_v_time[reps]
    outcome = _run_outcome(alive, x0, np.stack(end[-2:], axis=1), x_s)

    empirical = gamma_empirical(plant.params, plant.domain, LIPSCHITZ_PAIRS, seed + 1)
    analytic = phi_lipschitz_sup(plant.params, plant.domain)
    reports = []
    for j, est in enumerate(estimates):
        violations = []
        for i in range(j * count, (j + 1) * count):
            if outcome[i] == "diverged":
                violations.append((tuple(x0[i]), "diverged", float(fail_time[i])))
            elif outcome[i] == "wrong-equilibrium":
                violations.append((tuple(x0[i]), "wrong-equilibrium", None))
            elif viol_v_all[i]:
                violations.append((tuple(x0[i]), "V-increase", float(viol_v_time[i])))
        violations.sort(key=lambda item: item[0])
        reports.append(FalsificationReport(
            kind=est.kind, level=float(est.level), samples=count,
            converged=count - len(violations), violations=tuple(violations),
            empirical_gamma=empirical, analytic_gamma=analytic,
            seed=seed, horizon=horizon, h=h,
        ))
    return reports
