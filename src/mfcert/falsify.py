"""Brute-force validation of the certificates by batched Monte-Carlo runs.

Initial states are sampled uniformly inside each certified level set
(slightly shrunk, since the certified sets are open).  The samples of every
set of one design are integrated together as one stacked batch, and each run
is classified: converged to the analytic equilibrium, diverged, settled
elsewhere (a single run's verdict too, ``simulate._run_outcome``), or
Lyapunov increase while inside its set.  Sampling uses a counter-based
generator, so reports are byte-for-byte reproducible for a fixed seed.
"""

from __future__ import annotations

import math
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
    the set's shape matrix and mapped to physical coordinates through the
    set's frame (``RoaEstimate.to_physical``).  Returns the process states
    (count, n) and, for the two-loop kinds, the matching model states;
    single-loop kinds return None for the model part.
    """
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
        e_star = scale * u[:, :n] @ S.T
    else:  # the slice's own model error: zero without a model start
        e_star = np.asarray(estimate.x0_star or estimate.x_d) - np.asarray(estimate.x_d)
    x_star, x0 = estimate.to_physical(e_star, z)
    if estimate.controller != "MFC":
        return x0, None
    if estimate.kind == "MFC2":  # the stored model start itself, for every sample
        x_star = np.tile(np.asarray(estimate.x0_star), (count, 1))
    return x0, x_star


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
    one law (see ``build_closed_loop``) with their set's level, and V is each
    set's own ``lyapunov_value``.  A run's final verdict is a single run's,
    ``simulate._run_outcome``: converged, diverged or wrong-equilibrium.
    Lyapunov increase is monitored online while the state remains inside its
    set and reported for a run that converged.  Violations are data, not
    errors.  Every run takes ``whole_steps(horizon, h)`` steps.  Returns one
    report per set, in order.
    """
    steps = whole_steps(horizon, h)
    if not estimates:
        return []
    first = estimates[0]
    if any(not (np.array_equal(est.x_d, first.x_d) and np.array_equal(est.P, first.P))
           for est in estimates):
        raise ValueError("a batch needs sets of one set-point and one Lyapunov matrix")
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
    loop = build_closed_loop(plant, spec, first.vartheta,
                             columns=[(est.controller, count) for est in estimates])
    two_loop = any(est.controller == "MFC" for est in estimates)
    scale = per_column([np.diag(est.d_inv()) for est in estimates]).T.copy()
    v_of = _frame_v(first.P, per_column([est.vartheta for est in estimates]), x_d[0],
                    x_s[:, 0].copy(), scale, two_loop)
    comps = tuple(x0.T.copy())
    if two_loop:
        comps = tuple(np.concatenate(x0_star).T.copy()) + comps
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

    outcome = _run_outcome(alive, x0, np.stack(comps[-2:], axis=1), x_s)

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
