"""Steady-state equilibria of the closed loops on the mass-spring-damper plant.

The x1-dependent uncertainty turns the steady-state conditions into cubic
polynomials: in the model-following error coordinate for the two-loop scheme
and in the physical output coordinate for the single-loop designs.  Roots are
found in closed form, classified by linearising the matching error dynamics,
and the canonical equilibrium is the root closest to the frame's reference
point.  The set-point at which the single-loop cubic goes from three real
roots to one is its fold, also in closed form.  The single-loop root sweep
makes one ``solve_cubic`` call per set-point of its grid.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .plant import MsdParams, msd_phi_gradient, sigma1
from .synthesis import GainSet, _check_epsilon

__all__ = [
    "EquilibriumSet",
    "solve_cubic",
    "mfc_steady_polynomial",
    "sl_steady_polynomial",
    "classify_stability",
    "mfc_equilibria",
    "single_loop_equilibria",
    "fflin_equilibrium",
    "sl_root_sweep",
    "multiplicity_transition",
]

_MARGINAL_TOL = 1e-9
#: Set-point range of the single-loop root sweep and of the reported transition.
Y_D_MIN, Y_D_MAX = 0.0, 2.5
#: Grid step of the reported root sweep.
SWEEP_STEP = 0.01


def _polish(coeffs: Sequence[float], root: float) -> float:
    """Up to five Newton corrections on the original polynomial."""
    a3, a2, a1, a0 = coeffs
    x = root
    for _ in range(5):
        p = ((a3 * x + a2) * x + a1) * x + a0
        dp = (3.0 * a3 * x + 2.0 * a2) * x + a1
        if dp == 0.0:
            break
        step = p / dp
        if not math.isfinite(step):
            break
        x -= step
        if abs(step) <= 1e-15 * (1.0 + abs(x)):
            break
    return x


def solve_cubic(coeffs: Sequence[float]) -> list[float]:
    """All real roots of a3 x^3 + a2 x^2 + a1 x + a0, sorted ascending.

    Dispatches on the discriminant: three real roots go through the
    trigonometric form, a single real root through the radical form.  Lower
    degrees degenerate gracefully.  Roots are Newton-polished and repeated
    roots are collapsed at tolerance 1e-9.
    """
    a3, a2, a1, a0 = map(float, coeffs)
    if a3 == 0.0 and a2 == 0.0 and a1 == 0.0 and a0 == 0.0:
        raise ValueError("all-zero coefficient vector")

    if a3 == 0.0:
        if a2 == 0.0:
            return [] if a1 == 0.0 else [-a0 / a1]
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0.0:
            return []
        s = math.sqrt(disc)
        roots = sorted([(-a1 - s) / (2.0 * a2), (-a1 + s) / (2.0 * a2)])
    else:
        # depressed form t^3 + p t + q with x = t - a2 / (3 a3)
        shift = a2 / (3.0 * a3)
        p = a1 / a3 - 3.0 * shift * shift
        q = 2.0 * shift**3 - shift * a1 / a3 + a0 / a3
        disc = -4.0 * p**3 - 27.0 * q * q
        # classify against the size of the discriminant's own terms, so a
        # rounded-to-eps repeated root lands in the multiple-root branch
        disc_scale = 4.0 * abs(p) ** 3 + 27.0 * q * q
        if disc > 1e-10 * disc_scale:
            # three distinct real roots
            r = 2.0 * math.sqrt(-p / 3.0)
            arg = (3.0 * q) / (p * r)
            arg = min(1.0, max(-1.0, arg))
            theta = math.acos(arg)
            roots = [
                r * math.cos(theta / 3.0 - 2.0 * math.pi * k / 3.0) - shift
                for k in range(3)
            ]
        elif disc < -1e-10 * disc_scale:
            s = math.sqrt(max(q * q / 4.0 + p**3 / 27.0, 0.0))
            u = math.copysign(abs(-q / 2.0 + s) ** (1.0 / 3.0), -q / 2.0 + s)
            v = math.copysign(abs(-q / 2.0 - s) ** (1.0 / 3.0), -q / 2.0 - s)
            roots = [u + v - shift]
        elif disc_scale == 0.0:
            roots = [-shift]  # triple root
        else:
            roots = [3.0 * q / p - shift, -3.0 * q / (2.0 * p) - shift]

    polished = sorted(_polish((a3, a2, a1, a0), r) for r in roots)
    merged: list[float] = []
    for r in polished:
        if merged and abs(r - merged[-1]) <= 1e-9 * (1.0 + abs(r)):
            continue
        merged.append(r)
    return merged


def mfc_steady_polynomial(
    p: MsdParams, k1_star: float, epsilon: float, y_d: float
) -> np.ndarray:
    """Cubic in the output error e = x1 - y_d whose roots are the two-loop equilibria.

    k1* eps^-2 e - [sigma1/m (y_d+e)^3 + dk/m (y_d+e)], expanded in e.
    """
    _check_epsilon(epsilon)
    if k1_star >= 0:
        raise ValueError("k1_star must be negative (stabilising gain)")
    c3 = sigma1(p) / p.m
    lin = p.dk / p.m
    gain = k1_star * (1.0 / epsilon) ** 2
    y = float(y_d)
    return np.array(
        [
            -c3,
            -3.0 * c3 * y,
            gain - 3.0 * c3 * y * y - lin,
            -c3 * y**3 - lin * y,
        ]
    )


def sl_steady_polynomial(p: MsdParams, k1_sl: float, y_d: float) -> np.ndarray:
    """Cubic in x1 whose roots are the single-loop equilibria.

    k1 (x1 - y_d) - [sigma1/m x1^3 + dk/m x1].  With the high-gain first
    element this reproduces the two-loop steady state exactly.
    """
    if k1_sl >= 0:
        raise ValueError("k1_sl must be negative (stabilising gain)")
    c3 = sigma1(p) / p.m
    lin = p.dk / p.m
    return np.array([-c3, 0.0, k1_sl - lin, -k1_sl * float(y_d)])


def classify_stability(
    root: float,
    closed_loop_kind: str,
    p: MsdParams,
    gains: GainSet,
    y_d: float = 0.0,
) -> str:
    """First-order stability of an equilibrium root: 'stable', 'unstable' or 'marginal'.

    Single-loop kinds linearise the physical error dynamics,
    J = A + b k' + b grad_phi(x_s)'.  The two-loop kind linearises the scaled
    process-error subsystem at vanishing model error,
    J = A + b k_star' + eps b grad_phi(x_s)' D, whose eigenvalue signs match
    the physical linearisation (the model subsystem is linear and Hurwitz by
    construction and decouples).  For the two-loop kind ``root`` is the output
    error, so the equilibrium sits at y_d + root.  Kinds are spelt as in ``ControllerSpec``.
    """
    if gains.n != 2:
        raise ValueError("stability classification is implemented for n = 2")
    eps = gains.epsilon
    # gain k, gradient weights (s1, s2) and equilibrium output x_s1 of each kind
    rows = {
        "SL": (gains.k_star, 1.0, 1.0, float(root)),
        "SLHG": (gains.k_tilde, 1.0, 1.0, float(root)),
        "MFC": (gains.k_star, eps * eps, eps, float(y_d) + float(root)),
    }
    if closed_loop_kind not in rows:
        raise ValueError(f"unknown closed-loop kind {closed_loop_kind!r}")
    k, s1, s2, x_s1 = rows[closed_loop_kind]
    d1, d2 = msd_phi_gradient(p, (x_s1, 0.0))
    row = (k[0] + s1 * d1, k[1] + s2 * d2)

    tr = row[1]
    det = -row[0]
    disc = tr * tr - 4.0 * det
    if disc >= 0.0:
        s = math.sqrt(disc)
        real_parts = ((tr - s) / 2.0, (tr + s) / 2.0)
    else:
        real_parts = (tr / 2.0, tr / 2.0)
    if any(abs(r) <= _MARGINAL_TOL for r in real_parts):
        return "marginal"
    return "stable" if all(r < 0.0 for r in real_parts) else "unstable"


@dataclass(frozen=True)
class EquilibriumSet:
    """Roots of a steady-state polynomial with stability flags and the selected root.

    ``frame`` names the polynomial variable: the output error for the
    two-loop scheme, the physical output for the single-loop designs.
    ``selected`` is the root closest to the frame's reference (zero error or
    the set-point); equidistant pairs resolve to the smaller root with
    ``tie`` set.  ``rest_state`` alone turns a root of either frame into a state.
    """

    coefficients: tuple
    roots: tuple
    stability: tuple
    selected: float
    selected_index: int
    frame: str
    y_d: float
    tie: bool = False

    def to_dict(self) -> dict:
        """The fields, tuples as lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}

    @property
    def rest_state(self) -> tuple:
        """(x_s1, 0.0), x_s1 being y_d + selected in the error frame, selected in the output's."""
        return (self.y_d + self.selected if self.frame == "x_tilde_1" else self.selected, 0.0)


def _real_roots(coeffs) -> list[float]:
    """Real roots of a steady-state cubic, each checked against its residual.

    A non-finite root or residual (coefficients that under- or overflow) is an
    ArithmeticError, like a residual above the bound.
    """
    roots = solve_cubic(coeffs)
    if not roots:
        raise ArithmeticError("steady-state cubic lost all real roots")
    # as Python floats an overflow is a silent inf, not a numpy warning
    a3, a2, a1, a0 = (float(c) for c in coeffs)
    bound = 1e-9 * (1.0 + max(abs(c) for c in (a3, a2, a1, a0)))
    for r in roots:
        val = ((a3 * r + a2) * r + a1) * r + a0
        if not (math.isfinite(r) and abs(val) <= bound):
            raise ArithmeticError(f"root {r} has residual {val:.3e} above {bound:.3e}")
    return roots


@contextmanager
def _cubic_for(y_d):
    """Name the cubic and its set-point in a numerical failure, an overflow included."""
    try:
        yield
    except ArithmeticError as exc:
        what = "overflows" if isinstance(exc, OverflowError) else f"fails: {exc}"
        where = f"the steady-state cubic for the set-point y_d = {float(y_d):.6g}"
        raise ArithmeticError(f"{where} {what}") from None


def _select(roots: Sequence[float], reference: float) -> tuple[int, bool]:
    dists = [abs(r - reference) for r in roots]
    best = min(dists)
    hits = [i for i, d in enumerate(dists) if abs(d - best) <= 1e-12 * (1.0 + best)]
    if len(hits) > 1:
        idx = min(hits, key=lambda i: roots[i])
        return idx, True
    return hits[0], False


def _equilibria(kind, p, gains, y_d, polynomial, reference, frame) -> EquilibriumSet:
    """Solve the cubic ``polynomial()``, select the root closest to ``reference``, classify."""
    with _cubic_for(y_d):
        coeffs = polynomial()
        roots = _real_roots(coeffs)
    idx, tie = _select(roots, reference)
    return EquilibriumSet(
        coefficients=tuple(coeffs),
        roots=tuple(roots),
        stability=tuple(classify_stability(r, kind, p, gains, y_d=y_d) for r in roots),
        selected=roots[idx],
        selected_index=idx,
        frame=frame,
        y_d=float(y_d),
        tie=tie,
    )


def mfc_equilibria(p: MsdParams, gains: GainSet, y_d: float) -> EquilibriumSet:
    """Equilibria of the two-loop closed loop in the output-error frame."""
    return _equilibria(
        "MFC", p, gains, y_d,
        lambda: mfc_steady_polynomial(p, gains.k_star[0], gains.epsilon, y_d), 0.0, "x_tilde_1",
    )


def single_loop_equilibria(
    p: MsdParams, gains: GainSet, y_d: float, high_gain: bool = False
) -> EquilibriumSet:
    """Equilibria of a single-loop closed loop, in the physical output frame."""
    k1 = gains.k_tilde[0] if high_gain else gains.k_star[0]
    return _equilibria(
        "SLHG" if high_gain else "SL", p, gains, y_d,
        lambda: sl_steady_polynomial(p, k1, y_d), float(y_d), "x_1",
    )


def fflin_equilibrium(p: MsdParams, gains: GainSet, y_d: float) -> float:
    """Equilibrium output of the feedforward-linearising loop, closest to y_d.

    Its rest condition f(x) - f(x_d) + k~1 (x1 - y_d) + phi(x) = 0 is a cubic
    in x1: the drift is cancelled at the reference only, so the nominal
    spring stays in it.
    """
    k1 = gains.k_tilde[0]
    c3 = (p.k * p.alpha**2 + sigma1(p)) / p.m
    lin = (p.k + p.dk) / p.m
    y = float(y_d)
    with _cubic_for(y):
        roots = _real_roots((-c3, 0.0, k1 - lin, (p.k / p.m) * (p.alpha**2 * y**3 + y) - k1 * y))
    return roots[_select(roots, y)[0]]


def sl_root_sweep(p: MsdParams, k1_sl: float) -> list[dict]:
    """Root data of the single-loop steady-state cubic on the set-point grid.

    One ``solve_cubic`` call per set-point.  The grid's cubics share a3,
    a2 = 0 and a1; only a0 = -k1 y_d varies.
    """
    a3, a2, a1, a0 = sl_steady_polynomial(p, k1_sl, 1.0).tolist()  # a0 is linear in y_d
    return [{"y_d": y, "roots": solve_cubic((a3, a2, a1, a0 * y))}
            for y in np.arange(Y_D_MIN, Y_D_MAX + 1e-9, SWEEP_STEP).tolist()]


def multiplicity_transition(p: MsdParams, k1_sl: float) -> float | None:
    """Set-point where the single-loop root count drops from three to one.

    With P = a1/a3 and Q = a0/a3 at y_d = 1, the cubic is x^3 + P x + Q y_d,
    which has three distinct real roots iff 4 P^3 + 27 Q^2 y_d^2 < 0.  The
    fold is therefore y_f = 2 (-P/3)^(3/2) / |Q|.  Returns it when the cubic
    has a cubic term, P < 0 and Y_D_MIN < y_f <= Y_D_MAX; otherwise None.
    """
    a3, _, a1, a0 = sl_steady_polynomial(p, k1_sl, 1.0).tolist()  # a0 is linear in y_d
    if a3 == 0.0:
        return None  # linear: one root at every set-point
    P, Q = a1 / a3, a0 / a3
    if not P < 0.0:
        return None  # monotone cubic: one root at every set-point
    t = -P / 3.0
    # t * sqrt(t) overflows to inf (and the fold to None), where t ** 1.5 would raise
    y_f = 2.0 * t * math.sqrt(t) / abs(Q)
    return y_f if Y_D_MIN < y_f <= Y_D_MAX else None
