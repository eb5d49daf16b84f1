"""Certified region-of-attraction level sets for the mass-spring-damper loops.

Four estimates are computed from the robustness bounds: a combined-state
level for the two-loop scheme (MFC1), a split level that exploits the
disturbance-free model loop (MFC2, level c_star + c_tilde), and one level
each for the plain and high-gain single-loop designs.  Invalid estimates
(negative radicand or radius) are first-class absent results carrying the
failing reason; they are never silent zeros.

All sets are quadratic-form sublevel sets of one Lyapunov value, whose only
implementation is ``_frame_v``: ``RoaEstimate.lyapunov_value``, the loops'
``make_v`` and the falsifier's batch evaluate it.  Helpers map the scaled
frames back to physical coordinates for plotting and sampling.  The regions
swept by the MFC2 model start are drawn and measured from their support
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .plant import MsdParams, sigma1_bar
from .synthesis import LyapunovCertificate, _check_vartheta, time_scaling

__all__ = [
    "RoaEstimate",
    "RegionSweep",
    "aux_radius",
    "r_mfc2",
    "c_star",
    "c_star_budget",
    "compare_levels",
    "estimate_mfc1",
    "estimate_mfc2",
    "estimate_sl",
    "estimate_slhg",
    "mfc2_region_sweep",
]

REASON_DAMPING = "gamma-below-damping-threshold"
REASON_RADICAND = "negative-radicand"
REASON_RADIUS = "negative-radius"
REASON_CSTAR = "c-star-exceeds-budget"

#: Vertices of each drawn level-set boundary.
BOUNDARY_POINTS = 256
#: Support directions, one vertex each, of the swept-region polygons.
SWEEP_RAYS = 360


def _level(lam_min: float, radius: float) -> float:
    """lambda_min radius^2: the largest level whose z' P z sublevel set lies in that ball."""
    return lam_min * radius * radius


def aux_radius(
    p: MsdParams, gamma_bound: float, ref_norm: float
) -> tuple[float | None, str | None]:
    """Shared radius block of all level formulas.

    sqrt((sqrt((m Gamma)^2 - dc_d^2) - |dk|) / sigma1_bar - 3/4 |v|^2) - 3/2 |v|
    where |v| is the norm of the shifted reference state.  Returns
    (radius, None) or (None, reason) when a radicand or the radius goes
    negative.  A vanishing sigma1_bar (purely linear uncertainty) is outside
    the formula's scope and raises ZeroDivisionError.
    """
    s1b = sigma1_bar(p)
    if s1b == 0.0:
        raise ZeroDivisionError(
            "sigma1_bar is zero; the cubic-uncertainty level formulas do not "
            "apply to purely linear uncertainty"
        )
    inner = (p.m * gamma_bound) ** 2 - p.dc_d**2
    if inner <= 0.0:
        return None, REASON_DAMPING
    core = (math.sqrt(inner) - abs(p.dk)) / s1b - 0.75 * ref_norm * ref_norm
    if core < 0.0:
        return None, REASON_RADICAND
    r = math.sqrt(core) - 1.5 * ref_norm
    if r < 0.0:
        return None, REASON_RADIUS
    return r, None


def _combined_radius(
    p: MsdParams, gamma_bound: float, ref_norm: float
) -> tuple[float | None, str | None]:
    """Combined two-loop (MFC1) radius: the shared radius block shrunk by sqrt(2)."""
    r, reason = aux_radius(p, gamma_bound, ref_norm)
    return (None if r is None else r / math.sqrt(2.0)), reason


def c_star(vartheta: float, P: np.ndarray, x_tilde_star_0) -> float | np.ndarray:
    """Model-loop level vartheta e0' P e0 of one initial model error e0 (a float) or
    of a batch (..., 2) of them (an array): ``_frame_v``'s model term, so V =
    c_star(e*) + z' P z bit for bit.  A non-finite level raises naming its e0 row."""
    _check_vartheta(vartheta)
    e0 = np.asarray(x_tilde_star_0, dtype=float)
    if e0.shape[-1:] != (2,):
        raise ValueError(f"a model error has 2 components, not shape {e0.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        level = _model_term(_quadform(P), vartheta, e0[..., 0], e0[..., 1])
    if not np.isfinite(level).all():
        row = tuple(np.argwhere(~np.isfinite(level))[0].tolist())
        raise ArithmeticError(f"model-loop level c_star = {float(level[row])} for "
                              f"e0 = {e0[row].tolist()}" + (f" in row {row}" if row else ""))
    return float(level) if np.ndim(level) == 0 else level


def c_star_budget(
    p: MsdParams, gamma_bound: float, ref_norm: float, vartheta: float, lam_min: float
) -> float:
    """Largest model-loop level that still leaves a nonnegative split radius.

    Equals vartheta * lambda_min * aux_radius^2; above it the split estimate
    is absent.
    """
    ra, reason = aux_radius(p, gamma_bound, ref_norm)
    if ra is None:
        raise ValueError(f"no valid level budget: {reason}")
    return vartheta * lam_min * ra * ra


def r_mfc2(
    p: MsdParams,
    gamma_bound: float,
    ref_norm: float,
    c_star_value: float,
    vartheta: float,
    lam_min: float,
) -> tuple[float | None, str | None]:
    """Split radius: aux_radius discounted by the model-loop level budget."""
    if c_star_value < 0:
        raise ValueError("c_star must be nonnegative")
    ra, reason = aux_radius(p, gamma_bound, ref_norm)
    if ra is None:
        return None, reason
    r = ra - math.sqrt(c_star_value / (vartheta * lam_min))
    if r < 0.0:
        return None, REASON_CSTAR
    return r, None


def compare_levels(
    c_star_value: float,
    p: MsdParams,
    gamma_bound: float,
    ref_norm: float,
    vartheta: float,
    lam_min: float,
) -> tuple[float, float, float]:
    """Split-frame levels of the two estimation routes sharing one c_star.

    Returns (c1_tilde, c2_tilde, difference) with
    c1_tilde = lambda_min r_1^2 - c_star for the combined radius r_1 = r_a / sqrt(2) and
    c2_tilde = lambda_min (r_a - sqrt(c_star / (vartheta lambda_min)))^2.
    The difference is provably positive for vartheta > 1.  Raises ValueError
    naming the reason when the split estimate is absent, including a c_star
    above its budget.
    """
    if vartheta <= 1:
        raise ValueError("vartheta must exceed 1 for the level comparison")
    r, reason = r_mfc2(p, gamma_bound, ref_norm, c_star_value, vartheta, lam_min)
    if r is None:
        raise ValueError(f"level comparison undefined: {reason}")
    r1, _ = _combined_radius(p, gamma_bound, ref_norm)
    c1_tilde = _level(lam_min, r1) - c_star_value
    c2_tilde = _level(lam_min, r)
    diff = c2_tilde - c1_tilde
    if diff <= 0:
        raise ArithmeticError(
            f"split route did not dominate: c2_tilde - c1_tilde = {diff:.3e}"
        )
    return c1_tilde, c2_tilde, diff


def _inv_sqrt(P: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(np.asarray(P, dtype=float))
    if np.any(w <= 0):
        raise ValueError("shape matrix must be positive definite")
    return V @ np.diag(1.0 / np.sqrt(w)) @ V.T


def _unit_circle(points: int) -> np.ndarray:
    """Unit vectors at ``points`` equally spaced angles, shape (points, 2), read-only."""
    theta = 2.0 * math.pi * np.arange(points) / points
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    circle.flags.writeable = False
    return circle


#: The circles of every drawn boundary and of every region sweep, each built once.
_BOUNDARY_CIRCLE = _unit_circle(BOUNDARY_POINTS)
_SWEEP_CIRCLE = _unit_circle(SWEEP_RAYS)


def _on_ellipse(S: np.ndarray, circle: np.ndarray, level: float, center) -> np.ndarray:
    """center + (sqrt(level) * circle) @ S.T; the other grouping changes bits."""
    return np.asarray(center, dtype=float) + math.sqrt(level) * circle @ S.T


def _quadform(P):
    """v'Pv of a 2-vector as v1 (P11 v1 + (P12 + P21) v2) + P22 v2 v2, a function of (v1, v2)."""
    (p11, p12), (p21, p22) = np.asarray(P, dtype=float).tolist()
    p12 += p21

    def quadform(v1, v2):
        acc = v1 * p11
        term = v2 * p12
        acc += term
        acc *= v1
        term = v2 * p22
        term *= v2
        acc += term
        return acc

    return quadform


def _model_term(q, vartheta, e1, e2):
    """vartheta e*' P e* of the model error (e1, e2), with q = ``_quadform(P)``."""
    v = q(e1, e2)
    v *= vartheta
    return v


def _frame_v(P, vartheta, y_d, c1, scale, two_loop: bool):
    """The one V = vartheta e*' P e* + z' P z of a certified frame, as ``v_of(t, y)``
    of y = (x*1, x*2, x1, x2), or of y = (x1, x2) with e* = 0 in a single loop:
    e* = x* - (y_d, 0), z = diag(scale) (x - (c1, 0) - e*).  Every argument but
    P may hold one value per column; ``t`` is unused."""
    q = _quadform(P)
    s1, s2 = scale
    if two_loop:
        def v_of(t, y):
            xs1, xs2, x1, x2 = y
            e1 = xs1 - y_d
            z1 = x1 - c1
            z1 -= e1
            z1 *= s1
            z2 = x2 - xs2
            z2 *= s2
            v = _model_term(q, vartheta, e1, xs2)
            v += q(z1, z2)
            return v
    else:
        def v_of(t, y):
            x1, x2 = y
            z1 = x1 - c1
            z1 *= s1
            return q(z1, x2 * s2)
    return v_of


def _frame_epsilon(kind: str, epsilon: float) -> float:
    """The epsilon of a loop's or a set's time scaling D: plain SL and FFLIN are unscaled."""
    return 1.0 if kind in ("SL", "FFLIN") else epsilon


_FRAMES = {
    "MFC1": "combined model error and scaled process error",
    "MFC2": "combined model error and scaled process error",
    "SL": "deviation from the steady state",
    "SLHG": "scaled deviation from the steady state",
}


@dataclass(frozen=True)
class RoaEstimate:
    """One certified level set: its level, frame, and physical-frame geometry.

    ``level`` is None for invalid estimates, with ``reason`` naming the
    failing radicand.  For the split estimate the level decomposes as
    c_star + c_tilde.  Every kind lives in one frame: the model error
    e* = x* - x_d and the scaled process error z = D^-1 (x - x_s - e*), with
    V = vartheta e*' P e* + z' P z.  The single loops have e* = 0, and plain
    SL also D = I.  ``x0_star`` is the set's model start, resolved here to
    ``tuple(x_d)`` unless one is given; only MFC2's lies off x_d.  Membership
    is evaluable through ``lyapunov_value``; the drawable two-dimensional set
    is exposed through ``physical_shape`` and ``boundary``.
    """

    kind: str
    level: float | None
    radius_aux: float | None
    x_d: tuple
    x_s: tuple
    P: np.ndarray
    vartheta: float
    epsilon: float
    c_star: float | None = None
    c_tilde: float | None = None
    x0_star: tuple | None = None
    reason: str | None = None

    def __post_init__(self):
        if self.kind not in _FRAMES:
            raise ValueError(f"unknown estimate kind {self.kind!r}")
        if self.x_d[1] != 0.0 or self.x_s[1] != 0.0:
            raise ValueError("a frame is centred on rest states: x_d[1] and x_s[1] must be 0")
        start = self.x_d if self.x0_star is None else self.x0_star
        object.__setattr__(self, "x0_star", tuple(start))

    @property
    def valid(self) -> bool:
        return self.level is not None

    @property
    def n(self) -> int:
        return len(self.x_d)

    @property
    def controller(self) -> str:
        """The loop the set certifies: MFC for both two-loop kinds."""
        return "MFC" if self.kind in ("MFC1", "MFC2") else self.kind

    @property
    def frame(self) -> str:
        return _FRAMES[self.kind]

    def d_matrix(self) -> np.ndarray:
        """Time scaling D of the frame; the identity for plain SL."""
        return np.diag(time_scaling(_frame_epsilon(self.kind, self.epsilon), self.n))

    def d_inv(self) -> np.ndarray:
        return np.diag(time_scaling(1.0 / _frame_epsilon(self.kind, self.epsilon), self.n))

    @property
    def slice_level(self) -> float | None:
        """Level of z' P z on the drawable slice: c_tilde for MFC2, else the level."""
        return self.c_tilde if self.kind == "MFC2" else self.level

    @property
    def center(self) -> np.ndarray:
        """x_s + (x0_star - x_d): the point to which ``to_physical`` adds D z at the start."""
        return np.asarray(self.x_s) + (np.asarray(self.x0_star) - np.asarray(self.x_d))

    def to_physical(self, e_star, z) -> tuple[np.ndarray, np.ndarray]:
        """Model and process states x* = x_d + e* and x = x_s + e* + D z of a frame point."""
        x_star = np.asarray(self.x_d) + e_star
        return x_star, np.asarray(self.x_s) + e_star + z @ self.d_matrix().T

    def lyapunov_value(self, x: Sequence[float], x_star: Sequence[float] | None = None):
        """Lyapunov value of a physical state (pair) in the estimate's frame."""
        return self._value(self.vartheta, x, x_star)

    def _value(self, vartheta: float, x, x_star):
        """``_frame_v`` of the frame at (x*, x), its model error weighed by ``vartheta``."""
        comps = tuple(np.moveaxis(np.asarray(x, dtype=float), -1, 0))
        if self.controller == "MFC":
            if x_star is None:
                raise ValueError(f"{self.kind} membership needs the model state as well")
            comps = tuple(np.moveaxis(np.asarray(x_star, dtype=float), -1, 0)) + comps
        v = _frame_v(self.P, vartheta, self.x_d[0], self.x_s[0], np.diag(self.d_inv()),
                     self.controller == "MFC")(None, comps)
        return float(v) if np.ndim(v) == 0 else v

    def contains(self, x, x_star=None) -> bool | np.ndarray:
        """One rule for a pair or a batch of every kind: (c_star(e*) - c_star) + z' P z
        <= slice_level, c_star 0 but for MFC2; for the others V <= level bit for bit.
        MFC2 weighs z' P z against c_tilde itself, which c_star + c_tilde may round
        away.  A single loop takes no model state (e* = 0)."""
        if not self.valid:
            raise ValueError(f"estimate {self.kind} is invalid ({self.reason})")
        e_star = np.subtract(self.x_d if x_star is None else x_star, self.x_d)
        model = c_star(self.vartheta, self.P, e_star) - (self.c_star or 0.0)
        return model + self._value(0.0, x, x_star) <= self.slice_level

    def physical_shape(self) -> tuple[np.ndarray, float, np.ndarray]:
        """Shape matrix, level and center of the drawable set in physical coordinates.

        The quadratic form pulls back through the time scaling; the drawable
        set is the process-error slice at the stored initial model error,
        zero for MFC1 and the single loops.
        """
        if not self.valid:
            raise ValueError(f"estimate {self.kind} is invalid ({self.reason})")
        Dinv = self.d_inv()
        return Dinv @ np.asarray(self.P) @ Dinv, self.slice_level, self.center

    def boundary(self) -> np.ndarray:
        """Drawable boundary; a zero slice level (c_tilde of a split set) draws the centre."""
        Q, level, center = self.physical_shape()
        return _on_ellipse(_inv_sqrt(Q), _BOUNDARY_CIRCLE, level, center)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "valid": self.valid,
            "level": self.level,
            "c_star": self.c_star,
            "c_tilde": self.c_tilde,
            "radius": self.radius_aux,
            "center": self.center.tolist() if self.valid else None,
            "frame": self.frame,
            "reason": self.reason,
        }


def _estimate(
    kind: str,
    cert: LyapunovCertificate,
    x_s: Sequence[float],
    x_d: Sequence[float],
    radius: float | None,
    reason: str | None,
    c_star: float | None = None,
    x0_star: Sequence[float] | None = None,
) -> RoaEstimate:
    """Estimate at level lambda_min radius^2, raised by c_star for the split set."""
    level = None if radius is None else _level(cert.lambda_min, radius)
    c_tilde = None
    if c_star is not None and level is not None:
        c_tilde, level = level, c_star + level
    return RoaEstimate(
        kind=kind,
        level=level,
        radius_aux=radius,
        x_d=tuple(x_d),
        x_s=tuple(x_s),
        P=cert.P,
        vartheta=cert.vartheta,
        epsilon=cert.epsilon,
        c_star=c_star,
        c_tilde=c_tilde,
        x0_star=x0_star,
        reason=reason,
    )


def estimate_sl(
    p: MsdParams, cert: LyapunovCertificate, x_s: Sequence[float], x_d: Sequence[float]
) -> RoaEstimate:
    """Level set of the plain single-loop design about its steady state."""
    r, reason = aux_radius(p, cert.gamma_sl, float(np.linalg.norm(x_s)))
    return _estimate("SL", cert, x_s, x_d, r, reason)


def estimate_slhg(
    p: MsdParams, cert: LyapunovCertificate, x_s: Sequence[float], x_d: Sequence[float]
) -> RoaEstimate:
    """Level set of the high-gain single-loop design, in its scaled frame."""
    r, reason = aux_radius(p, cert.gamma_slhg, float(np.linalg.norm(x_s)))
    return _estimate("SLHG", cert, x_s, x_d, r, reason)


def estimate_mfc1(
    p: MsdParams, cert: LyapunovCertificate, x_s: Sequence[float], x_d: Sequence[float]
) -> RoaEstimate:
    """Combined-state level set of the two-loop scheme, at zero initial model error."""
    r, reason = _combined_radius(p, cert.gamma_mfc, float(np.linalg.norm(x_s)))
    return _estimate("MFC1", cert, x_s, x_d, r, reason)


def estimate_mfc2(
    p: MsdParams,
    cert: LyapunovCertificate,
    x_s: Sequence[float],
    x_d: Sequence[float],
    x0_star: Sequence[float],
) -> RoaEstimate:
    """Split level set: exact model-loop level plus the discounted process level."""
    e0 = np.asarray(x0_star, dtype=float) - np.asarray(x_d, dtype=float)
    cs = c_star(cert.vartheta, cert.P, e0)
    r, reason = r_mfc2(
        p, cert.gamma_mfc, float(np.linalg.norm(x_s)), cs, cert.vartheta, cert.lambda_min
    )
    return _estimate("MFC2", cert, x_s, x_d, r, reason, c_star=cs, x0_star=x0_star)


@dataclass(frozen=True)
class RegionSweep:
    """Regions reachable by sweeping the initial model state, in closed form.

    ``green`` is the outer boundary polygon of the union over initial model
    states on the fixed c_star ellipse; ``grey`` sweeps all admissible c_star
    levels as well.  ``green_area`` and ``grey_area`` are the exact areas of
    the two regions, not those of the polygons.
    """

    green: np.ndarray
    grey: np.ndarray
    c_star_level: float
    c_tilde_level: float
    c_star_max: float
    green_area: float
    grey_area: float


def _ellipse_perimeter(a: float, b: float) -> float:
    """Perimeter of the ellipse with semi-axes a >= b > 0, by the AGM series
    2 pi (a^2 - sum 2^(n-1) c_n^2) / AGM(a, b) with c_0^2 = a^2 - b^2."""
    x, y = a, b
    weight, total = 0.5, 0.5 * (a * a - b * b)
    while x - y > 1e-15 * x:
        c = 0.5 * (x - y)
        x, y = 0.5 * (x + y), math.sqrt(x * y)
        weight *= 2.0
        total += weight * c * c
    return 2.0 * math.pi * (a * a - total) / x


def _hull_area(a: float, b: float) -> float:
    """Area of the convex hull of the unit disc and a concentric ellipse, semi-axes a >= b.

    For b < 1 < a the hull is two sectors of each and four triangles on the
    bitangents, whose normal angle t0 is where the two support functions meet.
    """
    if a <= 1.0:
        return math.pi
    if b >= 1.0:
        return math.pi * a * b
    cos_t0 = math.sqrt((1.0 - b * b) / (a * a - b * b))
    sin_t0 = math.sqrt(1.0 - cos_t0 * cos_t0)
    t0 = math.atan2(sin_t0, cos_t0)
    te = math.atan2(b * sin_t0, a * cos_t0)  # the ellipse's parameter at the tangent point
    return 2.0 * a * b * te + 2.0 * (a * a - b * b) * cos_t0 * sin_t0 + math.pi - 2.0 * t0


def mfc2_region_sweep(
    p: MsdParams, cert: LyapunovCertificate, estimate: RoaEstimate
) -> RegionSweep:
    """Outer boundaries and exact areas of the swept regions of a valid MFC2 estimate.

    A model start with error e* certifies x iff ||D^-1 (x - x_s - e*)||_P +
    ||e*||_P <= R, with ||v||_P = sqrt(v' P v) and R = sqrt(c_star_max /
    vartheta) = sqrt(lambda_min) aux_radius (``r_mfc2``, rearranged).  With B_P
    the unit ball of ||.||_P, s = sqrt(c_star / vartheta), rho = sqrt(c_tilde),
    h1(u) = sqrt(u' P^-1 u) and h2(u) = sqrt(u' D P^-1 D u):
    green (model starts on the estimate's c_star ellipse) is the outer boundary
    of x_s + s B_P + rho D B_P, support s h1 + rho h2; grey (every c_star up to
    ``c_star_budget``) is x_s + R conv(B_P, D B_P), support R max(h1, h2).

    The vertex in each of SWEEP_RAYS directions u is the support's gradient:
    s P^-1 u / h1 + rho D P^-1 D u / h2 for green, R times the unit term of
    the larger h for grey (an edge where that term switches is a bitangent).
    Mapped by P^1/2, B_P is the unit disc and D B_P the ellipse whose
    semi-axes a >= b are the singular values of P^1/2 D P^-1/2.  The green
    area is Steiner's pi s^2 + s rho L(a, b) + pi rho^2 a b, with L the
    perimeter, and the grey one R^2 times the area of the disc's and the
    ellipse's hull, each over sqrt(det P).  Raises ValueError for an invalid
    or non-MFC2 estimate.
    """
    if estimate.kind != "MFC2":
        raise ValueError(f"region sweep needs an MFC2 estimate, not {estimate.kind}")
    _, c_tilde, _ = estimate.physical_shape()
    x_s = np.asarray(estimate.x_s, dtype=float)
    vth = cert.vartheta
    c_max = c_star_budget(p, cert.gamma_mfc, float(np.linalg.norm(x_s)), vth, cert.lambda_min)
    P, D = np.asarray(estimate.P, dtype=float), estimate.d_matrix()
    P_inv = np.linalg.inv(P)
    dirs = _SWEEP_CIRCLE
    w1, w2 = dirs @ P_inv, dirs @ (D @ P_inv @ D)  # P^-1 u and D P^-1 D u, as rows
    h1 = np.sqrt(np.einsum("ri,ri->r", dirs, w1))[:, None]
    h2 = np.sqrt(np.einsum("ri,ri->r", dirs, w2))[:, None]
    s, rho, R = math.sqrt(estimate.c_star / vth), math.sqrt(c_tilde), math.sqrt(c_max / vth)
    green = s * (w1 / h1) + rho * (w2 / h2)
    grey = R * np.where(h1 >= h2, w1 / h1, w2 / h2)

    S = _inv_sqrt(P)  # (P^1/2 D P^-1/2)' (P^1/2 D P^-1/2) = S D P D S
    b, a = np.sqrt(np.linalg.eigvalsh(S @ D @ P @ D @ S)).tolist()
    per_unit = 1.0 / math.sqrt(np.linalg.det(P))  # area of B_P over that of the unit disc
    nudge = 1.0 - 1e-9  # inward, so the vertices pass the membership tests in floats
    return RegionSweep(
        green=x_s + nudge * green,
        grey=x_s + nudge * grey,
        c_star_level=estimate.c_star,
        c_tilde_level=c_tilde,
        c_star_max=c_max,
        green_area=per_unit * (math.pi * s * s + s * rho * _ellipse_perimeter(a, b)
                               + math.pi * rho * rho * a * b),
        grey_area=per_unit * R * R * _hull_area(a, b),
    )
