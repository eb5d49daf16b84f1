"""Certified region-of-attraction level sets for the mass-spring-damper loops.

Four estimates are computed from the robustness bounds: a combined-state
level for the two-loop scheme (MFC1), a split level that exploits the
disturbance-free model loop (MFC2, level c_star + c_tilde), and one level
each for the plain and high-gain single-loop designs.  Invalid estimates
(negative radicand or radius) are first-class absent results carrying the
failing reason; they are never silent zeros.

All sets are quadratic-form sublevel sets.  Helpers map the scaled frames
back to physical coordinates for plotting and sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .plant import MsdParams, sigma1_bar
from .synthesis import LyapunovCertificate, time_scaling

__all__ = [
    "RoaEstimate",
    "RegionSweep",
    "aux_radius",
    "r_mfc2",
    "c_star",
    "c_star_budget",
    "compare_levels",
    "ellipse_boundary",
    "estimate_mfc1",
    "estimate_mfc2",
    "estimate_sl",
    "estimate_slhg",
    "mfc2_region_sweep",
    "polygon_area",
]

REASON_DAMPING = "gamma-below-damping-threshold"
REASON_RADICAND = "negative-radicand"
REASON_RADIUS = "negative-radius"
REASON_CSTAR = "c-star-exceeds-budget"

#: Vertices of each drawn level-set boundary.
BOUNDARY_POINTS = 256
#: Model starts on the c_star ellipse, and boundary rays, of the region sweep.
SWEEP_SAMPLES = 360
SWEEP_RAYS = 360
#: c_star levels of the grey region sweep, 0 and the budget included.
SWEEP_LEVELS = 17


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


def c_star(vartheta: float, P: np.ndarray, x_tilde_star_0: Sequence[float]) -> float:
    """Model-loop level vartheta * e0' P e0 for the initial model error e0."""
    if vartheta <= 0:
        raise ValueError("vartheta must be positive")
    e0 = np.asarray(x_tilde_star_0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        level = float(vartheta * e0 @ np.asarray(P) @ e0)
    if not math.isfinite(level):
        raise ArithmeticError(f"model-loop level c_star = {level} for e0 = {e0.tolist()}")
    return level


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
    c1_tilde = lam_min * r1 * r1 - c_star_value
    c2_tilde = lam_min * r**2
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


def ellipse_boundary(
    P_effective: np.ndarray, level: float, center: Sequence[float], points: int
) -> np.ndarray:
    """States x with (x - center)' P_effective (x - center) = level.

    Parameterised by angle through the symmetric inverse square root of the
    shape matrix; returns an array of shape (points, 2).
    """
    if level <= 0:
        raise ValueError("level must be positive")
    S = _inv_sqrt(P_effective)
    theta = 2.0 * math.pi * np.arange(points) / points
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return np.asarray(center, dtype=float) + math.sqrt(level) * circle @ S.T


@dataclass(frozen=True)
class RoaEstimate:
    """One certified level set: its level, frame, and physical-frame geometry.

    ``level`` is None for invalid estimates, with ``reason`` naming the
    failing radicand.  For the split estimate the level decomposes as
    c_star + c_tilde.  Membership is evaluable through ``lyapunov_value``;
    the drawable two-dimensional set is exposed through ``physical_shape``
    and ``boundary``.
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
        return {
            "MFC1": "combined model error and scaled process error",
            "MFC2": "combined model error and scaled process error",
            "SL": "deviation from the steady state",
            "SLHG": "scaled deviation from the steady state",
        }[self.kind]

    def d_matrix(self) -> np.ndarray:
        return np.diag(time_scaling(self.epsilon, self.n))

    def d_inv(self) -> np.ndarray:
        return np.diag(time_scaling(1.0 / self.epsilon, self.n))

    @property
    def center(self) -> np.ndarray:
        """Physical-frame center of the drawable set."""
        x_s = np.asarray(self.x_s)
        if self.kind in ("SL", "SLHG"):
            return x_s
        x0s = np.asarray(self.x0_star if self.x0_star is not None else self.x_d)
        return x0s + (x_s - np.asarray(self.x_d))

    def lyapunov_value(self, x: Sequence[float], x_star: Sequence[float] | None = None):
        """Lyapunov value of a physical state (pair) in the estimate's frame."""
        P = np.asarray(self.P)
        x = np.asarray(x, dtype=float)
        x_s = np.asarray(self.x_s)
        if self.kind == "SL":
            e = x - x_s
            return float(e @ P @ e) if e.ndim == 1 else np.einsum("...i,ij,...j", e, P, e)
        if self.kind == "SLHG":
            z = (x - x_s) @ self.d_inv().T
            return float(z @ P @ z) if z.ndim == 1 else np.einsum("...i,ij,...j", z, P, z)
        if x_star is None:
            raise ValueError(f"{self.kind} membership needs the model state as well")
        xs = np.asarray(x_star, dtype=float)
        e_star = xs - np.asarray(self.x_d)
        zt = ((x - x_s) - e_star) @ self.d_inv().T
        v = self.vartheta * np.einsum("...i,ij,...j", e_star, P, e_star) + np.einsum(
            "...i,ij,...j", zt, P, zt
        )
        return float(v) if np.ndim(v) == 0 else v

    def contains(self, x, x_star=None) -> bool | np.ndarray:
        if not self.valid:
            raise ValueError(f"estimate {self.kind} is invalid ({self.reason})")
        return self.lyapunov_value(x, x_star) <= self.level

    def physical_shape(self) -> tuple[np.ndarray, float, np.ndarray]:
        """Shape matrix, level and center of the drawable set in physical coordinates.

        For the scaled frames the quadratic form pulls back through the time
        scaling; for the combined frames the drawable set is the process-error
        slice at the stored initial model error, zero for MFC1.
        """
        if not self.valid:
            raise ValueError(f"estimate {self.kind} is invalid ({self.reason})")
        P = np.asarray(self.P)
        if self.kind == "SL":
            return P, self.level, self.center
        Dinv = self.d_inv()
        Q = Dinv @ P @ Dinv
        if self.kind == "MFC2":
            return Q, self.c_tilde, self.center
        return Q, self.level, self.center

    def boundary(self) -> np.ndarray:
        Q, level, center = self.physical_shape()
        return ellipse_boundary(Q, level, center, BOUNDARY_POINTS)

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
    level = None if radius is None else cert.lambda_min * radius * radius
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
        x0_star=None if x0_star is None else tuple(x0_star),
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
    """Union regions reachable by sweeping the initial model state.

    ``green`` is the boundary polygon of the union over initial model states
    on the fixed c_star ellipse; ``grey`` sweeps all admissible c_star levels
    as well.  The membership closures evaluate the underlying union tests.
    """

    green: np.ndarray
    grey: np.ndarray
    c_star_level: float
    c_tilde_level: float
    c_star_max: float
    green_contains: Callable
    grey_contains: Callable


def polygon_area(polygon: np.ndarray) -> float:
    """Shoelace area of a closed polygon given as ordered vertices."""
    x = polygon[:, 0]
    y = polygon[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _union_membership(centers: np.ndarray, thresholds: np.ndarray, Q: np.ndarray):
    def contains(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        diffs = pts[:, None, :] - centers[None, :, :]
        vals = np.einsum("kmi,ij,kmj->km", diffs, Q, diffs)
        return np.any(vals <= thresholds[None, :], axis=1)

    return contains


def mfc2_region_sweep(
    p: MsdParams,
    cert: LyapunovCertificate,
    x_s: Sequence[float],
    c_star_level: float,
) -> RegionSweep:
    """Outer boundaries of the swept split-estimate regions.

    The union membership is tested directly against densely sampled center
    ellipses.  Boundaries are extracted on a ray fan from the common
    centroid: along a ray each member ellipse occupies an exact interval
    (its quadratic form is quadratic in the ray parameter), so the outer
    extent is the maximum of the interval endpoints in closed form.  This
    stays correct where the sampled union has radial gaps, which a
    bisection search would mistake for the boundary.
    """
    x_s = np.asarray(x_s, dtype=float)
    ref_norm = float(np.linalg.norm(x_s))
    ra, reason = aux_radius(p, cert.gamma_mfc, ref_norm)
    if ra is None:
        raise ValueError(f"region sweep undefined: {reason}")
    lam = cert.lambda_min
    vth = cert.vartheta
    c_max = vth * lam * ra * ra
    if c_star_level < 0 or c_star_level > c_max:
        raise ValueError(f"c_star level {c_star_level} outside [0, {c_max}]")

    P = np.asarray(cert.P)
    Dinv = np.diag(time_scaling(1.0 / cert.epsilon, len(x_s)))
    Q = Dinv @ P @ Dinv
    centroid = x_s.copy()  # x_d + steady offset, the c_star = 0 center

    def c_tilde_of(cs: float) -> float:
        return lam * (ra - math.sqrt(cs / (vth * lam))) ** 2

    def ring(cs: float, count: int) -> np.ndarray:
        # the model starts with vartheta e*' P e* = cs, on the set's own ellipse
        return centroid[None, :] if cs == 0.0 else ellipse_boundary(P, cs / vth, centroid, count)

    green_centers = ring(c_star_level, SWEEP_SAMPLES)
    green_thresholds = np.full(len(green_centers), c_tilde_of(c_star_level))
    green_contains = _union_membership(green_centers, green_thresholds, Q)

    grey_count = SWEEP_SAMPLES // 4
    grey_centers = []
    grey_thresholds = []
    for cs in np.linspace(0.0, c_max, SWEEP_LEVELS):
        pts = ring(float(cs), grey_count)
        grey_centers.append(pts)
        grey_thresholds.append(np.full(len(pts), c_tilde_of(float(cs))))
    grey_centers = np.concatenate(grey_centers, axis=0)
    grey_thresholds = np.concatenate(grey_thresholds)
    grey_contains = _union_membership(grey_centers, grey_thresholds, Q)

    theta = 2.0 * math.pi * np.arange(SWEEP_RAYS) / SWEEP_RAYS
    dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)

    def outer_boundary(centers: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
        # along ray x = centroid + t d each ellipse is the interval where
        # alpha t^2 + beta t + gamma <= 0; the outer boundary is the largest
        # upper interval endpoint over all member ellipses
        alpha = np.einsum("ri,ij,rj->r", dirs, Q, dirs)
        diff = centroid - centers
        beta = 2.0 * dirs @ (Q @ diff.T)
        gamma = np.einsum("mi,ij,mj->m", diff, Q, diff) - thresholds
        # the (rays, members) arrays are updated in place: they set the peak
        # memory of the whole pipeline
        t_plus = 4.0 * alpha[:, None] * gamma[None, :]
        disc = beta * beta
        disc -= t_plus
        with np.errstate(invalid="ignore"):
            np.sqrt(disc, out=t_plus)
        t_plus -= beta  # -beta + sqrt(disc), exactly
        t_plus /= 2.0 * alpha[:, None]
        t_plus[~(disc >= 0.0)] = -np.inf
        t_outer = np.maximum(np.max(t_plus, axis=1), 0.0)
        # nudge inward so the vertices satisfy the membership test in floats
        return centroid + (t_outer * (1.0 - 1e-9))[:, None] * dirs

    return RegionSweep(
        green=outer_boundary(green_centers, green_thresholds),
        grey=outer_boundary(grey_centers, grey_thresholds),
        c_star_level=float(c_star_level),
        c_tilde_level=c_tilde_of(c_star_level),
        c_star_max=c_max,
        green_contains=green_contains,
        grey_contains=grey_contains,
    )
