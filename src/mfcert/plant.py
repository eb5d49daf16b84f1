"""Brunovsky-chain system class and the mass-spring-damper benchmark plant.

The system class is an integrator chain whose last channel carries the known
drift ``f``, the input gain ``g`` and a matched uncertainty ``phi``:

    x' = A x + b (f(x) + g(x) u + phi(x)),    y = x_1.

State arguments are sequences of components (``x[0]`` is the position-like
flat output).  Every evaluation helper accepts plain floats or numpy arrays
for the components, so the same expressions serve single evaluations and
vectorised batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "BrunovskyDims",
    "Box",
    "DEFAULT_DOMAIN",
    "MsdParams",
    "PlantModel",
    "MsdPlant",
    "msd_f",
    "msd_g",
    "msd_phi",
    "msd_phi_gradient",
    "sigma1",
    "sigma1_bar",
    "phi_lipschitz_sup",
    "msd_plant",
]


@dataclass(frozen=True)
class BrunovskyDims:
    """State dimension of an integrator chain; the output has relative degree n."""

    n: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"state dimension must be a positive integer, got {self.n}")

    def a_matrix(self) -> np.ndarray:
        """n x n matrix with ones on the first superdiagonal."""
        return np.diag(np.ones(self.n - 1), k=1)

    def b_vector(self) -> np.ndarray:
        b = np.zeros(self.n)
        b[-1] = 1.0
        return b

    def c_vector(self) -> np.ndarray:
        c = np.zeros(self.n)
        c[0] = 1.0
        return c


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in state space, given by per-axis lower/upper bounds."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise ValueError("box needs matching, non-empty lower and upper bounds")
        for axis, (a, b) in enumerate(zip(lo, hi)):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"box bound on axis {axis} is not finite")
            if a > b:
                raise ValueError(f"inverted box on axis {axis}: [{a}, {b}]")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def is_point(self) -> bool:
        return all(a == b for a, b in zip(self.lo, self.hi))

    def contains(self, x: Sequence) -> bool:
        return all(a <= float(v) <= b for v, a, b in zip(x, self.lo, self.hi))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Uniform samples, shape (count, dim)."""
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return lo + (hi - lo) * rng.random((count, self.dim))


#: Default analysis domain; covers every state visited by the shipped scenarios.
DEFAULT_DOMAIN = Box((-5.0, -10.0), (5.0, 10.0))


@dataclass(frozen=True)
class MsdParams:
    """Physical and uncertainty parameters of the mass-spring-damper plant.

    The nominal plant is a mass ``m`` on a hardening spring (stiffness ``k``,
    hardening factor ``alpha``) with linear damping ``c_d`` under gravity
    ``g0``.  ``dk``, ``dc_d`` and ``dalpha`` are the (signed) deviations of
    the true spring, damping and hardening coefficients from the nominal
    values; they generate the matched uncertainty ``phi``.
    """

    k: float
    c_d: float
    alpha: float
    m: float
    g0: float
    dk: float = 0.0
    dc_d: float = 0.0
    dalpha: float = 0.0

    def __post_init__(self):
        for name in ("m", "k", "c_d", "alpha"):
            if getattr(self, name) <= 0:
                raise ValueError(f"MsdParams.{name} must be positive")

    @cached_property
    def _coef(self) -> tuple:
        """Precomputed coefficients of ``msd_f`` (three) and ``msd_phi`` (four)."""
        km = self.k / self.m
        return (
            -km * self.alpha * self.alpha, -km, -self.c_d / self.m,
            -(self.dk / self.m) * (self.alpha + self.dalpha) ** 2,
            km * self.dalpha * (2.0 * self.alpha + self.dalpha),
            self.dk / self.m, self.dc_d / self.m,
        )

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "c_d": self.c_d,
            "alpha": self.alpha,
            "m": self.m,
            "g0": self.g0,
            "delta_k": self.dk,
            "delta_c_d": self.dc_d,
            "delta_alpha": self.dalpha,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MsdParams":
        return cls(
            k=float(data["k"]),
            c_d=float(data["c_d"]),
            alpha=float(data["alpha"]),
            m=float(data["m"]),
            g0=float(data["g0"]),
            dk=float(data.get("delta_k", 0.0)),
            dc_d=float(data.get("delta_c_d", 0.0)),
            dalpha=float(data.get("delta_alpha", 0.0)),
        )


def msd_f(p: MsdParams, x: Sequence):
    """Nominal drift -k/m (1 + alpha^2 x1^2) x1 - c_d/m x2 - g0, in Horner form."""
    x1 = x[0]
    c3, c1, c2 = p._coef[:3]
    return (c3 * (x1 * x1) + c1) * x1 + c2 * x[1] - p.g0


def msd_g(p: MsdParams, x: Sequence | None = None):
    """Input gain 1/m; constant, hence globally nonzero."""
    return 1.0 / p.m


def msd_phi(p: MsdParams, x: Sequence):
    """Matched uncertainty induced by the parameter deviations.

    phi(x) = -dk/m (alpha+dalpha)^2 x1^3 - k/m dalpha (2 alpha+dalpha) x1^3
             - dk/m x1 - dc_d/m x2

    Summed term by term as written, so that ``gamma_empirical``'s difference
    quotients, which amplify rounding, are reproducible to the last bit.
    """
    x1 = x[0]
    x1c = x1 * x1 * x1
    a3, b3, c1, c2 = p._coef[3:]
    return a3 * x1c - b3 * x1c - c1 * x1 - c2 * x[1]


def sigma1(p: MsdParams) -> float:
    """Combined cubic coefficient dk (alpha+dalpha)^2 + k dalpha (2 alpha+dalpha)."""
    return p.dk * (p.alpha + p.dalpha) ** 2 + p.k * p.dalpha * (2.0 * p.alpha + p.dalpha)


def sigma1_bar(p: MsdParams) -> float:
    """Absolute-value majorant of sigma1; always >= |sigma1|."""
    return abs(p.dk) * (p.alpha + abs(p.dalpha)) ** 2 + p.k * abs(p.dalpha) * (
        2.0 * p.alpha + abs(p.dalpha)
    )


def msd_phi_gradient(p: MsdParams, x: Sequence):
    """Gradient of phi, (-(3 sigma1 x1^2 + dk)/m, -dc_d/m)."""
    x1 = x[0]
    d1 = -(3.0 * sigma1(p) * x1 * x1 + p.dk) / p.m
    d2 = -p.dc_d / p.m
    return d1, d2


def phi_lipschitz_sup(p: MsdParams, region: Box) -> float:
    """Tight Lipschitz constant of phi on an axis-aligned box.

    Equals the supremum of the gradient norm
    sqrt((3 sigma1 x1^2 + dk)^2 + dc_d^2) / m over the region.  The gradient
    depends on the state only through x1^2, so the supremum is attained at an
    x1 endpoint of the box (or at x1 = 0 when the box straddles it).  By the
    mean value theorem this bounds every difference quotient of phi on the
    region.
    """
    if region.dim < 1:
        raise ValueError("region must have at least the x1 axis")
    s1 = sigma1(p)
    lo, hi = region.lo[0], region.hi[0]
    candidates = [lo * lo, hi * hi]
    if lo <= 0.0 <= hi:
        candidates.append(0.0)
    peak = max(abs(3.0 * s1 * t + p.dk) for t in candidates)
    return math.sqrt(peak * peak + p.dc_d * p.dc_d) / p.m


@dataclass(frozen=True)
class PlantModel:
    """Brunovsky-chain plant with drift, input gain and matched uncertainty.

    ``f``, ``g`` and ``phi`` map a component sequence to a scalar (or an
    array of the components' broadcast shape).  ``g`` must be nonzero on
    ``domain``; ``phi`` must be Lipschitz there.  Instances are immutable and
    all evaluations are pure, so plants are safe to share across workers.
    """

    dims: BrunovskyDims
    f: Callable
    g: Callable
    phi: Callable
    domain: Box


@dataclass(frozen=True)
class MsdPlant(PlantModel):
    """Mass-spring-damper plant; keeps its parameter set for analytic bounds."""

    params: MsdParams = None

    def lipschitz_sup(self, region: Box | None = None) -> float:
        return phi_lipschitz_sup(self.params, region if region is not None else self.domain)


def msd_plant(params: MsdParams, domain: Box = DEFAULT_DOMAIN) -> MsdPlant:
    """Concrete mass-spring-damper plant over the given analysis box."""
    return MsdPlant(
        dims=BrunovskyDims(2),
        f=lambda x: msd_f(params, x),
        g=lambda x: msd_g(params, x),
        phi=lambda x: msd_phi(params, x),
        domain=domain,
        params=params,
    )
