"""Brunovsky-chain system class and the mass-spring-damper benchmark plant.

The system class is an integrator chain whose last channel carries the known
drift ``f``, the input gain ``g`` and a matched uncertainty ``phi``:

    x' = A x + b (f(x) + g(x) u + phi(x)),    y = x_1.

State arguments are sequences of components (``x[0]`` is the position-like
flat output).  Every evaluation helper accepts plain numbers or float arrays
for the components, so the same expressions serve single evaluations and
vectorised batches.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "Box",
    "DEFAULT_DOMAIN",
    "MsdParams",
    "MsdPlant",
    "msd_f",
    "msd_f_of",
    "msd_g",
    "msd_phi",
    "msd_phi_of",
    "msd_phi_gradient",
    "sigma1",
    "sigma1_bar",
    "phi_lipschitz_sup",
    "msd_plant",
]


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

    def to_dict(self) -> dict:
        return {key: getattr(self, name) for name, key in _PLANT_KEYS.items()}

    @classmethod
    def from_dict(cls, data: Mapping) -> "MsdParams":
        """Parameters from their JSON keys; a missing optional key takes its field's default."""
        return cls(**{name: float(data[key]) for name, key in _PLANT_KEYS.items()
                      if key in data or key not in _OPTIONAL_KEYS})


#: Each ``MsdParams`` field's JSON key, the one spelling of the plant's schema.
_PLANT_KEYS = {"k": "k", "c_d": "c_d", "alpha": "alpha", "m": "m", "g0": "g0",
               "dk": "delta_k", "dc_d": "delta_c_d", "dalpha": "delta_alpha"}
#: The JSON keys a plant may leave out: those of the fields with a default.
_OPTIONAL_KEYS = frozenset(_PLANT_KEYS[f.name] for f in fields(MsdParams)
                           if f.default is not MISSING)


def msd_f_of(p: MsdParams) -> Callable:
    """``msd_f`` with its coefficients bound, as a function of (x1, x2).

    Evaluated as (c3 x1^2 + c1) x1 + c2 x2 - g0 in one expression: the
    integrator calls it on floats only, and the recorded inputs once per run.
    """
    km = p.k / p.m
    c3, c1, c2, g0 = -km * p.alpha * p.alpha, -km, -p.c_d / p.m, p.g0

    def f(x1, x2):
        return (x1 * x1 * c3 + c1) * x1 + x2 * c2 - g0

    return f


def msd_f(p: MsdParams, x: Sequence):
    """Nominal drift -k/m (1 + alpha^2 x1^2) x1 - c_d/m x2 - g0, in Horner form."""
    return msd_f_of(p)(x[0], x[1])


def msd_g(p: MsdParams) -> float:
    """Input gain 1/m; constant, hence globally nonzero."""
    return 1.0 / p.m


def msd_phi_of(p: MsdParams) -> Callable:
    """``msd_phi`` with its coefficients bound, as a function of (x1, x2).

    Summed term by term as written, so ``gamma_empirical``'s difference
    quotients, which amplify rounding, keep their bits; inputs are not written.
    """
    km = p.k / p.m
    a3 = -(p.dk / p.m) * (p.alpha + p.dalpha) ** 2
    b3 = km * p.dalpha * (2.0 * p.alpha + p.dalpha)
    c1, c2 = p.dk / p.m, p.dc_d / p.m

    def phi(x1, x2):
        x1c = x1 * x1
        x1c *= x1
        acc = x1c * a3
        x1c *= b3
        acc -= x1c
        term = x1 * c1
        acc -= term
        term = x2 * c2
        acc -= term
        return acc

    return phi


def msd_phi(p: MsdParams, x: Sequence):
    """Matched uncertainty induced by the parameter deviations.

    phi(x) = -dk/m (alpha+dalpha)^2 x1^3 - k/m dalpha (2 alpha+dalpha) x1^3
             - dk/m x1 - dc_d/m x2
    """
    return msd_phi_of(p)(x[0], x[1])


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
class MsdPlant:
    """Mass-spring-damper plant over an analysis box.

    The closed-loop kernels and the bounds read ``params`` directly.
    """

    params: MsdParams
    domain: Box = DEFAULT_DOMAIN


def msd_plant(params: MsdParams, domain: Box = DEFAULT_DOMAIN) -> MsdPlant:
    """Concrete mass-spring-damper plant over the given analysis box."""
    return MsdPlant(params, domain)
