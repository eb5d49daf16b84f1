"""Scenario configuration: JSON schema, validation and the bundled presets.

A configuration fixes the plant (with uncertainties), the pole locations,
the time scaling, the set-point and the simulation grid; a key that
``ScenarioConfig.to_dict`` does not write, at any level, is an error.  Two
presets ship with the package: ``scenario1`` (set-point 0.75) and
``scenario2`` (set-point 2.0), both starting model and process at the
origin.  The ``reproduce`` command checks computed quantities against the
frozen reference figures of these presets at fixed tolerances.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

from .plant import Box, DEFAULT_DOMAIN, MsdParams, _OPTIONAL_KEYS, _PLANT_KEYS
from .simulate import whole_steps
from .synthesis import real_poly

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "preset",
    "load_config",
    "parse_config",
    "read_json",
    "PRESET_NAMES",
    "FALSIFY_SAMPLES",
    "reference_rows",
]

PRESET_NAMES = ("scenario1", "scenario2")
#: Falsification samples per set when a configuration names none.
FALSIFY_SAMPLES = 500


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(condition: bool, path: str, message: str):
    if not condition:
        raise ConfigError(path, message)


def _as_float(value, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            path, "must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    _expect(math.isfinite(number), path, "must be finite")
    return number


def _as_whole(value, path: str, minimum: int, message: str) -> int:
    """An int taken exactly (a float would round it above 2**53 and overflow beyond
    the float range), or an integral float."""
    if isinstance(value, int) and not isinstance(value, bool):
        _expect(value >= minimum, path, message)
        return value
    number = _as_float(value, path)
    _expect(number == int(number) and number >= minimum, path, message)
    return int(number)


def _as_vector(value, path: str, length: int) -> tuple:
    _expect(isinstance(value, Sequence) and not isinstance(value, str),
            path, f"must be a list of {length} numbers")
    _expect(len(value) == length, path, f"must have {length} entries")
    return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(value))


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated inputs for one end-to-end analysis."""

    plant: MsdParams
    poles: tuple
    epsilon: float
    vartheta: float
    y_d: float
    x0: tuple
    x0_star: tuple
    horizon: float
    step: float
    domain: Box = DEFAULT_DOMAIN
    falsify_samples: int = FALSIFY_SAMPLES
    falsify_seed: int = 0

    def to_dict(self) -> dict:
        return {
            "plant": self.plant.to_dict(),
            "poles": [[r.real, r.imag] if isinstance(r, complex) else r for r in self.poles],
            "epsilon": self.epsilon,
            "vartheta": self.vartheta,
            "y_d": self.y_d,
            "x0": list(self.x0),
            "x0_star": list(self.x0_star),
            "horizon": self.horizon,
            "step": self.step,
            "domain": {"lo": list(self.domain.lo), "hi": list(self.domain.hi)},
            "falsify": {"samples": self.falsify_samples, "seed": self.falsify_seed},
        }


def parse_config(data: Mapping) -> ScenarioConfig:
    """Validate a raw mapping into a ScenarioConfig, naming bad fields."""
    _expect(isinstance(data, Mapping), "config", "must be a JSON object")

    _expect("plant" in data, "plant", "is required")
    _expect(isinstance(data["plant"], Mapping), "plant", "must be an object")
    plant_raw = data["plant"]
    for key in _PLANT_KEYS.values():  # the required keys come first
        _expect(key in plant_raw or key in _OPTIONAL_KEYS, f"plant.{key}", "is required")
        if key in plant_raw:
            _as_float(plant_raw[key], f"plant.{key}")
    try:
        plant = MsdParams.from_dict(plant_raw)
    except ValueError as exc:
        raise ConfigError("plant", str(exc)) from None

    _expect("poles" in data, "poles", "is required")
    raw_poles = data["poles"]
    # the plant is the two-state mass-spring-damper
    _expect(isinstance(raw_poles, Sequence) and len(raw_poles) == 2,
            "poles", "must be a list of exactly 2 poles")
    poles = []
    for i, r in enumerate(raw_poles):
        path = f"poles[{i}]"
        if isinstance(r, Sequence) and not isinstance(r, str):
            _expect(len(r) == 2, path, "complex pole must be a [re, im] pair")
            poles.append(complex(_as_float(r[0], path), _as_float(r[1], path)))
        else:
            poles.append(_as_float(r, path))
    for i, r in enumerate(poles):
        _expect(complex(r).real < 0, f"poles[{i}]", "must have negative real part")
    try:  # the pole placement's own rule
        real_poly(poles)
    except ValueError as exc:
        raise ConfigError("poles", str(exc)) from None

    n = len(poles)
    epsilon = _as_float(data.get("epsilon", 0.1), "epsilon")
    _expect(0.0 < epsilon <= 1.0, "epsilon", "must lie in (0, 1]")
    vartheta = _as_float(data.get("vartheta", 100.0 / epsilon), "vartheta")
    _expect(vartheta > 0, "vartheta", "must be positive")
    y_d = _as_float(data.get("y_d", 0.0), "y_d")
    x0 = _as_vector(data.get("x0", [0.0] * n), "x0", n)
    x0_star = _as_vector(data.get("x0_star", [0.0] * n), "x0_star", n)
    horizon = _as_float(data.get("horizon", 10.0), "horizon")
    _expect(horizon > 0, "horizon", "must be positive")
    step = _as_float(data.get("step", 1e-3), "step")
    _expect(0 < step <= horizon, "step", "must lie in (0, horizon]")
    try:  # the integrators' own step count, which must end at the horizon
        whole_steps(horizon, step)
    except ValueError as exc:
        raise ConfigError("step", str(exc)) from None

    domain = DEFAULT_DOMAIN
    if "domain" in data:
        dom = data["domain"]
        _expect(isinstance(dom, Mapping) and "lo" in dom and "hi" in dom,
                "domain", "must be an object with 'lo' and 'hi'")
        lo = _as_vector(dom["lo"], "domain.lo", n)
        hi = _as_vector(dom["hi"], "domain.hi", n)
        try:
            domain = Box(lo, hi)
        except ValueError as exc:
            raise ConfigError("domain", str(exc)) from None

    falsify_samples = FALSIFY_SAMPLES
    falsify_seed = 0
    if "falsify" in data and data["falsify"] is not None:
        fal = data["falsify"]
        _expect(isinstance(fal, Mapping), "falsify", "must be an object")
        _expect("samples" in fal, "falsify.samples", "is required")
        falsify_samples = _as_whole(fal["samples"], "falsify.samples", 1,
                                    "must be a positive integer")
        _expect(falsify_samples <= sys.maxsize, "falsify.samples",
                f"must be at most {sys.maxsize}, numpy's largest array dimension")
        if "seed" in fal:
            falsify_seed = _as_whole(fal["seed"], "falsify.seed", 0,
                                     "must be a nonnegative integer")

    cfg = ScenarioConfig(
        plant=plant,
        poles=tuple(poles),
        epsilon=epsilon,
        vartheta=vartheta,
        y_d=y_d,
        x0=x0,
        x0_star=x0_star,
        horizon=horizon,
        step=step,
        domain=domain,
        falsify_samples=falsify_samples,
        falsify_seed=falsify_seed,
    )
    _expect_known(data, cfg.to_dict())
    return cfg


def _expect_known(data: Mapping, written: Mapping, prefix: str = ""):
    """Every key of ``data``, nested ones included, is one that ``to_dict`` writes."""
    for key, value in data.items():
        _expect(key in written, f"{prefix}{key}", "is not a configuration key")
        if isinstance(value, Mapping) and isinstance(written[key], Mapping):
            _expect_known(value, written[key], f"{prefix}{key}.")


def read_json(path, field: str):
    """Parsed JSON of a file; an unreadable file or invalid JSON is a ConfigError at ``field``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(field, f"cannot read {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise ConfigError(field, f"invalid JSON: {exc}") from None


def load_config(path) -> ScenarioConfig:
    return parse_config(read_json(path, "config"))


_TABLE_PLANT = {
    "k": 1.5,
    "c_d": 0.3,
    "alpha": 0.5,
    "m": 1.0,
    "g0": 9.81,
    "delta_k": -0.075,
    "delta_c_d": 0.06,
    "delta_alpha": -0.1,
}


def preset(name: str) -> ScenarioConfig:
    """Bundled benchmark scenarios with the shipped plant parameters."""
    if name not in PRESET_NAMES:
        raise ConfigError("preset", f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    y_d = 0.75 if name == "scenario1" else 2.0
    return parse_config(
        {
            "plant": dict(_TABLE_PLANT),
            "poles": [-2.0, -2.0],
            "epsilon": 0.1,
            "vartheta": 1000.0,
            "y_d": y_d,
            "x0": [0.0, 0.0],
            "x0_star": [0.0, 0.0],
            "horizon": 10.0,
            "step": 1e-3,
        }
    )


# Frozen expected figures for the bundled presets, checked by `reproduce`.
# kind: "rel" compares |computed - expected| / |expected| against tol,
#       "abs" compares |computed - expected| against tol,
#       "max" requires computed < tol.
_REFERENCE_COMMON = [
    {"name": "lyapunov_residual", "kind": "max", "tol": 1e-10},
    {"name": "gamma_mfc", "kind": "rel", "expected": 24.9256, "tol": 0.003},
    {"name": "gamma_sl", "kind": "rel", "expected": 2.4988, "tol": 0.001},
    {"name": "gamma_slhg", "kind": "rel", "expected": 24.9878, "tol": 0.001},
]

_REFERENCE_SCENARIO1 = _REFERENCE_COMMON + [
    {"name": "c_sl", "kind": "rel", "expected": 0.75, "tol": 0.02},
    {"name": "c_slhg", "kind": "rel", "expected": 14.74, "tol": 0.01},
    {"name": "c_star", "kind": "rel", "expected": 632.813, "tol": 0.001},
    {"name": "c_tilde", "kind": "rel", "expected": 9.2, "tol": 0.02},
    {"name": "c_total", "kind": "rel", "expected": 642.045, "tol": 0.01},
    {"name": "sl_error_pct", "kind": "abs", "expected": 4.3, "tol": 0.3},
    {"name": "mfc_error_pct", "kind": "max", "tol": 0.1},
    {"name": "multiplicity_transition", "kind": "abs", "expected": 1.95, "tol": 0.05},
    {"name": "u_slhg_0", "kind": "rel", "expected": 310.0, "tol": 0.02},
    {"name": "u_mfc_0", "kind": "abs", "expected": 13.0, "tol": 1.0},
    {"name": "u_mfc_0_perturbed_a", "kind": "rel", "expected": 290.0, "tol": 0.02},
    # The one-line control law gives about -125.8 here while the reference
    # figure rounds to -127; the ~1% gap is documented, not forced.
    {"name": "u_mfc_0_perturbed_b", "kind": "rel", "expected": -125.8, "tol": 0.02,
     "note": "reference figure -127; computed value differs by about 1%"},
    {"name": "mfc_final_output_gap", "kind": "max", "tol": 7.5e-4},
    {"name": "mfc_reconverge_time_s", "kind": "max", "tol": 0.5},
    {"name": "falsify_violations", "kind": "max", "tol": 0.5},
    # the headline: the SLHG set against the region that choosing the model start certifies
    {"name": "slhg_grey_area_ratio", "kind": "rel", "expected": 0.09982, "tol": 0.01},
]

_REFERENCE_SCENARIO2 = _REFERENCE_COMMON + [
    {"name": "c_star", "kind": "rel", "expected": 4500.0, "tol": 0.001},
    {"name": "u_slhg_0", "kind": "rel", "expected": 810.0, "tol": 0.02},
    {"name": "sl_root_count", "kind": "abs", "expected": 1.0, "tol": 0.0},
    {"name": "sl_root_unstable", "kind": "abs", "expected": 1.0, "tol": 0.0},
    # "negligible" steady-state error for the high-gain loops; no figure given.
    {"name": "mfc_error_pct", "kind": "max", "tol": 0.2},
    {"name": "falsify_violations", "kind": "max", "tol": 0.5},
    {"name": "slhg_grey_area_ratio", "kind": "rel", "expected": 0.09989, "tol": 0.01},
]


def reference_rows(scenario: str) -> list[dict]:
    if scenario == "scenario1":
        return [dict(row) for row in _REFERENCE_SCENARIO1]
    if scenario == "scenario2":
        return [dict(row) for row in _REFERENCE_SCENARIO2]
    raise ConfigError("preset", f"unknown preset {scenario!r}")
