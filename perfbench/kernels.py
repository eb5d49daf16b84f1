"""Microbenchmarks of the closed-loop kernels that ``falsify`` and ``simulate`` run.

The MFC loop of ``scenario1`` is built with ``simulate.build_closed_loop``.
At N = 1 the state components are Python floats, as in a single run of
``simulate_closed_loop``; at larger N they are arrays, as in the batch that
``falsify_roa`` integrates.  Each figure is the median over several timed
batches of the time of one call.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from mfcert import config, plant, simulate, synthesis

BATCH_SIZES = (1, 500, 2000)
LYAPUNOV_BATCH = 500
STEP = 1e-3
#: Shortest timed batch; shorter batches are dominated by timer resolution.
MIN_BATCH_S = 0.01
REPEATS = 7


def _per_call_us(fn) -> float:
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= MIN_BATCH_S:
            break
        reps *= 2
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return 1e6 * statistics.median(samples)


def _mfc_loop():
    cfg = config.preset("scenario1")
    gains = synthesis.design_gains(cfg.poles, cfg.epsilon)
    spec = simulate.ControllerSpec(kind="MFC", gains=gains,
                                   reference=simulate.SetPoint(cfg.y_d))
    model = plant.msd_plant(cfg.plant, cfg.domain)
    loop = simulate.build_closed_loop(model, spec, cfg.vartheta)
    x_s = simulate.steady_state_of(model, spec, cfg.vartheta)
    return loop, synthesis.certify(gains, cfg.vartheta).P, x_s


def _states(loop, x_s, count: int, seed: int):
    """Model states at the reference and process states scattered around x_s."""
    d = loop.dref(0.0)
    if count == 1:
        return tuple(float(v) for v in d[:loop.n]) + tuple(
            float(v) + 0.1 for v in x_s)
    rng = np.random.Generator(np.random.PCG64(seed))
    star = tuple(np.full(count, float(v)) for v in d[:loop.n])
    proc = tuple(float(v) + rng.uniform(-0.5, 0.5, count) for v in x_s)
    return star + proc


def kernel_metrics(seed: int) -> dict:
    """Kernel timings as {name: (value, unit)}."""
    loop, P, x_s = _mfc_loop()
    m = {}
    for n in BATCH_SIZES:
        y = _states(loop, x_s, n, seed)
        m[f"simulate.rhs_us.n{n}"] = (_per_call_us(lambda: loop.rhs(0.0, y)), "us")
        m[f"simulate.rk4_step_us.n{n}"] = (_per_call_us(
            lambda: simulate._rk4_components(loop.rhs, 0.0, y, STEP)), "us")
    v_of = loop.make_v(P, tuple(float(v) for v in x_s))
    y = _states(loop, x_s, LYAPUNOV_BATCH, seed)
    m[f"simulate.lyapunov_value_us.n{LYAPUNOV_BATCH}"] = (
        _per_call_us(lambda: v_of(0.0, y)), "us")
    return m
