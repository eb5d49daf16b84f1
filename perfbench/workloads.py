"""The three benchmark workloads, each a closed loop with one client.

A workload turns a seed into a fixed list of operations and runs them one
after another: the next operation starts when the previous one ends.  One
pass over the list yields the time and outcome of every operation, the work
done, and the verdict records that go into the workload's digest.  Output
checks run outside the timed region of each operation.

The package is always called through its module attributes
(``cli.run_roa``, ``simulate.simulate_closed_loop``, ...), so the wrappers the
tracer installs on those attributes see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mfcert import cli, config, falsify, plant, roa, simulate, steady_state, synthesis

#: Largest distance between a trajectory's endpoint and the closed-form
#: equilibrium.  The SLHG and MFC error loops have a double pole at
#: -2 / epsilon = -20, so after 2 s the transient has decayed below rounding;
#: measured endpoints sit about 1e-13 away.
ENDPOINT_TOL = 1e-9

#: Largest admissible residual of the Lyapunov equation, as ``certify`` uses.
RESIDUAL_TOL = 1e-10


@dataclass
class Op:
    """Outcome of one operation: its time and the failed checks, if any."""

    name: str
    seconds: float
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class Pass:
    """One pass over a workload's operations."""

    ops: list
    wall_s: float
    work: float
    verdict: list

    def digest(self) -> str:
        blob = json.dumps(self.verdict, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _timed(name: str, fn):
    """Run ``fn`` as one operation; an exception is a failed operation."""
    t0 = time.perf_counter()
    try:
        result = fn()
        error = None
    except Exception as exc:  # an operation that raises counts as failed
        result = None
        error = f"{type(exc).__name__}: {exc}"
    op = Op(name, time.perf_counter() - t0)
    if error is not None:
        op.failures.append(error)
    return op, result


class Reproduce:
    """``cli.run_reproduce`` for both presets with the falsify seed given."""

    name = "reproduce"
    work_unit = "falsified sample-steps/s"

    def __init__(self, scenarios=config.PRESET_NAMES, samples: int | None = None):
        self.scenarios = tuple(scenarios)
        self.samples = samples

    def params(self, seed: int) -> dict:
        return {"scenarios": list(self.scenarios), "falsify_seed": seed,
                "samples": self.samples if self.samples is not None else "preset"}

    def make_inputs(self, seed: int):
        return int(seed)

    def run_pass(self, seed: int, work_dir: Path) -> Pass:
        ops, verdict, work = [], [], 0.0
        t0 = time.perf_counter()
        for scenario in self.scenarios:
            out_dir = work_dir / scenario

            def op_fn():
                cfg = config.preset(scenario)
                return cli.run_reproduce(cfg, scenario, out_dir,
                                         samples=self.samples, seed=seed)

            op, summary = _timed(scenario, op_fn)
            ops.append(op)
            if summary is None:
                verdict.append({"scenario": scenario, "error": True})
                continue
            for row in summary["rows"]:
                if not row["pass"]:
                    op.failures.append(f"row {row['name']} FAIL "
                                       f"(computed {row['computed']!r})")
            fals = json.loads((out_dir / "falsify.json").read_text())
            sets = {}
            for kind, rep in sorted(fals.items()):
                if not rep["valid"]:
                    sets[kind] = {"valid": False, "reason": rep["reason"]}
                    continue
                if rep["violations"]:
                    op.failures.append(f"falsify {kind}: "
                                       f"{len(rep['violations'])} violations")
                work += rep["samples"] * round(rep["horizon"] / rep["h"])
                sets[kind] = {"valid": True, "samples": rep["samples"],
                              "converged": rep["converged"],
                              "violations": rep["violations"]}
            verdict.append({"scenario": scenario,
                            "rows": {r["name"]: r["pass"] for r in summary["rows"]},
                            "falsify": sets})
        return Pass(ops, time.perf_counter() - t0, work, verdict)


class Trajectories:
    """Single closed-loop runs from states sampled in each preset's SLHG set.

    Every run is ``simulate_closed_loop`` followed by ``steady_state_of``,
    ``metrics`` and ``Trajectory.to_csv``.  The two-loop runs start the model
    at the reference state, so their endpoint is the process equilibrium that
    ``mfc_equilibria`` gives in closed form.
    """

    name = "trajectories"
    work_unit = "RK4 steps/s"
    kinds = ("SL", "SLHG", "MFC", "FFLIN")
    horizon = 2.0
    step = 1e-3

    def __init__(self, states: int = 15):
        self.states = states

    def params(self, seed: int) -> dict:
        return {"presets": list(config.PRESET_NAMES), "controllers": list(self.kinds),
                "states_per_preset": self.states, "horizon_s": self.horizon,
                "step_s": self.step, "sample_seed": seed}

    def make_inputs(self, seed: int) -> list:
        cases = []
        for scenario in config.PRESET_NAMES:
            cfg = config.preset(scenario)
            gains = synthesis.design_gains(cfg.poles, cfg.epsilon)
            cert = synthesis.certify(gains, cfg.vartheta)
            x_d = np.zeros(len(cfg.poles))
            x_d[0] = cfg.y_d
            mfc = steady_state.mfc_equilibria(cfg.plant, gains, cfg.y_d)
            slhg = steady_state.single_loop_equilibria(cfg.plant, gains, cfg.y_d,
                                                       high_gain=True)
            x_s_mfc = x_d.copy()
            x_s_mfc[0] += mfc.selected
            # the same SLHG set the CLI falsifies (centred on the MFC equilibrium)
            est = roa.estimate_slhg(cfg.plant, cert, x_s_mfc, x_d)
            x0s, _ = falsify.sample_in_set(est, self.states, seed)
            model = plant.msd_plant(cfg.plant, cfg.domain)
            expected = {"MFC": x_s_mfc, "SLHG": np.array([slhg.selected, 0.0])}
            for kind in self.kinds:
                for i, x0 in enumerate(x0s):
                    cases.append({"scenario": scenario, "cfg": cfg, "gains": gains,
                                  "plant": model,
                                  "kind": kind, "index": i,
                                  "x0": tuple(float(v) for v in x0),
                                  "expected": expected.get(kind)})
        return cases

    def run_pass(self, cases: list, work_dir: Path) -> Pass:
        ops, verdict, work = [], [], 0.0
        t0 = time.perf_counter()
        for case in cases:
            cfg = case["cfg"]
            label = f"{case['scenario']}/{case['kind']}/{case['index']}"
            csv_path = work_dir / f"traj_{case['kind']}.csv"

            def op_fn():
                spec = simulate.ControllerSpec(kind=case["kind"], gains=case["gains"],
                                               reference=simulate.SetPoint(cfg.y_d))
                traj = simulate.simulate_closed_loop(case["plant"], spec, case["x0"],
                                                     self.horizon, self.step,
                                                     vartheta=cfg.vartheta)
                x_s = simulate.steady_state_of(case["plant"], spec, cfg.vartheta)
                m = simulate.metrics(traj, x_s)
                traj.to_csv(csv_path)
                return traj, m

            op, result = _timed(label, op_fn)
            ops.append(op)
            if result is None:
                verdict.append({"case": label, "error": True})
                continue
            traj, m = result
            work += len(traj.t) - 1
            finite = all(bool(np.all(np.isfinite(a)))
                         for a in (traj.x, traj.x_star, traj.u, traj.V))
            if not finite:
                op.failures.append("non-finite state")
            gap = None
            if case["expected"] is not None:
                gap = float(np.max(np.abs(traj.x[-1] - case["expected"])))
                if not gap <= ENDPOINT_TOL:
                    op.failures.append(f"endpoint {gap:.3e} from the equilibrium")
            verdict.append({"case": label, "rows": len(traj.t), "finite": finite,
                            "endpoint_ok": None if gap is None else gap <= ENDPOINT_TOL,
                            "settle_time": m["settle_time"]})
        return Pass(ops, time.perf_counter() - t0, work, verdict)


class DesignSweep:
    """Seeded designs around ``scenario1``: analyze, steady state and ROA.

    Set-points and pole locations are stratified over their ranges and the
    nine (epsilon, vartheta) pairs are cycled, so every seed yields the same
    mix of designs with different values.  Invalid estimates are data.
    """

    name = "design-sweep"
    work_unit = "designs/s"
    epsilons = (0.05, 0.1, 0.2)
    varthetas = (1e2, 1e3, 1e4)
    y_d_range = (0.1, 2.5)
    pole_range = (-3.0, -1.0)

    def __init__(self, designs: int = 200):
        self.designs = designs

    def params(self, seed: int) -> dict:
        return {"base": "scenario1", "designs": self.designs,
                "y_d": list(self.y_d_range), "epsilon": list(self.epsilons),
                "vartheta": list(self.varthetas), "double_pole": list(self.pole_range),
                "design_seed": seed}

    def make_inputs(self, seed: int) -> list:
        rng = np.random.Generator(np.random.PCG64(seed))
        n = self.designs

        def stratified(lo, hi):
            return lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n

        y_ds = stratified(*self.y_d_range)
        poles = stratified(*self.pole_range)
        base = config.preset("scenario1").to_dict()
        raws = []
        for i in range(n):
            pair = i % (len(self.epsilons) * len(self.varthetas))
            raw = json.loads(json.dumps(base))
            raw.update(y_d=float(y_ds[i]), poles=[float(poles[i])] * 2,
                       epsilon=self.epsilons[pair // len(self.varthetas)],
                       vartheta=self.varthetas[pair % len(self.varthetas)])
            raws.append(raw)
        return raws

    def run_pass(self, raws: list, work_dir: Path) -> Pass:
        ops, verdict = [], []
        t0 = time.perf_counter()
        for i, raw in enumerate(raws):

            def op_fn():
                cfg = config.parse_config(raw)
                analysis = cli.run_analyze(cfg)
                steady, _ = cli.run_steady_state(cfg)
                report, _ = cli.run_roa(cfg)
                return analysis, steady, report

            op, result = _timed(f"design{i}", op_fn)
            ops.append(op)
            if result is None:
                verdict.append({"design": i, "error": True})
                continue
            analysis, steady, report = result
            residual = analysis["lyapunov_residual"]
            if not residual <= RESIDUAL_TOL:
                op.failures.append(f"Lyapunov residual {residual:.3e}")
            levels = {}
            for kind in ("MFC1", "MFC2", "SL", "SLHG"):
                est = report[kind]
                if est["valid"]:
                    if not (math.isfinite(est["level"]) and est["level"] > 0):
                        op.failures.append(f"{kind} level {est['level']!r}")
                    levels[kind] = "valid"
                else:
                    levels[kind] = est["reason"]
            verdict.append({"design": i, "estimates": levels,
                            "sl_roots": len(steady["SL"]["roots"]),
                            "swept": "MFC2_sweep" in report})
        return Pass(ops, time.perf_counter() - t0, float(len(raws)), verdict)


WORKLOADS = {w.name: w for w in (Reproduce(), Trajectories(), DesignSweep())}
