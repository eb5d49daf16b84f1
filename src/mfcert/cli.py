"""Command-line front end: analysis, simulation, falsification, reproduction.

Subcommands write JSON reports and plot-ready CSV files into an output
directory.  ``reproduce scenario1|scenario2`` runs the full pipeline and
checks the computed quantities against the frozen reference figures of the
bundled presets; any mismatch flips the exit status to 3.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 reproduction mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Iterable, Iterator
from functools import cached_property
from pathlib import Path

import numpy as np

from . import falsify as falsify_mod
from . import roa as roa_mod
from . import simulate as sim_mod
from . import steady_state as ss_mod
from . import synthesis
from .config import (
    ConfigError,
    PRESET_NAMES,
    ScenarioConfig,
    _as_float,
    load_config,
    parse_config,
    preset,
    read_json,
    reference_rows,
)
from .plant import msd_plant, phi_lipschitz_sup

__all__ = ["main"]


class _Design:
    """One configuration's design, read by every stage: gains, certificate, plant
    and x_d at once; the MFC, SL and SLHG equilibria and certified sets on first use."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.gains = synthesis.design_gains(cfg.poles, cfg.epsilon)
        self.cert = synthesis.certify(self.gains, cfg.vartheta)
        self.plant = msd_plant(cfg.plant, cfg.domain)
        self.x_d = np.array([cfg.y_d, 0.0])

    @cached_property
    def mfc(self) -> ss_mod.EquilibriumSet:
        return ss_mod.mfc_equilibria(self.cfg.plant, self.gains, self.cfg.y_d)

    @cached_property
    def sl(self) -> ss_mod.EquilibriumSet:
        return ss_mod.single_loop_equilibria(self.cfg.plant, self.gains, self.cfg.y_d,
                                             high_gain=False)

    @cached_property
    def slhg(self) -> ss_mod.EquilibriumSet:
        return ss_mod.single_loop_equilibria(self.cfg.plant, self.gains, self.cfg.y_d,
                                             high_gain=True)

    @cached_property
    def estimates(self) -> dict:
        """The MFC1, MFC2, SL and SLHG sets, each on its loop's rest state, the one
        ``simulate.steady_state_of`` gives that loop."""
        cfg, cert, x_d = self.cfg, self.cert, self.x_d
        x_s_mfc = x_d + (self.mfc.selected, 0.0)
        return {
            "MFC1": roa_mod.estimate_mfc1(cfg.plant, cert, x_s_mfc, x_d),
            "MFC2": roa_mod.estimate_mfc2(cfg.plant, cert, x_s_mfc, x_d, cfg.x0_star),
            "SL": roa_mod.estimate_sl(cfg.plant, cert, (self.sl.selected, 0.0), x_d),
            "SLHG": roa_mod.estimate_slhg(cfg.plant, cert, (self.slhg.selected, 0.0), x_d),
        }

    def controller(self, kind: str) -> sim_mod.ControllerSpec:
        x0_star = self.cfg.x0_star if kind == "MFC" else None
        return sim_mod.ControllerSpec(kind, self.gains, sim_mod.SetPoint(self.cfg.y_d), x0_star)


_last_design: _Design | None = None


def _design(cfg: ScenarioConfig) -> _Design:
    """The design of ``cfg``, kept for the last config object (by identity, since
    equal configs may still differ in the sign of a zero)."""
    global _last_design
    if getattr(_last_design, "cfg", None) is not cfg:
        _last_design = _Design(cfg)
    return _last_design


def run_analyze(cfg: ScenarioConfig) -> dict:
    design = _design(cfg)
    gains, cert = design.gains, design.cert
    domain_gamma = phi_lipschitz_sup(cfg.plant, cfg.domain)
    positive, M = synthesis.m_matrix_positive(
        cfg.vartheta, cfg.epsilon, domain_gamma, cert.P
    )
    return {
        "gains": {
            "k_star": list(gains.k_star),
            "k_tilde": list(gains.k_tilde),
            "epsilon": gains.epsilon,
            "D": gains.d_matrix().tolist(),
        },
        "certificate": cert.to_dict(),
        "lyapunov_residual": cert.residual,
        "domain_lipschitz_sup": domain_gamma,
        "domain_gamma_certified": {
            "m_matrix": M.tolist(),
            "positive_definite": positive,
        },
        # raising vartheta pushes gamma_mfc toward the high-gain limit but
        # inflates the model-loop level c_star; surfaced, not optimised
        "vartheta_tradeoff": {
            "gamma_mfc_limit": cert.gamma_slhg,
            "relative_gap": (cert.gamma_slhg - cert.gamma_mfc) / cert.gamma_slhg,
        },
    }


def run_steady_state(cfg: ScenarioConfig) -> tuple[dict, Iterator[dict]]:
    """The equilibria report and the single-loop root sweep's rows.

    The rows are a generator: the sweep is solved when they are read, which
    ``_run_stage`` does once, by the CSV writer, before the stage writes any
    file.  A caller that reads only the report solves no sweep.
    """
    design = _design(cfg)
    k1 = design.gains.k_star[0]
    report = {
        "MFC": design.mfc.to_dict(),
        "SL": design.sl.to_dict(),
        "SLHG": design.slhg.to_dict(),
        "sl_multiplicity_transition_y_d": ss_mod.multiplicity_transition(cfg.plant, k1),
    }

    def rows():
        yield from ss_mod.sl_root_sweep(cfg.plant, k1)

    return report, rows()


def run_roa(cfg: ScenarioConfig) -> tuple[dict, list[tuple[str, np.ndarray]]]:
    """The certified-set report and the polylines of ``roa_boundaries.csv``.

    The polylines are ``(kind, (k, 2) array)`` pairs in the CSV's order: each
    valid set's boundary in MFC1, MFC2, SL, SLHG order, then the MFC2 sweep's
    green and grey regions when MFC2 is valid.  ``_write_boundaries_csv``
    formats their rows; a caller that reads only the report formats none.
    """
    design = _design(cfg)
    estimates = design.estimates
    report = {kind: est.to_dict() for kind, est in estimates.items()}
    polylines = [(kind, est.boundary()) for kind, est in estimates.items() if est.valid]
    est = estimates["MFC2"]
    if est.valid:
        region = roa_mod.mfc2_region_sweep(cfg.plant, design.cert, est)
        report["MFC2_sweep"] = {
            "c_star_level": region.c_star_level,
            "c_tilde_level": region.c_tilde_level,
            "c_star_max": region.c_star_max,
            "green_area": region.green_area,
            "grey_area": region.grey_area,
        }
        polylines += [("MFC2_SWEEP_GREEN", region.green), ("MFC2_SWEEP_GREY", region.grey)]
    return report, polylines


def run_simulate(cfg: ScenarioConfig) -> tuple[dict, dict]:
    design = _design(cfg)
    all_metrics: dict = {}
    trajectories: dict = {}
    for kind in ("SL", "SLHG", "MFC"):
        spec = design.controller(kind)
        try:
            traj = sim_mod.simulate_closed_loop(
                design.plant, spec, cfg.x0, cfg.horizon, cfg.step, vartheta=cfg.vartheta
            )
            entry = {**sim_mod.metrics(traj, traj.metadata["x_s"]), "diverged": False}
        except sim_mod.IntegrationError as err:
            traj = err.trajectory
            entry = {"diverged": True, "fail_time": err.time,
                     "u0": float(traj.u[0]) if len(traj.u) else None}
        entry["x_s"] = list(traj.metadata["x_s"])
        all_metrics[kind] = entry
        trajectories[kind] = traj
    return all_metrics, trajectories


def run_falsify(cfg: ScenarioConfig) -> dict:
    design = _design(cfg)
    estimates = design.estimates
    valid = [kind for kind, est in estimates.items() if est.valid]
    batch = falsify_mod.falsify_sets(
        [estimates[kind] for kind in valid],
        design.plant,
        design.gains,
        count=cfg.falsify_samples,
        horizon=cfg.horizon,
        h=cfg.step,
        seed=cfg.falsify_seed,
    )
    reports = {kind: {"kind": kind, "valid": False, "reason": est.reason}
               for kind, est in estimates.items()}
    for kind, rep in zip(valid, batch):
        reports[kind] = {**rep.to_dict(), "valid": True}
    return reports


def _evaluate_rows(rows: list[dict], computed: dict) -> tuple[list[dict], bool]:
    out = []
    all_pass = True
    for row in rows:
        name = row["name"]
        value = computed.get(name)
        entry = dict(row)
        entry["computed"] = value
        if value is None:
            entry["pass"] = False
        elif row["kind"] == "rel":
            entry["pass"] = abs(value - row["expected"]) <= row["tol"] * abs(row["expected"])
        elif row["kind"] == "abs":
            entry["pass"] = abs(value - row["expected"]) <= row["tol"]
        else:  # max
            entry["pass"] = value < row["tol"]
        all_pass &= entry["pass"]
        out.append(entry)
    return out, all_pass


def _run_stage(cfg: ScenarioConfig, stage: str, out_dir: Path):
    """Run one stage, write its reports into ``out_dir`` and return its result.

    The stage and its writers are looked up by their module names at each call,
    so a wrapped ``run_<stage>`` or writer is the one that runs.  A stage's rows
    are read once, by their writer, and all of them are computed before any
    file of the stage is written: the steady-state rows are a generator, so
    their CSV is written first, and the ROA polylines are drawn by ``run_roa``
    and only formatted into rows by theirs.  A stage that raises therefore
    writes nothing.
    """
    if stage == "analyze":
        result = run_analyze(cfg)
        _write_json(out_dir / "analyze.json", result)
    elif stage == "steady_state":
        result = report, sweep = run_steady_state(cfg)
        _write_sweep_csv(out_dir / "steady_state_sweep.csv", sweep)  # solves the sweep
        _write_json(out_dir / "steady_state.json", report)
    elif stage == "roa":
        result = report, polylines = run_roa(cfg)
        _write_json(out_dir / "roa.json", report)
        _write_boundaries_csv(out_dir / "roa_boundaries.csv", polylines)
    elif stage == "simulate":
        result = metrics, trajectories = run_simulate(cfg)
        _write_json(out_dir / "metrics.json", metrics)
        for kind, traj in trajectories.items():
            traj.to_csv(out_dir / f"traj_{kind}.csv")
    elif stage == "falsify":
        result = run_falsify(cfg)
        _write_json(out_dir / "falsify.json", result)
        _write_violations_csv(out_dir / "falsify_violations.csv", result)
    else:
        raise ValueError(f"unknown stage {stage!r}")
    return result


def run_reproduce(
    cfg: ScenarioConfig,
    scenario: str,
    out_dir: Path,
    samples: int | None = None,
    seed: int | None = None,
    tolerance_rows: list[dict] | None = None,
) -> dict:
    if samples is not None or seed is not None:  # a copy of cfg carries both
        cfg = dataclasses.replace(
            cfg, falsify_samples=cfg.falsify_samples if samples is None else samples,
            falsify_seed=cfg.falsify_seed if seed is None else seed)
    _run_stage(cfg, "analyze", out_dir)
    steady, _ = _run_stage(cfg, "steady_state", out_dir)
    roa_report, _ = _run_stage(cfg, "roa", out_dir)
    metrics, trajectories = _run_stage(cfg, "simulate", out_dir)
    fals = _run_stage(cfg, "falsify", out_dir)

    design = _design(cfg)  # the one the stages above built
    cert, sl, y_d = design.cert, design.sl, cfg.y_d
    computed: dict = {
        "lyapunov_residual": cert.residual,
        "gamma_mfc": cert.gamma_mfc,
        "gamma_sl": cert.gamma_sl,
        "gamma_slhg": cert.gamma_slhg,
        "sl_error_pct": sim_mod._percent_of_set_point(sl.selected - y_d, y_d),
        "mfc_error_pct": sim_mod._percent_of_set_point(design.mfc.selected, y_d),
    }
    if steady["sl_multiplicity_transition_y_d"] is not None:
        computed["multiplicity_transition"] = steady["sl_multiplicity_transition_y_d"]
    computed["sl_root_count"] = float(len(sl.roots))
    computed["sl_root_unstable"] = 1.0 if sl.stability[sl.selected_index] == "unstable" else 0.0

    valid = {kind: est for kind, est in design.estimates.items() if est.valid}
    for kind, name in (("SL", "c_sl"), ("SLHG", "c_slhg")):
        if kind in valid:
            computed[name] = valid[kind].level
    if "MFC2" in valid:
        est = valid["MFC2"]
        computed.update(c_star=est.c_star, c_tilde=est.c_tilde, c_total=est.level)
        if "SLHG" in valid:  # the headline: the high-gain set against the grey region
            Q, level, _ = valid["SLHG"].physical_shape()
            slhg_area = float(np.pi * level / np.sqrt(np.linalg.det(Q)))
            computed["slhg_grey_area_ratio"] = slhg_area / roa_report["MFC2_sweep"]["grey_area"]

    computed["u_slhg_0"] = metrics["SLHG"]["u0"]
    computed["u_mfc_0"] = metrics["MFC"]["u0"]
    computed["mfc_final_output_gap"] = abs(float(trajectories["MFC"].x[-1, 0]) - y_d)

    if scenario == "scenario1":
        spec = design.controller("MFC")
        times = []
        horizon = max(1, round(2.0 / cfg.step)) * cfg.step  # 2 s on the step grid, 1 step or more
        for label, x0 in (("a", (0.1, -8.0)), ("b", (-0.25, 6.0))):
            traj = sim_mod.simulate_closed_loop(
                design.plant, spec, x0, horizon, cfg.step, vartheta=cfg.vartheta
            )
            computed[f"u_mfc_0_perturbed_{label}"] = float(traj.u[0])
            times.append(sim_mod.time_to_track(traj))
        computed["mfc_reconverge_time_s"] = max(
            t if t is not None else float("inf") for t in times
        )

    computed["falsify_violations"] = float(
        sum(len(rep["violations"]) for rep in fals.values() if rep["valid"]))

    rows = tolerance_rows if tolerance_rows is not None else reference_rows(scenario)
    evaluated, all_pass = _evaluate_rows(rows, computed)
    summary = {"scenario": scenario, "rows": evaluated, "passed": all_pass}
    _write_json(out_dir / "summary.json", summary)
    return summary


def _write_json(path: Path, data: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_sweep_csv(path: Path, sweep: Iterable[dict]):
    lines = ["y_d,count,root1,root2,root3"]
    for row in sweep:
        roots = row["roots"]
        cells = [repr(row["y_d"]), str(len(roots))]
        cells += [repr(r) for r in roots] + [""] * (3 - len(roots))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _write_boundaries_csv(path: Path, polylines: Iterable[tuple[str, np.ndarray]]):
    lines = ["kind,x1,x2"]
    for kind, pts in polylines:
        lines += [f"{kind},{x1!r},{x2!r}" for x1, x2 in pts.tolist()]
    path.write_text("\n".join(lines) + "\n")


def _write_violations_csv(path: Path, reports: dict):
    lines = ["kind,x1,x2,mode,time"]
    for kind, rep in reports.items():
        if not rep.get("valid"):
            continue
        for v in rep["violations"]:
            t = "" if v["time"] is None else repr(v["time"])
            lines.append(f"{kind},{v['x0'][0]!r},{v['x0'][1]!r},{v['mode']},{t}")
    path.write_text("\n".join(lines) + "\n")


def _load_tolerance_profile(path: str, scenario: str) -> list[dict]:
    """Reference rows of a scenario with a JSON list of per-row overrides applied.

    An entry whose name matches a reference row updates that row; any other
    entry is a new row.  Every resulting row needs a name, a kind of rel, abs
    or max, a finite nonnegative tol and, for rel and abs, a finite expected
    value, each checked as a configuration's numbers are.
    """
    overrides = read_json(path, "tolerance-profile")
    if not isinstance(overrides, list):
        raise ConfigError("tolerance-profile", "must be a JSON list of rows")
    rows = reference_rows(scenario)
    by_name = {row["name"]: row for row in rows}
    for i, entry in enumerate(overrides):
        where = f"tolerance-profile[{i}]"
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise ConfigError(where, "must be an object with a name")
        row = by_name.get(entry["name"])
        if row is None:
            row = dict(entry)
            rows.append(row)
        else:
            row.update(entry)
        if row.get("kind") not in ("rel", "abs", "max"):
            raise ConfigError(f"{where}.kind", "must be one of rel, abs, max")
        if _as_float(row.get("tol"), f"{where}.tol") < 0:
            raise ConfigError(f"{where}.tol", "must be nonnegative")
        if row["kind"] != "max":
            _as_float(row.get("expected"), f"{where}.expected")
    return rows


def _resolve_config(args) -> ScenarioConfig:
    """The configuration of a run, with the command-line overrides validated in it."""
    scenario = getattr(args, "scenario", None)
    if scenario and args.preset and args.preset != scenario:
        raise ConfigError("preset", f"--preset {args.preset} contradicts reproduce {scenario}")
    if args.config and args.preset:
        raise ConfigError("preset", "give --config or --preset, not both")
    if args.config:
        cfg = load_config(args.config)
    else:
        cfg = preset(scenario or args.preset or "scenario1")
    data = cfg.to_dict()
    updates = {name: getattr(args, name) for name in ("step", "horizon")
               if getattr(args, name) is not None}
    falsify = {name: getattr(args, name) for name in ("samples", "seed")
               if getattr(args, name) is not None}
    if falsify:
        updates["falsify"] = {**data["falsify"], **falsify}
    if updates:
        cfg = parse_config({**data, **updates})
    return cfg


class _Parser(argparse.ArgumentParser):
    """A malformed or unknown flag is a configuration error, not argparse's exit 2."""

    def error(self, message):
        raise ConfigError("command line", message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mfcert",
        description=(
            "Design, certify and falsify model-following and single-loop "
            "controllers for the mass-spring-damper benchmark."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a scenario configuration (JSON)")
    common.add_argument("--preset", choices=PRESET_NAMES, help="bundled scenario preset")
    common.add_argument("--out", default="mfcert_out", help="output directory")
    common.add_argument("--seed", type=int, default=None, help="falsification seed")
    common.add_argument("--step", type=float, default=None, help="integrator step [s]")
    common.add_argument("--horizon", type=float, default=None, help="simulation horizon [s]")
    common.add_argument("--samples", type=int, default=None, help="falsification sample count")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[common], help="gains, P and robustness bounds")
    sub.add_parser("steady-state", parents=[common], help="equilibria and set-point sweep")
    sub.add_parser("roa", parents=[common], help="certified level sets and boundaries")
    sub.add_parser("simulate", parents=[common], help="closed-loop trajectories")
    sub.add_parser("falsify", parents=[common], help="Monte-Carlo certificate checks")
    rep = sub.add_parser("reproduce", parents=[common], help="full benchmark reproduction")
    rep.add_argument("scenario", choices=PRESET_NAMES)
    rep.add_argument("--tolerance-profile", help="JSON overrides for the reference checks")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        out_dir = Path(args.out)
        cfg = _resolve_config(args)
        tolerance_rows = None
        if args.command == "reproduce" and args.tolerance_profile:
            tolerance_rows = _load_tolerance_profile(args.tolerance_profile, args.scenario)
        _write_json(out_dir / "config.json", cfg.to_dict())
        if args.command == "reproduce":
            summary = run_reproduce(cfg, args.scenario, out_dir, tolerance_rows=tolerance_rows)
            for row in summary["rows"]:
                status = "PASS" if row["pass"] else "FAIL"
                expected = row.get("expected", f"< {row['tol']}")
                note = f"  ({row['note']})" if row.get("note") else ""
                print(f"{status:4s} {row['name']:28s} computed={row['computed']!r} "
                      f"expected={expected}{note}")
            print(f"summary: {'all checks passed' if summary['passed'] else 'MISMATCH'}")
            return 0 if summary["passed"] else 3

        _run_stage(cfg, args.command.replace("-", "_"), out_dir)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (sim_mod.IntegrationError, ArithmeticError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other failure still ends in one line, not a traceback
        print(f"unexpected failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
