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
import json
import sys
from pathlib import Path

import numpy as np

from . import falsify as falsify_mod
from . import roa as roa_mod
from . import simulate as sim_mod
from . import steady_state as ss_mod
from . import synthesis
from .config import (
    FALSIFY_SAMPLES,
    ConfigError,
    PRESET_NAMES,
    ScenarioConfig,
    load_config,
    parse_config,
    preset,
    read_json,
    reference_rows,
)
from .plant import msd_plant, phi_lipschitz_sup

__all__ = ["main"]


def _design(cfg: ScenarioConfig):
    gains = synthesis.design_gains(cfg.poles, cfg.epsilon)
    cert = synthesis.certify(gains, cfg.vartheta)
    return gains, cert


def _x_d(cfg: ScenarioConfig) -> np.ndarray:
    x_d = np.zeros(len(cfg.poles))
    x_d[0] = cfg.y_d
    return x_d


def run_analyze(cfg: ScenarioConfig) -> dict:
    gains, cert = _design(cfg)
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


def run_steady_state(cfg: ScenarioConfig) -> tuple[dict, list[dict]]:
    gains, _ = _design(cfg)
    mfc = ss_mod.mfc_equilibria(cfg.plant, gains, cfg.y_d)
    sl = ss_mod.single_loop_equilibria(cfg.plant, gains, cfg.y_d, high_gain=False)
    slhg = ss_mod.single_loop_equilibria(cfg.plant, gains, cfg.y_d, high_gain=True)
    transition = ss_mod.multiplicity_transition(cfg.plant, gains.k_star[0])
    report = {
        "MFC": mfc.to_dict(),
        "SL": sl.to_dict(),
        "SLHG": slhg.to_dict(),
        "sl_multiplicity_transition_y_d": transition,
    }
    return report, ss_mod.sl_root_sweep(cfg.plant, gains.k_star[0])


def _estimates(cfg: ScenarioConfig, gains, cert) -> dict:
    x_d = _x_d(cfg)
    plant = msd_plant(cfg.plant, cfg.domain)
    x_s_mfc, x_s_sl = (
        sim_mod.steady_state_of(plant, _controller_spec(cfg, gains, kind), cfg.vartheta)
        for kind in ("MFC", "SL")
    )
    builders = {
        "MFC1": lambda: roa_mod.estimate_mfc1(cfg.plant, cert, x_s_mfc, x_d),
        "MFC2": lambda: roa_mod.estimate_mfc2(cfg.plant, cert, x_s_mfc, x_d, cfg.x0_star),
        "SL": lambda: roa_mod.estimate_sl(cfg.plant, cert, x_s_sl, x_d),
        "SLHG": lambda: roa_mod.estimate_slhg(cfg.plant, cert, x_s_mfc, x_d),
    }
    return {kind: builders[kind]() for kind in cfg.roa_kinds}


def run_roa(cfg: ScenarioConfig, sweep: bool = True) -> tuple[dict, list[tuple]]:
    gains, cert = _design(cfg)
    estimates = _estimates(cfg, gains, cert)
    report = {kind: est.to_dict() for kind, est in estimates.items()}
    boundaries: list[tuple] = []
    for kind, est in estimates.items():
        if est.valid:
            for pt in est.boundary():
                boundaries.append((kind, float(pt[0]), float(pt[1])))
    if sweep and "MFC2" in estimates and estimates["MFC2"].valid:
        est = estimates["MFC2"]
        region = roa_mod.mfc2_region_sweep(cfg.plant, cert, est.x_s, est.c_star)
        report["MFC2_sweep"] = {
            "c_star_level": region.c_star_level,
            "c_tilde_level": region.c_tilde_level,
            "c_star_max": region.c_star_max,
            "green_area": roa_mod.polygon_area(region.green),
            "grey_area": roa_mod.polygon_area(region.grey),
        }
        for pt in region.green:
            boundaries.append(("MFC2_SWEEP_GREEN", float(pt[0]), float(pt[1])))
        for pt in region.grey:
            boundaries.append(("MFC2_SWEEP_GREY", float(pt[0]), float(pt[1])))
    return report, boundaries


def _controller_spec(cfg: ScenarioConfig, gains, kind: str) -> sim_mod.ControllerSpec:
    return sim_mod.ControllerSpec(
        kind=kind,
        gains=gains,
        reference=sim_mod.SetPoint(cfg.y_d),
        model_initial=cfg.x0_star if kind == "MFC" else None,
    )


def run_simulate(
    cfg: ScenarioConfig, out_dir: Path | None = None
) -> tuple[dict, dict]:
    gains, _ = _design(cfg)
    plant = msd_plant(cfg.plant, cfg.domain)
    all_metrics: dict = {}
    trajectories: dict = {}
    for kind in cfg.controllers:
        spec = _controller_spec(cfg, gains, kind)
        try:
            traj = sim_mod.simulate_closed_loop(
                plant, spec, cfg.x0, cfg.horizon, cfg.step, vartheta=cfg.vartheta
            )
            x_s = traj.metadata["x_s"]
            entry = sim_mod.metrics(traj, x_s)
            entry["diverged"] = False
        except sim_mod.IntegrationError as err:
            traj = err.trajectory
            x_s = traj.metadata["x_s"]
            entry = {
                "diverged": True,
                "fail_time": err.time,
                "u0": float(traj.u[0]) if len(traj.u) else None,
            }
        entry["x_s"] = [float(v) for v in x_s]
        all_metrics[kind] = entry
        trajectories[kind] = traj
        if out_dir is not None:
            traj.to_csv(out_dir / f"traj_{kind}.csv")
    return all_metrics, trajectories


def run_falsify(cfg: ScenarioConfig, samples: int | None = None, seed: int | None = None) -> dict:
    gains, cert = _design(cfg)
    plant = msd_plant(cfg.plant, cfg.domain)
    estimates = _estimates(cfg, gains, cert)
    valid = [kind for kind, est in estimates.items() if est.valid]
    batch = falsify_mod.falsify_sets(
        [estimates[kind] for kind in valid],
        plant,
        gains,
        count=samples if samples is not None else (cfg.falsify_samples or FALSIFY_SAMPLES),
        horizon=cfg.horizon,
        h=cfg.step,
        seed=seed if seed is not None else cfg.falsify_seed,
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


def run_reproduce(
    cfg: ScenarioConfig,
    scenario: str,
    out_dir: Path,
    samples: int | None = None,
    seed: int | None = None,
    tolerance_rows: list[dict] | None = None,
) -> dict:
    gains, cert = _design(cfg)
    plant = msd_plant(cfg.plant, cfg.domain)

    analysis = run_analyze(cfg)
    _write_json(out_dir / "analyze.json", analysis)
    steady, sweep = run_steady_state(cfg)
    _write_json(out_dir / "steady_state.json", steady)
    _write_sweep_csv(out_dir / "steady_state_sweep.csv", sweep)
    roa_report, boundaries = run_roa(cfg)
    _write_json(out_dir / "roa.json", roa_report)
    _write_boundaries_csv(out_dir / "roa_boundaries.csv", boundaries)
    metrics, trajectories = run_simulate(cfg, out_dir)
    _write_json(out_dir / "metrics.json", metrics)
    fals = run_falsify(cfg, samples=samples, seed=seed)
    _write_json(out_dir / "falsify.json", fals)
    _write_violations_csv(out_dir / "falsify_violations.csv", fals)

    computed: dict = {
        "lyapunov_residual": analysis["lyapunov_residual"],
        "gamma_mfc": cert.gamma_mfc,
        "gamma_sl": cert.gamma_sl,
        "gamma_slhg": cert.gamma_slhg,
    }
    y_d = cfg.y_d
    computed["sl_error_pct"] = abs(steady["SL"]["selected"] - y_d) / abs(y_d) * 100.0
    computed["mfc_error_pct"] = abs(steady["MFC"]["selected"]) / abs(y_d) * 100.0
    if steady["sl_multiplicity_transition_y_d"] is not None:
        computed["multiplicity_transition"] = steady["sl_multiplicity_transition_y_d"]
    computed["sl_root_count"] = float(len(steady["SL"]["roots"]))
    sel_stab = steady["SL"]["stability"][steady["SL"]["selected_index"]]
    computed["sl_root_unstable"] = 1.0 if sel_stab == "unstable" else 0.0

    for key, name in (("SL", "c_sl"), ("SLHG", "c_slhg")):
        if key in roa_report and roa_report[key]["valid"]:
            computed[name] = roa_report[key]["level"]
    if "MFC2" in roa_report and roa_report["MFC2"]["valid"]:
        computed["c_star"] = roa_report["MFC2"]["c_star"]
        computed["c_tilde"] = roa_report["MFC2"]["c_tilde"]
        computed["c_total"] = roa_report["MFC2"]["level"]

    if "SLHG" in metrics:
        computed["u_slhg_0"] = metrics["SLHG"]["u0"]
    if "MFC" in metrics:
        computed["u_mfc_0"] = metrics["MFC"]["u0"]
        traj = trajectories["MFC"]
        computed["mfc_final_output_gap"] = abs(float(traj.x[-1, 0]) - y_d)

    if scenario == "scenario1":
        spec = _controller_spec(cfg, gains, "MFC")
        loop = sim_mod.build_closed_loop(plant, spec, cfg.vartheta)
        for label, x0 in (("a", (0.1, -8.0)), ("b", (-0.25, 6.0))):
            u = loop.control(0.0, (*cfg.x0_star, *x0))
            computed[f"u_mfc_0_perturbed_{label}"] = float(u)
        times = []
        for x0 in ((0.1, -8.0), (-0.25, 6.0)):
            traj = sim_mod.simulate_closed_loop(
                plant, spec, x0, 2.0, cfg.step, vartheta=cfg.vartheta
            )
            times.append(sim_mod.time_to_track(traj))
        computed["mfc_reconverge_time_s"] = max(
            t if t is not None else float("inf") for t in times
        )

    total_violations = 0
    for rep in fals.values():
        if rep.get("valid"):
            total_violations += len(rep["violations"])
    computed["falsify_violations"] = float(total_violations)

    rows = tolerance_rows if tolerance_rows is not None else reference_rows(scenario)
    evaluated, all_pass = _evaluate_rows(rows, computed)
    summary = {"scenario": scenario, "rows": evaluated, "passed": all_pass}
    _write_json(out_dir / "summary.json", summary)
    return summary


def _write_json(path: Path, data: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_sweep_csv(path: Path, sweep: list[dict]):
    lines = ["y_d,count,root1,root2,root3"]
    for row in sweep:
        roots = row["roots"]
        cells = [repr(row["y_d"]), str(len(roots))]
        cells += [repr(r) for r in roots] + [""] * (3 - len(roots))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _write_boundaries_csv(path: Path, boundaries: list[tuple]):
    lines = ["kind,x1,x2"]
    for kind, x1, x2 in boundaries:
        lines.append(f"{kind},{x1!r},{x2!r}")
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
    or max, a numeric tol and, for rel and abs, a numeric expected value.
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
        needed = ("tol",) if row["kind"] == "max" else ("tol", "expected")
        for key in needed:
            value = row.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{where}.{key}", "must be a number")
    return rows


def _resolve_config(args) -> ScenarioConfig:
    """The configuration of a run, with the command-line overrides validated in it."""
    scenario = getattr(args, "scenario", None)
    if scenario and args.preset and args.preset != scenario:
        raise ConfigError("preset", f"--preset {args.preset} contradicts reproduce {scenario}")
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
        updates["falsify"] = {**data.get("falsify", {"samples": FALSIFY_SAMPLES}), **falsify}
    if updates:
        cfg = parse_config({**data, **updates})
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    common.add_argument("--tolerance-profile", help="JSON overrides for reproduce tolerances")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[common], help="gains, P and robustness bounds")
    sub.add_parser("steady-state", parents=[common], help="equilibria and set-point sweep")
    sub.add_parser("roa", parents=[common], help="certified level sets and boundaries")
    sub.add_parser("simulate", parents=[common], help="closed-loop trajectories")
    sub.add_parser("falsify", parents=[common], help="Monte-Carlo certificate checks")
    rep = sub.add_parser("reproduce", parents=[common], help="full benchmark reproduction")
    rep.add_argument("scenario", choices=PRESET_NAMES)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        cfg = _resolve_config(args)
        if args.command == "reproduce":
            tolerance_rows = None
            if args.tolerance_profile:
                tolerance_rows = _load_tolerance_profile(args.tolerance_profile, args.scenario)
            summary = run_reproduce(cfg, args.scenario, out_dir, tolerance_rows=tolerance_rows)
            for row in summary["rows"]:
                status = "PASS" if row["pass"] else "FAIL"
                expected = row.get("expected", f"< {row['tol']}")
                note = f"  ({row['note']})" if row.get("note") else ""
                print(f"{status:4s} {row['name']:28s} computed={row['computed']!r} "
                      f"expected={expected}{note}")
            print(f"summary: {'all checks passed' if summary['passed'] else 'MISMATCH'}")
            return 0 if summary["passed"] else 3

        out_dir.mkdir(parents=True, exist_ok=True)
        _write_json(out_dir / "config.json", cfg.to_dict())
        if args.command == "analyze":
            _write_json(out_dir / "analyze.json", run_analyze(cfg))
        elif args.command == "steady-state":
            report, sweep = run_steady_state(cfg)
            _write_json(out_dir / "steady_state.json", report)
            _write_sweep_csv(out_dir / "steady_state_sweep.csv", sweep)
        elif args.command == "roa":
            report, boundaries = run_roa(cfg)
            _write_json(out_dir / "roa.json", report)
            _write_boundaries_csv(out_dir / "roa_boundaries.csv", boundaries)
        elif args.command == "simulate":
            metrics, _ = run_simulate(cfg, out_dir)
            _write_json(out_dir / "metrics.json", metrics)
        elif args.command == "falsify":
            reports = run_falsify(cfg)
            _write_json(out_dir / "falsify.json", reports)
            _write_violations_csv(out_dir / "falsify_violations.csv", reports)
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
