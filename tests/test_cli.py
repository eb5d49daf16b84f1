import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import mfcert
from mfcert import cli, config, roa, simulate, steady_state
from mfcert.cli import main, run_analyze, run_simulate, run_steady_state
from mfcert.config import ConfigError, parse_config, preset


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _mfcert(*args):
    """Run ``mfcert <args>`` in a fresh interpreter."""
    src = str(Path(mfcert.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run(
        [sys.executable, "-m", "mfcert.cli", *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _run_cli(tmp_path, command, cfg):
    """Run ``mfcert <command>`` on a config in a fresh interpreter."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return _mfcert(command, "--config", path, "--out", tmp_path / "out")


def _one_line_config_error(run):
    assert run.returncode == 1
    assert run.stderr.splitlines() == [run.stderr.strip()]
    assert run.stderr.startswith("config error:") and "Traceback" not in run.stderr


class TestAnalyze:
    def test_benchmark_values(self, tmp_path):
        assert main(["analyze", "--preset", "scenario1", "--out", str(tmp_path)]) == 0
        report = _read_json(tmp_path / "analyze.json")
        assert report["gains"]["k_star"] == [-4.0, -4.0]
        assert report["gains"]["k_tilde"] == [-400.0, -40.0]
        P = np.array(report["certificate"]["P"])
        assert np.allclose(P, np.array([[1.125, 0.125], [0.125, 0.15625]]), atol=1e-12)
        assert report["certificate"]["gamma_mfc"] == pytest.approx(24.93, abs=0.01)
        assert report["certificate"]["gamma_sl"] == pytest.approx(2.499, abs=0.001)
        assert report["certificate"]["gamma_slhg"] == pytest.approx(24.99, abs=0.01)

    def test_round_trip_is_byte_identical(self, tmp_path):
        cfg = preset("scenario1")
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(cfg.to_dict()))
        reparsed = parse_config(json.loads(config_path.read_text()))
        first = json.dumps(run_analyze(cfg), sort_keys=True)
        second = json.dumps(run_analyze(reparsed), sort_keys=True)
        assert first == second


class TestSteadyStateCommand:
    def test_outputs(self, tmp_path):
        assert main(["steady-state", "--preset", "scenario1", "--out", str(tmp_path)]) == 0
        report = _read_json(tmp_path / "steady_state.json")
        assert report["SL"]["selected"] == pytest.approx(0.7823, abs=1e-3)
        assert report["MFC"]["selected"] == pytest.approx(2.96e-4, rel=0.05)
        assert report["sl_multiplicity_transition_y_d"] == pytest.approx(1.95, abs=0.05)
        lines = (tmp_path / "steady_state_sweep.csv").read_text().splitlines()
        assert lines[0] == "y_d,count,root1,root2,root3"
        assert len(lines) > 200


class TestRoaCommand:
    def test_levels_and_boundaries(self, tmp_path):
        assert main(["roa", "--preset", "scenario1", "--out", str(tmp_path)]) == 0
        report = _read_json(tmp_path / "roa.json")
        assert report["SL"]["level"] == pytest.approx(0.75, rel=0.02)
        assert report["SLHG"]["level"] == pytest.approx(14.74, rel=0.01)
        assert report["MFC2"]["c_star"] == pytest.approx(632.813, abs=1e-3)
        assert report["MFC2"]["c_tilde"] == pytest.approx(9.2, rel=0.02)
        assert report["MFC2_sweep"]["green_area"] > 0
        lines = (tmp_path / "roa_boundaries.csv").read_text().splitlines()
        assert lines[0] == "kind,x1,x2"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert {"SL", "SLHG", "MFC1", "MFC2", "MFC2_SWEEP_GREEN", "MFC2_SWEEP_GREY"} <= kinds

    def test_scenario2_reports_invalid_single_loop(self, tmp_path):
        assert main(["roa", "--preset", "scenario2", "--out", str(tmp_path)]) == 0
        report = _read_json(tmp_path / "roa.json")
        assert report["SL"]["valid"] is False
        assert report["SL"]["reason"] == "negative-radicand"
        assert report["MFC2"]["c_star"] == pytest.approx(4500.0, abs=1e-6)

    def test_split_set_at_the_budget_draws_its_centre(self, tmp_path):
        # a model start on the c_star budget leaves a valid split set with c_tilde 0,
        # whose drawable slice is the one point at its centre
        cfg = preset("scenario1").to_dict()
        cfg["x0_star"] = [-2.8646711856482483, 0.0]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["roa", "--config", str(path), "--out", str(tmp_path)]) == 0
        mfc2 = _read_json(tmp_path / "roa.json")["MFC2"]
        assert mfc2["valid"] and mfc2["c_tilde"] == 0.0
        lines = (tmp_path / "roa_boundaries.csv").read_text().splitlines()[1:]
        rows = [[float(v) for v in line.split(",")[1:]]
                for line in lines if line.startswith("MFC2,")]
        assert rows and all(row == mfc2["center"] for row in rows)


class TestRoaPolylines:
    """``run_roa``'s second value: ``(kind, float64 array)`` pairs, the valid sets in
    MFC1, MFC2, SL, SLHG order and then the MFC2 sweep, which its writer formats row by row."""

    SETS = ["MFC1", "MFC2", "SL", "SLHG"]
    SWEEP = ["MFC2_SWEEP_GREEN", "MFC2_SWEEP_GREY"]

    @pytest.mark.parametrize("scenario, changes, kinds", [
        ("scenario1", {}, SETS + SWEEP),
        ("scenario2", {}, ["MFC1", "MFC2", "SLHG"] + SWEEP),  # SL is invalid
        ("scenario1", {"x0_star": [-5.0, 0.0]}, ["MFC1", "SL", "SLHG"]),  # MFC2 invalid
    ], ids=["scenario1", "scenario2", "scenario1-MFC2-invalid"])
    def test_pairs_in_csv_order(self, tmp_path, scenario, changes, kinds):
        cfg = parse_config({**preset(scenario).to_dict(), **changes})
        report, polylines = cli._run_stage(cfg, "roa", tmp_path)
        assert [kind for kind, _ in polylines] == kinds
        assert [kind for kind in report if kind in self.SETS and report[kind]["valid"]] == [
            kind for kind in kinds if kind in self.SETS]
        for kind, pts in polylines:
            assert type(pts) is np.ndarray and pts.dtype == np.float64
            rows = roa.SWEEP_RAYS if kind in self.SWEEP else roa.BOUNDARY_POINTS
            assert pts.shape == (rows, 2)
        lines = (tmp_path / "roa_boundaries.csv").read_text().splitlines()
        assert lines[0] == "kind,x1,x2"
        assert [line.split(",")[0] for line in lines[1:]] == [
            kind for kind, pts in polylines for _ in pts]
        written = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert np.array_equal(written, np.concatenate([pts for _, pts in polylines]))


STAGE_FILES = {
    "analyze": {"analyze.json"},
    "steady-state": {"steady_state.json", "steady_state_sweep.csv"},
    "roa": {"roa.json", "roa_boundaries.csv"},
    "simulate": {"metrics.json", "traj_SL.csv", "traj_SLHG.csv", "traj_MFC.csv"},
    "falsify": {"falsify.json", "falsify_violations.csv"},
}
SHORT_RUN = ["--preset", "scenario1", "--horizon", "1", "--samples", "8", "--seed", "3"]


class TestOneStageRunner:
    """Every command writes what the same stage writes inside ``reproduce``."""

    @pytest.fixture(scope="class")
    def reproduced(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("reproduce")
        # one second is too short for every reference row, so this may exit 3
        assert main(["reproduce", "scenario1", *SHORT_RUN, "--out", str(out)]) in (0, 3)
        return out

    def test_reproduce_writes_the_stage_files_and_its_summary(self, reproduced):
        written = {path.name for path in reproduced.iterdir()}
        assert written == set().union(*STAGE_FILES.values()) | {"summary.json", "config.json"}

    def test_reproduce_records_its_configuration(self, reproduced):
        recorded = _read_json(reproduced / "config.json")
        assert recorded["falsify"] == {"samples": 8, "seed": 3}
        assert recorded["horizon"] == 1.0

    @pytest.mark.parametrize("command", sorted(STAGE_FILES))
    def test_command_writes_the_reproduce_bytes(self, tmp_path, reproduced, command):
        assert main([command, *SHORT_RUN, "--out", str(tmp_path)]) == 0
        written = {path.name for path in tmp_path.iterdir()}
        assert written == STAGE_FILES[command] | {"config.json"}
        for name in written:
            assert (tmp_path / name).read_bytes() == (reproduced / name).read_bytes(), name

    @pytest.mark.parametrize("command", sorted(STAGE_FILES) + ["reproduce"])
    def test_config_json_parses_back_to_the_run_config(self, tmp_path, reproduced, command):
        if command == "reproduce":
            out = reproduced
        else:
            out = tmp_path
            assert main([command, *SHORT_RUN, "--out", str(out)]) == 0
        ran = parse_config({**preset("scenario1").to_dict(), "horizon": 1.0,
                            "falsify": {"samples": 8, "seed": 3}})
        assert parse_config(_read_json(out / "config.json")) == ran


class TestDesign:
    def test_kept_for_the_same_config_object_only(self):
        cfg = preset("scenario1")
        design = cfg.design
        assert cfg.design is design
        assert preset("scenario1").design is not design
        assert dataclasses.replace(cfg).design is not design

    def test_released_with_its_config(self):
        cfg = preset("scenario1")
        design = weakref.ref(cfg.design)
        assert design().estimates["MFC2"].valid
        del cfg
        gc.collect()
        assert design() is None

    def test_leaves_equality_hash_and_keys_alone(self):
        cfg = preset("scenario2")
        keys = cfg.to_dict()
        assert cfg.design.cfg is cfg
        assert cfg == parse_config(cfg.to_dict())
        assert hash(cfg) == hash(parse_config(cfg.to_dict()))
        assert cfg.to_dict() == keys


@pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
class TestReportKeys:
    """Each report against its key list written out by hand."""

    def test_equilibrium_sets(self, scenario):
        design = preset(scenario).design
        for eq in (design.mfc, design.sl, design.slhg):
            assert eq.to_dict() == {
                "coefficients": list(eq.coefficients),
                "roots": list(eq.roots),
                "stability": list(eq.stability),
                "selected": eq.selected,
                "selected_index": eq.selected_index,
                "frame": eq.frame,
                "y_d": eq.y_d,
                "tie": eq.tie,
            }

    def test_certificate(self, scenario):
        cert = preset(scenario).design.cert
        assert cert.to_dict() == {
            "P": cert.P.tolist(),
            "lambda_min": cert.lambda_min,
            "bP_norm": cert.bP_norm,
            "vartheta": cert.vartheta,
            "epsilon": cert.epsilon,
            "gamma_mfc": cert.gamma_mfc,
            "gamma_sl": cert.gamma_sl,
            "gamma_slhg": cert.gamma_slhg,
        }

    def test_region_sweep(self, scenario):
        cfg = preset(scenario)
        report, _ = cli.run_roa(cfg)
        design = cfg.design
        region = roa.mfc2_region_sweep(cfg.plant, design.cert, design.estimates["MFC2"])
        assert report["MFC2_sweep"] == {
            "c_star_level": region.c_star_level,
            "c_tilde_level": region.c_tilde_level,
            "c_star_max": region.c_star_max,
            "green_area": region.green_area,
            "grey_area": region.grey_area,
        }


class TestSimulateCommand:
    def test_trajectories_and_metrics(self, tmp_path):
        assert main(["simulate", "--preset", "scenario1", "--out", str(tmp_path)]) == 0
        metrics = _read_json(tmp_path / "metrics.json")
        assert metrics["SLHG"]["u0"] == pytest.approx(310.0, rel=0.02)
        assert metrics["MFC"]["u0"] == pytest.approx(13.0, abs=1.0)
        assert metrics["MFC"]["steady_state_error_pct"] < 0.1
        assert {kind: m["outcome"] for kind, m in metrics.items()} == dict.fromkeys(
            ("SL", "SLHG", "MFC"), "converged")
        header = (tmp_path / "traj_MFC.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,xstar1,xstar2,u,V"

    def test_scenario2_single_loop_recorded_as_data(self, tmp_path):
        assert main(["simulate", "--preset", "scenario2", "--out", str(tmp_path)]) == 0
        metrics = _read_json(tmp_path / "metrics.json")
        assert metrics["SLHG"]["u0"] == pytest.approx(810.0, rel=0.02)
        # the plain loop fails to settle at the set-point
        sl = metrics["SL"]
        assert sl["diverged"] or sl["steady_state_error_pct"] > 10.0
        # its selected root is unstable: it stays finite and settles elsewhere
        assert {kind: m["outcome"] for kind, m in metrics.items()} == {
            "SL": "wrong-equilibrium", "SLHG": "converged", "MFC": "converged"}


class TestSteadyStateConsistency:
    @pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
    def test_simulate_uses_the_reported_equilibria(self, scenario):
        cfg = dataclasses.replace(preset(scenario), horizon=0.01)
        metrics, _ = run_simulate(cfg)
        steady, _ = run_steady_state(cfg)
        assert metrics["SL"]["x_s"][0] == steady["SL"]["selected"]
        assert metrics["SLHG"]["x_s"][0] == steady["SLHG"]["selected"]
        assert metrics["MFC"]["x_s"][0] == cfg.y_d + steady["MFC"]["selected"]

    @pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
    def test_sets_are_centred_on_their_loops_rest_states(self, scenario):
        cfg = preset(scenario)
        design = cfg.design
        x_s = {"MFC1": cfg.y_d + design.mfc.selected, "MFC2": cfg.y_d + design.mfc.selected,
               "SL": design.sl.selected, "SLHG": design.slhg.selected}
        for kind, est in design.estimates.items():
            assert [float(v).hex() for v in est.x_s] == [x_s[kind].hex(), (0.0).hex()]

    @pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
    def test_slhg_rest_state_is_one_float(self, tmp_path, scenario):
        # the certified set, the steady-state report and the run of the high-gain
        # loop all sit on its own cubic's root, read back from the written files
        cfg = dataclasses.replace(preset(scenario), horizon=0.01)
        for stage in ("steady_state", "roa", "simulate"):
            cli._run_stage(cfg, stage, tmp_path)
        center = _read_json(tmp_path / "roa.json")["SLHG"]["center"][0]
        selected = _read_json(tmp_path / "steady_state.json")["SLHG"]["selected"]
        x_s = _read_json(tmp_path / "metrics.json")["SLHG"]["x_s"][0]
        assert center == selected == x_s

    def test_slhg_cubic_is_solved_once_per_design(self, monkeypatch):
        high_gain = []
        solve = steady_state.single_loop_equilibria

        def counted(*args, **kwargs):
            high_gain.append(kwargs.get("high_gain", False))
            return solve(*args, **kwargs)

        monkeypatch.setattr(steady_state, "single_loop_equilibria", counted)
        cfg = preset("scenario2")
        for _ in range(2):
            run_steady_state(cfg)
            cli.run_roa(cfg)
        assert high_gain.count(True) == 1


class TestRootSweepIsSolvedWhenWritten:
    """The steady-state stage solves its root sweep once, for the CSV, and a
    report without its rows solves none."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        sweep = steady_state.sl_root_sweep

        def counted(*args):
            calls.append(args)
            return sweep(*args)

        monkeypatch.setattr(steady_state, "sl_root_sweep", counted)
        return calls

    def test_report_alone_solves_no_sweep(self, calls):
        run_steady_state(preset("scenario1"))
        assert len(calls) == 0

    def test_reading_the_rows_solves_it_once(self, calls):
        _, rows = run_steady_state(preset("scenario1"))
        assert len(list(rows)) == 251
        assert len(calls) == 1

    def test_stage_solves_it_once(self, calls, tmp_path):
        cli._run_stage(preset("scenario1"), "steady_state", tmp_path)
        assert len(calls) == 1
        assert len((tmp_path / "steady_state_sweep.csv").read_text().splitlines()) == 252

    def test_failing_sweep_leaves_only_the_config(self, monkeypatch, tmp_path):
        def fail(*args):
            raise ArithmeticError("sweep failed")

        monkeypatch.setattr(steady_state, "sl_root_sweep", fail)
        assert main(["steady-state", "--preset", "scenario1", "--out", str(tmp_path)]) == 2
        assert {path.name for path in tmp_path.iterdir()} == {"config.json"}


class TestFalsifyCommand:
    def test_all_valid_sets_clean(self, tmp_path):
        code = main(
            ["falsify", "--preset", "scenario1", "--out", str(tmp_path), "--samples", "50"]
        )
        assert code == 0
        report = _read_json(tmp_path / "falsify.json")
        for kind in ("MFC1", "MFC2", "SL", "SLHG"):
            assert report[kind]["valid"]
            assert report[kind]["violations"] == []
            assert report[kind]["converged"] == 50


def _plant_error(**changes):
    """The message of the ConfigError of the scenario1 plant with ``changes``; None deletes."""
    plant = preset("scenario1").to_dict()["plant"]
    for key, value in changes.items():
        if value is None:
            del plant[key]
        else:
            plant[key] = value
    with pytest.raises(ConfigError) as err:
        parse_config({**preset("scenario1").to_dict(), "plant": plant})
    return str(err.value)


class TestPlantKeys:
    def test_plant_without_deviations_has_zero_deviations(self):
        raw = preset("scenario1").to_dict()
        for key in ("delta_k", "delta_c_d", "delta_alpha"):
            del raw["plant"][key]
        p = parse_config(raw).plant
        assert (p.dk, p.dc_d, p.dalpha) == (0.0, 0.0, 0.0)

    def test_missing_mass_is_required(self):
        assert _plant_error(m=None) == "plant.m: is required"

    def test_string_deviation_is_not_a_number(self):
        assert _plant_error(delta_k="0.1") == "plant.delta_k: must be a number"

    @pytest.mark.parametrize("changes, message", [
        ({"k": None, "c_d": None}, "plant.k: is required"),
        ({"k": "1", "c_d": None}, "plant.k: must be a number"),
        ({"g0": None, "delta_k": "0.1"}, "plant.g0: is required"),
        ({"delta_alpha": True, "delta_k": float("nan")}, "plant.delta_k: must be finite"),
        ({"m": -1.0, "delta_c_d": "x"}, "plant.delta_c_d: must be a number"),
    ])
    def test_first_fault_in_key_order_is_named(self, changes, message):
        assert _plant_error(**changes) == message


class TestConfigErrors:
    def test_old_controllers_key_rejected(self, tmp_path, capsys):
        cfg = preset("scenario1").to_dict()
        cfg["controllers"] = []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "controllers" in capsys.readouterr().err

    def test_bad_plant_rejected(self, tmp_path, capsys):
        cfg = preset("scenario1").to_dict()
        cfg["plant"]["m"] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = main(["analyze", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "plant" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("y_d", float("nan")), ("g0", float("inf"))])
    def test_non_finite_number_rejected(self, tmp_path, field, value):
        cfg = preset("scenario1").to_dict()
        (cfg["plant"] if field == "g0" else cfg)[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))  # writes NaN / Infinity
        src = str(Path(mfcert.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        run = subprocess.run(
            [sys.executable, "-m", "mfcert.cli", "roa", "--config", str(path),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        assert field in run.stderr and "finite" in run.stderr

    @pytest.mark.parametrize("poles", [[-2.0, -2.0, -2.0], [-2.0]])
    @pytest.mark.parametrize("command", ["roa", "simulate"])
    def test_pole_count_must_match_the_plant(self, tmp_path, command, poles):
        cfg = preset("scenario1").to_dict()
        for field in ("x0", "x0_star", "domain"):  # let them default to len(poles)
            del cfg[field]
        cfg["poles"] = poles
        run = _run_cli(tmp_path, command, cfg)
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        assert "poles" in run.stderr

    @pytest.mark.parametrize("poles", [[[-1, 1], [-2, 0]], [[-1, 1], [-1, 1]]],
                             ids=["unpaired", "twice-the-same"])
    def test_poles_must_be_closed_under_conjugation(self, tmp_path, capsys, poles):
        cfg = {**preset("scenario1").to_dict(), "poles": poles}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = main(["analyze", "--config", str(path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: poles: root set must be closed under complex conjugation"]
        assert not out.exists()

    def test_horizon_must_be_a_whole_number_of_steps(self, tmp_path, capsys):
        # three steps of 0.3 end at t = 0.9, not at the horizon of 1 s
        out = tmp_path / "out"
        code = main(["simulate", "--preset", "scenario1", "--horizon", "1", "--step", "0.3",
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "step" in err[0]
        assert not out.exists()

    # 0.3 / 0.1 and 0.7 / 0.07 are whole step counts that do not divide exactly in floats
    @pytest.mark.parametrize("horizon, step", [(10.0, 1e-3), (0.3, 0.1), (0.7, 0.07)])
    def test_whole_step_grids_parse(self, horizon, step):
        cfg = parse_config({**preset("scenario1").to_dict(), "horizon": horizon, "step": step})
        assert (cfg.horizon, cfg.step) == (horizon, step)

    def test_config_holds_no_copy_of_the_kind_lists(self):
        owners = (simulate.CONTROLLER_KINDS, roa._FRAMES)
        for name, value in vars(config).items():
            if isinstance(value, (tuple, list, dict)):
                assert not any(value is not owner and list(value) == list(owner)
                               for owner in owners), name

    @pytest.mark.parametrize("path, value", [
        ("varteta", 5.0),
        ("controllers", ["SL", "SLHG", "MFC"]),
        ("roa_kinds", ["MFC1", "MFC2", "SL", "SLHG"]),
        ("plant.delta_kk", 1.0),
        ("domain.mid", [0.0, 0.0]),
        ("falsify.sede", 9),
    ])
    def test_unknown_key_is_refused_at_its_path(self, tmp_path, capsys, path, value):
        cfg = preset("scenario1").to_dict()
        *parents, key = path.split(".")
        node = cfg
        for parent in parents:
            node = node[parent]
        node[key] = value
        config_path = tmp_path / "cfg.json"
        config_path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {path}:")
        assert not out.exists()

    def test_overflowing_step_count_is_a_config_error(self):
        with pytest.raises(ConfigError, match="step: is too small"):
            parse_config({**preset("scenario1").to_dict(), "horizon": 1e308, "step": 1e-300})

    @pytest.mark.parametrize("flag, value, field", [
        ("--samples", "0", "falsify.samples"),
        ("--samples", "-5", "falsify.samples"),
        ("--seed", "-1", "falsify.seed"),
    ])
    def test_falsify_flags_are_validated(self, tmp_path, capsys, flag, value, field):
        code = main(["reproduce", "scenario2", flag, value, "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert field in captured.err and "all checks passed" not in captured.out
        assert not (tmp_path / "falsify.json").exists()

    def test_config_json_records_the_falsify_flags(self, tmp_path):
        code = main(["analyze", "--preset", "scenario2", "--samples", "50", "--seed", "3",
                     "--out", str(tmp_path)])
        assert code == 0
        assert _read_json(tmp_path / "config.json")["falsify"] == {"samples": 50, "seed": 3}

    def test_falsify_integers_above_two_to_the_53_are_exact(self, tmp_path):
        big = 2**53 + 1  # the nearest float is 2**53
        code = main(["analyze", "--preset", "scenario1", "--seed", str(big),
                     "--out", str(tmp_path)])
        assert code == 0
        assert _read_json(tmp_path / "config.json")["falsify"]["seed"] == big
        cfg = parse_config({**preset("scenario1").to_dict(),
                            "falsify": {"samples": big, "seed": big}})
        assert (cfg.falsify_samples, cfg.falsify_seed) == (big, big)
        # integral floats are still whole numbers
        cfg = parse_config({**preset("scenario1").to_dict(),
                            "falsify": {"samples": 50.0, "seed": 3.0}})
        assert (cfg.falsify_samples, cfg.falsify_seed) == (50, 3)
        assert type(cfg.falsify_samples) is int and type(cfg.falsify_seed) is int

    def test_seed_beyond_the_float_range_is_exact(self, tmp_path):
        huge = 10**400  # float() of it overflows; Philox takes it as it is
        code = main(["analyze", "--preset", "scenario1", "--seed", str(huge),
                     "--samples", "8", "--out", str(tmp_path)])
        assert code == 0
        assert _read_json(tmp_path / "config.json")["falsify"] == {"samples": 8, "seed": huge}

    def test_sample_count_above_numpy_dimension_limit_rejected(self, tmp_path, capsys,
                                                               monkeypatch):
        calls = []
        monkeypatch.setattr(cli.falsify_mod, "falsify_sets", lambda *a, **k: calls.append(a))
        code = main(["falsify", "--preset", "scenario1", "--samples", str(10**400),
                     "--out", str(tmp_path / "flag")])
        assert code == 1 and "falsify.samples" in capsys.readouterr().err
        cfg = {**preset("scenario1").to_dict(), "falsify": {"samples": 2**63, "seed": 0}}
        with pytest.raises(ConfigError, match="falsify.samples"):
            parse_config(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["falsify", "--config", str(path), "--out", str(tmp_path / "file")])
        assert code == 1 and "falsify.samples" in capsys.readouterr().err
        assert not calls and not (tmp_path / "flag").exists() and not (tmp_path / "file").exists()
        # sys.maxsize itself passes configuration
        assert parse_config({**cfg, "falsify": {"samples": sys.maxsize}}).falsify_samples == (
            sys.maxsize)

    def test_config_json_records_the_default_falsify_block(self, tmp_path):
        cfg = preset("scenario1").to_dict()
        del cfg["falsify"]
        run = _run_cli(tmp_path, "analyze", cfg)
        assert run.returncode == 0, run.stderr
        assert _read_json(tmp_path / "out" / "config.json")["falsify"] == {
            "samples": 500, "seed": 0}

    def test_missing_config_file(self, tmp_path):
        run = _mfcert("analyze", "--config", tmp_path / "missing.json", "--out", tmp_path)
        _one_line_config_error(run)
        assert "missing.json" in run.stderr

    @pytest.mark.parametrize("profile, field", [
        ('[{"name": "gamma_mfc", "tol": 1', "tolerance-profile"),
        ('{"name": "gamma_mfc"}', "tolerance-profile"),
        ('[{"name": "extra", "kind": "max"}]', "tolerance-profile[0].tol"),
        ('[{"kind": "max", "tol": 1.0}]', "tolerance-profile[0]"),
        ('[{"name": "extra", "tol": 1.0}]', "tolerance-profile[0].kind"),
        ('[{"name": "gamma_mfc", "kind": "rell"}]', "tolerance-profile[0].kind"),
        # a tol is a finite nonnegative number, so no row passes or fails whatever it computes
        ('[{"name": "gamma_mfc", "tol": Infinity, "expected": 1e9}]',
         "tolerance-profile[0].tol"),
        ('[{"name": "gamma_mfc", "tol": NaN}]', "tolerance-profile[0].tol"),
        ('[{"name": "gamma_mfc", "tol": -0.1}]', "tolerance-profile[0].tol"),
        # an integer beyond the float range is refused before any stage runs
        ('[{"name": "gamma_mfc", "expected": 1' + "0" * 400 + '}]',
         "tolerance-profile[0].expected"),
    ], ids=["malformed-json", "not-a-list", "no-tol", "no-name", "no-kind", "unknown-kind",
            "infinite-tol", "nan-tol", "negative-tol", "expected-beyond-float"])
    def test_bad_tolerance_profile(self, tmp_path, profile, field):
        path = tmp_path / "profile.json"
        path.write_text(profile)
        run = _mfcert("reproduce", "scenario1", "--tolerance-profile", path,
                      "--out", tmp_path / "out")
        _one_line_config_error(run)
        assert f"config error: {field}:" in run.stderr
        assert not (tmp_path / "out").exists()

    def test_repeated_profile_name_updates_its_row(self, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(json.dumps([{"name": "extra", "kind": "max", "tol": 1},
                                    {"name": "extra", "kind": "max", "tol": 2}]))
        rows = cli._load_tolerance_profile(str(path), "scenario1")
        assert [row for row in rows if row["name"] == "extra"] == [
            {"name": "extra", "kind": "max", "tol": 2}]
        assert len(rows) == len(config.reference_rows("scenario1")) + 1

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, out):
        (tmp_path / "file").write_text("")
        assert main(["analyze", "--preset", "scenario1", "--out", str(tmp_path / out)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and err.startswith("config error: out: ")
        assert "Traceback" not in err and (tmp_path / "file").read_text() == ""

    def test_reproduce_rejects_a_different_preset(self, tmp_path, capsys):
        code = main(["reproduce", "scenario1", "--preset", "scenario2", "--out", str(tmp_path)])
        assert code == 1
        assert "preset" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("command", [
        ["analyze"], ["steady-state"], ["roa"], ["simulate"], ["falsify"],
        ["reproduce", "scenario1"],
    ])
    def test_config_and_preset_together_rejected(self, tmp_path, capsys, command):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(preset("scenario2").to_dict()))
        code = main([*command, "--config", str(path), "--preset", "scenario1",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and err.startswith("config error:")
        assert "--config" in err and "--preset" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [
        ["analyze", "--preset", "scenario1", "--seed", "abc"],
        ["falsify", "--preset", "scenario1", "--samples", "1.5"],
        ["roa", "--preset", "scenario1", "--bogus"],
        ["reproduce", "scenario3"],
        [],
    ], ids=["seed", "samples", "unknown-flag", "unknown-scenario", "no-command"])
    def test_malformed_or_unknown_flag_is_a_config_error(self, tmp_path, capsys, flags):
        assert main([*flags, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and err.startswith("config error:")
        assert "usage" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["analyze", "steady-state", "roa", "simulate",
                                         "falsify"])
    def test_tolerance_profile_belongs_to_reproduce(self, tmp_path, capsys, command):
        code = main([command, "--preset", "scenario1", "--tolerance-profile", "/nonexistent",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "--tolerance-profile" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [[], ["analyze"], ["reproduce"]])
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main([*command, "--help"])
        assert exit_.value.code == 0
        assert ("--tolerance-profile" in capsys.readouterr().out) == (command == ["reproduce"])

    def test_parse_error_paths(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"plant": {"k": 1.0}})
        assert "plant." in str(err.value)


class TestNumericalFailures:
    @pytest.mark.parametrize("command", ["roa", "simulate"])
    def test_non_finite_equilibrium_is_a_numerical_failure(self, tmp_path, command):
        cfg = preset("scenario1").to_dict()
        cfg["plant"]["m"] = 1e308  # the steady-state cubics underflow to NaN roots
        run = _run_cli(tmp_path, command, cfg)
        assert run.returncode == 2
        assert "Traceback" not in run.stderr
        assert "numerical failure" in run.stderr

    def test_non_finite_gains_are_a_numerical_failure(self, tmp_path):
        cfg = preset("scenario1").to_dict()
        cfg["poles"] = [-1e200, -1e200]  # k* = (-1e400, -2e200): the first overflows
        run = _run_cli(tmp_path, "analyze", cfg)
        assert run.returncode == 2
        assert run.stderr.splitlines() == [run.stderr.strip()]
        assert "numerical failure" in run.stderr and "gains" in run.stderr
        for path in (tmp_path / "out").glob("*.json"):
            text = path.read_text()
            assert "NaN" not in text and "Infinity" not in text

    @pytest.mark.parametrize("field, value, code", [
        ("delta_k", -1e300, 0),  # every loop diverges at the first step: data, not failure
        ("y_d", 1e200, 2),  # the steady-state residuals overflow
    ])
    def test_no_numpy_warning_reaches_stderr(self, tmp_path, field, value, code):
        cfg = preset("scenario1").to_dict()
        (cfg["plant"] if field == "delta_k" else cfg)[field] = value
        run = _run_cli(tmp_path, "simulate", cfg)
        assert run.returncode == code
        assert "RuntimeWarning" not in run.stderr
        assert "Traceback" not in run.stderr

    def test_model_level_overflow_is_a_numerical_failure(self, tmp_path):
        cfg = preset("scenario1").to_dict()
        cfg["x0_star"] = [0.0, -1e308]  # vartheta e0'P e0 overflows
        run = _run_cli(tmp_path, "roa", cfg)
        assert run.returncode == 2
        assert run.stderr.splitlines() == [run.stderr.strip()]
        assert "c_star" in run.stderr
        assert "RuntimeWarning" not in run.stderr and "Traceback" not in run.stderr
        for path in (tmp_path / "out").glob("roa.json"):
            assert "Infinity" not in path.read_text()

    def test_analyze_solves_no_cubic(self, tmp_path):
        cfg = preset("scenario1").to_dict()
        cfg["y_d"] = 1e200  # the steady-state cubics overflow; the gains do not
        assert _run_cli(tmp_path, "analyze", cfg).returncode == 0

    @pytest.mark.parametrize("command", ["roa", "steady-state"])
    def test_cubic_overflow_names_the_set_point(self, tmp_path, command):
        cfg = preset("scenario1").to_dict()
        cfg["y_d"] = 1e200  # y_d**3 overflows while the cubic is built
        run = _run_cli(tmp_path, command, cfg)
        assert run.returncode == 2
        assert run.stderr.splitlines() == [run.stderr.strip()]
        assert "steady-state cubic" in run.stderr and "y_d" in run.stderr
        assert "(34," not in run.stderr and "Traceback" not in run.stderr

    def test_unexpected_exception_ends_in_one_line(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("missing")

        monkeypatch.setattr(cli, "run_roa", broken)
        assert main(["roa", "--preset", "scenario1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "KeyError" in err and "Traceback" not in err


class TestRowKinds:
    def test_rows_at_exact_equality(self):
        # rel and abs bounds are closed, a max bound is open
        rows = [{"name": "a", "kind": "rel", "expected": 2.0, "tol": 0.5},
                {"name": "b", "kind": "abs", "expected": 2.0, "tol": 1.0},
                {"name": "c", "kind": "max", "tol": 1.0},
                {"name": "d", "kind": "max", "tol": 1.0}]
        evaluated, passed = cli._evaluate_rows(rows, {"a": 3.0, "b": 3.0, "c": 1.0})
        assert [row["pass"] for row in evaluated] == [True, True, False, False]
        assert not passed
        assert [row["computed"] for row in evaluated] == [3.0, 3.0, 1.0, None]

    @pytest.mark.parametrize("row, field", [
        ({"name": "gamma_mfc", "kind": "rell", "expected": 24.9256, "tol": 30.0}, "kind"),
        ({"name": "gamma_mfc", "kind": "rel", "expected": 24.9256}, "tol"),
        ({"name": "gamma_mfc", "kind": "abs", "tol": 1.0}, "expected"),
        ({"kind": "max", "tol": 1.0}, None),
    ])
    def test_given_rows_are_checked_before_any_file(self, tmp_path, row, field):
        # run_reproduce's rows follow the tolerance profile's row rule
        where = "tolerance_rows[1]" + (f".{field}" if field else "")
        with pytest.raises(ConfigError, match=f"^{re.escape(where)}: "):
            cli.run_reproduce(preset("scenario1"), "scenario1", tmp_path / "out",
                              tolerance_rows=[{"name": "c_sl", "kind": "max", "tol": 1.0}, row])
        assert not (tmp_path / "out").exists()

    def test_given_rows_may_not_repeat_a_name(self, tmp_path):
        row = {"name": "c_sl", "kind": "max", "tol": 1.0}
        with pytest.raises(ConfigError, match=r"^tolerance_rows\[1\]\.name: "):
            cli.run_reproduce(preset("scenario1"), "scenario1", tmp_path / "out",
                              tolerance_rows=[row, dict(row, tol=2.0)])
        assert not (tmp_path / "out").exists()


class TestReproduce:
    def test_scenario1_passes(self, tmp_path, capsys):
        code = main(
            ["reproduce", "scenario1", "--out", str(tmp_path), "--samples", "100"]
        )
        assert code == 0
        summary = _read_json(tmp_path / "summary.json")
        assert summary["passed"]
        names = {row["name"] for row in summary["rows"]}
        assert {"gamma_mfc", "c_sl", "c_slhg", "c_star", "c_tilde",
                "sl_error_pct", "u_slhg_0", "falsify_violations"} <= names
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_scenario2_passes(self, tmp_path):
        code = main(
            ["reproduce", "scenario2", "--out", str(tmp_path), "--samples", "60"]
        )
        assert code == 0
        summary = _read_json(tmp_path / "summary.json")
        assert summary["passed"]
        rows = {row["name"]: row for row in summary["rows"]}
        assert rows["sl_root_count"]["computed"] == 1.0
        assert rows["sl_root_unstable"]["computed"] == 1.0

    def test_step_and_horizon_flags_apply(self, tmp_path):
        main(["reproduce", "scenario1", "--out", str(tmp_path), "--horizon", "2",
              "--step", "0.002", "--samples", "4"])
        valid = [rep for rep in _read_json(tmp_path / "falsify.json").values()
                 if rep["valid"]]
        assert valid and all(rep["horizon"] == 2.0 and rep["h"] == 0.002 for rep in valid)

    def test_reconvergence_runs_end_on_their_own_horizon(self, tmp_path, monkeypatch):
        # 2 s is no whole number of 0.03 s steps: the runs take 67 steps to 2.01 s
        runs = []
        simulate_closed_loop = simulate.simulate_closed_loop

        def spy(plant, spec, x0, horizon, h, vartheta):
            traj = simulate_closed_loop(plant, spec, x0, horizon, h, vartheta)
            runs.append((horizon, h, traj.t[-1], len(traj.t) - 1))
            return traj

        monkeypatch.setattr(simulate, "simulate_closed_loop", spy)
        code = main(["reproduce", "scenario1", "--horizon", "0.9", "--step", "0.03",
                     "--samples", "8", "--out", str(tmp_path)])
        assert code != 2
        reconvergence = [run for run in runs if run[0] != 0.9]
        assert len(reconvergence) == 2
        for horizon, h, end, steps in reconvergence:
            assert h == 0.03 and steps == 67
            assert end == horizon == 67 * 0.03

    def test_step_above_four_seconds_gives_the_reconvergence_runs_one_step(self, tmp_path):
        # 2 s rounds to 0 steps of 5 s; the runs take one step, not a horizon error
        code = main(["reproduce", "scenario1", "--step", "5", "--horizon", "10",
                     "--samples", "4", "--out", str(tmp_path)])
        assert code == 3
        rows = {row["name"]: row for row in _read_json(tmp_path / "summary.json")["rows"]}
        assert rows["mfc_reconverge_time_s"]["computed"] == float("inf")
        assert not rows["mfc_reconverge_time_s"]["pass"]
        # the 10 s runs grow to x1 ~ 1e32 and stay finite: data, but not converged
        for entry in _read_json(tmp_path / "metrics.json").values():
            assert entry["diverged"] is False and entry["outcome"] == "wrong-equilibrium"

    def test_diverging_reconvergence_run_is_data(self, tmp_path):
        # at a 0.2 s step the first re-convergence run goes non-finite at t = 1 s
        code = main(["reproduce", "scenario1", "--horizon", "10", "--samples", "2",
                     "--step", "0.2", "--out", str(tmp_path)])
        assert code == 3
        rows = {row["name"]: row for row in _read_json(tmp_path / "summary.json")["rows"]}
        assert rows["mfc_reconverge_time_s"]["computed"] == float("inf")
        assert not rows["mfc_reconverge_time_s"]["pass"]

    def test_samples_and_seed_are_folded_into_a_copy_of_the_config(self, tmp_path):
        cfg = dataclasses.replace(preset("scenario2"), horizon=1.0)
        before = dataclasses.replace(cfg)
        cli.run_reproduce(cfg, "scenario2", tmp_path / "keywords", samples=3, seed=7)
        assert cfg == before
        carried = dataclasses.replace(cfg, falsify_samples=3, falsify_seed=7)
        cli.run_reproduce(carried, "scenario2", tmp_path / "config")
        written = (tmp_path / "keywords" / "falsify.json").read_bytes()
        assert written == (tmp_path / "config" / "falsify.json").read_bytes()
        assert json.loads(written)["SLHG"]["samples"] == 3

    @pytest.mark.parametrize("name, value", [("seed", 2.5), ("seed", True), ("seed", -1),
                                             ("samples", 0)])
    def test_bad_samples_or_seed_is_a_config_error_before_any_file(self, tmp_path, name, value):
        # the keywords are checked as a configuration's falsify block, not copied in
        with pytest.raises(ConfigError, match=f"falsify.{name}"):
            cli.run_reproduce(preset("scenario1"), "scenario1", tmp_path / "out",
                              **{name: value})
        assert not (tmp_path / "out").exists()

    def test_zero_set_point_is_a_mismatch_not_a_failure(self, tmp_path, capsys):
        cfg = {**preset("scenario1").to_dict(), "y_d": 0.0, "horizon": 1.0,
               "falsify": {"samples": 4, "seed": 0}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["reproduce", "scenario1", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "MISMATCH" in capsys.readouterr().out
        # errors at a zero set-point are percent of 1, as in metrics.json
        rows = {row["name"]: row for row in _read_json(tmp_path / "out" / "summary.json")["rows"]}
        assert rows["sl_error_pct"]["computed"] == 0.0
        assert rows["mfc_error_pct"]["computed"] == 0.0

    def test_tolerance_profile_forces_mismatch(self, tmp_path):
        profile = tmp_path / "tight.json"
        profile.write_text(json.dumps(
            [{"name": "gamma_mfc", "kind": "rel", "expected": 99.0, "tol": 1e-9}]
        ))
        code = main(
            ["reproduce", "scenario1", "--out", str(tmp_path / "out"),
             "--samples", "30", "--tolerance-profile", str(profile)]
        )
        assert code == 3
