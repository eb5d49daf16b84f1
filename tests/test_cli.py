import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mfcert
from mfcert import cli
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
        config_path.write_text(cfg.to_json())
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


class TestSimulateCommand:
    def test_trajectories_and_metrics(self, tmp_path):
        assert main(["simulate", "--preset", "scenario1", "--out", str(tmp_path)]) == 0
        metrics = _read_json(tmp_path / "metrics.json")
        assert metrics["SLHG"]["u0"] == pytest.approx(310.0, rel=0.02)
        assert metrics["MFC"]["u0"] == pytest.approx(13.0, abs=1.0)
        assert metrics["MFC"]["steady_state_error_pct"] < 0.1
        header = (tmp_path / "traj_MFC.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,xstar1,xstar2,u,V"

    def test_scenario2_single_loop_recorded_as_data(self, tmp_path):
        assert main(["simulate", "--preset", "scenario2", "--out", str(tmp_path)]) == 0
        metrics = _read_json(tmp_path / "metrics.json")
        assert metrics["SLHG"]["u0"] == pytest.approx(810.0, rel=0.02)
        # the plain loop fails to settle at the set-point
        sl = metrics["SL"]
        assert sl["diverged"] or sl["steady_state_error_pct"] > 10.0


class TestSteadyStateConsistency:
    @pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
    def test_simulate_uses_the_reported_equilibria(self, scenario):
        cfg = dataclasses.replace(preset(scenario), horizon=0.01)
        metrics, _ = run_simulate(cfg)
        steady, _ = run_steady_state(cfg)
        assert metrics["SL"]["x_s"][0] == steady["SL"]["selected"]
        assert metrics["SLHG"]["x_s"][0] == steady["SLHG"]["selected"]
        assert metrics["MFC"]["x_s"][0] == cfg.y_d + steady["MFC"]["selected"]


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


class TestConfigErrors:
    def test_empty_controllers_rejected(self, tmp_path, capsys):
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
    ], ids=["malformed-json", "not-a-list", "no-tol", "no-name", "no-kind"])
    def test_bad_tolerance_profile(self, tmp_path, profile, field):
        path = tmp_path / "profile.json"
        path.write_text(profile)
        run = _mfcert("reproduce", "scenario1", "--tolerance-profile", path,
                      "--out", tmp_path / "out")
        _one_line_config_error(run)
        assert f"config error: {field}:" in run.stderr
        assert not (tmp_path / "out").exists()

    def test_reproduce_rejects_a_different_preset(self, tmp_path, capsys):
        code = main(["reproduce", "scenario1", "--preset", "scenario2", "--out", str(tmp_path)])
        assert code == 1
        assert "preset" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

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
