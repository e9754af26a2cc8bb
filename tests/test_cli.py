import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fpplab import oracle, scenarios
from fpplab.cli import main
from fpplab.oracle import OracleConvergenceError
from fpplab.scenarios import (_FIT_KEYS, _SCENARIOS, DEVIATION_NOISE, MAX_FIT_SAMPLES,
                              ConfigError, RunSummary, emit_plots, parse_config,
                              run_scenario)

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _linear_config(out_dir, l_list=(0.0,), tolerance=0.05):
    return {
        "scenario": "linear-decay",
        "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
        "data": {"kind": "gaussian", "width": 1.0, "amplitude": 1.0},
        "fit": {"window": [100.0, 10000.0], "l_list": list(l_list),
                "tolerance": tolerance, "n_samples": 12},
        "output_dir": str(out_dir),
    }


def _smalldata_config(out_dir):
    return {
        "scenario": "nonlinear-smalldata",
        "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
        "grid": {"n": 1, "points_per_dim": 64, "box_length": 64.0},
        "data": {"kind": "gaussian", "width": 1.0, "amplitude": 0.01},
        "run": {"scheme": "etd2", "dt": 0.5, "t_end": 10.0},
        "fit": {"window": [1.0, 8.0], "l_list": [0.0], "tolerance": 10.0},
        "output_dir": str(out_dir),
    }


# Former fit keys, each with the value that is now pinned in the code.
_PINNED_FIT_SETTINGS = {
    "cutoff_radius": 0.5, "oracle_tol": 1e-8, "r_squared_min": 0.995,
    "solver_match_tol": 1e-4, "rate_margin": 0.9, "t_samples": [1.0, 10.0],
    "high_t_samples": [1.0, 2.0], "m1_growth_tol": 0.05, "order_band": [1.7, 2.3],
}


def _readme_table(header):
    """Cells of each row of the README table whose first header cell is `header`."""
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {header} |"))
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


# The README's scenario table: name -> grid and run, and its fit-key table:
# key -> the scenarios that read it.  The config-error tests below take their
# cases from these, and test_readme_tables_match_the_code holds them to the
# code.
_README_SCENARIOS = {row[0].strip("`"): row[1] for row in _readme_table("scenario")}
_README_FIT_READERS = {row[0].strip("`"): re.findall(r"`([a-z-]+)`", row[2])
                       for row in _readme_table("`fit` key")}
_FIT_VALUES = {"window": [0.5, 1.0], "l_list": [0.0], "tolerance": 0.1, "s": 1.0,
               "n_samples": 12, "falsify": True}


def _scenario_config(scenario, out):
    """A config of `scenario` that parses, with grid and run where it reads
    them and every fit key it requires."""
    doc = {
        "scenario": scenario,
        "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
        "data": {"kind": "gaussian", "width": 1.0, "amplitude": 0.01},
        "fit": {key: _FIT_VALUES[key] for key in ("window", "l_list")
                if scenario in _README_FIT_READERS[key]},
        "output_dir": str(out),
    }
    if _README_SCENARIOS[scenario] != "refused":
        doc["grid"] = {"n": 1, "points_per_dim": 64, "box_length": 40.0}
        doc["run"] = {"scheme": "etd2", "dt": 0.1, "t_end": 1.0}
    return doc


def test_readme_tables_match_the_code():
    assert list(_README_SCENARIOS) == list(_SCENARIOS)
    assert list(_README_FIT_READERS) == list(_FIT_KEYS)
    for name, spec in _SCENARIOS.items():
        assert _README_SCENARIOS[name] == spec.sections, name
        read = [key for key, readers in _README_FIT_READERS.items() if name in readers]
        assert read == list(spec.fit_keys), name


def test_experiment_configs_parse():
    # the paper's committed experiments, which CI runs end to end
    configs = sorted(SCRIPTS.glob("*.json"))
    assert [path.stem for path in configs] == [
        "band_probe_gain", "band_probe_loss", "linear_decay", "regularity_loss", "smalldata"]
    for path in configs:
        assert parse_config(json.loads(path.read_text())).output_dir.startswith("runs/")


class TestParseConfig:
    def test_missing_grid_reports_field_path(self, tmp_path):
        doc = {
            "scenario": "nonlinear-smalldata",
            "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
            "data": {"kind": "gaussian", "width": 1.0, "amplitude": 0.01},
            "fit": {"window": [10.0, 100.0], "l_list": [0.0]},
        }
        with pytest.raises(ConfigError, match="grid"):
            parse_config(doc)

    def test_missing_model_field(self):
        with pytest.raises(ConfigError, match="model.alpha"):
            parse_config({
                "scenario": "linear-decay",
                "model": {"n": 1, "m": 1.0, "theta": 5},
                "data": {"kind": "gaussian", "width": 1.0, "amplitude": 1.0},
                "fit": {"window": [1.0, 100.0], "l_list": [0.0]},
            })

    def test_unknown_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config({"scenario": "time-travel", "model": {}, "data": {}})

    def test_bad_window(self):
        with pytest.raises(ConfigError, match="fit.window"):
            parse_config({
                "scenario": "linear-decay",
                "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
                "data": {"kind": "gaussian", "width": 1.0, "amplitude": 1.0},
                "fit": {"window": [100.0], "l_list": [0.0]},
            })

    def test_negative_regularity(self):
        doc = _linear_config("unused")
        doc["fit"]["s"] = -1.0
        with pytest.raises(ConfigError, match="fit.s"):
            parse_config(doc)

    def test_linear_run_ending_before_the_fit_window_samples_t_end(self, tmp_path):
        # the 12 default times run from t0 down to t_end; of them only t_end
        # lies in the run, so the solver meets the oracle there
        doc = _scenario_config("linear-decay", tmp_path / "out")
        doc["run"]["t_end"] = 0.25  # the window is [0.5, 1]
        assert parse_config(doc).run.sample_times == (0.25,)


class TestRunCommand:
    def test_linear_decay_passes_and_writes_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, _linear_config(out))
        assert main(["run", cfg, "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_pass"]
        assert summary["fits"][0]["slope"] == pytest.approx(-0.25, abs=0.02)
        assert (out / "series_l0_full.csv").exists()
        assert (out / "plot_series.py").exists()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path, _linear_config(out))
        main(["run", cfg, "--quiet"])
        lines = (out / "series_l0_full.csv").read_text().splitlines()
        assert lines[0] == "t,value"
        t, v = lines[1].split(",")
        assert float(t) == 100.0 and float(v) > 0

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path), "--quiet"]) == 2
        cfg = _write(tmp_path, {"scenario": "linear-decay"}, "missing.json")
        assert main(["run", cfg, "--quiet"]) == 2

    def test_oversized_padded_grid_is_a_config_error(self, tmp_path, capsys):
        # n=3, N=128, theta=5 pads to 448^3 samples per array
        out = tmp_path / "out"
        doc = {
            "scenario": "nonlinear-smalldata",
            "model": {"n": 3, "m": 1.0, "alpha": 1.0, "theta": 5},
            "grid": {"n": 3, "points_per_dim": 128, "box_length": 64.0},
            "data": {"kind": "gaussian", "width": 1.0, "amplitude": 0.01},
            "run": {"dt": 0.1, "t_end": 1.0},
            "fit": {"window": [0.5, 1.0], "l_list": [0.0]},
            "output_dir": str(out),
        }
        assert main(["run", _write(tmp_path, doc), "--quiet"]) == 2
        assert "points_per_dim" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_linear_lattice_is_a_config_error(self, tmp_path, capsys):
        # a linear jump transforms the lattice itself: 2048^3 float64 samples
        # are 64 GiB, and the half spectrum alone as much again
        out = tmp_path / "out"
        doc = _linear_config(out)
        doc["model"]["n"] = 3
        doc["grid"] = {"n": 3, "points_per_dim": 2048, "box_length": 2000.0}
        doc["run"] = {"dt": 2.0, "t_end": 100.0, "enable_nonlinearity": False}
        cfg = _write(tmp_path, doc)
        for command in ("run", "validate"):
            assert main([command, cfg, "--quiet"]) == 2
            err = capsys.readouterr().err
            assert "grid.points_per_dim: the solve transforms a lattice of 2048^3" in err
            assert "256 MiB limit" in err
        assert not out.exists()

    def test_step_budget_is_a_config_error(self, tmp_path, capsys):
        # the smalldata-1d workload, whose 3,000 steps on 14,336 padded
        # points are far inside the budget, at a dt that would take 3e302
        out = tmp_path / "out"
        doc = {
            "scenario": "nonlinear-smalldata",
            "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
            "grid": {"n": 1, "points_per_dim": 4096, "box_length": 400.0 * math.pi},
            "data": {"kind": "gaussian", "width": 1.0, "amplitude": 0.01},
            "run": {"scheme": "etd2", "dt": 0.1, "t_end": 300.0},
            "fit": {"window": [10.0, 150.0], "l_list": [0.0, 0.25, 0.5, 0.75, 1.0],
                    "tolerance": 0.05},
            "output_dir": str(out),
        }
        assert main(["validate", _write(tmp_path, doc), "--quiet"]) == 0
        doc["run"]["dt"] = 1e-300
        cfg = _write(tmp_path, doc)
        for command in ("run", "validate"):
            assert main([command, cfg, "--quiet"]) == 2
            assert "run.dt: 3e+302 steps on 14336^1 padded points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fit, message", [
        ({"l_list": [0.0, 1.0]}, "l grid too coarse"),
        ({"l_list": [0.0, 0.25, 0.5, 0.75, 1.0], "s": 2.0},
         "insufficient l coverage for s=2"),
    ], ids=["coarse", "short"])
    def test_l_list_the_functionals_cannot_use_is_a_config_error(self, tmp_path, capsys,
                                                                 fit, message):
        # the weighted functionals take a sup over l in [0, s] on a grid of
        # spacing <= 0.25; a run that could not form them must not solve first
        out = tmp_path / "out"
        doc = {
            "scenario": "nonlinear-smalldata",
            "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
            "grid": {"n": 1, "points_per_dim": 64, "box_length": 40.0},
            "data": {"kind": "gaussian", "width": 1.0, "amplitude": 0.01},
            "run": {"dt": 0.1, "t_end": 1.0},
            "fit": {"window": [0.5, 1.0], **fit},
            "output_dir": str(out),
        }
        cfg = _write(tmp_path, doc)
        for command in ("validate", "run"):
            assert main([command, cfg, "--quiet"]) == 2
            assert f"fit.l_list: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_linear_convergence_study_is_a_config_error(self, tmp_path, capsys):
        # a linear run jumps exactly and ignores dt, so its three solves agree
        # and the Richardson differences vanish
        out = tmp_path / "out"
        doc = _scenario_config("convergence-study", out)
        doc["run"]["enable_nonlinearity"] = False
        cfg = _write(tmp_path, doc)
        for command in ("run", "validate"):
            assert main([command, cfg, "--quiet"]) == 2
            assert "run.enable_nonlinearity:" in capsys.readouterr().err
        assert not out.exists()
        doc["run"]["enable_nonlinearity"] = True
        assert main(["validate", _write(tmp_path, doc), "--quiet"]) == 0

    def test_nonlinear_linear_decay_is_a_config_error(self, tmp_path, capsys):
        # the cross check compares a linear solve with the oracle: the key
        # defaults to false there, and true is refused rather than ignored
        out = tmp_path / "out"
        doc = _scenario_config("linear-decay", out)
        assert parse_config(doc).run.enable_nonlinearity is False
        doc["run"]["enable_nonlinearity"] = True
        cfg = _write(tmp_path, doc)
        for command in ("run", "validate"):
            assert main([command, cfg, "--quiet"]) == 2
            assert "run.enable_nonlinearity: linear-decay" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, section", [
        (scenario, section) for scenario, sections in _README_SCENARIOS.items()
        if sections == "refused" for section in ("grid", "run")])
    def test_section_the_scenario_does_not_read_is_a_config_error(
            self, tmp_path, capsys, scenario, section):
        out = tmp_path / "out"
        doc = _scenario_config(scenario, out)
        doc[section] = _scenario_config("convergence-study", out)[section]
        cfg = _write(tmp_path, doc)
        for command in ("run", "validate"):
            assert main([command, cfg, "--quiet"]) == 2
            assert f"{section}: not read by {scenario}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["run", "grid"])
    def test_optional_sections_come_together(self, tmp_path, capsys, missing):
        # linear-decay's solver cross check needs both; one alone used to be
        # ignored, skipping the check without a word
        out = tmp_path / "out"
        doc = _scenario_config("linear-decay", out)
        del doc[missing]
        cfg = _write(tmp_path, doc)
        for command in ("run", "validate"):
            assert main([command, cfg, "--quiet"]) == 2
            assert f"{missing}: required field missing" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_dealias_fraction_key_is_a_config_error(self, tmp_path, capsys):
        # padding is the only dealiasing rule; an old band-mask setting must
        # not run quietly with different numbers
        out = tmp_path / "out"
        doc = {
            "scenario": "nonlinear-smalldata",
            "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
            "grid": {"n": 1, "points_per_dim": 64, "box_length": 40.0},
            "data": {"kind": "gaussian", "width": 1.0, "amplitude": 0.01},
            "run": {"dt": 0.1, "t_end": 1.0, "dealias_fraction": 0.5},
            "fit": {"window": [0.5, 1.0], "l_list": [0.0]},
            "output_dir": str(out),
        }
        assert main(["run", _write(tmp_path, doc), "--quiet"]) == 2
        assert "run.dealias_fraction" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario", list(_SCENARIOS))
    def test_unknown_data_kind_creates_no_directory(self, tmp_path, capsys, scenario):
        # a periodic cosine is not in L1 of the whole space, so no decay
        # rate of the theory applies to it: every run starts from a profile
        out = tmp_path / "out"
        doc = _scenario_config(scenario, out)
        doc["data"] = {"kind": "single_mode", "k": 1, "amplitude": 1.0}
        cfg = _write(tmp_path, doc)
        for command in ("validate", "run"):
            assert main([command, cfg, "--quiet"]) == 2
            assert "data.kind: unknown kind 'single_mode'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, key, value", [
        # one value for the two orders of l_list
        ("linear-decay", "tolerance", [0.02]),
        # a third value would go unused
        ("linear-decay", "tolerance", [0.02, 0.02, 0.02]),
        # the decay fit needs 8
        ("linear-decay", "n_samples", 7),
        # the oracle holds all fit times in one batch, about 75 KB each
        ("linear-decay", "n_samples", MAX_FIT_SAMPLES + 1),
        ("regularity-loss-probe", "n_samples", MAX_FIT_SAMPLES + 1),
        # past t_end = 10: the run samples no time in the window
        ("nonlinear-smalldata", "window", [50.0, 100.0]),
        # a list, though the orders l <= n0 that read it share one value
        ("regularity-loss-probe", "tolerance", [0.05, 0.05]),
    ], ids=["short-tolerance-list", "long-tolerance-list", "too-few-samples",
            "too-many-samples", "regularity-loss-too-many-samples",
            "window-past-t_end", "regularity-loss-tolerance-list"])
    def test_unusable_fit_value_is_a_config_error(self, tmp_path, capsys,
                                                  scenario, key, value):
        out = tmp_path / "out"
        doc = (_smalldata_config(out) if scenario == "nonlinear-smalldata"
               else {**_linear_config(out, l_list=(0.0, 1.0)), "scenario": scenario})
        doc["fit"][key] = value
        cfg = _write(tmp_path, doc)
        for command in ("validate", "run"):
            assert main([command, cfg, "--quiet"]) == 2
            assert f"fit.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, data", [
        ("linear-decay", {"kind": "gaussian", "width": 1.0}),
        ("regularity-loss-probe", {"kind": "power_tail", "exponent": 4.6}),
        ("nonlinear-smalldata", {"kind": "gaussian", "width": 1.0}),
        ("lemma-verification", {"kind": "gaussian", "width": 1.0}),
        ("convergence-study", {"kind": "gaussian", "width": 1.0}),
    ], ids=lambda case: case if isinstance(case, str) else case["kind"])
    def test_zero_amplitude_is_a_config_error(self, tmp_path, capsys, scenario, data):
        # zero data has no decay to fit and no gain to probe: each scenario
        # would otherwise fail deep in its run, after solving
        out = tmp_path / "out"
        doc = _scenario_config(scenario, out)
        doc["data"] = {**data, "amplitude": 0.0}
        cfg = _write(tmp_path, doc)
        for command in ("validate", "run"):
            assert main([command, cfg, "--quiet"]) == 2
            assert "data.amplitude: zero data" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("tolerance", "0.05x"),
        ("n_samples", "12"),
        ("n_samples", 12.5),
        ("window", [100, "x"]),
        ("gap_min", "0.1"),
    ], ids=["tolerance", "n_samples", "fractional-n_samples", "window", "gap_min"])
    def test_mistyped_fit_value_is_a_config_error(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        doc = _linear_config(out, l_list=(0.0, 1.0))
        doc["fit"][key] = value
        assert main(["run", _write(tmp_path, doc), "--quiet"]) == 2
        assert f"fit.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path, value", [
        ("fit.window[1]", math.inf),
        ("fit.tolerance", math.nan),
        ("fit.s", math.inf),
        ("model.m", math.inf),
        ("grid.box_length", math.inf),
        ("run.t_end", math.inf),
        ("data.amplitude", math.nan),
        ("run.sample_times[0]", -math.inf),
    ])
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, path, value):
        # json.load reads NaN, Infinity and -Infinity; none of them may run
        message = f"{path}: expected a finite number, got {value!r}"
        self._assert_smalldata_refused(tmp_path, capsys, path, value, message)

    @pytest.mark.parametrize("path, value, message", [
        ("run.enable_nonlinearity", "no",
         "run.enable_nonlinearity: expected true or false, got 'no'"),
        ("run.dt", "0.1", "run.dt: expected a number, got '0.1'"),
        ("run.sample_times", "abc", "run.sample_times: expected a list of numbers"),
        ("data.width", "abc", "data.width: expected a number, got 'abc'"),
        ("data.amplitude", "x", "data.amplitude: expected a number, got 'x'"),
        ("data.width", -1, "data: width must be positive"),
        ("grid.n", "1", "grid.n: expected a number, got '1'"),
        ("grid.points_per_dim", "64", "grid.points_per_dim: expected a number, got '64'"),
        ("grid.points_per_dim", 64.5, "grid.points_per_dim: expected a whole number, got 64.5"),
        ("grid.box_length", "64", "grid.box_length: expected a number, got '64'"),
        ("model.n", "1", "model.n: expected a number, got '1'"),
        ("model.alpha", "1", "model.alpha: expected a number, got '1'"),
        ("model.theta", 5.5, "model.theta: expected a whole number, got 5.5"),
        ("output_dir", 5, "output_dir: expected a string, got 5"),
    ])
    def test_mistyped_run_or_data_value_is_a_config_error(self, tmp_path, capsys,
                                                          path, value, message):
        # a non-empty string must not pass for true, nor a string for a
        # number, nor a fraction for a count
        self._assert_smalldata_refused(tmp_path, capsys, path, value, message)

    @staticmethod
    def _assert_smalldata_refused(tmp_path, capsys, path, value, message):
        """The smoke-sized smalldata config with `path` set to `value` exits 2
        from run and validate with `message`, and writes nothing."""
        out = tmp_path / "out"
        doc = {
            "scenario": "nonlinear-smalldata",
            "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
            "grid": {"n": 1, "points_per_dim": 64, "box_length": 64.0},
            "data": {"kind": "gaussian", "width": 1.0, "amplitude": 0.01},
            # 8 sample times in the window: the base parses, so only `path` is refused
            "run": {"scheme": "etd2", "dt": 0.5, "t_end": 8.0,
                    "sample_times": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]},
            "fit": {"window": [1.0, 8.0], "l_list": [0.0], "tolerance": 10.0},
            "output_dir": str(out),
        }
        parse_config(doc)
        *outer, last = [int(k) if k.isdigit() else k for k in re.findall(r"\w+", path)]
        target = doc
        for key in outer:
            target = target[key]
        target[last] = value
        cfg = _write(tmp_path, doc)
        assert main(["run", cfg, "--quiet"]) == 2
        assert message in capsys.readouterr().err
        assert main(["validate", cfg, "--quiet"]) == 2
        assert message in capsys.readouterr().err
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_scenario(doc, quiet=True)
        assert not out.exists()

    @pytest.mark.parametrize("key", sorted(_PINNED_FIT_SETTINGS))
    def test_pinned_fit_setting_is_a_config_error(self, tmp_path, capsys, key):
        # these thresholds are fixed by the acceptance criteria; a config that
        # sets one, even to the pinned value, is refused rather than obeyed
        out = tmp_path / "out"
        doc = _linear_config(out)
        doc["fit"][key] = _PINNED_FIT_SETTINGS[key]
        assert main(["run", _write(tmp_path, doc), "--quiet"]) == 2
        assert f"fit.{key}: unknown key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, key", [
        (scenario, key) for scenario in _README_SCENARIOS
        for key, readers in _README_FIT_READERS.items() if scenario not in readers])
    def test_fit_key_the_scenario_does_not_read_is_a_config_error(
            self, tmp_path, capsys, scenario, key):
        # a setting with no effect must not look as if it took one
        out = tmp_path / "out"
        doc = _scenario_config(scenario, out)
        doc["fit"][key] = _FIT_VALUES[key]
        assert main(["run", _write(tmp_path, doc), "--quiet"]) == 2
        assert f"fit.{key}: not read by {scenario}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, pinned, other", [
        ("gap_min", 0.1, 0.0),  # 0 would pass any loss gap
        ("beta", 1.0, 2.0),
    ])
    def test_pinned_fit_value_cannot_change(self, tmp_path, capsys, key, pinned, other):
        # still accepted at the pinned value, which some configs state
        doc = _linear_config(tmp_path / "out")
        doc["fit"][key] = pinned
        parse_config(doc)
        doc["fit"][key] = other
        assert main(["run", _write(tmp_path, doc), "--quiet"]) == 2
        assert f"fit.{key}: pinned at {pinned:g}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_dir_under_a_file_is_a_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("keep")
        message = f"config error: output_dir: {blocker} exists and is not a directory\n"
        for out in (blocker, blocker / "out"):
            doc = _smalldata_config(out)
            for command in ("run", "validate"):
                assert main([command, _write(tmp_path, doc), "--quiet"]) == 2
                assert capsys.readouterr().err == message
            # run checks the directory it will write: --output-dir's, not the config's
            doc["output_dir"] = str(tmp_path / "free")
            assert main(["run", _write(tmp_path, doc), "--quiet", "--output-dir", str(out)]) == 2
            assert capsys.readouterr().err == message
        assert blocker.read_text() == "keep"
        assert not (tmp_path / "free").exists()

    def test_tight_tolerance_forces_failure(self, tmp_path):
        out = tmp_path / "out"
        doc = _linear_config(out, l_list=(0.0, 1.0), tolerance=[1e-5, 1e-5])
        assert main(["run", _write(tmp_path, doc), "--quiet"]) == 1
        verdicts = json.loads((out / "summary.json").read_text())["verdicts"]
        decay = [v for v in verdicts if v["name"].startswith("decay(")]
        assert [(v["lo"], v["hi"]) for v in decay] == [(-1e-5, 1e-5)] * 2
        assert not any(v["pass"] for v in decay)

    @pytest.mark.parametrize("t1, code", [(10.4, 0), (10.6, 2)])
    def test_fit_window_past_the_horizon_is_a_config_error(self, tmp_path, capsys, t1, code):
        # the box's contamination horizon is 10.475: a solver fit past it
        # measures the periodic box, not the whole space
        out = tmp_path / "out"
        doc = _smalldata_config(out)
        doc["run"]["t_end"] = 12.0
        doc["fit"]["window"] = [1.0, t1]
        cfg = _write(tmp_path, doc)
        assert main(["validate", cfg, "--quiet"]) == code
        if code:
            assert "fit.window: [1, 10.6] ends past the contamination horizon 10.4753" \
                in capsys.readouterr().err
            assert main(["run", cfg, "--quiet"]) == 2
            assert not out.exists()

    def test_linear_sample_times_past_the_horizon_are_a_config_error(self, tmp_path, capsys):
        # solver-vs-oracle compares the samples inside the horizon; with none
        # there it would compare nothing and pass
        out = tmp_path / "out"
        doc = _scenario_config("linear-decay", out)
        doc["grid"]["box_length"] = 16.0  # contamination horizon 0.748
        doc["run"].update(t_end=30.0, sample_times=[3.0])
        cfg = _write(tmp_path, doc)
        for command in ("run", "validate"):
            assert main([command, cfg, "--quiet"]) == 2
            assert "run.sample_times: none lies in (0, 0.748456]" in capsys.readouterr().err
        assert not out.exists()
        doc["run"]["sample_times"] = [0.5, 3.0]
        assert main(["validate", _write(tmp_path, doc), "--quiet"]) == 0

    @pytest.mark.parametrize("scenario, message", [
        ("linear-decay", "run.sample_times: none lies in (0, 4.15285]"),
        ("nonlinear-smalldata", "fit.window: [0.5, 1] holds 0 of the run's sample times"),
    ], ids=["linear-decay", "nonlinear-smalldata"])
    def test_zero_t_end_without_sample_times_is_a_config_error(self, tmp_path, capsys,
                                                               scenario, message):
        # a run that ends at t = 0 gets no geometric default sample times,
        # so none lies where the scenario compares or fits
        out = tmp_path / "out"
        doc = _scenario_config(scenario, out)
        parse_config(doc)
        doc["run"]["t_end"] = 0.0
        cfg = _write(tmp_path, doc)
        for command in ("validate", "run"):
            assert main([command, cfg, "--quiet"]) == 2
            assert message in capsys.readouterr().err
        assert not out.exists()

    def test_output_dir_flag_wins(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = _write(tmp_path, _linear_config(out_a))
        main(["run", cfg, "--quiet", "--output-dir", str(out_b)])
        assert (out_b / "summary.json").exists()
        assert not out_a.exists()

    def test_numerical_failure_exit_code(self, tmp_path):
        out = tmp_path / "out"
        doc = {
            "scenario": "linear-decay",
            "model": {"n": 1, "m": 1.0, "alpha": 0.5, "theta": 3},
            # Lam^2 of a r^-1 power tail diverges: oracle must refuse
            "data": {"kind": "power_tail", "exponent": 1.0, "amplitude": 1.0},
            "fit": {"window": [100.0, 10000.0], "l_list": [0.0, 2.0], "n_samples": 12},
            "output_dir": str(out),
        }
        assert main(["run", _write(tmp_path, doc), "--quiet"]) == 3
        # l=0 succeeds before l=2 fails; a failed run leaves no directory
        assert not out.exists()

    @pytest.mark.parametrize("amplitude, t", [(2.0, "0.530383"), (1e160, "0")])
    def test_gradual_blowup_exits_3_without_a_warning(self, tmp_path, capsys,
                                                       amplitude, t):
        # at amplitude 2 the smoke-sized smalldata state is finite at the
        # first default sample past t = 0.5, t = 0.530383 (max |u_k| ~ 1e185),
        # but its squared modulus overflows: that clipped step is the
        # blow-up; at 1e160 the initial state's already does.  No overflow
        # warning may escape on the way.
        doc = {
            "scenario": "nonlinear-smalldata",
            "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
            "grid": {"n": 1, "points_per_dim": 64, "box_length": 64.0},
            "data": {"kind": "gaussian", "width": 1.0, "amplitude": amplitude},
            "run": {"scheme": "etd2", "dt": 0.5, "t_end": 8.0},
            "fit": {"window": [1.0, 8.0], "l_list": [0.0], "tolerance": 10.0},
            "output_dir": str(tmp_path / "out"),
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", _write(tmp_path, doc), "--quiet"]) == 3
        assert [str(w.message) for w in caught] == []
        assert f"non-finite state detected at t={t}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, message", [
        ("smoke/smalldata", "series has nonpositive values inside the fit window"),
        ("oracle-fits/linear-decay", "series has nonpositive values inside the fit window"),
        ("oracle-fits/regularity-loss", "series has nonpositive values inside the fit window"),
        ("oracle-fits/lemma-gain", "gain-regime probe needs >= 3 sample times with "
                                   "nonzero high-band norm"),
        ("oracle-fits/lemma-loss", "profile has zero ||Lam^(beta+l) phi|| norm"),
    ], ids=["smalldata", "linear-decay", "regularity-loss", "lemma-gain", "lemma-loss"])
    def test_norms_that_underflow_to_zero_exit_3(self, tmp_path, capsys, config, message):
        # nonzero data so small that the norms fit or probed underflow to 0
        doc = json.loads((WORKLOADS / f"{config}.json").read_text())
        doc["data"]["amplitude"] = 1e-300
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["run", _write(tmp_path, doc), "--quiet"]) == 3
        assert capsys.readouterr().err == f"numerical failure: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("config, l_list, order", [
        ("smoke/smalldata", [0.0, 0.0], "0"),
        ("oracle-fits/regularity-loss", [0.0, 0.5, 1.0, 1.5, 4.0, 4.0], "4"),
    ])
    def test_repeated_order_is_a_config_error(self, tmp_path, capsys, command, config,
                                              l_list, order):
        # one verdict per order and name: a repeat would be fitted and judged twice
        doc = json.loads((WORKLOADS / f"{config}.json").read_text())
        doc["fit"]["l_list"] = l_list
        doc["output_dir"] = str(tmp_path / "out")
        assert main([command, _write(tmp_path, doc), "--quiet"]) == 2
        assert capsys.readouterr().err == (f"config error: fit.l_list: order {order} "
                                           f"is listed more than once\n")
        assert not (tmp_path / "out").exists()

    def test_determinism_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = _write(tmp_path, _linear_config(out_a))
        main(["run", cfg, "--quiet"])
        main(["run", cfg, "--quiet", "--output-dir", str(out_b)])
        assert (out_a / "series_l0_full.csv").read_bytes() == \
            (out_b / "series_l0_full.csv").read_bytes()
        assert (out_a / "plot_series.py").read_bytes() == \
            (out_b / "plot_series.py").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        # the wall time, the one number reruns change, is kept apart
        for out in (out_a, out_b):
            assert list(json.loads((out / "timing.json").read_text())) == ["wall_clock_s"]
            assert "wall_clock_s" not in json.loads((out / "summary.json").read_text())

    def test_determinism_byte_identical_nonlinear_3d(self, tmp_path):
        # the padded transforms of a 3-D nonlinear run: 8^3 lattice, 28^3 padded
        doc = {
            "scenario": "convergence-study",
            "model": {"n": 3, "m": 1.0, "alpha": 1.0, "theta": 5},
            "grid": {"n": 3, "points_per_dim": 8, "box_length": 8.0},
            "data": {"kind": "gaussian", "width": 1.0, "amplitude": 1.0},
            "run": {"scheme": "etd2", "dt": 0.2, "t_end": 0.4},
        }
        cfg = _write(tmp_path, doc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["run", cfg, "--quiet", "--output-dir", str(out)]) == 0
        assert (out_a / "plot_series.py").read_bytes() == \
            (out_b / "plot_series.py").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    @pytest.mark.parametrize("section, key, misspelt", [
        ("run", "scheme", "sheme"),
        ("fit", "tolerance", "tolerence"),
        ("data", "width", "widht"),
        (None, "grid", "grdi"),
    ])
    def test_misspelt_key_is_a_config_error(self, tmp_path, capsys, section, key,
                                            misspelt):
        # a misspelt option must not run quietly with its default value
        out = tmp_path / "out"
        doc = {
            "scenario": "nonlinear-smalldata",
            "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
            "grid": {"n": 1, "points_per_dim": 64, "box_length": 40.0},
            "data": {"kind": "gaussian", "width": 1.0, "amplitude": 0.01},
            "run": {"scheme": "etd1", "dt": 0.1, "t_end": 1.0},
            "fit": {"window": [0.5, 1.0], "l_list": [0.0], "tolerance": 0.1},
            "output_dir": str(out),
        }
        target = doc if section is None else doc[section]
        target[misspelt] = target.pop(key)
        assert main(["run", _write(tmp_path, doc), "--quiet"]) == 2
        path = misspelt if section is None else f"{section}.{misspelt}"
        assert f"{path}: unknown key" in capsys.readouterr().err
        assert not out.exists()


class TestOtherCommands:
    def test_validate(self, tmp_path, capsys):
        cfg = _write(tmp_path, _linear_config(tmp_path / "o"))
        assert main(["validate", cfg]) == 0
        out = capsys.readouterr().out
        assert '"regime": "gain"' in out

    @pytest.mark.parametrize("case, s", [
        ("fit.s", 3.0), ("max(l_list)", 1.0), ("no l_list", 1.0)])
    def test_validate_and_run_report_the_same_regime(self, tmp_path, capsys, case, s):
        out = tmp_path / "out"
        if case == "no l_list":
            doc = {
                "scenario": "convergence-study",
                "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 1},
                "grid": {"n": 1, "points_per_dim": 64, "box_length": 40.0},
                "data": {"kind": "gaussian", "width": 1.0, "amplitude": 0.3},
                "run": {"scheme": "etd1", "dt": 0.2, "t_end": 4.0},
                "output_dir": str(out),
            }
        else:
            doc = _linear_config(out, l_list=(0.0, 1.0))
            if case == "fit.s":
                doc["fit"]["s"] = s
        cfg = _write(tmp_path, doc)
        assert main(["validate", cfg]) == 0
        printed = json.loads(capsys.readouterr().out)["regime"]
        assert printed["s"] == s
        assert main(["run", cfg, "--quiet"]) == 0
        assert json.loads((out / "summary.json").read_text())["regime"] == printed

    def test_validate_bad_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[]")
        assert main(["validate", str(path)]) == 2

    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out.split()
        assert "linear-decay" in out and "convergence-study" in out


class TestScenarios:
    def test_convergence_study(self, tmp_path):
        doc = {
            "scenario": "convergence-study",
            "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 1},
            "grid": {"n": 1, "points_per_dim": 128, "box_length": 100.0},
            "data": {"kind": "gaussian", "width": 1.0, "amplitude": 0.2},
            "run": {"scheme": "etd2", "dt": 0.2, "t_end": 4.0},
            "output_dir": str(tmp_path / "out"),
        }
        summary = run_scenario(doc, quiet=True)
        assert summary.all_pass
        assert 1.7 <= summary.functionals["observed_order"] <= 2.3

    def test_convergence_study_etd1(self, tmp_path):
        doc = {
            "scenario": "convergence-study",
            "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 1},
            "grid": {"n": 1, "points_per_dim": 64, "box_length": 40.0},
            "data": {"kind": "gaussian", "width": 1.0, "amplitude": 0.3},
            "run": {"scheme": "etd1", "dt": 0.2, "t_end": 4.0},
            "output_dir": str(tmp_path / "out"),
        }
        summary = run_scenario(doc, quiet=True)
        assert summary.all_pass
        assert 0.7 <= summary.functionals["observed_order"] <= 1.3

    @pytest.mark.parametrize("N, L, deviation", [
        # an exact linear solve on a resolved box: rounding noise, ~3e-16
        (1024, 200.0, DEVIATION_NOISE),
        # a box too small for the data: a real deviation keeps its digits
        (64, 40.0, 7.647e-10),
    ])
    def test_solver_vs_oracle_value_hides_rounding_noise(self, tmp_path, N, L, deviation):
        doc = _linear_config(tmp_path / "out")
        doc["grid"] = {"n": 1, "points_per_dim": N, "box_length": L}
        doc["run"] = {"scheme": "etd2", "dt": 2.0, "t_end": 10000.0,
                      "enable_nonlinearity": False}
        summary = run_scenario(doc, quiet=True)
        [verdict] = [v for v in summary.verdicts if v["name"] == "solver-vs-oracle"]
        assert verdict["pass"]
        if deviation == DEVIATION_NOISE:  # floored, so no ulp of the noise is recorded
            assert verdict["value"] == DEVIATION_NOISE
        else:
            assert f"{verdict['value']:.4g}" == f"{deviation:.4g}"

    def test_single_mode_is_an_unknown_data_kind(self, tmp_path):
        doc = _linear_config(tmp_path / "out")
        doc["data"] = {"kind": "single_mode", "k": 1, "amplitude": 1.0}
        with pytest.raises(ConfigError, match="data.kind: unknown kind 'single_mode'"):
            run_scenario(doc, quiet=True)
        assert not (tmp_path / "out").exists()

    def test_lemma_verification_gain(self, tmp_path):
        doc = {
            "scenario": "lemma-verification",
            "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
            "data": {"kind": "gaussian", "width": 0.5, "amplitude": 1.0},
            "fit": {"window": [1.0, 10000.0], "l_list": [0.0], "falsify": True},
            "output_dir": str(tmp_path / "out"),
        }
        summary = run_scenario(doc, quiet=True)
        assert summary.all_pass
        names = {v["name"] for v in summary.verdicts}
        assert {"low-band(l=0)", "high-band(l=0)", "falsification(l=0)"} <= names

    def test_nonlinear_smalldata_small_box(self, tmp_path):
        doc = {
            "scenario": "nonlinear-smalldata",
            "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
            "grid": {"n": 1, "points_per_dim": 1024,
                     "box_length": 200.0 * math.pi},
            "data": {"kind": "gaussian", "width": 1.0, "amplitude": 0.01},
            "run": {"scheme": "etd2", "dt": 0.1, "t_end": 200.0},
            "fit": {"window": [10.0, 200.0],
                    "l_list": [0.0, 0.25, 0.5, 0.75, 1.0], "tolerance": 0.1},
            "output_dir": str(tmp_path / "out"),
        }
        summary = run_scenario(doc, quiet=True)
        assert summary.all_pass
        assert summary.functionals["m1_over_e0"] < 1.0
        assert (tmp_path / "out" / "functional_m1.csv").exists()

    def test_nonlinear_smalldata_loss_regime_numbers(self, tmp_path):
        # the only nonlinear alpha < 1 run, the one whose functionals read
        # record's band rows (e and l).  Its window is pre-asymptotic, so its
        # verdicts fail: only its numbers are pinned, at 1e-12 relative.
        # energy_residual is a roundoff-level cancellation and is left out.
        doc = {
            "scenario": "nonlinear-smalldata",
            "model": {"n": 1, "m": 1.0, "alpha": 0.5, "theta": 3},
            "grid": {"n": 1, "points_per_dim": 1024, "box_length": 700.0},
            "data": {"kind": "gaussian", "width": 1.0, "amplitude": 0.5},
            "run": {"scheme": "etd2", "dt": 0.1, "t_end": 10.0},
            "fit": {"window": [1.0, 10.0], "l_list": [0.25 * k for k in range(9)],
                    "s": 2.0},
            "output_dir": str(tmp_path / "out"),
        }
        functionals = run_scenario(doc, quiet=True).functionals
        want = {"e_final": 0.9356693100728184, "l_final": 0.9840808823176608,
                "m1_final": 6.139246405252379, "m2_final": 0.8277920910650194,
                "e0": 2.3572146831466476}
        for key, value in want.items():
            assert functionals[key] == pytest.approx(value, rel=1e-12, abs=0.0), key


class TestVerdictControls:
    """Each verdict on both sides of its bound, from a committed workload
    config whose own run sits on the passing side."""

    @pytest.mark.parametrize("growth, ok", [(1.04, True), (1.06, False)])
    def test_m1_stability_fails_past_its_growth_allowance(self, tmp_path, monkeypatch,
                                                          growth, ok):
        # m1 is flat over the smoke run's second half: scaled there by
        # `growth`, m1(t_end) / m1(t_end / 2) reads `growth`
        doc = json.loads((WORKLOADS / "smoke" / "smalldata.json").read_text())
        half = doc["run"]["t_end"] / 2.0
        real = scenarios.weighted_functionals

        def grown(*args):
            wf = real(*args)
            return wf._replace(m1=np.where(wf.times > half, growth * wf.m1, wf.m1))
        monkeypatch.setattr(scenarios, "weighted_functionals", grown)
        summary = run_scenario(doc, output_dir=tmp_path / "out", quiet=True)
        [verdict] = [v for v in summary.verdicts if v["name"] == "m1-stability"]
        assert verdict["value"] == growth
        assert verdict["pass"] is ok

    @pytest.mark.parametrize("r_squared, ok", [(0.99, False), (0.996, True)])
    def test_power_law_fails_below_its_r_squared_floor(self, tmp_path, monkeypatch,
                                                       r_squared, ok):
        doc = json.loads((WORKLOADS / "oracle-fits" / "linear-decay.json").read_text())
        real = scenarios.fit_decay
        monkeypatch.setattr(scenarios, "fit_decay", lambda times, values, window: real(
            times, values, window)._replace(r_squared=r_squared))
        summary = run_scenario(doc, output_dir=tmp_path / "out", quiet=True)
        verdicts = [v for v in summary.verdicts if v["name"].startswith("power-law(")]
        assert [v["name"] for v in verdicts] == ["power-law(l=0)", "power-law(l=1)"]
        assert all(v["value"] == r_squared and v["pass"] is ok for v in verdicts)


    @pytest.mark.parametrize("offset_ignored, ok", [(True, False), (False, True)])
    def test_falsification_fails_when_the_probe_ignores_its_rate_offset(
            self, tmp_path, monkeypatch, offset_ignored, ok):
        # without its 0.1 over-weighting the falsified probe is the real one,
        # whose tail slope sits near zero, inside the band it must leave
        doc = json.loads((WORKLOADS / "oracle-fits" / "lemma-gain.json").read_text())
        real = scenarios.probe_low_band
        if offset_ignored:
            monkeypatch.setattr(scenarios, "probe_low_band",
                                lambda profile, l, times, params, rate_offset=0.0:
                                real(profile, l, times, params))
        summary = run_scenario(doc, output_dir=tmp_path / "out", quiet=True)
        verdicts = [v for v in summary.verdicts if v["name"].startswith("falsification(")]
        assert [v["name"] for v in verdicts] == ["falsification(l=0)", "falsification(l=1)"]
        assert all(v["pass"] is ok for v in verdicts)

    @pytest.mark.parametrize("skew, ok", [(4.0, False), (0.5, True)])
    def test_oracle_tolerance_halving_fails_past_tol(self, tmp_path, monkeypatch, skew, ok):
        # the tol/2 squared norms scaled by 1 + skew tol move each norm by
        # about skew/2 tol: past tol the halving check must refuse the run
        doc = json.loads((WORKLOADS / "oracle-fits" / "regularity-loss.json").read_text())
        real = oracle._weighted_integral

        def skewed(*args):
            at_tol, at_half = real(*args)
            return at_tol, at_half * (1.0 + skew * args[-1])  # args[-1] is tol
        monkeypatch.setattr(oracle, "_weighted_integral", skewed)
        if ok:
            assert run_scenario(doc, output_dir=tmp_path / "out", quiet=True).all_pass
        else:
            with pytest.raises(OracleConvergenceError, match="tolerance-halving check failed"):
                run_scenario(doc, output_dir=tmp_path / "out", quiet=True)

    @staticmethod
    def _verdict(summary, name):
        """The verdict `name` and its margin: positive inside the bounds."""
        [verdict] = [v for v in summary.verdicts if v["name"] == name]
        lo, hi = verdict["lo"], verdict["hi"]
        value = verdict["value"]
        margin = min(value - lo if lo is not None else math.inf,
                     hi - value if hi is not None else math.inf)
        return verdict, margin

    @pytest.mark.parametrize("shift, ok", [(0.03, False), (0.01, True), (-0.01, True),
                                           (-0.03, False)])
    def test_decay_fails_outside_its_tolerance(self, tmp_path, monkeypatch, shift, ok):
        # decay(l=0) reads slope - theory, -0.00053 on this config, within
        # +-0.02: the theory moved by `shift` carries it past either bound
        doc = json.loads((WORKLOADS / "oracle-fits" / "linear-decay.json").read_text())
        real = scenarios.decay_exponent
        monkeypatch.setattr(scenarios, "decay_exponent",
                            lambda l, params: real(l, params) + (shift if l == 0 else 0.0))
        summary = run_scenario(doc, output_dir=tmp_path / "out", quiet=True)
        verdict, margin = self._verdict(summary, "decay(l=0)")
        assert (margin > 0) is ok and verdict["pass"] is ok
        assert self._verdict(summary, "decay(l=1)")[0]["pass"]

    @pytest.mark.parametrize("d, ok", [(5e-5, True), (2e-4, False)])
    def test_solver_vs_oracle_fails_past_its_match_tolerance(self, tmp_path, monkeypatch,
                                                             d, ok):
        # the solver meets the oracle to rounding noise here: the oracle's
        # norms scaled by 1 + d set the deviation to about d, against 1e-4
        doc = json.loads((WORKLOADS / "oracle-fits" / "linear-decay.json").read_text())
        real = scenarios.radial_weighted_l2
        monkeypatch.setattr(scenarios, "radial_weighted_l2",
                            lambda *args: real(*args) * (1.0 + d))
        summary = run_scenario(doc, output_dir=tmp_path / "out", quiet=True)
        verdict, margin = self._verdict(summary, "solver-vs-oracle")
        assert (margin > 0) is ok and verdict["pass"] is ok
        assert verdict["value"] == pytest.approx(d, rel=1e-3)

    @pytest.mark.parametrize("shift, ok", [(4.2, True), (4.35, False)])
    def test_loss_gap_fails_below_its_floor(self, tmp_path, monkeypatch, shift, ok):
        # loss-gap(l=4) reads slope - theory, 4.39983 on this config, against
        # lo = 0.1: the theory raised by `shift` leaves 0.19983 or 0.04983
        doc = json.loads((WORKLOADS / "oracle-fits" / "regularity-loss.json").read_text())
        real = scenarios.decay_exponent
        monkeypatch.setattr(scenarios, "decay_exponent",
                            lambda l, params: real(l, params) + (shift if l == 4 else 0.0))
        summary = run_scenario(doc, output_dir=tmp_path / "out", quiet=True)
        verdict, margin = self._verdict(summary, "loss-gap(l=4)")
        assert (margin > 0) is ok and verdict["pass"] is ok

    @pytest.mark.parametrize("log2_scale, ok", [(0.3, False), (0.2, True), (-0.3, True),
                                                (-0.4, False)])
    def test_observed_order_fails_outside_its_band(self, tmp_path, monkeypatch,
                                                   log2_scale, ok):
        # observed-order is log2(e1 / e2), 1.93865 on this config, within
        # [1.7, 2.3]: e2 scaled by 2^log2_scale lowers it by log2_scale
        doc = json.loads((WORKLOADS / "convergence-3d" / "convergence.json").read_text())
        real = scenarios.sg.lattice_norm
        calls = []

        def scaled(half):
            calls.append(half)
            return real(half) * (2.0 ** log2_scale if len(calls) == 2 else 1.0)
        monkeypatch.setattr(scenarios.sg, "lattice_norm", scaled)
        summary = run_scenario(doc, output_dir=tmp_path / "out", quiet=True)
        assert len(calls) == 2
        verdict, margin = self._verdict(summary, "observed-order")
        assert (margin > 0) is ok and verdict["pass"] is ok


class TestCheck:
    @pytest.mark.parametrize("value, lo, hi, ok", [
        (0.5, 0.0, None, True), (-0.5, 0.0, None, False),                      # lo only
        (0.5, None, 1.0, True), (1.5, None, 1.0, False),                       # hi only
        (0.5, 0.0, 1.0, True), (-0.5, 0.0, 1.0, False), (1.5, 0.0, 1.0, False),  # a band
        (0.0, 0.0, 1.0, True), (1.0, 0.0, 1.0, True),                          # equality
        (math.nan, 0.0, None, False), (math.nan, None, 1.0, False),
        (math.nan, 0.0, 1.0, False),
        (-math.inf, None, 1.0, True), (math.inf, 0.0, None, True),
        (math.inf, None, 1.0, False), (-math.inf, 0.0, 1.0, False),
    ])
    def test_passes_iff_value_lies_within_the_bounds_given(self, value, lo, hi, ok):
        summary = RunSummary("linear-decay", {}, {})
        summary.check("v", value, lo, hi)
        [verdict] = summary.verdicts
        assert sorted(verdict) == ["hi", "lo", "name", "pass", "value"]
        assert verdict["pass"] is ok and summary.all_pass is ok
        assert (verdict["lo"], verdict["hi"]) == (lo, hi)
        assert verdict["value"] == value or math.isnan(value)


class TestEmitPlots:
    def _summary(self, files):
        return {
            "fits": [
                {"series_csv": files[0], "label": "l=0", "theory": -0.25},
                {"series_csv": files[1], "label": "l=1", "theory": -0.75},
            ],
            "series_files": files,
        }

    def test_references_each_series_once(self, tmp_path):
        files = ["a.csv", "b.csv"]
        text = emit_plots(self._summary(files), tmp_path / "plot.py")
        assert text.count("'a.csv'") == 1 and text.count("'b.csv'") == 1

    def test_reference_slopes_passed_through(self, tmp_path):
        files = ["a.csv", "b.csv"]
        text = emit_plots(self._summary(files), tmp_path / "plot.py")
        assert "-0.25" in text and "-0.75" in text

    def test_regeneration_is_byte_identical(self, tmp_path):
        files = ["a.csv", "b.csv"]
        emit_plots(self._summary(files), tmp_path / "p1.py")
        emit_plots(self._summary(files), tmp_path / "p2.py")
        assert (tmp_path / "p1.py").read_bytes() == (tmp_path / "p2.py").read_bytes()


def test_program_import_leaves_heavy_scipy_subpackages_unloaded():
    # every run is a fresh process that pays for what the program imports;
    # it transforms with numpy.fft and needs no solver or linear algebra, and
    # scipy.fft alone would bring in scipy.special, numpy.f2py and numpy.testing;
    # its records are NamedTuples, whose classes cost no code generation
    heavy = ["scipy.optimize", "scipy.linalg", "scipy.integrate", "scipy.fft",
             "scipy.special", "numpy.f2py", "numpy.testing", "numpy.ma", "numpy.random",
             "dataclasses"]
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import json, sys, fpplab.cli, fpplab.scenarios; "
            f"print(json.dumps([m for m in {heavy!r} + ['scipy'] if m in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == ["scipy"]
