"""Scenario runner: JSON config in, verdicts + CSV/JSON/plot artifacts out.

Five scenarios are supported:

* ``linear-decay``          oracle decay fits per derivative order, with an
                            optional periodic-solver cross check when a grid
                            and run section are present;
* ``regularity-loss-probe`` oracle fits demonstrating the loss cap: orders
                            up to n0 match the predicted rate, the top order
                            decays strictly slower;
* ``nonlinear-smalldata``   full nonlinear run, decay fit inside the
                            contamination horizon, weighted-functional
                            boundedness checks;
* ``lemma-verification``    low/high band decay-bound probes;
* ``convergence-study``     Richardson dt, dt/2, dt/4 triplet measuring the
                            observed order of the time stepper.

Everything emitted is a deterministic function of the config, so reruns are
byte-identical on one platform.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import grid as sg
from .diagnostics import (MIN_FIT_SAMPLES, R_SQUARED_POWER_LAW, contamination_horizon,
                          fit_decay, weighted_functionals)
from .model import CUTOFF_RADIUS, ModelParams, decay_exponent, sigma, validate
from .oracle import (OracleConvergenceError, RadialProfile, gaussian_profile,
                     power_tail_profile, radial_weighted_l2)
from .propagator import probe_high_band, probe_low_band
from .solver import SolverConfig, energy_balance_residual, padding, solve

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

_ORDER_BANDS = {"etd1": (0.7, 1.3), "etd2": (1.7, 2.3)}
# Verdict thresholds; pinned here, not configurable.
SOLVER_MATCH_TOL = 1e-4  # linear-decay: solver vs oracle, max relative deviation
TAIL_SLOPE_TOL = 0.05    # lemma-verification: weighted-ratio tail slope of a band bound
R_SQUARED_EXPONENTIAL = 0.95  # lemma-verification (alpha >= 1): high-band exponential fit
RATE_MARGIN = 0.9        # lemma-verification: high-band rate >= RATE_MARGIN * sigma(2R)
M1_GROWTH_TOL = 0.05     # nonlinear-smalldata: m1 growth over the run's second half
LOSS_GAP_MIN = 0.1       # regularity-loss-probe: top order decays slower by at least this
LEMMA_BETA = 1.0         # lemma-verification (alpha < 1): derivatives spent on the high band
# linear-decay records a smaller solver-vs-oracle deviation as 1e-12: it is
# rounding noise of the exact linear solve, whose digits would move with any
# ulp of the oracle or the FFT
DEVIATION_NOISE = 1e-12

# Largest grid, counted as float64 samples, that a solve may transform: the
# padded grid of a nonlinear step, the lattice of a linear jump.  For n >= 2 a
# step raises only the padded grid's first orthant, in blocks
# (grid.PaddedPower), but its time still grows with the grid; n=3, N=128,
# theta=5 pads to 448^3 (686 MiB).
MAX_GRID_BYTES = 256 * 2 ** 20
# Work budget of a nonlinear run, in steps times padded points: about ten
# minutes at the ~1.4e7 point-steps/s of a 1-D N=4096 run on one Xeon core.
MAX_POINT_STEPS = 2 ** 33
# Most fit samples of an oracle scenario: the oracle evaluates all of them in
# one batch, about 75 KB each (315 MB peak RSS at 4096 samples).
MAX_FIT_SAMPLES = 2048
# Widest step of nonlinear-smalldata's l grid, over which the weighted
# functionals take their sup over l in [0, s].
L_GRID_SPACING = 0.25

# The keys a config may carry, per section.  Any other key is a config
# error, so a misspelt option cannot quietly run with its default.
_TOP_KEYS = ("scenario", "model", "grid", "data", "run", "fit", "output_dir")
_MODEL_KEYS = ("n", "m", "alpha", "theta")
_GRID_KEYS = ("n", "points_per_dim", "box_length")
_RUN_KEYS = ("scheme", "dt", "t_end", "sample_times", "enable_nonlinearity")
# In the order of the profile's arguments: gaussian_profile(width, amplitude).
_DATA_KEYS = {"gaussian": ("width", "amplitude"),
              "power_tail": ("exponent", "amplitude"),
              "single_mode": ("k", "amplitude")}
# Values that count dimensions, points or powers, or index a mode.
_WHOLE_KEYS = ("n", "points_per_dim", "theta", "k")
_FIT_KEYS = ("window", "l_list", "tolerance", "s", "n_samples", "falsify")
# Former fit keys that the benchmark's workload configs still state at their
# pinned value: that value is accepted, any other is a config error.
_PINNED_FIT_KEYS = {"gap_min": LOSS_GAP_MIN, "beta": LEMMA_BETA}


class ConfigError(ValueError):
    """Config parse/validation failure; message carries the field path."""


def _path(path, key):
    return f"{path}.{key}" if path else key


def _need(mapping, key, path):
    if key not in mapping:
        raise ConfigError(f"{_path(path, key)}: required field missing")
    return mapping[key]


def _as_mapping(obj, path, keys=None):
    """obj, checked to be an object whose keys all lie in keys (if given)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    for key in obj:
        if keys is not None and key not in keys:
            raise ConfigError(f"{_path(path, key)}: unknown key; known keys are "
                              f"{', '.join(sorted(keys))}")
    return obj


def _require_finite(obj, path):
    """Reject NaN and +-Infinity, which json.load accepts, anywhere in obj."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ConfigError(f"{path}: expected a finite number, got {obj!r}")
    if isinstance(obj, dict):
        for key, value in obj.items():
            _require_finite(value, _path(path, key))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            _require_finite(value, f"{path}[{i}]")


def _number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _whole(value, path) -> int:
    number = _number(value, path)
    if not number.is_integer():
        raise ConfigError(f"{path}: expected a whole number, got {number:g}")
    return int(number)


def _section_numbers(section, keys, path) -> dict:
    """The values of `keys` in `section`, each required and checked to be a
    number, and a whole number where it counts or indexes (_WHOLE_KEYS)."""
    return {key: (_whole if key in _WHOLE_KEYS else _number)(
        _need(section, key, path), _path(path, key)) for key in keys}


def _numbers(value, path) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{path}: expected a list of numbers, got {value!r}")
    return tuple(_number(v, path) for v in value)


def _boolean(value, path) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


class FitSettings(NamedTuple):
    """The fit section with every default filled in by parse_config."""

    window: tuple      # (t0, t1); None in convergence-study
    l_list: tuple      # derivative orders; () in convergence-study
    tolerance: tuple   # decay-rate tolerance of each order of l_list
    n_samples: int
    falsify: bool


class ScenarioConfig(NamedTuple):
    scenario: str
    model: ModelParams
    grid: sg.GridSpec  # None, as is run, where the scenario solves nothing
    data: dict         # data.kind and its typed values
    profile: RadialProfile  # None for single_mode data
    run: SolverConfig  # in nonlinear-smalldata, with its default sample times
    fit: FitSettings
    s: float  # data regularity: fit.s, else max(fit.l_list), else 1.0
    output_dir: str
    raw: dict


def parse_config(doc: dict) -> ScenarioConfig:
    """Validate a raw config document; raises ConfigError with a field path."""
    doc = _as_mapping(doc, "", _TOP_KEYS)
    _require_finite(doc, "")
    scenario = _need(doc, "scenario", "")
    if scenario not in _SCENARIOS:
        raise ConfigError(f"scenario: unknown scenario {scenario!r}; "
                          f"choose one of {', '.join(SCENARIOS)}")
    spec = _SCENARIOS[scenario]
    model_cfg = _as_mapping(_need(doc, "model", ""), "model", _MODEL_KEYS)
    try:
        model = ModelParams(**_section_numbers(model_cfg, _MODEL_KEYS, "model"))
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc

    data = _as_mapping(_need(doc, "data", ""), "data")
    kind = _need(data, "kind", "data")
    if kind not in _DATA_KEYS:
        raise ConfigError(f"data.kind: unknown kind {kind!r}")
    _as_mapping(data, "data", ("kind",) + _DATA_KEYS[kind])
    values = _section_numbers(data, _DATA_KEYS[kind], "data")
    if values["amplitude"] == 0:
        raise ConfigError("data.amplitude: zero data has no decay to measure, got 0")
    profile = None
    if kind != "single_mode":
        make = gaussian_profile if kind == "gaussian" else power_tail_profile
        try:
            profile = make(*values.values(), n=model.n)
        except ValueError as exc:
            raise ConfigError(f"data: {exc}") from exc
    elif spec.profile:
        raise ConfigError(f"data.kind: {kind!r} has no continuum radial profile; "
                          f"use gaussian or power_tail for {scenario}")

    present = [key for key in ("grid", "run") if key in doc]
    if spec.sections == "refused" and present:
        raise ConfigError(f"{present[0]}: not read by {scenario}")
    grid = run = None
    if spec.sections == "required" or present:
        grid_cfg = _as_mapping(_need(doc, "grid", ""), "grid", _GRID_KEYS)
        try:
            grid = sg.GridSpec(**_section_numbers(grid_cfg, _GRID_KEYS, "grid"))
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc
        if grid.n != model.n:
            raise ConfigError(f"grid.n: dimension {grid.n} does not match model.n={model.n}")
        run = _parse_run(_need(doc, "run", ""), scenario, model, grid)

    fit = _as_mapping(doc.get("fit", {}), "fit", _FIT_KEYS + tuple(_PINNED_FIT_KEYS))
    for key, pinned in _PINNED_FIT_KEYS.items():
        if key in fit and _number(fit[key], f"fit.{key}") != pinned:
            raise ConfigError(f"fit.{key}: pinned at {pinned:g} in the code; "
                              f"a config cannot change it, got {fit[key]!r}")
    for key in fit:
        if key in _FIT_KEYS and key not in spec.fit_keys:
            raise ConfigError(f"fit.{key}: not read by {scenario}")
    window, l_list = None, ()
    if "window" in spec.fit_keys:
        window = _numbers(_need(fit, "window", "fit"), "fit.window")
        if not (len(window) == 2 and 0 < window[0] < window[1]):
            raise ConfigError("fit.window: expected [t0, t1] with 0 < t0 < t1")
    if "l_list" in spec.fit_keys:
        l_list = _numbers(_need(fit, "l_list", "fit"), "fit.l_list")
        if not l_list or min(l_list) < 0:
            raise ConfigError("fit.l_list: expected a nonempty list of orders >= 0")
        repeated = next((l for i, l in enumerate(l_list) if l in l_list[:i]), None)
        if repeated is not None:
            raise ConfigError(f"fit.l_list: order {repeated:g} is listed more than once")
    tolerance = fit.get("tolerance", 0.05)
    if isinstance(tolerance, (list, tuple)):
        if scenario == "regularity-loss-probe":
            raise ConfigError(f"fit.tolerance: {scenario} checks its orders l <= n0 "
                              f"against one number, got {tolerance!r}")
        tolerance = _numbers(tolerance, "fit.tolerance")
        if len(tolerance) != len(l_list):
            raise ConfigError(f"fit.tolerance: {len(tolerance)} values for the "
                              f"{len(l_list)} orders of fit.l_list")
    else:
        tolerance = (_number(tolerance, "fit.tolerance"),) * len(l_list)
    n_samples = _whole(fit.get("n_samples", 24), "fit.n_samples")
    if n_samples < MIN_FIT_SAMPLES:
        raise ConfigError(f"fit.n_samples: the decay fit needs at least "
                          f"{MIN_FIT_SAMPLES} samples, got {n_samples}")
    if n_samples > MAX_FIT_SAMPLES:
        raise ConfigError(f"fit.n_samples: the oracle evaluates every sample in one "
                          f"batch; at most {MAX_FIT_SAMPLES}, got {n_samples}")
    s = _number(fit.get("s", max(l_list, default=1.0)), "fit.s")
    if s < 0:
        raise ConfigError(f"fit.s: data regularity must be nonnegative, got {s:g}")
    if scenario == "nonlinear-smalldata":  # the weighted functionals' sup over [0, s]
        ls = np.array(sorted(l_list))
        if ls[0] > 1e-12 or ls[-1] < s - 1e-9:
            raise ConfigError(f"fit.l_list: insufficient l coverage for s={s:g}: have {ls}")
        if np.any(np.diff(ls) > L_GRID_SPACING + 1e-12):
            raise ConfigError(f"fit.l_list: l grid too coarse for the sup over [0, s]: "
                              f"spacing must be <= {L_GRID_SPACING}, have {ls}")
    falsify = _boolean(fit.get("falsify", False), "fit.falsify")
    output_dir = doc.get("output_dir", f"runs/{scenario}")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir: expected a string, got {output_dir!r}")
    horizon = contamination_horizon(grid, model) if grid is not None else None
    if scenario == "linear-decay" and run is not None:
        if not run.sample_times:
            run = run._replace(sample_times=_linear_sample_times(window, horizon,
                                                                 run.t_end, run.dt))
        if not any(0 < t <= horizon for t in run.sample_times):
            raise ConfigError(f"run.sample_times: none lies in (0, {horizon:g}], inside the "
                              f"contamination horizon, where the solver meets the oracle")
    if scenario == "nonlinear-smalldata":  # the samples fit_decay will find
        if window[1] > horizon:
            raise ConfigError(f"fit.window: [{window[0]:g}, {window[1]:g}] ends past the "
                              f"contamination horizon {horizon:g}")
        if not run.sample_times:
            run = run._replace(sample_times=_default_sample_times(window, run.t_end, run.dt))
        found = sum(window[0] <= t <= window[1] for t in run.sample_times)
        if found < MIN_FIT_SAMPLES:
            raise ConfigError(f"fit.window: [{window[0]:g}, {window[1]:g}] holds {found} of "
                              f"the run's sample times; the decay fit needs at least "
                              f"{MIN_FIT_SAMPLES}")

    return ScenarioConfig(
        scenario=scenario,
        model=model,
        grid=grid,
        data={"kind": kind, **values},
        profile=profile,
        run=run,
        fit=FitSettings(window=window, l_list=l_list, tolerance=tolerance,
                        n_samples=n_samples, falsify=falsify),
        s=s,
        output_dir=output_dir,
        raw=doc,
    )


def _parse_run(run_cfg, scenario, model, grid) -> SolverConfig:
    """The run section, checked against the grid a solve transforms and
    against the work budget of a nonlinear run."""
    run_cfg = _as_mapping(run_cfg, "run", _RUN_KEYS)
    settings = dict(
        scheme=run_cfg.get("scheme", "etd2"),
        dt=_number(_need(run_cfg, "dt", "run"), "run.dt"),
        t_end=_number(_need(run_cfg, "t_end", "run"), "run.t_end"),
        sample_times=_numbers(run_cfg.get("sample_times", ()), "run.sample_times"),
        enable_nonlinearity=_boolean(
            run_cfg.get("enable_nonlinearity", scenario != "linear-decay"),
            "run.enable_nonlinearity"),
    )
    try:
        run = SolverConfig(**settings)
    except ValueError as exc:
        raise ConfigError(f"run: {exc}") from exc
    nonlinear = run.enable_nonlinearity
    if scenario == "linear-decay" and nonlinear:
        raise ConfigError("run.enable_nonlinearity: linear-decay checks the linear flow "
                          "against the oracle; it needs false")
    if scenario == "convergence-study" and not nonlinear:
        raise ConfigError("run.enable_nonlinearity: a linear run jumps exactly and ignores "
                          "dt, so the dt, dt/2, dt/4 solves of convergence-study cannot "
                          "differ; it needs true")
    N, n = grid.points_per_dim, grid.n
    M = sg.padded_size(N, padding(model.theta)) if nonlinear else N
    size = 8 * M ** n
    if size > MAX_GRID_BYTES:
        raise ConfigError(
            f"grid.points_per_dim: the solve transforms a "
            f"{'padded grid' if nonlinear else 'lattice'} of {M}^{n} samples "
            f"({size / 2 ** 20:.0f} MiB as float64), over the "
            f"{MAX_GRID_BYTES / 2 ** 20:.0f} MiB limit; lower points_per_dim")
    # convergence-study solves at dt, dt/2 and dt/4: 1 + 2 + 4 times t_end/dt steps
    steps = run.t_end / run.dt * (7 if scenario == "convergence-study" else 1)
    if nonlinear and steps * M ** n > MAX_POINT_STEPS:
        raise ConfigError(
            f"run.dt: {steps:.3g} steps on {M}^{n} padded points exceed the work budget "
            f"of 2^{MAX_POINT_STEPS.bit_length() - 1} point-steps; enlarge run.dt or "
            f"shorten run.t_end")
    return run


def build_field(cfg: ScenarioConfig) -> sg.SpectralField:
    if cfg.profile is not None:
        return sg.field_from_spectral_profile(cfg.grid, cfg.profile.profile)
    # single_mode: product of cosines at integer mode index k per axis
    x = sg.physical_nodes(cfg.grid)
    wave = np.cos(2.0 * np.pi * cfg.data["k"] * x / cfg.grid.box_length)
    samples = wave
    for _ in range(cfg.grid.n - 1):
        samples = np.multiply.outer(samples, wave)
    return sg.to_spectral(cfg.grid, cfg.data["amplitude"] * samples)


def _format_float(x) -> str:
    return repr(float(x))


def write_series_csv(path, times, values):
    with open(path, "w", newline="") as fh:
        fh.write("t,value\n")
        for t, v in zip(times, values):
            fh.write(f"{_format_float(t)},{_format_float(v)}\n")


def emit_plots(summary: dict, out_path) -> str:
    """Write a self-contained matplotlib script for the recorded series.

    The script renders log-log curves with dashed reference lines at the
    theoretical exponents; nothing is rendered here.  Regeneration from an
    identical summary is byte-identical.
    """
    entries = []
    fits = {f.get("series_csv"): f for f in summary.get("fits", [])}
    for path in summary["series_files"]:
        fit = fits.get(path, {})
        label = fit.get("label", path)
        slope = fit.get("theory")
        entries.append((path, label, slope))
    lines = [
        "#!/usr/bin/env python3",
        '"""Log-log decay curves with theoretical reference slopes (auto-generated)."""',
        "import numpy as np",
        "import matplotlib",
        'matplotlib.use("Agg")',
        "import matplotlib.pyplot as plt",
        "",
        "SERIES = [",
    ]
    for path, label, slope in entries:
        lines.append(f"    ({path!r}, {label!r}, {slope!r}),")
    lines += [
        "]",
        "",
        "fig, ax = plt.subplots(figsize=(7, 5))",
        "for path, label, slope in SERIES:",
        "    data = np.loadtxt(path, delimiter=',', skiprows=1, ndmin=2)",
        "    t, v = data[:, 0], data[:, 1]",
        "    ax.loglog(1.0 + t, v, marker='.', label=label)",
        "    if slope is not None and v[0] > 0:",
        "        ref = v[0] * ((1.0 + t) / (1.0 + t[0])) ** slope",
        "        ax.loglog(1.0 + t, ref, '--', color='gray',",
        "                  label=f'{label} ref slope {slope:g}')",
        "ax.set_xlabel('1 + t')",
        "ax.set_ylabel('norm')",
        "ax.grid(True, which='both', alpha=0.3)",
        "ax.legend(fontsize=8)",
        "fig.tight_layout()",
        "fig.savefig('decay_curves.png', dpi=150)",
        "print('wrote decay_curves.png')",
        "",
    ]
    text = "\n".join(lines)
    with open(out_path, "w", newline="") as fh:
        fh.write(text)
    return text


class RunSummary:
    """What a scenario run reports.  run_scenario creates it, the runner
    fills it, and run_scenario writes it out once the runner has returned."""

    def __init__(self, scenario: str, config: dict, regime: dict):
        self.scenario = scenario
        self.config = config
        self.regime = regime
        self.fits = []
        self.probes = []
        self.functionals = None
        self.verdicts = []
        self.series_files = {}  # CSV name -> (times, values)
        self.step_count = 0

    @property
    def all_pass(self) -> bool:
        return all(v["pass"] for v in self.verdicts)

    def check(self, name: str, value, lo=None, hi=None):
        """Record verdict `name`: it passes iff lo <= value <= hi, for the
        bounds given.  A NaN value fails."""
        value = float(value)
        ok = not math.isnan(value) and (lo is None or lo <= value) and (hi is None or value <= hi)
        self.verdicts.append({"name": name, "pass": ok, "value": value, "lo": lo, "hi": hi})

    def series(self, csv: str, times, values):
        self.series_files[csv] = (times, values)

    def to_dict(self) -> dict:
        out = dict(vars(self))
        out["series_files"] = list(self.series_files)
        out["all_pass"] = self.all_pass
        return out


def _fit_entry(cfg, l, times, values, source, csv):
    """The fits entry of the full-field norms `values` of order l."""
    fit = fit_decay(times, values, cfg.fit.window)
    return {
        "l": float(l),
        "component": "full",
        "label": f"{source} l={l:g}",
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "window": list(cfg.fit.window),
        "theory": float(decay_exponent(l, cfg.model)),
        "series_csv": csv,
    }


def _check_decay(summary, entry, tol):
    """The verdicts on one fit: its slope within tol of theory, and its r^2
    that of a power law."""
    order = f"(l={entry['l']:g})"
    summary.check(f"decay{order}", entry["slope"] - entry["theory"], -tol, tol)
    summary.check(f"power-law{order}", entry["r_squared"], lo=R_SQUARED_POWER_LAW)


def _oracle_fits(cfg, summary):
    """Fit the oracle's ||Lam^l u(t)||_L2 for every l of fit.l_list over the
    fit window, adding one series and one fits entry per order."""
    times = np.geomspace(*cfg.fit.window, cfg.fit.n_samples)
    for l in cfg.fit.l_list:
        values = radial_weighted_l2(cfg.profile, l, times, cfg.model)
        csv = f"series_l{l:g}_full.csv"
        summary.series(csv, times, values)
        summary.fits.append(_fit_entry(cfg, l, times, values, "oracle", csv))


def _run_linear_decay(cfg, summary, report):
    _oracle_fits(cfg, summary)
    for entry, tol in zip(summary.fits, cfg.fit.tolerance):
        _check_decay(summary, entry, tol)
    if cfg.grid is None:
        return
    horizon = contamination_horizon(cfg.grid, cfg.model)
    inside = []  # (t, ||u(t)||_L2) inside the horizon: parse_config made sure of one

    def keep(state):
        if 0 < state.t <= horizon:
            inside.append((state.t, sg.lp_norm(state.field, 2)))

    summary.step_count = solve(build_field(cfg), cfg.model, cfg.run, on_sample=keep).step_count
    times, values = (np.array(column) for column in zip(*inside))
    want = radial_weighted_l2(cfg.profile, 0.0, times, cfg.model)
    summary.series("series_solver_l0_full.csv", times, values)
    worst = float(np.max(np.abs(values - want) / want))
    summary.check("solver-vs-oracle", max(worst, DEVIATION_NOISE), hi=SOLVER_MATCH_TOL)


def _run_regularity_loss(cfg, summary, report):
    _oracle_fits(cfg, summary)
    l_top = max(cfg.fit.l_list)
    for entry, tol in zip(summary.fits, cfg.fit.tolerance):
        if entry["l"] <= report.n0 + 1e-9:
            _check_decay(summary, entry, tol)
        elif entry["l"] == l_top:
            summary.check(f"loss-gap(l={l_top:g})", entry["slope"] - entry["theory"],
                          lo=LOSS_GAP_MIN)


def _run_lemma_verification(cfg, summary, report):
    profile = cfg.profile
    gain = cfg.model.alpha >= 1.0
    ts_low = np.geomspace(*cfg.fit.window, 9)
    ts_high = np.linspace(1.0, 8.0, 8)  # gain-regime high band: 1, 2, ..., 8
    for l in cfg.fit.l_list:
        rep = probe_low_band(profile, l, ts_low, cfg.model)
        summary.series(f"probe_low_l{l:g}.csv", rep.times, rep.ratios)
        summary.probes.append({"name": f"low-band(l={l:g})", **rep.to_dict()})
        summary.check(f"low-band(l={l:g})", rep.tail_slope, -TAIL_SLOPE_TOL, TAIL_SLOPE_TOL)
        if cfg.fit.falsify:  # over-weighted by 0.1: its tail must tilt away from zero
            bad = probe_low_band(profile, l, ts_low, cfg.model, rate_offset=0.1)
            summary.check(f"falsification(l={l:g})", abs(bad.tail_slope), lo=TAIL_SLOPE_TOL)
        rep_h = (probe_high_band(profile, l, ts_high, cfg.model) if gain else
                 probe_high_band(profile, l, ts_low, cfg.model, beta=LEMMA_BETA))
        summary.series(f"probe_high_l{l:g}.csv", rep_h.times, rep_h.ratios)
        summary.probes.append({"name": f"high-band(l={l:g})", **rep_h.to_dict()})
        if gain:
            summary.check(f"high-band(l={l:g})", rep_h.fitted_rate,
                          lo=RATE_MARGIN * sigma(2.0 * CUTOFF_RADIUS, cfg.model))
            summary.check(f"high-band-fit(l={l:g})", rep_h.fit_r_squared,
                          lo=R_SQUARED_EXPONENTIAL)
        else:  # beta derivatives spent: the weighted ratio must not grow
            summary.check(f"high-band(l={l:g})", rep_h.tail_slope, hi=TAIL_SLOPE_TOL)


def _default_sample_times(window, t_end, dt):
    """48 geometric times up to t_end, and t0, t1, t_end/2 and t_end; the
    SolverConfig they go into sorts them and drops repeats."""
    ts = np.geomspace(max(window[0] / 4.0, dt), t_end, 48) if t_end > 0 else ()
    return tuple(float(t) for t in (*ts, window[0], window[1], t_end / 2.0, t_end)
                 if t <= t_end)


def _linear_sample_times(window, horizon, t_end, dt):
    """linear-decay's 12 geometric times from max(t0, dt) to the first of t1,
    the horizon and t_end, those up to t_end; none when t_end is 0."""
    ts = np.geomspace(max(window[0], dt), min(window[1], horizon, t_end), 12) if t_end > 0 else ()
    return tuple(float(t) for t in ts if t <= t_end)


def _run_nonlinear_smalldata(cfg, summary, report):
    from .diagnostics import record  # local: perfbench hooks fpplab.diagnostics.record
    horizon = contamination_horizon(cfg.grid, cfg.model)
    u0 = build_field(cfg)
    recorder = record(cfg.fit.l_list, bands=report.bands)
    result = solve(u0, cfg.model, cfg.run, on_sample=recorder)
    times, full, low, high, bands = recorder.series()
    e0 = sg.sobolev_norm(u0, cfg.s) + sg.lp_norm(u0, 1)
    wf = weighted_functionals(times, full, bands, cfg.fit.l_list, cfg.model, report)
    for l, tol, *parts in zip(cfg.fit.l_list, cfg.fit.tolerance, full, low, high):
        for component, values in zip(("full", "low", "high"), parts):
            summary.series(f"series_l{l:g}_{component}.csv", times, values)
        entry = _fit_entry(cfg, l, times, parts[0], "solver", f"series_l{l:g}_full.csv")
        summary.fits.append(entry)
        _check_decay(summary, entry, tol)
    m1 = wf.m1
    i_half = min(int(np.searchsorted(wf.times, cfg.run.t_end / 2.0)), len(m1) - 1)
    m1_half, m1_end = float(m1[i_half]), float(m1[-1])  # floats: inf/inf is NaN, no warning
    summary.check("m1-stability", m1_end / m1_half if m1_half > 0 else math.inf,
                  hi=1.0 + M1_GROWTH_TOL)
    summary.functionals = {
        "e0": e0,
        "m1_final": m1_end,
        "m2_final": float(wf.m2[-1]),
        "m1_over_e0": m1_end / e0,
        "e_final": float(wf.e[-1]) if wf.e is not None else None,
        "l_final": float(wf.l[-1]) if wf.l is not None else None,
        "energy_residual": energy_balance_residual(result.final_state.ledger),
        "horizon": horizon,
        "regime": report.to_dict(),
    }
    summary.series("functional_m1.csv", wf.times, m1)
    summary.step_count = result.step_count


def _run_convergence_study(cfg, summary, report):
    u0 = build_field(cfg)
    run = cfg.run
    finals = []
    for k in range(3):
        r = solve(u0, cfg.model, run._replace(dt=run.dt / 2 ** k, sample_times=()))
        finals.append(r.final_state.field.coefficients)
        summary.step_count += r.step_count
    e1 = sg.lattice_norm(finals[0] - finals[1])
    e2 = sg.lattice_norm(finals[1] - finals[2])
    if e2 == 0.0 or e1 == 0.0:
        raise OracleConvergenceError("Richardson differences vanished; "
                                     "run is below roundoff, enlarge dt or t_end")
    order = math.log2(e1 / e2)
    summary.check("observed-order", order, *_ORDER_BANDS[run.scheme])
    summary.functionals = {"observed_order": order, "coarse_error": e1, "fine_error": e2,
                           "dt_triplet": [run.dt, run.dt / 2, run.dt / 4]}


class _Scenario(NamedTuple):
    runner: object     # fills a RunSummary from (cfg, summary, regime report)
    sections: str      # grid and run: required, optional (both or neither) or refused
    fit_keys: tuple    # the fit keys it reads; another known one is a config error
    profile: bool      # its data need a continuum radial profile (the oracle's)


# What each scenario reads, stated here only: parse_config checks every
# config against its row, and SCENARIOS, which list-scenarios prints, is its
# first column.
_ORACLE_FIT_KEYS = ("window", "l_list", "tolerance", "s", "n_samples")
_SCENARIOS = {
    "linear-decay": _Scenario(_run_linear_decay, "optional", _ORACLE_FIT_KEYS, True),
    "regularity-loss-probe": _Scenario(_run_regularity_loss, "refused",
                                       _ORACLE_FIT_KEYS, True),
    "nonlinear-smalldata": _Scenario(_run_nonlinear_smalldata, "required",
                                     ("window", "l_list", "tolerance", "s"), False),
    "lemma-verification": _Scenario(_run_lemma_verification, "refused",
                                    ("window", "l_list", "s", "falsify"), True),
    "convergence-study": _Scenario(_run_convergence_study, "required", ("s",), False),
}
SCENARIOS = tuple(_SCENARIOS)


def output_path(path) -> Path:
    """`path` as a Path; ConfigError if it or its nearest existing ancestor is a file."""
    out = Path(path)
    blocker = next(p for p in (out, *out.parents) if p.exists())
    if not blocker.is_dir():
        raise ConfigError(f"output_dir: {blocker} exists and is not a directory")
    return out


def run_scenario(doc, output_dir=None, quiet: bool = False) -> RunSummary:
    """Execute one scenario config; writes summary JSON, CSVs, a plot script, and
    timing.json with the run's wall time, the one artifact reruns change.

    Nothing is written until the runner has returned.  Raises ConfigError for
    malformed configs; numerical failures propagate (OracleConvergenceError,
    SolverBlowupError, and FloatingPointError for norms that underflow to zero).
    """
    cfg = parse_config(doc)
    out = output_path(output_dir if output_dir is not None else cfg.output_dir)
    t0 = time.perf_counter()
    report = validate(cfg.model, cfg.s)
    summary = RunSummary(cfg.scenario, cfg.raw, report.to_dict())
    _SCENARIOS[cfg.scenario].runner(cfg, summary, report)
    wall_clock_s = time.perf_counter() - t0
    out.mkdir(parents=True, exist_ok=True)
    (out / "timing.json").write_text(json.dumps({"wall_clock_s": wall_clock_s}) + "\n")
    for csv, (times, values) in summary.series_files.items():
        write_series_csv(out / csv, times, values)
    result = summary.to_dict()
    with open(out / "summary.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit_plots(result, out / "plot_series.py")
    if not quiet:
        for v in summary.verdicts:
            needs = " and ".join(f"{sense} {bound:g}" for sense, bound in
                                 ((">=", v["lo"]), ("<=", v["hi"])) if bound is not None)
            print(f"[{'PASS' if v['pass'] else 'FAIL'}] {cfg.scenario}: {v['name']} = "
                  f"{v['value']:.6g}, needs {needs}")
        for w in report.warnings:
            print(f"[warn] {w}")
    return summary
