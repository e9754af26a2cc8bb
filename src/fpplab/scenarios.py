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
from dataclasses import dataclass, replace

import numpy as np

from . import grid as sg
from .diagnostics import (R_SQUARED_POWER_LAW, NormSeries, contamination_horizon,
                          fit_decay, weighted_functionals)
from .model import GAIN, ModelParams, decay_exponent, sigma, validate
from .oracle import (OracleConvergenceError, RadialProfile, gaussian_profile,
                     power_tail_profile, radial_weighted_l2)
from .propagator import BOUNDED, UNBOUNDED, probe_high_band, probe_low_band
from .solver import (SolverConfig, SolverBlowupError, energy_balance_residual, pad_factor,
                     solve)

SCENARIOS = (
    "linear-decay",
    "regularity-loss-probe",
    "nonlinear-smalldata",
    "lemma-verification",
    "convergence-study",
)

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

_ORDER_BANDS = {"etd1": (0.7, 1.3), "etd2": (1.7, 2.3)}

# Largest padded sample array a nonlinear run may allocate.  A step holds
# several arrays of that size at once, so this keeps a run well inside a
# few GB; n=3, N=128, theta=5 would need 448^3 float64 values (686 MiB) per array.
MAX_PADDED_BYTES = 256 * 2 ** 20


class ConfigError(ValueError):
    """Config parse/validation failure; message carries the field path."""


def _need(mapping, key, path):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: required field missing" if path
                          else f"{key}: required field missing")
    return mapping[key]


def _as_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    return obj


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    model: ModelParams
    grid: sg.GridSpec
    data: dict
    run: SolverConfig
    fit: dict
    output_dir: str
    raw: dict


def parse_config(doc: dict) -> ScenarioConfig:
    """Validate a raw config document; raises ConfigError with a field path."""
    doc = _as_mapping(doc, "config")
    scenario = _need(doc, "scenario", "")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario: unknown scenario {scenario!r}; "
                          f"choose one of {', '.join(SCENARIOS)}")
    model_cfg = _as_mapping(_need(doc, "model", ""), "model")
    try:
        model = ModelParams(
            n=_need(model_cfg, "n", "model"),
            m=_need(model_cfg, "m", "model"),
            alpha=_need(model_cfg, "alpha", "model"),
            theta=_need(model_cfg, "theta", "model"),
        )
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc

    needs_solver = scenario in ("nonlinear-smalldata", "convergence-study")
    grid = None
    if "grid" in doc or needs_solver:
        grid_cfg = _as_mapping(_need(doc, "grid", ""), "grid")
        try:
            grid = sg.GridSpec(
                n=_need(grid_cfg, "n", "grid"),
                points_per_dim=_need(grid_cfg, "points_per_dim", "grid"),
                box_length=_need(grid_cfg, "box_length", "grid"),
            )
        except ValueError as exc:
            raise ConfigError(f"grid: {exc}") from exc
        if grid.n != model.n:
            raise ConfigError(f"grid.n: dimension {grid.n} does not match model.n={model.n}")

    data = _as_mapping(_need(doc, "data", ""), "data")
    kind = _need(data, "kind", "data")
    if kind not in ("gaussian", "power_tail", "single_mode"):
        raise ConfigError(f"data.kind: unknown kind {kind!r}")
    if kind == "gaussian":
        _need(data, "width", "data")
        _need(data, "amplitude", "data")
    elif kind == "power_tail":
        _need(data, "exponent", "data")
        _need(data, "amplitude", "data")
    else:
        _need(data, "k", "data")
        _need(data, "amplitude", "data")

    run = None
    if "run" in doc or needs_solver:
        run_cfg = _as_mapping(_need(doc, "run", ""), "run")
        if "dealias_fraction" in run_cfg:
            raise ConfigError("run.dealias_fraction: no longer supported; padding is "
                              "the only dealiasing rule, remove the key")
        try:
            run = SolverConfig(
                scheme=run_cfg.get("scheme", "etd2"),
                dt=_need(run_cfg, "dt", "run"),
                t_end=_need(run_cfg, "t_end", "run"),
                sample_times=tuple(run_cfg.get("sample_times", ())),
                enable_nonlinearity=run_cfg.get("enable_nonlinearity", True),
            )
        except ValueError as exc:
            raise ConfigError(f"run: {exc}") from exc
        if needs_solver and run.enable_nonlinearity:
            M = sg.padded_size(grid.points_per_dim, pad_factor(model.theta))
            size = 8 * M ** grid.n
            if size > MAX_PADDED_BYTES:
                raise ConfigError(
                    f"grid.points_per_dim: the nonlinear term needs a padded grid of "
                    f"{M}^{grid.n} samples ({size / 2 ** 20:.0f} MiB per array), over the "
                    f"{MAX_PADDED_BYTES / 2 ** 20:.0f} MiB limit; lower points_per_dim")

    fit = _as_mapping(doc.get("fit", {}), "fit")
    if scenario != "convergence-study":
        window = _need(fit, "window", "fit")
        if not (isinstance(window, (list, tuple)) and len(window) == 2
                and window[0] > 0 and window[1] > window[0]):
            raise ConfigError("fit.window: expected [t0, t1] with 0 < t0 < t1")
        l_list = _need(fit, "l_list", "fit")
        if not l_list or any(l < 0 for l in l_list):
            raise ConfigError("fit.l_list: expected a nonempty list of orders >= 0")

    return ScenarioConfig(
        scenario=scenario,
        model=model,
        grid=grid,
        data=dict(data),
        run=run,
        fit=dict(fit),
        output_dir=str(doc.get("output_dir", f"runs/{scenario}")),
        raw=doc,
    )


def build_profile(cfg: ScenarioConfig) -> RadialProfile:
    data, n = cfg.data, cfg.model.n
    if data["kind"] == "gaussian":
        return gaussian_profile(float(data["width"]), float(data["amplitude"]), n=n)
    if data["kind"] == "power_tail":
        return power_tail_profile(float(data["exponent"]), float(data["amplitude"]), n=n)
    raise ConfigError(f"data.kind: {data['kind']!r} has no continuum radial profile; "
                      "use gaussian or power_tail for oracle scenarios")


def build_field(cfg: ScenarioConfig) -> sg.SpectralField:
    if cfg.grid is None:
        raise ConfigError("grid: required to build lattice initial data")
    data = cfg.data
    if data["kind"] in ("gaussian", "power_tail"):
        return sg.field_from_spectral_profile(cfg.grid, build_profile(cfg).profile)
    # single_mode: product of cosines at integer mode index k per axis
    k = int(data["k"])
    amp = float(data["amplitude"])
    x = sg.physical_nodes(cfg.grid)
    wave = np.cos(2.0 * np.pi * k * x / cfg.grid.box_length)
    samples = wave
    for _ in range(cfg.grid.n - 1):
        samples = np.multiply.outer(samples, wave)
    return sg.to_spectral(cfg.grid, amp * samples)


def _fit_s(cfg: ScenarioConfig) -> float:
    if "s" in cfg.fit:
        return float(cfg.fit["s"])
    return float(max(cfg.fit["l_list"]))


def _tolerance_for(cfg: ScenarioConfig, idx: int, override) -> float:
    if override is not None:
        return float(override)
    tol = cfg.fit.get("tolerance", 0.05)
    if isinstance(tol, (list, tuple)):
        return float(tol[idx])
    return float(tol)


def _format_float(x) -> str:
    return repr(float(x))


def write_series_csv(path, times, values):
    with open(path, "w", newline="") as fh:
        fh.write("t,value\n")
        for t, v in zip(times, values):
            fh.write(f"{_format_float(t)},{_format_float(v)}\n")


def emit_plots(summary: dict, series_files, out_path) -> str:
    """Write a self-contained matplotlib script for the recorded series.

    The script renders log-log curves with dashed reference lines at the
    theoretical exponents; nothing is rendered here.  Regeneration from an
    identical summary is byte-identical.
    """
    entries = []
    fits = {f.get("series_csv"): f for f in summary.get("fits", [])}
    for path in series_files:
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


@dataclass
class RunSummary:
    scenario: str
    config: dict
    regime: dict
    fits: list
    probes: list
    functionals: dict
    verdicts: list
    series_files: list
    wall_clock_s: float = 0.0
    step_count: int = 0

    @property
    def all_pass(self) -> bool:
        return all(v["pass"] for v in self.verdicts)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": self.config,
            "regime": self.regime,
            "fits": self.fits,
            "probes": self.probes,
            "functionals": self.functionals,
            "verdicts": self.verdicts,
            "series_files": self.series_files,
            "all_pass": self.all_pass,
            "wall_clock_s": self.wall_clock_s,
            "step_count": self.step_count,
        }


def _oracle_series(profile, l, params, window, n_samples, R, tol):
    times = np.geomspace(window[0], window[1], n_samples)
    values = radial_weighted_l2(profile, l, times, params, window="full", R=R, tol=tol)
    return NormSeries(times, values, l=float(l))


def _fit_entry(cfg, l, series, fit, tol, horizon=None, label=None, csv=None):
    theory = decay_exponent(l, cfg.model)
    r2_min = float(cfg.fit.get("r_squared_min", R_SQUARED_POWER_LAW))
    ok = (abs(fit.slope - theory) <= tol and fit.r_squared >= r2_min
          and not fit.horizon_warning)
    return {
        "l": float(l),
        "component": series.component,
        "label": label or f"l={l:g} {series.component}",
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r_squared": fit.r_squared,
        "window": list(fit.window),
        "horizon_warning": fit.horizon_warning,
        "theory": float(theory),
        "tolerance": tol,
        "pass": bool(ok),
        "series_csv": csv,
    }


def _run_linear_decay(cfg, out, override):
    profile = build_profile(cfg)
    window = tuple(cfg.fit["window"])
    n_samples = int(cfg.fit.get("n_samples", 24))
    R = float(cfg.fit.get("cutoff_radius", 0.5))
    tol_quad = float(cfg.fit.get("oracle_tol", 1e-8))
    fits, verdicts, files = [], [], []
    for i, l in enumerate(cfg.fit["l_list"]):
        series = _oracle_series(profile, l, cfg.model, window, n_samples, R, tol_quad)
        csv = f"series_l{l:g}_full.csv"
        write_series_csv(out / csv, series.times, series.values)
        files.append(csv)
        fit = fit_decay(series, window)
        entry = _fit_entry(cfg, l, series, fit, _tolerance_for(cfg, i, override),
                           label=f"oracle l={l:g}", csv=csv)
        fits.append(entry)
        verdicts.append({
            "name": f"decay(l={l:g})",
            "pass": entry["pass"],
            "detail": f"slope {fit.slope:.4f} vs theory {entry['theory']:.4f} "
                      f"(tol {entry['tolerance']:g}, r2 {fit.r_squared:.6f})",
        })
    step_count = 0
    if cfg.grid is not None and cfg.run is not None:
        horizon = contamination_horizon(cfg.grid, cfg.model)
        u0 = build_field(cfg)
        run = cfg.run
        sample_times = run.sample_times
        if not sample_times:
            t_hi = min(window[1], horizon, run.t_end)
            sample_times = tuple(np.geomspace(max(window[0], run.dt), t_hi, 12))
        run = replace(run, sample_times=sample_times, enable_nonlinearity=False)
        result = solve(u0, cfg.model, run)
        step_count = result.step_count
        match_tol = float(cfg.fit.get("solver_match_tol", 1e-4))
        inside = [(t, f) for t, f in result.trajectory if 0 < t <= horizon]
        worst = 0.0
        if inside:
            times = np.array([t for t, _ in inside])
            values = np.array([sg.lp_norm(f, 2) for _, f in inside])
            want = radial_weighted_l2(profile, 0.0, times, cfg.model, tol=tol_quad)
            worst = float(np.max(np.abs(values - want) / want))
            csv = "series_solver_l0_full.csv"
            write_series_csv(out / csv, times, values)
            files.append(csv)
        verdicts.append({
            "name": "solver-vs-oracle",
            "pass": bool(worst <= match_tol),
            "detail": f"max relative deviation {worst:.3e} vs tolerance "
                      f"{match_tol:g} inside horizon {horizon:g}",
        })
    return fits, [], None, verdicts, files, step_count


def _run_regularity_loss(cfg, out, override):
    profile = build_profile(cfg)
    window = tuple(cfg.fit["window"])
    n_samples = int(cfg.fit.get("n_samples", 24))
    R = float(cfg.fit.get("cutoff_radius", 0.5))
    tol_quad = float(cfg.fit.get("oracle_tol", 1e-8))
    gap_min = float(cfg.fit.get("gap_min", 0.1))
    s = _fit_s(cfg)
    report = validate(cfg.model, s)
    l_list = list(cfg.fit["l_list"])
    l_top = max(l_list)
    fits, verdicts, files = [], [], []
    for i, l in enumerate(l_list):
        series = _oracle_series(profile, l, cfg.model, window, n_samples, R, tol_quad)
        csv = f"series_l{l:g}_full.csv"
        write_series_csv(out / csv, series.times, series.values)
        files.append(csv)
        fit = fit_decay(series, window)
        tol = _tolerance_for(cfg, i, override)
        entry = _fit_entry(cfg, l, series, fit, tol, label=f"oracle l={l:g}", csv=csv)
        if l <= report.n0 + 1e-9:
            fits.append(entry)
            verdicts.append({
                "name": f"decay(l={l:g})",
                "pass": entry["pass"],
                "detail": f"slope {fit.slope:.4f} vs theory {entry['theory']:.4f} "
                          f"(order within the tracked range n0={report.n0:g})",
            })
        elif l == l_top:
            gap = fit.slope - entry["theory"]
            entry["pass"] = bool(gap >= gap_min)
            fits.append(entry)
            verdicts.append({
                "name": f"loss-gap(l={l:g})",
                "pass": entry["pass"],
                "detail": f"slope {fit.slope:.4f} is slower than the formal rate "
                          f"{entry['theory']:.4f} by {gap:.3f} (needs >= {gap_min:g})",
            })
        else:
            entry["pass"] = True
            fits.append(entry)
    return fits, [], None, verdicts, files, 0


def _run_lemma_verification(cfg, out, override):
    profile = build_profile(cfg)
    window = tuple(cfg.fit["window"])
    R = float(cfg.fit.get("cutoff_radius", 0.5))
    tol_quad = float(cfg.fit.get("oracle_tol", 1e-8))
    beta = float(cfg.fit.get("beta", 1.0))
    rate_margin = float(cfg.fit.get("rate_margin", 0.9))
    falsify = bool(cfg.fit.get("falsify", False))
    ts_low = np.array(cfg.fit.get("t_samples",
                                  np.geomspace(window[0], window[1], 9)), dtype=float)
    ts_high = np.array(cfg.fit.get("high_t_samples", np.linspace(1.0, 8.0, 8)),
                       dtype=float)
    probes, verdicts, files = [], [], []
    for l in cfg.fit["l_list"]:
        rep = probe_low_band(profile, l, ts_low, cfg.model, R=R, tol=tol_quad)
        csv = f"probe_low_l{l:g}.csv"
        write_series_csv(out / csv, rep.times, rep.ratios)
        files.append(csv)
        probes.append({"name": f"low-band(l={l:g})", **rep.to_dict()})
        verdicts.append({
            "name": f"low-band(l={l:g})",
            "pass": rep.verdict == BOUNDED,
            "detail": f"tail slope {rep.tail_slope:+.4f} (bounded iff within "
                      f"+-0.05), sup ratio {rep.sup_ratio:.4g}",
        })
        if falsify:
            bad = probe_low_band(profile, l, ts_low, cfg.model, R=R,
                                 rate_offset=0.1, tol=tol_quad)
            verdicts.append({
                "name": f"falsification(l={l:g})",
                "pass": bad.verdict == UNBOUNDED,
                "detail": f"over-weighted probe tail slope {bad.tail_slope:+.4f} "
                          "must be flagged unbounded",
            })
        if cfg.model.alpha >= 1.0:
            rep_h = probe_high_band(profile, l, ts_high, cfg.model, R=R, tol=tol_quad)
            ref = rate_margin * sigma(2.0 * R, cfg.model)
            ok = rep_h.verdict == BOUNDED and rep_h.fitted_rate >= ref
            detail = (f"fitted exponential rate {rep_h.fitted_rate:.4f} vs reference "
                      f"{ref:.4f} = {rate_margin:g} * sigma(2R)")
        else:
            rep_h = probe_high_band(profile, l, ts_low, cfg.model, R=R, beta=beta,
                                    tol=tol_quad)
            ok = rep_h.verdict == BOUNDED
            detail = (f"weighted ratio tail slope {rep_h.tail_slope:+.4g}; "
                      f"beta {beta:g} derivatives spent")
        csv = f"probe_high_l{l:g}.csv"
        write_series_csv(out / csv, rep_h.times, rep_h.ratios)
        files.append(csv)
        probes.append({"name": f"high-band(l={l:g})", **rep_h.to_dict()})
        verdicts.append({"name": f"high-band(l={l:g})", "pass": bool(ok),
                         "detail": detail})
    return [], probes, None, verdicts, files, 0


def _default_sample_times(window, t_end, dt):
    lo = max(window[0] / 4.0, dt)
    ts = np.geomspace(lo, t_end, 48)
    ts = np.unique(np.concatenate([ts, [window[0], window[1], t_end / 2.0, t_end]]))
    return tuple(float(t) for t in ts if t <= t_end)


def _run_nonlinear_smalldata(cfg, out, override):
    from .diagnostics import record
    window = tuple(cfg.fit["window"])
    R = float(cfg.fit.get("cutoff_radius", 0.5))
    s = _fit_s(cfg)
    report = validate(cfg.model, s)
    horizon = contamination_horizon(cfg.grid, cfg.model)
    u0 = build_field(cfg)
    run = cfg.run
    if not run.sample_times:
        run = replace(run, sample_times=_default_sample_times(window, run.t_end, run.dt))
    result = solve(u0, cfg.model, run)
    series = record(result.trajectory, cfg.fit["l_list"], R,
                    params=cfg.model, s=s)
    e0 = sg.sobolev_norm(u0, s) + sg.lp_norm(u0, 1)
    wf = weighted_functionals(series, cfg.model, s, e0=e0)
    fits, verdicts, files = [], [], []
    for i, l in enumerate(cfg.fit["l_list"]):
        for ns in series:
            if ns.norm != "L2" or ns.l != float(l):
                continue
            csv = f"series_l{ns.l:g}_{ns.component}.csv"
            write_series_csv(out / csv, ns.times, ns.values)
            files.append(csv)
            if ns.component != "full":
                continue
            fit = fit_decay(ns, window, horizon=horizon)
            entry = _fit_entry(cfg, l, ns, fit, _tolerance_for(cfg, i, override),
                               horizon=horizon, label=f"solver l={l:g}", csv=csv)
            fits.append(entry)
            verdicts.append({
                "name": f"decay(l={l:g})",
                "pass": entry["pass"],
                "detail": f"slope {fit.slope:.4f} vs theory {entry['theory']:.4f} "
                          f"(tol {entry['tolerance']:g})",
            })
    m1 = wf.m1
    nondec = bool(np.all(np.diff(m1) >= -1e-12 * max(m1[-1], 1e-300)))
    verdicts.append({
        "name": "m1-nondecreasing",
        "pass": nondec,
        "detail": "running weighted sup must not decrease",
    })
    i_half = int(np.searchsorted(wf.times, run.t_end / 2.0))
    i_half = min(i_half, len(m1) - 1)
    growth_tol = float(cfg.fit.get("m1_growth_tol", 0.05))
    stable = bool(m1[-1] <= (1.0 + growth_tol) * m1[i_half]) if m1[i_half] > 0 else False
    verdicts.append({
        "name": "m1-stability",
        "pass": stable,
        "detail": f"m1 grew by factor {m1[-1] / max(m1[i_half], 1e-300):.4f} over the "
                  f"second half of the run (allowed {1.0 + growth_tol:g})",
    })
    functionals = {
        "e0": e0,
        "m1_final": float(m1[-1]),
        "m2_final": float(wf.m2[-1]),
        "m1_over_e0": float(m1[-1] / e0),
        "e_final": float(wf.e[-1]) if wf.e is not None else None,
        "l_final": float(wf.l[-1]) if wf.l is not None else None,
        "energy_residual": energy_balance_residual(result.final_state.ledger),
        "horizon": horizon,
        "regime": report.to_dict(),
    }
    csv = "functional_m1.csv"
    write_series_csv(out / csv, wf.times, m1)
    files.append(csv)
    return fits, [], functionals, verdicts, files, result.step_count


def _run_convergence_study(cfg, out, override):
    u0 = build_field(cfg)
    run = cfg.run
    finals = []
    steps = 0
    for k in range(3):
        r = solve(u0, cfg.model, replace(run, dt=run.dt / 2 ** k, sample_times=()))
        finals.append(r.final_state.field.coefficients)
        steps += r.step_count
    scale = float(np.linalg.norm(finals[2]))
    e1 = float(np.linalg.norm(finals[0] - finals[1]))
    e2 = float(np.linalg.norm(finals[1] - finals[2]))
    if e2 == 0.0 or e1 == 0.0:
        raise OracleConvergenceError("Richardson differences vanished; "
                                     "run is below roundoff, enlarge dt or t_end")
    order = math.log2(e1 / e2)
    band = cfg.fit.get("order_band", _ORDER_BANDS[run.scheme])
    ok = band[0] <= order <= band[1]
    verdicts = [{
        "name": "observed-order",
        "pass": bool(ok),
        "detail": f"order {order:.3f} from errors {e1:.3e}/{e2:.3e} "
                  f"(relative {e1 / scale:.3e}/{e2 / scale:.3e}), band {list(band)}",
    }]
    functionals = {"observed_order": order, "coarse_error": e1, "fine_error": e2,
                   "dt_triplet": [run.dt, run.dt / 2, run.dt / 4]}
    return [], [], functionals, verdicts, [], steps


_RUNNERS = {
    "linear-decay": _run_linear_decay,
    "regularity-loss-probe": _run_regularity_loss,
    "nonlinear-smalldata": _run_nonlinear_smalldata,
    "lemma-verification": _run_lemma_verification,
    "convergence-study": _run_convergence_study,
}


def run_scenario(doc, output_dir=None, tolerance_override=None,
                 quiet: bool = False) -> RunSummary:
    """Execute one scenario config; writes summary JSON, CSVs, and a plot script.

    Raises ConfigError for malformed configs; numerical failures propagate
    (OracleConvergenceError, SolverBlowupError, OverflowError).
    """
    from pathlib import Path

    cfg = parse_config(doc) if not isinstance(doc, ScenarioConfig) else doc
    out = Path(output_dir) if output_dir is not None else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    s_for_report = (_fit_s(cfg) if "l_list" in cfg.fit else
                    float(cfg.fit.get("s", 1.0)))
    report = validate(cfg.model, s_for_report)
    fits, probes, functionals, verdicts, files, steps = _RUNNERS[cfg.scenario](
        cfg, out, tolerance_override)
    summary = RunSummary(
        scenario=cfg.scenario,
        config=cfg.raw,
        regime=report.to_dict(),
        fits=fits,
        probes=probes,
        functionals=functionals,
        verdicts=verdicts,
        series_files=files,
        wall_clock_s=time.perf_counter() - t0,
        step_count=steps,
    )
    with open(out / "summary.json", "w") as fh:
        json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit_plots(summary.to_dict(), files, out / "plot_series.py")
    if not quiet:
        for v in verdicts:
            status = "PASS" if v["pass"] else "FAIL"
            print(f"[{status}] {cfg.scenario}: {v['name']} - {v['detail']}")
        for w in report.warnings:
            print(f"[warn] {w}")
    return summary
