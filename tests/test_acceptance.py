"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

from fpplab import grid as sg
from fpplab.cli import main as cli_main
from fpplab.diagnostics import contamination_horizon, fit_decay, record, weighted_functionals
from fpplab.model import ModelParams, sigma, validate
from fpplab.oracle import gaussian_profile, radial_weighted_l2
from fpplab.propagator import probe_high_band, probe_low_band
from fpplab.scenarios import run_scenario
from fpplab.solver import (SolverConfig, energy_balance_residual, phi1, phi2,
                           solve)
from conftest import apply_radial_multiplier, propagate, random_real_field


def _report(cid, ok, detail):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


def _oracle_slopes(out, scenario, model, data, fit):
    """Slope per order of the oracle fits of an oracle-only scenario run,
    on the window [1e2, 1e4]."""
    doc = {"scenario": scenario, "model": model, "data": data,
           "fit": {"window": [100.0, 10000.0], **fit}}
    summary = run_scenario(doc, output_dir=out, quiet=True)
    return {entry["l"]: entry["slope"] for entry in summary.fits}


_GAUSSIAN = {"kind": "gaussian", "width": 1.0, "amplitude": 1.0}


def test_c1_linear_decay_gain_regime_oracle(tmp_path):
    t0 = time.perf_counter()
    slopes = _oracle_slopes(tmp_path / "c1", "linear-decay",
                            {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5}, _GAUSSIAN,
                            {"l_list": [0.0, 1.0], "n_samples": 20})
    elapsed = time.perf_counter() - t0
    ok = (abs(slopes[0.0] + 0.25) <= 0.02 and abs(slopes[1.0] + 0.75) <= 0.03
          and elapsed < 10.0)
    _report("C1", ok,
            f"slopes {slopes[0.0]:.4f} (want -0.25 +-0.02), "
            f"{slopes[1.0]:.4f} (want -0.75 +-0.03), {elapsed:.1f}s")


def test_c2_linear_decay_loss_regime_low_part(tmp_path):
    slopes = _oracle_slopes(tmp_path / "c2", "linear-decay",
                            {"n": 1, "m": 1.0, "alpha": 0.5, "theta": 3}, _GAUSSIAN,
                            {"l_list": [0.0], "n_samples": 20})
    ok = abs(slopes[0.0] + 0.5) <= 0.04
    _report("C2", ok, f"slope {slopes[0.0]:.4f} (want -0.5 +-0.04)")


def test_c3_low_band_boundedness_probe():
    ts = np.array([1.0, 10.0, 1e2, 1e3, 1e4])
    lines = []
    ok = True
    for (l, alpha, n) in ((0.0, 1.0, 1), (1.0, 1.0, 1), (0.0, 0.5, 1),
                          (0.5, 1.5, 2)):
        params = ModelParams(n=n, m=1.0, alpha=alpha, theta=5)
        prof = gaussian_profile(1.0, 1.0, n=n)
        rep = probe_low_band(prof, l, ts, params)
        falsified = probe_low_band(prof, l, ts, params, rate_offset=0.1)
        case_ok = abs(rep.tail_slope) <= 0.05 and abs(falsified.tail_slope) > 0.05
        ok = ok and case_ok
        lines.append(f"(l={l:g},a={alpha:g},n={n}): tail {rep.tail_slope:+.4f}, "
                     f"control tail {falsified.tail_slope:+.4f}")
    _report("C3", ok, "; ".join(lines))


def test_c4_high_band_dichotomy():
    gain = ModelParams(n=1, m=1.0, alpha=1.0, theta=5)
    prof = gaussian_profile(0.5, 1.0, n=1)
    rep_gain = probe_high_band(prof, 0.0, np.linspace(1.0, 8.0, 8), gain)
    ref = 0.9 * sigma(1.0, gain)
    loss = ModelParams(n=1, m=1.0, alpha=0.5, theta=3)
    prof_l = gaussian_profile(1.0, 1.0, n=1)
    rep_loss = probe_high_band(prof_l, 0.0, np.geomspace(1.0, 1e4, 13), loss,
                               beta=1.0)
    ok = (rep_gain.fitted_rate >= ref and rep_gain.fit_r_squared >= 0.95
          and rep_loss.tail_slope <= 0.05)
    _report("C4", ok,
            f"gain rate {rep_gain.fitted_rate:.4f} >= {ref:.4f} (r2 "
            f"{rep_gain.fit_r_squared:.4f} >= 0.95); loss weighted ratio tail "
            f"{rep_loss.tail_slope:+.4f} <= 0.05")


def test_c5_solver_matches_oracle_inside_horizon():
    params = ModelParams(n=1, m=1.0, alpha=1.0, theta=5)
    grid = sg.GridSpec(1, 8192, 2000.0)
    prof = gaussian_profile(1.0, 1.0, n=1)
    u0 = sg.field_from_spectral_profile(grid, prof.profile)
    horizon = contamination_horizon(grid, params)
    ts = np.geomspace(1.0, min(horizon, 1e4), 12)
    cfg = SolverConfig(dt=2.0, t_end=float(ts[-1]), enable_nonlinearity=False,
                       sample_times=tuple(ts))
    samples = []
    solve(u0, params, cfg, on_sample=samples.append)
    worst = 0.0
    for st in samples:
        want = radial_weighted_l2(prof, 0.0, st.t, params)
        worst = max(worst, abs(sg.lp_norm(st.field, 2) - want) / want)
    ok = worst <= 1e-4
    _report("C5", ok, f"max relative deviation {worst:.3e} (want <= 1e-4), "
                      f"horizon {horizon:.0f}")


def test_c6_etd2_self_convergence():
    params = ModelParams(n=1, m=1.0, alpha=1.0, theta=1)
    grid = sg.GridSpec(1, 128, 100.0)
    u0 = sg.field_from_spectral_profile(grid, gaussian_profile(1.0, 0.2, n=1).profile)
    finals = []
    for dt in (0.2, 0.1, 0.05):
        res = solve(u0, params, SolverConfig(scheme="etd2", dt=dt, t_end=4.0))
        finals.append(res.final_state.field.coefficients)
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    order = float(np.log2(e1 / e2))
    ok = 1.7 <= order <= 2.3
    _report("C6", ok, f"observed order {order:.3f} (want within [1.7, 2.3])")


def test_c7_energy_balance():
    params = ModelParams(n=1, m=1.0, alpha=1.0, theta=5)
    grid = sg.GridSpec(1, 128, 100.0)
    u0 = sg.field_from_spectral_profile(grid, gaussian_profile(1.0, 0.01, n=1).profile)
    lin = solve(u0, params, SolverConfig(dt=1e-4, t_end=2.0,
                                         enable_nonlinearity=False))
    r_lin = abs(energy_balance_residual(lin.final_state.ledger))
    grid2 = sg.GridSpec(1, 256, 100.0)
    u0b = sg.field_from_spectral_profile(grid2, gaussian_profile(1.0, 0.01, n=1).profile)
    nl = solve(u0b, params, SolverConfig(dt=1e-3, t_end=2.0))
    r_nl = abs(energy_balance_residual(nl.final_state.ledger))
    ok = r_lin < 1e-8 and r_nl < 1e-6
    _report("C7", ok, f"linear residual {r_lin:.2e} (< 1e-8), "
                      f"nonlinear residual {r_nl:.2e} (< 1e-6)")


def test_c8_nonlinear_smalldata_decay_and_m1():
    t_start = time.perf_counter()
    params = ModelParams(n=1, m=1.0, alpha=1.0, theta=5)
    grid = sg.GridSpec(1, 4096, 400.0 * np.pi)
    prof = gaussian_profile(1.0, 0.01, n=1)
    u0 = sg.field_from_spectral_profile(grid, prof.profile)
    t_end = 1000.0
    ts = np.unique(np.concatenate([np.geomspace(1.0, t_end, 40),
                                   [500.0, t_end]]))
    cfg = SolverConfig(scheme="etd2", dt=0.1, t_end=t_end,
                       sample_times=tuple(ts))
    recorder = record([0.0, 0.25, 0.5, 0.75, 1.0])
    solve(u0, params, cfg, on_sample=recorder)
    times, full, _, _, bands = recorder.series()
    fit = fit_decay(times, full[0], (10.0, 500.0))  # l = 0; the horizon is 4000
    e0 = sg.sobolev_norm(u0, 1.0) + sg.lp_norm(u0, 1)
    wf = weighted_functionals(times, full, bands, recorder.l_list, params,
                              validate(params, 1.0))
    m1 = wf.m1
    i_half = int(np.searchsorted(wf.times, t_end / 2.0))
    stable = m1[-1] <= 1.05 * m1[min(i_half, len(m1) - 1)]
    elapsed = time.perf_counter() - t_start
    ok = (abs(fit.slope + 0.25) <= 0.05 and stable
          and np.isfinite(m1[-1]) and elapsed < 300.0)
    _report("C8", ok,
            f"slope {fit.slope:.4f} (want -0.25 +-0.05), "
            f"m1(T)/m1(T/2)={m1[-1] / m1[i_half]:.4f}, "
            f"m1/E0={m1[-1] / e0:.3f}, {elapsed:.0f}s (< 300s)")


def test_c9_regularity_loss_cap(tmp_path):
    # spectral tail r^-4.6 keeps H^4 finite but nothing beyond H^4.1
    slopes = _oracle_slopes(tmp_path / "c9", "regularity-loss-probe",
                            {"n": 1, "m": 1.0, "alpha": 0.5, "theta": 3},
                            {"kind": "power_tail", "exponent": 4.6, "amplitude": 1.0},
                            {"l_list": [0.0, 0.5, 1.0, 1.5, 4.0], "s": 4.0,
                             "n_samples": 16})
    lines = []
    ok = True
    for l in (0.0, 0.5, 1.0, 1.5):
        theory = -0.5 - l
        case_ok = abs(slopes[l] - theory) <= 0.05
        ok = ok and case_ok
        lines.append(f"l={l:g}: {slopes[l]:.3f} vs {theory:.2f}")
    gap = slopes[4.0] - (-4.5)
    ok = ok and gap >= 0.1
    lines.append(f"l=4: {slopes[4.0]:.3f} is slower than -4.5 by {gap:.2f}")
    _report("C9", ok, "; ".join(lines))


def test_c10_property_suite(tmp_path):
    params = ModelParams(n=1, m=1.0, alpha=1.0, theta=5)
    grid = sg.GridSpec(1, 128, 40.0)
    f = random_real_field(grid, seed=77)
    checks = {}

    physical = np.sum(np.abs(sg.to_physical(f)) ** 2) * grid.cell_volume
    spectral = sg.sobolev_seminorm(f, 0.0) ** 2
    checks["parseval@1e-12"] = abs(physical - spectral) <= 1e-12 * physical

    low, high = sg.split_low_high(f)
    recon = np.max(np.abs(low.coefficients + high.coefficients - f.coefficients))
    checks["split@1e-15"] = recon <= 1e-15 * np.max(np.abs(f.coefficients))

    two = propagate(propagate(f, 7.0, params), 13.0, params)
    one = propagate(f, 20.0, params)
    ref = np.abs(one.coefficients) + 1e-300
    checks["semigroup@1e-13"] = float(
        np.max(np.abs(two.coefficients - one.coefficients) / ref)) <= 1e-13

    g1 = lambda r: np.exp(-r)
    g2 = lambda r: 1.0 / (1.0 + r * r)
    once = apply_radial_multiplier(f, lambda r: g1(r) * g2(r))
    twice = apply_radial_multiplier(apply_radial_multiplier(f, g2), g1)
    checks["multiplier-composition@1e-13"] = float(
        np.max(np.abs(once.coefficients - twice.coefficients))) <= \
        1e-13 * float(np.max(np.abs(once.coefficients)))

    checks["phi-limits-exact"] = phi1(0.0) == 1.0 and phi2(0.0) == 0.5

    prof = gaussian_profile(1.0, 1.0, n=1)
    tol = 1e-8
    a = radial_weighted_l2(prof, 1.0, 3.0, params, tol=tol)
    b = radial_weighted_l2(prof, 1.0, 3.0, params, tol=tol / 2.0)
    checks["oracle-halving"] = abs(a - b) <= tol * b

    doc = {
        "scenario": "linear-decay",
        "model": {"n": 1, "m": 1.0, "alpha": 1.0, "theta": 5},
        "data": {"kind": "gaussian", "width": 1.0, "amplitude": 1.0},
        "fit": {"window": [100.0, 10000.0], "l_list": [0.0], "n_samples": 10},
        "output_dir": str(tmp_path / "a"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    cli_main(["run", str(cfg_path), "--quiet"])
    cli_main(["run", str(cfg_path), "--quiet", "--output-dir", str(tmp_path / "b")])
    same = ((tmp_path / "a" / "series_l0_full.csv").read_bytes()
            == (tmp_path / "b" / "series_l0_full.csv").read_bytes())
    checks["cli-determinism-byte-exact"] = same

    ok = all(checks.values())
    _report("C10", ok, ", ".join(f"{k}={'ok' if v else 'FAIL'}"
                                 for k, v in checks.items()))
