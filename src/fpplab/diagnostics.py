"""Norm time series, decay-rate fits, and weighted sup functionals.

Decay rates are always measured as ordinary least-squares slopes of
log(value) against log(1 + t).  A fit is only trusted as a power law when
its r^2 clears ``R_SQUARED_POWER_LAW`` (exponential decay on a two-decade
window reliably falls below it), and only inside the box-contamination
horizon when the series came from a periodic run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grid as sg
from .model import CUTOFF_RADIUS, ModelParams, sigma, validate

R_SQUARED_POWER_LAW = 0.995
HORIZON_CONSTANT = 0.1
L_GRID_SPACING = 0.25
MIN_FIT_SAMPLES = 8


@dataclass(frozen=True)
class NormSeries:
    """One measured norm trajectory: derivative order l, norm type, component."""

    times: np.ndarray
    values: np.ndarray
    l: float
    norm: str = "L2"
    component: str = "full"  # full | low | high

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(v < 0):
            raise ValueError("norm values must be nonnegative")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class DecayFit:
    """Log-log slope/intercept of a norm series over a fit window."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple
    horizon_warning: bool = False


def ols_line(x: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares line y ~ a x + b; returns (a, b, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points for a line fit")
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("degenerate fit: all abscissae equal")
    slope = float(np.sum((x - xm) * (y - ym))) / sxx
    intercept = ym - slope * xm
    ss_res = float(np.sum((y - slope * x - intercept) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return slope, intercept, r2


def contamination_horizon(grid: sg.GridSpec, params: ModelParams) -> float:
    """Largest t at which box periodicity has not yet biased decay fits.

    Beyond t = HORIZON_CONSTANT / sigma(2 pi / L) the slowest nonzero box
    mode has decayed appreciably and the periodic norms part ways with the
    whole-space ones.
    """
    k1 = 2.0 * np.pi / grid.box_length
    return HORIZON_CONSTANT / sigma(k1, params)


def fit_decay(series: NormSeries, window, horizon: float = None) -> DecayFit:
    """OLS fit of log(value) against log(1 + t) over the window.

    Samples beyond the contamination horizon are dropped and the fit is
    flagged.  Zero values inside the window are an error (no power law to
    measure).
    """
    t0, t1 = float(window[0]), float(window[1])
    mask = (series.times >= t0) & (series.times <= t1)
    warn = False
    if horizon is not None and t1 > horizon:
        warn = True
        mask &= series.times <= horizon
    t = series.times[mask]
    v = series.values[mask]
    if t.size < MIN_FIT_SAMPLES:
        raise ValueError(
            f"need at least {MIN_FIT_SAMPLES} samples in the window, found {t.size}"
        )
    if np.any(v <= 0):
        raise ValueError("series has nonpositive values inside the fit window")
    slope, intercept, r2 = ols_line(np.log1p(t), np.log(v))
    return DecayFit(slope=slope, intercept=intercept, r_squared=r2,
                    window=(t0, t1), horizon_warning=warn)


def record(trajectory, l_list, R: float = CUTOFF_RADIUS,
           params: ModelParams = None, s: float = None) -> list:
    """Norm series for every (l, component) over a solver trajectory.

    trajectory is a sequence of (t, SpectralField).  For each l the full
    field and its low/high split are measured in ||Lam^l . ||_L2.  When a
    loss-regime params/s pair is supplied, the mixed-weight high-band
    series needed by the time-weighted functionals are recorded too.
    """
    times = np.array([t for t, _ in trajectory], dtype=float)
    fields = [f for _, f in trajectory]
    lows, highs = zip(*(sg.split_low_high(f, R) for f in fields))
    out = []
    for l in l_list:
        for comp, fs in (("full", fields), ("low", lows), ("high", highs)):
            vals = np.array([sg.sobolev_seminorm(f, l) for f in fs])
            out.append(NormSeries(times, vals, l=float(l), component=comp))
    if params is not None and params.alpha < 1.0 and s is not None:
        ab = params.alpha_bar()
        j_top = math.floor(s / (2.0 * ab))
        mag = sg.wavenumber_magnitude(fields[0].grid)
        for j in range(j_top):
            l_j = j * ab
            s_j = s - 2.0 * j * ab
            w = mag ** l_j * (1.0 + mag * mag) ** (0.5 * s_j)
            vals = np.array([sg.spectral_weighted_norm(f, w) for f in highs])
            out.append(NormSeries(times, vals, l=float(l_j),
                                  norm=f"H[{s_j:g}]", component="high"))
    return out


@dataclass(frozen=True)
class WeightedFunctionals:
    """Running time-weighted sup/integral functionals of a trajectory.

    m1: sup over l in [0, s] and y <= t of the rate-weighted squared norms
    (constant in t exactly when the trajectory follows the predicted rates).
    m2 is the same sup restricted to l <= n0.  In the loss regime e and l
    aggregate the mixed-weight high-band norms (running sup and running
    time integral respectively); in the gain regime they are None.
    e0 is the data size ||u0||_Hs + ||u0||_L1 when the caller supplies it.
    """

    times: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    e: np.ndarray = None
    l: np.ndarray = None
    e0: float = None


def _check_l_coverage(ls: np.ndarray, s: float):
    if ls.size == 0 or ls.min() > 1e-12 or ls.max() < s - 1e-9:
        raise ValueError(f"insufficient l coverage for s={s:g}: have {ls}")
    if np.any(np.diff(ls) > L_GRID_SPACING + 1e-12):
        raise ValueError(
            f"l grid too coarse for the sup over [0, s]: spacing must be "
            f"<= {L_GRID_SPACING}, have {ls}"
        )


def weighted_functionals(series, params: ModelParams, s: float,
                         e0: float = None) -> WeightedFunctionals:
    """Assemble the running weighted functionals from recorded series.

    Needs full-component ||Lam^l .||_L2 series on an l-grid covering [0, s]
    with spacing <= 0.25; in the loss regime additionally the mixed-weight
    high-band family produced by ``record``.  All outputs are nondecreasing
    in t by construction.
    """
    full = sorted(
        (ns for ns in series if ns.component == "full" and ns.norm == "L2"),
        key=lambda ns: ns.l,
    )
    ls = np.array([ns.l for ns in full])
    _check_l_coverage(ls, s)
    times = full[0].times
    for ns in full:
        if not np.array_equal(ns.times, times):
            raise ValueError("all series must share the same sample times")
    report = validate(params, s)
    n, alpha = params.n, params.alpha

    def running_sup_sq(members, exps):
        w = np.stack(
            [(1.0 + times) ** ex * ns.values ** 2 for ns, ex in zip(members, exps)]
        )
        return np.maximum.accumulate(w.max(axis=0))

    m1_sq = running_sup_sq(full, [n / (2.0 * alpha) + l / alpha for l in ls])
    m2_members = [ns for ns in full if ns.l <= report.n0 + 1e-12]
    m2_sq = running_sup_sq(
        m2_members, [n / (2.0 * alpha) + ns.l / alpha for ns in m2_members]
    )
    e = l_int = None
    if params.alpha < 1.0:
        ab = params.alpha_bar()
        j_top = math.floor(s / (2.0 * ab))
        terms_sup = np.zeros_like(times)
        terms_int = np.zeros_like(times)
        for j in range(j_top):
            tag = f"H[{s - 2.0 * j * ab:g}]"
            match = [ns for ns in series
                     if ns.component == "high" and ns.norm == tag
                     and abs(ns.l - j * ab) < 1e-9]
            if not match:
                raise ValueError(
                    f"missing high-band series l={j * ab:g}, norm={tag} "
                    "(record the trajectory with params and s)"
                )
            ns = match[0]
            w = (1.0 + times) ** (j * ab - 0.5 * ab) * ns.values ** 2
            terms_sup = terms_sup + np.maximum.accumulate(w)
            terms_int = terms_int + _running_trapezoid(times, w)
        e = np.sqrt(terms_sup)
        l_int = np.sqrt(terms_int)
    return WeightedFunctionals(times=times, m1=np.sqrt(m1_sq), m2=np.sqrt(m2_sq),
                               e=e, l=l_int, e0=e0)


def _running_trapezoid(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out
