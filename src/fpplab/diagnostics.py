"""Norm time series, decay-rate fits, and weighted sup functionals.

Decay rates are always measured as ordinary least-squares slopes of
log(value) against log(1 + t).  A fit is only trusted as a power law when
its r^2 clears ``R_SQUARED_POWER_LAW`` (exponential decay on a two-decade
window reliably falls below it), and only inside the box-contamination
horizon when the series came from a periodic run; a config whose fit
window ends past the horizon is refused before the run.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import grid as sg
from .model import LOSS, ModelParams, RegimeReport, sigma

R_SQUARED_POWER_LAW = 0.995
HORIZON_CONSTANT = 0.1
MIN_FIT_SAMPLES = 8


class NormSeries(NamedTuple("NormSeries", [
        ("times", np.ndarray),
        ("values", np.ndarray),
        ("l", float),
        ("norm", str),
        ("component", str),  # full | low | high
])):
    """One measured norm trajectory: derivative order l, norm type, component."""

    __slots__ = ()

    def __new__(cls, times, values, l, norm="L2", component="full"):
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(v < 0):
            raise ValueError("norm values must be nonnegative")
        return super().__new__(cls, t, v, l, norm, component)


class DecayFit(NamedTuple):
    """Log-log slope/intercept of a norm series over a fit window."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple


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


def fit_decay(series: NormSeries, window) -> DecayFit:
    """OLS fit of log(value) against log(1 + t) over the window.

    Zero values inside the window are an error (no power law to measure).
    """
    t0, t1 = float(window[0]), float(window[1])
    mask = (series.times >= t0) & (series.times <= t1)
    t = series.times[mask]
    v = series.values[mask]
    if t.size < MIN_FIT_SAMPLES:
        raise ValueError(
            f"need at least {MIN_FIT_SAMPLES} samples in the window, found {t.size}"
        )
    if np.any(v <= 0):
        raise ValueError("series has nonpositive values inside the fit window")
    slope, intercept, r2 = ols_line(np.log1p(t), np.log(v))
    return DecayFit(slope=slope, intercept=intercept, r_squared=r2, window=(t0, t1))


class record:
    """Norm series for every (l, component), measured one sample at a time.

    Pass an instance to ``solver.solve`` as ``on_sample``.  Each sample's
    field is split once at model.CUTOFF_RADIUS, and the full field and its
    low/high parts are measured in ||Lam^l . ||_L2 for each l.  The high
    part is also measured in the mixed weight of each (l_j, s_j) of bands,
    the loss regime's family (the run's RegimeReport.bands) that the
    time-weighted functionals need.  Only the numbers are kept;
    ``series()`` returns them as NormSeries: full, low and high of each l
    in l_list order, then one high-band series per (l_j, s_j).
    """

    def __init__(self, l_list, bands=()):
        self.l_list = list(l_list)
        self.bands = bands  # (l_j, s_j) of the high-band family H[s_j]
        self.times, self.rows = [], []  # per sample: its time, its norms

    def __call__(self, state):
        field = state.field
        low, high = sg.split_low_high(field)
        mag = sg.wavenumber_magnitude(field.grid)
        norms = [sg.sobolev_seminorm(part, l) for l in self.l_list for part in (field, low, high)]
        norms += [sg.spectral_weighted_norm(high, mag ** l_j * (1.0 + mag * mag) ** (0.5 * s_j))
                  for l_j, s_j in self.bands]
        self.times.append(state.t)
        self.rows.append(norms)

    def series(self) -> list:
        times = np.array(self.times, dtype=float)
        kinds = [(float(l), "L2", comp) for l in self.l_list for comp in ("full", "low", "high")]
        kinds += [(float(l_j), f"H[{s_j:g}]", "high") for l_j, s_j in self.bands]
        return [NormSeries(times, np.array(values), l=l, norm=norm, component=comp)
                for (l, norm, comp), values in zip(kinds, zip(*self.rows))]


class WeightedFunctionals(NamedTuple):
    """Running time-weighted sup/integral functionals of a trajectory.

    m1: sup over l in [0, s] and y <= t of the rate-weighted squared norms
    (constant in t exactly when the trajectory follows the predicted rates).
    m2 is the same sup restricted to l <= n0.  In the loss regime e and l
    aggregate the mixed-weight high-band norms (running sup and running
    time integral respectively); in the gain regime they are None.
    """

    times: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    e: np.ndarray = None
    l: np.ndarray = None


def weighted_functionals(series, params: ModelParams,
                         report: RegimeReport) -> WeightedFunctionals:
    """Assemble the running weighted functionals from a run's recorded series.

    report is the run's RegimeReport and series what a ``record`` given
    report.bands measured.  m1 takes every full-component ||Lam^l .||_L2
    series (scenarios.parse_config has checked that their l grid covers
    [0, s]), m2 those with l <= report.n0; in the loss regime e and l take
    the mixed-weight high-band family.  All outputs are nondecreasing in t
    by construction.
    """
    full = [ns for ns in series if ns.component == "full" and ns.norm == "L2"]
    times = full[0].times
    n, alpha = params.n, params.alpha

    def running_sup_sq(members):
        w = np.stack([(1.0 + times) ** (n / (2.0 * alpha) + ns.l / alpha) * ns.values ** 2
                      for ns in members])
        return np.maximum.accumulate(w.max(axis=0))

    m1_sq = running_sup_sq(full)
    m2_sq = running_sup_sq([ns for ns in full if ns.l <= report.n0 + 1e-12])
    e = l_int = None
    if report.regime == LOSS:
        ab = 1.0 - alpha
        terms_sup = np.zeros_like(times)
        terms_int = np.zeros_like(times)
        for ns in series:
            if ns.norm == "L2":
                continue
            w = (1.0 + times) ** (ns.l - 0.5 * ab) * ns.values ** 2
            terms_sup = terms_sup + np.maximum.accumulate(w)
            terms_int = terms_int + _running_trapezoid(times, w)
        e = np.sqrt(terms_sup)
        l_int = np.sqrt(terms_int)
    return WeightedFunctionals(times=times, m1=np.sqrt(m1_sq), m2=np.sqrt(m2_sq),
                               e=e, l=l_int)


def _running_trapezoid(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(t))
    return out
