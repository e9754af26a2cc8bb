"""Norm time series, decay-rate fits, and weighted sup functionals.

A run's norms are plain float arrays in the layout of ``record.series()``:
the sample times, then one row per derivative order (or per high-band
weight) and one column per sample.

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


class DecayFit(NamedTuple):
    """Log-log slope/intercept of a norm series over a fit window."""

    slope: float
    intercept: float
    r_squared: float


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


def fit_decay(times: np.ndarray, values: np.ndarray, window) -> DecayFit:
    """OLS fit of log(values) against log(1 + times) over the window.

    A value inside the window that is not positive (a norm that underflowed
    to zero) is a FloatingPointError: there is no power law to measure.
    """
    mask = (times >= window[0]) & (times <= window[1])
    t = times[mask]
    v = values[mask]
    if t.size < MIN_FIT_SAMPLES:
        raise ValueError(
            f"need at least {MIN_FIT_SAMPLES} samples in the window, found {t.size}"
        )
    if np.any(v <= 0):
        raise FloatingPointError("series has nonpositive values inside the fit window")
    return DecayFit(*ols_line(np.log1p(t), np.log(v)))


class record:
    """Norms of every l of l_list and every band, measured one sample at a time.

    Pass an instance to ``solver.solve`` as ``on_sample``.  Each sample's
    field is split once at model.CUTOFF_RADIUS, and the full field and its
    low/high parts are measured in ||Lam^l . ||_L2 for each l.  The high
    part is also measured in the mixed weight of each (l_j, s_j) of bands,
    the loss regime's family (the run's RegimeReport.bands) that the
    time-weighted functionals need.  Only the numbers are kept.
    """

    def __init__(self, l_list, bands=()):
        self.l_list = list(l_list)
        self.bands = bands  # (l_j, s_j) of the high-band family H[s_j]
        self.times, self.rows = [], []  # per sample: its time, its norms

    def __call__(self, state):
        field = state.field
        low, high = sg.split_low_high(field)
        mag = sg.wavenumber_magnitude(field.grid)
        norms = [sg.sobolev_seminorm(part, l) for part in (field, low, high) for l in self.l_list]
        norms += [sg.spectral_weighted_norm(high, mag ** l_j * (1.0 + mag * mag) ** (0.5 * s_j))
                  for l_j, s_j in self.bands]
        self.times.append(state.t)
        self.rows.append(norms)

    def series(self) -> tuple:
        """(times, full, low, high, bands): the sample times, then arrays with
        one row per order of l_list (full, low, high) or per (l_j, s_j) of
        bands (the high part in its mixed weight), one column per sample."""
        k = len(self.l_list)
        norms = np.array(self.rows, dtype=float).T
        return (np.array(self.times, dtype=float), norms[:k], norms[k:2 * k],
                norms[2 * k:3 * k], norms[3 * k:])


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


def weighted_functionals(times, full, bands, l_list, params: ModelParams,
                         report: RegimeReport) -> WeightedFunctionals:
    """Assemble the running weighted functionals from a run's recorded norms.

    times, full and bands are what ``record(l_list, report.bands).series()``
    returns, report the run's RegimeReport.  m1 takes every row of full, the
    ||Lam^l .||_L2 norms (scenarios.parse_config has checked that l_list
    covers [0, s]), m2 those with l <= report.n0; in the loss regime e and l
    take the rows of bands, the mixed-weight high-band family.  All outputs
    are nondecreasing in t by construction.
    """
    n, alpha = params.n, params.alpha

    def running_sup_sq(rows):
        w = np.stack([(1.0 + times) ** (n / (2.0 * alpha) + l / alpha) * values ** 2
                      for l, values in rows])
        return np.maximum.accumulate(w.max(axis=0))

    m1_sq = running_sup_sq(zip(l_list, full))
    m2_sq = running_sup_sq([(l, v) for l, v in zip(l_list, full) if l <= report.n0 + 1e-12])
    e = l_int = None
    if report.regime == LOSS:
        ab = 1.0 - alpha
        terms_sup = np.zeros_like(times)
        terms_int = np.zeros_like(times)
        for (l_j, _), values in zip(report.bands, bands):
            w = (1.0 + times) ** (l_j - 0.5 * ab) * values ** 2
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
