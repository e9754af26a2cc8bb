"""Exact linear semigroup and the band decay-bound probes.

The linear flow acts per mode as exp(-sigma(|k|) t).  The band probes run
on the continuum quadrature oracle (not the grid), so they measure the
whole-space decay bounds without periodic-box artifacts:

* the low band obeys an algebraic L1 -> L2 bound, checked by weighting the
  measured norm with the predicted growth factor and testing that the
  weighted ratio levels off;
* the high band decays exponentially when alpha >= 1, while for alpha < 1
  an algebraic rate is available only at the cost of beta extra derivatives
  of the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .diagnostics import ols_line
from .grid import SpectralField, wavenumber_magnitude
from .model import ModelParams, sigma
from .oracle import RadialProfile, radial_weighted_l2

TAIL_SLOPE_TOL = 0.05
BOUNDED = "bounded"
UNBOUNDED = "unbounded"


@lru_cache(maxsize=64)
def _sigma_lattice(grid, params: ModelParams) -> np.ndarray:
    out = sigma(wavenumber_magnitude(grid), params)
    out.setflags(write=False)
    return out


def propagate(field: SpectralField, t: float, params: ModelParams) -> SpectralField:
    """Apply the exact linear semigroup: multiply mode k by exp(-sigma(|k|) t)."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    decay = np.exp(-_sigma_lattice(field.grid, params) * t)
    return field.with_coefficients(field.coefficients * decay)


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of a decay-bound probe over a set of sample times.

    ratios carry the measured norm times the theoretical growth factor; a
    bounded verdict means the prescribed bound holds with a finite constant
    over the sampled window.  fitted_rate is set by the gain-regime
    high-band probe (measured exponential decay rate).
    """

    times: np.ndarray
    ratios: np.ndarray
    sup_ratio: float
    tail_slope: float
    verdict: str
    fitted_rate: float = None
    fit_r_squared: float = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "times": [float(t) for t in self.times],
            "ratios": [float(v) for v in self.ratios],
            "sup_ratio": self.sup_ratio,
            "tail_slope": self.tail_slope,
            "verdict": self.verdict,
            "fitted_rate": self.fitted_rate,
            "fit_r_squared": self.fit_r_squared,
            "detail": self.detail,
        }


def _tail_slope(times: np.ndarray, ratios: np.ndarray):
    """Log-log slope over the tail (t past the geometric midpoint, t >= 1).

    Returns (slope, n_zero_tail): zero ratios (underflowed norms) cannot
    grow, so they are excluded from the fit but counted.
    """
    pos = ratios > 0.0
    t, v = times[pos], ratios[pos]
    n_zero_tail = int(np.sum(~pos[len(pos) // 2:]))
    if t.size < 2:
        return math.nan, n_zero_tail
    cut = max(1.0, math.sqrt(t[0] * t[-1]))
    sel = t >= cut
    if np.sum(sel) < 3:
        sel = np.zeros_like(sel)
        sel[-min(3, t.size):] = True
    slope, _, _ = ols_line(np.log(t[sel]), np.log(v[sel]))
    return slope, n_zero_tail


def probe_low_band(profile: RadialProfile, l: float, t_samples, params: ModelParams,
                   rate_offset: float = 0.0) -> ProbeReport:
    """Check the low-band L1 -> L2 decay bound on the continuum oracle.

    ratios(t) = ||Lam^l low-band u(t)||_L2 * (1+t)^(n/(4a) + l/(2a) + offset)
    / ||phi||_L1.  The bound is sharp for data with uhat0(0) != 0, so the
    verdict demands the tail slope sit within +-0.05 of zero; rate_offset
    exists for falsification controls (offset +0.1 must come back
    unbounded).
    """
    if profile.l1_norm_hint is None:
        raise ValueError("low-band probe needs a profile with an L1 norm hint")
    times = np.asarray(t_samples, dtype=float)
    exponent = params.n / (4.0 * params.alpha) + l / (2.0 * params.alpha) + rate_offset
    norms = radial_weighted_l2(profile, l, times, params, window="low")
    ratios = norms * (1.0 + times) ** exponent / profile.l1_norm_hint
    slope, _ = _tail_slope(times, ratios)
    verdict = BOUNDED if (math.isfinite(slope) and abs(slope) <= TAIL_SLOPE_TOL) else UNBOUNDED
    return ProbeReport(times=times, ratios=ratios, sup_ratio=float(np.max(ratios)),
                       tail_slope=slope, verdict=verdict,
                       detail=f"weight exponent {exponent:g}")


def probe_high_band(profile: RadialProfile, l: float, t_samples, params: ModelParams,
                    beta: float = None) -> ProbeReport:
    """Check the high-band decay: exponential for alpha >= 1, weighted
    algebraic for alpha < 1.

    Gain regime: fits log ||Lam^l high-band u(t)|| against t and reports the
    exponential rate (beta is ignored); bounded means the fit is a credible
    exponential with a positive rate.  The reference constant for
    comparisons is sigma(2R), R = CUTOFF_RADIUS: the symbol is increasing
    for alpha >= 1, so its infimum over the fully weighted band |k| >= 2R
    sits at 2R, and early windows (before the smooth cutoff's skirt at
    |k| ~ R dominates) measure a rate at or above it.

    Loss regime: ratios(t) = ||...|| * (1+t)^(beta/(2(1-alpha)))
    / ||Lam^(beta+l) phi||; bounded means the ratio does not grow (tail
    slope <= +0.05; rapidly decaying data legitimately overshoots the
    bound, so no lower slope bar applies).
    """
    times = np.asarray(t_samples, dtype=float)
    norms = radial_weighted_l2(profile, l, times, params, window="high")
    if params.alpha >= 1.0:
        pos = norms > 0.0
        if np.sum(pos) < 3:
            raise ValueError("gain-regime probe needs >= 3 sample times with "
                             "nonzero high-band norm")
        slope, _, r2 = ols_line(times[pos], np.log(norms[pos]))
        rate = -slope
        ratios = np.zeros_like(norms)
        ratios[pos] = np.exp(np.log(norms[pos]) + rate * times[pos])
        tail, _ = _tail_slope(times, ratios)
        verdict = BOUNDED if (rate > 0.0 and r2 >= 0.95) else UNBOUNDED
        return ProbeReport(times=times, ratios=ratios,
                           sup_ratio=float(np.max(ratios)), tail_slope=tail,
                           verdict=verdict, fitted_rate=rate, fit_r_squared=r2,
                           detail="exponential fit of the high-band norm")
    if beta is None or beta <= 0:
        raise ValueError("loss-regime high-band probe needs beta > 0")
    weight_norm = radial_weighted_l2(profile, beta + l, 0.0, params)
    if weight_norm == 0.0:
        raise ValueError("profile has zero ||Lam^(beta+l) phi|| norm")
    ab = 1.0 - params.alpha
    exponent = beta / (2.0 * ab)
    ratios = norms * (1.0 + times) ** exponent / weight_norm
    slope, n_zero_tail = _tail_slope(times, ratios)
    if math.isnan(slope) and n_zero_tail > 0:
        verdict = BOUNDED  # norm underflowed to zero: cannot be growing
        detail = "tail ratios decayed below floating-point range"
    else:
        verdict = BOUNDED if (math.isfinite(slope) and slope <= TAIL_SLOPE_TOL) else UNBOUNDED
        detail = f"weight exponent {exponent:g}"
    return ProbeReport(times=times, ratios=ratios, sup_ratio=float(np.max(ratios)),
                       tail_slope=slope, verdict=verdict, detail=detail)
