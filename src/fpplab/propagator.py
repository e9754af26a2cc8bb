"""Band decay-bound probes of the linear flow.

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
from typing import NamedTuple

import numpy as np

from .diagnostics import ols_line
from .model import ModelParams
from .oracle import RadialProfile, radial_weighted_l2


class ProbeReport(NamedTuple):
    """What a decay-bound probe measured over a set of sample times.

    ratios carry the measured norm times the theoretical growth factor, and
    tail_slope is their log-log slope over the tail: a bound that holds with
    a finite constant shows as a tail slope near zero or below.  fitted_rate
    and fit_r_squared are set by the gain-regime high-band probe (the
    measured exponential decay rate and the r^2 of its fit).
    """

    times: np.ndarray
    ratios: np.ndarray
    sup_ratio: float
    tail_slope: float
    fitted_rate: float = None
    fit_r_squared: float = None

    def to_dict(self) -> dict:
        return {
            "times": [float(t) for t in self.times],
            "ratios": [float(v) for v in self.ratios],
            "sup_ratio": self.sup_ratio,
            "tail_slope": self.tail_slope,
            "fitted_rate": self.fitted_rate,
            "fit_r_squared": self.fit_r_squared,
        }


def _tail_slope(times: np.ndarray, ratios: np.ndarray) -> float:
    """Log-log slope over the tail (t past the geometric midpoint, t >= 1).

    Zero ratios (underflowed norms) are left out of the fit.  With fewer
    than two ratios left the slope is -inf if one in the later half of the
    times underflowed, a norm that cannot be growing, and NaN otherwise.
    """
    pos = ratios > 0.0
    t, v = times[pos], ratios[pos]
    if t.size < 2:
        return math.nan if pos[len(pos) // 2:].all() else -math.inf
    cut = max(1.0, math.sqrt(t[0] * t[-1]))
    sel = t >= cut
    if np.sum(sel) < 3:
        sel = np.zeros_like(sel)
        sel[-min(3, t.size):] = True
    slope, _, _ = ols_line(np.log(t[sel]), np.log(v[sel]))
    return slope


def probe_low_band(profile: RadialProfile, l: float, t_samples, params: ModelParams,
                   rate_offset: float = 0.0) -> ProbeReport:
    """Probe the low-band L1 -> L2 decay bound on the continuum oracle.

    ratios(t) = ||Lam^l low-band u(t)||_L2 * (1+t)^(n/(4a) + l/(2a) + offset)
    / ||phi||_L1.  The bound is sharp for data with uhat0(0) != 0, so its
    tail slope sits near zero; rate_offset exists for falsification controls
    (offset +0.1 must tilt the tail away from zero).
    """
    if profile.l1_norm_hint is None:
        raise ValueError("low-band probe needs a profile with an L1 norm hint")
    times = np.asarray(t_samples, dtype=float)
    exponent = params.n / (4.0 * params.alpha) + l / (2.0 * params.alpha) + rate_offset
    norms = radial_weighted_l2(profile, l, times, params, window="low")
    ratios = norms * (1.0 + times) ** exponent / profile.l1_norm_hint
    return ProbeReport(times=times, ratios=ratios, sup_ratio=float(np.max(ratios)),
                       tail_slope=_tail_slope(times, ratios))


def probe_high_band(profile: RadialProfile, l: float, t_samples, params: ModelParams,
                    beta: float = None) -> ProbeReport:
    """Probe the high-band decay: exponential for alpha >= 1, weighted
    algebraic for alpha < 1.

    Gain regime: fits log ||Lam^l high-band u(t)|| against t and reports the
    exponential rate and the fit's r^2 (beta is ignored).  The reference
    constant for the rate is sigma(2R), R = CUTOFF_RADIUS: the symbol is
    increasing for alpha >= 1, so its infimum over the fully weighted band
    |k| >= 2R sits at 2R, and early windows (before the smooth cutoff's
    skirt at |k| ~ R dominates) measure a rate at or above it.

    Loss regime: ratios(t) = ||...|| * (1+t)^(beta/(2(1-alpha)))
    / ||Lam^(beta+l) phi||; the bound holds when the ratio does not grow
    (rapidly decaying data legitimately overshoot the bound, so only the
    tail slope's upper side matters).

    Norms that underflow to zero, leaving nothing to fit or to weigh by, are
    a FloatingPointError.
    """
    times = np.asarray(t_samples, dtype=float)
    norms = radial_weighted_l2(profile, l, times, params, window="high")
    if params.alpha >= 1.0:
        pos = norms > 0.0
        if np.sum(pos) < 3:
            raise FloatingPointError("gain-regime probe needs >= 3 sample times with "
                                     "nonzero high-band norm")
        slope, _, r2 = ols_line(times[pos], np.log(norms[pos]))
        ratios = np.zeros_like(norms)
        ratios[pos] = np.exp(np.log(norms[pos]) - slope * times[pos])
        return ProbeReport(times=times, ratios=ratios, sup_ratio=float(np.max(ratios)),
                           tail_slope=_tail_slope(times, ratios), fitted_rate=-slope,
                           fit_r_squared=r2)
    if beta is None or beta <= 0:
        raise ValueError("loss-regime high-band probe needs beta > 0")
    weight_norm = radial_weighted_l2(profile, beta + l, 0.0, params)
    if weight_norm == 0.0:
        raise FloatingPointError("profile has zero ||Lam^(beta+l) phi|| norm")
    exponent = beta / (2.0 * (1.0 - params.alpha))
    ratios = norms * (1.0 + times) ** exponent / weight_norm
    return ProbeReport(times=times, ratios=ratios, sup_ratio=float(np.max(ratios)),
                       tail_slope=_tail_slope(times, ratios))
