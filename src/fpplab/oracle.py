"""Continuum (whole-space) norms of the linear flow for radial spectral data.

For a radially symmetric spectral profile uhat0(r) the weighted norm of the
linear evolution reduces to a 1-D integral,

    Q(t)^2 = omega_{n-1} * int_0^inf r^(2l+n-1) w(r)^2 exp(-2 sigma(r) t)
             |uhat0(r)|^2 dr,

with w = 1, chi, or 1 - chi for the full / low / high window.  This module
is the discretization-free ground truth for decay-rate measurements.

The integral is split into panels at R, 2R, 1, the sigma(r) t = 30
crossing and the Gaussian width; the far tail is taken in log u, u = 1/r,
broken where sigma t falls back below 30, and the part of a power tail
beyond float64 range is added in closed form.  Every panel, the tail
included, uses one tanh-sinh (double-exponential) rule, which converges
exponentially on smooth panels and at algebraic endpoint singularities
(Takahasi & Mori 1974).  All sample times of a series are integrated
together: the nodes form a times x panels x nodes array with per-time
panel edges, and each refinement halves the step, evaluating only the new
nodes and only for the times that have not converged.  The result at tol/2 is returned after a
tolerance-halving check: it must agree with the result at tol within tol,
otherwise OracleConvergenceError is raised.

Normalization: Q is the physical L2 norm of Lam^l (w(D) u(t)) when the
physical field is the unitary inverse transform of uhat0.  Grid data built
with ``grid.field_from_spectral_profile`` reproduces these values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize.elementwise import find_root

from .diagnostics import MIN_FIT_SAMPLES, DecayFit, NormSeries, fit_decay
from .model import CUTOFF_RADIUS, ModelParams, cutoff_partition, sigma

_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}
_TAIL_EXPONENT = 30.0  # sigma(r) t beyond this contributes < exp(-60) relative
_CROSSING_GRID = np.geomspace(1e-6, 1e8, 281)
DEFAULT_TOL = 1e-8

# Tanh-sinh rule on [a, b]: x = a + (b - a) / (1 + exp(-pi sinh(tau))) at
# tau = k h, |tau| <= 4.5, so the outermost nodes sit ~1e-61 (relative) from
# each end.  Level j has h = 0.5 / 2^j; convergence is first tested at
# _MIN_LEVEL, and _MAX_LEVEL unconverged raises.
_H0 = 0.5
_TAU_MAX = 4.5
_MIN_LEVEL = 2
_MAX_LEVEL = 9
# The tail is integrated out to r = x_tail / _TAIL_CUT.  Further out r^(l+n/2)
# and a power-tail profile leave the float64 range, so the rest of a power
# tail is added in closed form.
_TAIL_CUT = 1e-30


class OracleConvergenceError(RuntimeError):
    """Raised when the radial integral diverges or the tolerance is unmet."""


@dataclass(frozen=True)
class DecayClass:
    """Tail behaviour of a profile: gaussian | power_tail(p) | compact_support(r)."""

    kind: str
    parameter: float = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "power_tail", "compact_support"):
            raise ValueError(f"unknown decay class {self.kind!r}")
        if self.kind in ("power_tail", "compact_support") and not (
            self.parameter is not None and self.parameter > 0
        ):
            raise ValueError(f"{self.kind} needs a positive parameter")


@dataclass(frozen=True)
class RadialProfile:
    """Radial spectral profile uhat0(r) with tail metadata.

    l1_norm_hint caches ||phi||_L1 of the corresponding physical function
    when it is known in closed form (sign-definite profiles).
    """

    profile: object  # callable r -> uhat0(r), vectorized over ndarrays
    decay_class: DecayClass
    l1_norm_hint: float = None

    def __call__(self, r):
        return self.profile(r)


def gaussian_profile(width: float = 1.0, amplitude: float = 1.0,
                     n: int = 1) -> RadialProfile:
    """uhat0(r) = amplitude exp(-(width r)^2 / 2); physical side is a positive
    Gaussian, so ||phi||_L1 = (2 pi)^(n/2) amplitude exactly."""
    if width <= 0:
        raise ValueError("width must be positive")
    w2 = width * width

    def f(r):
        return amplitude * np.exp(-0.5 * w2 * np.square(r))

    return RadialProfile(f, DecayClass("gaussian", width),
                         l1_norm_hint=(2.0 * np.pi) ** (n / 2.0) * abs(amplitude))


def power_tail_profile(exponent: float, amplitude: float = 1.0,
                       n: int = 1) -> RadialProfile:
    """uhat0(r) = amplitude (1 + r^2)^(-exponent/2).

    The physical side is a positive Matern-type kernel, so the L1 hint is
    exact; the profile lies in H^s exactly for s < exponent - n/2.
    """
    if exponent <= 0:
        raise ValueError("exponent must be positive")

    def f(r):
        with np.errstate(over="ignore"):
            return amplitude * (1.0 + np.square(r)) ** (-0.5 * exponent)

    return RadialProfile(f, DecayClass("power_tail", exponent),
                         l1_norm_hint=(2.0 * np.pi) ** (n / 2.0) * abs(amplitude))


def truncated_profile(base: RadialProfile, radius: float) -> RadialProfile:
    """Sharp spectral truncation of a profile to r <= radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")

    def f(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= radius, base.profile(r), 0.0)

    return RadialProfile(f, DecayClass("compact_support", radius))


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2, 2 pi, 4 pi for n = 1, 2, 3."""
    try:
        return _SPHERE_AREA[n]
    except KeyError:
        raise ValueError(f"unsupported dimension n={n}") from None


# Squared window weight w(r)^2 from the cutoff pair (chi, 1 - chi).
_WINDOWS = {
    "full": None,
    "low": lambda chi, rest: chi * chi,
    "high": lambda chi, rest: rest * rest,
    "cross": lambda chi, rest: chi * rest,
}


@lru_cache(maxsize=32)
def _crossing_grid(params: ModelParams) -> np.ndarray:
    """sigma on the fixed radius grid that brackets the threshold crossings."""
    out = sigma(_CROSSING_GRID, params)
    out.setflags(write=False)
    return out


def _sigma_crossings(t: np.ndarray, params: ModelParams):
    """Radii where sigma(r) t first crosses the tail threshold (up, down).

    One array per direction, nan where a time has no such crossing (t = 0
    never has one).  All times are bracketed on one grid and their roots
    refined by one vectorised bracketing root finder.
    """
    out = np.full((2, t.size), np.nan)
    (live,) = np.nonzero(t > 0.0)
    target = _TAIL_EXPONENT / t[live]
    above = _crossing_grid(params) > target[:, None]
    change = above[:, 1:] != above[:, :-1]
    turns = np.stack([change & above[:, 1:], change & ~above[:, 1:]])
    sides, rows = np.nonzero(turns.any(axis=2))
    if rows.size:
        cols = turns[sides, rows].argmax(axis=1)
        found = find_root(lambda r, c: sigma(r, params) - c,
                          (_CROSSING_GRID[cols], _CROSSING_GRID[cols + 1]),
                          args=(target[rows],))
        out[sides, live[rows]] = found.x
    return out[0], out[1]


def _check_tail_convergence(profile: RadialProfile, l: float, t: np.ndarray,
                            params: ModelParams):
    dc = profile.decay_class
    if dc.kind != "power_tail":
        return
    if params.alpha > 1.0 and np.all(t > 0.0):
        return  # super-diffusive damping kills any power tail
    if not 2.0 * dc.parameter > 2.0 * l + params.n:
        raise OracleConvergenceError(
            f"tail integral diverges: power-tail exponent {dc.parameter:g} needs "
            f"2p > 2l + n = {2.0 * l + params.n:g}"
        )


@lru_cache(maxsize=None)
def _level_nodes(level: int):
    """Nodes a refinement level adds, relative to the panel width.

    Returns (distance from a, distance from b, weight); each distance is
    formed directly so nodes near either end keep their digits.  The step h
    of the level is applied to the sums, not to the weights.
    """
    h = _H0 / 2 ** level
    k = np.arange(-round(_TAU_MAX / h), round(_TAU_MAX / h) + 1)
    if level > 0:
        k = k[k % 2 == 1]  # even multiples of h are the earlier levels' nodes
    tau = k * h
    e = np.exp(np.pi * np.sinh(tau))
    from_a = e / (1.0 + e)
    from_b = 1.0 / (1.0 + e)
    nodes = (from_a, from_b, np.pi * np.cosh(tau) * from_a * from_b)
    for a in nodes:
        a.setflags(write=False)
    return nodes


def _integrate(panel_sets, exact: np.ndarray, t: np.ndarray, l: float,
               tol: float):
    """Tanh-sinh integrals of every time, at tol and at tol/2.

    panel_sets holds (integrand, a, b) with (times, panels) edge arrays a, b;
    integrand(x, rows) evaluates the times `rows` at nodes x of shape
    (rows, panels, nodes).  exact is a per-time part known in closed form.
    A time has converged to eps once a level changes its integral by at
    most eps relative; only unconverged times are refined.
    """
    sums = np.zeros(t.size)
    prev = np.zeros(t.size)
    at_tol = np.full(t.size, np.nan)
    at_half = np.full(t.size, np.nan)
    rows = np.arange(t.size)
    for level in range(_MAX_LEVEL + 1):
        from_a, from_b, weight = _level_nodes(level)
        for integrand, a, b in panel_sets:
            lo, hi = a[rows, :, None], b[rows, :, None]
            width = hi - lo
            x = np.where(from_a <= 0.5, lo + width * from_a, hi - width * from_b)
            sums[rows] += np.sum(width * weight * integrand(x, rows), axis=(1, 2))
        est = sums[rows] * (_H0 / 2 ** level) + exact[rows]
        if level >= _MIN_LEVEL:
            change = np.abs(est - prev[rows])
            scale = np.maximum(est, np.finfo(float).tiny)
            first = np.isnan(at_tol[rows]) & (change <= tol * scale)
            at_tol[rows[first]] = est[first]
            done = change <= 0.5 * tol * scale
            at_half[rows[done]] = est[done]
            rows = rows[~done]
            est = est[~done]
            if not rows.size:
                return at_tol, at_half
        prev[rows] = est
    raise OracleConvergenceError(
        f"quadrature tolerance not reached at t={t[rows[0]]:g}, l={l:g} "
        f"after {_MAX_LEVEL} refinements"
    )


def _weighted_integral(profile: RadialProfile, l: float, t: np.ndarray,
                       params: ModelParams, window: str, R: float, tol: float):
    """Squared norms Q(t)^2 of every time, at tol and at tol/2."""
    alpha, m = params.alpha, params.m
    area = sphere_area(params.n)
    weigh = _WINDOWS[window]
    half_pow = l + 0.5 * (params.n - 1.0)  # r^(2l+n-1) = (r^half_pow)^2
    dc = profile.decay_class

    def body(r, rows):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            amp = r ** half_pow * np.abs(profile(r))
            v = area * amp * amp * np.exp(-2.0 * t[rows, None, None] * sigma(r, params))
            if weigh is not None:
                v *= weigh(*cutoff_partition(r, R))
        return np.where(np.isfinite(v), v, 0.0)

    def tail(s, rows):
        # s = log u, u = 1/r, so dr = r ds and a power tail is exponential in
        # s; sigma in its overflow-safe u-form; the tail starts past 2R, where
        # every window that has one weighs 1
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            u = np.exp(s)
            r = 1.0 / u
            amp = r ** (half_pow + 0.5) * np.abs(profile(r))
            sig = u ** (2.0 - 2.0 * alpha) / (u * u + m)
            v = area * amp * amp * np.exp(-2.0 * t[rows, None, None] * sig)
        return np.where(np.isfinite(v), v, 0.0)

    r_up, r_down = _sigma_crossings(t, params)
    lo = R if window in ("high", "cross") else 0.0
    hi = 2.0 * R if window in ("low", "cross") else math.inf
    if dc.kind == "compact_support":
        hi = max(min(hi, dc.parameter), lo)

    marks = [np.full(t.size, p) for p in (R, 2.0 * R, 1.0)] + [np.fmax(r_up, lo)]
    if dc.kind == "gaussian":
        marks.append(np.full(t.size, 1.0 / dc.parameter))
    panel_sets = []
    exact = np.zeros(t.size)
    if math.isinf(hi):
        top = np.fmax(r_up, max(2.0 * R, 1.0,
                                2.0 / dc.parameter if dc.kind == "gaussian" else 0.0))
        s_top = -np.log(top)
        s_cut = s_top + math.log(_TAIL_CUT)
        s_break = np.where(r_down > top, -np.log(r_down), s_top)
        panel_sets.append((tail, np.column_stack([s_cut, s_break]),
                           np.column_stack([s_break, s_top])))
        undamped = (alpha <= 1.0) | (t == 0.0)
        if dc.kind == "power_tail" and undamped.any():
            # below s_cut the integrand is C exp(beta s) up to a relative
            # O(t u^(2 - 2 alpha)); beta > 0 was checked for these times,
            # and for the others alpha > 1 damps the tail to nothing
            beta = 2.0 * dc.parameter - 2.0 * l - params.n
            at_cut = tail(s_cut[:, None, None], np.arange(t.size))[:, 0, 0]
            exact = np.where(undamped, at_cut / beta, 0.0)
    else:
        top = np.full(t.size, hi)
    edges = np.sort(np.clip(np.column_stack(marks), lo, top[:, None]), axis=1)
    edges = np.column_stack([np.full(t.size, lo), edges, top])
    panel_sets.insert(0, (body, edges[:, :-1], edges[:, 1:]))
    return _integrate(panel_sets, exact, t, l, tol)


def radial_weighted_l2(profile: RadialProfile, l: float, t,
                       params: ModelParams, window: str = "full",
                       tol: float = DEFAULT_TOL):
    """||Lam^l w(D) u(t)||_L2 of the linear flow started from the profile.

    t is one time (a float is returned) or an array of times (an array of
    the same shape is returned, all times integrated in one pass).  Each
    result carries relative error <= tol, verified internally by tolerance
    halving: evaluations at tol and tol/2 must agree within tol, otherwise
    OracleConvergenceError is raised (so do divergent tails).
    """
    scalar = np.ndim(t) == 0
    times = np.asarray(t, dtype=float)
    if l < 0:
        raise ValueError(f"derivative order l must be nonnegative, got {l}")
    if np.any(times < 0):
        raise ValueError(f"time must be nonnegative, got {t}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if window not in _WINDOWS:
        raise ValueError(f"unknown window {window!r}; use full, low, high, or cross")
    _check_tail_convergence(profile, l, times, params)
    at_tol, at_half = _weighted_integral(profile, l, times.ravel(), params,
                                         window, CUTOFF_RADIUS, tol)
    q_full, q_half = np.sqrt(at_tol), np.sqrt(at_half)
    bad = np.abs(q_full - q_half) > tol * np.maximum(q_half, 1e-300)
    if bad.any():
        i = int(np.argmax(bad))
        raise OracleConvergenceError(
            f"tolerance-halving check failed at t={times.flat[i]:g}, l={l:g}: "
            f"{q_full[i]!r} vs {q_half[i]!r}"
        )
    return float(q_half[0]) if scalar else q_half.reshape(times.shape)


def oracle_decay_fit(profile: RadialProfile, l: float, params: ModelParams,
                     t_window, n_samples: int = 24) -> DecayFit:
    """Fitted log-log decay slope of the full-window norm of the linear flow.

    Samples are log-uniform in [t0, t1]; the window must span at least two
    decades (t1/t0 >= 100) for a stable slope.
    """
    t0, t1 = float(t_window[0]), float(t_window[1])
    if not (t0 > 0 and t1 / t0 >= 100.0):
        raise ValueError("fit window must satisfy t0 > 0 and t1/t0 >= 100")
    if n_samples < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples for a decay fit")
    times = np.geomspace(t0, t1, n_samples)
    values = radial_weighted_l2(profile, l, times, params)
    series = NormSeries(times, values, l=float(l))
    return fit_decay(series, (t0, t1))
