"""Model constants, radial Fourier symbols, and decay-rate bookkeeping.

The evolution under study is

    u_t - m * Lap(u_t) + (-Lap)^alpha u = u^(theta + 1)

posed on R^n with small data.  Every linear feature of the flow is a radial
Fourier multiplier, so this module works with wavenumber magnitudes
r = |xi| only.  The central object is the dissipation symbol

    sigma(r) = r^(2 alpha) / (1 + m r^2),

which is bounded away from zero at high frequency when alpha >= 1 (the
"gain" regime) and tends to zero when alpha < 1 (the "loss" regime, where
high-frequency decay must be bought with extra derivatives of the data).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

GAIN = "gain"
LOSS = "loss"
CUTOFF_RADIUS = 0.5  # R of the low/high band split: chi = 1 for r <= R, 0 for r >= 2R


class ModelParams(NamedTuple("ModelParams", [
        ("n", int),        # spatial dimension, 1..3
        ("m", float),      # coefficient of -Lap(u_t), positive
        ("alpha", float),  # fractional dissipation order, positive
        ("theta", int),    # nonlinearity is u^(theta+1), positive integer
])):
    """Physical constants of the evolution equation."""

    __slots__ = ()

    def __new__(cls, n, m, alpha, theta):
        if float(n) != int(n) or not 1 <= int(n) <= 3:
            raise ValueError(f"n must be an integer in 1..3, got {n}")
        if not m > 0:
            raise ValueError(f"m must be positive, got {m}")
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if float(theta) != int(theta) or int(theta) < 1:
            raise ValueError(f"theta must be a positive integer, got {theta}")
        return super().__new__(cls, int(n), float(m), float(alpha), int(theta))


def _as_radii(r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("wavenumber magnitude must be nonnegative")
    return r


def _scalar_or_array(x, scalar_input: bool):
    return float(x) if scalar_input else x


def sigma(r, params: ModelParams):
    """Per-mode decay rate of the linear flow: r^(2 alpha) / (1 + m r^2)."""
    scalar = np.ndim(r) == 0
    r = _as_radii(r)
    out = r ** (2.0 * params.alpha) / (1.0 + params.m * r * r)
    return _scalar_or_array(out, scalar)


def b_inverse(r, params: ModelParams):
    """Multiplier of the smoothing operator (I - m Lap)^(-1): 1 / (1 + m r^2)."""
    scalar = np.ndim(r) == 0
    r = _as_radii(r)
    out = 1.0 / (1.0 + params.m * r * r)
    return _scalar_or_array(out, scalar)


def cutoff_partition(r):
    """(chi, 1 - chi) of the smooth cutoff at R = CUTOFF_RADIUS, each its own ratio.

    chi = f(2 - r/R) / (f(2 - r/R) + f(r/R - 1)), f(x) = exp(-1/x) for x > 0:
    C-infinity, 1 for r <= R, 0 for r >= 2R, monotone between, 1/2 at r = 1.5 R.
    1 - chi by subtraction keeps no digits where chi rounds to 1 (just above
    R); f(r/R - 1) / (f(2 - r/R) + f(r/R - 1)) keeps them all.
    """
    scalar = np.ndim(r) == 0
    r = _as_radii(r)
    t = r / CUTOFF_RADIUS
    chi = np.where(t <= 1.0, 1.0, 0.0)
    rest = np.where(t >= 2.0, 1.0, 0.0)
    mid = (t > 1.0) & (t < 2.0)
    tm = t[mid]
    f_hi = np.exp(-1.0 / (2.0 - tm))
    f_lo = np.exp(-1.0 / (tm - 1.0))
    chi[mid] = f_hi / (f_hi + f_lo)
    rest[mid] = f_lo / (f_hi + f_lo)
    return _scalar_or_array(chi, scalar), _scalar_or_array(rest, scalar)


def decay_exponent(l, params: ModelParams):
    """Algebraic decay exponent of ||Lam^l u(t)||_L2: -n/(4 alpha) - l/(2 alpha)."""
    scalar = np.ndim(l) == 0
    l = np.asarray(l, dtype=float)
    if np.any(l < 0):
        raise ValueError("derivative order l must be nonnegative")
    out = -params.n / (4.0 * params.alpha) - l / (2.0 * params.alpha)
    return _scalar_or_array(out, scalar)


class RegimeReport(NamedTuple):
    """Outcome of the small-data hypothesis check for a given data regularity s.

    n0 is the largest derivative order whose decay rate is guaranteed; it
    equals s in the gain regime and is capped below s in the loss regime.
    bands is the loss regime's high-band family H[s_j] as (l_j, s_j) = (j abar,
    s - 2 j abar), j < floor(s/(2 abar)); () when alpha >= 1; not in to_dict().
    """

    regime: str
    theta_ok: bool
    s: float
    s_ok: bool
    n0: float
    warnings: tuple = ()
    bands: tuple = ()

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "theta_ok": self.theta_ok,
            "s": self.s,
            "s_ok": self.s_ok,
            "n0": self.n0,
            "warnings": list(self.warnings),
        }


def validate(params: ModelParams, s: float) -> RegimeReport:
    """Classify the decay regime and check the small-data hypotheses.

    Regime-condition failures are reported through flags and warning strings,
    never raised, so exploratory runs outside the admissible range stay
    possible.  Only structurally invalid parameters raise (handled by
    ModelParams itself) or a negative s.
    """
    if s < 0:
        raise ValueError(f"data regularity s must be nonnegative, got {s}")
    s = float(s)
    n, alpha, theta = params.n, params.alpha, params.theta
    theta_ok = theta > 4.0 * alpha / n
    warnings = []
    if not theta_ok:
        warnings.append(
            f"theta={theta} does not exceed 4*alpha/n={4.0 * alpha / n:g}; "
            "small-data decay is not guaranteed"
        )
    bands = ()
    if alpha >= 1.0:
        regime = GAIN
        s_ok = s > n / 2.0
        n0 = s
        if not s_ok:
            warnings.append(f"s={s:g} does not exceed n/2={n / 2.0:g}")
    else:
        regime = LOSS
        ab = 1.0 - alpha
        j = math.floor(s / (2.0 * ab))
        bands = tuple((k * ab, s - 2.0 * k * ab) for k in range(j))
        s_ok = j >= n / (2.0 * alpha) + 1.5 * ab
        if not s_ok:
            warnings.append(
                f"floor(s/(2*(1-alpha)))={j} is below "
                f"n/(2*alpha)+1.5*(1-alpha)={n / (2.0 * alpha) + 1.5 * ab:g}"
            )
        drag = n / (2.0 * alpha) * ab
        n0 = alpha * min(s - drag, (j - 1) * ab - drag + 2.0)
        if n0 < 0:
            warnings.append(f"decay-tracked order came out negative ({n0:g}); clamped to 0")
            n0 = 0.0
    return RegimeReport(
        regime=regime,
        theta_ok=theta_ok,
        s=s,
        s_ok=s_ok,
        n0=float(n0),
        warnings=tuple(warnings),
        bands=bands,
    )
