"""Exponential time differencing for the full nonlinear evolution.

The mild form of the equation treats the linear flow exactly and the
smoothed nonlinearity through the Duhamel integral:

    u(t) = G(t) u0 + int_0^t G(t - tau) Binv(u^(theta+1)(tau)) dtau,

with G the exact semigroup and Binv = (I - m Lap)^(-1).  ETD1/ETD2
discretize the integral with the phi functions, so the linear sub-flow is
exact per step and the decay measurements are never polluted by linear
solver error.  The nonlinear power is evaluated pointwise on a zero-padded
grid and truncated to the lattice, which removes aliasing entirely.
Inside the step loop a state is its real-to-complex half spectrum plus its
forcing: one padded transform per state gives both that forcing and the
energy ledger's source term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import grid as sg
from .model import ModelParams, b_inverse, sigma

PHI_SERIES_CUTOFF = 1e-4


class SolverBlowupError(RuntimeError):
    """Raised when the state stops being finite; carries the offending time."""

    def __init__(self, t: float):
        super().__init__(f"non-finite state detected at t={t:g}")
        self.t = t


def phi1(z):
    """phi1(z) = (exp(z) - 1) / z, series-evaluated near 0 to dodge cancellation."""
    scalar = np.ndim(z) == 0
    z = np.asarray(z, dtype=float)
    if np.any(z > 1e-12):
        raise ValueError("phi1 expects z <= 0 (dissipative symbol)")
    small = np.abs(z) < PHI_SERIES_CUTOFF
    out = np.empty_like(z)
    zs = z[small]
    out[small] = 1.0 + zs * (0.5 + zs * (1.0 / 6.0 + zs / 24.0))
    zb = z[~small]
    out[~small] = np.expm1(zb) / zb
    return float(out) if scalar else out


def phi2(z):
    """phi2(z) = (exp(z) - 1 - z) / z^2, series-evaluated near 0."""
    scalar = np.ndim(z) == 0
    z = np.asarray(z, dtype=float)
    if np.any(z > 1e-12):
        raise ValueError("phi2 expects z <= 0 (dissipative symbol)")
    small = np.abs(z) < PHI_SERIES_CUTOFF
    out = np.empty_like(z)
    zs = z[small]
    out[small] = 0.5 + zs * (1.0 / 6.0 + zs * (1.0 / 24.0 + zs / 120.0))
    zb = z[~small]
    out[~small] = (np.expm1(zb) - zb) / (zb * zb)
    return float(out) if scalar else out


@dataclass(frozen=True)
class SolverConfig:
    scheme: str = "etd2"            # etd1 | etd2
    dt: float = 0.05
    t_end: float = 1.0
    sample_times: tuple = ()
    enable_nonlinearity: bool = True

    def __post_init__(self):
        if self.scheme not in ("etd1", "etd2"):
            raise ValueError(f"scheme must be etd1 or etd2, got {self.scheme!r}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.t_end >= 0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        for t in self.sample_times:
            if not 0.0 <= t <= self.t_end + 1e-12:
                raise ValueError(f"sample time {t} outside [0, t_end]")
        object.__setattr__(self, "sample_times", tuple(float(t) for t in self.sample_times))


@dataclass(frozen=True)
class EnergyLedger:
    """Running terms of the energy balance.

    e = ||u||_L2^2 + m ||Lam u||_L2^2, diss_integral and source_integral are
    trapezoid accumulations of ||Lam^alpha u||^2 and int u^(theta+2) dx at
    step resolution, d/p hold the current instantaneous values so the
    trapezoid can be chained.
    """

    e0: float
    e: float
    diss_integral: float = 0.0
    source_integral: float = 0.0
    d: float = 0.0
    p: float = 0.0


@dataclass(frozen=True)
class StepState:
    t: float
    field: sg.SpectralField
    ledger: EnergyLedger


def energy_balance_residual(ledger: EnergyLedger) -> float:
    """Relative defect of E(t) - E(0) + 2 int ||Lam^a u||^2 - 2 int u^(th+2).

    The dissipation term uses the full Lam^alpha weight, which is the form
    that balances against the spectral flow (pairing the fractional
    dissipation with u yields the squared Lam^alpha norm).
    """
    raw = (ledger.e - ledger.e0) + 2.0 * ledger.diss_integral - 2.0 * ledger.source_integral
    if ledger.e0 == 0.0:
        return 0.0 if raw == 0.0 else math.inf
    return raw / ledger.e0


def pad_factor(theta: int) -> float:
    """Padding that makes the degree-(theta+1) power alias-free: (theta+2)/2."""
    return (theta + 2) / 2.0


class _Live(NamedTuple):
    """A state inside the step loop: its half spectrum and, for a nonlinear
    run, its forcing Binv(u^(theta+1)), computed by the same padded
    transform that gave the ledger its source term."""

    t: float
    half: np.ndarray
    ledger: EnergyLedger
    forcing: np.ndarray


class _Stepper:
    """Precomputed half-spectrum multiplier tables for a fixed (grid, params, dt)."""

    def __init__(self, grid: sg.GridSpec, params: ModelParams, dt: float,
                 scheme: str, nonlinear: bool):
        self.grid = grid
        self.params = params
        self.dt = dt
        self.scheme = scheme
        self.nonlinear = nonlinear
        N = grid.points_per_dim
        mag = sg.wavenumber_magnitude(grid)[..., : N // 2 + 1]
        sig = sigma(mag, params)
        self.decay = np.exp(-sig * dt)
        self.dt_phi1 = dt * phi1(-sig * dt)
        self.dt_phi2 = dt * phi2(-sig * dt)
        self.forcing_multiplier = b_inverse(mag, params)
        # interior last-axis columns stand for themselves and their mirror images
        columns = np.full(N // 2 + 1, 2.0)
        columns[0] = columns[-1] = 1.0
        norm = columns * grid.box_length ** grid.n / N ** (2 * grid.n)
        self.diss_weight = norm * mag ** (2.0 * params.alpha)
        self.energy_weight = norm * (1.0 + params.m * mag * mag)
        self.pad_factor = pad_factor(params.theta)

    @staticmethod
    def _weighted_sum(weight: np.ndarray, half: np.ndarray) -> float:
        return float(np.vdot(weight, half.real ** 2 + half.imag ** 2))

    def _nonlinear(self, half: np.ndarray) -> tuple:
        """Forcing and int u^(theta+2) dx of a state from one padded inverse
        transform, or (None, 0.0) for a linear run.  The padded arrays die
        here, so only lattice-sized arrays live between steps."""
        if not self.nonlinear:
            return None, 0.0
        up, M = sg.padded_physical(half, self.pad_factor)
        power = sg.pointwise_power(up, self.params.theta + 1)
        source = float(np.vdot(power, up)) * (self.grid.box_length / M) ** self.grid.n
        del up  # one padded array fewer alive during the forward transform
        # a non-finite power gives a non-finite forcing, which advance() checks
        with np.errstate(over="ignore", invalid="ignore"):
            forcing = self.forcing_multiplier * sg.truncated_spectrum(
                power, self.grid.points_per_dim)
        return forcing, source

    def enter(self, field: sg.SpectralField) -> _Live:
        """Bring the initial field into the loop at t = 0 with a new ledger."""
        half = sg.half_spectrum(field)
        forcing, p = self._nonlinear(half)
        e = self._weighted_sum(self.energy_weight, half)
        ledger = EnergyLedger(e0=e, e=e, d=self._weighted_sum(self.diss_weight, half), p=p)
        return _Live(0.0, half, ledger, forcing)

    def leave(self, live: _Live) -> StepState:
        """The full-spectrum state, without the cached forcing."""
        return StepState(t=live.t, field=sg.from_half_spectrum(self.grid, live.half),
                         ledger=live.ledger)

    def advance(self, live: _Live) -> _Live:
        u = live.half
        if not self.nonlinear:
            new = self.decay * u
        else:
            f_n = live.forcing
            new = self.decay * u + self.dt_phi1 * f_n
            if self.scheme == "etd2":
                f_a, _ = self._nonlinear(new)
                new += self.dt_phi2 * (f_a - f_n)
        t_new = live.t + self.dt
        if not np.all(np.isfinite(new)):
            raise SolverBlowupError(t_new)
        forcing, p_new = self._nonlinear(new)
        d_new = self._weighted_sum(self.diss_weight, new)
        led = live.ledger
        ledger = replace(
            led,
            e=self._weighted_sum(self.energy_weight, new),
            diss_integral=led.diss_integral + 0.5 * self.dt * (led.d + d_new),
            source_integral=led.source_integral + 0.5 * self.dt * (led.p + p_new),
            d=d_new,
            p=p_new,
        )
        return _Live(t_new, new, ledger, forcing)


@dataclass(frozen=True)
class SolveResult:
    trajectory: tuple          # ((t, SpectralField), ...) at sample times
    final_state: StepState
    step_count: int


def solve(u0: sg.SpectralField, params: ModelParams, config: SolverConfig,
          on_sample=None) -> SolveResult:
    """Integrate from u0 to t_end, snapshotting at the configured sample times.

    Sample times are snapped to the step lattice (floor of t/dt), so a fixed
    config reproduces bit-identical output.  With the nonlinearity disabled
    every step applies the exact semigroup multiplier.
    """
    stepper = _Stepper(u0.grid, params, config.dt, config.scheme,
                       config.enable_nonlinearity)
    n_steps = int(math.floor(config.t_end / config.dt + 1e-9))
    remainder = config.t_end - n_steps * config.dt
    sample_idx = sorted({min(int(math.floor(t / config.dt + 1e-9)), n_steps)
                         for t in config.sample_times})
    want = set(sample_idx)

    live = stepper.enter(u0)
    trajectory = []

    def maybe_emit(i, current):
        if i in want:
            st = stepper.leave(current)
            trajectory.append((st.t, st.field))
            if on_sample is not None:
                on_sample(st)

    maybe_emit(0, live)
    for i in range(1, n_steps + 1):
        live = stepper.advance(live)
        maybe_emit(i, live)
    if remainder > 1e-9 * max(config.dt, 1.0):
        tail = _Stepper(u0.grid, params, remainder, config.scheme,
                        config.enable_nonlinearity)
        live = tail.advance(live)
    return SolveResult(trajectory=tuple(trajectory), final_state=stepper.leave(live),
                       step_count=n_steps)
