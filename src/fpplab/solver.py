"""Exponential time differencing for the full nonlinear evolution.

The mild form of the equation treats the linear flow exactly and the
smoothed nonlinearity through the Duhamel integral:

    u(t) = G(t) u0 + int_0^t G(t - tau) Binv(u^(theta+1)(tau)) dtau,

with G the exact semigroup and Binv = (I - m Lap)^(-1).  ETD1/ETD2
discretize the integral with the phi functions, so the linear sub-flow is
exact per step and the decay measurements are never polluted by linear
solver error.  The nonlinear power is evaluated pointwise on a zero-padded
grid and truncated to the lattice, which removes aliasing entirely.
A state is its real-to-complex half spectrum, like every ``SpectralField``,
and inside the step loop also its forcing: one padded-power kernel call per
state gives both that forcing and the energy ledger's source term.
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
    """Raised when the state, or its squared modulus, stops being finite;
    carries the offending time."""

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

    e = ||u||_L2^2 + m ||Lam u||_L2^2.  diss_integral accumulates
    int ||Lam^alpha u||^2 dt by an exponentially fitted trapezoid per mode,
    exact on the linear flow and second order otherwise; source_integral
    accumulates int u^(theta+2) dx dt by the plain trapezoid, and p holds the
    current int u^(theta+2) dx so that trapezoid can be chained.
    """

    e0: float
    e: float
    diss_integral: float = 0.0
    source_integral: float = 0.0
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


def padding(theta: int) -> int:
    """The padding P = theta+2 of grid.padded_size, M = P*N/2 points per
    axis, which makes the degree-(theta+1) power alias-free."""
    return theta + 2


class _Live(NamedTuple):
    """A state inside the step loop: its half spectrum, its |half|^2 (shared
    by the energy and dissipation sums) and, for a nonlinear run, its
    forcing Binv(u^(theta+1)), computed by the same padded-power call that
    gave the ledger its source term."""

    t: float
    half: np.ndarray
    sq: np.ndarray
    ledger: EnergyLedger
    forcing: np.ndarray


class _Stepper:
    """Precomputed half-spectrum multiplier tables for a fixed (grid, params, dt)."""

    def __init__(self, grid: sg.GridSpec, params: ModelParams, dt: float,
                 scheme: str, kernel: sg.PaddedPower = None):
        self.grid = grid
        self.dt = dt
        self.scheme = scheme
        self.kernel = kernel  # the padded power u^(theta+1); None for a linear run
        N = grid.points_per_dim
        mag = sg.wavenumber_magnitude(grid)
        z = -sigma(mag, params) * dt
        self.decay = np.exp(z)
        self.dt_phi1 = dt * phi1(z)
        self.dt_phi2 = dt * phi2(z)
        self.forcing_multiplier = b_inverse(mag, params)
        norm = sg.column_weights(N) * grid.box_length ** grid.n / N ** (2 * grid.n)
        self.energy_weight = norm * (1.0 + params.m * mag * mag)
        # Exponentially fitted trapezoid: diss_step * (|a|^2 + |b|^2) / 2 is
        # the exact step integral of the dissipation when b = decay * a.
        self.diss_step = (norm * mag ** (2.0 * params.alpha) * dt * phi1(2.0 * z)
                          / (0.5 * (1.0 + self.decay * self.decay)))

    def _nonlinear(self, half: np.ndarray, need_forcing: bool = True) -> tuple:
        """Forcing and int u^(theta+2) dx of a state from one padded-power
        kernel call, or (None, 0.0) for a linear run; the forcing is None
        when not needed."""
        if self.kernel is None:
            return None, 0.0
        power, source = self.kernel(half, spectrum=need_forcing)
        if power is None:
            return None, source
        # a non-finite power gives a non-finite forcing, which advance() checks
        with np.errstate(over="ignore", invalid="ignore"):
            return self.forcing_multiplier * power, source

    def enter(self, field: sg.SpectralField) -> _Live:
        """Bring the initial field into the loop at t = 0 with a new ledger;
        a field whose |half|^2 overflows has blown up at t = 0."""
        half = field.coefficients
        with np.errstate(over="ignore"):
            sq = half.real ** 2 + half.imag ** 2
        if not np.all(np.isfinite(sq)):
            raise SolverBlowupError(0.0)
        forcing, p = self._nonlinear(half)
        e = float(np.vdot(self.energy_weight, sq))
        return _Live(0.0, half, sq, EnergyLedger(e0=e, e=e, p=p), forcing)

    def leave(self, live: _Live) -> StepState:
        """The state as a field, without the cached forcing."""
        return StepState(t=live.t, field=sg.SpectralField(self.grid, live.half),
                         ledger=live.ledger)

    def advance(self, live: _Live, _last: bool = False) -> _Live:
        """One step of length dt.  With _last set the new state's forcing,
        which no further step would read, is not formed."""
        u = live.half
        t_new = live.t + self.dt
        # a state that overflows is non-finite, and so is its |new|^2 when the
        # state is finite but its square overflows: one check catches both
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kernel is None:
                new = self.decay * u
            else:
                f_n = live.forcing
                new = self.decay * u + self.dt_phi1 * f_n
                if self.scheme == "etd2":
                    f_a, _ = self._nonlinear(new)
                    new += self.dt_phi2 * (f_a - f_n)
            sq = new.real ** 2 + new.imag ** 2
        if not np.all(np.isfinite(sq)):
            raise SolverBlowupError(t_new)
        forcing, p_new = self._nonlinear(new, need_forcing=not _last)
        diss = 0.5 * float(np.vdot(self.diss_step, live.sq + sq))
        led = live.ledger
        ledger = replace(
            led,
            e=float(np.vdot(self.energy_weight, sq)),
            diss_integral=led.diss_integral + diss,
            source_integral=led.source_integral + 0.5 * self.dt * (led.p + p_new),
            p=p_new,
        )
        return _Live(t_new, new, sq, ledger, forcing)


@dataclass(frozen=True)
class SolveResult:
    trajectory: tuple          # ((t, SpectralField), ...) at sample times
    final_state: StepState
    step_count: int


def solve(u0: sg.SpectralField, params: ModelParams, config: SolverConfig,
          on_sample=None) -> SolveResult:
    """Integrate from u0 to t_end, snapshotting at the configured sample times.

    A linear run (nonlinearity disabled) jumps from one sample time to the
    next, and then to t_end, with the exact semigroup multiplier: sample
    times land exactly, dt and the scheme play no part, and step_count
    counts the jumps.  A nonlinear run takes fixed steps of dt and snaps its
    sample times to the step lattice (floor of t/dt), so a fixed config
    reproduces bit-identical output.  Its steps share one padded-power
    kernel, whose buffers and twiddles go when it returns.
    """
    kernel = (sg.PaddedPower(u0.grid, params.theta + 1, padding(params.theta))
              if config.enable_nonlinearity else None)
    stepper = _Stepper(u0.grid, params, config.dt, config.scheme, kernel)
    live = stepper.enter(u0)
    trajectory = []

    def emit(current):
        st = stepper.leave(current)
        trajectory.append((st.t, st.field))
        if on_sample is not None:
            on_sample(st)

    if not config.enable_nonlinearity:
        samples = {min(t, config.t_end) for t in config.sample_times}
        jumps = 0
        for stop in sorted(samples | {config.t_end}):
            if stop > live.t:
                jump = _Stepper(u0.grid, params, stop - live.t, config.scheme)
                live = jump.advance(live)._replace(t=stop)
                jumps += 1
            if stop in samples:
                emit(live)
        return SolveResult(trajectory=tuple(trajectory), final_state=stepper.leave(live),
                           step_count=jumps)

    n_steps = int(math.floor(config.t_end / config.dt + 1e-9))
    remainder = config.t_end - n_steps * config.dt
    has_tail = remainder > 1e-9 * max(config.dt, 1.0)
    want = {min(int(math.floor(t / config.dt + 1e-9)), n_steps)
            for t in config.sample_times}
    if 0 in want:
        emit(live)
    for i in range(1, n_steps + 1):
        live = stepper.advance(live, _last=i == n_steps and not has_tail)
        if i in want:
            emit(live)
    if has_tail:
        tail = _Stepper(u0.grid, params, remainder, config.scheme, kernel)
        live = tail.advance(live, _last=True)
    return SolveResult(trajectory=tuple(trajectory), final_state=stepper.leave(live),
                       step_count=n_steps)
