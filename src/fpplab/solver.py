"""Exponential time differencing for the full nonlinear evolution.

The mild form of the equation treats the linear flow exactly and the
smoothed nonlinearity through the Duhamel integral:

    u(t) = G(t) u0 + int_0^t G(t - tau) Binv(u^(theta+1)(tau)) dtau,

with G the exact semigroup and Binv = (I - m Lap)^(-1).  ETD1/ETD2
discretize the integral with the phi functions, so the linear sub-flow is
exact per step and the decay measurements are never polluted by linear
solver error.  Binv acts only inside that integral, so it is a factor of
the tables dt phi1 and dt phi2: a nonlinear run builds them per step length
(a clipped step its own), a linear run, which jumps exactly, not at all.
The nonlinear power is evaluated pointwise on a zero-padded grid and
truncated to the lattice, which removes aliasing entirely.
A state is its real-to-complex half spectrum, like every ``SpectralField``,
and inside the step loop also its lattice power: one padded-power kernel
call per state gives both that power and the energy ledger's source term.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import grid as sg
from .model import ModelParams, b_inverse, sigma

PHI_SERIES_CUTOFF = 1e-4
# Roundoff, relative to max |F|, that the evenness check of n >= 2 nonlinear
# data allows: rfftn of cosine samples leaves about 1e-16 of imaginary part.
EVEN_TOLERANCE = 1e-13


class SolverBlowupError(RuntimeError):
    """Raised when a state's energy sum stops being finite; carries the
    offending time."""

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


class SolverConfig(NamedTuple("SolverConfig", [
        ("scheme", str),  # etd1 | etd2
        ("dt", float),
        ("t_end", float),
        ("sample_times", tuple),
        ("enable_nonlinearity", bool),
])):
    __slots__ = ()

    def __new__(cls, scheme="etd2", dt=0.05, t_end=1.0, sample_times=(),
                enable_nonlinearity=True):
        if scheme not in ("etd1", "etd2"):
            raise ValueError(f"scheme must be etd1 or etd2, got {scheme!r}")
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if not t_end >= 0:
            raise ValueError(f"t_end must be nonnegative, got {t_end}")
        for t in sample_times:
            if not 0.0 <= t <= t_end + 1e-12:
                raise ValueError(f"sample time {t} outside [0, t_end]")
        # increasing and distinct, each at most t_end: the times a run lands on
        sample_times = tuple(sorted({min(float(t), t_end) for t in sample_times}))
        return super().__new__(cls, scheme, dt, t_end, sample_times, enable_nonlinearity)

    def _replace(self, **changes):
        """A copy with `changes`, checked and normalised like a new config
        (namedtuple's own _replace would skip __new__)."""
        return type(self)(**{**self._asdict(), **changes})


class EnergyLedger(NamedTuple):
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


class StepState(NamedTuple):
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
    by the energy and dissipation sums) and, for a nonlinear run, its raw
    lattice power P_N(u^(theta+1)), which the phi tables, Binv included,
    multiply; one padded-power call gave it and the ledger's source term."""

    t: float
    half: np.ndarray
    sq: np.ndarray
    ledger: EnergyLedger
    power: np.ndarray


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
        if kernel is not None:  # the Duhamel tables, which a linear run never reads
            binv = b_inverse(mag, params)
            self.dt_phi1 = dt * phi1(z) * binv
            self.dt_phi2 = dt * phi2(z) * binv
        norm = sg.column_weights(N) * grid.box_length ** grid.n / N ** (2 * grid.n)
        self.energy_weight = norm * (1.0 + params.m * mag * mag)
        # Exponentially fitted trapezoid: diss_step * (|a|^2 + |b|^2) / 2 is
        # the exact step integral of the dissipation when b = decay * a.
        self.diss_step = (norm * mag ** (2.0 * params.alpha) * dt * phi1(2.0 * z)
                          / (0.5 * (1.0 + self.decay * self.decay)))

    def enter(self, field: sg.SpectralField) -> _Live:
        """Bring the initial field into the loop at t = 0 with a new ledger;
        a field whose energy sum is not finite has blown up at t = 0."""
        half = field.coefficients
        with np.errstate(over="ignore", invalid="ignore"):
            sq = half.real ** 2 + half.imag ** 2
        e = float(np.vdot(self.energy_weight, sq))
        if not math.isfinite(e):
            raise SolverBlowupError(0.0)
        power, p = self.kernel(half) if self.kernel is not None else (None, 0.0)
        return _Live(0.0, half, sq, EnergyLedger(e0=e, e=e, p=p), power)

    def leave(self, live: _Live) -> StepState:
        """The state as a field, without the cached power."""
        return StepState(t=live.t, field=sg.SpectralField(self.grid, live.half),
                         ledger=live.ledger)

    def advance(self, live: _Live, _last: bool = False) -> _Live:
        """One step of length dt.  With _last set the new state's power,
        which no further step would read, is not formed."""
        u = live.half
        t_new = live.t + self.dt
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kernel is None:
                new = self.decay * u
            else:
                p_n = live.power
                new = self.decay * u + self.dt_phi1 * p_n
                if self.scheme == "etd2":
                    # the correction dt phi2 Binv (p_a - p_n), formed in the
                    # kernel's fresh p_a, which is then dropped: the new
                    # state's kernel call below is the step's peak of memory
                    p_a, _ = self.kernel(new)
                    p_a -= p_n
                    p_a *= self.dt_phi2
                    new += p_a
                    del p_a
            sq = new.real ** 2 + new.imag ** 2
        # every energy weight is positive and finite: one check of the sum
        # catches a non-finite state, an overflowing |new|^2 and sum alike
        e = float(np.vdot(self.energy_weight, sq))
        if not math.isfinite(e):
            raise SolverBlowupError(t_new)
        power, p_new = (self.kernel(new, spectrum=not _last) if self.kernel is not None
                        else (None, 0.0))
        diss = 0.5 * float(np.vdot(self.diss_step, live.sq + sq))
        led = live.ledger
        ledger = EnergyLedger(
            e0=led.e0,
            e=e,
            diss_integral=led.diss_integral + diss,
            source_integral=led.source_integral + 0.5 * self.dt * (led.p + p_new),
            p=p_new,
        )
        return _Live(t_new, new, sq, ledger, power)


class SolveResult(NamedTuple):
    final_state: StepState
    step_count: int


def _require_even(half: np.ndarray) -> None:
    """Refuse a half spectrum that is not even in every coordinate, as the
    n >= 2 padded-power kernel needs: real, and equal to its mirror image
    along each leading axis (the last then follows), up to roundoff.  Data
    that are not finite pass, for the blow-up check at t = 0."""
    tol = EVEN_TOLERANCE * np.max(np.abs(half))
    defect = np.max(np.abs(half.imag))
    if defect > tol:
        raise ValueError(f"an n >= 2 nonlinear solve needs data even in every coordinate: "
                         f"the spectrum has an imaginary part of {defect:.3g} "
                         f"(roundoff allows {tol:.3g})")
    for axis in range(half.ndim - 1):
        with np.errstate(invalid="ignore"):
            defect = np.max(np.abs(half - np.roll(np.flip(half, axis), 1, axis)))
        if defect > tol:
            raise ValueError(f"an n >= 2 nonlinear solve needs data even in every coordinate: "
                             f"the spectrum differs from its mirror image along axis {axis} "
                             f"by {defect:.3g} (roundoff allows {tol:.3g})")


def solve(u0: sg.SpectralField, params: ModelParams, config: SolverConfig,
          on_sample=None) -> SolveResult:
    """Integrate from u0 to t_end, calling on_sample(StepState) at the
    configured sample times.  Nothing keeps a sample after its call returns:
    a caller that wants fields, or norms of them, keeps them itself.

    Every run lands exactly on each sample time and on t_end.  A linear run
    (nonlinearity disabled) crosses each gap between them in one step of the
    exact semigroup, so dt and the scheme play no part.  A nonlinear run
    takes steps of dt and clips the one that would pass a sample time to
    end on it; a gap within 1e-9 max(dt, 1) of a whole number of steps
    takes those steps unclipped, so samples on the dt lattice give the
    fixed-step numbers.  step_count counts the steps, clipped ones
    included.  The nonlinear steps share one padded-power kernel, whose
    buffers and twiddles go when solve returns.  For n >= 2 that kernel
    works on even fields only, so a nonlinear solve raises ValueError for
    data that are not even in every coordinate; the flow keeps them even.
    """
    if config.enable_nonlinearity and u0.grid.n >= 2:
        _require_even(u0.coefficients)
    kernel = (sg.PaddedPower(u0.grid, params.theta + 1, padding(params.theta))
              if config.enable_nonlinearity else None)
    stepper = _Stepper(u0.grid, params, config.dt, config.scheme, kernel)
    live = stepper.enter(u0)
    samples = set(config.sample_times)
    tol = 1e-9 * max(config.dt, 1.0) if kernel is not None else 0.0
    steps = 0
    for stop in sorted(samples | {config.t_end}):
        gap = stop - live.t
        full = int((gap + tol) // config.dt) if kernel is not None else 0
        clip = gap - full * config.dt
        last = stop == config.t_end
        for i in range(full):
            live = stepper.advance(live, _last=last and i == full - 1 and clip <= tol)
        if clip > tol:
            clipped = _Stepper(u0.grid, params, clip, config.scheme, kernel)
            live = clipped.advance(live, _last=last)
        steps += full + (clip > tol)
        live = live._replace(t=stop)
        if stop in samples and on_sample is not None:
            on_sample(stepper.leave(live))
    return SolveResult(final_state=stepper.leave(live), step_count=steps)
