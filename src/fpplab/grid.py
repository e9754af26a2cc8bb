"""Periodic lattice, transforms, radial multipliers, and discrete norms.

Conventions, fixed once for the whole package:

* wavenumbers per axis are k_j = 2 pi j / L for j in {-N/2, ..., N/2 - 1},
  stored in FFT order;
* a field is real, so it is stored as its half spectrum (``rfftn`` layout,
  ``GridSpec.half_shape``); each omitted mode is F(-k) = conj(F(k));
* spectral coefficients are plain DFT sums, F_k = sum_x f(x) exp(-i k x),
  so the discrete Parseval identity reads

      sum_j |f(x_j)|^2 h^n  =  (L^n / N^(2n)) sum_k c_k |F_k|^2

  over the half lattice, c_k being the ``column_weights`` of k's column;
* a continuum radial profile uhat0(r) is planted on the lattice through
  ``field_from_spectral_profile`` so that box norms approximate the
  whole-space norms computed by the quadrature oracle (both sides use the
  unitary-in-energy normalization; see that function's docstring).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
# The bare package, which loads no subpackage, only because perfbench/worker.py
# reads its __version__ from sys.modules.  Every transform is numpy.fft.
import scipy  # noqa: F401

from .model import cutoff_partition


class GridSpec(NamedTuple("GridSpec", [("n", int), ("points_per_dim", int),
                                         ("box_length", float)])):
    """Cubic periodic lattice: `points_per_dim` nodes per axis on [0, box_length)^n."""

    __slots__ = ()

    def __new__(cls, n, points_per_dim, box_length):
        if float(n) != int(n) or not 1 <= int(n) <= 3:
            raise ValueError(f"dimension n must be an integer in 1..3, got {n}")
        N = points_per_dim
        if float(N) != int(N) or int(N) < 4 or int(N) % 2 != 0:
            raise ValueError(f"points_per_dim must be an even integer >= 4, got {N}")
        if not box_length > 0:
            raise ValueError(f"box_length must be positive, got {box_length}")
        return super().__new__(cls, int(n), int(N), float(box_length))

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_dim

    @property
    def shape(self) -> tuple:
        return (self.points_per_dim,) * self.n

    @property
    def half_shape(self) -> tuple:
        return self.shape[:-1] + (self.points_per_dim // 2 + 1,)

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.n


def axis_wavenumbers(grid: GridSpec) -> np.ndarray:
    """1-D wavenumber axis 2 pi j / L in FFT order."""
    N, L = grid.points_per_dim, grid.box_length
    return 2.0 * np.pi * np.fft.fftfreq(N, d=L / N)


@lru_cache(maxsize=64)
def wavenumber_magnitude(grid: GridSpec) -> np.ndarray:
    """|k| over the half lattice, shape grid.half_shape, read-only."""
    k = axis_wavenumbers(grid)
    axes = np.meshgrid(*([k] * (grid.n - 1)), k[: grid.half_shape[-1]], indexing="ij")
    mag = np.sqrt(sum(a * a for a in axes))
    mag.setflags(write=False)
    return mag


def column_weights(N: int) -> np.ndarray:
    """Lattice modes per last-axis column of a half spectrum: 1 at 0 and N/2, else 2."""
    w = np.full(N // 2 + 1, 2.0)
    w[0] = w[-1] = 1.0
    return w


def lattice_norm(half: np.ndarray) -> float:
    """sqrt(sum_k |F_k|^2) over the full lattice of the half spectrum `half`."""
    return math.sqrt(np.vdot(half, column_weights(2 * half.shape[-1] - 2) * half).real)


class SpectralField(NamedTuple("SpectralField", [("grid", GridSpec),
                                                   ("coefficients", np.ndarray)])):
    """A real field stored as its plain-DFT half spectrum, shape grid.half_shape.

    Treat instances as immutable values: operations return new fields.
    """

    __slots__ = ()

    def __new__(cls, grid, coefficients):
        if coefficients.shape != grid.half_shape:
            raise ValueError(f"coefficient shape {coefficients.shape} is not the "
                             f"half spectrum shape {grid.half_shape}")
        return super().__new__(cls, grid, coefficients)


def to_physical(field: SpectralField) -> np.ndarray:
    """Inverse transform to the real samples on the lattice."""
    g = field.grid
    return np.fft.irfftn(field.coefficients, s=g.shape, axes=tuple(range(g.n)))


def spectral_weighted_norm(field: SpectralField, weights: np.ndarray) -> float:
    """sqrt( (L^n / N^(2n)) sum_k |w_k F_k|^2 ) for a precomputed weight array."""
    g = field.grid
    scale = math.sqrt(g.box_length ** g.n) / g.points_per_dim ** g.n
    return scale * lattice_norm(weights * field.coefficients)


def sobolev_seminorm(field: SpectralField, l: float) -> float:
    """Homogeneous seminorm ||Lam^l u||_L2 with spectral weight |k|^l.

    l = 0 reduces exactly to the L2 norm; the zero mode drops out for l > 0.
    """
    if l < 0:
        raise ValueError(f"derivative order l must be nonnegative, got {l}")
    mag = wavenumber_magnitude(field.grid)
    return spectral_weighted_norm(field, mag ** float(l))


def sobolev_norm(field: SpectralField, s: float) -> float:
    """Inhomogeneous norm with spectral weight (1 + |k|^2)^(s/2)."""
    mag = wavenumber_magnitude(field.grid)
    return spectral_weighted_norm(field, (1.0 + mag * mag) ** (0.5 * float(s)))


def lp_norm(field: SpectralField, p) -> float:
    """Physical-space norm: sum |u(x_j)|^p h^n (max over nodes for p = inf)."""
    u = np.abs(to_physical(field))
    g = field.grid
    if p == 1:
        return float(np.sum(u)) * g.cell_volume
    if p == 2:
        return float(np.linalg.norm(u)) * math.sqrt(g.cell_volume)
    if p in (np.inf, float("inf"), "inf"):
        return float(np.max(u))
    raise ValueError(f"unsupported p={p!r}; p must be 1, 2, or inf")


def split_low_high(field: SpectralField) -> tuple:
    """Split into (low, high) parts with the smooth cutoff at R = CUTOFF_RADIUS.

    low and high have the multipliers (chi, 1 - chi) of cutoff_partition, the
    oracle's band windows; their sum restores the field to machine precision.
    """
    chi, rest = cutoff_partition(wavenumber_magnitude(field.grid))
    low = SpectralField(field.grid, field.coefficients * chi)
    high = SpectralField(field.grid, field.coefficients * rest)
    return low, high


def field_from_spectral_profile(grid: GridSpec, profile) -> SpectralField:
    """Plant a continuum radial spectral profile uhat0(r) on the lattice.

    The Fourier-series coefficient at lattice wavenumber k is set to
    uhat0(|k|) (2 pi)^(n/2) / L^n, which makes every box norm a lattice
    Riemann sum of the corresponding whole-space spectral integral: the
    grid then reproduces the quadrature oracle's norms up to exponentially
    small periodization error (while the profile is resolved by the box).
    """
    mag = wavenumber_magnitude(grid)
    vals = np.asarray(profile(mag), dtype=complex)
    scale = (2.0 * np.pi) ** (grid.n / 2.0) * (grid.points_per_dim / grid.box_length) ** grid.n
    return SpectralField(grid, vals * scale)


def padded_size(N: int, P: int) -> int:
    """Points per axis of the padded grid: M = P*N/2, which ``PaddedPower``
    splits in 1-D into P*T/2 rows of N/T points.

    P must be an integer of at least 3, so that M > N and the pad holds the
    split Nyquist modes; P = d+1 makes a degree-d power alias-free.
    """
    if int(P) != P or P < 3:
        raise ValueError(f"padding P must be an integer >= 3, got {P}")
    return int(P) * N // 2


# Padded points the n >= 2 route raises at a time: 2^16 float64 samples,
# 512 KiB, so a 3-D step never holds the whole padded orthant; but a block
# holds at least the N/2+1 axis-0 nodes that its product back fills.
PADDED_BLOCK_POINTS = 2 ** 16
# Samples per row of the 1-D route at most, where N allows: 1024 float64 in
# and their spectrum out take 16 KiB, so a row's transform stays in L1.
PADDED_ROW_POINTS = 1024


class PaddedPower:
    """Alias-free u^power of fields on `grid`, one kernel per grid and power.

    A call on a half spectrum returns (the lattice half spectrum of
    u^power, a new array, or None when `spectrum` is false; the integral
    of u^(power+1) over the box, the sum over the padded nodes times their
    volume (L/M)^n).  The power is taken on a zero-padded grid of
    M = P*N/2 points per axis (``padded_size``), which is exact on the
    lattice for degree d when P >= d+1.  Non-finite values pass through
    without a warning.

    The field must be even in every coordinate, whatever n (``solver.solve``
    checks that once): its half spectrum is then real and even, a cosine
    series, and so are the padded samples and their power, and padded node
    M - m mirrors node m on each axis.  The spectrum returned is exactly
    real.

    In 1-D the padded row is R = P*T/2 interleaved sub-lattices of N/T
    points, T lattice modes to a column; no transform has length M.  T is
    2, doubled while rows would be longer than PADDED_ROW_POINTS and T*2
    divides N.  Row R - s mirrors row s, so only rows s = 0..R//2, each
    weighted by the g_s rows it stands for, take one batch of short
    transforms each way (``_power_1d``).  For n >= 2 the samples and their
    power are taken on the first orthant only, the (M//2+1)^n padded nodes
    m = 0..M//2 per axis.  On each axis ``inv`` (M//2+1, N/2+1) takes the
    orthant's real modes k = 0..N/2 to those nodes, column_weights(N)/N
    cos(2 pi k m/M):
    modes +k and -k together, the Nyquist mode once, half of it at +N/2
    and half at -N/2.  ``fwd`` (N/2+1, M//2+1) brings the power back: the
    node weights mu, which count nodes m and M-m (1 at 0 and M/2, else 2),
    times N/M cos(2 pi k m/M), its N/2 row doubled, which folds -N/2 into
    the lattice's Nyquist mode.  The other axes go to the nodes first; then
    blocks of at least N/2+1 axis-0 nodes, about PADDED_BLOCK_POINTS points,
    take one product to the samples, the power, the mu-weighted sum and
    one product back; the other axes go back last, and the orthant is
    mirrored onto the half spectrum's leading axes.  Every transform is a
    real matrix product (BLAS GEMM).

    The kernel builds its twiddles or tables and its two buffers once and
    writes the samples, their power and its forward transform into the
    buffers on every call, so it serves one caller at a time; they go with
    it.
    """

    def __init__(self, grid: GridSpec, power: int, P: int):
        N, n = grid.points_per_dim, grid.n
        self.M = M = padded_size(N, P)
        self.grid, self.power, self.P = grid, power, int(P)
        # turns the padded nodes' sum of u^(power+1) into an integral
        self.node_volume = (grid.box_length / M) ** n
        if n == 1:
            T = 2
            while N // T > PADDED_ROW_POINTS and N % (2 * T) == 0:
                T *= 2
            R, C = self.P * T // 2, N // T // 2 + 1
            # rows 0..R//2, which hold every sample of an even field
            S = R // 2 + 1
            self.T = T
            # the (S, C) table exp(2 pi i c s / M) / T, s the row and c the
            # column, 1/T being the inverse's scale, and the (S, T) matrix
            # exp(2 pi i t s / R) over the column's modes t = 0, .., T/2 - 1,
            # -T/2, .., -1.  math's cos and sin: numpy's, which a 1-D run
            # loads for nothing else, map about 0.1 MB more code; s*c < M/2,
            # so no angle needs reduction.
            turns = (2.0 * math.pi * (s * c) / M for s in range(S) for c in range(C))
            self.twiddle = np.fromiter((complex(math.cos(a), math.sin(a)) / T for a in turns),
                                       complex, S * C).reshape(S, C)
            modes = (*range(T // 2), *range(-T // 2, 0))
            turns = (2.0 * math.pi * (t * s % R) / R for s in range(S) for t in modes)
            self.dft = np.fromiter((complex(math.cos(a), math.sin(a)) for a in turns),
                                   complex, S * T).reshape(S, T)
            # the way back's: conj(twiddle) times 2T/P, which is N/M = 2/P over
            # the twiddles' 1/T, times g, which counts rows s and R - s (1 at
            # 0 and R/2, else 2), and the (T, S) conjugate transpose of dft
            self.g = np.where(2 * np.arange(S) % R == 0, 1.0, 2.0)
            self.twiddle_back = np.conj(self.twiddle) * (2.0 * T / self.P) * self.g[:, None]
            self.dft_back = np.conj(self.dft).T
            # each holds the T rows of modes to a column or S rows of samples,
            # of their power or of spectra
            self._rows, self._spectra = np.empty((2, max(S, T), C), complex)
        else:
            H, Q = N // 2 + 1, M // 2 + 1
            # the angles 2 pi k m / M of the modes k = 0..N/2 at the nodes
            # m = 0..M//2, from the exact integer k*m mod M
            cos = np.cos(2.0 * np.pi / M * (np.outer(np.arange(H), np.arange(Q)) % M))
            self.inv = cos.T * (column_weights(N) / N)
            # nodes m and M - m hold one sample of an even field: mu counts them
            self.mu = np.where(2 * np.arange(Q) % M == 0, 1.0, 2.0)
            self.fwd = cos * (self.mu * (N / M))
            self.fwd[-1] *= 2.0
            # mu over the nodes of axes 1..n-1, in the blocks' C order
            self.mu_rest = self.mu
            for _ in range(n - 2):
                self.mu_rest = np.outer(self.mu_rest, self.mu).ravel()
            rows = min(Q, max(H, PADDED_BLOCK_POINTS // Q ** (n - 1)))
            self._raised = np.empty((rows, Q ** (n - 1)))
            # the samples; once the sum has read them, the first H rows take
            # a block's product back
            self._samples = np.empty((rows, Q ** (n - 1)))

    def _power_1d(self, half: np.ndarray, spectrum: bool) -> tuple:
        """The 1-D route, by S = R//2 + 1 transforms of length L = N/T.

        Padded node m = s + R q is row s, column q of an (R, L) array.  With
        w = exp(2 pi i / M), lattice mode k = c + L t lands in column c of
        row s with the factor w^(cs) exp(2 pi i t s/R), so row s is the
        length-L inverse rfft of the twiddled rows of dft @ X, where column
        c <= L/2 of X holds the T modes c + L t, t = -T/2, .., T/2 - 1, from
        the half spectrum: forward slices for t >= 0, reversed ones for
        t < 0, the -N/2 mode whole.  The inverse keeps only the real part of
        column 0, which splits the Nyquist coefficient evenly between +N/2
        and -N/2.  The field is even, so node M - m mirrors node m: row
        R - s at column L-1-q is row s at column q, and rows 0 and R/2 are
        their own mirrors.  Only rows s = 0..R//2 are raised, their node
        sums weighted by g.  On the way back, with V = rfft of the rows of
        the power, F_(c + L t) = sum_s w^(-cs) exp(-2 pi i t s/R) V[s, c],
        and the terms of rows s and R - s are complex conjugates, so F is
        the real part of row t of dft_back @ (V * twiddle_back), g and the
        N/M scale being in twiddle_back: forward slices of F for t >= 0,
        reversed ones for t < 0.  The result's imaginary part is exactly 0.
        """
        T, x = self.T, self._spectra[:self.T]
        S, C = self.twiddle.shape
        y, v = self._rows[:S], self._spectra[:S]
        h = self.grid.points_per_dim // 2
        L = 2 * h // T
        with np.errstate(over="ignore", invalid="ignore"):
            # the modes x fill the front of _spectra, the rows y of _rows;
            # then the samples fill the front of _spectra, their power the
            # front of _rows once the inverse has read y, the power's rfft v
            # once the sum has read the samples, and dft_back's product the
            # front of _rows
            for t in range(T // 2):
                x[t] = half[L * t:L * t + C]
                k = L * (t + 1)
                x[T - 1 - t] = half[k:k - C:-1]
            np.matmul(self.dft, x, out=y)
            y *= self.twiddle
            u = np.fft.irfft(y, n=L, axis=-1, out=np.ndarray((S, L), buffer=self._spectra))
            u_power = pointwise_power(u, self.power, out=np.ndarray((S, L), buffer=self._rows))
            # the rows' node sums, each a (1, L) by (L, 1) product
            sums = np.matmul(u_power[:, None], u[..., None]).ravel()
            total = float(self.g @ sums) * self.node_volume
            if not spectrum:
                return None, total
            np.fft.rfft(u_power, axis=-1, out=v)
            v *= self.twiddle_back
            b = np.matmul(self.dft_back, v, out=self._rows[:T]).real
            out = np.zeros(h + 1, dtype=complex)
            f = out.real
            for t in range(T // 2):
                f[L * t:L * t + C] = b[t]
                k = L * (t + 1)
                f[k:k - C:-1] = b[T - 1 - t]
            # +N/2 and -N/2 fold into the lattice's Nyquist coefficient
            f[h] *= 2.0
            return out, total

    def __call__(self, half: np.ndarray, spectrum: bool = True) -> tuple:
        n = self.grid.n
        if n == 1:
            return self._power_1d(half, spectrum)
        inv, fwd, mu = self.inv, self.fwd, self.mu
        Q, H = inv.shape
        rows = len(self._raised)
        total = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            # axes n-1..1 to the nodes, n being 3 at most; matmul takes the
            # middle axis of a 3-D array
            a = np.ascontiguousarray(half[(slice(H),) * n].real) @ inv.T
            if n == 3:
                a = np.matmul(inv, a)
            a = a.reshape(H, -1)
            out = np.zeros((H, a.shape[1])) if spectrum else None
            for start in range(0, Q, rows):
                k = min(rows, Q - start)
                u = np.matmul(inv[start:start + k], a, out=self._samples[:k])
                u_power = pointwise_power(u, self.power, out=self._raised[:k])
                u *= u_power
                total += mu[start:start + k] @ (u @ self.mu_rest)
                if spectrum:
                    out += np.matmul(fwd[:, start:start + k], u_power, out=self._samples[:H])
            total = float(total) * self.node_volume
            if not spectrum:
                return None, total
            out = out.reshape((H,) + (Q,) * (n - 1))
            if n == 3:
                out = np.matmul(fwd, out)
            out = out @ fwd.T
            # spectrum index N-j holds mode -j, whose value is mode j's
            mirror = np.r_[0:H, H - 2:0:-1]
            return out[np.ix_(*[mirror] * (n - 1))].astype(complex), total


def _chain_power(x: np.ndarray, power: int, out: np.ndarray) -> np.ndarray:
    """x**power into `out` by repeated squaring: a few multiplications, where
    numpy's float ``pow`` for an integer exponent is tens of times slower.
    The square for the lowest set bit of `power` is formed in `out` itself,
    the later squares in one array of this function's own, squared in
    place; x itself is never written."""
    base = x
    while not power & 1:
        base = np.multiply(base, base, out=out)
        power >>= 1
    if base is x:
        np.copyto(out, x)
    square = None
    while power := power >> 1:
        base = square = np.multiply(base, base, out=square)
        if power & 1:
            out *= square
    return out


def pointwise_power(u: np.ndarray, power: int, out: np.ndarray = None) -> np.ndarray:
    """u^power of physical samples for an integer power >= 1, written into
    `out` (an array of u's shape that does not overlap u) when it is given.

    ``PaddedPower`` applies it to padded samples, for alias-free products.
    """
    if int(power) != power or power < 1:
        raise ValueError(f"power must be an integer >= 1, got {power}")
    if out is None:
        out = np.empty_like(u)
    with np.errstate(over="ignore", invalid="ignore"):
        return _chain_power(u, int(power), out)
