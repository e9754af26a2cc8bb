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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# The bare package, which loads no subpackage, only because perfbench/worker.py
# reads its __version__ from sys.modules.  Every transform is numpy.fft.
import scipy  # noqa: F401

from .model import cutoff_chi


@dataclass(frozen=True)
class GridSpec:
    """Cubic periodic lattice: `points_per_dim` nodes per axis on [0, box_length)^n."""

    n: int
    points_per_dim: int
    box_length: float

    def __post_init__(self):
        if float(self.n) != int(self.n) or not 1 <= int(self.n) <= 3:
            raise ValueError(f"dimension n must be an integer in 1..3, got {self.n}")
        N = self.points_per_dim
        if float(N) != int(N) or int(N) < 4 or int(N) % 2 != 0:
            raise ValueError(f"points_per_dim must be an even integer >= 4, got {N}")
        if not self.box_length > 0:
            raise ValueError(f"box_length must be positive, got {self.box_length}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "points_per_dim", int(self.points_per_dim))
        object.__setattr__(self, "box_length", float(self.box_length))

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


def physical_nodes(grid: GridSpec) -> np.ndarray:
    """1-D physical axis x_j = j h."""
    return grid.spacing * np.arange(grid.points_per_dim, dtype=float)


@dataclass(frozen=True)
class SpectralField:
    """A real field stored as its plain-DFT half spectrum, shape grid.half_shape.

    Treat instances as immutable values: operations return new fields.
    """

    grid: GridSpec
    coefficients: np.ndarray

    def __post_init__(self):
        if self.coefficients.shape != self.grid.half_shape:
            raise ValueError(f"coefficient shape {self.coefficients.shape} is not the "
                             f"half spectrum shape {self.grid.half_shape}")


def to_spectral(grid: GridSpec, samples: np.ndarray) -> SpectralField:
    """Forward transform of physical samples (shape must match the grid)."""
    samples = np.asarray(samples)
    if samples.shape != grid.shape:
        raise ValueError(f"sample shape {samples.shape} does not match grid shape {grid.shape}")
    return SpectralField(grid, np.fft.rfftn(samples, axes=tuple(range(grid.n))))


def to_physical(field: SpectralField) -> np.ndarray:
    """Inverse transform to the real samples on the lattice."""
    g = field.grid
    return np.fft.irfftn(field.coefficients, s=g.shape, axes=tuple(range(g.n)))


def apply_radial_multiplier(field: SpectralField, g) -> SpectralField:
    """Multiply coefficients by g(|k|); g must accept an ndarray of radii."""
    mag = wavenumber_magnitude(field.grid)
    return SpectralField(field.grid, field.coefficients * g(mag))


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

    low has multiplier chi(|k|), high has 1 - chi(|k|); their sum restores
    the field to machine precision because the weights sum to 1 exactly.
    """
    chi = cutoff_chi(wavenumber_magnitude(field.grid))
    low = SpectralField(field.grid, field.coefficients * chi)
    high = SpectralField(field.grid, field.coefficients * (1.0 - chi))
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
    """Points per axis of the padded grid: M = P*N/2, P rows of N/2 points.

    P must be an integer of at least 3, so that M > N and the pad holds the
    split Nyquist modes; P = d+1 makes a degree-d power alias-free.
    """
    if int(P) != P or P < 3:
        raise ValueError(f"padding P must be an integer >= 3, got {P}")
    return int(P) * N // 2


def _pad_axis(a: np.ndarray, axis: int, M: int) -> np.ndarray:
    """a with the full-length `axis` zero-padded from N to M modes: modes
    -N/2 < j < N/2 keep their places, and the Nyquist coefficient is split
    evenly between +N/2 and -N/2, so the padded field stays real and still
    interpolates the lattice samples."""
    h = a.shape[axis] // 2
    out = np.zeros(a.shape[:axis] + (M,) + a.shape[axis + 1:], dtype=complex)
    o, i = np.moveaxis(out, axis, 0), np.moveaxis(a, axis, 0)
    o[:h], o[M - h + 1:] = i[:h], i[h + 1:]
    o[h] = o[M - h] = 0.5 * i[h]
    return out


def _fold_axis(a: np.ndarray, axis: int, N: int) -> np.ndarray:
    """a with the full-length `axis` cut from M modes down to N: the +N/2
    and -N/2 modes, which the lattice cannot tell apart, are folded together
    into its Nyquist coefficient."""
    M, h = a.shape[axis], N // 2
    out = np.empty(a.shape[:axis] + (N,) + a.shape[axis + 1:], dtype=complex)
    o, i = np.moveaxis(out, axis, 0), np.moveaxis(a, axis, 0)
    o[:h], o[h + 1:] = i[:h], i[M - h + 1:]
    o[h] = i[h] + i[M - h]
    return out


# Padded points the kernel below transforms at a time: 2^16 float64 samples,
# 512 KiB, so a 3-D step never holds the whole padded grid.
PADDED_BLOCK_POINTS = 2 ** 16


class PaddedPower:
    """Alias-free u^power of fields on `grid`, one kernel per grid and power.

    A call on a half spectrum returns (the lattice half spectrum of
    u^power, a new array, or None when `spectrum` is false; the integral
    of u^(power+1) over the box, the sum over the padded nodes times their
    volume (L/M)^n).  The power is taken on a zero-padded grid of
    M = P*N/2 points per axis (``padded_size``), which is exact on the
    lattice for degree d when P >= d+1.  Non-finite values pass through
    without a warning.

    In 1-D the padded row is P interleaved sub-lattices of N/2 points,
    one batch of P short transforms each way (``_power_1d``); no transform
    has length M.  For n >= 2, axis 0 is padded and inverse transformed
    first.  Then blocks of axis-0 slabs, about PADDED_BLOCK_POINTS padded
    points each, go through the other axes, the power, the sum and back,
    each axis cut to the lattice once it is done; axis 0 is folded last.
    No transform touches the pad's zero blocks.  Both routes keep half of
    the lattice's Nyquist coefficient at +N/2 on the last axis (``irfft``
    pads that axis itself) and fold the -N/2 share back from its conjugate.

    The kernel builds its twiddles and its two buffers once and writes the
    samples, their power and its forward transform into the buffers on
    every call, so it serves one caller at a time; they go with it.
    """

    def __init__(self, grid: GridSpec, power: int, P: int):
        N, n = grid.points_per_dim, grid.n
        self.M = M = padded_size(N, P)
        self.grid, self.power, self.P = grid, power, int(P)
        # turns the padded nodes' sum of u^(power+1) into an integral
        self.node_volume = (grid.box_length / M) ** n
        if n == 1:
            # the (P, N/4+1) table 0.5 exp(2 pi i j s / M), s the row and j the
            # column, 0.5 being the inverse's scale, and the row phases
            # exp(-2 pi i s / P).  math's cos and sin: numpy's, which a 1-D run
            # loads for nothing else, map about 0.1 MB more code; s*j < M/2,
            # so no angle needs reduction.
            J = N // 4 + 1
            turns = (2.0 * math.pi * (s * j) / M for s in range(self.P) for j in range(J))
            self.table = np.fromiter((0.5 * complex(math.cos(a), math.sin(a)) for a in turns),
                                     complex, self.P * J).reshape(self.P, J)
            self.phase = tuple(complex(math.cos(a), -math.sin(a))
                               for a in (2.0 * math.pi * s / self.P for s in range(self.P)))
            self._rows, self._spectra = np.empty((2, self.P, J), complex)
        else:
            rows = min(M, max(1, PADDED_BLOCK_POINTS // M ** (n - 1)))
            self._raised = np.empty((rows,) + (M,) * (n - 1))
            self._spectra = np.empty((rows,) + (M,) * (n - 2) + (M // 2 + 1,), complex)

    def _power_1d(self, half: np.ndarray, spectrum: bool) -> tuple:
        """The 1-D route, by P transforms of length N/2.

        Padded node m = s + P q is row s, column q of a (P, N/2) array.  With
        w = exp(2 pi i / M), lattice modes k and k - N/2 both land in column
        k mod N/2 of row s, so row s is the length-N/2 inverse rfft of
        G_s[j] = 0.5 w^(js) (H[j] + exp(-2 pi i s/P) conj(H[N/2-j])), j <= N/4.
        The inverse keeps only the real part of G_s[0], which splits the
        Nyquist coefficient evenly between +N/2 and -N/2.  On the way back,
        V_s = rfft(row s of the power) gives F_k = sum_s w^(-ks) V_s[k mod N/2]:
        with Z = conj(V) * table, F_k = conj(sum_s Z[s, k]) for k <= N/4 and
        F_(N/2-j) = sum_s exp(-2 pi i s/P) Z[s, j], a reversed slice.
        """
        P, table, phase, rows, v = self.P, self.table, self.phase, self._rows, self._spectra
        h = self.grid.points_per_dim // 2
        J = h // 2 + 1
        with np.errstate(over="ignore", invalid="ignore"):
            # row by row, with the phase a scalar: numpy would buffer a broadcast
            # complex operand in a temporary the size of the table
            mirror = np.conj(half[h:h - J:-1])
            for row, p in zip(rows, phase):
                np.multiply(mirror, p, out=row)
                row += half[:J]
            rows *= table
            # the samples fill the front of v, their power the front of rows
            # once the inverse has read it, and the power's rfft all of v once
            # the sum has read the samples
            u = np.fft.irfft(rows, n=h, axis=-1, out=np.ndarray((P, h), buffer=v))
            u_power = pointwise_power(u, self.power, out=np.ndarray((P, h), buffer=rows))
            total = float(np.vdot(u_power, u)) * self.node_volume
            if not spectrum:
                return None, total
            np.fft.rfft(u_power, axis=-1, out=v)
            np.conjugate(v, out=v)
            v *= table
            out = np.empty(h + 1, dtype=complex)
            np.conjugate(v.sum(axis=0), out=out[:J])
            for row, p in zip(v[1:], phase[1:]):  # row 0's phase is 1
                row *= p
            out[J:] = v.sum(axis=0)[h - J::-1]
            # +N/2 and -N/2 fold into the lattice's Nyquist coefficient
            out[h] += np.conj(out[h])
            out *= 4.0 / P  # N/M = 2/P, over the table's 0.5
            return out, total

    def __call__(self, half: np.ndarray, spectrum: bool = True) -> tuple:
        n, N, M = self.grid.n, self.grid.points_per_dim, self.M
        if n == 1:
            return self._power_1d(half, spectrum)
        total = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            a = half * (M / N) ** n
            a[..., -1] *= 0.5
            a = _pad_axis(a, 0, M)
            np.fft.ifft(a, axis=0, out=a)
            rows = len(self._raised)
            for start in range(0, M, rows):
                block = a[start:start + rows]
                for axis in range(1, n - 1):
                    block = _pad_axis(block, axis, M)
                    np.fft.ifft(block, axis=axis, out=block)
                k = len(block)
                # the samples fill the front of the rfft's buffer, which the
                # rfft overwrites once the sum has read them
                u = np.fft.irfft(block, n=M, axis=-1,
                                 out=np.ndarray((k,) + (M,) * (n - 1), buffer=self._spectra))
                u_power = pointwise_power(u, self.power, out=self._raised[:k])
                total += np.vdot(u_power, u)
                if spectrum:
                    w = np.fft.rfft(u_power, axis=-1, out=self._spectra[:k])[..., : N // 2 + 1]
                    # +N/2 and -N/2 fold into the lattice's Nyquist column: on
                    # the leading axes' padded nodes the -N/2 column is the
                    # conjugate of the +N/2 one
                    w[..., N // 2] += np.conj(w[..., N // 2])
                    for axis in reversed(range(1, n - 1)):
                        w = _fold_axis(np.fft.fft(w, axis=axis), axis, N)
                    # this block's slabs of `a` are read: they take its result
                    a[start:start + rows] = w
            total = float(total) * self.node_volume
            if not spectrum:
                return None, total
            np.fft.fft(a, axis=0, out=a)
            return _fold_axis(a, 0, N) * (N / M) ** n, total


def _chain_power(x: np.ndarray, power: int, out: np.ndarray) -> np.ndarray:
    """x**power into `out` by repeated squaring: a few multiplications, where
    numpy's float ``pow`` for an integer exponent is tens of times slower.
    The squares go to one array of this function's own, squared in place;
    x itself is never written."""
    base, square, started = x, None, False
    while True:
        if power & 1:
            if started:
                out *= base
            else:
                np.copyto(out, base)
                started = True
        power >>= 1
        if not power:
            return out
        base = square = np.multiply(base, base, out=square)


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
