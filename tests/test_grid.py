import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fpplab import grid as sg
from fpplab.model import ModelParams, cutoff_partition, sigma
from fpplab.solver import padding
from conftest import apply_radial_multiplier, physical_nodes, random_real_field, to_spectral


class TestMakeGrid:
    def test_integer_wavenumbers_on_2pi_box(self):
        g = sg.GridSpec(1, 8, 2.0 * np.pi)
        k = sg.axis_wavenumbers(g)
        assert np.allclose(sorted(k), np.arange(-4, 4))

    def test_wavenumber_spacing(self):
        g = sg.GridSpec(1, 4, 4.0 * np.pi)
        k = np.sort(sg.axis_wavenumbers(g))
        assert np.allclose(np.diff(k), 0.5)

    def test_rejects_odd_or_bad(self):
        with pytest.raises(ValueError, match="even"):
            sg.GridSpec(1, 7, 2.0 * np.pi)
        with pytest.raises(ValueError):
            sg.GridSpec(1, 8, -1.0)
        with pytest.raises(ValueError):
            sg.GridSpec(5, 8, 1.0)
        with pytest.raises(ValueError):
            sg.GridSpec(1, 2, 1.0)


class TestTransforms:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_identity(self, seed):
        g = sg.GridSpec(1, 64, 2.0 * np.pi)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(g.shape)
        back = sg.to_physical(to_spectral(g, f))
        assert np.max(np.abs(back.real - f)) <= 1e-12 * max(1.0, np.max(np.abs(f)))
        assert np.max(np.abs(back.imag)) <= 1e-12

    def test_round_trip_2d_3d(self):
        for n, N in ((2, 16), (3, 8)):
            g = sg.GridSpec(n, N, 5.0)
            rng = np.random.default_rng(n)
            f = rng.standard_normal(g.shape)
            back = sg.to_physical(to_spectral(g, f))
            assert np.max(np.abs(back.real - f)) <= 1e-12

    def test_single_cosine_has_two_lines(self):
        g = sg.GridSpec(1, 32, 2.0 * np.pi)
        x = physical_nodes(g)
        field = to_spectral(g, np.cos(3.0 * x))
        c = field.coefficients
        big = np.abs(c) > 1e-9 * np.max(np.abs(c))
        assert big.sum() == 1  # the line at -3 is the mirror image of this one
        assert big[3]

    def test_size_mismatch(self):
        g = sg.GridSpec(1, 16, 1.0)
        with pytest.raises(ValueError):
            to_spectral(g, np.zeros(8))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_lattice_array_is_rejected(self, n):
        g = sg.GridSpec(n, 8, 1.0)
        full = np.fft.fftn(np.ones(g.shape))
        with pytest.raises(ValueError, match=re.escape(f"half spectrum shape {g.half_shape}")):
            sg.SpectralField(g, full)

    @given(n=st.sampled_from((1, 2, 3)), seed=st.integers(0, 10_000),
           l=st.floats(0.0, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_half_lattice_norms_equal_full_lattice_sums(self, n, seed, l):
        g = sg.GridSpec(n, {1: 64, 2: 16, 3: 8}[n], 5.0)
        x = np.random.default_rng(seed).standard_normal(g.shape)
        f = to_spectral(g, x)
        full = np.fft.fftn(x)
        k = sg.axis_wavenumbers(g)
        mag = np.sqrt(sum(a * a for a in np.meshgrid(*([k] * n), indexing="ij")))
        scale = g.box_length ** n / g.points_per_dim ** (2 * n)
        semi = np.sqrt(scale * np.sum(np.abs(mag ** l * full) ** 2))
        norm = np.sqrt(scale * np.sum(np.abs((1.0 + mag * mag) ** (0.5 * l) * full) ** 2))
        assert abs(sg.sobolev_seminorm(f, l) - semi) <= 1e-13 * semi
        assert abs(sg.sobolev_norm(f, l) - norm) <= 1e-13 * norm
        back = sg.to_physical(f)
        assert back.dtype == np.float64 and back.shape == g.shape
        assert np.max(np.abs(back - x)) <= 1e-12 * max(1.0, np.max(np.abs(x)))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_discrete_parseval(self, seed):
        g = sg.GridSpec(1, 128, 10.0)
        rng = np.random.default_rng(seed)
        f = rng.standard_normal(g.shape)
        field = to_spectral(g, f)
        physical = np.sum(np.abs(f) ** 2) * g.cell_volume
        N, L = g.points_per_dim, g.box_length
        weighted = sg.column_weights(N) * np.abs(field.coefficients) ** 2
        spectral = np.sum(weighted) * L**g.n / N ** (2 * g.n)
        assert abs(physical - spectral) <= 1e-12 * physical


class TestRadialMultiplier:
    def test_identity(self, grid_1d):
        f = random_real_field(grid_1d, seed=1)
        out = apply_radial_multiplier(f, lambda r: np.ones_like(r))
        assert np.array_equal(out.coefficients, f.coefficients)

    def test_laplacian_symbol_on_single_mode(self):
        g = sg.GridSpec(1, 32, 2.0 * np.pi)
        x = physical_nodes(g)
        f = to_spectral(g, np.cos(2.0 * x))
        out = apply_radial_multiplier(f, lambda r: r**2)
        assert np.allclose(out.coefficients, 4.0 * f.coefficients)

    def test_sigma_multiplier_on_unit_mode(self):
        p = ModelParams(n=1, m=1.0, alpha=1.0, theta=1)
        g = sg.GridSpec(1, 32, 2.0 * np.pi)
        x = physical_nodes(g)
        f = to_spectral(g, np.cos(x))
        out = apply_radial_multiplier(f, lambda r: sigma(r, p))
        assert np.allclose(out.coefficients, 0.5 * f.coefficients)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_composition(self, seed):
        g = sg.GridSpec(1, 64, 7.0)
        f = random_real_field(g, seed=seed)
        g1 = lambda r: np.exp(-r)
        g2 = lambda r: 1.0 / (1.0 + r * r)
        once = apply_radial_multiplier(f, lambda r: g1(r) * g2(r))
        twice = apply_radial_multiplier(apply_radial_multiplier(f, g2), g1)
        top = np.max(np.abs(once.coefficients))
        assert np.max(np.abs(once.coefficients - twice.coefficients)) <= 1e-13 * top


class TestNorms:
    def test_seminorm_of_constant_vanishes(self):
        g = sg.GridSpec(1, 16, 3.0)
        f = to_spectral(g, np.full(g.shape, 2.5))
        assert sg.sobolev_seminorm(f, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_single_mode_weighting(self):
        g = sg.GridSpec(1, 32, 2.0 * np.pi)
        x = physical_nodes(g)
        f = to_spectral(g, np.cos(2.0 * x))
        a = sg.sobolev_seminorm(f, 0.0)
        assert sg.sobolev_seminorm(f, 1.0) == pytest.approx(2.0 * a, rel=1e-13)

    def test_l0_matches_l2(self, grid_1d):
        f = random_real_field(grid_1d, seed=3)
        l2 = sg.lp_norm(f, 2)
        assert abs(sg.sobolev_seminorm(f, 0.0) - l2) <= 1e-12 * l2

    def test_sup_norm_of_sine(self):
        g = sg.GridSpec(1, 128, 2.0 * np.pi)
        x = physical_nodes(g)
        f = to_spectral(g, np.sin(x))
        assert sg.lp_norm(f, np.inf) == pytest.approx(1.0, abs=g.spacing**2)

    def test_l1_of_constant(self):
        g = sg.GridSpec(1, 16, 5.0)
        f = to_spectral(g, np.full(g.shape, -2.0))
        assert sg.lp_norm(f, 1) == pytest.approx(2.0 * 5.0, rel=1e-13)

    def test_l1_gaussian_against_quadrature(self):
        L = 40.0
        g = sg.GridSpec(1, 512, L)
        x = physical_nodes(g)
        f = to_spectral(g, np.exp(-0.5 * (x - L / 2.0) ** 2))
        ref, _ = quad(lambda y: np.exp(-0.5 * (y - L / 2.0) ** 2), 0.0, L)
        assert sg.lp_norm(f, 1) == pytest.approx(ref, rel=1e-6)

    def test_unsupported_p(self, grid_1d):
        with pytest.raises(ValueError):
            sg.lp_norm(random_real_field(grid_1d), 3)


class TestSplit:
    def test_low_supported_field_has_no_high_part(self):
        g = sg.GridSpec(1, 64, 2.0 * np.pi * 10)  # k spacing 0.1
        mag = sg.wavenumber_magnitude(g)
        coeffs = np.where(mag <= 0.5, 1.0 + 0.0j, 0.0)
        f = sg.SpectralField(g, coeffs)
        low, high = sg.split_low_high(f)
        assert np.max(np.abs(high.coefficients)) == 0.0

    def test_high_supported_field_has_no_low_part(self):
        g = sg.GridSpec(1, 64, 2.0 * np.pi * 10)
        mag = sg.wavenumber_magnitude(g)
        coeffs = np.where(mag >= 1.0, 1.0 + 0.0j, 0.0)
        f = sg.SpectralField(g, coeffs)
        low, high = sg.split_low_high(f)
        assert np.max(np.abs(low.coefficients)) == 0.0

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_exact_reconstruction(self, seed):
        g = sg.GridSpec(1, 64, 40.0)
        f = random_real_field(g, seed=seed)
        low, high = sg.split_low_high(f)
        diff = np.abs(low.coefficients + high.coefficients - f.coefficients)
        assert np.max(diff) <= 1e-15 * np.max(np.abs(f.coefficients))

    def test_high_part_keeps_modes_where_chi_rounds_to_one(self):
        # smalldata-1d's lattice: just above R, chi rounds to 1 at two modes,
        # whose high part 1 - chi by subtraction would set to zero
        g = sg.GridSpec(1, 4096, 400.0 * np.pi)
        f = random_real_field(g, seed=3)
        chi, rest = cutoff_partition(sg.wavenumber_magnitude(g))
        kept = (1.0 - chi == 0.0) & (rest > 0.0)
        assert np.count_nonzero(kept) == 2
        low, high = sg.split_low_high(f)
        assert np.all(high.coefficients[kept] == f.coefficients[kept] * rest[kept])
        assert np.all(high.coefficients[kept] != 0.0)
        diff = np.abs(low.coefficients + high.coefficients - f.coefficients)
        assert np.max(diff) <= 1e-15 * np.max(np.abs(f.coefficients))

    def test_poincare_inequality_on_high_part(self):
        g = sg.GridSpec(1, 128, 40.0)
        f = random_real_field(g, seed=9)
        _, high = sg.split_low_high(f)
        for l in (0.5, 1.0, 2.0):
            lhs = sg.lp_norm(high, 2)
            assert lhs <= 0.5 ** (-l) * sg.sobolev_seminorm(high, l) * (1 + 1e-12)

    def test_parts_never_exceed_whole(self):
        g = sg.GridSpec(1, 128, 40.0)
        f = random_real_field(g, seed=11)
        low, high = sg.split_low_high(f)
        for l in (0.0, 0.5, 1.5):
            full = sg.sobolev_seminorm(f, l)
            assert sg.sobolev_seminorm(low, l) <= full * (1 + 1e-12)
            assert sg.sobolev_seminorm(high, l) <= full * (1 + 1e-12)


def lattice_power(f, power, P):
    """Spectral image of f^power by the step loop's route, the padded-power
    kernel."""
    return sg.SpectralField(f.grid, sg.PaddedPower(f.grid, power, P)(f.coefficients)[0])


def unit_kernel(n, N, power, P):
    """The padded-power kernel on a box of length M = P*N/2, where a padded
    node has volume 1: the integral it returns is the padded nodes' sum."""
    return sg.PaddedPower(sg.GridSpec(n, N, sg.padded_size(N, P)), power, P)


def _circular_free_convolution(a, b, N):
    """Convolution of Fourier-series coefficient arrays without wraparound.

    Entries are in FFT order.  full[k] of the linear convolution of the
    shifted arrays carries frequency k - N; supports must be narrow enough
    that nothing lands outside [-N/2, N/2), which is asserted."""
    A = np.fft.fftshift(a)
    B = np.fft.fftshift(b)
    full = np.convolve(A, B)
    half = N // 2
    block = full[N - half:N + half]
    outside = full.copy()
    outside[N - half:N + half] = 0.0
    assert np.max(np.abs(outside)) <= 1e-14 * max(np.max(np.abs(block)), 1e-300)
    return np.fft.ifftshift(block)


class TestPaddedPower:
    def test_square_of_cosine_two_lines(self):
        g = sg.GridSpec(1, 32, 2.0 * np.pi)
        x = physical_nodes(g)
        a = 0.7
        f = to_spectral(g, a * np.cos(2.0 * x))
        sq = lattice_power(f, 2, padding(1))
        c = sq.coefficients / g.points_per_dim  # Fourier-series coefficients
        assert c[0] == pytest.approx(a * a / 2.0, rel=1e-13)
        assert c[4] == pytest.approx(a * a / 4.0, rel=1e-13)
        others = np.delete(np.abs(c), [0, 4])
        assert np.max(others) <= 1e-14

    @given(n=st.sampled_from((1, 2, 3)), seed=st.integers(0, 1000), P=st.integers(3, 8))
    @settings(max_examples=30, deadline=None)
    def test_first_power_returns_every_mode(self, n, seed, P):
        # white spectrum: the Nyquist coefficients are as large as any other;
        # even in every coordinate, as the kernel needs
        g = sg.GridSpec(n, {1: 32, 2: 16, 3: 8}[n], 5.0)
        f = random_real_field(g, seed=seed, decay=0.0)
        f = to_spectral(g, even_part(sg.to_physical(f)))
        out = lattice_power(f, 1, P)
        ref = np.max(np.abs(f.coefficients))
        assert np.max(np.abs(out.coefficients - f.coefficients)) <= 1e-14 * ref

    def test_constant_field_maps_to_zero_mode(self):
        g = sg.GridSpec(1, 32, 4.0)
        c = 0.3
        f = to_spectral(g, np.full(g.shape, c))
        out = lattice_power(f, 3, padding(2))
        phys = sg.to_physical(out)
        assert np.allclose(phys.real, c**3, rtol=1e-13)
        assert np.max(np.abs(out.coefficients[1:])) <= 1e-12 * abs(out.coefficients[0])

    def test_matches_direct_convolution_on_sparse_field(self):
        # power of a field with <= 4 active modes equals the convolution
        # theorem result restricted to the lattice
        N = 64
        g = sg.GridSpec(1, N, 2.0 * np.pi)
        series = np.zeros(N, dtype=complex)
        for idx, val in ((0, 0.2), (1, 0.4), (2, 0.1), (3, 0.05)):
            series[idx] = val
            if idx:
                series[-idx] = np.conj(val)
        f = sg.SpectralField(g, series[: N // 2 + 1] * N)
        out = lattice_power(f, 3, padding(2))
        conv = series.copy()
        for _ in range(2):
            conv = _circular_free_convolution(conv, series, N)
        assert np.allclose(out.coefficients / N, conv[: N // 2 + 1], atol=1e-13)

    @pytest.mark.parametrize("n", (2, 3))
    @pytest.mark.parametrize("p", range(1, 7))
    def test_cosine_product_powers_are_binomial(self, n, p):
        # u = prod_i cos(x_i) on [0, 2 pi)^n:
        # cos^p x = 2^-p sum_j C(p, j) exp(i (p - 2j) x), so the spectrum of
        # u^p is N^n times the outer product of those binomial lists, and
        # the integral of u^(p+1) is the product of the 1-D ones; the
        # reference needs no transform
        N, L = 16, 2.0 * np.pi
        g = sg.GridSpec(n, N, L)
        x = physical_nodes(g)
        samples = np.cos(x)
        for _ in range(n - 1):
            samples = np.multiply.outer(samples, np.cos(x))
        out, total = sg.PaddedPower(g, p, max(3, p + 1))(to_spectral(g, samples).coefficients)
        line = np.zeros(N)
        for j in range(p + 1):
            line[(p - 2 * j) % N] += math.comb(p, j) / 2.0 ** p
        want = N * line
        for _ in range(n - 1):
            want = np.multiply.outer(want, N * line)
        want = want[..., : N // 2 + 1]
        assert np.max(np.abs(out - want)) <= 1e-14 * np.max(want)
        one_axis = L * math.comb(p + 1, (p + 1) // 2) / 2.0 ** (p + 1) if p % 2 else 0.0
        assert total == pytest.approx(one_axis ** n, rel=1e-14, abs=1e-14)


def _along_axes(matrix, a):
    """Apply `matrix` to every axis of a in turn."""
    for axis in range(a.ndim):
        a = np.moveaxis(np.tensordot(matrix, a, axes=(1, axis)), 0, axis)
    return a


def _spread(N, M):
    """(M, N) 0/1 map of lattice modes onto padded modes; the Nyquist mode
    -N/2 goes half to +N/2 and half to -N/2."""
    h = N // 2
    S = np.zeros((M, N))
    S[np.arange(h), np.arange(h)] = 1.0
    S[np.arange(M - h + 1, M), np.arange(h + 1, N)] = 1.0
    S[h, h] = S[M - h, h] = 0.5
    return S


def _fold(N, M):
    """(N, M) map of padded modes onto lattice modes: beyond the lattice
    dropped, +N/2 and -N/2 both landing on the Nyquist mode."""
    F, h = _spread(N, M).T, N // 2
    F[h, h] = F[h, M - h] = 1.0
    return F


def even_part(u):
    """Lattice samples u averaged over their mirror images x_i -> -x_i, one
    axis at a time: even in every coordinate, as the kernel needs."""
    for axis in range(u.ndim):
        u = 0.5 * (u + np.roll(np.flip(u, axis), 1, axis))
    return u


def dense_padded_samples(u, M):
    """Samples on the M-point padded grid of the lattice samples u, by a
    dense zero-padded full-lattice transform with plain numpy.fft."""
    N, n = u.shape[0], u.ndim
    dense = _along_axes(_spread(N, M), np.fft.fftn(u)) * (M / N) ** n
    return np.fft.irfftn(dense[..., : M // 2 + 1], s=(M,) * n, axes=range(n))


def _mirror(a):
    """a at the negated modes -k of every axis, in FFT order."""
    for axis in range(a.ndim):
        a = np.roll(np.flip(a, axis), 1, axis)
    return a


def fft_padded_power(u, M, power):
    """The lattice half spectrum of (padded u)^power, the padded samples of
    u and their power, by zero-padded transforms of length M built from
    slices, the last axis halved by irfftn/rfftn: the Nyquist mode split
    between +N/2 and -N/2 on the way out, and both folded onto it on the
    way back, the last axis's -N/2 read from the conjugate mirror."""
    N, n = u.shape[0], u.ndim
    h = N // 2
    spectrum = np.fft.rfftn(u) * (M / N) ** n
    for axis in range(n - 1):
        spectrum = np.moveaxis(spectrum, axis, 0)
        wide = np.zeros((M,) + spectrum.shape[1:], complex)
        wide[:h], wide[M - h + 1:] = spectrum[:h], spectrum[h + 1:]
        wide[h] = wide[M - h] = 0.5 * spectrum[h]
        spectrum = np.moveaxis(wide, 0, axis)
    padded = np.zeros(spectrum.shape[:-1] + (M // 2 + 1,), complex)
    padded[..., :h] = spectrum[..., :h]
    padded[..., h] = 0.5 * spectrum[..., h]
    up = np.fft.irfftn(padded, s=(M,) * n, axes=range(n))
    raised = up ** power
    folded = np.fft.rfftn(raised)[..., : h + 1] * (N / M) ** n
    folded[..., h] += np.conj(_mirror(folded[..., h]))
    for axis in range(n - 1):
        folded = np.moveaxis(folded, axis, 0)
        narrow = np.concatenate([folded[:h], folded[h:h + 1] + folded[M - h:M - h + 1],
                                 folded[M - h + 1:]])
        folded = np.moveaxis(narrow, 0, axis)
    return folded, raised, up


def matrix_padded_power(u, M, power):
    """The same three arrays as fft_padded_power, by the dense spread and
    fold matrices on full-lattice fftn spectra."""
    N, n = u.shape[0], u.ndim
    up = dense_padded_samples(u, M)
    raised = up ** power
    folded = _along_axes(_fold(N, M), np.fft.fftn(raised)) * (N / M) ** n
    return folded[..., : N // 2 + 1], raised, up


class TestPrunedPaddedTransforms:
    """The padded-power kernel against dense zero-padded full-lattice
    transforms built with plain numpy.fft, on random fields, made even in
    every coordinate."""

    @staticmethod
    def _check_dense(n, N, P, T=2, reference=matrix_padded_power):
        rng = np.random.default_rng(100 * n + N)
        M = sg.padded_size(N, P)
        u = even_part(rng.standard_normal((N,) * n))
        # the first power, and u^(theta+1) for the theta this padding serves
        for power in (1, P - 1):
            ref, raised, up = reference(u, M, power)
            kernel = unit_kernel(n, N, power, P)
            assert n > 1 or kernel.T == T
            out, total = kernel(np.fft.rfftn(u))
            assert out.shape == ref.shape
            assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
            terms = raised * up
            assert abs(total - np.sum(terms)) <= 1e-14 * np.sum(np.abs(terms))

    # every 1-D case, odd N/2 (N = 6, 10) and odd M = P*N/2 included, on
    # rows of N/2 points (T = 2), and the n >= 2 orthant route at the
    # paddings of theta = 1, 2, 5, odd M (N = 6, 10 at P = 3, 7) included
    @pytest.mark.parametrize(
        "n,N,P", [(1, N, P) for N in (4, 6, 8, 10, 12, 16) for P in range(3, 9)]
        + [(n, N, P) for n in (2, 3) for N in (6, 8, 10) for P in (3, 4, 7)])
    def test_match_dense_padding(self, n, N, P):
        self._check_dense(n, N, P)

    # the same n >= 2 cases against the zero-padded irfftn/rfftn reference
    @pytest.mark.parametrize("n,N,P", [(n, N, P) for n in (2, 3) for N in (6, 8, 10)
                                       for P in (3, 4, 7)])
    def test_match_dense_padding_on_the_fft_last_axis(self, n, N, P):
        self._check_dense(n, N, P, reference=fft_padded_power)

    # convergence-3d's kernel (n = 3, N = 32, theta = 5, three blocks), and
    # n = 2 at N = 64 and 96 (one block each), against the dense matrices
    # or, for N = 96, the zero-padded irfftn/rfftn reference
    @pytest.mark.parametrize("n,N,P,dense", [(3, 32, 7, True), (2, 64, 7, True),
                                             (2, 96, 7, False)])
    def test_match_dense_padding_at_production_sizes(self, n, N, P, dense):
        self._check_dense(n, N, P,
                          reference=matrix_padded_power if dense else fft_padded_power)

    # the same 1-D cases on rows of N/T points for every T = 4, 8 that
    # divides N, rows of one point (N = T) and the odd N/T = 3 (N = 12, T = 4)
    # included
    @pytest.mark.parametrize("N,P,T", [(N, P, T) for N in (4, 8, 12, 16) for P in range(3, 9)
                                       for T in (4, 8) if N % T == 0])
    def test_match_dense_padding_on_short_rows(self, monkeypatch, N, P, T):
        monkeypatch.setattr(sg, "PADDED_ROW_POINTS", N // T)
        self._check_dense(1, N, P, T)

    def test_production_row_matches_one_long_transform(self):
        # smalldata-1d's N = 4096, theta = 5: M = 14,336, against one
        # zero-padded irfft/rfft of length M, on an even field
        N, P = 4096, 7
        M = sg.padded_size(N, P)
        half = np.fft.rfft(even_part(np.random.default_rng(4096).standard_normal(N)))
        padded = half * (M / N)
        padded[-1] *= 0.5
        up = np.fft.irfft(padded, n=M)
        raised = up ** (P - 1)
        ref = np.fft.rfft(raised)[: N // 2 + 1] * (N / M)
        ref[-1] += np.conj(ref[-1])
        out, total = unit_kernel(1, N, P - 1, P)(half)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
        terms = raised * up
        assert abs(total - np.sum(terms)) <= 1e-14 * np.sum(np.abs(terms))

    # R = P*T/2 rows, of which rows 0..R//2 are raised: R odd (3, 5), even
    # with row R/2 its own mirror (4, 14), and R//2 + 1 = 7 rows under T = 8
    # (16, 3, 8), where the mode buffer sets the buffers' size
    @pytest.mark.parametrize("N,P,T", [(8, 3, 2), (8, 5, 2), (8, 4, 2), (16, 3, 8),
                                       (4096, 7, 4)])
    def test_one_dimensional_spectrum_is_exactly_real(self, monkeypatch, N, P, T):
        monkeypatch.setattr(sg, "PADDED_ROW_POINTS", N // T)
        kernel = unit_kernel(1, N, P - 1, P)
        assert kernel.T == T
        out, _ = kernel(_random_half(1, N, N))
        assert out.dtype == complex and np.all(out.imag == 0.0)

    @pytest.mark.parametrize("P", (2, 1, 0, 3.5))
    def test_padding_must_be_an_integer_over_two(self, P):
        # the pad must hold the split Nyquist modes, so M == N is refused
        with pytest.raises(ValueError, match="padding P must be an integer >= 3"):
            sg.padded_size(8, P)
        with pytest.raises(ValueError, match="padding P must be an integer >= 3"):
            sg.PaddedPower(sg.GridSpec(1, 8, 8.0), 2, P)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_non_finite_samples_raise_no_warning(self, monkeypatch, n):
        # an overflowed power gives inf and nan samples and coefficients,
        # which the sum, the row and matrix products and the scaling must
        # pass on without a warning; on an even field, in 1-D on rows of 4
        # (T = 2) and 2 (T = 4)
        u = np.ones((8,) * n)
        u.flat[5] = 1e60
        u = even_part(u)
        for T in (2, 4) if n == 1 else (2,):
            monkeypatch.setattr(sg, "PADDED_ROW_POINTS", 8 // T)
            kernel = unit_kernel(n, 8, 6, 7)
            assert n > 1 or kernel.T == T
            out, total = kernel(np.fft.rfftn(u))
            assert not np.all(np.isfinite(out))
            assert not np.isfinite(total)

    @pytest.mark.parametrize("n", (2, 3))
    def test_partial_last_block_matches_one_block(self, monkeypatch, n):
        # N = 8 pads to M = 28, an orthant of 15 axis-0 nodes; blocks of 6
        # leave 3 over.  A block holds at least the N/2+1 = 5 rows that its
        # product back fills, so a setting of 4 rows gives 5
        half = _random_half(n, 8, n)
        monkeypatch.setattr(sg, "PADDED_BLOCK_POINTS", 15 ** n)
        whole, whole_sum = unit_kernel(n, 8, 5, 7)(half)
        monkeypatch.setattr(sg, "PADDED_BLOCK_POINTS", 4 * 15 ** (n - 1))
        assert len(unit_kernel(n, 8, 5, 7)._raised) == 5
        monkeypatch.setattr(sg, "PADDED_BLOCK_POINTS", 6 * 15 ** (n - 1))
        kernel = unit_kernel(n, 8, 5, 7)
        assert len(kernel._raised) == 6
        blocked, blocked_sum = kernel(half)
        assert np.max(np.abs(blocked - whole)) <= 1e-14 * np.max(np.abs(whole))
        # u^6 >= 0, so the sum has no cancellation
        assert blocked_sum == pytest.approx(whole_sum, rel=1e-14)

    def test_one_call_holds_less_than_one_padded_cube(self):
        # n = 3, N = 32, theta = 5 pads to 112^3 points, 10.7 MiB as float64,
        # whose first orthant of 57^3 nodes is 1.4 MiB: a call holds less
        # than two orthants; the kernel's buffers count, so it is made
        # inside the trace
        theta, N = 5, 32
        M = sg.padded_size(N, padding(theta))
        half = _random_half(3, N, 0)
        tracemalloc.start()
        try:
            unit_kernel(3, N, theta + 1, padding(theta))(half)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * (M // 2 + 1) ** 3


def _random_half(n, N, seed):
    """Half spectrum of random samples, even in every coordinate."""
    u = np.random.default_rng(seed).standard_normal((N,) * n)
    return np.fft.rfftn(even_part(u))


class TestPaddedWorkspace:
    """A kernel reuses its buffers from call to call; no result may depend
    on what an earlier call, or another kernel, left behind."""

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_result_is_not_overwritten_by_the_next_call(self, n):
        kernel = unit_kernel(n, 8, 6, 7)
        first, _ = kernel(_random_half(n, 8, 1))
        kept = first.copy()
        kernel(_random_half(n, 8, 2))
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_other_grid_in_between_changes_nothing(self, n):
        half = _random_half(n, 8, 1)
        kernel, other = unit_kernel(n, 8, 6, 7), unit_kernel(n, 16, 6, 7)
        first, first_sum = kernel(half)
        other(_random_half(n, 16, 2))
        again, again_sum = kernel(half)
        assert np.array_equal(again, first) and again_sum == first_sum

    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_non_finite_call_leaves_no_trace(self, n):
        # an infinite sample at the origin, which is even in every coordinate
        u = np.ones((8,) * n)
        u.flat[0] = np.inf
        kernel = unit_kernel(n, 8, 6, 7)
        kernel(np.fft.rfftn(u))
        power, total = kernel(_random_half(n, 8, 1))
        want, want_sum = unit_kernel(n, 8, 6, 7)(_random_half(n, 8, 1))
        assert np.array_equal(power, want) and total == want_sum
