import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fpplab import grid as sg
from fpplab.model import ModelParams, sigma
from fpplab.solver import padding
from conftest import random_real_field


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
        back = sg.to_physical(sg.to_spectral(g, f))
        assert np.max(np.abs(back.real - f)) <= 1e-12 * max(1.0, np.max(np.abs(f)))
        assert np.max(np.abs(back.imag)) <= 1e-12

    def test_round_trip_2d_3d(self):
        for n, N in ((2, 16), (3, 8)):
            g = sg.GridSpec(n, N, 5.0)
            rng = np.random.default_rng(n)
            f = rng.standard_normal(g.shape)
            back = sg.to_physical(sg.to_spectral(g, f))
            assert np.max(np.abs(back.real - f)) <= 1e-12

    def test_single_cosine_has_two_lines(self):
        g = sg.GridSpec(1, 32, 2.0 * np.pi)
        x = sg.physical_nodes(g)
        field = sg.to_spectral(g, np.cos(3.0 * x))
        c = field.coefficients
        big = np.abs(c) > 1e-9 * np.max(np.abs(c))
        assert big.sum() == 1  # the line at -3 is the mirror image of this one
        assert big[3]

    def test_size_mismatch(self):
        g = sg.GridSpec(1, 16, 1.0)
        with pytest.raises(ValueError):
            sg.to_spectral(g, np.zeros(8))

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
        f = sg.to_spectral(g, x)
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
        field = sg.to_spectral(g, f)
        physical = np.sum(np.abs(f) ** 2) * g.cell_volume
        N, L = g.points_per_dim, g.box_length
        weighted = sg.column_weights(N) * np.abs(field.coefficients) ** 2
        spectral = np.sum(weighted) * L**g.n / N ** (2 * g.n)
        assert abs(physical - spectral) <= 1e-12 * physical


class TestRadialMultiplier:
    def test_identity(self, grid_1d):
        f = random_real_field(grid_1d, seed=1)
        out = sg.apply_radial_multiplier(f, lambda r: np.ones_like(r))
        assert np.array_equal(out.coefficients, f.coefficients)

    def test_laplacian_symbol_on_single_mode(self):
        g = sg.GridSpec(1, 32, 2.0 * np.pi)
        x = sg.physical_nodes(g)
        f = sg.to_spectral(g, np.cos(2.0 * x))
        out = sg.apply_radial_multiplier(f, lambda r: r**2)
        assert np.allclose(out.coefficients, 4.0 * f.coefficients)

    def test_sigma_multiplier_on_unit_mode(self):
        p = ModelParams(n=1, m=1.0, alpha=1.0, theta=1)
        g = sg.GridSpec(1, 32, 2.0 * np.pi)
        x = sg.physical_nodes(g)
        f = sg.to_spectral(g, np.cos(x))
        out = sg.apply_radial_multiplier(f, lambda r: sigma(r, p))
        assert np.allclose(out.coefficients, 0.5 * f.coefficients)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_composition(self, seed):
        g = sg.GridSpec(1, 64, 7.0)
        f = random_real_field(g, seed=seed)
        g1 = lambda r: np.exp(-r)
        g2 = lambda r: 1.0 / (1.0 + r * r)
        once = sg.apply_radial_multiplier(f, lambda r: g1(r) * g2(r))
        twice = sg.apply_radial_multiplier(sg.apply_radial_multiplier(f, g2), g1)
        top = np.max(np.abs(once.coefficients))
        assert np.max(np.abs(once.coefficients - twice.coefficients)) <= 1e-13 * top


class TestNorms:
    def test_seminorm_of_constant_vanishes(self):
        g = sg.GridSpec(1, 16, 3.0)
        f = sg.to_spectral(g, np.full(g.shape, 2.5))
        assert sg.sobolev_seminorm(f, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_single_mode_weighting(self):
        g = sg.GridSpec(1, 32, 2.0 * np.pi)
        x = sg.physical_nodes(g)
        f = sg.to_spectral(g, np.cos(2.0 * x))
        a = sg.sobolev_seminorm(f, 0.0)
        assert sg.sobolev_seminorm(f, 1.0) == pytest.approx(2.0 * a, rel=1e-13)

    def test_l0_matches_l2(self, grid_1d):
        f = random_real_field(grid_1d, seed=3)
        l2 = sg.lp_norm(f, 2)
        assert abs(sg.sobolev_seminorm(f, 0.0) - l2) <= 1e-12 * l2

    def test_sup_norm_of_sine(self):
        g = sg.GridSpec(1, 128, 2.0 * np.pi)
        x = sg.physical_nodes(g)
        f = sg.to_spectral(g, np.sin(x))
        assert sg.lp_norm(f, np.inf) == pytest.approx(1.0, abs=g.spacing**2)

    def test_l1_of_constant(self):
        g = sg.GridSpec(1, 16, 5.0)
        f = sg.to_spectral(g, np.full(g.shape, -2.0))
        assert sg.lp_norm(f, 1) == pytest.approx(2.0 * 5.0, rel=1e-13)

    def test_l1_gaussian_against_quadrature(self):
        L = 40.0
        g = sg.GridSpec(1, 512, L)
        x = sg.physical_nodes(g)
        f = sg.to_spectral(g, np.exp(-0.5 * (x - L / 2.0) ** 2))
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
        x = sg.physical_nodes(g)
        a = 0.7
        f = sg.to_spectral(g, a * np.cos(2.0 * x))
        sq = lattice_power(f, 2, padding(1))
        c = sq.coefficients / g.points_per_dim  # Fourier-series coefficients
        assert c[0] == pytest.approx(a * a / 2.0, rel=1e-13)
        assert c[4] == pytest.approx(a * a / 4.0, rel=1e-13)
        others = np.delete(np.abs(c), [0, 4])
        assert np.max(others) <= 1e-14

    @given(n=st.sampled_from((1, 2, 3)), seed=st.integers(0, 1000), P=st.integers(3, 8))
    @settings(max_examples=30, deadline=None)
    def test_first_power_returns_every_mode(self, n, seed, P):
        # white spectrum: the Nyquist coefficients are as large as any other
        g = sg.GridSpec(n, {1: 32, 2: 16, 3: 8}[n], 5.0)
        f = random_real_field(g, seed=seed, decay=0.0)
        out = lattice_power(f, 1, P)
        ref = np.max(np.abs(f.coefficients))
        assert np.max(np.abs(out.coefficients - f.coefficients)) <= 1e-14 * ref

    def test_constant_field_maps_to_zero_mode(self):
        g = sg.GridSpec(1, 32, 4.0)
        c = 0.3
        f = sg.to_spectral(g, np.full(g.shape, c))
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


def dense_padded_samples(u, M):
    """Samples on the M-point padded grid of the lattice samples u, by a
    dense zero-padded full-lattice transform with plain numpy.fft."""
    N, n = u.shape[0], u.ndim
    dense = _along_axes(_spread(N, M), np.fft.fftn(u)) * (M / N) ** n
    return np.fft.irfftn(dense[..., : M // 2 + 1], s=(M,) * n, axes=range(n))


class TestPrunedPaddedTransforms:
    """The padded-power kernel against dense zero-padded full-lattice
    transforms built with plain numpy.fft."""

    # every 1-D case, odd N/2 (N = 6, 10) and odd M = P*N/2 included, and
    # the blocked n >= 2 route at the paddings of theta = 1, 2, 5
    @pytest.mark.parametrize(
        "n,N,P", [(1, N, P) for N in (4, 6, 8, 10, 12) for P in range(3, 9)]
        + [(n, N, P) for n in (2, 3) for N in (6, 8, 10) for P in (3, 4, 7)])
    def test_match_dense_padding(self, n, N, P):
        rng = np.random.default_rng(100 * n + N)
        M = sg.padded_size(N, P)
        u = rng.standard_normal((N,) * n)
        up = dense_padded_samples(u, M)
        # the first power, and u^(theta+1) for the theta this padding serves
        for power in (1, P - 1):
            raised = up ** power
            folded = _along_axes(_fold(N, M), np.fft.fftn(raised)) * (N / M) ** n
            ref = folded[..., : N // 2 + 1]
            out, total = unit_kernel(n, N, power, P)(np.fft.rfftn(u))
            assert out.shape == ref.shape
            assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
            terms = raised * up
            assert abs(total - np.sum(terms)) <= 1e-14 * np.sum(np.abs(terms))

    def test_production_row_matches_one_long_transform(self):
        # smalldata-1d's N = 4096, theta = 5: M = 14,336, against one
        # zero-padded irfft/rfft of length M
        N, P = 4096, 7
        M = sg.padded_size(N, P)
        half = np.fft.rfft(np.random.default_rng(4096).standard_normal(N))
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

    @pytest.mark.parametrize("P", (2, 1, 0, 3.5))
    def test_padding_must_be_an_integer_over_two(self, P):
        # the pad must hold the split Nyquist modes, so M == N is refused
        with pytest.raises(ValueError, match="padding P must be an integer >= 3"):
            sg.padded_size(8, P)
        with pytest.raises(ValueError, match="padding P must be an integer >= 3"):
            sg.PaddedPower(sg.GridSpec(1, 8, 8.0), 2, P)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", (1, 2, 3))
    def test_non_finite_samples_raise_no_warning(self, n):
        # an overflowed power gives inf and nan samples and coefficients,
        # which the sum, the folds and the scaling must pass on without a warning
        u = np.ones((8,) * n)
        u.flat[5] = 1e60
        out, total = unit_kernel(n, 8, 6, 7)(np.fft.rfftn(u))
        assert not np.all(np.isfinite(out))
        assert not np.isfinite(total)

    @pytest.mark.parametrize("n", (2, 3))
    def test_partial_last_block_matches_one_block(self, monkeypatch, n):
        # N = 8 pads to 28 slabs; blocks of 3 slabs leave one slab over
        half = np.fft.rfftn(np.random.default_rng(n).standard_normal((8,) * n))
        monkeypatch.setattr(sg, "PADDED_BLOCK_POINTS", 28 ** n)
        whole, whole_sum = unit_kernel(n, 8, 5, 7)(half)
        monkeypatch.setattr(sg, "PADDED_BLOCK_POINTS", 3 * 28 ** (n - 1))
        blocked, blocked_sum = unit_kernel(n, 8, 5, 7)(half)
        assert np.max(np.abs(blocked - whole)) <= 1e-14 * np.max(np.abs(whole))
        # u^6 >= 0, so the sum has no cancellation
        assert blocked_sum == pytest.approx(whole_sum, rel=1e-14)

    def test_one_call_holds_less_than_one_padded_cube(self):
        # n = 3, N = 32, theta = 5 pads to 112^3 points: 10.7 MB as float64;
        # the kernel's buffers count, so it is made inside the trace
        theta, N = 5, 32
        M = sg.padded_size(N, padding(theta))
        half = np.fft.rfftn(np.random.default_rng(0).standard_normal((N,) * 3))
        tracemalloc.start()
        try:
            unit_kernel(3, N, theta + 1, padding(theta))(half)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * M ** 3


def _random_half(n, N, seed):
    return np.fft.rfftn(np.random.default_rng(seed).standard_normal((N,) * n))


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
        u = np.ones((8,) * n)
        u.flat[3] = np.inf
        kernel = unit_kernel(n, 8, 6, 7)
        kernel(np.fft.rfftn(u))
        power, total = kernel(_random_half(n, 8, 1))
        want, want_sum = unit_kernel(n, 8, 6, 7)(_random_half(n, 8, 1))
        assert np.array_equal(power, want) and total == want_sum
