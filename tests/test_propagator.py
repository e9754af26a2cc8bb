import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpplab import grid as sg
from fpplab.model import ModelParams, sigma
from fpplab.oracle import gaussian_profile, radial_weighted_l2
from fpplab.propagator import _tail_slope, probe_high_band, probe_low_band
from conftest import physical_nodes, propagate, random_real_field, to_spectral


class TestPropagate:
    def test_t0_is_identity(self, grid_1d, gain_params):
        f = random_real_field(grid_1d, seed=1)
        out = propagate(f, 0.0, gain_params)
        assert np.array_equal(out.coefficients, f.coefficients)

    def test_single_mode_decay_factor(self, gain_params):
        g = sg.GridSpec(1, 32, 2.0 * np.pi)
        x = physical_nodes(g)
        f = to_spectral(g, np.cos(x))
        out = propagate(f, 2.0, gain_params)  # sigma(1) = 0.5, factor e^-1
        assert np.allclose(out.coefficients, np.exp(-1.0) * f.coefficients)

    def test_constant_field_unchanged(self, gain_params):
        g = sg.GridSpec(1, 16, 4.0)
        f = to_spectral(g, np.full(g.shape, 3.0))
        out = propagate(f, 50.0, gain_params)
        assert np.allclose(out.coefficients, f.coefficients)

    def test_rejects_negative_time(self, grid_1d, gain_params):
        with pytest.raises(ValueError):
            propagate(random_real_field(grid_1d), -0.1, gain_params)

    @given(t1=st.floats(0.0, 50.0), t2=st.floats(0.0, 50.0))
    @settings(max_examples=25, deadline=None)
    def test_semigroup_property(self, t1, t2):
        params = ModelParams(n=1, m=1.0, alpha=1.0, theta=5)
        g = sg.GridSpec(1, 64, 20.0)
        f = random_real_field(g, seed=4)
        two_step = propagate(propagate(f, t1, params), t2, params)
        one_step = propagate(f, t1 + t2, params)
        ref = np.abs(one_step.coefficients) + 1e-300
        assert np.max(np.abs(two_step.coefficients - one_step.coefficients) / ref) <= 1e-13

    def test_contraction_in_every_seminorm(self, gain_params):
        g = sg.GridSpec(1, 64, 20.0)
        f = random_real_field(g, seed=5)
        out = propagate(f, 3.0, gain_params)
        for l in (0.0, 0.5, 1.0, 2.0):
            assert sg.sobolev_seminorm(out, l) <= sg.sobolev_seminorm(f, l) * (1 + 1e-13)

    def test_zero_mode_constant_in_time(self, gain_params):
        g = sg.GridSpec(1, 64, 20.0)
        f = random_real_field(g, seed=6)
        out = propagate(f, 123.0, gain_params)
        assert out.coefficients[0] == f.coefficients[0]


class TestDichotomy:
    def test_gain_symbol_bounded_below_on_high_band(self):
        # sigma is increasing for alpha >= 1: inf over |k| >= 2R is sigma(2R) > 0
        for alpha in (1.0, 1.5, 2.0):
            p = ModelParams(n=1, m=1.0, alpha=alpha, theta=1)
            g = sg.GridSpec(1, 256, 100.0)
            mag = sg.wavenumber_magnitude(g)
            band = mag[mag >= 1.0]
            assert sigma(band, p).min() >= sigma(1.0, p) > 0.0

    def test_loss_high_band_decay_degrades_with_spectral_cutoff(self, loss_params):
        # data spread to higher |k| retains more of its high-band norm
        t = 50.0
        fractions = []
        for cutoff in (2.0, 8.0):
            prof = gaussian_profile(1.0 / cutoff, 1.0, n=1)
            start = radial_weighted_l2(prof, 0.0, 0.0, loss_params, window="high")
            later = radial_weighted_l2(prof, 0.0, t, loss_params, window="high")
            fractions.append(later / start)
        assert fractions[1] > fractions[0]

    def test_gain_high_band_decay_uniform_in_cutoff(self, gain_params):
        # alpha >= 1: retained fraction is capped by exp(-sigma(R) t) regardless
        t = 20.0
        cap = np.exp(-sigma(0.5, gain_params) * t)
        for cutoff in (2.0, 8.0, 32.0):
            prof = gaussian_profile(1.0 / cutoff, 1.0, n=1)
            start = radial_weighted_l2(prof, 0.0, 0.0, gain_params, window="high")
            later = radial_weighted_l2(prof, 0.0, t, gain_params, window="high")
            assert later / start <= cap * (1 + 1e-9)


class TestLowBandProbe:
    def test_gaussian_is_bounded_with_flat_tail(self, gain_params):
        prof = gaussian_profile(1.0, 1.0, n=1)
        ts = np.array([1.0, 10.0, 1e2, 1e3, 1e4])
        rep = probe_low_band(prof, 0.0, ts, gain_params)
        assert abs(rep.tail_slope) <= 0.05
        assert np.all(np.isfinite(rep.ratios)) and np.all(rep.ratios >= 0)

    def test_t0_entry_is_ratio_of_norms(self, gain_params):
        prof = gaussian_profile(1.0, 1.0, n=1)
        ts = np.array([0.0, 1.0, 10.0, 1e2, 1e3])
        rep = probe_low_band(prof, 0.0, ts, gain_params)
        expect = radial_weighted_l2(prof, 0.0, 0.0, gain_params, window="low") \
            / prof.l1_norm_hint
        assert rep.ratios[0] == pytest.approx(expect, rel=1e-9)

    def test_overweighted_probe_is_flagged_unbounded(self, gain_params):
        prof = gaussian_profile(1.0, 1.0, n=1)
        ts = np.array([1.0, 10.0, 1e2, 1e3, 1e4])
        rep = probe_low_band(prof, 0.0, ts, gain_params, rate_offset=0.1)
        assert abs(rep.tail_slope) > 0.05

    def test_requires_l1_hint(self, gain_params):
        from fpplab.oracle import RadialProfile
        prof = RadialProfile(lambda r: np.exp(-np.square(r)), "gaussian", 1.0)
        with pytest.raises(ValueError):
            probe_low_band(prof, 0.0, [1.0, 10.0], gain_params)


class TestHighBandProbe:
    def test_gain_rate_at_least_reference(self, gain_params):
        prof = gaussian_profile(0.5, 1.0, n=1)
        rep = probe_high_band(prof, 0.0, np.linspace(1.0, 8.0, 8), gain_params)
        assert rep.fitted_rate >= 0.9 * sigma(1.0, gain_params)
        assert rep.fit_r_squared >= 0.95

    def test_loss_weighted_ratio_bounded(self, loss_params):
        prof = gaussian_profile(1.0, 1.0, n=1)
        ts = np.geomspace(1.0, 1e4, 13)
        rep = probe_high_band(prof, 0.0, ts, loss_params, beta=1.0)
        assert rep.tail_slope <= 0.05
        assert rep.ratios[0] > 0.0

    def test_loss_ratio_finite_at_t0(self, loss_params):
        prof = gaussian_profile(1.0, 1.0, n=1)
        ts = np.array([0.0, 1.0, 10.0, 1e2, 1e3])
        rep = probe_high_band(prof, 0.0, ts, loss_params, beta=1.0)
        assert np.isfinite(rep.ratios[0]) and rep.ratios[0] > 0.0

    def test_loss_requires_beta(self, loss_params):
        prof = gaussian_profile(1.0, 1.0, n=1)
        with pytest.raises(ValueError):
            probe_high_band(prof, 0.0, [1.0, 2.0], loss_params)


class TestTailSlope:
    def test_underflowed_tail_is_minus_infinity(self):
        # a norm that decayed below the float range cannot be growing
        times = np.geomspace(1.0, 1e4, 9)
        ratios = np.array([1.0] + [0.0] * 8)
        assert _tail_slope(times, ratios) == -np.inf

    def test_too_few_positive_ratios_without_underflow_is_nan(self):
        assert np.isnan(_tail_slope(np.array([1.0, 2.0]), np.array([0.0, 1.0])))
