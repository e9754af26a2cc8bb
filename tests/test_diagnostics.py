import math

import numpy as np
import pytest

from fpplab import grid as sg
from fpplab.diagnostics import contamination_horizon, fit_decay, record, weighted_functionals
from fpplab.model import decay_exponent, sigma, validate
from fpplab.oracle import gaussian_profile, radial_weighted_l2
from fpplab.solver import SolverConfig, solve
from conftest import random_real_field


class TestFitDecay:
    def test_exact_power_law(self):
        t = np.geomspace(1.0, 1e4, 40)
        fit = fit_decay(t, (1.0 + t) ** -0.25, (1.0, 1e4))
        assert fit.slope == pytest.approx(-0.25, abs=1e-6)
        assert fit.r_squared > 1.0 - 1e-10

    def test_noisy_power_law(self):
        t = np.geomspace(1.0, 1e4, 60)
        rng = np.random.default_rng(42)
        vals = (1.0 + t) ** -0.25 * (1.0 + 0.01 * rng.standard_normal(t.size))
        fit = fit_decay(t, vals, (1.0, 1e4))
        assert fit.slope == pytest.approx(-0.25, abs=0.01)

    def test_exponential_is_rejected_as_power_law(self):
        t = np.geomspace(1.0, 100.0, 40)
        fit_short = fit_decay(t, np.exp(-t), (1.0, 10.0))
        fit_long = fit_decay(t, np.exp(-t), (1.0, 100.0))
        assert abs(fit_long.slope) > abs(fit_short.slope)  # no stable exponent
        assert fit_long.r_squared < 0.995

    def test_requires_enough_samples(self):
        t = np.geomspace(1.0, 100.0, 5)
        with pytest.raises(ValueError):
            fit_decay(t, (1.0 + t) ** -1.0, (1.0, 100.0))

    def test_zero_values_are_degenerate(self):
        # norms that underflowed to zero: a numerical failure, not a config error
        t = np.geomspace(1.0, 100.0, 10)
        with pytest.raises(FloatingPointError, match="nonpositive values"):
            fit_decay(t, np.zeros_like(t), (1.0, 100.0))


class TestHorizon:
    def test_horizon_formula(self, gain_params):
        g = sg.GridSpec(1, 64, 100.0)
        k1 = 2.0 * np.pi / 100.0
        assert contamination_horizon(g, gain_params) == \
            pytest.approx(0.1 / sigma(k1, gain_params), rel=1e-12)


class TestRecord:
    def test_zero_trajectory_gives_zero_series(self, gain_params):
        g = sg.GridSpec(1, 32, 10.0)
        zero = sg.SpectralField(g, np.zeros(g.half_shape, dtype=complex))
        recorder = record([0.0, 1.0])
        solve(zero, gain_params, SolverConfig(dt=0.5, t_end=1.0, enable_nonlinearity=False,
                                              sample_times=(0.0, 1.0)), on_sample=recorder)
        times, *norms = recorder.series()
        assert np.array_equal(times, [0.0, 1.0])
        assert [a.shape for a in norms] == [(2, 2)] * 3 + [(0, 2)]  # 2 orders, no bands
        assert all(np.all(a == 0.0) for a in norms)

    @pytest.mark.parametrize("regime", ["gain", "loss"])
    def test_recorder_matches_eager_norms(self, gain_params, loss_params, regime):
        # the recorder measures each sample as it comes; the same calls on
        # kept samples must give the same numbers bit for bit, the loss
        # regime's H[s_j] high-band family included
        params, s = (gain_params if regime == "gain" else loss_params), 2.0
        g = sg.GridSpec(1, 256, 200.0)
        u0 = sg.field_from_spectral_profile(g, gaussian_profile(1.0, 0.1, n=1).profile)
        ls = [0.0, 0.5, 1.0]
        recorder = record(ls, bands=validate(params, s).bands)
        samples = []

        def both(state):
            samples.append(state)
            recorder(state)
        solve(u0, params, SolverConfig(dt=0.05, t_end=1.0, sample_times=(0.0, 0.3, 0.6, 1.0)),
              on_sample=both)
        fields = [st.field for st in samples]
        lows, highs = zip(*(sg.split_low_high(f) for f in fields))
        want = [[[sg.sobolev_seminorm(f, l) for f in fs] for l in ls]
                for fs in (fields, lows, highs)]
        bands = []
        if regime == "loss":
            ab = 1.0 - params.alpha
            mag = sg.wavenumber_magnitude(g)
            for j in range(math.floor(s / (2.0 * ab))):
                w = mag ** (j * ab) * (1.0 + mag * mag) ** (0.5 * (s - 2.0 * j * ab))
                bands.append([sg.spectral_weighted_norm(h, w) for h in highs])
        assert len(bands) == (2 if regime == "loss" else 0)
        times, full, low, high, band_norms = recorder.series()
        assert np.array_equal(times, [st.t for st in samples])
        for got, values in zip((full, low, high), want):
            assert np.array_equal(got, values)
        assert np.array_equal(band_norms, np.reshape(bands, (len(bands), len(samples))))

    def test_split_pythagoras_identity(self, gain_params):
        g = sg.GridSpec(1, 128, 40.0)
        f = random_real_field(g, seed=13)
        low, high = sg.split_low_high(f)
        full_sq = sg.sobolev_seminorm(f, 0.0) ** 2
        low_sq = sg.sobolev_seminorm(low, 0.0) ** 2
        high_sq = sg.sobolev_seminorm(high, 0.0) ** 2
        scale = g.box_length ** g.n / g.points_per_dim ** (2 * g.n)
        cross = scale * float(np.sum(sg.column_weights(g.points_per_dim)
                                     * (low.coefficients * np.conj(high.coefficients)).real))
        assert abs(full_sq - low_sq - high_sq - 2.0 * cross) <= 1e-10 * full_sq

    def test_linear_run_matches_oracle(self, gain_params):
        prof = gaussian_profile(1.0, 1.0, n=1)
        g = sg.GridSpec(1, 2048, 500.0)
        u0 = sg.field_from_spectral_profile(g, prof.profile)
        horizon = contamination_horizon(g, gain_params)
        ts = tuple(np.geomspace(1.0, min(horizon, 200.0), 8))
        cfg = SolverConfig(dt=0.5, t_end=ts[-1], enable_nonlinearity=False,
                           sample_times=ts)
        recorder = record([0.0])
        solve(u0, gain_params, cfg, on_sample=recorder)
        times, full, _, _, _ = recorder.series()
        for t, v in zip(times, full[0]):
            want = radial_weighted_l2(prof, 0.0, t, gain_params)
            assert abs(v - want) <= 1e-6 * want

    def test_low_band_fit_respects_decay_bound(self, gain_params):
        # linear flow with L1-and-L2 data: fitted low-band slope is no
        # slower than the predicted exponent (up to fit tolerance)
        prof = gaussian_profile(1.0, 1.0, n=1)
        g = sg.GridSpec(1, 4096, 2000.0)
        u0 = sg.field_from_spectral_profile(g, prof.profile)
        horizon = contamination_horizon(g, gain_params)
        ts = tuple(np.geomspace(10.0, min(horizon, 5e3), 12))
        cfg = SolverConfig(dt=2.5, t_end=ts[-1], enable_nonlinearity=False,
                           sample_times=ts)
        recorder = record([0.0, 1.0])
        solve(u0, gain_params, cfg, on_sample=recorder)
        times, _, low, _, _ = recorder.series()
        for l, values in zip([0.0, 1.0], low):
            fit = fit_decay(times, values, (ts[0], ts[-1]))
            assert fit.slope <= decay_exponent(l, gain_params) + 0.05


class TestWeightedFunctionals:
    def test_weights_cancel_on_exact_rates(self, gain_params):
        times = np.geomspace(0.1, 1e3, 50)
        ls = [0.0, 0.25, 0.5, 0.75, 1.0]
        full = np.array([(1.0 + times) ** decay_exponent(l, gain_params) for l in ls])
        wf = weighted_functionals(times, full, np.empty((0, times.size)), ls, gain_params,
                                  validate(gain_params, 1.0))
        assert np.max(np.abs(wf.m1 - 1.0)) <= 1e-3
        assert np.all(np.diff(wf.m1) >= -1e-12)

    def test_zero_trajectory_gives_zero_functionals(self, gain_params):
        times = np.geomspace(0.1, 10.0, 12)
        ls = [0.0, 0.25, 0.5, 0.75, 1.0]
        wf = weighted_functionals(times, np.zeros((len(ls), times.size)),
                                  np.empty((0, times.size)), ls, gain_params,
                                  validate(gain_params, 1.0))
        assert np.all(wf.m1 == 0.0) and np.all(wf.m2 == 0.0)

    def test_rows_are_read_in_the_order_of_l_list_and_bands(self, loss_params):
        # alpha = 1/2, s = 2: n0 = 0.75 and bands (l_j, s_j) = (0, 2), (0.5, 1).
        # Rows at their exact rates weigh 1; the rows past n0 carry 10 times
        # that, so m1 reads 10 and m2 reads 1.  Each band row weighs 1 by
        # its own l_j, so e reads sqrt(2) and l^2 reads 2 (t - t0).
        report = validate(loss_params, 2.0)
        assert report.n0 == 0.75 and report.bands == ((0.0, 2.0), (0.5, 1.0))
        times = np.linspace(1.0, 5.0, 9)
        ls = [1.0, 0.0, 0.5, 0.75, 2.0]
        full = np.array([(10.0 if l > report.n0 else 1.0)
                         * (1.0 + times) ** decay_exponent(l, loss_params) for l in ls])
        bands = np.array([(1.0 + times) ** (0.125 - 0.5 * l_j) for l_j, _ in report.bands])
        wf = weighted_functionals(times, full, bands, ls, loss_params, report)
        assert wf.m1 == pytest.approx(np.full(times.size, 10.0), rel=1e-12)
        assert wf.m2 == pytest.approx(np.ones(times.size), rel=1e-12)
        assert wf.e == pytest.approx(np.full(times.size, math.sqrt(2.0)), rel=1e-12)
        assert wf.l ** 2 == pytest.approx(2.0 * (times - 1.0), rel=1e-12, abs=1e-12)

    def test_loss_regime_functionals_from_solver_run(self, loss_params):
        # a short loss-regime run on an l grid covering s = 4, its high band
        # measured in the mixed weights of the report's family
        g = sg.GridSpec(1, 256, 200.0)
        u0 = sg.field_from_spectral_profile(g, gaussian_profile(1.0, 0.01, n=1).profile)
        ts = tuple(np.geomspace(0.5, 20.0, 10))
        ls = [round(0.25 * k, 2) for k in range(17)]  # 0 .. 4 step 0.25
        report = validate(loss_params, 4.0)
        recorder = record(ls, bands=report.bands)
        solve(u0, loss_params, SolverConfig(dt=0.05, t_end=20.0, sample_times=ts),
              on_sample=recorder)
        times, full, _, _, bands = recorder.series()
        wf = weighted_functionals(times, full, bands, ls, loss_params, report)
        assert wf.e is not None and wf.l is not None
        assert np.all(np.diff(wf.e) >= -1e-12 * wf.e[-1])
        assert np.all(np.diff(wf.l) >= -1e-12 * wf.l[-1])
        assert np.all(np.diff(wf.m1) >= -1e-12 * wf.m1[-1])
