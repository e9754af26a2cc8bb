import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpplab.oracle as oracle
from fpplab.model import ModelParams, sigma
from fpplab.oracle import (OracleConvergenceError, RadialProfile,
                           gaussian_profile, power_tail_profile,
                           radial_weighted_l2, sphere_area)
from fpplab.scenarios import run_scenario


def test_sphere_areas():
    assert sphere_area(1) == 2.0
    assert sphere_area(2) == pytest.approx(2.0 * np.pi, rel=0)
    assert sphere_area(3) == pytest.approx(4.0 * np.pi, rel=0)
    with pytest.raises(ValueError):
        sphere_area(4)


def test_decay_class_validation():
    with pytest.raises(ValueError, match="unknown decay class"):
        RadialProfile(np.exp, "weird")
    for parameter in (None, 0.0):
        with pytest.raises(ValueError, match="positive parameter"):
            RadialProfile(np.exp, "power_tail", parameter)


class TestRadialWeightedL2:
    def test_gaussian_closed_form_at_t0(self, gain_params):
        # 2 int_0^inf exp(-r^2) dr = sqrt(pi), so the norm is pi^(1/4)
        prof = gaussian_profile(1.0, 1.0, n=1)
        got = radial_weighted_l2(prof, 0.0, 0.0, gain_params)
        assert got == pytest.approx(math.pi ** 0.25, rel=1e-10)

    def test_low_window_ignores_profile_beyond_2R(self, gain_params):
        base = gaussian_profile(1.0, 1.0, n=1)
        spiked = RadialProfile(
            lambda r: base.profile(r) + np.where(np.asarray(r) > 1.0, 50.0, 0.0),
            "gaussian", 1.0,
        )
        a = radial_weighted_l2(base, 0.5, 2.0, gain_params, window="low")
        b = radial_weighted_l2(spiked, 0.5, 2.0, gain_params, window="low")
        assert b == pytest.approx(a, rel=1e-8)

    def test_large_time_rate_stabilizes(self, gain_params):
        # norm * (1+t)^(1/4) approaches a constant: < 1% drift per decade
        prof = gaussian_profile(1.0, 1.0, n=1)
        vals = [
            radial_weighted_l2(prof, 0.0, t, gain_params) * (1.0 + t) ** 0.25
            for t in (1e3, 1e4)
        ]
        assert abs(vals[1] - vals[0]) / vals[0] < 0.01

    def test_monotone_in_time(self, gain_params):
        prof = gaussian_profile(1.0, 1.0, n=1)
        ts = [0.0, 0.5, 2.0, 10.0, 100.0]
        vals = [radial_weighted_l2(prof, 1.0, t, gain_params) for t in ts]
        assert all(b <= a * (1 + 1e-10) for a, b in zip(vals, vals[1:]))

    def test_tolerance_halving_contract(self, gain_params):
        prof = gaussian_profile(1.0, 1.0, n=1)
        for tol in (1e-6, 1e-8):
            a = radial_weighted_l2(prof, 1.0, 3.0, gain_params, tol=tol)
            b = radial_weighted_l2(prof, 1.0, 3.0, gain_params, tol=tol / 2.0)
            assert abs(a - b) <= tol * b

    def test_window_additivity_with_cross_term(self, gain_params):
        rng = np.random.default_rng(7)
        coeff = rng.uniform(0.3, 1.0, size=3)
        width = rng.uniform(0.5, 2.0, size=3)

        def prof_fn(r):
            r = np.asarray(r, dtype=float)
            return sum(c * np.exp(-0.5 * (w * r) ** 2) for c, w in zip(coeff, width))

        prof = RadialProfile(prof_fn, "gaussian", float(width.min()))
        kw = dict(params=gain_params, tol=1e-10)
        full = radial_weighted_l2(prof, 0.5, 1.0, window="full", **kw)
        low = radial_weighted_l2(prof, 0.5, 1.0, window="low", **kw)
        high = radial_weighted_l2(prof, 0.5, 1.0, window="high", **kw)
        cross = radial_weighted_l2(prof, 0.5, 1.0, window="cross", **kw)
        lhs = low**2 + high**2 + 2.0 * cross**2
        assert abs(lhs - full**2) <= 1e-10 * full**2

    def test_scaling_is_exact_for_power_of_two(self, gain_params):
        base = gaussian_profile(1.0, 1.0, n=1)
        doubled = RadialProfile(lambda r: 2.0 * base.profile(r), base.kind, base.parameter)
        a = radial_weighted_l2(base, 1.0, 2.0, gain_params)
        b = radial_weighted_l2(doubled, 1.0, 2.0, gain_params)
        assert b == 2.0 * a

    @given(a=st.floats(0.1, 5.0))
    @settings(max_examples=10, deadline=None)
    def test_scaling_linearity(self, a):
        params = ModelParams(n=1, m=1.0, alpha=1.0, theta=5)
        base = gaussian_profile(1.0, 1.0, n=1)
        scaled = RadialProfile(lambda r: a * base.profile(r), base.kind, base.parameter)
        got = radial_weighted_l2(scaled, 0.0, 1.0, params)
        ref = radial_weighted_l2(base, 0.0, 1.0, params)
        assert got == pytest.approx(abs(a) * ref, rel=1e-13)

    def test_divergent_power_tail_raises(self, loss_params):
        prof = power_tail_profile(1.0, 1.0, n=1)  # uhat ~ r^-1: Lam^2 diverges
        with pytest.raises(OracleConvergenceError):
            radial_weighted_l2(prof, 2.0, 1.0, loss_params)

    def test_gain_alpha_above_one_smooths_any_power_tail(self):
        # t > 0 with alpha > 1 gives superexponential high-frequency damping
        p = ModelParams(n=1, m=1.0, alpha=1.5, theta=5)
        prof = power_tail_profile(1.0, 1.0, n=1)
        val = radial_weighted_l2(prof, 2.0, 1.0, p)
        assert math.isfinite(val) and val > 0

    def test_input_validation(self, gain_params):
        prof = gaussian_profile(1.0, 1.0, n=1)
        with pytest.raises(ValueError):
            radial_weighted_l2(prof, -1.0, 0.0, gain_params)
        with pytest.raises(ValueError):
            radial_weighted_l2(prof, 0.0, -1.0, gain_params)
        with pytest.raises(ValueError):
            radial_weighted_l2(prof, 0.0, 0.0, gain_params, tol=0.0)
        with pytest.raises(ValueError):
            radial_weighted_l2(prof, 0.0, 0.0, gain_params, window="sideways")

    def test_high_window_keeps_its_digits_at_large_time(self, gain_params):
        # the mass sits just above R, where chi rounds to 1; reference from
        # 40-digit mpmath on 400 subpanels
        prof = gaussian_profile(1.0, 1.0, n=1)
        got = radial_weighted_l2(prof, 0.0, 1000.0, gain_params, window="high",
                                 tol=1e-10)
        assert got == pytest.approx(1.187148682271904e-103, rel=1e-10)

    @pytest.mark.parametrize("exponent,want", [(4.56, 2.8857087903205126),
                                               (4.52, 6.291157274900839)])
    def test_power_tail_near_divergence(self, loss_params, exponent, want):
        # the tail integrand goes like u^(2p - 2l - n - 1) = u^-0.88, u^-0.96
        # as u = 1/r -> 0; references from 30-digit mpmath after u = v^(1/0.12)
        # (resp. 1/0.04), which makes it smooth
        prof = power_tail_profile(exponent, 1.0, n=1)
        got = radial_weighted_l2(prof, 4.0, 100.0, loss_params, tol=1e-10)
        assert got == pytest.approx(want, rel=1e-10)


# Values of the former adaptive-quadrature (QUADPACK) oracle at tol 1e-10:
# the profiles, windows and regimes of C1-C4, C9 and the oracle benchmark
# configs, plus n = 2, 3, t = 0 and the slow power_tail(4.6), l = 4 tail.
# (profile kind, parameter, n, alpha, l, window, t, norm)
QUAD_TABLE = [
    ("gaussian", 1.0, 1, 1.0, 0.0, "full", 100.0, 0.3542425243339523),
    ("gaussian", 1.0, 1, 1.0, 1.0, "full", 10000.0, 0.0005597890565457528),
    ("gaussian", 1.0, 1, 0.5, 0.0, "full", 1000.0, 0.03162279241319859),
    ("gaussian", 1.0, 1, 1.0, 1.0, "low", 1000.0, 0.0031495202629936753),
    ("gaussian", 1.0, 1, 0.5, 0.0, "low", 10000.0, 0.010000000050000004),
    ("gaussian", 1.0, 2, 1.5, 0.5, "low", 10.0, 0.3323916113673043),
    ("gaussian", 0.5, 1, 1.0, 0.0, "high", 4.0, 0.13642014184894366),
    ("gaussian", 0.5, 1, 1.0, 1.0, "low", 10000.0, 0.0005598048042794597),
    ("gaussian", 1.0, 1, 0.5, 0.0, "high", 100.0, 3.780767117049131e-14),
    ("gaussian", 1.0, 1, 0.5, 1.0, "full", 0.0, 0.9413962637767148),
    ("gaussian", 1.0, 1, 1.0, 0.5, "cross", 1.0, 0.13985974638988052),
    ("gaussian", 1.0, 2, 1.0, 0.0, "cross", 0.0, 0.3542718790582416),
    ("gaussian", 1.0, 3, 1.0, 1.0, "full", 50.0, 0.009436343191113614),
    ("gaussian", 1.0, 3, 0.5, 0.0, "high", 20.0, 0.0004492007687918735),
    ("gaussian", 1.0, 3, 1.5, 2.0, "low", 0.0, 0.34575848174519547),
    ("power_tail", 4.6, 1, 0.5, 0.0, "full", 100.0, 0.09999599983013123),
    ("power_tail", 4.6, 1, 0.5, 1.5, "full", 1000.0, 8.662854640215029e-07),
    ("power_tail", 4.6, 1, 0.5, 4.0, "full", 100.0, 1.783836826372097),
    ("power_tail", 4.6, 1, 0.5, 4.0, "full", 10000.0, 1.1255330498441893),
    ("power_tail", 4.6, 1, 0.5, 4.0, "full", 0.0, 2.875699745198118),
    ("power_tail", 4.6, 1, 0.5, 1.0, "high", 1000.0, 1.0759578472097875e-09),
    ("power_tail", 3.0, 2, 1.5, 2.0, "full", 1.0, 0.5677772068892329),
    ("power_tail", 4.0, 3, 0.5, 0.5, "high", 10.0, 0.023457434739502937),
]


@pytest.mark.parametrize("kind,param,n,alpha,l,window,t,want", QUAD_TABLE)
def test_matches_adaptive_quadrature_table(kind, param, n, alpha, l, window, t, want):
    if kind == "gaussian":
        prof = gaussian_profile(param, 1.0, n=n)
    else:
        prof = power_tail_profile(param, 1.0, n=n)
    params = ModelParams(n=n, m=1.0, alpha=alpha, theta=5)
    got = radial_weighted_l2(prof, l, t, params, window=window, tol=1e-10)
    assert got == pytest.approx(want, rel=1e-8)


class TestTimeBatching:
    @pytest.mark.parametrize("window", ["full", "low", "high", "cross"])
    def test_array_equals_scalar_calls(self, gain_params, window):
        # t = 0; t = 5 has no sigma crossing (sigma < 1/m = 1 < 30/5); the
        # high/cross norms at t = 1e5 underflow to 0
        prof = gaussian_profile(1.0, 1.0, n=1)
        times = np.array([0.0, 5.0, 40.0, 1e3, 1e5])
        batch = radial_weighted_l2(prof, 0.5, times, gain_params, window=window)
        one = [radial_weighted_l2(prof, 0.5, t, gain_params, window=window)
               for t in times]
        assert isinstance(one[0], float) and batch.shape == times.shape
        if window in ("high", "cross"):
            assert batch[-1] == 0.0
        np.testing.assert_allclose(batch, one, rtol=1e-13, atol=0.0)

    def test_array_keeps_its_shape(self, loss_params):
        prof = power_tail_profile(4.6, 1.0, n=1)
        times = np.array([[0.0, 10.0], [100.0, 1e4]])
        got = radial_weighted_l2(prof, 1.0, times, loss_params)
        assert got.shape == (2, 2)
        assert got[1, 1] == radial_weighted_l2(prof, 1.0, 1e4, loss_params)

    def test_decay_fit_evaluates_sigma_on_arrays(self, gain_params, monkeypatch):
        # a scalar integrand callback would make tens of thousands of calls
        calls = []
        plain_sigma = oracle.sigma

        def counted(r, params):
            calls.append(r)
            return plain_sigma(r, params)

        monkeypatch.setattr(oracle, "sigma", counted)
        prof = gaussian_profile(1.0, 1.0, n=1)
        radial_weighted_l2(prof, 1.0, np.geomspace(1e2, 1e4, 24), gain_params)
        assert 0 < len(calls) <= 64


def _first_cells(t, params):
    """Grid cells [j, j + 1] of the first up and down crossing of
    sigma = 30 / t (None where there is none), read off the grid directly."""
    above = sigma(oracle._CROSSING_GRID, params) > oracle._TAIL_EXPONENT / t
    cells = []
    for rising in (True, False):
        (turns,) = np.nonzero((above[1:] != above[:-1]) & (above[1:] == rising))
        cells.append(int(turns[0]) if turns.size else None)
    return cells


class TestCrossingEdges:
    @settings(max_examples=300, deadline=None)
    @given(alpha=st.floats(0.1, 3.0), m=st.floats(0.1, 10.0),
           log_t=st.lists(st.floats(-3.0, 7.0), min_size=1, max_size=8))
    def test_edges_are_damped_side_nodes_of_the_first_cells(self, alpha, m, log_t):
        # an up crossing's edge is its cell's outer node, a down crossing's
        # the inner one, so sigma t >= 30 at both; a batch that starts at
        # t = 0 checks that the other times keep their places
        params = ModelParams(n=1, m=m, alpha=alpha, theta=1)
        times = np.array([0.0, *np.power(10.0, log_t)])
        up, down = oracle._sigma_crossings(times, params)
        assert np.isnan(up[0]) and np.isnan(down[0])
        grid = oracle._CROSSING_GRID
        for t, edges in zip(times[1:], zip(up[1:], down[1:])):
            for edge, j, outer in zip(edges, _first_cells(t, params), (1, 0)):
                if j is None:
                    assert np.isnan(edge)
                    continue
                assert edge == grid[j + outer]
                assert sigma(np.array([edge]), params)[0] > oracle._TAIL_EXPONENT / t


def _oracle_slopes(out, params, l_list):
    """Slope per order of the oracle-only linear-decay scenario's fits: the
    gaussian(1) profile, 16 samples on [1e2, 1e4]."""
    doc = {
        "scenario": "linear-decay",
        "model": {"n": params.n, "m": params.m, "alpha": params.alpha,
                  "theta": params.theta},
        "data": {"kind": "gaussian", "width": 1.0, "amplitude": 1.0},
        "fit": {"window": [100.0, 10000.0], "l_list": l_list, "n_samples": 16},
    }
    return [fit["slope"] for fit in run_scenario(doc, output_dir=out, quiet=True).fits]


class TestOracleDecayFit:
    def test_gain_rates(self, gain_params, tmp_path):
        slope0, slope1 = _oracle_slopes(tmp_path / "gain", gain_params, [0.0, 1.0])
        assert slope0 == pytest.approx(-0.25, abs=0.02)
        assert slope1 == pytest.approx(-0.75, abs=0.03)

    def test_loss_low_frequency_rate(self, loss_params, tmp_path):
        (slope,) = _oracle_slopes(tmp_path / "loss", loss_params, [0.0])
        assert slope == pytest.approx(-0.5, abs=0.04)
