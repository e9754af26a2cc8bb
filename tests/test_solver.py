import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpplab.solver
from fpplab import grid as sg
from fpplab.model import ModelParams, b_inverse, sigma
from fpplab.oracle import gaussian_profile
from fpplab.solver import (SolverConfig, SolverBlowupError, _Stepper,
                           energy_balance_residual, padding, phi1, phi2, solve)
from fpplab.scenarios import _ORDER_BANDS, build_field, parse_config
from conftest import apply_radial_multiplier, propagate, random_real_field
from test_grid import dense_padded_samples, lattice_power


class TestPhiFunctions:
    def test_limits_are_exact(self):
        assert phi1(0.0) == 1.0
        assert phi2(0.0) == 0.5

    def test_direct_values(self):
        assert phi1(-1.0) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-14)
        assert phi2(-2.0) == pytest.approx((np.exp(-2.0) - 1.0 + 2.0) / 4.0, rel=1e-14)

    def test_series_and_direct_branches_agree_at_crossover(self):
        z = np.array([-9.9e-5, -1.01e-4])  # straddles the series cutoff
        for f, exact in ((phi1, lambda z: np.expm1(z) / z),
                         (phi2, lambda z: (np.expm1(z) - z) / z**2)):
            got = f(z)
            assert np.allclose(got, exact(z), rtol=1e-12)

    def test_rejects_positive_argument(self):
        with pytest.raises(ValueError):
            phi1(0.5)
        with pytest.raises(ValueError):
            phi2(np.array([-1.0, 0.5]))

    @given(z=st.floats(-50.0, 0.0))
    @settings(max_examples=50, deadline=None)
    def test_smooth_positive(self, z):
        assert 0.0 < phi1(z) <= 1.0
        assert 0.0 < phi2(z) <= 0.5


class TestNonlinearTerm:
    def test_cosine_square_trig_identity(self):
        # the step loop's padded power of u^(theta+1) at theta = 1
        p = ModelParams(n=1, m=1.0, alpha=1.0, theta=1)
        g = sg.GridSpec(1, 64, 2.0 * np.pi)
        x = sg.physical_nodes(g)
        a = 0.9
        f = sg.to_spectral(g, a * np.cos(2.0 * x))
        out = lattice_power(f, p.theta + 1, padding(p.theta))
        c = out.coefficients / g.points_per_dim
        assert c[0].real == pytest.approx(a * a / 2.0, rel=1e-13)
        assert c[4].real == pytest.approx(a * a / 4.0, rel=1e-13)
        assert np.max(np.abs(np.delete(c, [0, 4]))) <= 1e-14

    def test_is_the_padded_power_on_every_mode(self):
        # padding is the only dealiasing rule: no mode is masked out; Binv,
        # which smooths the power inside the Duhamel integral, is a factor
        # of the phi table, and a step applies both to the raw power
        p = ModelParams(n=1, m=1.0, alpha=1.0, theta=3)
        g = sg.GridSpec(1, 64, 10.0)
        f = random_real_field(g, seed=1, decay=0.0)
        dt = 0.1
        kernel = sg.PaddedPower(g, p.theta + 1, padding(p.theta))
        stepper = _Stepper(g, p, dt, "etd1", kernel)
        mag = sg.wavenumber_magnitude(g)
        z = -sigma(mag, p) * dt
        assert np.array_equal(stepper.dt_phi1, dt * phi1(z) * b_inverse(mag, p))
        got = stepper.advance(stepper.enter(f)).half
        power = lattice_power(f, p.theta + 1, padding(p.theta)).coefficients
        want = np.exp(z) * f.coefficients + dt * phi1(z) * b_inverse(mag, p) * power
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestStep:
    def test_zero_data_is_fixed_point(self, gain_params):
        g = sg.GridSpec(1, 32, 10.0)
        u0 = sg.SpectralField(g, np.zeros(g.half_shape, dtype=complex))
        cfg = SolverConfig(dt=0.1, t_end=1.0)
        res = solve(u0, gain_params, cfg)
        assert np.all(res.final_state.field.coefficients == 0.0)
        assert energy_balance_residual(res.final_state.ledger) == 0.0

    def test_linear_step_equals_propagate(self, gain_params):
        g = sg.GridSpec(1, 64, 20.0)
        f = random_real_field(g, seed=2)
        cfg = SolverConfig(dt=0.25, t_end=0.25, enable_nonlinearity=False)
        got = solve(f, gain_params, cfg).final_state.field
        want = propagate(f, 0.25, gain_params)
        ref = np.max(np.abs(want.coefficients))
        assert np.max(np.abs(got.coefficients - want.coefficients)) <= 1e-13 * ref

    def test_many_linear_steps_equal_one_propagate(self, gain_params):
        g = sg.GridSpec(1, 64, 20.0)
        f = random_real_field(g, seed=3)
        cfg = SolverConfig(dt=0.05, t_end=5.0, enable_nonlinearity=False)
        res = solve(f, gain_params, cfg)
        want = propagate(f, 5.0, gain_params)
        ref = np.max(np.abs(want.coefficients))
        assert np.max(np.abs(res.final_state.field.coefficients
                             - want.coefficients)) <= 1e-12 * ref

    def test_linear_solve_builds_no_phi_tables(self, monkeypatch, gain_params):
        # a linear run forms no power, so it needs neither dt phi2 Binv nor
        # dt phi1 Binv; the nonlinear solve after it shows the counts work
        calls = {"phi2": 0, "b_inverse": 0}

        def counted(name, f):
            def call(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return call
        for name in calls:
            monkeypatch.setattr(fpplab.solver, name, counted(name, getattr(fpplab.solver, name)))
        g = sg.GridSpec(1, 64, 20.0)
        f = random_real_field(g, seed=3)
        solve(f, gain_params, SolverConfig(dt=0.05, t_end=1.0, sample_times=(0.5,),
                                           enable_nonlinearity=False))
        assert calls == {"phi2": 0, "b_inverse": 0}
        solve(f, gain_params, SolverConfig(dt=0.05, t_end=0.1))
        assert calls == {"phi2": 1, "b_inverse": 1}

    def test_blowup_aborts_with_time(self):
        p = ModelParams(n=1, m=1.0, alpha=1.0, theta=1)
        g = sg.GridSpec(1, 64, 10.0)
        f = sg.to_spectral(g, np.full(g.shape, 60.0))  # u' ~ u^2, fast blowup
        cfg = SolverConfig(dt=0.5, t_end=50.0)
        with pytest.raises(SolverBlowupError) as err:
            solve(f, p, cfg)
        assert err.value.t > 0.0


    @pytest.mark.parametrize("bad", ["nan", "inf", "overflowing-sum"])
    def test_nonfinite_energy_raises_at_the_new_time(self, gain_params, bad):
        # one check of the energy sum catches a NaN mode, an inf mode and a
        # finite state whose |half|^2 is finite but whose weighted sum is not
        g = sg.GridSpec(1, 32, 32.0)
        dt = 1e-3
        stepper = _Stepper(g, gain_params, dt, "etd2")
        live = stepper.enter(random_real_field(g, seed=4))
        half = live.half.copy()
        if bad == "overflowing-sum":
            half[:] = 1e154
            assert np.all(np.isfinite(np.abs(stepper.decay * half) ** 2))
        else:
            half[3] = float(bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverBlowupError) as err:
                stepper.advance(live._replace(t=0.5, half=half))
        assert err.value.t == 0.5 + dt


class TestEvenData:
    """An n >= 2 nonlinear solve takes data even in every coordinate only,
    which its padded-power kernel needs; it checks them once, at entry."""

    @pytest.mark.parametrize("data, defect", [
        ("random", "imaginary part"),
        # odd in x_0: an imaginary spectrum
        ("sin(x0) cos(x1)", "imaginary part"),
        # point-symmetric, so a real spectrum, but odd in neither axis alone
        ("cos(x0 + x1)", "mirror image along axis 0"),
    ])
    def test_refuses_data_not_even(self, data, defect):
        g = sg.GridSpec(2, 16, 2.0 * np.pi)
        x0, x1 = np.meshgrid(sg.physical_nodes(g), sg.physical_nodes(g), indexing="ij")
        u0 = (random_real_field(g, seed=1) if data == "random" else
              sg.to_spectral(g, np.sin(x0) * np.cos(x1) if data.startswith("sin")
                             else np.cos(x0 + x1)))
        params = ModelParams(n=2, m=1.0, alpha=1.0, theta=2)
        with pytest.raises(ValueError, match=f"even in every coordinate: .*{defect}"):
            solve(u0, params, SolverConfig(dt=0.1, t_end=0.1))
        # a linear run has no padded power, so it takes any data
        solve(u0, params, SolverConfig(dt=0.1, t_end=0.1, enable_nonlinearity=False))

    def test_non_finite_data_blow_up_at_entry(self):
        # the evenness check passes them on, without a warning, to the
        # energy check at t = 0
        g = sg.GridSpec(2, 8, 6.0)
        half = np.zeros(g.half_shape, complex)
        half[1, 1] = half[-1, 1] = np.inf  # its mirror difference is inf - inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverBlowupError) as err:
                solve(sg.SpectralField(g, half), ModelParams(n=2, m=1.0, alpha=1.0, theta=2),
                      SolverConfig(dt=0.1, t_end=0.1))
        assert err.value.t == 0.0

    @pytest.mark.parametrize("n,N", [(2, 16), (3, 8)])
    @pytest.mark.parametrize("data", [{"kind": "single_mode", "k": 2, "amplitude": 0.5},
                                      {"kind": "gaussian", "width": 1.0, "amplitude": 0.5}],
                             ids=["single_mode", "gaussian"])
    def test_accepts_the_configs_data(self, n, N, data):
        # single_mode data come from rfftn, with a roundoff imaginary part
        cfg = parse_config({
            "scenario": "convergence-study",
            "model": {"n": n, "m": 1.0, "alpha": 1.0, "theta": 2},
            "grid": {"n": n, "points_per_dim": N, "box_length": 10.0},
            "data": data,
            "run": {"scheme": "etd2", "dt": 0.1, "t_end": 0.4},
        })
        u0 = build_field(cfg)
        assert (np.max(np.abs(u0.coefficients.imag)) > 0.0) == (data["kind"] == "single_mode")
        res = solve(u0, cfg.model, SolverConfig(dt=0.1, t_end=0.1))
        assert np.all(np.isfinite(res.final_state.field.coefficients))


class TestLoopCache:
    """The step loop takes each state's source term and its lattice power
    from one padded-power call; they must belong to the state they ride
    with.  theta = 4 keeps u^(theta+2) >= 0, so no cancellation."""

    def _check_source(self, n, N, dt, t_end):
        g = sg.GridSpec(n, N, 12.0)
        params = ModelParams(n=n, m=1.0, alpha=1.0, theta=4)
        u0 = sg.field_from_spectral_profile(g, gaussian_profile(1.0, 0.8, n=n).profile)
        state = solve(u0, params, SolverConfig(dt=dt, t_end=t_end)).final_state
        M = sg.padded_size(N, padding(params.theta))
        up = dense_padded_samples(sg.to_physical(state.field), M)
        fresh = float(np.sum(up ** (params.theta + 2))) * (g.box_length / M) ** n
        assert state.ledger.p == pytest.approx(fresh, rel=1e-13)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    def test_ledger_source_matches_fresh_transform(self, n, N):
        self._check_source(n, N, dt=0.05, t_end=0.2)

    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16)])
    def test_ledger_source_after_remainder_step(self, n, N):
        self._check_source(n, N, dt=0.05, t_end=0.2 + 0.05 / 3)

    @pytest.mark.parametrize("t_end, steps", [(0.2, 4), (0.2 + 0.05 / 3, 5)],
                             ids=["whole-steps", "remainder-step"])
    def test_final_state_forms_no_forcing(self, monkeypatch, t_end, steps):
        # the last state needs its padded power for the ledger's p, but not
        # its spectrum: no step reads it
        calls = {"kernel": 0, "spectrum": 0}

        def counted(*args, _f=sg.PaddedPower.__call__, **kwargs):
            calls["kernel"] += 1
            calls["spectrum"] += kwargs.get("spectrum", True)
            return _f(*args, **kwargs)
        monkeypatch.setattr(sg.PaddedPower, "__call__", counted)
        g = sg.GridSpec(1, 64, 12.0)
        params = ModelParams(n=1, m=1.0, alpha=1.0, theta=4)
        u0 = sg.field_from_spectral_profile(g, gaussian_profile(1.0, 0.8, n=1).profile)
        solve(u0, params, SolverConfig(scheme="etd2", dt=0.05, t_end=t_end))
        assert calls == {"kernel": 2 * steps + 1, "spectrum": 2 * steps}

    def test_solve_drops_the_kernel_buffers(self, monkeypatch):
        # one kernel serves the main steps and the remainder step, and its
        # buffers and twiddles go when solve returns: the recording and
        # output after it reuse that memory
        made = []

        class Tracked(sg.PaddedPower):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))
        monkeypatch.setattr(sg, "PaddedPower", Tracked)
        g = sg.GridSpec(1, 64, 12.0)
        params = ModelParams(n=1, m=1.0, alpha=1.0, theta=4)
        u0 = sg.field_from_spectral_profile(g, gaussian_profile(1.0, 0.8, n=1).profile)
        solve(u0, params, SolverConfig(dt=0.05, t_end=0.1 + 0.05 / 3))
        assert len(made) == 1 and made[0]() is None

    @pytest.mark.parametrize("theta", range(1, 9))
    def test_multiplication_chain_matches_pow(self, theta):
        x = np.random.default_rng(theta).uniform(-2.0, 2.0, 1000)
        x0 = x.copy()
        want = x ** (theta + 1)
        got = sg.pointwise_power(x, theta + 1)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
        assert np.array_equal(x, x0)
        out = np.full_like(x, np.nan)
        assert sg.pointwise_power(x, theta + 1, out=out) is out
        assert np.array_equal(out, got) and np.array_equal(x, x0)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads minor page faults from getrusage on Linux")
    def test_step_loop_reuses_its_padded_buffers(self):
        # n = 1, N = 4096, theta = 5 pads to 14,336 points: ~115 KB arrays that,
        # allocated afresh by every kernel call, cost ~190 minor page faults
        # per step; reused, about none
        src = Path(sg.__file__).resolve().parents[1]
        code = """
import resource
import numpy as np
from fpplab import grid, solver
g = grid.GridSpec(1, 4096, 400.0 * np.pi)
u0 = grid.field_from_spectral_profile(g, lambda r: 0.01 * np.exp(-r * r / 4.0))
params = solver.ModelParams(n=1, m=1.0, alpha=1.0, theta=5)
solver.solve(u0, params, solver.SolverConfig(dt=0.1, t_end=0.2))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
solver.solve(u0, params, solver.SolverConfig(dt=0.1, t_end=10.0))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) / 100 < 20


class TestConvergence:
    def _final(self, scheme, dt):
        p = ModelParams(n=1, m=1.0, alpha=1.0, theta=1)
        g = sg.GridSpec(1, 128, 100.0)
        u0 = sg.field_from_spectral_profile(g, gaussian_profile(1.0, 0.2, n=1).profile)
        res = solve(u0, p, SolverConfig(scheme=scheme, dt=dt, t_end=4.0))
        return res.final_state.field.coefficients

    def test_etd2_observed_order(self):
        finals = [self._final("etd2", dt) for dt in (0.2, 0.1, 0.05)]
        e1 = sg.lattice_norm(finals[0] - finals[1])
        e2 = sg.lattice_norm(finals[1] - finals[2])
        assert 1.7 <= np.log2(e1 / e2) <= 2.3

    def test_etd1_observed_order(self):
        finals = [self._final("etd1", dt) for dt in (0.2, 0.1, 0.05)]
        e1 = sg.lattice_norm(finals[0] - finals[1])
        e2 = sg.lattice_norm(finals[1] - finals[2])
        assert 0.7 <= np.log2(e1 / e2) <= 1.3


class TestConstantSolution:
    """An exact nonlinear reference.  A constant u = c lives in the zero
    mode, where sigma(0) = 0 and Binv(0) = 1, and its power stays constant
    through the padded kernel, so the equation is u' = u^(theta+1):
    u(t) = c (1 - theta c^theta t)^(-1/theta), which blows up at
    t* = 1 / (theta c^theta), 6.4 for c = 0.5 and theta = 5."""

    C, THETA = 0.5, 5

    def _start(self, n, N):
        g = sg.GridSpec(n, N, 2.0 * np.pi)
        params = ModelParams(n=n, m=1.0, alpha=1.0, theta=self.THETA)
        return sg.to_spectral(g, np.full(g.shape, self.C)), params

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scheme", ("etd2", "etd1"))
    @pytest.mark.parametrize("n,N", [(1, 16), (2, 4), (3, 4)])
    def test_order_against_the_exact_solution(self, n, N, scheme):
        u0, params = self._start(n, N)
        t_end = 5.0
        exact = self.C * (1.0 - self.THETA * self.C ** self.THETA * t_end) ** (-1.0 / self.THETA)
        errors, residuals = [], []
        for dt in (0.1, 0.05, 0.025):
            state = solve(u0, params, SolverConfig(scheme=scheme, dt=dt, t_end=t_end)).final_state
            half = state.field.coefficients
            errors.append(half.flat[0].real / N ** n / exact - 1.0)
            residuals.append(energy_balance_residual(state.ledger))
            # no other mode is ever fed
            assert np.max(np.abs(half.flat[1:])) <= 1e-16 * abs(half.flat[0])
        # the orders of convergence-study's verdict (C6): the error and the
        # ledger's residual both fall at the scheme's order
        lo, hi = _ORDER_BANDS[scheme]
        for series in (errors, residuals):
            assert all(lo <= np.log2(a / b) <= hi for a, b in zip(series, series[1:]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dt", (0.01, 0.05))
    def test_blowup_time(self, dt):
        # the discrete solution trails the exact one, and a state is caught
        # only once it overflows: 3 dt after t* at both steps
        u0, params = self._start(1, 16)
        t_star = 1.0 / (self.THETA * self.C ** self.THETA)
        with pytest.raises(SolverBlowupError) as err:
            solve(u0, params, SolverConfig(dt=dt, t_end=10.0))
        assert t_star <= err.value.t <= t_star + 4 * dt


class TestEnergyBalance:
    @pytest.mark.parametrize("n,N", [(1, 64), (2, 16), (3, 8)])
    def test_ledger_energy_is_the_grid_norms(self, n, N):
        # the ledger and the grid's norms weigh the half spectrum's columns
        # by one rule; a white spectrum gives the Nyquist column full weight
        params = ModelParams(n=n, m=0.7, alpha=1.0, theta=2)
        u0 = random_real_field(sg.GridSpec(n, N, 7.0), seed=n, decay=0.0)
        cfg = SolverConfig(dt=0.1, t_end=0.0, enable_nonlinearity=False)
        e0 = solve(u0, params, cfg).final_state.ledger.e0
        want = sg.sobolev_seminorm(u0, 0.0) ** 2 + params.m * sg.sobolev_seminorm(u0, 1.0) ** 2
        assert e0 == pytest.approx(want, rel=1e-13)

    def test_linear_run_residual(self, gain_params):
        g = sg.GridSpec(1, 128, 100.0)
        u0 = sg.field_from_spectral_profile(g, gaussian_profile(1.0, 0.01, n=1).profile)
        cfg = SolverConfig(dt=1e-4, t_end=2.0, enable_nonlinearity=False)
        res = solve(u0, gain_params, cfg)
        assert abs(energy_balance_residual(res.final_state.ledger)) < 1e-8

    def test_linear_run_residual_is_exact_at_any_sample_spacing(self, gain_params):
        # the exponentially fitted ledger is exact on the linear flow, so
        # uneven, long jumps between sample times leave only roundoff
        g = sg.GridSpec(1, 128, 100.0)
        u0 = sg.field_from_spectral_profile(g, gaussian_profile(1.0, 1.0, n=1).profile)
        cfg = SolverConfig(dt=1.0, t_end=200.0, enable_nonlinearity=False,
                           sample_times=tuple(np.geomspace(0.5, 200.0, 50)))
        res = solve(u0, gain_params, cfg)
        assert abs(energy_balance_residual(res.final_state.ledger)) <= 1e-13

    def test_nonlinear_residual_is_second_order_in_dt(self, gain_params):
        g = sg.GridSpec(1, 256, 100.0)
        u0 = sg.field_from_spectral_profile(g, gaussian_profile(1.0, 0.5, n=1).profile)
        residuals = [energy_balance_residual(
            solve(u0, gain_params, SolverConfig(dt=dt, t_end=2.0)).final_state.ledger)
            for dt in (0.04, 0.02, 0.01)]
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    @pytest.mark.parametrize("amplitude", [0.01, 0.5])
    def test_nonlinear_resolved_run_residual(self, gain_params, amplitude):
        g = sg.GridSpec(1, 256, 100.0)
        u0 = sg.field_from_spectral_profile(g, gaussian_profile(1.0, amplitude,
                                                                n=1).profile)
        cfg = SolverConfig(dt=1e-3, t_end=2.0)
        res = solve(u0, gain_params, cfg)
        assert abs(energy_balance_residual(res.final_state.ledger)) < 1e-6


class TestBoundedness:
    def test_small_data_h1_stays_bounded(self, gain_params):
        g = sg.GridSpec(1, 512, 400.0)
        u0 = sg.field_from_spectral_profile(g, gaussian_profile(1.0, 0.01, n=1).profile)
        ts = tuple(np.linspace(0.0, 50.0, 26))
        norms = []
        solve(u0, gain_params, SolverConfig(dt=0.05, t_end=50.0, sample_times=ts),
              on_sample=lambda st: norms.append(sg.sobolev_norm(st.field, 1.0)))
        start = sg.sobolev_norm(u0, 1.0)
        sup = max(norms)
        assert sup <= 2.0 * start

    @given(seed=st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_smoothing_operator_contracts_every_seminorm(self, seed):
        params = ModelParams(n=1, m=0.7, alpha=1.0, theta=1)
        g = sg.GridSpec(1, 64, 15.0)
        v = random_real_field(g, seed=seed)
        smoothed = apply_radial_multiplier(v, lambda r: b_inverse(r, params))
        for l in (0.0, 0.5, 1.0, 2.0):
            assert sg.sobolev_seminorm(smoothed, l) <= \
                sg.sobolev_seminorm(v, l) * (1 + 1e-13)


class TestStreaming:
    def test_memory_does_not_grow_with_the_sample_count(self, gain_params):
        # solve keeps no sample once its on_sample call has returned, so ten
        # times the samples leave the peak within two fields
        g = sg.GridSpec(1, 4096, 400.0 * np.pi)
        u0 = sg.field_from_spectral_profile(g, gaussian_profile(1.0, 0.01, n=1).profile)
        peaks = []
        for count in (50, 5):
            cfg = SolverConfig(dt=0.1, t_end=5.0,
                               sample_times=tuple(np.linspace(0.0, 5.0, count)))
            tracemalloc.start()
            try:
                solve(u0, gain_params, cfg, on_sample=lambda state: None)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[0] - peaks[1]) < 2 * u0.coefficients.nbytes


class TestSamples:
    def test_linear_lattice_sample_times_land_exactly(self, gain_params):
        g = sg.GridSpec(1, 32, 10.0)
        f = random_real_field(g, seed=6)
        cfg = SolverConfig(dt=0.1, t_end=1.0, enable_nonlinearity=False,
                           sample_times=(0.0, 0.5, 1.0))
        seen = []
        solve(f, gain_params, cfg, on_sample=seen.append)
        assert [st.t for st in seen] == [0.0, 0.5, 1.0]

    def test_nonlinear_sample_times_land_exactly(self, gain_params):
        # a nonlinear run clips the step that would pass a sample time:
        # 3 steps and one of 0.07 to 0.37, then 6 and one of 0.03 to 1
        g = sg.GridSpec(1, 32, 10.0)
        f = random_real_field(g, seed=6)
        f = sg.SpectralField(g, 0.01 * f.coefficients)
        cfg = SolverConfig(dt=0.1, t_end=1.0, sample_times=(0.0, 0.37, 1.0))
        seen = []
        res = solve(f, gain_params, cfg, on_sample=seen.append)
        assert [st.t for st in seen] == [0.0, 0.37, 1.0]
        assert res.step_count == 11
        ended = solve(f, gain_params, SolverConfig(dt=0.1, t_end=0.37)).final_state
        assert np.array_equal(seen[1].field.coefficients, ended.field.coefficients)
        assert seen[1].ledger == ended.ledger

    @pytest.mark.parametrize("off", [1e-12, -1e-12], ids=["after", "before"])
    def test_sample_within_tolerance_of_the_lattice_takes_no_extra_step(
            self, gain_params, off):
        # a gap within 1e-9 max(dt, 1) of whole steps takes those steps
        # unclipped: the run is the fixed-step run with no samples
        g = sg.GridSpec(1, 32, 10.0)
        f = random_real_field(g, seed=6)
        f = sg.SpectralField(g, 0.01 * f.coefficients)
        ts = (0.0, 0.3, 0.5 + off, 1.0)
        seen = []
        res = solve(f, gain_params, SolverConfig(dt=0.1, t_end=1.0, sample_times=ts),
                    on_sample=seen.append)
        plain = solve(f, gain_params, SolverConfig(dt=0.1, t_end=1.0))
        assert tuple(st.t for st in seen) == ts
        assert res.step_count == plain.step_count == 10
        assert np.array_equal(res.final_state.field.coefficients,
                              plain.final_state.field.coefficients)
        assert res.final_state.ledger == plain.final_state.ledger

    def test_linear_sample_times_land_exactly(self, gain_params):
        # a linear run jumps from sample to sample with the exact semigroup
        g = sg.GridSpec(1, 64, 20.0)
        f = random_real_field(g, seed=7)
        ts = (0.37, 1.9, 4.25)
        seen = []
        cfg = SolverConfig(dt=0.5, t_end=5.0, enable_nonlinearity=False, sample_times=ts)
        res = solve(f, gain_params, cfg, on_sample=seen.append)
        assert tuple(st.t for st in seen) == ts
        assert res.step_count == 4  # three samples, then t_end
        for st in seen:
            want = propagate(f, st.t, gain_params).coefficients
            got = st.field.coefficients
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(scheme="rk4")
        with pytest.raises(ValueError):
            SolverConfig(dt=-0.1)
        with pytest.raises(ValueError):
            SolverConfig(t_end=1.0, sample_times=(2.0,))
