import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpplab.model import (GAIN, LOSS, ModelParams, b_inverse, cutoff_partition,
                          decay_exponent, sigma, validate)


class TestModelParams:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ModelParams(n=1, m=0.0, alpha=1.0, theta=1)
        with pytest.raises(ValueError):
            ModelParams(n=1, m=-1.0, alpha=1.0, theta=1)
        with pytest.raises(ValueError):
            ModelParams(n=1, m=1.0, alpha=0.0, theta=1)
        with pytest.raises(ValueError):
            ModelParams(n=1, m=1.0, alpha=1.0, theta=0)
        with pytest.raises(ValueError):
            ModelParams(n=1, m=1.0, alpha=1.0, theta=2.5)
        with pytest.raises(ValueError):
            ModelParams(n=4, m=1.0, alpha=1.0, theta=1)


class TestValidate:
    def test_gain_example(self):
        rep = validate(ModelParams(n=1, m=1.0, alpha=1.0, theta=5), s=1.0)
        assert rep.regime == GAIN
        assert rep.theta_ok and rep.s_ok
        assert rep.n0 == 1.0
        assert rep.theta_ok and rep.s_ok

    def test_theta_boundary_not_ok(self):
        rep = validate(ModelParams(n=1, m=1.0, alpha=1.0, theta=4), s=1.0)
        assert not rep.theta_ok
        assert rep.warnings  # reported, not raised

    def test_loss_example_hand_evaluated(self):
        # floor(4/1) = 4 >= 1 + 0.75; n0 = 0.5 * min(4 - 0.5, 3*0.5 - 0.5 + 2) = 1.5
        rep = validate(ModelParams(n=1, m=1.0, alpha=0.5, theta=3), s=4.0)
        assert rep.regime == LOSS
        assert rep.theta_ok and rep.s_ok
        assert rep.n0 == pytest.approx(1.5, abs=1e-12)

    def test_failures_warn_instead_of_raising(self):
        rep = validate(ModelParams(n=1, m=1.0, alpha=0.5, theta=3), s=0.5)
        assert not rep.s_ok and rep.warnings

    def test_rejects_negative_s(self):
        with pytest.raises(ValueError):
            validate(ModelParams(1, 1.0, 1.0, 1), s=-1.0)

    def test_bands_are_the_loss_regime_family(self):
        # (j abar, s - 2 j abar) for j < floor(s / (2 abar)) = 4; none at alpha = 1;
        # the report's dict, which summary.json and validate print, leaves them out
        rep = validate(ModelParams(1, 1.0, 0.5, 3), 4.0)
        assert rep.bands == ((0.0, 4.0), (0.5, 3.0), (1.0, 2.0), (1.5, 1.0))
        assert validate(ModelParams(1, 1.0, 1.0, 3), 4.0).bands == ()
        assert list(rep.to_dict()) == ["regime", "theta_ok", "s", "s_ok", "n0",
                                       "warnings"]

    @given(alpha=st.floats(0.1, 3.0), s=st.floats(0.0, 10.0),
           n=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_n0_never_exceeds_s(self, alpha, s, n):
        rep = validate(ModelParams(n=n, m=1.0, alpha=alpha, theta=5), s=s)
        assert 0.0 <= rep.n0 <= s + 1e-12
        if rep.regime == GAIN:
            assert rep.n0 == s


class TestSigma:
    def test_examples(self):
        p = ModelParams(n=1, m=1.0, alpha=1.0, theta=1)
        assert sigma(0.0, p) == 0.0
        assert sigma(1.0, p) == pytest.approx(0.5, abs=0)
        p2 = ModelParams(n=1, m=1.0, alpha=0.5, theta=1)
        assert sigma(2.0, p2) == pytest.approx(0.4, rel=1e-15)

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            sigma(-1.0, ModelParams(1, 1.0, 1.0, 1))

    @given(alpha=st.floats(0.2, 2.5), m=st.floats(0.1, 10.0),
           r=st.floats(1e-6, 1e-3))
    @settings(max_examples=60, deadline=None)
    def test_low_frequency_asymptotics(self, alpha, m, r):
        p = ModelParams(n=1, m=m, alpha=alpha, theta=1)
        assert abs(sigma(r, p) / r ** (2 * alpha) - 1.0) <= 2.0 * m * r * r

    @given(alpha=st.floats(0.2, 2.5), m=st.floats(0.1, 10.0),
           r=st.floats(1e3, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_high_frequency_asymptotics(self, alpha, m, r):
        p = ModelParams(n=1, m=m, alpha=alpha, theta=1)
        assert abs(sigma(r, p) * m / r ** (2 * alpha - 2) - 1.0) <= 2.0 / (m * r * r)


class TestBInverse:
    def test_examples(self):
        p = ModelParams(n=1, m=1.0, alpha=1.0, theta=1)
        assert b_inverse(0.0, p) == 1.0
        assert b_inverse(1.0, p) == 0.5
        p2 = ModelParams(n=1, m=2.0, alpha=1.0, theta=1)
        assert b_inverse(3.0, p2) == pytest.approx(1.0 / 19.0, rel=1e-15)

    @given(r1=st.floats(0.0, 100.0), r2=st.floats(0.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_decreasing_and_in_unit_interval(self, r1, r2):
        p = ModelParams(n=1, m=1.0, alpha=1.0, theta=1)
        lo, hi = sorted((r1, r2))
        assert 0.0 < b_inverse(hi, p) <= b_inverse(lo, p) <= 1.0


def chi(r):
    return cutoff_partition(r)[0]


class TestCutoffChi:
    def test_plateaus_and_midpoint(self):
        assert chi(0.3) == 1.0
        assert chi(1.0) == 0.0
        assert chi(0.75) == pytest.approx(0.5, abs=1e-15)
        mid = chi(0.65)
        assert 0.0 < mid < 1.0

    @given(r1=st.floats(0.0, 2.0), r2=st.floats(0.0, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_nonincreasing(self, r1, r2):
        lo, hi = sorted((r1, r2))
        assert chi(hi) <= chi(lo) + 1e-15

    @given(r=st.floats(0.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_partition_of_unity_exact(self, r):
        c = chi(r)
        assert c + (1.0 - c) == 1.0
        # the pair's second weight, its own ratio, sums with chi to 1 within an ulp
        assert abs(c + cutoff_partition(r)[1] - 1.0) <= np.finfo(float).eps


class TestDecayExponent:
    def test_examples(self):
        p = ModelParams(n=1, m=1.0, alpha=1.0, theta=1)
        assert decay_exponent(0.0, p) == -0.25
        assert decay_exponent(1.0, p) == -0.75
        assert decay_exponent(0.0, ModelParams(2, 1.0, 0.5, 1)) == -1.0

    @given(l1=st.floats(0.0, 10.0), l2=st.floats(0.0, 10.0),
           alpha=st.floats(0.2, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_strictly_decreasing_in_l(self, l1, l2, alpha):
        p = ModelParams(n=2, m=1.0, alpha=alpha, theta=1)
        lo, hi = sorted((l1, l2))
        if hi - lo > 1e-9 * (1.0 + hi):  # separations resolvable in float64
            assert decay_exponent(hi, p) < decay_exponent(lo, p)
