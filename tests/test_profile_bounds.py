import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from mildheat.initial_data import (
    make_constant,
    make_log_sine,
    make_step,
    make_sub_log,
)
from mildheat.kernels import profile_F
from mildheat.profile_bounds import (
    ProfileErrorReport,
    accumulation_samples,
    dilation_difference_bound,
    envelope_bound,
    fit_profile_coefficients,
    log_kernel_bound,
    profile_error,
    sup_profile_error,
    two_sided_profile,
)


class TestTwoSidedProfile:
    def test_step(self):
        u = make_step(-1.0, 2.0)
        for x in (-2.0, 0.0, 1.5):
            want = -1.0 * profile_F(-x) + 2.0 * profile_F(x)
            assert two_sided_profile(u, x, 5.0) == pytest.approx(want)

    def test_constant_collapses(self):
        assert two_sided_profile(make_constant(0.7), 1.3, 9.0) == pytest.approx(0.7)

    def test_log_sine_at_origin(self):
        # F(0) = 1/2 and sin(log|.|) is even, so the profile at x=0 is
        # sin(log sqrt(t))
        u = make_log_sine()
        for t in (0.01, 100.0):
            want = math.sin(math.log(math.sqrt(t)))
            assert two_sided_profile(u, 0.0, t) == pytest.approx(want)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            two_sided_profile(make_constant(1.0), 0.0, 0.0)


class TestProfileError:
    def test_step_is_exact(self):
        for t in (0.1, 10.0):
            rep = profile_error(make_step(0.0, 1.0), 4.0, t)
            assert rep.sup_error <= 2e-10

    def test_constant_is_exact(self):
        rep = profile_error(make_constant(0.5), 4.0, 1.0)
        assert rep.sup_error <= 1e-10

    def test_coefficients_are_endpoint_values(self):
        u = make_sub_log(0.5)
        rep = profile_error(u, 4.0, 100.0)
        assert rep.coeff_left == float(u.eval(-10.0))
        assert rep.coeff_right == float(u.eval(10.0))

    def test_report_validation(self):
        with pytest.raises(ValueError):
            ProfileErrorReport(t=0.0, L=4.0, sup_error=0.0, coeff_left=0, coeff_right=0)
        with pytest.raises(ValueError):
            ProfileErrorReport(t=1.0, L=4.0, sup_error=-1.0, coeff_left=0, coeff_right=0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sup_profile_error(make_constant(1.0), 1.0, 1.0, 4.0, 1.0, n=2)


def _quadpack_profile_error(u, x, t):
    """Signed heat profile error u(sqrt(t) x, t) - profile at one point, by QUADPACK:

    (1/(2 sqrt(pi))) sum over +- of
        int_0^inf e^{-(x -+ z)^2/4} (u0(+-sqrt(t) z) - u0(+-sqrt(t))) dz.

    Subtracting the coefficient inside the integral avoids cancellation; the
    breakpoints sit where u0(sqrt(t) z) turns (z ~ e/sqrt(t)) and at z = 1.
    """
    st = math.sqrt(t)
    total = 0.0
    for sign in (-1.0, 1.0):
        c = float(u.eval(sign * st))

        def g(z):
            return math.exp(-0.25 * (x - sign * z) ** 2) * (float(u.eval(sign * st * z)) - c)

        turn = [math.e / st] if math.e / st < 1.0 else None
        near, _ = integrate.quad(g, 0.0, 1.0, points=turn, epsabs=1e-14, epsrel=1e-13, limit=500)
        far, _ = integrate.quad(g, 1.0, abs(x) + 40.0, epsabs=1e-14, epsrel=1e-13, limit=500)
        total += near + far
    return total / (2.0 * math.sqrt(math.pi))


class TestProfileErrorLongTimeValues:
    """The long-time ladder of sub_log:0.5 on L = 4 peaks at the left edge x = -4.

    Its sup errors (about 0.065, 0.187, 0.218, 0.206) are not monotone in t:
    they follow the phase of the slope functional |x u0'(x)| at x = sqrt(t).
    Pinning them to an independent quadrature shows the values are right.
    """

    @pytest.mark.parametrize("t", [1e2, 1e4, 1e6, 1e8])
    def test_sup_error_is_quadpack_value_at_left_edge(self, t):
        u = make_sub_log(0.5)
        rep = profile_error(u, 4.0, t)
        assert rep.sup_error == pytest.approx(abs(_quadpack_profile_error(u, -4.0, t)), abs=1e-10)


class TestEnvelopeBound:
    def test_vanishes_for_matching_constant(self):
        assert envelope_bound(make_constant(0.3), 0.3, 0.3, 4.0, 1.0) <= 1e-10

    def test_vanishes_for_matching_step(self):
        assert envelope_bound(make_step(0.0, 1.0), 0.0, 1.0, 4.0, 1.0) <= 1e-9

    def test_dominates_measured_error(self):
        u = make_log_sine()
        t = 100.0
        c = math.sin(math.log(10.0))
        measured = sup_profile_error(u, c, c, 4.0, t)
        bound = envelope_bound(u, c, c, 4.0, t)
        assert measured <= bound + 2e-10

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            envelope_bound(make_constant(1.0), 1.0, 1.0, 0.0, 1.0)


class TestDilationBound:
    def test_log_sine_closed_form(self):
        lhs, rhs = dilation_difference_bound(make_log_sine(), math.e, math.e)
        assert lhs == pytest.approx(abs(math.sin(2.0) - math.sin(1.0)), abs=1e-12)
        # annulus sup of |cos(log|x|)| is 1, inflated by the 1% safety factor
        assert rhs == pytest.approx((math.e + 1.0 / math.e) ** 2 * 1.01, rel=1e-3)

    def test_constant(self):
        lhs, rhs = dilation_difference_bound(make_constant(2.0), 4.0, 1.0)
        assert lhs == 0.0
        assert rhs == 0.0

    def test_identity_dilation(self):
        lhs, _ = dilation_difference_bound(make_log_sine(), 1.0, 3.0)
        assert lhs == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            dilation_difference_bound(make_log_sine(), 0.0, 1.0)
        with pytest.raises(ValueError):
            dilation_difference_bound(make_log_sine(), 2.0, 0.0)


class TestLogKernelBound:
    def test_flat_data_have_zero_error(self):
        lhs, rhs = log_kernel_bound(make_step(0.0, 1.0), 1.0, 10.0)
        assert rhs == 0.0
        assert lhs <= 2e-10

    def test_log_sine_inequality(self):
        u = make_log_sine()
        for x, t in ((0.0, 1.0), (1.0, 1e4), (-3.0, 1e-4)):
            lhs, rhs = log_kernel_bound(u, x, t)
            assert lhs <= rhs + 2e-10

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            log_kernel_bound(make_log_sine(), 0.0, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda u, v: two_sided_profile(u, 0.5, v),
        lambda u, v: profile_error(u, 4.0, v),
        lambda u, v: sup_profile_error(u, 0.0, 1.0, 4.0, v),
        lambda u, v: sup_profile_error(u, 0.0, 1.0, v, 1.0),
        lambda u, v: envelope_bound(u, 0.0, 1.0, 4.0, v),
        lambda u, v: envelope_bound(u, 0.0, 1.0, v, 1.0),
        lambda u, v: log_kernel_bound(u, 0.5, v),
    ],
    ids=["two_sided_profile-t", "profile_error-t", "sup_profile_error-t",
         "sup_profile_error-L", "envelope_bound-t", "envelope_bound-L",
         "log_kernel_bound-t"],
)
def test_rejects_non_finite_time_or_window(call, value):
    # refused before the datum is read, not after NaN spreads or a
    # quadrature spends its budget
    base = make_sub_log(0.5)
    evals = []
    u = dataclasses.replace(base, eval=lambda x: evals.append(x) or base.eval(x))
    with pytest.raises(ValueError, match="finite"):
        call(u, value)
    assert not evals


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_log_kernel_bound_rejects_non_finite_point(x):
    # refused before the datum is read or kernel_G opens its panels
    base = make_sub_log(0.5)
    evals = []
    u = dataclasses.replace(base, eval=lambda y: evals.append(y) or base.eval(y))
    with pytest.raises(ValueError, match="finite"):
        log_kernel_bound(u, x, 1.0)
    assert not evals


class TestAccumulation:
    def test_step_pairs_are_constant(self):
        pairs = accumulation_samples(make_step(-1.0, 2.0), (1.0, 10.0, 100.0))
        assert pairs == [(-1.0, 2.0)] * 3

    def test_log_sine_traces_diagonal_curve(self):
        # the datum is even, so both coordinates equal sin(log lambda)
        lams = [math.exp(k * math.pi / 8.0) for k in range(32)]
        pairs = accumulation_samples(make_log_sine(), lams)
        for lam, (a, b) in zip(lams, pairs):
            assert a == pytest.approx(b, abs=1e-14)
            assert a == pytest.approx(math.sin(math.log(lam)), abs=1e-12)

    def test_rejects_nonpositive_ladder(self):
        with pytest.raises(ValueError):
            accumulation_samples(make_log_sine(), (1.0, -2.0))


class TestFitProfileCoefficients:
    def test_recovers_exact_combination(self):
        xs = np.linspace(-4.0, 4.0, 101)
        vals = -0.3 * profile_F(-xs) + 1.7 * profile_F(xs)
        a, b = fit_profile_coefficients(xs, vals)
        assert a == pytest.approx(-0.3, abs=1e-10)
        assert b == pytest.approx(1.7, abs=1e-10)
