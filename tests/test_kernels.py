import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special

from mildheat import kernels
from mildheat.kernels import (
    _TAIL_PART,
    DEFAULT_SPEC,
    QuadratureSpec,
    UncertifiedQuadrature,
    adaptive_simpson,
    envelope_rho,
    gauss_window,
    heat_kernel,
    kernel_G,
    profile_F,
    profile_F_quad,
)
from mildheat.oracles import kernel_G_trapezoid


def _recursive_simpson(f, a, b, tol, max_depth=48, min_depth=6):
    """Depth-first adaptive Simpson on a scalar f: the reference for the level
    sweep, which must visit the same nodes and accept the same panels.

    Returns the value and every node visited, as (x, k): k is the level of
    the panel whose quarter point x is, and -1 for the first three nodes.
    """
    visits = []

    def at(x, level):
        visits.append((x, level))
        return f(x)

    def simpson(fa, fm, fb, width):
        return width / 6.0 * (fa + 4.0 * fm + fb)

    def adapt(a, b, fa, fm, fb, whole, tol, depth, force):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = at(lm, max_depth - depth), at(rm, max_depth - depth)
        left, right = simpson(fa, flm, fm, m - a), simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol and force <= 0:
            return left + right + delta / 15.0
        if depth <= 0:
            raise UncertifiedQuadrature("depth limit")
        return (adapt(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1, force - 1)
                + adapt(m, b, fm, frm, fb, right, 0.5 * tol, depth - 1, force - 1))

    fa, fm, fb = at(a, -1), at(0.5 * (a + b), -1), at(b, -1)
    val = adapt(a, b, fa, fm, fb, simpson(fa, fm, fb, b - a), tol, max_depth, min_depth)
    return val, visits


def _sweep_levels_match_recursion(f, a, b, tol):
    """Run the sweep and the recursion on f; assert that each call of the
    sweep holds exactly the recursion's nodes of its level, and return the
    two values and the sizes of the calls."""
    swept = []

    def array_f(x):
        swept.append(sorted(x.tolist()))
        return f(x)

    val = adaptive_simpson(array_f, a, b, tol)
    ref, visits = _recursive_simpson(lambda x: float(f(np.float64(x))), a, b, tol)
    # the first call holds every node of the forced levels; call j >= 1 the
    # quarter points of the open panels of level _MIN_LEVEL + j - 1
    walked = {}
    for x, level in visits:
        walked.setdefault(max(0, level - kernels._MIN_LEVEL + 1), []).append(x)
    assert swept == [sorted(walked[j]) for j in range(len(walked))]
    return val, ref, [len(xs) for xs in swept]


class TestAdaptiveSimpson:
    # integrands map arrays of nodes to arrays of values
    @pytest.mark.parametrize("f, a, b", [
        (lambda x: np.exp(-0.25 * x * x), -14.0, 2.5),
        (lambda x: np.exp(-((x - 0.3) / 1e-3) ** 2), 0.0, 1.0),
        (lambda x: np.sqrt(x) * np.log1p(x), 0.0, 3.0),
        (lambda x: np.exp(-0.25 * (1.5 - np.exp(x)) ** 2) * -x * np.exp(x), -40.0, 0.0),
    ])
    def test_same_nodes_and_value_as_recursion(self, f, a, b):
        val, ref, _ = _sweep_levels_match_recursion(f, a, b, 1e-10)
        assert val == pytest.approx(ref, rel=1e-14, abs=1e-16)

    def test_deep_sweep_with_mixed_levels_matches_recursion(self):
        # sqrt is singular at 0: panels there stay open for many levels while
        # the rest are accepted, so open and accepted panels share levels
        val, ref, sizes = _sweep_levels_match_recursion(np.sqrt, 0.0, 1.0, 1e-10)
        assert len(sizes) - 1 >= 8
        # a level of n quarter points has n/2 panels, and each open one gives
        # the next level 4 quarter points: 0 < m < 2n means that it accepted
        # some of its panels and kept others open
        assert any(0 < m < 2 * n for n, m in zip(sizes[1:], sizes[2:]))
        assert val == pytest.approx(ref, rel=1e-14, abs=1e-16)
        assert val == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_cubic_is_exact(self):
        # Simpson integrates cubics exactly on any panel
        val = adaptive_simpson(lambda x: x ** 3 - 2.0 * x, -1.0, 3.0, 1e-12)
        assert val == pytest.approx(20.0 - 8.0, abs=1e-10)

    def test_gaussian_tolerance(self):
        val = adaptive_simpson(lambda x: np.exp(-0.25 * x * x), -14.0, 14.0, 1e-12)
        assert val == pytest.approx(2.0 * math.sqrt(math.pi), abs=1e-11)

    def test_reversed_limits_flip_sign(self):
        fwd = adaptive_simpson(np.sin, 0.0, 2.0, 1e-10)
        assert adaptive_simpson(np.sin, 2.0, 0.0, 1e-10) == -fwd

    @pytest.mark.parametrize("a, b", [(8e307, 1.7e308), (-1.7e308, -8e307)])
    def test_midpoints_near_the_largest_float(self, a, b):
        # a + b overflows; 0.5 a + 0.5 b does not (the pytest setting turns
        # the RuntimeWarning of an overflow into a failure)
        assert adaptive_simpson(np.ones_like, a, b, 1e-10) == b - a

    def test_empty_interval(self):
        assert adaptive_simpson(np.exp, 1.0, 1.0, 1e-10) == 0.0

    def test_forced_depth_sees_narrow_bump(self):
        # a bump whose support misses the nodes of the first coarse estimates
        f = lambda x: np.exp(-((x - 0.3) / 1e-3) ** 2)
        val = adaptive_simpson(f, 0.0, 1.0, 1e-12)
        assert val == pytest.approx(1e-3 * math.sqrt(math.pi), rel=1e-6)

    def test_depth_limit_across_jump_raises(self):
        # no number of bisections resolves a jump: no uncertified value comes back
        jump = lambda x: np.where(x < 0.3, 0.0, 1.0)
        with pytest.raises(UncertifiedQuadrature, match="level 48"):
            adaptive_simpson(jump, 0.0, 1.0, 1e-10)

    def test_depth_limit_on_converged_panels_returns(self, monkeypatch):
        # the last allowed level still accepts the panels that meet their share
        monkeypatch.setattr(kernels, "_MAX_LEVEL", kernels._MIN_LEVEL)
        assert adaptive_simpson(lambda x: x ** 3, 0.0, 1.0, 1e-10) == (
            pytest.approx(0.25, abs=1e-15)
        )
        with pytest.raises(UncertifiedQuadrature, match="level 6"):
            adaptive_simpson(np.sqrt, 0.0, 1.0, 1e-10)

    def test_one_call_per_level(self):
        # 129 nodes of the forced levels, then one array of new nodes per level
        sizes = []

        def f(x):
            sizes.append(len(x))
            return x ** 3

        adaptive_simpson(f, 0.0, 1.0, 1e-10)
        assert sizes == [129, 128]

    def test_open_panel_cap_raises(self, monkeypatch):
        # every panel misses an unreachable share: the sweep stops loudly at
        # the panel cap instead of doubling its arrays up to level 48; the
        # message gives the panel's ends as plain floats, not np.float64(...)
        monkeypatch.setattr(kernels, "_MAX_PANELS", 1 << 10)
        with pytest.raises(UncertifiedQuadrature, match="open panels") as exc:
            adaptive_simpson(np.sin, 0.0, 2.0, 1e-300)
        assert "np.float64" not in str(exc.value)
        ends = re.search(r"on \[(.*), (.*)\] the estimate", str(exc.value)).groups()
        assert all(0.0 <= float(end) <= 2.0 for end in ends)


class TestQuadratureSpec:
    def test_defaults_valid(self):
        assert DEFAULT_SPEC.abs_tol == 1e-10

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tol(self, value):
        with pytest.raises(ValueError, match="finite"):
            QuadratureSpec(abs_tol=value)

    def test_tolerance_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(QuadratureSpec)] == ["abs_tol"]


class TestGaussWindow:
    @pytest.mark.parametrize("abs_tol", [10.0 ** -k for k in range(6, 16)])
    @pytest.mark.parametrize("sup", [1e-3, 1.0, 2.0, 7.5, 1e6])
    def test_dropped_mass_fits_its_part(self, abs_tol, sup):
        # sup erfc(w/2) is the mass (1/sqrt(pi)) int_w^inf sup e^{-y^2/4} dy
        w = gauss_window(abs_tol, sup)
        assert sup * math.erfc(0.5 * w) <= _TAIL_PART * abs_tol
        # and the window is no wider than the e^{-w^2/4} bound asks
        assert sup * math.exp(-0.25 * w * w) == pytest.approx(_TAIL_PART * abs_tol)

    @pytest.mark.parametrize("sup", [0.0, 1e-13])
    def test_nothing_to_drop(self, sup):
        # a weight within the tail's part needs no window at all
        assert gauss_window(1e-10, sup) == 0.0


class TestHeatKernel:
    def test_peak_value(self):
        assert heat_kernel(0.0, 1.0) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)))

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            heat_kernel(0.0, 0.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="finite"):
            heat_kernel(0.0, t)

    def test_unit_mass(self):
        for t in (0.01, 1.0, 100.0):
            w = 14.0 * math.sqrt(t)
            mass = adaptive_simpson(lambda x: heat_kernel(x, t), -w, w, 1e-12)
            assert mass == pytest.approx(1.0, abs=1e-10)

    def test_array_input(self):
        xs = np.array([-1.0, 0.0, 2.0])
        out = heat_kernel(xs, 0.5)
        assert out.shape == (3,)
        assert out[2] == heat_kernel(2.0, 0.5)


class TestProfileF:
    def test_midpoint(self):
        assert profile_F(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_array_input(self):
        out = profile_F(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,) and out.dtype == np.float64
        assert out[1] == pytest.approx(0.5)

    def test_scalar_input_gives_float(self):
        assert type(profile_F(0.3)) is float
        assert type(profile_F(np.float64(-2.0))) is float

    def test_matches_scipy_erf(self):
        zs = np.linspace(-10.0, 10.0, 4001)
        want = 0.5 * (1.0 + special.erf(0.5 * zs))
        assert np.max(np.abs(profile_F(zs) - want)) <= 4.5e-16

    @given(st.floats(-50.0, 50.0))
    def test_reflection_identity(self, z):
        assert profile_F(z) + profile_F(-z) == pytest.approx(1.0, abs=1e-14)

    def test_monotone(self):
        zs = np.linspace(-10.0, 10.0, 2001)
        assert np.all(np.diff(profile_F(zs)) > 0)

    def test_limits(self):
        assert profile_F(-40.0) == pytest.approx(0.0, abs=1e-15)
        assert profile_F(40.0) == pytest.approx(1.0, abs=1e-15)

    def test_quadrature_cross_check(self):
        spec = QuadratureSpec(abs_tol=1e-12)
        for z in np.linspace(-8.0, 8.0, 17):
            assert profile_F_quad(float(z), spec) == pytest.approx(
                profile_F(float(z)), abs=1e-12
            )

    @pytest.mark.parametrize("abs_tol", [1e-6, 1e-10, 1e-13])
    def test_quadrature_at_the_window_edge(self, abs_tol):
        # just inside and just outside the cut at +-w, against F(z) = erfc(-z/2)/2
        spec = QuadratureSpec(abs_tol=abs_tol)
        w = gauss_window(abs_tol, 1.0)
        for z in (w - 0.1, w + 0.1, -w + 0.1, -w - 0.1):
            assert abs(profile_F_quad(z, spec) - 0.5 * math.erfc(-0.5 * z)) <= abs_tol


class TestKernelG:
    def test_value_at_origin(self):
        # frozen from the dense-trapezoid reference integrator
        assert kernel_G(0.0) == pytest.approx(4.048900836598592e-01, abs=1e-9)

    def test_deep_left_tail_vanishes(self):
        assert kernel_G(-10.0) == pytest.approx(0.0, abs=1e-9)

    def test_matches_trapezoid_reference(self):
        for z in (-3.0, 0.5, 4.0):
            assert kernel_G(z) == pytest.approx(
                kernel_G_trapezoid(z, panels=200_000), abs=1e-8
            )

    def test_grows_like_log_far_right(self):
        assert kernel_G(1000.0) == pytest.approx(math.log(1000.0), rel=1e-3)

    def test_nonnegative(self):
        assert all(kernel_G(z) >= 0.0 for z in (-6.0, -1.0, 0.0, 1.0, 6.0))

    @pytest.mark.parametrize("z", [10.0, 30.0])
    def test_matches_quadpack_far_right(self, z):
        # the window's upper cut is charged with the log growth of the integrand
        def f(y):
            return math.exp(-0.25 * (z - y) ** 2) * abs(math.log(y))

        want = sum(
            integrate.quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
            for a, b in ((0.0, 1.0), (1.0, z), (z, z + 60.0))
        ) / (2.0 * math.sqrt(math.pi))
        assert abs(kernel_G(z, QuadratureSpec(abs_tol=1e-12)) - want) <= 2e-12

    @pytest.mark.parametrize("z", [1e4, 1e8, 1e10, 1e16, 1e18, 1e20])
    def test_matches_quadpack_and_asymptote_far_right(self, z):
        # with y = z + v, log y = log z + log1p(v/z) keeps every digit at any z;
        # e^{-v^2/4} holds below e^{-400} of its mass past |v| = 40.  From
        # z = 1e16 on, ulp(z) is near the window's half-width: nodes placed
        # in y would collapse onto a few floats
        def f(v):
            return math.exp(-0.25 * v * v) * math.log1p(v / z)

        rest = integrate.quad(f, -40.0, 40.0, epsabs=1e-16, epsrel=1e-14, limit=200)[0]
        want = math.log(z) + rest / (2.0 * math.sqrt(math.pi))
        got = kernel_G(z)
        assert abs(got - want) <= 1e-10
        # E log(z + sqrt(2) N) = log z - 1/z^2 + O(z^-4)
        assert abs(got - (math.log(z) - 1.0 / z ** 2)) <= 1e-10

    @pytest.mark.parametrize("z", [-1e18, -1.4e154, -1e200, -1.7976931348623157e308])
    def test_far_left_is_zero_without_overflow(self, z):
        # (z - y)^2 overflows to inf below -1.3e154, and at -1e18 log(z + v)
        # would read log 0; the pytest setting turns their RuntimeWarnings
        # into failures
        assert kernel_G(z) == 0.0

    def test_tail_cut_above_tolerance_raises(self):
        # the s-tail below -40 may hold 41 e^-40 ~ 1.7e-16, above this share
        with pytest.raises(UncertifiedQuadrature, match="s-tail"):
            kernel_G(0.0, QuadratureSpec(abs_tol=1e-17))


class TestEnvelopeRho:
    def test_plateau(self):
        assert envelope_rho(4.0, 0.0) == 1.0
        assert envelope_rho(4.0, 4.0) == 1.0

    def test_gaussian_falloff(self):
        assert envelope_rho(4.0, 6.0) == pytest.approx(math.exp(-1.0))

    @given(st.floats(0.1, 20.0), st.floats(-100.0, 100.0))
    def test_even_and_bounded(self, L, z):
        v = envelope_rho(L, z)
        assert 0.0 <= v <= 1.0
        assert v == envelope_rho(L, -z)

    def test_array_input(self):
        zs = np.array([-6.0, 0.0, 4.0, 6.0])
        out = envelope_rho(4.0, zs)
        assert out.shape == (4,)
        assert list(out) == [envelope_rho(4.0, float(z)) for z in zs]

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            envelope_rho(0.0, 1.0)

    @pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_width(self, L):
        with pytest.raises(ValueError, match="finite"):
            envelope_rho(L, 1.0)
