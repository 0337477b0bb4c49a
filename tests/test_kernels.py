import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mildheat.kernels import (
    DEFAULT_SPEC,
    QuadratureSpec,
    UncertifiedQuadrature,
    adaptive_simpson,
    envelope_rho,
    heat_kernel,
    kernel_G,
    profile_F,
    profile_F_quad,
)
from mildheat.oracles import kernel_G_trapezoid


class TestAdaptiveSimpson:
    def test_cubic_is_exact(self):
        # Simpson integrates cubics exactly on any panel
        val = adaptive_simpson(lambda x: x ** 3 - 2.0 * x, -1.0, 3.0, 1e-12)
        assert val == pytest.approx(20.0 - 8.0, abs=1e-10)

    def test_gaussian_tolerance(self):
        val = adaptive_simpson(lambda x: math.exp(-0.25 * x * x), -14.0, 14.0, 1e-12)
        assert val == pytest.approx(2.0 * math.sqrt(math.pi), abs=1e-11)

    def test_reversed_limits_flip_sign(self):
        fwd = adaptive_simpson(math.sin, 0.0, 2.0, 1e-10)
        assert adaptive_simpson(math.sin, 2.0, 0.0, 1e-10) == -fwd

    def test_empty_interval(self):
        assert adaptive_simpson(math.exp, 1.0, 1.0, 1e-10) == 0.0

    def test_forced_depth_sees_narrow_bump(self):
        # a bump whose support misses the nodes of the first coarse estimates
        f = lambda x: math.exp(-((x - 0.3) / 1e-3) ** 2)
        val = adaptive_simpson(f, 0.0, 1.0, 1e-12)
        assert val == pytest.approx(1e-3 * math.sqrt(math.pi), rel=1e-6)

    def test_depth_limit_across_jump_raises(self):
        # three bisections cannot resolve a jump: no uncertified value comes back
        jump = lambda x: 0.0 if x < 0.3 else 1.0
        with pytest.raises(UncertifiedQuadrature, match="depth limit"):
            adaptive_simpson(jump, 0.0, 1.0, 1e-10, max_depth=3)

    def test_depth_limit_on_converged_panels_returns(self):
        assert adaptive_simpson(lambda x: x ** 3, 0.0, 1.0, 1e-10, max_depth=3) == (
            pytest.approx(0.25, abs=1e-15)
        )


class TestQuadratureSpec:
    def test_defaults_valid(self):
        assert DEFAULT_SPEC.abs_tol == 1e-10

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=0.0)

    def test_rejects_short_tail(self):
        # discarded Gaussian mass would exceed the error budget
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=1e-10, tail_radius=5.0)


class TestHeatKernel:
    def test_peak_value(self):
        assert heat_kernel(0.0, 1.0) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)))

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            heat_kernel(0.0, 0.0)

    def test_unit_mass(self):
        for t in (0.01, 1.0, 100.0):
            w = 14.0 * math.sqrt(t)
            mass = adaptive_simpson(lambda x: heat_kernel(x, t), -w, w, 1e-12)
            assert mass == pytest.approx(1.0, abs=1e-10)


class TestProfileF:
    def test_midpoint(self):
        assert profile_F(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_array_input(self):
        out = profile_F(np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.5)

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

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            envelope_rho(0.0, 1.0)
