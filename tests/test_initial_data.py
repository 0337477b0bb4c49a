import math

import numpy as np
import pytest

from mildheat.initial_data import (
    DecayClass,
    catalog,
    from_id,
    make_constant,
    make_gaussian,
    make_log_sine,
    make_smooth_log_sine,
    make_step,
    make_sub_log,
)


def _log_grid(n=10_000):
    """Log-spaced sample of both half-axes over [1e-8, 1e8]."""
    r = np.geomspace(1e-8, 1e8, n)
    return np.concatenate([-r[::-1], r])


class TestStep:
    def test_values(self):
        u = make_step(-2.0, 3.0)
        assert float(u.eval(-5.0)) == -2.0
        assert float(u.eval(1e-12)) == 3.0
        assert float(u.eval(0.0)) == 0.5

    def test_dilation_invariant(self):
        u = make_step(0.0, 1.0)
        xs = _log_grid(200)
        assert np.array_equal(u.eval(xs), u.eval(17.3 * xs))

    def test_metadata(self):
        u = make_step(0.0, 1.0)
        assert u.sup_norm == 1.0
        assert u.sup_left == u.sup_right == 0.0
        assert not u.smooth


class TestConstant:
    def test_everywhere(self):
        u = make_constant(0.5)
        assert np.all(u.eval(_log_grid(100)) == 0.5)
        assert np.all(u.deriv(_log_grid(100)) == 0.0)


class TestLogSine:
    def test_values(self):
        u = make_log_sine()
        assert float(u.eval(math.e)) == pytest.approx(math.sin(1.0))
        assert float(u.eval(-math.e)) == pytest.approx(math.sin(1.0))

    def test_undefined_at_origin(self):
        u = make_log_sine()
        with pytest.raises(ValueError):
            u.eval(0.0)
        with pytest.raises(ValueError):
            u.deriv(np.array([1.0, 0.0]))

    def test_oscillates_near_zero(self):
        u = make_log_sine()
        xs = np.geomspace(1e-8, 1e-4, 5000)
        signs = np.sign(u.eval(xs))
        assert np.sum(np.abs(np.diff(signs)) > 0) > 2


class TestFactoryValidation:
    def test_sub_log_alpha_range(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                make_sub_log(bad)

    def test_smooth_log_sine_alpha_range(self):
        make_smooth_log_sine(1.0)
        for bad in (0.0, 1.5):
            with pytest.raises(ValueError):
                make_smooth_log_sine(bad)

    def test_gaussian_width(self):
        with pytest.raises(ValueError):
            make_gaussian(0.0)


class TestMetadataHonesty:
    """The recorded analytic bounds must dominate dense log-scale samples."""

    @pytest.mark.parametrize("datum_id", catalog())
    def test_sup_norm_and_slope_bounds(self, datum_id):
        u = from_id(datum_id)
        xs = _log_grid()
        vals = np.asarray(u.eval(xs), dtype=float)
        assert np.max(np.abs(vals)) <= u.sup_norm + 1e-12
        slope = np.abs(xs * np.asarray(u.deriv(xs), dtype=float))
        assert np.max(slope[xs < 0]) <= u.sup_left + 1e-12
        assert np.max(slope[xs > 0]) <= u.sup_right + 1e-12

    @pytest.mark.parametrize("datum_id", catalog())
    def test_decay_class_witness(self, datum_id):
        u = from_id(datum_id)
        r = np.geomspace(1e7, 1e8, 2000)
        far = max(
            float(np.max(np.abs(r * np.asarray(u.deriv(r), dtype=float)))),
            float(np.max(np.abs(r * np.asarray(u.deriv(-r), dtype=float)))),
        )
        if u.decay_class is DecayClass.DECAYS_AT_INFINITY:
            # small at the far edge of the sampled range; a pointwise-limit
            # check would be phase-sensitive for the oscillatory entries
            assert far < 0.2
        else:
            assert far <= max(u.sup_left, u.sup_right) + 1e-12

    @pytest.mark.parametrize("datum_id", catalog())
    def test_decays_at_zero_flag(self, datum_id):
        # every datum not flagged oscillates_at_zero has |x u0'(x)| -> 0 at 0
        u = from_id(datum_id)
        if u.oscillates_at_zero:
            return
        r = np.geomspace(1e-8, 1e-6, 2000)
        tiny = float(np.max(np.abs(r * np.asarray(u.deriv(r), dtype=float))))
        assert tiny < 0.05


class TestFromId:
    @pytest.mark.parametrize("datum_id", catalog())
    def test_catalog_round_trip(self, datum_id):
        assert from_id(datum_id).id == datum_id

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown datum id"):
            from_id("ramp:1")

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            from_id("step:1")
        with pytest.raises(ValueError):
            from_id("sub_log:two")
        with pytest.raises(ValueError):
            from_id("log_sine:3")

    @pytest.mark.parametrize(
        "datum_id", ["constant:nan", "step:0,inf", "step:-inf,1", "gaussian:inf", "gaussian:nan"]
    )
    def test_non_finite_parameter(self, datum_id):
        with pytest.raises(ValueError, match=f"bad datum id '{datum_id}': .* must be"):
            from_id(datum_id)

    def test_repr_is_compact(self):
        assert repr(from_id("log_sine")) == "InitialDatum('log_sine')"
