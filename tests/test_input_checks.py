"""Every public function refuses an argument it cannot use, naming it, before
it reads the datum or starts a quadrature or march: scalars (an array passed
for one too), point arrays and node counts."""

import dataclasses
import math
import re

import numpy as np
import pytest

from mildheat import oracles
from mildheat.curvature_flow import FDSolverConfig, flow_profile_error
from mildheat.initial_data import make_constant, make_gaussian, make_step, make_sub_log
from mildheat.kernels import (
    QuadratureSpec,
    envelope_rho,
    heat_kernel,
    kernel_G,
    profile_F,
    profile_F_quad,
)
from mildheat.profile_bounds import (
    ProfileErrorReport,
    accumulation_samples,
    dilation_difference_bound,
    envelope_bound,
    log_kernel_bound,
    profile_error,
    sup_profile_error,
    two_sided_profile,
)
from mildheat.semigroup import (
    evolve,
    evolve_on_grid,
    rescaled_residual,
    scaled_evolve_many,
    sliding_average,
)


def _read(x):
    raise AssertionError("the datum was read")


# decays at infinity, so flow_profile_error takes it; never evaluated
U = dataclasses.replace(make_sub_log(0.5), eval=_read, deriv=_read)
CFG = FDSolverConfig(half_width=40.0, dx=0.5, t_final=1.0, record_times=(1.0,))


def _fd(**kw):
    return FDSolverConfig(**{**dataclasses.asdict(CFG), **kw})


# (function-argument id, the name the error gives, call with the value, positive?)
CASES = [
    ("QuadratureSpec-abs_tol", "abs_tol", lambda v: QuadratureSpec(abs_tol=v), True),
    ("heat_kernel-t", "t", lambda v: heat_kernel(0.5, v), True),
    ("envelope_rho-L", "L", lambda v: envelope_rho(v, 0.5), True),
    ("profile_F_quad-z", "z", lambda v: profile_F_quad(v), False),
    ("kernel_G-z", "z", lambda v: kernel_G(v), False),
    ("FDSolverConfig-half_width", "half_width", lambda v: _fd(half_width=v), True),
    ("FDSolverConfig-dx", "dx", lambda v: _fd(dx=v), True),
    ("FDSolverConfig-t_final", "t_final", lambda v: _fd(t_final=v), True),
    ("FDSolverConfig-record_times", "record time", lambda v: _fd(record_times=(v, 1.0)), True),
    ("ProfileErrorReport-t", "t", lambda v: ProfileErrorReport(v, 4.0, 0.0, 0.0, 1.0), True),
    ("ProfileErrorReport-L", "L", lambda v: ProfileErrorReport(1.0, v, 0.0, 0.0, 1.0), True),
    ("two_sided_profile-t", "t", lambda v: two_sided_profile(U, 0.5, v), True),
    ("sup_profile_error-a", "a", lambda v: sup_profile_error(U, v, 1.0, 4.0, 1.0), False),
    ("sup_profile_error-b", "b", lambda v: sup_profile_error(U, 0.0, v, 4.0, 1.0), False),
    ("sup_profile_error-L", "L", lambda v: sup_profile_error(U, 0.0, 1.0, v, 1.0), True),
    ("sup_profile_error-t", "t", lambda v: sup_profile_error(U, 0.0, 1.0, 4.0, v), True),
    ("profile_error-L", "L", lambda v: profile_error(U, v, 1.0), True),
    ("profile_error-t", "t", lambda v: profile_error(U, 4.0, v), True),
    ("envelope_bound-a", "a", lambda v: envelope_bound(U, v, 1.0, 4.0, 1.0), False),
    ("envelope_bound-b", "b", lambda v: envelope_bound(U, 0.0, v, 4.0, 1.0), False),
    ("envelope_bound-L", "L", lambda v: envelope_bound(U, 0.0, 1.0, v, 1.0), True),
    ("envelope_bound-t", "t", lambda v: envelope_bound(U, 0.0, 1.0, 4.0, v), True),
    ("log_kernel_bound-x", "x", lambda v: log_kernel_bound(U, v, 1.0), False),
    ("log_kernel_bound-t", "t", lambda v: log_kernel_bound(U, 0.5, v), True),
    ("scaled_evolve_many-t", "t", lambda v: scaled_evolve_many(U, [0.0, 1.0], v), True),
    ("evolve-t", "t", lambda v: evolve(U, 0.5, v), True),
    ("evolve_on_grid-t", "t", lambda v: evolve_on_grid(U, [0.0, 1.0], v), True),
    ("sliding_average-x", "x", lambda v: sliding_average(U, v, 1.0), False),
    ("sliding_average-R", "R", lambda v: sliding_average(U, 0.0, v), True),
    ("rescaled_residual-h", "h", lambda v: rescaled_residual(U, 4.0, 0.0, v), True),
    ("rescaled_residual-x_window", "x_window",
     lambda v: rescaled_residual(U, v, 0.0, 0.01), True),
    ("rescaled_residual-tau", "tau", lambda v: rescaled_residual(U, 4.0, v, 0.01), False),
    ("flow_profile_error-L", "L", lambda v: flow_profile_error(U, CFG, v, (1.0,)), True),
    ("dilation_difference_bound-alpha", "alpha",
     lambda v: dilation_difference_bound(U, v, 1.0), True),
    # s must be finite and nonzero: 0 is refused like a non-positive value
    ("dilation_difference_bound-s", "s", lambda v: dilation_difference_bound(U, 2.0, v), True),
    ("accumulation_samples-lambda", "lambda",
     lambda v: accumulation_samples(U, (1.0, v)), True),
    ("make_gaussian-s", "s", lambda v: make_gaussian(v), True),
    ("make_step-a", "a", lambda v: make_step(v, 1.0), False),
    ("make_step-b", "b", lambda v: make_step(0.0, v), False),
    ("make_constant-c", "c", lambda v: make_constant(v), False),
    ("heat_kernel_mass_trapezoid-t", "t",
     lambda v: oracles.heat_kernel_mass_trapezoid(v, panels=10), True),
    ("kernel_G_trapezoid-z", "z", lambda v: oracles.kernel_G_trapezoid(v, panels=10), False),
    ("profile_F_trapezoid-z", "z", lambda v: oracles.profile_F_trapezoid(v, panels=10), False),
]

# numpy orders a complex number by its real part and warns as it drops the
# imaginary part, so 1+0j would pass for 1 if not refused as complex
VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": 0.0,
          "complex": np.complex128(1.0 + 0.0j), "complex-0-d": np.array(1.0 + 0.0j)}


@pytest.mark.parametrize(
    "name, call, value",
    [
        pytest.param(name, call, VALUES[label], id=f"{case}-{label}")
        for case, name, call, positive in CASES
        for label in VALUES
        if positive or label != "zero"
    ],
)
def test_refused_before_any_work(name, call, value):
    with pytest.raises(ValueError, match=rf"\b{name}\b.* must be"):
        call(value)


def test_rescaled_time_must_stay_a_finite_float():
    # e^(800.01) overflows a float; tau = 700 is still a finite time
    with pytest.raises(ValueError, match=r"\btau\b.* must be"):
        rescaled_residual(U, 4.0, 800.0, 0.01)
    with pytest.raises(AssertionError, match="datum was read"):
        rescaled_residual(U, 4.0, 700.0, 0.01)


@pytest.mark.parametrize(
    "call",
    [
        profile_F,
        lambda x: heat_kernel(x, 1.0),
        lambda x: envelope_rho(4.0, x),
        lambda x: two_sided_profile(make_step(0.0, 1.0), x, 1.0),
    ],
    ids=["profile_F", "heat_kernel", "envelope_rho", "two_sided_profile"],
)
def test_elementwise_maps_pass_nan_through(call):
    out = call(np.array([math.nan, 0.0]))
    assert math.isnan(out[0]) and math.isfinite(out[1])


@pytest.mark.parametrize(
    "alpha, s, name",
    [
        (1e10, 1e300, "max(alpha, 1/alpha) |s|"),
        (1e-320, 1.0, "max(alpha, 1/alpha) |s|"),
        (1e300, 1e-300, "min(alpha, 1/alpha) |s|"),
        (1e160, 1.0, "(alpha + 1/alpha)^2"),
    ],
)
def test_dilation_annulus_and_factor_must_be_finite(alpha, s, name):
    # alpha and s are each usable, but the annulus or the factor overflows
    # or the annulus underflows to 0
    with pytest.raises(ValueError, match=re.escape(name) + " must be"):
        dilation_difference_bound(U, alpha, s)


@pytest.mark.parametrize(
    "x, R, name",
    [(1e308, 1e308, "x + R"), (-1e308, 1e308, "x - R"), (0.0, 1e308, "2 R")],
)
def test_sliding_window_must_be_finite(x, R, name):
    with pytest.raises(ValueError, match=re.escape(name) + " must be finite"):
        sliding_average(U, x, R)


@pytest.mark.parametrize("oracle, arg", [(oracles.kernel_G_trapezoid, 0.0),
                                         (oracles.profile_F_trapezoid, 0.0),
                                         (oracles.heat_kernel_mass_trapezoid, 1.0)])
def test_oracle_end_weights_need_five_panels(oracle, arg):
    # the end weights of both ends would overlap on fewer panels
    with pytest.raises(ValueError, match="panels must be at least 5, got 4"):
        oracle(arg, panels=4)
    assert math.isfinite(oracle(arg, panels=5))


@pytest.mark.parametrize(
    "name, call",
    [
        ("z", lambda: kernel_G(np.array([0.5, 1.0]))),
        ("x", lambda: sliding_average(U, np.array([0.0, 1.0]), 1.0)),
        ("x", lambda: log_kernel_bound(U, np.array([0.0, 1.0]), 1.0)),
        ("t", lambda: scaled_evolve_many(U, [0.0], np.array([1.0, 2.0]))),
        ("t", lambda: heat_kernel(0.0, np.array([1.0, 2.0]))),
        ("abs_tol", lambda: QuadratureSpec(abs_tol=np.array([1e-10, 1e-9]))),
    ],
    ids=["kernel_G", "sliding_average", "log_kernel_bound", "scaled_evolve_many",
         "heat_kernel", "QuadratureSpec"],
)
def test_array_for_a_scalar_is_refused(name, call):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call()


@pytest.mark.parametrize("x", [0.5, np.float64(0.5), np.array(0.5)],
                         ids=["float", "numpy-scalar", "0-d-array"])
def test_real_scalars_pass(x):
    with pytest.raises(AssertionError, match="datum was read"):
        sliding_average(U, x, 1.0)
    assert heat_kernel(0.0, x) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi * 0.5)), rel=1e-15)


@pytest.mark.parametrize("bound", [{"sup_left": math.inf}, {"sup_right": math.nan}],
                         ids=["sup_left-inf", "sup_right-nan"])
def test_log_kernel_bound_needs_finite_slope_bounds(bound):
    with pytest.raises(ValueError, match="lacks finite one-sided slope bounds"):
        log_kernel_bound(dataclasses.replace(U, **bound), 0.5, 1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: scaled_evolve_many(U, np.zeros((2, 3)), 1.0),
        lambda: scaled_evolve_many(U, np.array(1.0), 1.0),
        lambda: evolve_on_grid(U, np.zeros((2, 2)), 1.0),
    ],
    ids=["2-D", "0-D", "grid-2-D"],
)
def test_points_must_be_a_flat_array(call):
    # empty and non-finite points: test_semigroup.py
    with pytest.raises(ValueError, match=r"\bxs\b.* must be a non-empty 1-D array"):
        call()


# marked smooth, so that flow_profile_error passes its other checks and marches
SMOOTH = dataclasses.replace(U, smooth=True)
NODE_COUNT_CALLS = pytest.mark.parametrize(
    "call",
    [
        lambda n: sup_profile_error(SMOOTH, 0.0, 1.0, 4.0, 1.0, n),
        lambda n: profile_error(SMOOTH, 4.0, 1.0, n),
        lambda n: flow_profile_error(SMOOTH, CFG, 4.0, (1.0,), n),
    ],
    ids=["sup_profile_error", "profile_error", "flow_profile_error"],
)


@NODE_COUNT_CALLS
@pytest.mark.parametrize("n", [401.5, 2.5, np.float64(401.0), 2, 1, 0, -3, True])
def test_node_count_must_be_an_int_of_at_least_3(call, n):
    # checked before the datum is read, and before any march
    with pytest.raises(ValueError, match=r"\bn must be an int of at least 3"):
        call(n)


@NODE_COUNT_CALLS
@pytest.mark.parametrize("n", [3, np.int64(401)])
def test_integral_node_counts_pass(call, n):
    with pytest.raises(AssertionError, match="datum was read"):
        call(n)
