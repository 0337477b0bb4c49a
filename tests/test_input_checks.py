"""Every public function refuses a scalar argument it cannot use, naming it,
before it reads the datum or starts a quadrature or march."""

import dataclasses
import math

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
]

VALUES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": 0.0}


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
