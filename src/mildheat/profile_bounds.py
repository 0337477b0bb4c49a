"""Two-sided similarity profiles, their errors, and the explicit bounds.

The long-time (and short-time) shape of the evolved solution on similarity
scales is F(-x) u0(-sqrt(t)) + F(+x) u0(+sqrt(t)).  This module measures the
sup-norm distance of the true evolution from that shape and evaluates the
closed-form upper bounds that control it: the shifted-Gaussian envelope
integral, the dilation-difference estimate, and the log-kernel bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .initial_data import InitialDatum
from .kernels import _TAIL_PART, DEFAULT_SPEC, SQRT_PI, QuadratureSpec, _count, _finite, _positive
from .kernels import envelope_rho, gauss_window, kernel_G, profile_F
from .semigroup import _halfline_integral, _one_sided, scaled_evolve, scaled_evolve_many


@dataclass(frozen=True)
class ProfileErrorReport:
    """Per-time record of the similarity profile error and its bounds."""

    t: float
    L: float
    sup_error: float
    coeff_left: float   # u0(-sqrt(t))
    coeff_right: float  # u0(+sqrt(t))

    def __post_init__(self) -> None:
        _positive("t", self.t)
        _positive("L", self.L)
        if self.sup_error < 0:
            raise ValueError("sup_error must be nonnegative")


def two_sided_profile(u0: InitialDatum, x, t: float):
    """F(-x) u0(-sqrt(t)) + F(+x) u0(+sqrt(t)); x may be a scalar or an array."""
    st = math.sqrt(_positive("t", t))
    return profile_F(-x) * float(u0.eval(-st)) + profile_F(x) * float(u0.eval(st))


def sup_profile_error(
    u0: InitialDatum,
    a: float,
    b: float,
    L: float,
    t: float,
    n: int = 401,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Grid max over [-L, L] of |u(sqrt(t) x, t) - (a F(-x) + b F(+x))|."""
    _finite("a", a)
    _finite("b", b)
    _positive("L", L)
    _positive("t", t)
    _count("n", n, 3)
    xs = np.linspace(-L, L, n)
    num = scaled_evolve_many(u0, xs, t, spec)
    return float(np.max(np.abs(num - (a * profile_F(-xs) + b * profile_F(xs)))))


def profile_error(
    u0: InitialDatum,
    L: float,
    t: float,
    n: int = 401,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> ProfileErrorReport:
    """Measure the profile error with the natural coefficients u0(+-sqrt(t))."""
    _positive("L", L)
    _count("n", n, 3)
    st = math.sqrt(_positive("t", t))
    a = float(u0.eval(-st))
    b = float(u0.eval(st))
    sup = sup_profile_error(u0, a, b, L, t, n, spec)
    return ProfileErrorReport(t=t, L=L, sup_error=sup, coeff_left=a, coeff_right=b)


def envelope_bound(
    u0: InitialDatum,
    a: float,
    b: float,
    L: float,
    t: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Upper bound on the profile error with constants (a, b):

    (1/(2 sqrt(pi))) int_0^inf rho_L(z) (|u0(-sqrt(t) z) - a| + |u0(+sqrt(t) z) - b|) dz

    where rho_L is the sup of Gaussians shifted over [-L, L].  Valid for every
    choice of constants.  It stops at L + gauss_window(abs_tol, 2 sup|u0| + |a| + |b|).
    """
    _finite("a", a)
    _finite("b", b)
    _positive("L", L)
    st = math.sqrt(_positive("t", t))

    def g(z):
        return envelope_rho(L, z) * (
            np.abs(_one_sided(u0, -1.0, st * z) - a)
            + np.abs(_one_sided(u0, 1.0, st * z) - b)
        )

    bound = 2.0 * u0.sup_norm + abs(a) + abs(b)
    tol = (1.0 - _TAIL_PART) * spec.abs_tol * 2.0 * SQRT_PI
    w = gauss_window(spec.abs_tol, bound)
    val = _halfline_integral(u0, g, 0.0, L + w, st, tol, bound)
    return val / (2.0 * SQRT_PI)


def dilation_difference_bound(u0: InitialDatum, alpha: float, s: float) -> tuple[float, float]:
    """(lhs, rhs) of the dilation estimate

    |u0(s alpha) - u0(s)| <= (alpha + 1/alpha)^2 *
        sup over min(alpha,1/alpha)|s| <= |x| <= max(alpha,1/alpha)|s| of |x u0'(x)|.

    The annulus sup is estimated from 1000 log-spaced samples on each sign and
    inflated by 1% (catalog slope functionals vary slowly on the log scale).
    """
    _positive("alpha", alpha)
    _positive("|s|", abs(_finite("s", s)))  # the estimate is undefined at s = 0
    # the annulus and the factor must be finite and the annulus off 0 before
    # the datum is read; s alpha lies in the annulus
    r_lo = _positive("min(alpha, 1/alpha) |s|", min(alpha, 1.0 / alpha) * abs(s))
    r_hi = _positive("max(alpha, 1/alpha) |s|", max(alpha, 1.0 / alpha) * abs(s))
    _finite("(alpha + 1/alpha)^2", (alpha + 1.0 / alpha) * (alpha + 1.0 / alpha))
    lhs = abs(float(u0.eval(s * alpha)) - float(u0.eval(s)))
    radii = np.geomspace(r_lo, r_hi, 1000)
    sup = 0.0
    for sign in (-1.0, 1.0):
        xs = sign * radii
        sup = max(sup, float(np.max(np.abs(xs * u0.deriv(xs)))))
    rhs = (alpha + 1.0 / alpha) ** 2 * 1.01 * sup
    return lhs, rhs


def log_kernel_bound(
    u0: InitialDatum, x: float, t: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> tuple[float, float]:
    """(lhs, rhs) of the uniform-in-time profile error bound

    |u(sqrt(t) x, t) - two_sided_profile| <= G(-x) sup_{y<0}|y u0'(y)|
                                           + G(+x) sup_{y>0}|y u0'(y)|.
    """
    _finite("x", x)
    _positive("t", t)
    if not (math.isfinite(u0.sup_left) and math.isfinite(u0.sup_right)):
        raise ValueError(f"datum {u0.id} lacks finite one-sided slope bounds")
    lhs = abs(scaled_evolve(u0, x, t, spec) - two_sided_profile(u0, x, t))
    rhs = kernel_G(-x, spec) * u0.sup_left + kernel_G(x, spec) * u0.sup_right
    return lhs, rhs


def accumulation_samples(
    u0: InitialDatum, lambda_ladder
) -> list[tuple[float, float]]:
    """Pairs (u0(-lam), u0(+lam)) along a dilation ladder.

    Finite sampling of the set whose closure parameterizes the limiting
    profiles; consumers plot these against fitted profile coefficients and
    never assert set equality.
    """
    lams = [_positive("lambda", lam) for lam in lambda_ladder]
    return [(float(u0.eval(-lam)), float(u0.eval(lam))) for lam in lams]


def fit_profile_coefficients(xs: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Least-squares (alpha, beta) for values ~ alpha F(-x) + beta F(+x).

    F(-x) and F(+x) are linearly independent, so the 2x2 normal system is
    well-posed on any grid with 2+ distinct nodes.
    """
    xs = np.asarray(xs, dtype=float)
    design = np.column_stack([profile_F(-xs), profile_F(xs)])
    coef, *_ = np.linalg.lstsq(design, np.asarray(values, dtype=float), rcond=None)
    return float(coef[0]), float(coef[1])
