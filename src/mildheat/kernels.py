"""Special functions: Gaussian heat kernel, similarity profile, log-smoothing
kernel, and the shifted-Gaussian envelope, all with certified quadrature.

The integrals here go through :func:`adaptive_simpson` (interval bisection
with a Richardson error estimate) so evaluation error is bounded by an
explicit absolute tolerance; the heat evolutions of :mod:`mildheat.semigroup`
refine composite Simpson on arrays under the same certificate.  A quadrature
that exhausts its budget before the estimate meets the tolerance raises
:class:`UncertifiedQuadrature` rather than return an uncertified value.  All
functions here are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from scipy.special import erf as _erf

SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class QuadratureSpec:
    """Evaluation budget for Gaussian-convolution integrals.

    abs_tol is the absolute error target; tail_radius is the half-width (in
    similarity units) beyond which the Gaussian tail is discarded, and must be
    large enough that the discarded mass is below abs_tol.
    """

    abs_tol: float = 1e-10
    tail_radius: float = 14.0

    def __post_init__(self) -> None:
        if not self.abs_tol > 0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        min_radius = 2.0 * math.sqrt(math.log(1.0 / self.abs_tol))
        if self.tail_radius < min_radius:
            raise ValueError(
                f"tail_radius {self.tail_radius} too small for abs_tol "
                f"{self.abs_tol}: need at least {min_radius:.3f}"
            )


DEFAULT_SPEC = QuadratureSpec()


class UncertifiedQuadrature(RuntimeError):
    """Raised when a quadrature runs out of refinement budget before its
    Richardson estimate meets the tolerance."""


def _simpson(fa: float, fm: float, fb: float, width: float) -> float:
    return width / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(
    f: Callable[[float], float],
    a: float,
    b: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    tol: float,
    depth: int,
    force: int,
) -> float:
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol and (force <= 0 or depth <= 0):
        return left + right + delta / 15.0
    if depth <= 0:
        raise UncertifiedQuadrature(
            f"adaptive Simpson reached its depth limit on [{a!r}, {b!r}] with "
            f"estimate {abs(delta) / 15.0:.3g} above the share {tol:.3g}"
        )
    half = 0.5 * tol
    return _adapt(
        f, a, m, fa, flm, fm, left, half, depth - 1, force - 1
    ) + _adapt(f, m, b, fm, frm, fb, right, half, depth - 1, force - 1)


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    max_depth: int = 48,
    min_depth: int = 6,
) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    Bisects until the local Richardson estimate |S2 - S1|/15 is below the
    (recursively halved) tolerance share of the subinterval.  The first
    min_depth levels always bisect, so narrow features cannot slip between
    the nodes of a coarse first estimate and fake convergence.  Raises
    UncertifiedQuadrature if a subinterval still misses its share after
    max_depth bisections.
    """
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, tol, max_depth, min_depth)
    fa = f(a)
    fm = f(0.5 * (a + b))
    fb = f(b)
    whole = _simpson(fa, fm, fb, b - a)
    return _adapt(f, a, b, fa, fm, fb, whole, tol, max_depth, min_depth)


def heat_kernel(x: float, t: float) -> float:
    """Gaussian fundamental solution (1/(2 sqrt(pi t))) exp(-x^2/(4t))."""
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    return math.exp(-x * x / (4.0 * t)) / (2.0 * math.sqrt(math.pi * t))


def profile_F(z):
    """Cumulative Gaussian with variance 2: (1/(2 sqrt(pi))) * int_{-inf}^z e^{-y^2/4} dy.

    Fast path via the error-function identity F(z) = (1 + erf(z/2))/2.
    Accepts scalars or numpy arrays.
    """
    out = 0.5 * (1.0 + _erf(0.5 * z))
    return float(out) if out.ndim == 0 else out


def profile_F_quad(z: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Quadrature cross-check of profile_F, independent of the erf identity."""
    w = spec.tail_radius
    if z <= -w:
        return 0.0
    if z >= w:
        # total mass 1 minus the (truncated) upper tail
        return 1.0 - profile_F_quad(-z, spec)
    val = adaptive_simpson(
        lambda y: math.exp(-0.25 * y * y), -w, z, spec.abs_tol * SQRT_PI
    )
    return val / (2.0 * SQRT_PI)


def kernel_G(z: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Gaussian smoothing of |log|: (1/(2 sqrt(pi))) int_0^inf e^{-(z-y)^2/4} |log y| dy.

    The integrable log singularity at y=0 is resolved by substituting y = e^s
    on (0, 1], which turns that piece into int_{-inf}^0 e^{-(z-e^s)^2/4} (-s) e^s ds
    with a uniformly smooth integrand; the s-tail is truncated at -40.
    """
    w = spec.tail_radius
    tol = spec.abs_tol * SQRT_PI  # split the budget over the two pieces

    def lower(s: float) -> float:
        y = math.exp(s)
        return math.exp(-0.25 * (z - y) ** 2) * (-s) * y

    val = adaptive_simpson(lower, -40.0, 0.0, tol)
    upper_lim = max(1.0, z) + w
    val += adaptive_simpson(
        lambda y: math.exp(-0.25 * (z - y) ** 2) * math.log(y), 1.0, upper_lim, tol
    )
    return val / (2.0 * SQRT_PI)


def envelope_rho(L: float, z: float) -> float:
    """Sup over shifts z0 in [-L, L] of exp(-(z - z0)^2/4).

    Equals 1 on [-L, L] and exp(-d^2/4) with d = |z| - L outside; even in z.
    """
    if L <= 0:
        raise ValueError(f"window half-width must be positive, got {L}")
    d = abs(z) - L
    if d <= 0.0:
        return 1.0
    return math.exp(-0.25 * d * d)
