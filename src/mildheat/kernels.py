"""Special functions: Gaussian heat kernel, similarity profile, log-smoothing
kernel, and the shifted-Gaussian envelope, all with certified quadrature.

The scalar integrals of the package go through :func:`adaptive_simpson`:
local bisection with a Richardson error estimate, swept one level at a time
over integrands that map arrays of nodes to arrays of values, so evaluation
error is bounded by an explicit absolute tolerance.  The heat evolutions of
:mod:`mildheat.semigroup` refine composite Simpson uniformly under the same
certificate.  A quadrature that exhausts its budget before the estimate
meets the tolerance raises :class:`UncertifiedQuadrature` rather than return
an uncertified value.  All functions here are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT_PI = math.sqrt(math.pi)
# math.erf over arrays: importing scipy.special would double the start-up time
_ERF = np.frompyfunc(math.erf, 1, 1)
# the part of a budget a dropped tail takes (Gaussian mass past a window, an
# s-tail): widening a cut by log 16 costs fewer nodes than shrinking shares
_TAIL_PART = 1.0 / 16.0


def _positive(what: str, v: float) -> float:
    """v if it is positive and finite; ValueError naming what otherwise."""
    if not 0 < v < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {v}")
    return v


def _finite(what: str, v: float) -> float:
    """v if it is finite; ValueError naming what otherwise."""
    if not math.isfinite(v):
        raise ValueError(f"{what} must be finite, got {v}")
    return v


@dataclass(frozen=True)
class QuadratureSpec:
    """Evaluation budget for Gaussian-convolution integrals.

    abs_tol is the absolute error target.  Each integral derives its
    Gaussian window from it (:func:`gauss_window`) and charges the mass the
    window drops to the same budget.
    """

    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        _positive("abs_tol", self.abs_tol)


DEFAULT_SPEC = QuadratureSpec()


def gauss_window(tol: float, sup: float) -> float:
    """Half-width w past which e^{-y^2/4} weighted by sup holds at most _TAIL_PART tol.

    That mass, (1/sqrt(pi)) int_w^inf sup e^{-y^2/4} dy = sup erfc(w/2), is at
    most sup e^{-w^2/4} (Abramowitz & Stegun 7.1.13): w = 2 sqrt(log(sup/(_TAIL_PART tol))).
    """
    ratio = sup / (_TAIL_PART * tol)
    return 2.0 * math.sqrt(math.log(ratio)) if ratio > 1.0 else 0.0


class UncertifiedQuadrature(RuntimeError):
    """Raised when a quadrature runs out of refinement budget before its
    Richardson estimate meets the tolerance."""


# The first _MIN_LEVEL bisection levels are always taken, so narrow features
# cannot slip between the nodes of a coarse first estimate and fake
# convergence; a panel still uncertified at level _MAX_LEVEL raises, and so
# does a level that would hold more than _MAX_PANELS open panels.
_MIN_LEVEL, _MAX_LEVEL, _MAX_PANELS = 6, 48, 1 << 17


def adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    """Integrate f over [a, b] to absolute tolerance tol; f maps arrays to arrays.

    Local bisection: a panel of level k (width (b - a)/2^k) is accepted, with
    its Richardson-corrected value S2 + (S2 - S1)/15, once k >= _MIN_LEVEL
    and |S2 - S1| <= 15 tol/2^k; otherwise both halves go on to level k + 1.
    The sweep runs one level at a time and calls f once per level on every
    new node, the nodes a depth-first recursion would visit.  Raises
    UncertifiedQuadrature instead of returning an uncertified value.
    """
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, tol)
    x = np.array([a, b], dtype=float)
    for _ in range(_MIN_LEVEL + 1):
        x = np.insert(x, range(1, len(x)), 0.5 * (x[:-1] + x[1:]))
    fx = np.asarray(f(x), dtype=float)
    # rows: left end, midpoint and right end of each open panel
    X = np.stack((x[:-1:2], x[1::2], x[2::2]))
    F = np.stack((fx[:-1:2], fx[1::2], fx[2::2]))
    share = tol / 2.0 ** _MIN_LEVEL
    total = 0.0
    for level in range(_MIN_LEVEL, _MAX_LEVEL + 1):
        whole = (X[2] - X[0]) / 6.0 * (F[0] + 4.0 * F[1] + F[2])
        q = 0.5 * (X[:-1] + X[1:])
        fq = np.asarray(f(q.ravel()), dtype=float).reshape(q.shape)
        left, right = (X[1:] - X[:-1]) / 6.0 * (F[:-1] + 4.0 * fq + F[1:])
        delta = left + right - whole
        done = np.abs(delta) <= 15.0 * share
        total += float(np.sum(left[done] + right[done] + delta[done] / 15.0))
        rest = ~done
        if not rest.any():
            return total
        if level == _MAX_LEVEL or 2 * np.count_nonzero(rest) > _MAX_PANELS:
            i = int(np.argmax(rest))
            raise UncertifiedQuadrature(
                f"adaptive Simpson stopped at level {level} with "
                f"{np.count_nonzero(rest)} open panels; on [{X[0, i]!r}, "
                f"{X[2, i]!r}] the estimate {abs(delta[i]) / 15.0:.3g} is "
                f"above the share {share:.3g}"
            )
        # the halves (x0, lm, x1) and (x1, rm, x2) of each open panel go on
        X = np.insert(X, [1, 2], q, axis=0)[:, rest]
        F = np.insert(F, [1, 2], fq, axis=0)[:, rest]
        X, F = (np.hstack((P[:3], P[2:])) for P in (X, F))
        share *= 0.5


def heat_kernel(x, t: float):
    """Gaussian fundamental solution (1/(2 sqrt(pi t))) exp(-x^2/(4t)); x may
    be a scalar or an array."""
    _positive("t", t)
    out = np.exp(-np.square(x) / (4.0 * t)) / (2.0 * math.sqrt(math.pi * t))
    return float(out) if out.ndim == 0 else out


def profile_F(z):
    """Cumulative Gaussian with variance 2: (1/(2 sqrt(pi))) * int_{-inf}^z e^{-y^2/4} dy.

    Fast path via the error-function identity F(z) = (1 + erf(z/2))/2.
    Accepts scalars or numpy arrays.
    """
    out = 0.5 * (1.0 + np.asarray(_ERF(0.5 * np.asarray(z, dtype=float)), dtype=float))
    return float(out) if out.ndim == 0 else out


def profile_F_quad(z: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Quadrature cross-check of profile_F, independent of the erf identity;
    0 or 1 beyond +-gauss_window(abs_tol, 1), charged _TAIL_PART of abs_tol."""
    _finite("z", z)
    w = gauss_window(spec.abs_tol, 1.0)
    if abs(z) >= w:
        return float(z > 0)
    val = adaptive_simpson(
        lambda y: np.exp(-0.25 * y * y), -w, z, (1.0 - _TAIL_PART) * spec.abs_tol * SQRT_PI
    )
    return val / (2.0 * SQRT_PI)


def kernel_G(z: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Gaussian smoothing of |log|: (1/(2 sqrt(pi))) int_0^inf e^{-(z-y)^2/4} |log y| dy.

    The integrable log singularity at y=0 is resolved by substituting y = e^s
    on (0, 1], which turns that piece into int_{-inf}^0 e^{-(z-e^s)^2/4} (-s) e^s ds
    with a uniformly smooth integrand, cut at s = -40; the piece on [1, inf)
    is cut at max(1, z) + gauss_window(abs_tol, 1).  Each piece charges a
    bound on the mass it drops to its share of the tolerance and gives
    Simpson the rest; UncertifiedQuadrature is raised if a bound takes it all.
    """
    _finite("z", z)
    tol = spec.abs_tol * SQRT_PI  # split the budget over the two pieces
    w = gauss_window(spec.abs_tol, 1.0)
    s_cut, upper = -40.0, max(1.0, z) + w
    # dropped below s_cut: at most int_{-inf}^{s_cut} |s| e^s ds; above upper,
    # where log y <= log(upper) + (y - upper), at most
    # log(upper) sqrt(pi) erfc(w/2) + int_w^inf v e^{-v^2/4} dv
    drop = ((1.0 - s_cut) * math.exp(s_cut),
            math.log(upper) * SQRT_PI * math.erfc(0.5 * w) + 2.0 * math.exp(-0.25 * w * w))
    if max(drop) >= tol:
        raise UncertifiedQuadrature(f"kernel_G: the s-tail below {s_cut:g} and the tail above "
                                    f"{upper:g} may hold {drop[0]:.3g}, {drop[1]:.3g} >= {tol:.3g}")

    def lower(s):
        y = np.exp(s)
        return np.exp(-0.25 * (z - y) ** 2) * (-s) * y

    val = adaptive_simpson(lower, s_cut, 0.0, tol - drop[0])
    val += adaptive_simpson(
        lambda y: np.exp(-0.25 * (z - y) ** 2) * np.log(y), 1.0, upper, tol - drop[1]
    )
    return val / (2.0 * SQRT_PI)


def envelope_rho(L: float, z):
    """Sup over shifts z0 in [-L, L] of exp(-(z - z0)^2/4).

    Equals 1 on [-L, L] and exp(-d^2/4) with d = |z| - L outside; even in z,
    which may be a scalar or an array.
    """
    _positive("L", L)
    d = np.maximum(np.abs(z) - L, 0.0)
    out = np.exp(-0.25 * d * d)
    return float(out) if out.ndim == 0 else out
