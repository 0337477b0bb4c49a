"""Special functions: Gaussian heat kernel, similarity profile, log-smoothing
kernel, and the shifted-Gaussian envelope, all with certified quadrature.

Two refinement loops certify every integral of the package against an
explicit absolute tolerance, each with a Richardson error estimate.
:func:`_doubling_simpson` doubles composite Simpson uniformly: the heat
evolutions of :mod:`mildheat.semigroup`, :func:`kernel_G` and
:func:`profile_F_quad` use it, since their integrands vary on one fixed
scale, so a level costs a few numpy calls over all its nodes at once.
:func:`adaptive_simpson` bisects locally, for the half-line integrals of
the envelope bound and the window averages, whose integrands have kinks or
span many scales: swept one level at a time over integrands that map arrays
of nodes to arrays of values, each level keeps its open panels in one state
array (x and f at both ends, the midpoint and the two quarter points),
carries each half's Simpson value over as the next level's coarse value,
and forms midpoints as 0.5 x0 + 0.5 x1, which cannot overflow; so a level
costs a fixed, small number of numpy calls, whatever the number of panels.
A quadrature that exhausts its budget before the estimate meets the
tolerance raises :class:`UncertifiedQuadrature` rather than return an
uncertified value.  All functions here are pure and thread-safe.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

SQRT_PI = math.sqrt(math.pi)
# math.erf over arrays: scipy is not a runtime dependency
_ERF = np.frompyfunc(math.erf, 1, 1)
# the part of a budget a dropped tail takes (Gaussian mass past a window, an
# s-tail): widening a cut by log 16 costs fewer nodes than shrinking shares
_TAIL_PART = 1.0 / 16.0
# the dtype the scalar checks read for a value that carries none (a Python
# number, a string, None)
_REAL = np.dtype(float)


def _positive(what: str, v: float) -> float:
    """v if it is a positive and finite real scalar; ValueError naming what otherwise.

    A Python or numpy real and a 0-d array are scalars.  An array with
    dimensions fails the ndim test, a numpy complex scalar or 0-d array the
    dtype test (numpy would order it by its real part, or warn and drop its
    imaginary part), and a string, a Python complex or None the
    comparison's TypeError.
    """
    try:
        ok = (getattr(v, "ndim", 0) == 0 and getattr(v, "dtype", _REAL).kind != "c"
              and 0 < v < math.inf)
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{what} must be positive and finite, got {v}")
    return v


def _finite(what: str, v: float) -> float:
    """v if it is a finite real scalar, as for _positive; ValueError naming what otherwise."""
    try:
        ok = (getattr(v, "ndim", 0) == 0 and getattr(v, "dtype", _REAL).kind != "c"
              and math.isfinite(v))
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"{what} must be finite, got {v}")
    return v


def _holdable(what: str, count) -> None:
    """ValueError naming what and count when numpy cannot hold count floats in one array.

    count, an int or a float such as span/step + 1, is checked before any
    array is made, so the error names the argument that sized the grid
    rather than numpy's allocation.
    """
    if not count <= np.iinfo(np.intp).max // np.dtype(float).itemsize:
        raise ValueError(f"{what}: {count:.6g} grid nodes, more than one numpy array can hold")


def _count(what: str, v: int, least: int) -> int:
    """v if it is an int of at least least, and numpy can hold v floats; ValueError naming
    what otherwise."""
    if not (isinstance(v, numbers.Integral) and v >= least):
        raise ValueError(f"{what} must be an int of at least {least}, got {v!r}")
    _holdable(what, v)
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
    new node, the nodes a depth-first recursion would visit.  Each level
    holds its open panels in one array of shape (2, 5, n): x and f at x0,
    lm, x1, rm, x2, where the quarter points lm and rm are written in place.
    A half's Simpson value is the next level's S1 for that panel, so it is
    carried over, not recomputed.  Every midpoint is 0.5 x0 + 0.5 x1, which
    cannot overflow and equals 0.5 (x0 + x1) for normal floats.  Raises
    UncertifiedQuadrature instead of returning an uncertified value.
    """
    if a == b:
        return 0.0
    if b < a:
        return -adaptive_simpson(f, b, a, tol)
    x = np.array([a, b], dtype=float)
    for _ in range(_MIN_LEVEL + 1):
        y = np.empty(2 * len(x) - 1)
        y[::2], y[1::2] = x, 0.5 * x[:-1] + 0.5 * x[1:]
        x = y
    V = np.stack((x, np.asarray(f(x), dtype=float)))
    S = np.empty((2, 5, len(x) // 2))
    S[:, 0], S[:, 2], S[:, 4] = V[:, :-1:2], V[:, 1::2], V[:, 2::2]
    X, F = S
    whole = (X[4] - X[0]) / 6.0 * (F[0] + 4.0 * F[2] + F[4])
    share = tol / 2.0 ** _MIN_LEVEL
    total = 0.0
    for level in range(_MIN_LEVEL, _MAX_LEVEL + 1):
        X, F = S
        half = 0.5 * X[::2]
        np.add(half[:-1], half[1:], out=X[1::2])
        F[1::2] = fq = np.asarray(f(X[1::2].ravel()), dtype=float).reshape(2, -1)
        # rows: the left and the right half of each panel
        halves = (X[2::2] - X[:-2:2]) / 6.0 * (F[:-2:2] + 4.0 * fq + F[2::2])
        both = halves[0] + halves[1]
        delta = both - whole
        done = np.abs(delta) <= 15.0 * share
        total += float(np.sum(both[done] + delta[done] / 15.0))
        n_open = len(done) - np.count_nonzero(done)
        if n_open == 0:
            return total
        rest = ~done
        if level == _MAX_LEVEL or 2 * n_open > _MAX_PANELS:
            i = int(np.argmax(rest))
            raise UncertifiedQuadrature(
                f"adaptive Simpson stopped at level {level} with "
                f"{n_open} open panels; on [{float(X[0, i])!r}, "
                f"{float(X[4, i])!r}] the estimate {abs(delta[i]) / 15.0:.3g} is "
                f"above the share {share:.3g}"
            )
        # the halves (x0, lm, x1) and (x1, rm, x2) of each open panel go on,
        # all left halves first, each with its Simpson value as S1
        P = S[:, :, rest]
        S = np.empty((2, 5, 2 * n_open))
        S[:, ::2, :n_open], S[:, ::2, n_open:] = P[:, :3], P[:, 2:]
        whole = halves[:, rest].ravel()
        share *= 0.5


# the fewest panels of a doubling Simpson's first level, and the most panels
# any of its levels may hold
_FIRST_PANELS, _PANEL_CAP = 256, 1 << 17


def _doubling_simpson(level_sum, length: float, least: int, tol: float, what):
    """Composite Simpson over an interval of the given length, doubled until certified.

    level_sum(step, k, weight) sums the integrand at the nodes offset step k
    from the interval's start, weighted by weight: one row per node and one
    column per sum, or one number, the weight of every node of a single
    sum.  It returns the sums along its last axis, each a number or an
    array of values at some points.  The panel count n doubles, each level
    built from the trapezoid sum T and the midpoint sum M of the level
    before: S_2m = (T_m + 2 M_m)/3 and T_2m = (T_m + M_m)/2, so a level
    evaluates the integrand only at its new midpoints.  The first T has
    m = max(_FIRST_PANELS/2, least) panels.  Returns
    R = S_n + (S_n - S_{n/2})/15 once max |S_n - S_{n/2}| <= 15 tol (the
    Richardson certificate).  R weighs the nodes by h/45 (14, 64, 24, 64, 14)
    on each run of 4 panels: positive weights that sum to the length.

    The first certificate compares S_2m with S_4m, so it needs T_m, M_m and
    M_2m: nodes h i, h (i + 1/2) and (h/2)(i + 1/2), which are (h/4) k, for
    k = 0..4m, bit for bit, as h/4 is exact.  They take one level_sum call
    with one weight column per level, and S_2m is formed before the loop.
    Each pass of the loop then advances (T, M, m, h) by one level, certifies
    S_2m against the S_m of the pass before, checks the panel cap, and only
    then sums the next level's midpoints.  No level holds more than
    _PANEL_CAP panels: UncertifiedQuadrature is raised before any
    evaluation if the first certificate would need more, and when the next
    level would exceed the cap with the certificate unmet.  Its message
    opens with what(), a description called only then, so a heat segment
    does not format one for every call.
    """
    m = max(_FIRST_PANELS // 2, least)
    if 4 * m > _PANEL_CAP:
        raise UncertifiedQuadrature(
            f"{what()} needs {4 * m} panels for its first certificate, above the cap {_PANEL_CAP}"
        )
    h = length / m
    # the weights of T_m, M_m and M_2m at the nodes (h/4) k
    levels = np.zeros((4 * m + 1, 3))
    levels[::4, 0] = h
    levels[[0, -1], 0] = 0.5 * h
    levels[2::4, 1] = h
    levels[1::2, 2] = 0.5 * h
    trap, mid, nxt = level_sum(0.25 * h, np.arange(4 * m + 1), levels).T
    prev = (trap + 2.0 * mid) / 3.0  # S_2m
    while True:
        trap, mid, m, h = 0.5 * (trap + mid), nxt, 2 * m, 0.5 * h
        s = (trap + 2.0 * mid) / 3.0
        delta = s - prev
        err = float(np.max(np.abs(delta)))
        if err <= 15.0 * tol:
            return s + delta / 15.0
        if 4 * m > _PANEL_CAP:
            raise UncertifiedQuadrature(
                f"{what()} reached {2 * m} panels with estimate {err / 15.0:.3g} above the "
                f"share {tol:.3g}"
            )
        prev = s
        nxt = level_sum(0.5 * h, np.arange(2 * m) + 0.5, 0.5 * h)[..., 0]


def _uniform_simpson(f, a: float, b: float, tol: float, what) -> float:
    """int_a^b f to tol by _doubling_simpson, from _FIRST_PANELS/2 panels.

    f maps arrays of nodes to arrays of values; a failure message opens
    with what()."""
    return float(_doubling_simpson(
        lambda step, k, weight: np.sum(f(a + step * k)[:, None] * weight, axis=0),
        b - a, 0, tol, what))


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
    val = _uniform_simpson(lambda y: np.exp(-0.25 * y * y), -w, z,
                           (1.0 - _TAIL_PART) * spec.abs_tol * SQRT_PI, lambda: "profile_F_quad")
    return val / (2.0 * SQRT_PI)


def kernel_G(z: float, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
    """Gaussian smoothing of |log|: (1/(2 sqrt(pi))) int_0^inf e^{-(z-y)^2/4} |log y| dy.

    The integrable log singularity at y=0 is resolved by substituting y = e^s
    on (0, 1], which turns that piece into int_{-inf}^0 e^{-(z-e^s)^2/4} (-s) e^s ds
    with a uniformly smooth integrand, cut at s = -40; the piece on [1, inf)
    is cut to [max(1, z - w), max(1, z) + w], w = gauss_window(abs_tol, 1),
    and integrated in v = y - c, c = max(1, z), so its panels stay on the
    kernel's scale and keep their digits at any z (in y, ulp(z) reaches w
    near z = 1e16).  Each piece charges a bound on the mass it drops to its
    share of the tolerance and gives Simpson the rest; UncertifiedQuadrature
    is raised if a bound takes it all.
    """
    _finite("z", z)
    tol = spec.abs_tol * SQRT_PI  # split the budget over the two pieces
    w = gauss_window(spec.abs_tol, 1.0)
    s_cut, c = -40.0, max(1.0, z)
    d, lo, upper = z - c, max(1.0, z - w), c + w
    # dropped below s_cut: at most int_{-inf}^{s_cut} |s| e^s ds; above upper,
    # where log y <= log(upper) + (y - upper), at most
    # log(upper) sqrt(pi) erfc(w/2) + int_w^inf v e^{-v^2/4} dv; on [1, lo],
    # where 0 <= log y <= log(lo), at most log(lo) sqrt(pi) erfc(w/2)
    drop = ((1.0 - s_cut) * math.exp(s_cut),
            math.log(upper) * SQRT_PI * math.erfc(0.5 * w) + 2.0 * math.exp(-0.25 * w * w)
            + math.log(lo) * SQRT_PI * math.erfc(0.5 * w))
    if max(drop) >= tol:
        raise UncertifiedQuadrature(f"kernel_G: the s-tail below {s_cut:g} and the tails outside "
                                    f"[{lo:g}, {upper:g}] may hold {drop[0]:.3g}, {drop[1]:.3g} "
                                    f">= {tol:.3g}")

    def lower(s):
        y = np.exp(s)
        return np.exp(-0.25 * (z - y) ** 2) * (-s) * y

    # far left of the origin (z below about -1.3e154) (z - y)^2 overflows to
    # inf, and the weight e^{-inf} = 0 it gives is the exact limit; y = c + v
    # with c >= 1, where log(z + v) would reach log 0 far left
    with np.errstate(over="ignore"):
        val = _uniform_simpson(lower, s_cut, 0.0, tol - drop[0],
                               lambda: f"kernel_G({z!r}) on y in (0, 1]")
        val += _uniform_simpson(lambda v: np.exp(-0.25 * (d - v) ** 2) * np.log(c + v),
                                max(1.0 - c, d - w), w, tol - drop[1],
                                lambda: f"kernel_G({z!r}) on y >= 1")
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
