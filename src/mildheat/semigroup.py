"""Heat evolution by Gaussian-convolution quadrature.

Everything on similarity scales is computed directly in similarity variables:
u(sqrt(t) x, t) is the pair of half-line integrals

    (1/(2 sqrt(pi))) int_0^inf e^{-(x+z)^2/4} u0(-sqrt(t) z) dz
  + (1/(2 sqrt(pi))) int_0^inf e^{-(x-z)^2/4} u0(+sqrt(t) z) dz

so no huge physical coordinate is ever formed.  Each half-line integrand
reads the datum through its one-sided limit at the origin (see
:func:`_one_sided`), so a jump at 0, as in step data, stays outside both
integrands and every panel sees a smooth function.  :func:`_halfline_plan`
alone decides, for the heat evolutions, the window averages and the
envelope bound, where a half-line is cut, which pieces are taken in
s = log z and how the tolerance is shared, dropped s-tail included.  The
substitution turns an oscillation at the origin into a smooth, exponentially
damped integrand and grades data that vary on the scale z ~ 1/sqrt(t), so
every catalog datum certifies at arbitrarily large t (tested to 1e16).

One engine, :func:`scaled_evolve_many`, computes every heat evolution: it
takes an array of points, refines composite Simpson by doubling until the
Richardson estimate certifies its share of spec.abs_tol, and sums each node
only into the points within the Gaussian window of it
(:func:`~mildheat.kernels.gauss_window`, derived from abs_tol and charged to
it).  It raises :class:`~mildheat.kernels.UncertifiedQuadrature` when a
segment reaches its node cap uncertified.  :func:`scaled_evolve`,
:func:`evolve` and :func:`evolve_on_grid` are the same computation at one
point or at physical coordinates.

For a fixed node set a level's Gaussian sum is an entire function of x, so
the engine cuts the sorted points once per call into cells at most _CELL = 7
units wide (:func:`_cells`), as in the local expansions of Greengard &
Strain's fast Gauss transform.  A cell of more than 2 _TARGETS points is
summed at its _TARGETS = 36 first-kind Chebyshev targets and interpolated to
its points by a barycentric matrix built once per call; other cells are
summed at their points.  Cramer's inequality for Hermite functions bounds
the interpolation error by coef * sum_j |c_j| (7.6e-18 sum_j |c_j| on a full
cell); a level whose bound exceeds _INTERP_PART of its segment's share is
summed at the points instead, and the bound is charged to the Richardson
certificate, so refinement levels and node counts are those of the direct
sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .initial_data import InitialDatum
from .kernels import (
    _TAIL_PART,
    DEFAULT_SPEC,
    SQRT_PI,
    QuadratureSpec,
    UncertifiedQuadrature,
    _finite,
    _positive,
    adaptive_simpson,
    gauss_window,
)

_TINY = float(np.finfo(float).tiny)
# points x nodes in one Gaussian block of the heat engine: bounds its memory
_BLOCK = 1 << 14
# panels of a heat segment's first Simpson level, and the count at which a
# segment still uncertified raises
_FIRST_PANELS, _PANEL_CAP = 256, 1 << 17
# the heat engine cuts its sorted points into cells spanning at most _CELL
# similarity units; a cell of more than 2 _TARGETS points is summed at
# _TARGETS Chebyshev targets and interpolated, while a level's interpolation
# bound fits _INTERP_PART of the segment's share
_CELL, _TARGETS, _INTERP_PART = 7.0, 36, 1.0 / 64.0
# Cramer's constant, rounded up: |H_n(v)| e^{-v^2/2} <= k 2^{n/2} sqrt(n!)
_CRAMER = 1.0865


@dataclass(frozen=True)
class GridFunction:
    """Function sampled on a uniform grid over [x_min, x_max]."""

    x_min: float
    x_max: float
    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 grid points, got {self.n}")
        if not self.x_min < self.x_max:
            raise ValueError(f"empty grid interval [{self.x_min}, {self.x_max}]")
        if len(self.values) != self.n:
            raise ValueError(
                f"value count {len(self.values)} does not match n = {self.n}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must all be finite")

    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)


def _one_sided(u0: InitialDatum, sign: float, y):
    """u0 on side sign (-1 or +1) at distance y >= 0 (scalar or array).

    y = 0 is read at the smallest normal distance instead, which gives the
    one-sided limit at the origin for every catalog datum (each is continuous
    from either side there) and never the convention value at 0 itself.
    Every y > 0 passes unchanged, bit for bit.
    """
    return u0.eval(sign * np.where(y == 0, _TINY, y))


def _halfline_plan(u0: InitialDatum, a, b, scale, tol, bound):
    """Segments covering [a, b], 0 <= a < b, of a half-line integral of u0(scale z).

    The interval is cut at 1.  Below it, data that oscillate at the origin are
    taken in s = log z; other data with a nonzero slope bound vary on the
    scale z ~ 1/scale, so they are also cut at 1/scale and taken in s = log z
    between 1/scale and 1; data constant on each side stay linear.  A log
    segment that reaches down to z = 0 is truncated at s_lo, and the dropped
    piece, at most bound * e^{s_lo} when bound dominates the integrand near
    0, takes _TAIL_PART of a segment's share, so the shares plus that tail
    sum to tol.  Returns ((kind, lo, hi), share) pairs: kind "lin" covers
    z in [lo, hi], kind "log" covers s = log z in [lo, hi].
    """
    if u0.oscillates_at_zero:
        log_from = 0.0
    elif u0.sup_left > 0 or u0.sup_right > 0:
        log_from = min(1.0, 1.0 / scale)
    else:
        log_from = 1.0
    ends = [a, *sorted({c for c in (log_from, 1.0) if a < c < b}), b]
    spans = list(zip(ends, ends[1:]))
    tail = log_from == a == 0.0  # the first log segment drops its s-tail
    share = tol / (len(spans) + tail * _TAIL_PART)
    segments = []
    for lo, hi in spans:
        if log_from <= lo and hi <= 1.0:
            s_lo = math.log(lo) if lo > 0 else math.log(_TAIL_PART * share / bound)
            segments.append((("log", s_lo, math.log(hi)), share))
        else:
            segments.append((("lin", lo, hi), share))
    return segments


def _halfline_integral(u0: InitialDatum, g, a, b, scale, tol, bound):
    """int_a^b g(z) dz to tol, by adaptive_simpson on _halfline_plan's segments.

    g maps arrays to arrays and reads u0 at scale * z; bound dominates |g|
    near 0.
    """
    total = 0.0
    for (kind, lo, hi), share in _halfline_plan(u0, a, b, scale, tol, bound):
        f = g if kind == "lin" else (lambda s: g(np.exp(s)) * np.exp(s))
        total += adaptive_simpson(f, lo, hi, share)
    return total


def scaled_evolve(
    u0: InitialDatum, x: float, t: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """Solution on the similarity scale: u(sqrt(t) x, t)."""
    return float(scaled_evolve_many(u0, [x], t, spec)[0])


def scaled_evolve_many(
    u0: InitialDatum,
    xs: np.ndarray,
    t: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> np.ndarray:
    """u(sqrt(t) x, t) at an array of similarity points x, in input order.

    The window w = gauss_window(abs_tol, sup|u0|) takes _TAIL_PART of the
    budget.  Each half-line [0, max|x| + w] is split by _halfline_plan at
    scale sqrt(t), and each segment is certified to its share of the rest by
    _refined_halfline_segment.  The points are sorted and cut into cells
    once (_cells), so each node sums only into the cells within w of it,
    and both sides share the cells: the side z < 0 is the Gaussian sum at x
    over the mirrored nodes -z.
    """
    _positive("t", t)
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0 or not np.isfinite(xs).all():
        raise ValueError("points must be a non-empty array of finite numbers")
    order = np.argsort(xs)
    x = xs[order]
    cells = _cells(x)
    st = math.sqrt(t)
    w = gauss_window(spec.abs_tol, u0.sup_norm)
    # the window's part aside, both sides' errors over 2 sqrt(pi) total abs_tol
    side_tol = (1.0 - _TAIL_PART) * spec.abs_tol * SQRT_PI
    acc = np.zeros_like(x)
    for sign in (-1.0, 1.0):
        upper = max(0.0, float(x[-1] if sign > 0 else -x[0])) + w
        plan = _halfline_plan(u0, 0.0, upper, st, side_tol, u0.sup_norm)
        for (kind, a, b), tol in plan:
            acc += _refined_halfline_segment(u0, x, cells, st, sign, kind, a, b, tol, w)
    out = np.empty_like(acc)
    out[order] = acc / (2.0 * SQRT_PI)
    return out


def _refined_halfline_segment(u0, x, cells, st, sign, kind, a, b, tol, w):
    """Certified int_a^b e^{-(x - sign z)^2/4} u0(sign st z) dz at ascending x.

    cells is _cells(x).  kind "log" integrates in s = log z over [a, b]
    instead.  Composite Simpson doubles its panel count n from
    _FIRST_PANELS, each level built from the trapezoid sum T and the
    midpoint sum M of the level before: S_2m = (T_m + 2 M_m)/3 and
    T_2m = (T_m + M_m)/2, so a level evaluates the datum and the Gaussian
    only at its new midpoints.  Each level's Gaussian sum is interpolated
    on the dense cells when its bound eps fits _INTERP_PART of tol, and is
    summed at every point otherwise.  T, M and S inherit the largest eps of
    the levels they are built from, which moves the Richardson estimate by
    at most 2 eps/15 and the returned value by 17 eps/15.  Returns
    S_n + (S_n - S_{n/2})/15 once max |S_n - S_{n/2}| + 19 eps <= 15 tol
    (the Richardson certificate with the interpolation charged); raises
    UncertifiedQuadrature if n reaches _PANEL_CAP first.
    """
    cut, coef = cells
    eps = 0.0

    def node_sum(p, weight):
        # weight is a scalar or symmetric, so on the side z < 0 the nodes
        # run from b down to a and the mirrored nodes -z ascend
        nonlocal eps
        z = np.exp(p) if kind == "log" else p
        if sign < 0:
            z = z[::-1]
        q = np.asarray(_one_sided(u0, sign, st * z), dtype=float) * weight
        if kind == "log":
            q *= z
        bound = coef * float(np.sum(np.abs(q))) if coef else 0.0
        interp = bound <= _INTERP_PART * tol
        if interp:
            eps = max(eps, bound)
        return _gauss_sum(x, z if sign > 0 else -z, q, w, cut, interp)

    m = _FIRST_PANELS // 2
    h = (b - a) / m
    ends = np.full(m + 1, h)
    ends[[0, -1]] *= 0.5
    trap = node_sum(np.linspace(a, b, m + 1), ends)
    prev = None
    while True:
        mid = node_sum(a + h * (np.arange(m) + 0.5), h)
        s = (trap + 2.0 * mid) / 3.0
        n = 2 * m
        if prev is not None:
            delta = s - prev
            err = float(np.max(np.abs(delta)))
            if err + 19.0 * eps <= 15.0 * tol:
                return s + delta / 15.0
            if n >= _PANEL_CAP:
                raise UncertifiedQuadrature(
                    f"{u0.id}: {kind} segment [{a!r}, {b!r}] on side "
                    f"{sign:+g} reached {n} panels with estimate "
                    f"{err / 15.0:.3g} above the share {tol:.3g}"
                )
        prev = s
        trap = 0.5 * (trap + mid)
        m, h = n, 0.5 * h


def _cells(x):
    """Cut ascending points x into cells, each spanning at most _CELL.

    Returns (cut, coef).  cut lists (i, e, targets, bary) for the cell
    x[i:e].  A cell of more than 2 _TARGETS points and of nonzero span
    [lo, hi] carries the _TARGETS first-kind Chebyshev points of [lo, hi]
    as targets and the matrix bary that maps values at the targets to the
    barycentric interpolant at x[i:e] (Berrut & Trefethen 2004, with the
    weights (-1)^k sin theta_k); a point on a target copies that target.
    Other cells carry None and are summed at their points.

    With r = _TARGETS and half-width l, f(x) = sum_j c_j e^{-(x - z_j)^2/4}
    has |f^(r)| <= k 2^{-r/2} sqrt(r!) sum_j |c_j| (Cramer's inequality,
    k = _CRAMER), so interpolation at the targets is off by at most
    coef * sum_j |c_j|, coef = 2 k l^r / (2^{1.5 r} sqrt(r!)) at the
    largest l of the interpolated cells (7.6e-18 at l = _CELL/2).
    """
    r = _TARGETS
    cut, half = [], 0.0
    i = 0
    while i < len(x):
        e = int(np.searchsorted(x, x[i] + _CELL, "right"))
        mid, ell = 0.5 * (x[e - 1] + x[i]), 0.5 * (x[e - 1] - x[i])
        # the targets carry the rounding eps |mid| of the cell's position,
        # which must stay far below their smallest gap, about 2e-3 ell
        if e - i > 2 * r and ell > 1e-6 * max(1.0, abs(mid)):
            theta = (2.0 * np.arange(r) + 1.0) * (0.5 * math.pi / r)
            targets = mid + ell * np.cos(theta)
            weights = np.where(np.arange(r) % 2, -1.0, 1.0) * np.sin(theta)
            bary = x[i:e, None] - targets
            near = np.argmin(np.abs(bary), axis=1)
            hit = np.abs(bary[np.arange(e - i), near]) <= _TINY
            bary[hit] = np.inf
            np.divide(weights, bary, out=bary)
            bary[hit, near[hit]] = 1.0
            bary /= np.sum(bary, axis=1, keepdims=True)
            cut.append((i, e, targets, bary))
            half = max(half, ell)
        else:
            cut.append((i, e, None, None))
        i = e
    coef = 2.0 * _CRAMER * half ** r / (2.0 ** (1.5 * r) * math.sqrt(math.factorial(r)))
    return cut, coef


def _gauss_sum(x, z, c, w, cut, interp):
    """sum_j c_j e^{-(x_i - z_j)^2/4} over the nodes z_j within w of x_i's cell.

    x and z ascending; cut is the first item of _cells(x).  Each cell
    [lo, hi] takes the contiguous nodes in [lo - w, hi + w].  With interp,
    set when the caller's bound coef * sum_j |c_j| fits its share, a cell
    with targets is summed at its _TARGETS targets and its bary matrix
    carries the sums to its points; other cells are summed at their points.
    """
    out = np.zeros_like(x)
    for i, e, targets, bary in cut:
        lo, hi = np.searchsorted(z, (x[i] - w, x[e - 1] + w))
        if interp and bary is not None:
            at_targets = _window_sum(targets, z[lo:hi], c[lo:hi], np.zeros(len(targets)))
            out[i:e] = bary @ at_targets
            continue
        for j in range(i, e, _BLOCK):
            k = min(j + _BLOCK, e)
            _window_sum(x[j:k], z[lo:hi], c[lo:hi], out[j:k])
    return out


def _window_sum(y, z, c, out):
    """Add sum_j c_j e^{-(y_i - z_j)^2/4} over all j to out and return it.

    Blocks of at most _BLOCK points x nodes bound the memory.
    """
    step = _BLOCK // len(y)
    for k in range(0, len(z), step):
        d = y[:, None] - z[None, k:k + step]
        d *= d
        d *= -0.25
        out += np.exp(d, out=d) @ c[k:k + step]
    return out


def evolve(
    u0: InitialDatum, x: float, t: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """Heat evolution at a physical point: u(x, t) = scaled_evolve at x/sqrt(t)."""
    return scaled_evolve(u0, x / math.sqrt(_positive("t", t)), t, spec)


def evolve_on_grid(
    u0: InitialDatum,
    xs: np.ndarray,
    t: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> np.ndarray:
    """Heat evolution u(x, t) at an array of physical points, in input order."""
    st = math.sqrt(_positive("t", t))
    return scaled_evolve_many(u0, np.asarray(xs, dtype=float) / st, t, spec)


def sliding_average(
    u0: InitialDatum, x: float, R: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """Window average (1/(2R)) int_{-R}^{R} u0(x + y) dy.

    Probes the stabilization criterion along a ladder of window widths; the
    package only reports finite-R trends, never the limit itself.
    """
    _positive("R", R)
    _finite("x", x)
    lo, hi = x - R, x + R
    # the parts of the window on each side of 0, as distances from it
    sides = [(sign, a, b) for sign, a, b in
             ((-1.0, max(0.0, -hi), -lo), (1.0, max(0.0, lo), hi)) if a < b]
    tol = spec.abs_tol * 2.0 * R / len(sides)
    val = sum(
        _halfline_integral(u0, partial(_one_sided, u0, sign), a, b, 1.0, tol,
                           u0.sup_norm)
        for sign, a, b in sides
    )
    return val / (2.0 * R)


def rescaled_residual(
    u0: InitialDatum,
    x_window: float,
    tau: float,
    h: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Sup-norm defect of the exponentially rescaled frame.

    With v(x, tau) = u(e^{tau/2} x, e^tau), v solves
    v_t = v_xx + (x/2) v_x; this builds v on a grid of spacing h over
    [-x_window, x_window], forms centered differences with step h in both
    variables, and returns the interior sup of |v_t - v_xx - (x/2) v_x|.
    The residual shrinks at O(h^2) for exact evaluation.
    """
    _positive("h", h)
    _positive("x_window", x_window)
    _finite("tau", tau)
    if tau + h > math.log(np.finfo(float).max):
        raise ValueError(f"e^(tau + h) must be finite, got tau + h = {tau + h!r}")
    n = int(round(2.0 * x_window / h)) + 1
    if n < 3:
        raise ValueError("window too small for the given step: fewer than 3 nodes")
    # centered differences divide value noise by h^2, so evaluate well below it
    tight = QuadratureSpec(abs_tol=max(min(spec.abs_tol, h * h * 1e-8), 1e-14))
    xs = np.linspace(-x_window, x_window, n)
    dx = xs[1] - xs[0]
    times = (math.exp(tau - h), math.exp(tau), math.exp(tau + h))
    va, vb, vc = (scaled_evolve_many(u0, xs, tt, tight) for tt in times)
    vt = (vc[1:-1] - va[1:-1]) / (2.0 * h)
    vx = (vb[2:] - vb[:-2]) / (2.0 * dx)
    vxx = (vb[2:] - 2.0 * vb[1:-1] + vb[:-2]) / (dx * dx)
    res = vt - vxx - 0.5 * xs[1:-1] * vx
    return float(np.max(np.abs(res)))
