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
takes an array of points, cuts them into cells, integrates each cell over
its own window, the points' span widened by the Gaussian window
(:func:`~mildheat.kernels.gauss_window`, derived from abs_tol and charged to
it), and refines composite Simpson by doubling until the Richardson estimate
certifies its share of spec.abs_tol at the cell's points or targets.  It
raises :class:`~mildheat.kernels.UncertifiedQuadrature` when a segment
reaches its node cap uncertified.  :func:`scaled_evolve`, :func:`evolve` and
:func:`evolve_on_grid` are the same computation at one point or at physical
coordinates.

Integrating only where a cell's Gaussians reach is the locality of Greengard
& Strain's fast Gauss transform: a point far from the rest costs no more
than a near one.  Each cell's Gaussian is taken in coordinates centred on
it, so a far cell loses no digits, and its window's ends are rounded
outward; a point certifies out to about 1e20, and beyond it the window, at
least two ulps wide, needs more than the node cap, or at the largest float
rounds out to infinity, and raises before any evaluation.  For a fixed node
set a Gaussian sum is an entire function of x, so the cells are at most
_CELL = 10 units wide (:func:`_cells`), as in the transform's local
expansions.  A cell of more than 2 _TARGETS points may be summed at its
_TARGETS = 48 first-kind Chebyshev targets and interpolated to its points by
a barycentric matrix built when the cell is integrated (:func:`_cell`);
Cramer's inequality for Hermite functions bounds the interpolation error by
coef * sum_j |c_j| (4.6e-19 sum_j |c_j| on a full cell).  The cell decides
once, before its first level, with a bound fixed in advance: a segment
[p, q]'s Richardson value weighs its nodes positively, with weights summing
to q - p, and a log segment lies at z <= 1, so that value interpolates to
within coef sup|u0| (q - p) at every level.  When that fits _INTERP_PART of
every segment's share, each segment is certified at the targets to its share
less that bound, and the cell's sum over all segments is interpolated once,
in row blocks of _BLOCK entries (:func:`_barycentric`); otherwise every
segment is summed at the cell's points.

The same transform's separable exponential sums a level.  Nodes evenly
spaced dz apart are taken in blocks of B from z_k, and e^{-(y - z_k - l dz)^2/4}
= e^{-(y - z_k)^2/4} e^{y l dz/2} e^{-(z_k + l dz/2) l dz/2} makes the level
one matrix product, with m (B + K) + n exponentials for m points, n nodes and
K blocks instead of m n (:func:`_window_sum`).  B = min(isqrt(n),
16 / (|dz| max(1, |y|, |z|))) keeps every split factor's exponent below about
8, so a far window cannot overflow; log nodes, not evenly spaced in z, take
B = 1, the direct sum.  A segment's first certificate needs its trapezoid
level and its first two midpoint levels: their 4m + 1 nodes (h/4) k take one
datum evaluation and one window sum, with one weight column per level.
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
# the fewest panels of a heat segment's first Simpson level, and the most
# panels any of its levels may hold
_FIRST_PANELS, _PANEL_CAP = 256, 1 << 17
# the heat engine cuts its sorted points into cells spanning at most _CELL
# similarity units; a cell of more than 2 _TARGETS points is summed at
# _TARGETS Chebyshev targets and interpolated when its advance interpolation
# bound fits _INTERP_PART of every segment's share
_CELL, _TARGETS, _INTERP_PART = 10.0, 48, 1.0 / 64.0
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
    def on_log(s):
        y = np.exp(s)
        return g(y) * y

    total = 0.0
    for (kind, lo, hi), share in _halfline_plan(u0, a, b, scale, tol, bound):
        total += adaptive_simpson(g if kind == "lin" else on_log, lo, hi, share)
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
    budget.  The points are sorted and cut into cells (_cells), and each
    cell x[i:e] integrates its own window [x_i - w, x_{e-1} + w] alone, with
    both ends rounded outward so that no point's window is narrowed by
    rounding; a window whose rounded end is infinite raises
    UncertifiedQuadrature before any evaluation.  On each side the part of
    the window at z >= 0 is split by _halfline_plan at scale sqrt(t), and
    each segment [p, q] is certified to its share of the rest by
    _refined_halfline_segment.  A dense cell (_cell) whose advance bound
    coef sup|u0| (q - p) fits _INTERP_PART of every segment's share sums all
    its segments at its targets, each to its share less that bound, and
    interpolates their sum once with bary; every other cell sums at its
    points.
    """
    _positive("t", t)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size == 0 or not np.isfinite(xs).all():
        raise ValueError("points xs must be a non-empty 1-D array of finite numbers")
    order = np.argsort(xs)
    x = xs[order]
    st = math.sqrt(t)
    w = gauss_window(spec.abs_tol, u0.sup_norm)
    # the window's part aside, both sides' errors over 2 sqrt(pi) total abs_tol
    side_tol = (1.0 - _TAIL_PART) * spec.abs_tol * SQRT_PI
    acc = np.zeros_like(x)
    for i, e in _cells(x):
        lo = math.nextafter(x[i] - w, -math.inf)
        hi = math.nextafter(x[e - 1] + w, math.inf)
        if math.isinf(lo) or math.isinf(hi):
            raise UncertifiedQuadrature(f"{u0.id}: window [{lo!r}, {hi!r}] is not finite, so its "
                                        "first certificate would need infinitely many panels")
        # the side z < 0 meets the window at z in [-hi, -lo]
        segments = [
            (sign, *segment, tol)
            for sign, a, b in ((-1.0, -hi, -lo), (1.0, lo, hi)) if b > 0.0
            for segment, tol in _halfline_plan(u0, max(0.0, a), b, st, side_tol, u0.sup_norm)
        ]
        centre, targets, weights, coef = _cell(x[i:e])
        # a segment's value interpolated from the targets is off by at most
        # coef sup|u0| (q - p) (_refined_halfline_segment), fixed in advance
        charge = coef * u0.sup_norm
        if weights is None or any(charge * (q - p) > _INTERP_PART * tol
                                  for _, _, p, q, tol in segments):
            targets, weights, charge = x[i:e], None, 0.0
        y = targets - centre
        v = sum(_refined_halfline_segment(u0, y, centre, st, sign, kind, p, q,
                                          tol - charge * (q - p))
                for sign, kind, p, q, tol in segments)
        acc[i:e] = v if weights is None else _barycentric(x[i:e], targets, weights, v)
    out = np.empty_like(acc)
    out[order] = acc / (2.0 * SQRT_PI)
    return out


def _refined_halfline_segment(u0, y, centre, st, sign, kind, a, b, tol):
    """Certified int_a^b e^{-(y - (sign z - centre))^2/4} u0(sign st z) dz at y.

    y holds evaluation points in coordinates centred on centre.  kind "log"
    integrates in s = log z over [a, b] instead.  Composite Simpson doubles
    its panel count n, each level built from the trapezoid sum T and the
    midpoint sum M of the level before: S_2m = (T_m + 2 M_m)/3 and
    T_2m = (T_m + M_m)/2, so a level evaluates the datum and the Gaussian
    only at its new midpoints.  The first T has _FIRST_PANELS/2 panels, or,
    on a "lin" segment, enough that its nodes lie at most
    h0 = 2 pi / sqrt(log(1/tol)) apart: at spacing h the trapezoid sum of
    e^{-(x - z)^2/4} misses about 2 e^{-4 pi^2/h^2} of its mass, so no level
    steps over a far point's Gaussian and certifies a sum that never saw it.

    A node z lies at sign z - centre: a "lin" node is placed by its offset
    from a, and sign a - centre is rounded once for every node, so a far
    cell's Gaussian distances keep their digits.  Returns
    R = S_n + (S_n - S_{n/2})/15 once max |S_n - S_{n/2}| <= 15 tol (the
    Richardson certificate).  R weighs the nodes by h/45 (14, 64, 24, 64, 14)
    on each run of 4 panels: positive weights that sum to b - a, so R is a
    Gaussian sum whose weights' magnitudes sum to at most sup|u0| (b - a)
    (a "log" segment lies at z <= 1).  No level holds more than _PANEL_CAP
    panels: UncertifiedQuadrature is raised before any evaluation if the
    first certificate would need more, and when the next level would
    exceed the cap with the certificate unmet.

    The first certificate compares S_2m with S_4m, so it needs T_m, M_m and
    M_2m: nodes h i, h (i + 1/2) and (h/2)(i + 1/2), which are (h/4) k, for
    k = 0..4m, bit for bit, as h/4 is exact.  They take one datum evaluation
    and one _window_sum with one weight column per level, and S_2m is formed
    before the loop.  Each pass of the loop then advances (T, M, m, h) by one
    level, certifies S_2m against the S_m of the pass before, checks the
    panel cap, and only then evaluates the next level's midpoints.  A "lin"
    level's nodes are evenly spaced, so _window_sum sums them in blocks.
    """
    def node_sum(step, k, weight):
        # the nodes lie at offsets step k from a, in s = log z for "log";
        # weight holds one column per level, or is one level's scalar
        off = step * k
        z = np.exp(a + off) if kind == "log" else a + off
        q = np.asarray(_one_sided(u0, sign, st * z), dtype=float)[:, None] * weight
        if kind == "log":
            return _window_sum(y, sign * z - centre, q * z[:, None])
        return _window_sum(y, sign * a - centre + sign * off, q, sign * step)

    m = _FIRST_PANELS // 2
    if kind == "lin" and tol < 1.0:
        m = max(m, math.ceil((b - a) * math.sqrt(math.log(1.0 / tol)) / (2.0 * math.pi)))
    if 4 * m > _PANEL_CAP:
        raise UncertifiedQuadrature(
            f"{u0.id}: {kind} segment [{a!r}, {b!r}] on side {sign:+g} needs "
            f"{4 * m} panels for its first certificate, above the cap {_PANEL_CAP}"
        )
    h = (b - a) / m
    # the weights of T_m, M_m and M_2m at the nodes (h/4) k
    levels = np.zeros((4 * m + 1, 3))
    levels[::4, 0] = h
    levels[[0, -1], 0] = 0.5 * h
    levels[2::4, 1] = h
    levels[1::2, 2] = 0.5 * h
    trap, mid, nxt = node_sum(0.25 * h, np.arange(4 * m + 1), levels).T
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
                f"{u0.id}: {kind} segment [{a!r}, {b!r}] on side "
                f"{sign:+g} reached {2 * m} panels with estimate "
                f"{err / 15.0:.3g} above the share {tol:.3g}"
            )
        prev = s
        nxt = node_sum(0.5 * h, np.arange(2 * m) + 0.5, 0.5 * h)[:, 0]


def _cells(x):
    """Cut ascending points x into cells x[i:e], each spanning at most _CELL.

    Returns the (i, e) pairs.
    """
    cuts, i = [], 0
    while i < len(x):
        e = int(np.searchsorted(x, x[i] + _CELL, "right"))
        cuts.append((i, e))
        i = e
    return cuts


def _cell(x):
    """(centre, targets, weights, coef) of the cell of ascending points x.

    centre is the midpoint of [lo, hi] = [x[0], x[-1]].  A cell of more
    than 2 _TARGETS points and of nonzero span carries the _TARGETS
    first-kind Chebyshev points of [lo, hi], ascending, as targets, and
    their barycentric weights (-1)^k sin theta_k (Berrut & Trefethen 2004),
    from which _barycentric interpolates values at the targets to x.  Other
    cells carry (centre, None, None, 0.0) and are summed at their points.

    With r = _TARGETS and half-width l, f(x) = sum_j c_j e^{-(x - z_j)^2/4}
    has |f^(r)| <= k 2^{-r/2} sqrt(r!) sum_j |c_j| (Cramer's inequality,
    k = _CRAMER), so interpolation at the targets is off by at most
    coef * sum_j |c_j|, coef = 2 k l^r / (2^{1.5 r} sqrt(r!)) (4.6e-19 at
    l = _CELL/2).
    """
    r = _TARGETS
    ell = 0.5 * (x[-1] - x[0])
    centre = x[0] + ell  # 0.5 (x[0] + x[-1]) would overflow near the largest float
    # the targets carry the rounding eps |centre| of the cell's position,
    # which must stay far below their smallest gap, about 4e-3 ell
    if len(x) <= 2 * r or ell <= 1e-6 * max(1.0, abs(centre)):
        return centre, None, None, 0.0
    theta = (2.0 * np.arange(r) + 1.0) * (0.5 * math.pi / r)
    targets = centre - ell * np.cos(theta)
    weights = np.where(np.arange(r) % 2, -1.0, 1.0) * np.sin(theta)
    coef = 2.0 * _CRAMER * ell ** r / (2.0 ** (1.5 * r) * math.sqrt(math.factorial(r)))
    return centre, targets, weights, coef


def _barycentric(x, targets, weights, v):
    """The barycentric interpolant at ascending x of values v at targets.

    The matrix is built and applied in row blocks of at most _BLOCK entries,
    so its memory does not grow with the points; a point on a target copies
    that target.
    """
    r = len(targets)
    out = np.empty_like(x)
    rows = max(1, _BLOCK // r)
    for i in range(0, len(x), rows):
        xi = x[i:i + rows]
        near = np.minimum(np.searchsorted(targets, xi), r - 1)
        hit = targets[near] == xi
        bary = xi[:, None] - targets
        bary[hit] = np.inf
        np.divide(weights, bary, out=bary)
        bary[hit, near[hit]] = 1.0
        bary /= np.sum(bary, axis=1, keepdims=True)
        out[i:i + rows] = bary @ v
    return out


def _block_size(y, z, dz):
    """The block size B of _window_sum at points y and nodes z, dz apart.

    B = min(isqrt(n), 16 / (|dz| max(1, |y|, |z|))) keeps the exponent of
    every split factor below about 8, so none overflows, in a far window
    either.  B = 1, the direct sum, serves nodes not evenly spaced (dz = 0,
    as in s = log z) and sums where blocking saves no exponentials.
    """
    if not dz:
        return 1
    m, n = len(y), len(z)
    reach = max(1.0, float(np.abs(y).max()), abs(z[0]), abs(z[-1]))
    b = max(1, int(min(math.isqrt(n), 16.0 / (abs(dz) * reach))))
    return 1 if m * n <= n + m * (b + -(-n // b)) else b


def _window_sum(y, z, c, dz=0.0):
    """sum_j c_j e^{-(y_i - z_j)^2/4} over all j, at each y_i.

    c is 1-D, or holds one column of weights per sum.  Nodes evenly spaced
    dz apart are summed in blocks of B = _block_size nodes from z_k = z[kB],
    by the separable exponential of Greengard & Strain's fast Gauss transform

        e^{-(y - z_k - l dz)^2/4}
            = e^{-(y - z_k)^2/4} e^{y l dz/2} e^{-(z_k + l dz/2) l dz/2},

    so each column is one matrix product of the weighted (K, B) blocks with
    the (B, m) factors e^{y l dz/2}, and m points take m (B + K) + n
    exponentials instead of m n.  B = 1 is the direct sum.  Chunks of points
    and nodes keep every temporary but the weighted blocks, which are as
    large as c, within max(_BLOCK, len(y)) entries.
    """
    m, n = len(y), len(z)
    b = _block_size(y, z, dz)
    if b == 1:
        out = np.zeros((m,) + c.shape[1:])
        step = max(1, _BLOCK // m)
        for j in range(0, n, step):
            d = y[:, None] - z[j:j + step]
            d *= d
            d *= -0.25
            out += np.exp(d, out=d) @ c[j:j + step]
        return out
    cols = c.reshape(n, -1).T
    r, k = len(cols), -(-n // b)
    ldz = 0.5 * dz * np.arange(b)  # l dz/2
    zk = z[::b, None]
    # q[col, k, l] = c_{kB+l} e^{-(z_k + l dz/2) l dz/2}, zero past the last node
    q = np.zeros((r, k, b))
    np.multiply(cols, np.exp(-(zk + ldz) * ldz).reshape(-1)[:n], out=q.reshape(r, -1)[:, :n])
    acc = np.zeros((r, m))
    rows = max(1, _BLOCK // (b + k * r))
    span = max(1, _BLOCK // (rows * r))
    for i in range(0, m, rows):
        yi = y[i:i + rows]
        p = np.exp(ldz[:, None] * yi)  # e^{y l dz/2}
        for j in range(0, k, span):
            s = (q[:, j:j + span].reshape(-1, b) @ p).reshape(r, -1, len(yi))
            s *= np.exp(-0.25 * (zk[j:j + span] - yi) ** 2)
            acc[:, i:i + rows] += s.sum(axis=1)
    return acc.T.reshape((m,) + c.shape[1:])


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
    package only reports finite-R trends, never the limit itself.  The ends
    x -+ R are rounded to floats; the mass that moves, at most sup|u0| times
    the shift, is charged to abs_tol before the quadrature gets the rest, and
    UncertifiedQuadrature is raised, before any evaluation, when it takes all
    of abs_tol.
    """
    _positive("R", R)
    _finite("x", x)
    lo, hi = _finite("x - R", x - R), _finite("x + R", x + R)
    _finite("2 R", 2.0 * R)
    # each rounding error is a float, so fsum gives it exactly
    shift = abs(math.fsum((x, -R, -lo))) + abs(math.fsum((x, R, -hi)))
    charge = u0.sup_norm * shift / (2.0 * R)
    if charge >= spec.abs_tol:
        raise UncertifiedQuadrature(
            f"{u0.id}: rounding the window ends of x = {x!r} -+ R = {R!r} moves them by "
            f"{shift:.3g} in all, which may move the average by {charge:.3g} >= abs_tol "
            f"{spec.abs_tol:.3g}"
        )
    # the parts of the window on each side of 0, as distances from it
    sides = [(sign, a, b) for sign, a, b in
             ((-1.0, max(0.0, -hi), -lo), (1.0, max(0.0, lo), hi)) if a < b]
    tol = (spec.abs_tol - charge) * 2.0 * R / max(1, len(sides))
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
