"""Heat evolution by Gaussian-convolution quadrature.

Everything on similarity scales is computed directly in similarity variables:
u(sqrt(t) x, t) is the pair of half-line integrals

    (1/(2 sqrt(pi))) int_0^inf e^{-(x+z)^2/4} u0(-sqrt(t) z) dz
  + (1/(2 sqrt(pi))) int_0^inf e^{-(x-z)^2/4} u0(+sqrt(t) z) dz

so no huge physical coordinate is ever formed.  Each half-line integrand
reads the datum through its one-sided limit at the origin (see
:func:`_one_sided`), so a jump at 0, as in step data, stays outside both
integrands and every panel sees a smooth function.  Data that oscillate
infinitely often near the origin are integrated after the substitution
z = e^s on the panel touching 0, which turns the oscillation into a smooth,
exponentially damped integrand.

Both quadrature paths certify their result or raise
:class:`~mildheat.kernels.UncertifiedQuadrature`: the scalar path when
adaptive Simpson reaches its depth limit, the vectorized path when the node
count reaches its cap with the Richardson estimate above the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .initial_data import InitialDatum
from .kernels import (
    DEFAULT_SPEC,
    SQRT_PI,
    QuadratureSpec,
    UncertifiedQuadrature,
    adaptive_simpson,
)

_TINY = float(np.finfo(float).tiny)


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
    Every y > 0 passes unchanged, bit for bit.  The bump is plain arithmetic
    because np.maximum on a Python float costs more than the scalar datum
    evaluation it guards.
    """
    return u0.eval(sign * (y + (y == 0) * _TINY))


def _positive_interval(g, a, b, tol, oscillatory, bound, splits=(1.0,)):
    """Integral of g over (a, b], 0 <= a < b, g possibly oscillating near 0.

    Oscillatory integrands are handled on the sub-interval below 1 by the
    substitution z = e^s; bound must dominate |g| near the origin so the
    truncated s-tail (only needed when a = 0) stays below tol.
    """
    if b <= a:
        return 0.0
    val = 0.0
    lo = a
    if oscillatory and a < 1.0:
        cut = min(1.0, b)
        s_hi = math.log(cut)
        if a == 0.0:
            s_lo = math.log(tol / max(1.0, bound)) - 1.0
        else:
            s_lo = math.log(a)
        if s_lo < s_hi:
            val += adaptive_simpson(
                lambda s: g(math.exp(s)) * math.exp(s), s_lo, s_hi, 0.5 * tol
            )
        lo = cut
        tol = 0.5 * tol
    if b > lo:
        pts = sorted({lo, b} | {s for s in splits if lo < s < b})
        panels = list(zip(pts[:-1], pts[1:]))
        share = tol / len(panels)
        val += sum(adaptive_simpson(g, p, q, share) for p, q in panels)
    return val


def scaled_evolve(
    u0: InitialDatum, x: float, t: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """Solution on the similarity scale: u(sqrt(t) x, t)."""
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    st = math.sqrt(t)
    w = spec.tail_radius
    osc = u0.oscillates_at_zero
    bound = u0.sup_norm
    tol = spec.abs_tol * SQRT_PI  # per half-line, so the total error is abs_tol

    def g_minus(z: float) -> float:
        return math.exp(-0.25 * (x + z) ** 2) * float(_one_sided(u0, -1.0, st * z))

    def g_plus(z: float) -> float:
        return math.exp(-0.25 * (x - z) ** 2) * float(_one_sided(u0, 1.0, st * z))

    val = _positive_interval(g_minus, 0.0, max(0.0, -x) + w, tol, osc, bound)
    val += _positive_interval(g_plus, 0.0, max(0.0, x) + w, tol, osc, bound)
    return val / (2.0 * SQRT_PI)


def scaled_evolve_many(
    u0: InitialDatum,
    xs: np.ndarray,
    t: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> np.ndarray:
    """Vectorized u(sqrt(t) x, t) over an array of similarity points.

    Same half-line decomposition and oscillation substitution as
    scaled_evolve, but integrated by globally refined composite Simpson:
    the node count doubles until the Richardson estimate max_x |S_2n - S_n|
    is below 15x the tolerance share, which certifies the same abs_tol as
    the scalar path at array speed.  Raises UncertifiedQuadrature if a
    segment reaches its node cap uncertified.
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    xs = np.asarray(xs, dtype=float)
    st = math.sqrt(t)
    w = spec.tail_radius
    osc = u0.oscillates_at_zero
    acc = np.zeros_like(xs)
    for sign in (-1.0, 1.0):
        # Gaussian factor exp(-(x - sign*z)^2/4) on the half-line z > 0
        upper = max(0.0, float(np.max(sign * xs))) + w
        segments = []
        if osc:
            cut = min(1.0, upper)
            s_lo = math.log(spec.abs_tol / max(1.0, u0.sup_norm)) - 1.0
            segments.append(("log", s_lo, math.log(cut)))
            if upper > cut:
                segments.append(("lin", cut, upper))
        else:
            cut = min(1.0, upper)
            segments.append(("lin", 0.0, cut))
            if upper > cut:
                segments.append(("lin", cut, upper))
        tol = spec.abs_tol * 2.0 * SQRT_PI / (2.0 * len(segments))
        for kind, a, b in segments:
            acc += _refined_halfline_segment(u0, xs, st, sign, kind, a, b, tol)
    return acc / (2.0 * SQRT_PI)


def _refined_halfline_segment(u0, xs, st, sign, kind, a, b, tol,
                              n0=256, n_max=1 << 17):
    prev = None
    n = n0
    while True:
        p = np.linspace(a, b, n + 1)
        if kind == "log":
            z = np.exp(p)
            jac = z
        else:
            z = p
            jac = 1.0
        q = np.asarray(_one_sided(u0, sign, st * z), dtype=float) * jac
        wts = np.ones(n + 1)
        wts[1:-1:2] = 4.0
        wts[2:-1:2] = 2.0
        cq = q * wts * ((b - a) / n / 3.0)
        s = np.zeros_like(xs)
        for k in range(0, n + 1, 4096):
            blk = slice(k, min(k + 4096, n + 1))
            s += (
                cq[None, blk]
                * np.exp(-0.25 * (xs[:, None] - sign * z[None, blk]) ** 2)
            ).sum(axis=1)
        if prev is not None:
            delta = s - prev
            err = float(np.max(np.abs(delta)))
            if err <= 15.0 * tol:
                return s + delta / 15.0
            if n >= n_max:
                raise UncertifiedQuadrature(
                    f"{u0.id}: {kind} segment [{a!r}, {b!r}] on side "
                    f"{sign:+g} reached {n} panels with estimate "
                    f"{err / 15.0:.3g} above the share {tol:.3g}"
                )
        prev = s
        n *= 2


def evolve(
    u0: InitialDatum, x: float, t: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """Heat evolution at a physical point: u(x, t).

    Evaluated through the similarity form at x/sqrt(t), which keeps the datum
    kink at an integration endpoint and reuses the oscillation handling.
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    return scaled_evolve(u0, x / math.sqrt(t), t, spec)


def evolve_on_grid(
    u0: InitialDatum,
    xs: np.ndarray,
    t: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    panels: int = 4000,
) -> np.ndarray:
    """Vectorized heat evolution at many physical points.

    Composite Simpson in the similarity offset w over [-W, W]:
    u(x, t) = (1/(2 sqrt(pi))) int e^{-w^2/4} u0(x + sqrt(t) w) dw.
    Requires a smooth datum (fixed panels cannot certify kinks); non-smooth
    data fall back to the certified scalar path.
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    xs = np.asarray(xs, dtype=float)
    if not u0.smooth:
        return np.array([evolve(u0, float(x), t, spec) for x in xs])
    w = np.linspace(-spec.tail_radius, spec.tail_radius, panels + 1)
    h = w[1] - w[0]
    wts = np.ones(panels + 1)
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    coeff = wts * (h / 3.0) * np.exp(-0.25 * w ** 2) / (2.0 * SQRT_PI)
    st = math.sqrt(t)
    acc = np.zeros_like(xs)
    for wi, ci in zip(w, coeff):
        acc += ci * u0.eval(xs + st * wi)
    return acc


def sliding_average(
    u0: InitialDatum, x: float, R: float, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """Window average (1/(2R)) int_{-R}^{R} u0(x + y) dy.

    Probes the stabilization criterion along a ladder of window widths; the
    package only reports finite-R trends, never the limit itself.
    """
    if R <= 0:
        raise ValueError(f"window half-width must be positive, got {R}")
    lo, hi = x - R, x + R
    tol = spec.abs_tol * 2.0 * R
    osc = u0.oscillates_at_zero
    bound = u0.sup_norm
    neg = lambda z: float(_one_sided(u0, -1.0, z))
    pos = lambda z: float(_one_sided(u0, 1.0, z))
    val = 0.0
    if lo < 0.0 < hi:
        half = 0.5 * tol
        val += _positive_interval(neg, 0.0, -lo, half, osc, bound)
        val += _positive_interval(pos, 0.0, hi, half, osc, bound)
    elif hi <= 0.0:
        val += _positive_interval(neg, -hi, -lo, tol, osc, bound)
    else:
        val += _positive_interval(pos, lo, hi, tol, osc, bound)
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
    if h <= 0:
        raise ValueError(f"difference step must be positive, got {h}")
    if x_window <= 0:
        raise ValueError(f"window must be positive, got {x_window}")
    n = int(round(2.0 * x_window / h)) + 1
    if n < 3:
        raise ValueError("window too small for the given step: fewer than 3 nodes")
    # centered differences divide value noise by h^2, so evaluate well below it
    tight = QuadratureSpec(
        abs_tol=max(min(spec.abs_tol, h * h * 1e-8), 1e-14),
        tail_radius=spec.tail_radius,
        singularity_splits=spec.singularity_splits,
    )
    xs = np.linspace(-x_window, x_window, n)
    dx = xs[1] - xs[0]
    times = (math.exp(tau - h), math.exp(tau), math.exp(tau + h))
    va, vb, vc = (scaled_evolve_many(u0, xs, tt, tight) for tt in times)
    vt = (vc[1:-1] - va[1:-1]) / (2.0 * h)
    vx = (vb[2:] - vb[:-2]) / (2.0 * dx)
    vxx = (vb[2:] - 2.0 * vb[1:-1] + vb[:-2]) / (dx * dx)
    res = vt - vxx - 0.5 * xs[1:-1] * vx
    return float(np.max(np.abs(res)))
