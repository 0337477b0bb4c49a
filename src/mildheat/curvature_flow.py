"""Finite-difference solvers for the graph curvature flow
u_t = u_xx / (1 + u_x^2) and its linear twin u_t = u_xx.

Both use second-order centered differences and homogeneous Neumann walls at
+-X through mirror ghost nodes.  Observation points stay inside a
domain-of-influence buffer of 8 sqrt(T) so wall effects are below tolerance.

The curvature flow is marched by one stepper (_stepper) along one schedule
(_schedule), which alone decides every range check and every record: the
march takes each run of the schedule, checks the range, and takes a snapshot
when the run ends at a record time.  A step of length tau in s stages starts
with one pass of the stencil, F = D / (1/r + S^2 / (4 dx^2 r)) inside, from
the forward differences g of u with D = g[1:] - g[:-1], S = g[1:] + g[:-1]
and r = w1 tau / dx^2, and +-2 r g at the mirror walls.  With s = 1 it is the
explicit Euler step u += F.  With s >= 2 it is a second-order
Runge-Kutta-Legendre (RKL2) super-step (Meyer, Balsara & Aslam, J. Comput.
Phys. 257, 2014), a Chebyshev-type stabilised method in the line of RKC
(Verwer, Hundsdorfer & Sommeijer, Numer. Math. 57, 1990), whose stages are
passes of the same stencil.  The buffers are made once per march.

Up to t = 320 dx^2 the schedule cuts each record interval into the fewest
equal explicit steps of at most dt = 0.4 dx^2 (FDSolverConfig.cfl, a
constant; _steps).  The diffusion coefficient is at most 1 and 0.4 <= 1/2, so
every such step is a convex combination of neighbours (Courant, Friedrichs &
Lewy 1928) and a discrete maximum principle holds.  The range of the initial
data is checked at every _CHECK_EVERY = 64-th explicit step counted from
t = 0, at the switch and at each record time, so an instability raises
SolverFailure near the step where it starts, not at the next record time.
After 320 dx^2 an explicit step costs more than it must, and the schedule
gives one super-step at a time: at time t it is at most 0.02 t long, and its
s stages cover about s^2 / 4 explicit steps (_stages), so reaching t takes
about 45 sqrt(t) / dx stages instead of 2.5 t / dx^2 steps.  The stages have
negative coefficients, so no discrete maximum principle is proved for them:
the range is checked after every super-step.  The switch time is where a super-step first replaces 16
explicit steps; every snapshot up to it is the explicit scheme's.

Even data are marched on half the grid.  When the grid has an odd number n of
nodes and u0 is exactly even on it (_even_centre, the one place that decides),
only nodes c..n-1, c = n // 2, are marched: the centre node is a mirror wall
with the same ghost-node rule as the walls at +-X, and each snapshot is the
half mirrored.  The heat twin transforms the same half, and curvature_heat_gap
takes its sup over the same nodes.  Every catalog datum the curvature flow
accepts is even.  The full-grid march keeps even data even only up to
rounding, because linspace nodes are not exactly antisymmetric; the half
grid's snapshots agree with it to that rounding (within 6e-15).  Other data,
and grids of even n, are marched whole (c = 0).

The heat twin stays the explicit scheme at every t, evaluated in closed form.
With mirror walls the step u <- u + r D is periodic on the even extension of
u of length M = 2(n - 1), so it is diagonal in the type-I cosine basis: mode k
is multiplied by lambda_k = 1 - 4 r sin^2(pi k / M) per step, and a record
interval of nsteps steps is one product by lambda_k^nsteps.  One real FFT of
the extension gives the modes, and one inverse FFT per record time gives the
snapshot; the values agree with the step-by-step march up to rounding.  At
r <= 0.4 every |lambda_k| <= 1, so the range is checked at the record times.
After 320 dx^2 the twin and the flow no longer share their time error, only
their spatial one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .initial_data import DecayClass, InitialDatum
from .kernels import DEFAULT_SPEC, QuadratureSpec, _count, _holdable, _positive
from .profile_bounds import two_sided_profile
from .semigroup import GridFunction, evolve_on_grid


# explicit steps between range checks, counted from t = 0; the switch and
# each record time are checked too
_CHECK_EVERY = 64

# an RKL2 super-step at time t is at most _ACCURACY * t long, and super-steps
# start once one of them replaces at least _SWITCH_STEPS explicit steps, at
# t = _SWITCH_STEPS * cfl dx^2 / _ACCURACY = 320 dx^2.  Super-steps of one
# size fail: s = 40 stages from t = 0 give a gap of 1.9e-2 at t = 1.
_ACCURACY = 0.02
_SWITCH_STEPS = 16


class SolverFailure(RuntimeError):
    """Raised when a solution leaves the initial-data range (instability)."""


@dataclass(frozen=True)
class FDSolverConfig:
    half_width: float
    dx: float
    t_final: float
    record_times: tuple[float, ...]

    # every step is at most cfl * dx^2 long; a constant, not a field
    cfl = 0.4

    def __post_init__(self) -> None:
        _positive("half_width", self.half_width)
        _positive("dx", self.dx)
        _positive("t_final", self.t_final)
        times = [_positive("record time", t) for t in self.record_times]
        if not times or times != sorted(times) or times[-1] > self.t_final:
            raise ValueError("record_times must be non-empty, increasing, up to horizon t_final")
        _holdable(f"half_width {self.half_width:g} and dx {self.dx:g}",
                  2.0 * self.half_width / self.dx + 1.0)
        if self._node_count() < 3:
            raise ValueError(
                f"half_width {self.half_width:g} and dx {self.dx:g} give fewer "
                f"than 3 grid nodes"
            )

    @property
    def buffer(self) -> float:
        """Width of the boundary-contaminated margin to exclude."""
        return 8.0 * math.sqrt(self.t_final)

    def _node_count(self) -> int:
        return int(round(2.0 * self.half_width / self.dx)) + 1

    def nodes(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self._node_count())


def _start(u0: InitialDatum, cfg: FDSolverConfig):
    """Grid, spacing, initial values u, the first marched node c and the range
    [lo, hi] that u must keep.  The march and the heat twin work on u[c:]."""
    xs = cfg.nodes()
    u = np.array(u0.eval(xs), dtype=float)
    c = _even_centre(u0, xs)
    return xs, xs[1] - xs[0], u, c, float(u.min()) - 1e-8, float(u.max()) + 1e-8


def _even_centre(u0: InitialDatum, xs: np.ndarray) -> int:
    """The centre node c = n // 2 when u0 is exactly even on the grid, else 0.

    Then only nodes c..n-1 need marching, with a mirror wall at c.  The datum
    is evaluated at -xs[c:], not compared with its own reversal: linspace
    nodes are not exactly antisymmetric, so u[::-1] differs from u by an ulp
    even for a Gaussian.  A grid of even n has no centre node.
    """
    c = len(xs) // 2
    if len(xs) % 2 and np.array_equal(u0.eval(-xs[c:]), u0.eval(xs[c:])):
        return c
    return 0


def _snapshot(xs: np.ndarray, w: np.ndarray, c: int) -> GridFunction:
    """The grid function of the values w marched from node c, mirrored about c."""
    return GridFunction(float(xs[0]), float(xs[-1]), len(xs), np.concatenate((w[c:0:-1], w)))


def _steps(t: float, end: float, dt_max: float) -> tuple[int, float]:
    """The fewest equal steps of at most dt_max from t to end: (nsteps, dt).

    dt_max carries the rounding of dx = xs[1] - xs[0], about ulp(X) / dx
    relative (7e-12 at X = 4000, dx = 0.025), so the guard that keeps a
    whole number of steps from taking one more is relative to the ratio.
    """
    nsteps = max(1, math.ceil((end - t) / dt_max * (1.0 - 1e-9)))
    return nsteps, (end - t) / nsteps


def _stages(tau: float, dt_max: float) -> int:
    """The fewest RKL2 stages s >= 2 with tau <= dt_max (s^2 + s - 2) / 4."""
    return max(2, math.ceil((math.sqrt(9.0 + 16.0 * tau / dt_max) - 1.0) / 2.0))


def _schedule(record_times, dt_max: float):
    """(tau, s, count, t, where, record) for each run of count equal steps of
    length tau in s stages, from t = 0 through every record time.

    Each run ends at a range check at time t; where names its last step and
    when the range is checked, and record tells whether t is a record time,
    where the march takes a snapshot.  This is the one place that decides
    both.  Up to the switch at _SWITCH_STEPS dt_max / _ACCURACY = 320 dx^2
    each record interval is the fewest equal explicit steps (s = 1, _steps),
    checked at every _CHECK_EVERY-th explicit step counted from t = 0, at the
    switch and at each record time; a record time within rounding of the
    switch is reached by them.  After it, each run is one RKL2 super-step,
    checked after it: _ACCURACY * t long or ending at the record time, with a
    rest shorter than two super-steps cut into two halves, so no sliver is
    left.  A repeated record time is a run of no steps.
    """
    switch = _SWITCH_STEPS * dt_max / _ACCURACY
    t, explicit, supers = 0.0, 0, 0
    for target in record_times:
        if t == target:
            yield dt_max, 1, 0, t, f"record time {t:g} repeated", True
        end = target if target <= switch * (1.0 + 1e-12) else switch
        if t < end:
            count, dt = _steps(t, end, dt_max)
            first, last = explicit, explicit + count
            while explicit < last:
                k = min(last, explicit - explicit % _CHECK_EVERY + _CHECK_EVERY)
                yield (dt, 1, k - explicit, end if k == last else t + (k - first) * dt,
                       f"explicit step {k} (range checked every {_CHECK_EVERY} steps, "
                       f"at the switch and at each record time", k == last and end == target)
                explicit = k
            t = end
        while t < target:
            tau = min(_ACCURACY * t, target - t)
            if tau < target - t < 2.0 * tau:
                tau = 0.5 * (target - t)
            t = target if tau == target - t else t + tau
            supers += 1
            s = _stages(tau, dt_max)
            # RKL2 stages have negative coefficients, so no discrete maximum
            # principle is proved for them
            yield (tau, s, 1, t, f"super-step {supers} (s = {s} stages, tau = {tau:.6g}) "
                   f"(range checked after every super-step", t == target)


def _check_range(u, lo, hi, t, where, dx, cfl) -> None:
    # where names the step and, after an open parenthesis, when the range is
    # checked; written so that a NaN fails the test as well
    if not (lo <= u.min() and u.max() <= hi):
        raise SolverFailure(
            f"solution left [{lo:.6g}, {hi:.6g}] at t = {t:g}, {where}; "
            f"range [{u.min():.6g}, {u.max():.6g}]); dx = {dx:g}, cfl = {cfl:g}"
        )


def _b(j: int) -> float:
    """RKL2's b_j = (j^2 + j - 2) / (2 j (j + 1)), and b_0 = b_1 = b_2 = 1/3."""
    return 1.0 / 3.0 if j < 2 else (j * j + j - 2) / (2.0 * j * (j + 1))


@functools.lru_cache(maxsize=256)
def _rkl2_table(s: int) -> tuple[tuple[float, float, float], ...]:
    """(mu_j, nu_j, (b_{j-1} - 1) mu_j) for the stages j = 2..s of RKL2."""
    rows = []
    for j in range(2, s + 1):
        mu = (2 * j - 1) / j * _b(j) / _b(j - 1)
        rows.append((mu, -(j - 1) / j * _b(j) / _b(j - 2), (_b(j - 1) - 1.0) * mu))
    return tuple(rows)


def _stepper(u: np.ndarray, dx: float):
    """step(tau, s, count): count steps of length tau in s stages on u, in place.

    Each step starts from F = w1 tau L(u), one pass of the stencil with
    r = w1 tau / dx^2.  s = 1 is the explicit Euler step u += F (w1 = 1).
    s >= 2 is the RKL2 super-step of Meyer, Balsara & Aslam (2014) from
    Y_0 = u, with w1 = 4 / (s^2 + s - 2):
        Y_1 = Y_0 + b_1 F,
        Y_j = mu_j (Y_{j-1} + w1 tau L(Y_{j-1}) - a_{j-1} F) + nu_j Y_{j-2}
              + (1 - mu_j - nu_j) Y_0,
    with a_j = 1 - b_j, mu_j = (2j - 1)/j b_j/b_{j-1} and
    nu_j = -(j - 1)/j b_j/b_{j-2}, and u becomes Y_s.  Each stage is one
    stencil pass with mu_j folded into r.  The stages carry Z_j = Y_j - Y_0,
    which stays exactly 0 for constant data.  The work buffers and their
    views are made here, once per march, and a run of count steps is one
    call with one set of stencil coefficients.
    """
    n = len(u)
    g, g0 = np.empty(n - 1), np.empty(n - 1)   # forward differences
    S = np.empty(n - 2)                         # doubled centered differences
    L, F = np.empty(n), np.empty(n)
    u_right, u_left, g_right, g_left, L_inner = u[1:], u[:-1], g[1:], g[:-1], L[1:-1]
    # (Z, Z[1:], Z[:-1]) for Z_{j-1} and Z_{j-2}
    Zs = [(Z, Z[1:], Z[:-1]) for Z in (np.empty(n), np.empty(n))]
    dx2 = dx * dx

    def coefficients(r: float) -> tuple[float, float, float]:
        inv_r = 1.0 / r
        return inv_r, inv_r / (4.0 * dx2), 2.0 * r

    def stencil(c: tuple[float, float, float]) -> None:
        # L = r dx^2 u_xx / (1 + u_x^2) = D / (1/r + S^2 / (4 dx^2 r)) from
        # the forward differences g; mirror ghost nodes give +-2 r g at the
        # walls.  c = coefficients(r), computed once per run of steps
        inv_r, slope, wall = c
        np.subtract(g_right, g_left, out=L_inner)
        np.add(g_right, g_left, out=S)
        np.multiply(S, S, out=S)
        np.multiply(S, slope, out=S)
        np.add(S, inv_r, out=S)
        np.divide(L_inner, S, out=L_inner)
        L[0], L[-1] = wall * g[0], -wall * g[-1]

    def stages(rho: float, s: int) -> np.ndarray:
        # Z_s of a super-step from F = L and the differences g of Y_0 = u
        np.copyto(g0, g)
        np.copyto(F, L)
        Z1, Z2 = Zs
        np.multiply(F, _b(1), out=Z1[0])
        Z2[0].fill(0.0)
        for mu, nu, gam in _rkl2_table(s):
            # the forward differences of Y_{j-1} = u + Z_{j-1}
            np.subtract(Z1[1], Z1[2], out=g)
            np.add(g, g0, out=g)
            stencil(coefficients(mu * rho))
            # Z_j = nu Z_{j-2} + mu rho L(Y_{j-1}) + mu Z_{j-1} + gam F, over Z_{j-2}
            Zj = Z2[0]
            np.multiply(Zj, nu, out=Zj)
            np.add(Zj, L, out=Zj)
            np.multiply(Z1[0], mu, out=L)
            np.add(Zj, L, out=Zj)
            np.multiply(F, gam, out=L)
            np.add(Zj, L, out=Zj)
            Z1, Z2 = Z2, Z1
        return Z1[0]

    def step(tau: float, s: int, count: int) -> None:
        rho = (1.0 if s == 1 else 4.0 / (s * s + s - 2)) * tau / dx2
        c = coefficients(rho)
        for _ in range(count):
            np.subtract(u_right, u_left, out=g)
            stencil(c)
            np.add(u, L if s == 1 else stages(rho, s), out=u)

    return step


def _march(u0: InitialDatum, cfg: FDSolverConfig) -> tuple[list[GridFunction], int]:
    """Curvature flow snapshots at cfg.record_times and the first marched node c."""
    if not u0.smooth:
        raise ValueError(
            f"curvature flow needs a twice-differentiable datum, got {u0.id}"
        )
    xs, dx, u, c, lo, hi = _start(u0, cfg)
    w = u[c:]  # even data: nodes c..n-1, with the centre as a mirror wall
    step = _stepper(w, dx)
    snapshots = []
    for tau, s, count, t, where, record in _schedule(cfg.record_times, cfg.cfl * dx * dx):
        step(tau, s, count)
        _check_range(w, lo, hi, t, where, dx, cfg.cfl)
        if record:
            snapshots.append(_snapshot(xs, w, c))
    return snapshots, c


def _eigen_powers(a: np.ndarray, steps: int) -> np.ndarray:
    """(1 - a)^steps elementwise, as sign^steps exp(steps log|1 - a|).

    log1p keeps the digits of a where 1 - a is near 1; there (1 - a)**steps
    would raise the rounding of 1 - a to the power steps.  For
    1/2 <= a <= 2, 1 - a is exact.
    """
    lam = 1.0 - a
    with np.errstate(divide="ignore"):
        log_abs = np.where(a < 0.5, np.log1p(-np.minimum(a, 0.5)), np.log(np.abs(lam)))
    out = np.exp(steps * log_abs)
    if steps % 2:
        out[lam < 0] *= -1.0
    return out


def solve_cf(u0: InitialDatum, cfg: FDSolverConfig) -> list[GridFunction]:
    """Curvature flow snapshots at cfg.record_times; requires a C^2 datum."""
    return _march(u0, cfg)[0]


def solve_heat_fd(u0: InitialDatum, cfg: FDSolverConfig) -> list[GridFunction]:
    """Linear heat snapshots of the explicit scheme of solve_cf, in closed form.

    Same grid, steps and mirror walls as solve_cf with u_xx alone; each
    record interval is one product by lambda_k^nsteps in the cosine basis.
    """
    xs, dx, u, c, lo, hi = _start(u0, cfg)
    # the constant part is an exact fixed point of every step, so only the
    # rest goes through the transform and constant data stays exact
    base = u[0]
    # even data: the half from the centre, whose extension is the full one's
    v = u[c:] - base
    n = len(v)
    m = 2 * (n - 1)
    # even extension about both walls; its transform is real up to rounding
    modes = np.fft.rfft(np.concatenate((v, v[-2:0:-1]))).real
    sin2 = np.sin(np.pi / m * np.arange(n)) ** 2

    snapshots = []
    step = 0
    t = 0.0
    for target in cfg.record_times:
        nsteps, dt = _steps(t, target, cfg.cfl * dx * dx)
        r = dt / (dx * dx)
        modes *= _eigen_powers(4.0 * r * sin2, nsteps)  # lambda_k = 1 - 4 r sin2_k
        step += nsteps
        snap = base + np.fft.irfft(modes, m)[:n]
        _check_range(snap, lo, hi, target,
                     f"explicit step {step} (range checked at each record time", dx, cfg.cfl)
        snapshots.append(_snapshot(xs, snap, c))
        t = target
    return snapshots


def curvature_heat_gap(
    u0: InitialDatum,
    cfg: FDSolverConfig,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> list[tuple[float, float]]:
    """Series of (t, sqrt(t) * sup |curvature flow - heat|) at recorded times.

    The heat reference is the quadrature semigroup, not the FD twin, so the
    reported gap is not contaminated by shared discretization error; it is
    certified to spec.abs_tol.  The sup runs over grid points at least
    8 sqrt(T) away from the walls.
    """
    xs = cfg.nodes()
    mask = np.abs(xs) <= cfg.half_width - cfg.buffer
    if not np.any(mask):
        raise ValueError("domain-of-influence buffer leaves no interior points")
    snaps, c = _march(u0, cfg)
    # for even data the snapshots are mirrored halves and the heat solution
    # is even, so the sup over the nodes from the centre on is the whole sup
    mask[:c] = False
    out = []
    for t, snap in zip(cfg.record_times, snaps):
        ref = evolve_on_grid(u0, xs[mask], t, spec)
        gap = math.sqrt(t) * float(np.max(np.abs(snap.values[mask] - ref)))
        out.append((t, gap))
    return out


def _spline(xs: np.ndarray, v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The not-a-knot cubic spline through v on the uniform grid xs, at x.

    Its second derivatives m satisfy m_{i-1} + 4 m_i + m_{i+1} = d_i =
    6 (v_{i-1} - 2 v_i + v_{i+1}) / h^2 at the inner nodes.  On a uniform
    grid not-a-knot is m_0 - 2 m_1 + m_2 = 0 at each end (de Boor, A
    Practical Guide to Splines, 1978, ch. IV), which turns the first and last
    rows into 6 m_1 = d_1 and 6 m_{n-2} = d_{n-2}.  The k = n - 4 (1, 4, 1)
    rows between them are diagonal in the type-I sine basis, with eigenvalues
    4 + 2 cos(pi j / (k + 1)) (Strang, SIAM Review 41, 1999), and each
    transform is one real FFT of the odd extension.  3 nodes give the
    parabola and 4 the single cubic.  Each point x uses its own interval's
    width, and points outside xs continue the end pieces.
    """
    n = len(xs)
    h = (xs[-1] - xs[0]) / (n - 1)
    d = (v[:-2] - 2.0 * v[1:-1] + v[2:]) * (6.0 / (h * h))
    m = np.empty(n)
    m[1:-1] = d / 6.0
    if n > 4:
        k = n - 4
        b = d[1:-1].copy()  # rows 2..n-3, with the known m_1 and m_{n-2} moved over
        b[0] -= m[1]
        b[-1] -= m[-2]
        sine = lambda y: np.fft.rfft(np.concatenate(([0.0], y, [0.0], -y[::-1]))).imag[1:-1]
        lam = 4.0 + 2.0 * np.cos(np.pi / (k + 1) * np.arange(1, k + 1))
        m[2:-2] = sine(sine(b) / lam) / (2.0 * (k + 1))
    m[0], m[-1] = (2.0 * m[1] - m[2], 2.0 * m[-2] - m[-3]) if n > 3 else (m[1], m[1])
    i = np.clip(np.searchsorted(xs, x, "right") - 1, 0, n - 2)
    w = xs[i + 1] - xs[i]
    p, q = (x - xs[i]) / w, (xs[i + 1] - x) / w
    return q * v[i] + p * v[i + 1] + w * w / 6.0 * (m[i] * (q**3 - q) + m[i + 1] * (p**3 - p))


def flow_profile_error(
    u0: InitialDatum,
    cfg: FDSolverConfig,
    L: float,
    t_ladder,
    n: int = 401,
) -> list[tuple[float, float]]:
    """Similarity profile error of the curvature flow along a time ladder.

    For each t the FD solution is resampled by its not-a-knot cubic spline
    (_spline) onto the similarity grid sqrt(t) * [-L, L] and compared
    against the two-sided profile; returns (t, sup_error) pairs.
    """
    _positive("L", L)
    _count("n", n, 3)
    if u0.decay_class is not DecayClass.DECAYS_AT_INFINITY:
        raise ValueError(
            f"profile comparison needs a datum whose slope functional decays "
            f"at infinity, got {u0.id}"
        )
    ladder = tuple(t_ladder)
    run_cfg = replace(cfg, record_times=ladder)
    for t in ladder:
        if math.sqrt(t) * L > cfg.half_width - cfg.buffer:
            raise ValueError(
                f"similarity window sqrt({t:g})*{L:g} reaches into the "
                f"boundary buffer; enlarge half_width"
            )
    snaps = solve_cf(u0, run_cfg)
    xs = run_cfg.nodes()
    zs = np.linspace(-L, L, n)
    out = []
    for t, snap in zip(ladder, snaps):
        st = math.sqrt(t)
        vals = _spline(xs, snap.values, st * zs)
        prof = two_sided_profile(u0, zs, t)
        out.append((t, float(np.max(np.abs(vals - prof)))))
    return out
