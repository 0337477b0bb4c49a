"""Finite-difference solvers for the graph curvature flow
u_t = u_xx / (1 + u_x^2) and its linear twin u_t = u_xx.

Both use second-order centered differences and homogeneous Neumann walls at
+-X through mirror ghost nodes.  Observation points stay inside a
domain-of-influence buffer of 8 sqrt(T) so wall effects are below tolerance.

With mirror walls the heat stencil Delta_h u = (u_{i-1} - 2 u_i + u_{i+1}) /
dx^2 is periodic on the even extension of u of length M = 2(n - 1), so it is
diagonal in the type-I cosine basis (Strang, SIAM Review 41, 1999): mode k
has the eigenvalue mu_k = -4 sin^2(pi k / M) / dx^2.  One real FFT of the
extension gives the modes (_cosine) and one inverse FFT the values
(_cosine_inverse); both solvers use this one pair.

The curvature flow's stencil is the heat stencil plus a nonlinear term,
L_h u = Delta_h u + N(u), with N = -D S^2 / (dx^2 (4 dx^2 + S^2)) from
D = u_{i-1} - 2 u_i + u_{i+1} and S = u_{i+1} - u_{i-1} (_nonlinear_modes);
N is 0 at the mirror walls.  The march takes second-order exponential
time-differencing steps (ETDRK2; Cox & Matthews, J. Comput. Phys. 176, 2002)
on the cosine basis, exact in the heat part: mode by mode,
    a = e^{h mu} v + h phi1(h mu) N(v),
    v' = a + h phi2(h mu) (N(a) - N(v)),
with phi1(z) = (e^z - 1) / z and phi2(z) = (e^z - 1 - z) / z^2 (_phi; Kassam
& Trefethen, SIAM J. Sci. Comput. 26, 2005), two forward and two inverse
transforms a step.  The phi tables of the last two step lengths are kept,
so steps of one length share theirs.  One schedule (_schedule) alone decides
every step, range check and record: a step at time t is
max(_FIRST_STEP dx^2, _GROWTH t) long, and a rest of a record interval
shorter than two steps is one step, or two equal halves when it is longer
than one, so the last step lands on the record time and no sliver is left.
From t = 0 to 1e4 at dx = 0.1 that is 204 steps, where explicit steps of
0.4 dx^2 would be 2.5e6.  No discrete maximum principle is proved for ETD
steps, so the range of the initial data is checked after every step;
leaving it raises SolverFailure naming the step, its t and its h.

Even data are marched on half the grid.  When the grid has an odd number n of
nodes and u0 is exactly even on it (_even_centre, the one place that decides),
only nodes c..n-1, c = n // 2, are marched: the centre node is a mirror wall
with the same ghost-node rule as the walls at +-X, and each snapshot is the
half mirrored.  The heat twin transforms the same half, and curvature_heat_gap
takes its sup over the same nodes.  Every catalog datum the curvature flow
accepts is even.  Other data, and grids of even n, are marched whole (c = 0).

The heat twin stays the explicit scheme at every t, evaluated in closed form:
each record interval is cut into the fewest equal steps u <- u + dt Delta_h u
of at most dt = 0.4 dx^2 (FDSolverConfig.cfl, a constant; _steps), and each
step multiplies mode k by lambda_k = 1 + dt mu_k, so the interval is one
product by lambda_k^nsteps between the transforms; the values agree with the
step-by-step march up to rounding.  At dt <= 0.4 dx^2 every |lambda_k| <= 1,
so the range is checked at the record times.  The twin and the flow share
their spatial error, not their time error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .initial_data import DecayClass, InitialDatum
from .kernels import DEFAULT_SPEC, QuadratureSpec, _count, _holdable, _positive
from .profile_bounds import two_sided_profile
from .semigroup import GridFunction, evolve_on_grid


# the curvature flow's step at time t is max(_FIRST_STEP dx^2, _GROWTH t) long
_FIRST_STEP = 6.4
_GROWTH = 0.05


class SolverFailure(RuntimeError):
    """Raised when a solution leaves the initial-data range (instability)."""


@dataclass(frozen=True)
class FDSolverConfig:
    half_width: float
    dx: float
    t_final: float
    record_times: tuple[float, ...]

    # every step of the heat twin is at most cfl * dx^2 long; a constant, not
    # a field.  The curvature flow's steps follow _schedule.
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
        # both solvers form dx^2 and 4 / dx^2; a step of 0 would never end
        _positive("dx^2", self.dx * self.dx)
        _positive("4 / dx^2", 4.0 / (self.dx * self.dx))
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
    """Grid, spacing, the first marched node c, the range [lo, hi] that the
    solution must keep, and the marched values u[c:] as a constant base plus
    the rest v.  The constant part is an exact fixed point of both solvers, so
    only v goes through the transforms and constant data stay exact."""
    xs = cfg.nodes()
    u = np.array(u0.eval(xs), dtype=float)
    c = _even_centre(u0, xs)
    lo, hi = float(u.min()) - 1e-8, float(u.max()) + 1e-8
    return xs, xs[1] - xs[0], c, lo, hi, u[0], u[c:] - u[0]


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


def _cosine(v: np.ndarray) -> np.ndarray:
    """The type-I cosine modes of v: one real FFT of its even extension about
    both walls, whose transform is real up to rounding."""
    return np.fft.rfft(np.concatenate((v, v[-2:0:-1]))).real


def _cosine_inverse(modes: np.ndarray) -> np.ndarray:
    """The values whose _cosine modes are modes."""
    n = len(modes)
    return np.fft.irfft(modes, 2 * (n - 1))[:n]


def _sin2(n: int) -> np.ndarray:
    """sin^2(pi k / M), M = 2(n - 1): the heat stencil multiplies mode k by
    mu_k = -4 sin2_k / dx^2."""
    return np.sin(np.pi / (2 * (n - 1)) * np.arange(n)) ** 2


def _steps(t: float, end: float, dt_max: float) -> tuple[int, float]:
    """The fewest equal steps of at most dt_max from t to end: (nsteps, dt).

    dt_max carries the rounding of dx = xs[1] - xs[0], about ulp(X) / dx
    relative (7e-12 at X = 4000, dx = 0.025), so the guard that keeps a
    whole number of steps from taking one more is relative to the ratio.
    """
    nsteps = max(1, math.ceil((end - t) / dt_max * (1.0 - 1e-9)))
    return nsteps, (end - t) / nsteps


# phi2(z) = sum_k z^k / (k + 2)! for -1 < z <= 0, highest power first; the
# first term left out is below 1/19! = 8.2e-18, 2.2e-17 of phi2 >= 1/e
_PHI2_SERIES = np.array([1.0 / math.factorial(k + 2) for k in range(16, -1, -1)])


def _phi(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e^z, phi1(z) = (e^z - 1) / z and phi2(z) = (e^z - 1 - z) / z^2 for z <= 0.

    Near 0 the closed forms cancel: e^z - 1 - z is z^2 / 2 less the rounding
    of its terms.  For -1 < z <= 0, phi2 is its Taylor series and
    phi1 = 1 + z phi2; from z = -1 down, both are the closed forms through
    expm1, where the cancellation costs at most a factor e.
    """
    phi1, phi2 = np.empty_like(z), np.empty_like(z)
    small = z > -1.0
    zs, zb = z[small], z[~small]
    series = np.vander(zs, len(_PHI2_SERIES)) @ _PHI2_SERIES
    em1 = np.expm1(zb)
    phi1[small], phi2[small] = 1.0 + zs * series, series
    phi1[~small], phi2[~small] = em1 / zb, (em1 - zb) / zb / zb
    return np.exp(z), phi1, phi2


def _nonlinear_modes(n: int, dx: float):
    """modes(v): the _cosine modes of -dx^2 N(v) on n nodes, where
    N(v) = L_h v - Delta_h v is the curvature flow's stencil less the heat
    stencil; N is 0 at the mirror walls.

    Inside, with D = v_{i-1} - 2 v_i + v_{i+1} and S = v_{i+1} - v_{i-1},
    L_h v = D / (dx^2 (1 + S^2 / (4 dx^2))), so -dx^2 N = D S^2 / (4 dx^2 + S^2);
    the march folds the factor -1/dx^2 into its phi tables.  The buffer of
    the values, 0 at the walls, is made once per march.
    """
    out = np.zeros(n)
    inside, four_dx2 = out[1:-1], 4.0 * dx * dx

    def modes(v: np.ndarray) -> np.ndarray:
        g = v[1:] - v[:-1]
        D = g[1:] - g[:-1]
        S = g[1:] + g[:-1]
        S *= S
        D *= S
        S += four_dx2
        np.divide(D, S, out=inside)
        return _cosine(out)

    return modes


def _schedule(record_times, dx: float):
    """(h, t, where, record) for each ETD step of length h, from t = 0 through
    every record time: the step ends at time t, where() names it, and record
    tells whether t is a record time, where the march takes a snapshot.

    This is the one place that decides the steps, the range checks and the
    records.  A step at time t is max(_FIRST_STEP dx^2, _GROWTH t) long; a
    rest of the record interval shorter than two such steps is one step, or
    two equal ones when it is longer than one, so no sliver is left and the
    last step ends on the record time.  The range is checked after every
    step.  A repeated record time is a step of h = 0.  where is called only
    when the range check fails, so a march that succeeds formats no text.
    """
    first = _FIRST_STEP * dx * dx
    t, steps = 0.0, 0
    for target in record_times:
        if t == target:
            yield 0.0, t, lambda t=t: f"record time {t:g} repeated", True
        while t < target:
            h = max(first, _GROWTH * t)
            rest = target - t
            ends = (t + h,)
            if rest < 2.0 * h:
                h = rest if rest <= h else 0.5 * rest
                ends = (target,) if h == rest else (t + h, target)
            for t in ends:
                steps += 1
                yield (h, t, lambda k=steps, h=h:
                       f"ETD step {k} (h = {h:.6g}; range checked after every step)",
                       t == target)


def _check_range(u, lo, hi, t, where, dx) -> None:
    # where() names the step and when the range is checked; written so that
    # a NaN fails the test as well
    if not (lo <= u.min() and u.max() <= hi):
        raise SolverFailure(
            f"solution left [{lo:.6g}, {hi:.6g}] at t = {t:g}, {where()}: "
            f"range [{u.min():.6g}, {u.max():.6g}], dx = {dx:g}"
        )


def _march(u0: InitialDatum, cfg: FDSolverConfig) -> tuple[list[GridFunction], int]:
    """Curvature flow snapshots at cfg.record_times and the first marched node c."""
    if not u0.smooth:
        raise ValueError(
            f"curvature flow needs a twice-differentiable datum, got {u0.id}"
        )
    # even data: nodes c..n-1, with the centre as a mirror wall
    xs, dx, c, lo, hi, base, v = _start(u0, cfg)
    scale = -1.0 / (dx * dx)
    mu = _sin2(len(v)) * (4.0 * scale)
    nonlinear = _nonlinear_modes(len(v), dx)
    modes = _cosine(v)
    # (e^{h mu}, -h phi1(h mu) / dx^2, -h phi2(h mu) / dx^2) of the last two
    # step lengths, so that a record time's landing steps and the steps
    # around them do not recompute theirs
    tables = {}
    snapshots = []
    for h, t, where, record in _schedule(cfg.record_times, dx):
        if h:
            table = tables.pop(h, None)
            if table is None:
                e, phi1, phi2 = _phi(h * mu)
                table = e, (h * scale) * phi1, (h * scale) * phi2
            tables[h] = table
            if len(tables) > 2:
                del tables[next(iter(tables))]
            e, h_phi1, h_phi2 = table
            n_v = nonlinear(v)
            a = e * modes + h_phi1 * n_v
            modes = a + h_phi2 * (nonlinear(_cosine_inverse(a)) - n_v)
            v = _cosine_inverse(modes)
        w = base + v
        _check_range(w, lo, hi, t, where, dx)
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
    """Linear heat snapshots of the explicit scheme, in closed form.

    Same grid and mirror walls as solve_cf; each record interval is the
    fewest equal steps of at most cfl dx^2, one product by lambda_k^nsteps
    in the cosine basis.
    """
    xs, dx, c, lo, hi, base, v = _start(u0, cfg)
    modes = _cosine(v)
    sin2 = _sin2(len(v))
    snapshots = []
    step = 0
    t = 0.0
    for target in cfg.record_times:
        nsteps, dt = _steps(t, target, cfg.cfl * dx * dx)
        r = dt / (dx * dx)
        modes *= _eigen_powers(4.0 * r * sin2, nsteps)  # lambda_k = 1 + dt mu_k
        step += nsteps
        snap = base + _cosine_inverse(modes)
        _check_range(snap, lo, hi, target, lambda: f"explicit step {step} (dt = {dt:.6g}; "
                     f"range checked at each record time)", dx)
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
