"""Explicit finite-difference solvers for the graph curvature flow
u_t = u_xx / (1 + u_x^2) and its linear twin u_t = u_xx.

Both are the same scheme: second-order centered differences, explicit Euler
steps of at most dt = 0.4 dx^2 (FDSolverConfig.cfl, a constant), and
homogeneous Neumann walls at +-X through mirror ghost nodes.  The diffusion
coefficient is at most 1 and 0.4 <= 1/2, so every step is a convex
combination of neighbours (Courant, Friedrichs & Lewy 1928) and a discrete
maximum principle holds.  Each record interval is cut into the fewest equal
steps of at most 0.4 dx^2 (_intervals).  Observation points stay inside a
domain-of-influence buffer of 8 sqrt(T) so wall effects are below tolerance.

The curvature flow is marched in place by `_march`.  Each step writes the
forward differences g of u, the second differences D = g[1:] - g[:-1] and
S = g[1:] + g[:-1] into buffers allocated once per call, then adds
D / (1/r + S^2 / (4 dx^2 r)) to the interior, with r = dt / dx^2; the mirror
walls read g[0] and g[-1].  The range of the initial data is checked every
_CHECK_EVERY = 64 steps and on the last step of each record interval, so an
instability raises SolverFailure near the step where it starts, not at the
next record time.

The heat twin is the same explicit scheme evaluated in closed form.  With
mirror walls the step u <- u + r D is periodic on the even extension of u of
length M = 2(n - 1), so it is diagonal in the type-I cosine basis: mode k is
multiplied by lambda_k = 1 - 4 r sin^2(pi k / M) per step, and a record
interval of nsteps steps is one product by lambda_k^nsteps.  One real FFT of
the extension gives the modes, and one inverse FFT per record time gives the
snapshot; the values agree with the step-by-step march up to rounding.  At
r <= 0.4 every |lambda_k| <= 1, so the range is checked at the record times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .initial_data import DecayClass, InitialDatum
from .kernels import DEFAULT_SPEC, QuadratureSpec, _positive
from .profile_bounds import two_sided_profile
from .semigroup import GridFunction, evolve_on_grid


# steps between range checks inside a record interval; the last step of each
# interval is always checked
_CHECK_EVERY = 64


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
    """Grid, spacing, initial values and the range [lo, hi] they must keep."""
    xs = cfg.nodes()
    u = np.array(u0.eval(xs), dtype=float)
    return xs, xs[1] - xs[0], u, float(u.min()) - 1e-8, float(u.max()) + 1e-8


def _intervals(cfg: FDSolverConfig, dx: float):
    """(t, target, nsteps, dt, r) for each record interval [t, target]."""
    dt_max = cfg.cfl * dx * dx
    t = 0.0
    for target in cfg.record_times:
        nsteps = max(1, int(math.ceil((target - t) / dt_max - 1e-12)))
        dt = (target - t) / nsteps
        yield t, target, nsteps, dt, dt / (dx * dx)
        t = target


def _check_range(u, lo, hi, t, step, dx, cfl,
                 checked=f"every {_CHECK_EVERY} steps and at each record time") -> None:
    # written so that a NaN fails the test as well
    if not (lo <= u.min() and u.max() <= hi):
        raise SolverFailure(
            f"solution left [{lo:.6g}, {hi:.6g}] at t = {t:g}, "
            f"step {step} (range checked {checked}; range [{u.min():.6g}, "
            f"{u.max():.6g}]); dx = {dx:g}, cfl = {cfl:g}"
        )


def _march(u0: InitialDatum, cfg: FDSolverConfig) -> list[GridFunction]:
    xs, dx, u, lo, hi = _start(u0, cfg)
    # work buffers and the views the stencil reads and writes, made once
    g = np.empty(len(u) - 1)   # forward differences u[i+1] - u[i]
    D = np.empty(len(u) - 2)   # second differences
    S = np.empty(len(u) - 2)   # doubled centered differences
    u_right, u_left, u_inner = u[1:], u[:-1], u[1:-1]
    g_right, g_left = g[1:], g[:-1]
    snapshots = []
    step = 0
    for t, target, nsteps, dt, r in _intervals(cfg, dx):
        wall = 2.0 * r
        # u_xx / (1 + u_x^2) dt = D / (1/r + S^2 / (4 dx^2 r))
        inv_r = 1.0 / r
        slope_coef = inv_r / (4.0 * dx * dx)
        for k in range(1, nsteps + 1):
            np.subtract(u_right, u_left, out=g)
            np.subtract(g_right, g_left, out=D)
            np.add(g_right, g_left, out=S)
            np.multiply(S, S, out=S)
            np.multiply(S, slope_coef, out=S)
            np.add(S, inv_r, out=S)
            np.divide(D, S, out=D)
            # mirror ghost nodes: zero-slope walls, from the pre-step differences
            u[0] += wall * g[0]
            u[-1] -= wall * g[-1]
            np.add(u_inner, D, out=u_inner)
            step += 1
            if step % _CHECK_EVERY == 0 or k == nsteps:
                t_check = target if k == nsteps else t + k * dt
                _check_range(u, lo, hi, t_check, step, dx, cfg.cfl)
        snapshots.append(
            GridFunction(float(xs[0]), float(xs[-1]), len(xs), u.copy())
        )
    return snapshots


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
    if not u0.smooth:
        raise ValueError(
            f"curvature flow needs a twice-differentiable datum, got {u0.id}"
        )
    return _march(u0, cfg)


def solve_heat_fd(u0: InitialDatum, cfg: FDSolverConfig) -> list[GridFunction]:
    """Linear heat snapshots of the explicit scheme of solve_cf, in closed form.

    Same grid, steps and mirror walls as solve_cf with u_xx alone; each
    record interval is one product by lambda_k^nsteps in the cosine basis.
    """
    xs, dx, u, lo, hi = _start(u0, cfg)
    n = len(u)
    m = 2 * (n - 1)
    # the constant part is an exact fixed point of every step, so only the
    # rest goes through the transform and constant data stays exact
    base = u[0]
    v = u - base
    # even extension about both walls; its transform is real up to rounding
    modes = np.fft.rfft(np.concatenate((v, v[-2:0:-1]))).real
    sin2 = np.sin(np.pi / m * np.arange(n)) ** 2

    snapshots = []
    step = 0
    for _, target, nsteps, _, r in _intervals(cfg, dx):
        modes *= _eigen_powers(4.0 * r * sin2, nsteps)  # lambda_k = 1 - 4 r sin2_k
        step += nsteps
        snap = base + np.fft.irfft(modes, m)[:n]
        _check_range(snap, lo, hi, target, step, dx, cfg.cfl, "at each record time")
        snapshots.append(GridFunction(float(xs[0]), float(xs[-1]), n, snap))
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
    snaps = solve_cf(u0, cfg)
    out = []
    for t, snap in zip(cfg.record_times, snaps):
        ref = evolve_on_grid(u0, xs[mask], t, spec)
        gap = math.sqrt(t) * float(np.max(np.abs(snap.values[mask] - ref)))
        out.append((t, gap))
    return out


def flow_profile_error(
    u0: InitialDatum,
    cfg: FDSolverConfig,
    L: float,
    t_ladder,
    n: int = 401,
) -> list[tuple[float, float]]:
    """Similarity profile error of the curvature flow along a time ladder.

    For each t the FD solution is resampled by cubic interpolation onto the
    similarity grid sqrt(t) * [-L, L] and compared against the two-sided
    profile; returns (t, sup_error) pairs.
    """
    _positive("L", L)
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
    # imported here: scipy.interpolate is the slowest import of the package,
    # and no other caller needs it
    from scipy.interpolate import CubicSpline

    snaps = solve_cf(u0, run_cfg)
    xs = run_cfg.nodes()
    zs = np.linspace(-L, L, n)
    out = []
    for t, snap in zip(ladder, snaps):
        st = math.sqrt(t)
        vals = CubicSpline(xs, snap.values)(st * zs)
        prof = two_sided_profile(u0, zs, t)
        out.append((t, float(np.max(np.abs(vals - prof)))))
    return out
