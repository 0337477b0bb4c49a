"""Explicit finite-difference solvers for the graph curvature flow
u_t = u_xx / (1 + u_x^2) and its linear twin u_t = u_xx.

Both use second-order centered differences, explicit Euler steps with
dt = cfl * dx^2 (the diffusion coefficient is at most 1, so the standard
parabolic stability bound applies and a discrete maximum principle holds),
and homogeneous Neumann walls at +-X.  Observation points stay inside a
domain-of-influence buffer of 8 sqrt(T) so wall effects are below tolerance.

One loop, `_march`, steps both flows in place.  Each step writes the forward
differences g of u, the second differences D = g[1:] - g[:-1] and, for the
curvature flow, S = g[1:] + g[:-1] into buffers allocated once per call, then
adds r D (heat) or D / (1/r + S^2 / (4 dx^2 r)) (curvature flow) to the
interior, with r = dt / dx^2; the mirror walls read g[0] and g[-1].  The
range of the initial data is checked every _CHECK_EVERY = 64 steps and on
the last step of each record interval, so an instability raises
SolverFailure near the step where it starts, not at the next record time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .initial_data import DecayClass, InitialDatum
from .kernels import DEFAULT_SPEC, QuadratureSpec
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
    cfl: float = 0.4

    def __post_init__(self) -> None:
        if self.dx <= 0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if not 0 < self.cfl <= 0.5:
            raise ValueError(f"cfl must lie in (0, 0.5], got {self.cfl}")
        if self.t_final <= 0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        times = tuple(self.record_times)
        if not times or list(times) != sorted(times) or times[0] <= 0:
            raise ValueError("record_times must be positive and increasing")
        if times[-1] > self.t_final:
            raise ValueError("record_times must not exceed t_final")

    @property
    def buffer(self) -> float:
        """Width of the boundary-contaminated margin to exclude."""
        return 8.0 * math.sqrt(self.t_final)

    def nodes(self) -> np.ndarray:
        n = int(round(2.0 * self.half_width / self.dx)) + 1
        return np.linspace(-self.half_width, self.half_width, n)


def _march(u0: InitialDatum, cfg: FDSolverConfig, nonlinear: bool) -> list[GridFunction]:
    xs = cfg.nodes()
    dx = xs[1] - xs[0]
    u = np.array(u0.eval(xs), dtype=float)
    lo = float(u.min()) - 1e-8
    hi = float(u.max()) + 1e-8
    dt_max = cfg.cfl * dx * dx
    # work buffers and the views the stencil reads and writes, made once
    g = np.empty(len(u) - 1)   # forward differences u[i+1] - u[i]
    D = np.empty(len(u) - 2)   # second differences
    S = np.empty(len(u) - 2)   # doubled centered differences (curvature flow)
    u_right, u_left, u_inner = u[1:], u[:-1], u[1:-1]
    g_right, g_left = g[1:], g[:-1]
    snapshots = []
    t = 0.0
    step = 0
    for target in cfg.record_times:
        nsteps = max(1, int(math.ceil((target - t) / dt_max - 1e-12)))
        dt = (target - t) / nsteps
        r = dt / (dx * dx)
        wall = 2.0 * r
        # u_xx / (1 + u_x^2) dt = D / (1/r + S^2 / (4 dx^2 r))
        inv_r = 1.0 / r
        slope_coef = inv_r / (4.0 * dx * dx)
        for k in range(1, nsteps + 1):
            np.subtract(u_right, u_left, out=g)
            np.subtract(g_right, g_left, out=D)
            if nonlinear:
                np.add(g_right, g_left, out=S)
                np.multiply(S, S, out=S)
                np.multiply(S, slope_coef, out=S)
                np.add(S, inv_r, out=S)
                np.divide(D, S, out=D)
            else:
                np.multiply(D, r, out=D)
            # mirror ghost nodes: zero-slope walls, from the pre-step differences
            u[0] += wall * g[0]
            u[-1] -= wall * g[-1]
            np.add(u_inner, D, out=u_inner)
            step += 1
            if step % _CHECK_EVERY == 0 or k == nsteps:
                # written so that a NaN fails the test as well
                if not (lo <= u.min() and u.max() <= hi):
                    t_check = target if k == nsteps else t + k * dt
                    raise SolverFailure(
                        f"solution left [{lo:.6g}, {hi:.6g}] at t = {t_check:g}, "
                        f"step {step} (range checked every {_CHECK_EVERY} steps "
                        f"and at each record time; range [{u.min():.6g}, "
                        f"{u.max():.6g}]); dx = {dx:g}, cfl = {cfg.cfl:g}"
                    )
        t = target
        snapshots.append(
            GridFunction(float(xs[0]), float(xs[-1]), len(xs), u.copy())
        )
    return snapshots


def solve_cf(u0: InitialDatum, cfg: FDSolverConfig) -> list[GridFunction]:
    """Curvature flow snapshots at cfg.record_times; requires a C^2 datum."""
    if not u0.smooth:
        raise ValueError(
            f"curvature flow needs a twice-differentiable datum, got {u0.id}"
        )
    return _march(u0, cfg, nonlinear=True)


def solve_heat_fd(u0: InitialDatum, cfg: FDSolverConfig) -> list[GridFunction]:
    """Linear heat snapshots with the identical grid, stepping, and walls."""
    return _march(u0, cfg, nonlinear=False)


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
    snaps = solve_cf(u0, cfg)
    xs = cfg.nodes()
    mask = np.abs(xs) <= cfg.half_width - cfg.buffer
    if not np.any(mask):
        raise ValueError("domain-of-influence buffer leaves no interior points")
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
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    if u0.decay_class is not DecayClass.DECAYS_AT_INFINITY:
        raise ValueError(
            f"profile comparison needs a datum whose slope functional decays "
            f"at infinity, got {u0.id}"
        )
    ladder = tuple(t_ladder)
    if any(t > cfg.t_final for t in ladder):
        raise ValueError("ladder times exceed the solver horizon t_final")
    # imported here: scipy.interpolate is the slowest import of the package,
    # and no other caller needs it
    from scipy.interpolate import CubicSpline

    run_cfg = replace(cfg, record_times=ladder)
    snaps = solve_cf(u0, run_cfg)
    xs = run_cfg.nodes()
    zs = np.linspace(-L, L, n)
    out = []
    for t, snap in zip(ladder, snaps):
        st = math.sqrt(t)
        if st * L > cfg.half_width - cfg.buffer:
            raise ValueError(
                f"similarity window sqrt({t:g})*{L:g} reaches into the "
                f"boundary buffer; enlarge half_width"
            )
        vals = CubicSpline(xs, snap.values)(st * zs)
        prof = two_sided_profile(u0, zs, t)
        out.append((t, float(np.max(np.abs(vals - prof)))))
    return out
