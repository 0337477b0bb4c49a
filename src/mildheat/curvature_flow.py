"""Explicit finite-difference solvers for the graph curvature flow
u_t = u_xx / (1 + u_x^2) and its linear twin u_t = u_xx.

Both use second-order centered differences, explicit Euler steps with
dt = cfl * dx^2 (the diffusion coefficient is at most 1, so the standard
parabolic stability bound applies and a discrete maximum principle holds),
and homogeneous Neumann walls at +-X.  Observation points stay inside a
domain-of-influence buffer of 8 sqrt(T) so wall effects are below tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.interpolate import CubicSpline

from .initial_data import DecayClass, InitialDatum
from .kernels import DEFAULT_SPEC, QuadratureSpec
from .profile_bounds import two_sided_profile
from .semigroup import GridFunction, evolve_on_grid


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
    u = np.asarray(u0.eval(xs), dtype=float).copy()
    lo = float(np.min(u)) - 1e-8
    hi = float(np.max(u)) + 1e-8
    dt_max = cfg.cfl * dx * dx
    snapshots = []
    t = 0.0
    for target in cfg.record_times:
        nsteps = max(1, int(math.ceil((target - t) / dt_max - 1e-12)))
        dt = (target - t) / nsteps
        for _ in range(nsteps):
            uxx = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
            if nonlinear:
                ux = (u[2:] - u[:-2]) / (2.0 * dx)
                uxx = uxx / (1.0 + ux * ux)
            unew = u.copy()
            unew[1:-1] += dt * uxx
            # mirror ghost nodes: zero-slope walls
            unew[0] += dt * 2.0 * (u[1] - u[0]) / (dx * dx)
            unew[-1] += dt * 2.0 * (u[-2] - u[-1]) / (dx * dx)
            u = unew
        t = target
        if not np.all(np.isfinite(u)) or np.min(u) < lo or np.max(u) > hi:
            raise SolverFailure(
                f"solution left [{lo:.6g}, {hi:.6g}] at t = {t:g} "
                f"(range [{np.min(u):.6g}, {np.max(u):.6g}]); "
                f"dx = {dx:g}, cfl = {cfg.cfl:g}"
            )
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
