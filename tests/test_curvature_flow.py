import dataclasses
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from mildheat import curvature_flow
from mildheat.curvature_flow import (
    FDSolverConfig,
    SolverFailure,
    curvature_heat_gap,
    flow_profile_error,
    solve_cf,
    solve_heat_fd,
)
from mildheat.initial_data import (
    make_constant,
    make_gaussian,
    make_smooth_log_sine,
    make_step,
)
from mildheat.profile_bounds import two_sided_profile


def _cfg(**kw):
    base = dict(half_width=16.0, dx=0.1, t_final=1.0, record_times=(1.0,))
    base.update(kw)
    return FDSolverConfig(**base)


class TestFDSolverConfig:
    def test_nodes(self):
        cfg = _cfg(half_width=1.0, dx=0.5)
        assert np.allclose(cfg.nodes(), [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_buffer_scales_with_horizon(self):
        assert _cfg(t_final=4.0, record_times=(4.0,)).buffer == 16.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _cfg(dx=0.0)
        with pytest.raises(ValueError):
            _cfg(cfl=0.6)
        with pytest.raises(ValueError):
            _cfg(record_times=())
        with pytest.raises(ValueError):
            _cfg(record_times=(2.0, 1.0))
        with pytest.raises(ValueError):
            _cfg(record_times=(2.0,))  # beyond t_final


@pytest.mark.parametrize(
    "bad",
    [
        dict(half_width=math.nan),
        dict(half_width=math.inf),
        dict(half_width=0.0),
        dict(half_width=-1.0),
        dict(dx=math.nan),
        dict(dx=math.inf),
        dict(t_final=math.nan, record_times=(1.0,)),
        dict(t_final=math.inf),
        dict(record_times=(math.nan,)),
        dict(record_times=(0.5, math.nan)),
        dict(half_width=0.01, dx=0.1),  # one node
        dict(half_width=0.1, dx=0.15),  # two nodes
    ],
    ids=["half_width-nan", "half_width-inf", "half_width-zero", "half_width-negative",
         "dx-nan", "dx-inf", "t_final-nan", "t_final-inf", "record-nan",
         "record-late-nan", "one-node", "two-nodes"],
)
def test_config_rejects_non_finite_or_degenerate_grids(bad):
    with pytest.raises(ValueError):
        _cfg(**bad)


class TestSolvers:
    def test_constant_is_exact_for_both(self):
        u = make_constant(0.5)
        cfg = _cfg(record_times=(0.3, 1.0))
        for solver in (solve_cf, solve_heat_fd):
            for snap in solver(u, cfg):
                assert np.array_equal(snap.values, np.full(snap.n, 0.5))

    def test_heat_fd_second_order(self):
        # halving dx divides the error against the closed form by about 4
        u = make_gaussian(1.0)
        errs = []
        for dx in (0.2, 0.1):
            cfg = _cfg(half_width=16.0, dx=dx)
            snap = solve_heat_fd(u, cfg)[0]
            xs = snap.nodes()
            exact = math.sqrt(0.5) * np.exp(-xs ** 2 / 8.0)
            errs.append(float(np.max(np.abs(snap.values - exact))))
        assert 3.0 < errs[0] / errs[1] < 5.0

    def test_discrete_maximum_principle(self):
        u = make_smooth_log_sine(1.0)
        cfg = _cfg(half_width=30.0, t_final=2.0, record_times=(0.5, 1.0, 2.0))
        for solver in (solve_cf, solve_heat_fd):
            for snap in solver(u, cfg):
                assert np.max(snap.values) <= 1.0 + 1e-12
                assert np.min(snap.values) >= -1.0 - 1e-12

    def test_nonlinear_close_to_linear_for_flat_data(self):
        # slopes of order 0.4 make the curvature correction small but nonzero
        u = make_gaussian(4.0)
        cfg = _cfg(half_width=20.0)
        cf = solve_cf(u, cfg)[0].values
        heat = solve_heat_fd(u, cfg)[0].values
        gap = float(np.max(np.abs(cf - heat)))
        assert 0.0 < gap < 0.02

    def test_curvature_flow_rejects_kinked_data(self):
        with pytest.raises(ValueError, match="twice-differentiable"):
            solve_cf(make_step(0.0, 1.0), _cfg())


def _reference_march(u0, cfg, nonlinear):
    """Explicit Euler march that allocates a new array each step."""
    xs = cfg.nodes()
    dx = xs[1] - xs[0]
    u = np.asarray(u0.eval(xs), dtype=float).copy()
    dt_max = cfg.cfl * dx * dx
    out = []
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
        out.append(u.copy())
    return out


class TestInPlaceMarch:
    # record times that are not multiples of dt_max = 0.4 * 0.1^2 = 0.004
    CFG = dict(half_width=4.0, dx=0.1, t_final=0.5, record_times=(0.1371, 0.5))

    @pytest.mark.parametrize(
        "solver, nonlinear, datum",
        [
            (solve_heat_fd, False, make_gaussian(0.2)),
            (solve_cf, True, make_gaussian(0.2)),
            (solve_cf, True, make_smooth_log_sine(1.0)),
        ],
    )
    def test_matches_allocating_reference(self, solver, nonlinear, datum):
        cfg = _cfg(**self.CFG)
        snaps = solver(datum, cfg)
        refs = _reference_march(datum, cfg, nonlinear)
        assert len(snaps) == len(refs) == 2
        for snap, ref in zip(snaps, refs):
            assert np.max(np.abs(snap.values - ref)) <= 1e-13

    def test_snapshots_do_not_alias_work_buffers(self):
        u = make_gaussian(0.2)
        both = _cfg(**self.CFG)
        first = dataclasses.replace(both, record_times=both.record_times[:1])
        for solver in (solve_cf, solve_heat_fd):
            early, late = solver(u, both)
            assert np.array_equal(early.values, solver(u, first)[0].values)
            assert not np.shares_memory(early.values, late.values)


def _cosine_mode(cfg, k):
    """The datum cos(pi k (x + X) / (2X)): the k-th DCT-I mode on the grid."""
    X = cfg.half_width
    return dataclasses.replace(
        make_constant(0.0),
        id=f"dct_mode:{k}",
        eval=lambda x: np.cos(math.pi * k * (np.asarray(x) + X) / (2.0 * X)),
    )


class TestHeatClosedForm:
    # each DCT-I mode of the mirror-wall grid is an eigenvector of one
    # explicit heat step, with eigenvalue 1 - 4 r sin^2(pi k / (2 (n - 1)))
    CFG = dict(half_width=4.0, dx=0.1, t_final=0.5, record_times=(0.1371, 0.5))

    @pytest.mark.parametrize("k", [0, 1, 7, 40, 79, 80])
    def test_cosine_mode_decays_by_its_eigenvalue(self, k):
        cfg = _cfg(**self.CFG)
        mode = _cosine_mode(cfg, k)
        xs = cfg.nodes()
        n = len(xs)
        dx = xs[1] - xs[0]
        sin2 = math.sin(math.pi * k / (2 * (n - 1))) ** 2
        snaps = solve_heat_fd(mode, cfg)
        factor = 1.0
        t = 0.0
        rs = []
        for target, snap in zip(cfg.record_times, snaps):
            nsteps = math.ceil((target - t) / (cfg.cfl * dx * dx))
            r = (target - t) / nsteps / (dx * dx)
            factor *= (1.0 - 4.0 * r * sin2) ** nsteps
            rs.append(r)
            t = target
            want = factor * mode.eval(xs)
            assert np.max(np.abs(snap.values - want)) <= 1e-13
        assert rs[0] != rs[1]

    def test_slow_mode_over_many_steps(self):
        # 25,001 steps of the slowest mode, lambda^n near 1/e: the rounding
        # of 1 - a raised to the n-th power would miss by 5e-13 here, so
        # the reference power is taken in 50-digit decimals
        cfg = _cfg(half_width=16.0, t_final=100.0, record_times=(100.0,))
        mode = _cosine_mode(cfg, 1)
        xs = cfg.nodes()
        dx = xs[1] - xs[0]
        nsteps = math.ceil(100.0 / (cfg.cfl * dx * dx))
        r = 100.0 / nsteps / (dx * dx)
        sin2 = math.sin(math.pi / (2 * (len(xs) - 1))) ** 2
        with localcontext() as ctx:
            ctx.prec = 50
            factor = float((1 - 4 * Decimal(r) * Decimal(sin2)) ** nsteps)
        assert nsteps > 25_000 and 0.3 < factor < 0.5
        snap = solve_heat_fd(mode, cfg)[0]
        assert np.max(np.abs(snap.values - factor * mode.eval(xs))) <= 1e-13


class TestCurvatureHeatGap:
    def test_gap_series(self):
        u = make_smooth_log_sine(1.0)
        cfg = _cfg(half_width=60.0, dx=0.2, t_final=3.0, record_times=(1.0, 3.0))
        gaps = curvature_heat_gap(u, cfg)
        assert [t for t, _ in gaps] == [1.0, 3.0]
        assert all(0.0 < g < 1.0 for _, g in gaps)

    def test_buffer_must_leave_interior(self):
        u = make_smooth_log_sine(1.0)
        cfg = _cfg(half_width=4.0, t_final=1.0, record_times=(1.0,))
        with pytest.raises(ValueError, match="buffer"):
            curvature_heat_gap(u, cfg)


class TestFlowProfileError:
    def test_requires_decaying_slope(self):
        u = make_smooth_log_sine(1.0)  # bounded slope functional, no decay
        with pytest.raises(ValueError, match="decays"):
            flow_profile_error(u, _cfg(), 4.0, (1.0,))

    def test_ladder_beyond_horizon(self):
        u = make_smooth_log_sine(0.5)
        with pytest.raises(ValueError, match="horizon"):
            flow_profile_error(u, _cfg(), 4.0, (5.0,))

    def test_window_inside_buffer(self):
        u = make_smooth_log_sine(0.5)
        cfg = _cfg(half_width=10.0, t_final=1.0, record_times=(1.0,))
        with pytest.raises(ValueError, match="buffer"):
            flow_profile_error(u, cfg, 4.0, (1.0,))

    def test_reports_bounded_errors(self):
        u = make_smooth_log_sine(0.5)
        cfg = _cfg(half_width=40.0, dx=0.2, t_final=4.0, record_times=(4.0,))
        errs = flow_profile_error(u, cfg, 4.0, (1.0, 4.0), n=101)
        assert len(errs) == 2
        assert all(0.0 <= e < 2.0 for _, e in errs)

    def test_profile_equals_pointwise_two_sided_profile(self):
        # the reference profile is built on the whole grid at once and must
        # equal the per-point two_sided_profile values exactly
        u = make_smooth_log_sine(0.5)
        cfg = _cfg(half_width=40.0, dx=0.2, t_final=4.0, record_times=(4.0,))
        ladder = (1.0, 4.0)
        zs = np.linspace(-4.0, 4.0, 101)
        errs = flow_profile_error(u, cfg, 4.0, ladder, n=101)
        snaps = solve_cf(u, dataclasses.replace(cfg, record_times=ladder))
        for (t, err), snap in zip(errs, snaps):
            prof = np.array([two_sided_profile(u, float(z), t) for z in zs])
            assert np.array_equal(two_sided_profile(u, zs, t), prof)
            vals = CubicSpline(cfg.nodes(), snap.values)(math.sqrt(t) * zs)
            assert err == float(np.max(np.abs(vals - prof)))


@pytest.mark.parametrize(
    "call",
    [
        # windows 8, 16, 32 against 80 - 8 sqrt(64) = 16: only t = 64 fails
        lambda u: flow_profile_error(
            u, _cfg(half_width=80.0, t_final=64.0, record_times=(64.0,)), 4.0,
            (4.0, 16.0, 64.0)),
        # the buffer 8 sqrt(100) = 80 covers the whole half-width 60
        lambda u: curvature_heat_gap(
            u, _cfg(half_width=60.0, t_final=100.0, record_times=(1.0, 100.0))),
    ],
    ids=["flow_profile_error", "curvature_heat_gap"],
)
def test_buffer_is_checked_before_marching(monkeypatch, call):
    def no_march(*args):
        raise AssertionError("solve_cf was called")

    monkeypatch.setattr(curvature_flow, "solve_cf", no_march)
    with pytest.raises(ValueError, match="buffer"):
        call(make_smooth_log_sine(0.5))


class TestSolverFailure:
    def test_range_escape_is_reported(self):
        # an unstable marching setup must raise, not return garbage
        cfg = _cfg()
        object.__setattr__(cfg, "cfl", 0.9)  # bypass the guard to force blow-up
        with pytest.raises(SolverFailure) as info:
            solve_heat_fd(make_gaussian(0.05), cfg)
        # the range is checked every 64 steps, so the blow-up is reported
        # well before the only record time, t = 1
        msg = str(info.value)
        t = float(re.search(r"at t = (\S+),", msg).group(1))
        step = int(re.search(r"step (\d+) ", msg).group(1))
        assert t < 1.0
        assert step % 64 == 0
        assert "every 64 steps" in msg
