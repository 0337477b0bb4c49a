import dataclasses
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.polynomial import legendre
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
    make_log_sine,
    make_smooth_log_sine,
    make_step,
)
from mildheat.kernels import DEFAULT_SPEC
from mildheat.profile_bounds import two_sided_profile
from mildheat.semigroup import evolve_on_grid


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

    def test_cfl_is_a_constant_not_a_field(self):
        # dt <= 0.4 dx^2 for every config; the number is not an option
        fields = [f.name for f in dataclasses.fields(FDSolverConfig)]
        assert fields == ["half_width", "dx", "t_final", "record_times"]
        assert FDSolverConfig.cfl == _cfg().cfl == 0.4
        with pytest.raises(TypeError):
            _cfg(cfl=0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            _cfg(dx=0.0)
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
        # past 320 dx^2 = 3.2 the curvature flow takes RKL2 super-steps
        for cfg in (_cfg(record_times=(0.3, 1.0)),
                    _cfg(half_width=40.0, t_final=100.0, record_times=(10.0, 100.0))):
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

    def test_repeated_record_time_repeats_its_snapshot(self):
        # record times need only be non-decreasing; 1 is before the switch
        # at 320 dx^2 = 3.2 and 5 after it
        u = make_gaussian(1.0)
        once = solve_cf(u, _cfg(half_width=4.0, t_final=5.0, record_times=(1.0, 5.0)))
        twice = solve_cf(u, _cfg(half_width=4.0, t_final=5.0, record_times=(1.0, 1.0, 5.0, 5.0)))
        assert len(twice) == 4
        for snap, want in zip(twice, [once[0], once[0], once[1], once[1]]):
            assert np.array_equal(snap.values, want.values)

    def test_curvature_flow_rejects_kinked_data(self):
        with pytest.raises(ValueError, match="twice-differentiable"):
            solve_cf(make_step(0.0, 1.0), _cfg())
        # log_sine is undefined at x = 0: the gap checks smoothness before
        # it evaluates the datum
        with pytest.raises(ValueError, match="twice-differentiable"):
            curvature_heat_gap(make_log_sine(), _cfg())


@pytest.mark.parametrize(
    "half_width, t, nsteps",
    [(16.0, 1.0, 250), (200.0, 1.5, 375), (120.0, 3.0, 750), (120.0, 64.0, 16_000)],
)
def test_whole_step_counts_take_no_extra_step(half_width, t, nsteps):
    # dx = xs[1] - xs[0] comes out a few ulps below 0.1 on these grids, so
    # t / (0.4 dx^2) lies a few ulps above the whole number nsteps
    xs = _cfg(half_width=half_width, t_final=t, record_times=(t,)).nodes()
    dt_max = 0.4 * (xs[1] - xs[0]) ** 2
    assert nsteps < t / dt_max < nsteps * (1.0 + 1e-12)
    assert curvature_flow._steps(0.0, t, dt_max) == (nsteps, t / nsteps)


def _reference_march(u0, cfg, nonlinear):
    """Explicit Euler march that allocates a new array each step."""
    xs = cfg.nodes()
    dx = xs[1] - xs[0]
    u = np.asarray(u0.eval(xs), dtype=float).copy()
    dt_max = cfg.cfl * dx * dx
    out = []
    t = 0.0
    for target in cfg.record_times:
        nsteps = max(1, math.ceil((target - t) / dt_max * (1.0 - 1e-9)))
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
    """The datum cos(pi k (x + X) / (2X)): the k-th DCT-I mode on the grid.

    For even k it is even in x, but bit for bit only where its node values
    are +-1 (k = 0 and k = n - 1), so the solvers march the other modes on
    the full grid.
    """
    X = cfg.half_width
    return dataclasses.replace(
        make_constant(0.0),
        id=f"dct_mode:{k}",
        eval=lambda x: np.cos(math.pi * k * (np.asarray(x) + X) / (2.0 * X)),
    )


def _even_cosine_mode(cfg, k):
    """The same mode for even k as (-1)^(k/2) cos(pi k x / (2X)), even bit for bit."""
    X = cfg.half_width
    sign = -1.0 if k % 4 else 1.0
    return dataclasses.replace(
        make_constant(0.0),
        id=f"even_dct_mode:{k}",
        eval=lambda x: sign * np.cos(math.pi * k * np.asarray(x) / (2.0 * X)),
    )


def _halves(u0, cfg):
    """Whether the solvers march u0 on half of cfg's grid."""
    return curvature_flow._even_centre(u0, cfg.nodes()) > 0


def test_even_data_on_odd_grids_take_the_half_grid():
    odd, even_n = _cfg(half_width=4.0), _cfg(half_width=15.95)  # 81 and 320 nodes
    assert len(odd.nodes()) == 81 and len(even_n.nodes()) == 320
    g = make_gaussian(1.0)
    shifted = dataclasses.replace(g, eval=lambda x: g.eval(np.asarray(x) - 0.3))
    for u0 in (g, make_smooth_log_sine(1.0), make_constant(0.5),
               _even_cosine_mode(odd, 2), _cosine_mode(odd, 0), _cosine_mode(odd, 80)):
        assert _halves(u0, odd) and not _halves(u0, even_n)
    for k in (1, 2, 7, 40, 79):
        assert not _halves(_cosine_mode(odd, k), odd)
    assert not _halves(shifted, odd)


class TestHeatClosedForm:
    # each DCT-I mode of the mirror-wall grid is an eigenvector of one
    # explicit heat step, with eigenvalue 1 - 4 r sin^2(pi k / (2 (n - 1)))
    CFG = dict(half_width=4.0, dx=0.1, t_final=0.5, record_times=(0.1371, 0.5))

    @staticmethod
    def _check(cfg, mode, k):
        xs = cfg.nodes()
        n = len(xs)
        dx = xs[1] - xs[0]
        sin2 = math.sin(math.pi * k / (2 * (n - 1))) ** 2
        snaps = solve_heat_fd(mode, cfg)
        factor = 1.0
        t = 0.0
        rs = []
        for target, snap in zip(cfg.record_times, snaps):
            nsteps = math.ceil((target - t) / (cfg.cfl * dx * dx) * (1.0 - 1e-9))
            r = (target - t) / nsteps / (dx * dx)
            factor *= (1.0 - 4.0 * r * sin2) ** nsteps
            rs.append(r)
            t = target
            want = factor * mode.eval(xs)
            assert np.max(np.abs(snap.values - want)) <= 1e-13
        assert rs[0] != rs[1]

    @pytest.mark.parametrize("k", [0, 1, 7, 40, 79, 80])
    def test_cosine_mode_decays_by_its_eigenvalue(self, k):
        cfg = _cfg(**self.CFG)
        self._check(cfg, _cosine_mode(cfg, k), k)

    # mode k of the full grid is mode k/2 of the half grid; a grid of even n
    # (320 nodes) has no centre node and is marched whole
    @pytest.mark.parametrize("half_width, k", [(4.0, 2), (4.0, 40), (4.0, 78), (4.0, 80),
                                               (15.95, 2), (15.95, 318)])
    def test_even_mode_decays_by_its_eigenvalue(self, half_width, k):
        cfg = _cfg(**dict(self.CFG, half_width=half_width))
        mode = _even_cosine_mode(cfg, k)
        assert _halves(mode, cfg) == (len(cfg.nodes()) % 2 == 1)
        self._check(cfg, mode, k)

    def test_slow_mode_over_many_steps(self):
        # 25,000 steps of the slowest mode, lambda^n near 1/e: the rounding
        # of 1 - a raised to the n-th power would miss by 5e-13 here, so
        # the reference power is taken in 50-digit decimals
        cfg = _cfg(half_width=16.0, t_final=100.0, record_times=(100.0,))
        mode = _cosine_mode(cfg, 1)
        xs = cfg.nodes()
        dx = xs[1] - xs[0]
        nsteps = math.ceil(100.0 / (cfg.cfl * dx * dx) * (1.0 - 1e-9))
        r = 100.0 / nsteps / (dx * dx)
        sin2 = math.sin(math.pi / (2 * (len(xs) - 1))) ** 2
        with localcontext() as ctx:
            ctx.prec = 50
            factor = float((1 - 4 * Decimal(r) * Decimal(sin2)) ** nsteps)
        assert nsteps == 25_000 and 0.3 < factor < 0.5
        snap = solve_heat_fd(mode, cfg)[0]
        assert np.max(np.abs(snap.values - factor * mode.eval(xs))) <= 1e-13


def _rkl2_factor(s, z):
    """RKL2's stability polynomial R_s(z) = 1 - b_s + b_s P_s(1 + w1 z)."""
    b = (s * s + s - 2) / (2.0 * s * (s + 1))
    w1 = 4.0 / (s * s + s - 2)
    return 1.0 - b + b * legendre.legval(1.0 + w1 * z, [0.0] * s + [1.0])


def _schedule(t, target, dx):
    """The march's steps from t to target, from the rules it states.

    Explicit steps of at most 0.4 dx^2 (to a relative 1e-9) up to 320 dx^2,
    as ("euler", dt, n); after that ("rkl2", tau, s) super-steps of 0.02 t,
    or the rest of the interval, with a rest under two super-steps cut in
    halves, and s the fewest stages with tau <= 0.4 dx^2 (s^2 + s - 2) / 4.
    """
    dt_max = 0.4 * dx * dx
    end = min(target, 320.0 * dx * dx)
    if t < end:
        nsteps = math.ceil((end - t) / dt_max * (1.0 - 1e-9))
        yield "euler", (end - t) / nsteps, nsteps
        t = end
    while t < target:
        tau = min(0.02 * t, target - t)
        if 0.02 * t < target - t < 0.04 * t:
            tau = (target - t) / 2.0
        s = 2
        while tau > dt_max * (s * s + s - 2) / 4.0:
            s += 1
        yield "rkl2", tau, s
        t = target if tau == target - t else t + tau


class TestSuperStepClosedForm:
    # a cosine mode of amplitude EPS has slopes of order 1e-5, so the flow
    # acts on it as the heat step up to 1e-10 of its size, and each RKL2
    # super-step multiplies it by R_s(tau lambda_k)
    EPS = 1e-6

    @staticmethod
    def _eigenvalue(n, dx, k):
        return -4.0 * math.sin(math.pi * k / (2 * (n - 1))) ** 2 / (dx * dx)

    def _check_through_the_switch(self, cfg, mode, k):
        xs = cfg.nodes()
        dx = xs[1] - xs[0]
        lam = self._eigenvalue(len(xs), dx, k)
        datum = dataclasses.replace(mode, eval=lambda x: self.EPS * mode.eval(x))
        factor, t, supers = 1.0, 0.0, 0
        for target, snap in zip(cfg.record_times, solve_cf(datum, cfg)):
            for kind, h, m in _schedule(t, target, dx):
                if kind == "euler":
                    factor *= (1.0 + h * lam) ** m
                else:
                    factor *= _rkl2_factor(m, h * lam)
                    supers += 1
            t = target
            want = factor * self.EPS * mode.eval(xs)
            assert np.max(np.abs(snap.values - want)) <= 1e-9 * self.EPS
        assert supers > 40

    @pytest.mark.parametrize("k", [1, 2, 3, 80])
    def test_cosine_mode_through_the_switch(self, k):
        # 320 dx^2 = 3.2: the first interval switches, the second super-steps
        cfg = _cfg(half_width=4.0, t_final=12.0, record_times=(5.0, 12.0))
        self._check_through_the_switch(cfg, _cosine_mode(cfg, k), k)

    @pytest.mark.parametrize("half_width, k", [(4.0, 2), (4.0, 4), (4.0, 80), (15.95, 2)])
    def test_even_mode_through_the_switch(self, half_width, k):
        cfg = _cfg(half_width=half_width, t_final=12.0, record_times=(5.0, 12.0))
        mode = _even_cosine_mode(cfg, k)
        assert _halves(mode, cfg) == (half_width == 4.0)
        self._check_through_the_switch(cfg, mode, k)

    @pytest.mark.parametrize("s", [1, 2, 8, 41])
    @pytest.mark.parametrize("k", [1, 20, 40, 79, 80])
    def test_one_super_step_on_each_mode(self, k, s):
        # the fastest modes are gone by 320 dx^2 in a march, so one step of
        # the largest tau its s stages allow is checked alone; s = 1 is the
        # explicit step, which multiplies the mode by 1 + tau lambda_k
        cfg = _cfg(half_width=4.0)
        xs = cfg.nodes()
        dx = xs[1] - xs[0]
        tau = 0.4 * dx * dx * (1.0 if s == 1 else (s * s + s - 2) / 4.0)
        z = tau * self._eigenvalue(len(xs), dx, k)
        u = self.EPS * _cosine_mode(cfg, k).eval(xs)
        want = (1.0 + z if s == 1 else _rkl2_factor(s, z)) * u
        curvature_flow._stepper(u, dx)(tau, s, 1)
        assert np.max(np.abs(u - want)) <= 1e-9 * self.EPS


class TestCurvatureHeatGap:
    def test_gap_series(self):
        u = make_smooth_log_sine(1.0)
        cfg = _cfg(half_width=60.0, dx=0.2, t_final=3.0, record_times=(1.0, 3.0))
        gaps = curvature_heat_gap(u, cfg)
        assert [t for t, _ in gaps] == [1.0, 3.0]
        assert all(0.0 < g < 1.0 for _, g in gaps)

    def test_half_window_gives_the_full_window_sup(self):
        # the gap takes its sup over the nodes from the centre on; the sup
        # over the whole window, with its own heat reference, is the same
        # up to the certificate of each reference
        u = make_smooth_log_sine(1.0)
        cfg = _cfg(half_width=40.0, t_final=4.0, record_times=(1.0, 4.0))
        assert _halves(u, cfg)
        xs = cfg.nodes()
        mask = np.abs(xs) <= cfg.half_width - cfg.buffer
        gaps = curvature_heat_gap(u, cfg)
        for (t, gap), snap in zip(gaps, solve_cf(u, cfg)):
            full = math.sqrt(t) * float(np.max(np.abs(
                snap.values[mask] - evolve_on_grid(u, xs[mask], t))))
            assert abs(gap - full) <= 2.0 * math.sqrt(t) * DEFAULT_SPEC.abs_tol

    def test_datum_is_evaluated_once_per_node(self, monkeypatch):
        # 801 nodes in the march's setup and 401 + 401 in its even check;
        # the gap takes the centre node from the march, not from a second check
        u = make_gaussian(1.0)
        sizes = []

        def ev(x):
            sizes.append(int(np.size(x)))
            return u.eval(x)

        refs = []

        def no_heat(u0, xs, t, spec):
            refs.append(xs)
            return np.zeros(len(xs))

        monkeypatch.setattr(curvature_flow, "evolve_on_grid", no_heat)
        cfg = _cfg(half_width=80.0, dx=0.2, t_final=1.0, record_times=(1.0,))
        curvature_heat_gap(dataclasses.replace(u, eval=ev), cfg)
        assert sum(sizes) == 1_603
        assert len(refs) == 1 and np.all(refs[0] >= 0.0)

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
            # the library resamples with its own spline, scipy's is the reference
            vals = CubicSpline(cfg.nodes(), snap.values)(math.sqrt(t) * zs)
            assert abs(err - float(np.max(np.abs(vals - prof)))) <= 1e-13

    @pytest.mark.parametrize("L", [4.0, 90.0])
    def test_three_node_grid_resamples_like_cubic_spline(self, L):
        # nodes -100, 0, 100: the not-a-knot spline is the parabola; at L = 4
        # the sup error sits at the node 0, at L = 90 between the nodes
        u = make_smooth_log_sine(0.5)
        cfg = FDSolverConfig(100.0, 100.0, 1.0, (1.0,))
        zs = np.linspace(-L, L, 401)
        [(t, err)] = flow_profile_error(u, cfg, L, (1.0,))
        [snap] = solve_cf(u, cfg)
        vals = CubicSpline(cfg.nodes(), snap.values)(zs)
        assert abs(err - float(np.max(np.abs(vals - two_sided_profile(u, zs, t))))) <= 1e-12


class TestSpline:
    @pytest.mark.parametrize("n", [*range(3, 40), 801, 1201, 2401, 4801, 8001])
    def test_matches_cubic_spline(self, n):
        rng = np.random.default_rng(n)
        for lo, hi in ((-1.0, 1.0), (-40.0, 40.0), (0.3, 7.1)):
            xs = np.linspace(lo, hi, n)
            v = rng.standard_normal(n)
            x = np.concatenate((xs, [lo, hi], rng.uniform(lo, hi, 500)))
            got = curvature_flow._spline(xs, v, x)
            assert np.max(np.abs(got - CubicSpline(xs, v)(x))) <= 1e-12 * np.max(np.abs(v))


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
    # solve_cf and curvature_heat_gap both march through _march
    def no_march(*args):
        raise AssertionError("_march was called")

    monkeypatch.setattr(curvature_flow, "_march", no_march)
    with pytest.raises(ValueError, match="buffer"):
        call(make_smooth_log_sine(0.5))


def test_range_is_checked_where_the_rules_say(monkeypatch):
    # every 64th explicit step counted from t = 0, the end of each explicit
    # run (the switch at 320 dx^2 = 3.2 and each record time before it) and
    # after every super-step; the record times straddle the switch
    real = curvature_flow._check_range
    checked = []

    def recorder(*args):
        checked.append(args[3])
        return real(*args)

    monkeypatch.setattr(curvature_flow, "_check_range", recorder)
    cfg = _cfg(half_width=4.0, t_final=12.0, record_times=(0.5, 5.0, 12.0))
    solve_cf(make_smooth_log_sine(1.0), cfg)
    dx = cfg.nodes()[1] - cfg.nodes()[0]
    want, t, steps = [], 0.0, 0
    for target in cfg.record_times:
        for kind, h, m in _schedule(t, target, dx):
            if kind == "euler":
                want += [t + (k - steps) * h for k in range(steps + 1, steps + m)
                         if k % 64 == 0]
                want.append(t + m * h)
                steps += m
                t += m * h
            else:
                t += h
                want.append(t)
        t = target
    assert steps == 800 and len(want) > 13 + 40
    assert checked == pytest.approx(want, rel=1e-12, abs=0.0)


class TestSolverFailure:
    def test_range_escape_is_reported(self):
        # an unstable marching setup must raise, not return garbage
        cfg = _cfg()
        object.__setattr__(cfg, "cfl", 0.9)  # steps past the CFL bound blow up
        with pytest.raises(SolverFailure) as info:
            solve_cf(make_gaussian(0.05), cfg)
        # the range is checked every 64 steps, so the blow-up is reported
        # well before the only record time, t = 1
        msg = str(info.value)
        t = float(re.search(r"at t = (\S+),", msg).group(1))
        step = int(re.search(r"step (\d+) ", msg).group(1))
        assert t < 1.0
        assert step % 64 == 0
        assert "every 64 steps" in msg

    def test_range_escape_is_reported_on_the_full_grid(self):
        # a shifted Gaussian is not even, so the whole grid is marched
        g = make_gaussian(0.05)
        shifted = dataclasses.replace(g, eval=lambda x: g.eval(np.asarray(x) - 0.3))
        cfg = _cfg()
        assert not _halves(shifted, cfg)
        object.__setattr__(cfg, "cfl", 0.9)
        with pytest.raises(SolverFailure) as info:
            solve_cf(shifted, cfg)
        msg = str(info.value)
        assert float(re.search(r"at t = (\S+),", msg).group(1)) < 1.0
        assert int(re.search(r"step (\d+) ", msg).group(1)) % 64 == 0
        assert "every 64 steps" in msg

    def test_range_escape_is_reported_at_a_record_time(self):
        # at cfl = 0.54 the fastest mode grows by 1.16 a step and leaves the
        # range near step 79, after the check at step 64; the record time
        # 0.55 ends its interval at step ceil(0.55 / 0.0054) = 102, before
        # the check at step 128, and its check reports the escape
        cfg = _cfg(record_times=(0.55, 1.0))
        object.__setattr__(cfg, "cfl", 0.54)
        with pytest.raises(SolverFailure) as info:
            solve_cf(make_gaussian(0.05), cfg)
        msg = str(info.value)
        assert "at t = 0.55, explicit step 102 " in msg
        assert "every 64 steps" in msg

    def test_failing_super_step_is_reported(self, monkeypatch):
        # two stages fewer than the rule asks for let the fast modes grow
        # (one fewer is still stable: the rule keeps 0.4 dx^2 where
        # 0.5 dx^2 is the limit); the range check after that super-step
        # names it, past 320 dx^2 = 3.2 and well before t = 100
        real = curvature_flow._stages
        taken = []

        def too_few(tau, dt_max):
            taken.append((tau, real(tau, dt_max) - 2))
            return taken[-1][1]

        monkeypatch.setattr(curvature_flow, "_stages", too_few)
        cfg = _cfg(t_final=100.0, record_times=(100.0,))
        with pytest.raises(SolverFailure) as info:
            solve_cf(make_smooth_log_sine(1.0), cfg)
        msg = str(info.value)
        t = float(re.search(r"at t = (\S+),", msg).group(1))
        number = int(re.search(r"super-step (\d+) ", msg).group(1))
        s = int(re.search(r"s = (\d+) stages", msg).group(1))
        tau = float(re.search(r"tau = (\S+)\)", msg).group(1))
        assert 3.2 < t < 10.0
        assert "after every super-step" in msg
        assert number == len(taken)
        assert (s, tau) == (taken[-1][1], float(f"{taken[-1][0]:.6g}"))
