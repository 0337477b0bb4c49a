import dataclasses
import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.fft
from scipy.integrate import solve_ivp
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
        dict(half_width=1e-168, dx=1e-170),  # dx^2 underflows to 0
        dict(half_width=1e160, dx=1e158),  # dx^2 overflows
        dict(half_width=1e-152, dx=1e-154),  # dx^2 is subnormal, 4 / dx^2 overflows
    ],
    ids=["half_width-nan", "half_width-inf", "half_width-zero", "half_width-negative",
         "dx-nan", "dx-inf", "t_final-nan", "t_final-inf", "record-nan",
         "record-late-nan", "one-node", "two-nodes", "dx-squared-underflows",
         "dx-squared-overflows", "inverse-dx-squared-overflows"],
)
def test_config_rejects_non_finite_or_degenerate_grids(bad):
    with pytest.raises(ValueError):
        _cfg(**bad)


class TestSolvers:
    def test_constant_is_exact_for_both(self):
        u = make_constant(0.5)
        # past 128 dx^2 = 1.28 the curvature flow's steps grow as 0.05 t
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
        # to steps of 0.05 t at 128 dx^2 = 1.28 and 5 after it
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


def _reference_march(u0, cfg):
    """Explicit Euler heat march that allocates a new array each step."""
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
            unew = u.copy()
            unew[1:-1] += dt * (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
            # mirror ghost nodes: zero-slope walls
            unew[0] += dt * 2.0 * (u[1] - u[0]) / (dx * dx)
            unew[-1] += dt * 2.0 * (u[-2] - u[-1]) / (dx * dx)
            u = unew
        t = target
        out.append(u.copy())
    return out


def _etd_steps(record_times, dx):
    """The curvature flow's steps as (h, t), from the rule the march states.

    A step at time t is max(6.4 dx^2, 0.05 t) long.  The rest of a record
    interval, when shorter than two such steps, is one step if it is no
    longer than one, and otherwise two equal halves; the last step of an
    interval ends on its record time.
    """
    t = 0.0
    for target in record_times:
        while t < target:
            h = max(6.4 * dx * dx, 0.05 * t)
            rest = target - t
            if rest <= h:
                yield rest, target
                t = target
            elif rest < 2.0 * h:
                yield rest / 2.0, t + rest / 2.0
                yield rest / 2.0, target
                t = target
            else:
                t += h
                yield h, t


def _phi_contour(z):
    """phi1 and phi2 at each z as the means of their closed forms over 64
    points of the circle of radius 1 about z (Kassam & Trefethen 2005), which
    never come near the cancellation at 0."""
    w = z[:, None] + np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    return (((np.exp(w) - 1.0) / w).mean(axis=1).real,
            ((np.exp(w) - 1.0 - w) / (w * w)).mean(axis=1).real)


def _flow_stencil(u, dx):
    """u_xx / (1 + u_x^2) by centred differences, with mirror ghost nodes."""
    g = np.concatenate(([u[1]], u, [u[-2]]))
    ux = (g[2:] - g[:-2]) / (2.0 * dx)
    uxx = (g[2:] - 2.0 * g[1:-1] + g[:-2]) / (dx * dx)
    return uxx / (1.0 + ux * ux)


def _reference_etd_march(u0, cfg):
    """ETDRK2 on the whole grid, through scipy's type-I DCT, allocating as it
    goes: a = e^{h mu} v + h phi1 N(v), v' = a + h phi2 (N(a) - N(v)), with
    N the flow's stencil less the heat stencil and phi from _phi_contour."""
    xs = cfg.nodes()
    dx = xs[1] - xs[0]
    n = len(xs)
    mu = -4.0 * np.sin(np.pi * np.arange(n) / (2 * (n - 1))) ** 2 / (dx * dx)
    u = np.asarray(u0.eval(xs), dtype=float).copy()

    def nonlinear(v):
        heat = np.concatenate(([2.0 * (v[1] - v[0])], v[2:] - 2.0 * v[1:-1] + v[:-2],
                               [2.0 * (v[-2] - v[-1])])) / (dx * dx)
        return scipy.fft.dct(_flow_stencil(v, dx) - heat, type=1)

    out = []
    for h, t in _etd_steps(cfg.record_times, dx):
        phi1, phi2 = _phi_contour(h * mu)
        n_u = nonlinear(u)
        a = np.exp(h * mu) * scipy.fft.dct(u, type=1) + h * phi1 * n_u
        u = scipy.fft.idct(a + h * phi2 * (nonlinear(scipy.fft.idct(a, type=1)) - n_u), type=1)
        if t in cfg.record_times:
            out.append(u.copy())
    return out


class TestInPlaceMarch:
    # record times that are not multiples of a step: one step of
    # 6.4 dx^2 = 0.064 and two halves of 0.0731 reach 0.1371, and the steps
    # grow as 0.05 t from 128 dx^2 = 1.28 on
    CFG = dict(half_width=4.0, dx=0.1, t_final=3.0, record_times=(0.1371, 3.0))

    @pytest.mark.parametrize(
        "solver, nonlinear, datum",
        [
            (solve_heat_fd, False, make_gaussian(0.2)),
            (solve_cf, True, make_gaussian(0.2)),
            (solve_cf, True, make_smooth_log_sine(1.0)),
        ],
    )
    def test_matches_allocating_reference(self, solver, nonlinear, datum):
        # the heat twin against explicit Euler, the flow against ETDRK2 on the
        # whole grid; the march takes the half grid, both data being even
        cfg = _cfg(**self.CFG)
        assert _halves(datum, cfg)
        snaps = solver(datum, cfg)
        refs = (_reference_etd_march if nonlinear else _reference_march)(datum, cfg)
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


def _semi_discrete(u0, cfg):
    """The mirror-wall semi-discrete flow u' = u_xx / (1 + u_x^2) at
    cfg.record_times, by scipy's DOP853 at rtol 1e-10."""
    xs = cfg.nodes()
    dx = xs[1] - xs[0]
    sol = solve_ivp(lambda t, u: _flow_stencil(u, dx), (0.0, cfg.t_final), u0.eval(xs),
                    method="DOP853", rtol=1e-10, atol=1e-12, t_eval=cfg.record_times)
    assert sol.success
    return sol.y.T


class TestTimeError:
    # ETDRK2 is second order in time: its distance to the semi-discrete flow
    # is at most C h^2 at the first step h = 6.4 dx^2 = 0.064, with C stated
    # per datum (the steep Gaussian resolves its fast start least well), and
    # halving every step divides that distance by about 4.  Measured on this
    # grid: 6.5e-4, 2.1e-4, 1.3e-5 and 1.7e-6, 1.7e-6, 2.9e-7 at the three
    # record times, divided by 3.0 to 3.4 and 3.3 to 3.6 by halving
    CFG = dict(half_width=4.0, dx=0.1, t_final=3.0, record_times=(0.1371, 0.5, 3.0))

    @pytest.mark.parametrize("datum, C", [(make_gaussian(0.2), 0.25),
                                          (make_smooth_log_sine(1.0), 6e-4)],
                             ids=["gaussian", "smooth_log_sine"])
    def test_second_order_against_the_semi_discrete_flow(self, monkeypatch, datum, C):
        cfg = _cfg(**self.CFG)
        ref = _semi_discrete(datum, cfg)
        errs = []
        for scale in (1.0, 0.5):
            monkeypatch.setattr(curvature_flow, "_FIRST_STEP", 6.4 * scale)
            monkeypatch.setattr(curvature_flow, "_GROWTH", 0.05 * scale)
            errs.append([float(np.max(np.abs(snap.values - want)))
                         for snap, want in zip(solve_cf(datum, cfg), ref)])
        assert max(errs[0]) <= C * 0.064 ** 2
        for full, half in zip(*errs):
            assert 2.8 <= full / half <= 4.5


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


class TestSuperStepClosedForm:
    # a cosine mode of amplitude EPS has slopes of order 1e-5, so the flow
    # acts on it as the heat stencil up to 1e-10 of its size, and the linear
    # semi-discrete flow multiplies it by e^{t mu_k} in closed form.  Every
    # ETD step takes the heat part exactly, however long: the first steps are
    # 6.4 dx^2, 16 explicit steps of 0.4 dx^2, and the rule switches to
    # steps of 0.05 t at 128 dx^2 = 1.28
    EPS = 1e-6

    @staticmethod
    def _eigenvalue(n, dx, k):
        return -4.0 * math.sin(math.pi * k / (2 * (n - 1))) ** 2 / (dx * dx)

    def _check_through_the_switch(self, cfg, mode, k):
        xs = cfg.nodes()
        dx = xs[1] - xs[0]
        lam = self._eigenvalue(len(xs), dx, k)
        datum = dataclasses.replace(mode, eval=lambda x: self.EPS * mode.eval(x))
        for t, snap in zip(cfg.record_times, solve_cf(datum, cfg)):
            want = math.exp(t * lam) * self.EPS * mode.eval(xs)
            assert np.max(np.abs(snap.values - want)) <= 1e-9 * self.EPS
        steps = list(_etd_steps(cfg.record_times, dx))
        assert steps[0][0] == pytest.approx(6.4 * dx * dx) and steps[-1][0] > 0.5
        assert len(steps) > 40

    @pytest.mark.parametrize("k", [1, 2, 3, 80])
    def test_cosine_mode_through_the_switch(self, k):
        # the first record time is before the switch at 1.28, the others after
        cfg = _cfg(half_width=4.0, t_final=12.0, record_times=(0.5, 5.0, 12.0))
        self._check_through_the_switch(cfg, _cosine_mode(cfg, k), k)

    @pytest.mark.parametrize("half_width, k", [(4.0, 2), (4.0, 4), (4.0, 80), (15.95, 2)])
    def test_even_mode_through_the_switch(self, half_width, k):
        cfg = _cfg(half_width=half_width, t_final=12.0, record_times=(0.5, 5.0, 12.0))
        mode = _even_cosine_mode(cfg, k)
        assert _halves(mode, cfg) == (half_width == 4.0)
        self._check_through_the_switch(cfg, mode, k)

    @pytest.mark.parametrize("s", [1, 2, 8, 41])
    @pytest.mark.parametrize("k", [1, 20, 40, 79, 80])
    def test_one_super_step_on_each_mode(self, monkeypatch, k, s):
        # one step of tau = 0.4 dx^2 (s^2 + s - 2) / 4 (0.4 dx^2 for s = 1),
        # from one explicit step's length to 430 of them (tau mu_k down to
        # -688): the first step is made long enough to reach tau at once
        cfg = _cfg(half_width=4.0)
        xs = cfg.nodes()
        dx = xs[1] - xs[0]
        tau = 0.4 * dx * dx * (1.0 if s == 1 else (s * s + s - 2) / 4.0)
        monkeypatch.setattr(curvature_flow, "_FIRST_STEP", 2.0 * tau / (dx * dx))
        cfg = dataclasses.replace(cfg, t_final=tau, record_times=(tau,))
        assert [t for _, t, _, _ in curvature_flow._schedule(cfg.record_times, dx)] == [tau]
        mode = _cosine_mode(cfg, k)
        datum = dataclasses.replace(mode, eval=lambda x: self.EPS * mode.eval(x))
        want = math.exp(tau * self._eigenvalue(len(xs), dx, k)) * self.EPS * mode.eval(xs)
        [snap] = solve_cf(datum, cfg)
        assert np.max(np.abs(snap.values - want)) <= 1e-9 * self.EPS


def _phi_taylor(z):
    """phi1(z) and phi2(z) as Taylor series in 40-digit decimals, exact in z."""
    with localcontext() as ctx:
        ctx.prec = 40
        x = Decimal(float(z))
        term, sums = Decimal(1), [Decimal(0), Decimal(0)]
        for k in range(120):
            # term = z^k / k!; phi1 = sum z^k / (k + 1)!, phi2 = sum z^k / (k + 2)!
            sums[0] += term / (k + 1)
            sums[1] += term / ((k + 1) * (k + 2))
            term = term * x / (k + 1)
        return float(sums[0]), float(sums[1])


class TestPhi:
    # phi1(z) = (e^z - 1) / z and phi2(z) = (e^z - 1 - z) / z^2 for z <= 0,
    # within 1e-13 relative everywhere, across the switch at z = -1 between
    # the series and the closed forms
    SWITCH = [-1.0, math.nextafter(-1.0, 0.0), math.nextafter(-1.0, -2.0)]

    def test_against_the_taylor_series(self):
        zs = np.array([0.0, -5e-324, -1e-300, -1e-16, -1e-8, -1e-4, -0.01, -0.1, -0.5,
                       -0.9, -0.999, -1.001, -1.5, -2.0, -3.0, -4.0, *self.SWITCH,
                       *-np.linspace(0.0, 4.0, 101)])
        e, phi1, phi2 = curvature_flow._phi(zs)
        assert np.array_equal(e, np.exp(zs))
        for z, p1, p2 in zip(zs, phi1, phi2):
            w1, w2 = _phi_taylor(z)
            assert abs(p1 - w1) <= 1e-13 * w1 and abs(p2 - w2) <= 1e-13 * w2

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="np.longdouble is no wider than a double here")
    def test_against_long_double_closed_forms(self):
        # from |z| = 0.01 on, the long double closed forms lose at most
        # 2 eps / |z| = 2e-17 relative to their cancellation
        zs = np.concatenate((-np.geomspace(0.01, 1e6, 2001), self.SWITCH))
        _, phi1, phi2 = curvature_flow._phi(zs)
        z = zs.astype(np.longdouble)
        em1 = np.expm1(z)
        w1, w2 = em1 / z, (em1 - z) / (z * z)
        assert np.max(np.abs(phi1 - w1) / w1) <= 1e-13
        assert np.max(np.abs(phi2 - w2) / w2) <= 1e-13


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
    # after every step, at the times the step rule gives (_etd_steps); the
    # record times straddle the switch to steps of 0.05 t at 1.28
    real = curvature_flow._check_range
    checked = []

    def recorder(*args):
        checked.append(args[3])
        return real(*args)

    monkeypatch.setattr(curvature_flow, "_check_range", recorder)
    cfg = _cfg(half_width=4.0, t_final=12.0, record_times=(0.5, 5.0, 12.0))
    solve_cf(make_smooth_log_sine(1.0), cfg)
    dx = cfg.nodes()[1] - cfg.nodes()[0]
    want = [t for _, t in _etd_steps(cfg.record_times, dx)]
    assert len(want) > 40 and want[-1] == 12.0
    assert checked == pytest.approx(want, rel=1e-12, abs=0.0)


def _failure(info):
    """(t, step number, h) that a SolverFailure message names."""
    msg = str(info.value)
    assert "range checked after every step" in msg
    return (float(re.search(r"at t = (\S+),", msg).group(1)),
            int(re.search(r"ETD step (\d+) ", msg).group(1)),
            float(re.search(r"\(h = (\S+);", msg).group(1)))


def _euler_factor(real_phi):
    """_phi with e^z replaced by 1 + z, explicit Euler's factor, which grows
    once z < -2: the step's heat part is then unstable."""
    def phi(z):
        _, phi1, phi2 = real_phi(z)
        return 1.0 + z, phi1, phi2
    return phi


class TestSolverFailure:
    def _check_named_step(self, info, cfg):
        # the message names a step of the rule: its number, its end time and its h
        t, k, h = _failure(info)
        dx = cfg.nodes()[1] - cfg.nodes()[0]
        want_h, want_t = list(_etd_steps(cfg.record_times, dx))[k - 1]
        assert t == float(f"{want_t:g}") and h == float(f"{want_h:.6g}")
        return t, k

    def test_range_escape_is_reported(self, monkeypatch):
        # an unstable step must raise, not return garbage; the range is
        # checked after every step, so the escape is reported well before the
        # only record time, t = 1
        monkeypatch.setattr(curvature_flow, "_phi", _euler_factor(curvature_flow._phi))
        cfg = _cfg()
        with pytest.raises(SolverFailure) as info:
            solve_cf(make_gaussian(0.05), cfg)
        t, k = self._check_named_step(info, cfg)
        assert t < 1.0 and k < 10

    def test_range_escape_is_reported_on_the_full_grid(self, monkeypatch):
        # a shifted Gaussian is not even, so the whole grid is marched
        g = make_gaussian(0.05)
        shifted = dataclasses.replace(g, eval=lambda x: g.eval(np.asarray(x) - 0.3))
        cfg = _cfg()
        assert not _halves(shifted, cfg)
        monkeypatch.setattr(curvature_flow, "_phi", _euler_factor(curvature_flow._phi))
        with pytest.raises(SolverFailure) as info:
            solve_cf(shifted, cfg)
        t, k = self._check_named_step(info, cfg)
        assert t < 1.0 and k < 10

    def test_range_escape_is_reported_at_a_record_time(self, monkeypatch):
        # six steps of 0.064 and two halves of 0.058 reach the record time
        # 0.5, and one step of 0.03 lands on 0.53; only that step's e^{h mu}
        # is multiplied by 10, which lifts the peak (0.30 there) above the
        # initial maximum 1, and the check after that step names 0.53
        real = curvature_flow._phi
        calls = []

        def phi(z):
            calls.append(z)
            e, phi1, phi2 = real(z)
            return (10.0 * e if len(calls) == 3 else e), phi1, phi2

        monkeypatch.setattr(curvature_flow, "_phi", phi)
        cfg = _cfg(record_times=(0.5, 0.53, 1.0))
        with pytest.raises(SolverFailure) as info:
            solve_cf(make_gaussian(0.05), cfg)
        assert self._check_named_step(info, cfg) == (0.53, 9)
        assert "at t = 0.53, ETD step 9 (h = 0.03;" in str(info.value)

    def test_failing_super_step_is_reported(self, monkeypatch):
        # the steps of 0.05 t past 1.28 each make their own table; with
        # explicit Euler's factor in those alone, rounding-sized fast modes
        # grow by up to 4 h / dx^2 - 1 a step, and the check after the step
        # where they leave the range names it, well before t = 100
        real = curvature_flow._phi
        first = []

        def phi(z):
            first.append(z)
            return real(z) if len(first) == 1 else _euler_factor(real)(z)

        monkeypatch.setattr(curvature_flow, "_phi", phi)
        cfg = _cfg(t_final=100.0, record_times=(100.0,))
        with pytest.raises(SolverFailure) as info:
            solve_cf(make_smooth_log_sine(1.0), cfg)
        t, k = self._check_named_step(info, cfg)
        dx = cfg.nodes()[1] - cfg.nodes()[0]
        assert 1.28 < t < 10.0 and list(_etd_steps(cfg.record_times, dx))[k - 1][0] > 0.064
