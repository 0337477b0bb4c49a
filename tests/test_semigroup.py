import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf, erfc, gamma

from mildheat.initial_data import (
    catalog,
    from_id,
    make_constant,
    make_gaussian,
    make_log_sine,
    make_step,
    make_sub_log,
)
from mildheat import kernels, semigroup
from mildheat.kernels import (
    DEFAULT_SPEC,
    QuadratureSpec,
    UncertifiedQuadrature,
    profile_F,
)
from mildheat.profile_bounds import envelope_bound
from mildheat.semigroup import (
    _BLOCK,
    GridFunction,
    _barycentric,
    _block_size,
    _cell,
    _cells,
    _halfline_plan,
    _one_sided,
    _refined_halfline_segment,
    _window_sum,
    evolve,
    evolve_on_grid,
    rescaled_residual,
    scaled_evolve,
    scaled_evolve_many,
    sliding_average,
)


class TestGridFunction:
    def test_nodes_and_dx(self):
        g = GridFunction(-1.0, 1.0, 5, np.zeros(5))
        assert g.dx == 0.5
        assert np.allclose(g.nodes(), [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            GridFunction(-1.0, 1.0, 1, np.zeros(1))
        with pytest.raises(ValueError):
            GridFunction(1.0, -1.0, 5, np.zeros(5))
        with pytest.raises(ValueError):
            GridFunction(-1.0, 1.0, 5, np.zeros(4))
        with pytest.raises(ValueError):
            GridFunction(-1.0, 1.0, 3, np.array([0.0, np.nan, 0.0]))


class TestScaledEvolve:
    def test_constants_preserved(self):
        u = make_constant(0.5)
        for x in (-3.0, 0.0, 2.0):
            for t in (1e-4, 1.0, 1e6):
                assert scaled_evolve(u, x, t) == pytest.approx(0.5, abs=1e-10)

    def test_step_gives_profile(self):
        # two-level data evolve exactly onto the cumulative-Gaussian shape
        u = make_step(0.0, 1.0)
        for t in (1e-4, 1.0, 1e4):
            for x in (-4.0, -1.0, 0.0, 1.0, 4.0):
                assert scaled_evolve(u, x, t) == pytest.approx(
                    profile_F(x), abs=2e-10
                )

    def test_general_step_is_affine_in_levels(self):
        u = make_step(-1.5, 2.0)
        for x in (-2.0, 0.3):
            want = -1.5 * profile_F(-x) + 2.0 * profile_F(x)
            assert scaled_evolve(u, x, 7.0) == pytest.approx(want, abs=2e-10)

    def test_bounded_by_sup_norm(self):
        u = make_log_sine()
        for x in (-3.0, 0.0, 1.0):
            for t in (1e-2, 1.0, 1e4):
                assert abs(scaled_evolve(u, x, t)) <= 1.0 + 1e-9

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            scaled_evolve(make_constant(1.0), 0.0, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda u, v: scaled_evolve_many(u, [0.0, 1.0], v),
        lambda u, v: evolve(u, 1.0, v),
        lambda u, v: evolve_on_grid(u, [0.0, 1.0], v),
        lambda u, v: sliding_average(u, 0.0, v),
    ],
    ids=["scaled_evolve_many", "evolve", "evolve_on_grid", "sliding_average"],
)
def test_rejects_non_finite_time_or_window(call, value):
    # refused before the datum is read, not after a quadrature hits its cap
    base = make_sub_log(0.5)
    evals = []
    u = dataclasses.replace(base, eval=lambda x: evals.append(x) or base.eval(x))
    with pytest.raises(ValueError, match="finite"):
        call(u, value)
    assert not evals


def _unread_datum():
    """sub_log:0.5 that records every evaluation, and the list it records to."""
    base = make_sub_log(0.5)
    evals = []
    return dataclasses.replace(base, eval=lambda x: evals.append(x) or base.eval(x)), evals


@pytest.mark.parametrize(
    "points", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 0.0], []],
    ids=["nan", "inf", "-inf", "empty"],
)
@pytest.mark.parametrize("call", [scaled_evolve_many, evolve_on_grid])
def test_rejects_non_finite_or_empty_points(call, points):
    # refused before the datum is read
    u, evals = _unread_datum()
    with pytest.raises(ValueError, match="finite"):
        call(u, points, 1.0)
    assert not evals


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [scaled_evolve, evolve, sliding_average])
def test_rejects_non_finite_point(call, x):
    # the third argument is t = 1 for the heat calls and R = 1 for the window
    u, evals = _unread_datum()
    with pytest.raises(ValueError, match="finite"):
        call(u, x, 1.0)
    assert not evals


def _quadpack_scaled(u, x, t):
    """u(sqrt(t) x, t) at one point by QUADPACK, independent of the engine:

    (1/(2 sqrt(pi))) sum over +- of int_0^inf e^{-(x -+ z)^2/4} u0(+-sqrt(t) z) dz,
    the piece below z = 1 taken in s = log z (cut at s = -60) so that data
    oscillating at the origin give a smooth integrand.
    """
    st = math.sqrt(t)
    total = 0.0
    for sign in (-1.0, 1.0):

        def g(z):
            return math.exp(-0.25 * (x - sign * z) ** 2) * float(u.eval(sign * st * z))

        near, _ = integrate.quad(
            lambda s: g(math.exp(s)) * math.exp(s), -60.0, 0.0,
            epsabs=1e-14, epsrel=1e-13, limit=500,
        )
        far, _ = integrate.quad(g, 1.0, abs(x) + 40.0, epsabs=1e-14, epsrel=1e-13, limit=500)
        total += near + far
    return total / (2.0 * math.sqrt(math.pi))


class TestScaledEvolveMany:
    # the per-point ("scalar path") reference is QUADPACK, independent of the engine
    def test_matches_scalar_path_oscillatory(self):
        u = make_log_sine()
        xs = np.linspace(-4.0, 4.0, 17)
        many = scaled_evolve_many(u, xs, 100.0)
        one = np.array([_quadpack_scaled(u, float(x), 100.0) for x in xs])
        assert np.max(np.abs(many - one)) < 1e-9

    def test_matches_scalar_path_kinked(self):
        u = make_sub_log(0.5)
        xs = np.linspace(-4.0, 4.0, 9)
        for t in (1e-4, 1.0, 1e4):
            many = scaled_evolve_many(u, xs, t)
            one = np.array([_quadpack_scaled(u, float(x), t) for x in xs])
            assert np.max(np.abs(many - one)) < 1e-9


def _nodes_used(u, xs, t):
    """Datum nodes scaled_evolve_many evaluates for u on xs at time t."""
    sizes = []

    def ev(x):
        sizes.append(int(np.size(x)))
        return u.eval(x)

    scaled_evolve_many(dataclasses.replace(u, eval=ev), xs, t)
    return sum(sizes)


class TestLargeTimes:
    # data that do not oscillate at 0 vary on the scale z ~ 1/sqrt(t); above
    # it the engine grades in log z, so huge times certify in few nodes
    TIMES = (1e10, 1e12, 1e16)

    def test_gaussian_closed_form(self):
        u = make_gaussian(1.0)
        xs = np.linspace(-4.0, 4.0, 81)
        for t in self.TIMES:
            want = math.sqrt(1.0 / (1.0 + t)) * np.exp(-t * xs ** 2 / (4.0 * (1.0 + t)))
            assert np.max(np.abs(scaled_evolve_many(u, xs, t) - want)) <= 2e-10

    def test_sub_log_matches_quadpack(self):
        u = make_sub_log(0.5)
        xs = np.array([-3.0, -0.5, 0.0, 1.0, 2.5])
        for t in self.TIMES:
            one = np.array([_quadpack_scaled(u, float(x), t) for x in xs])
            assert np.max(np.abs(scaled_evolve_many(u, xs, t) - one)) <= 1e-9

    @pytest.mark.parametrize("datum_id", catalog())
    def test_catalog_certifies_up_to_1e16(self, datum_id):
        u = from_id(datum_id)
        xs = np.linspace(-4.0, 4.0, 41)
        for t in self.TIMES:
            assert np.all(np.abs(scaled_evolve_many(u, xs, t)) <= u.sup_norm + 1e-9)

    def test_node_count_does_not_grow_with_time(self):
        xs = np.linspace(-4.0, 4.0, 41)
        u = make_gaussian(1.0)
        assert _nodes_used(u, xs, 1e16) <= _nodes_used(u, xs, 1e4)
        # the log-z segment lengthens like log t: squaring t costs one more
        # doubling at most, and t = 1e16 no more than the 13,318 nodes it
        # took with the fixed window of 14
        u = make_sub_log(0.5)
        nodes = {t: _nodes_used(u, xs, t) for t in (1e4, 1e8, 1e16)}
        assert nodes[1e8] <= 2 * nodes[1e4]
        assert nodes[1e16] <= 2 * nodes[1e8]
        assert nodes[1e16] <= 13_318

    @pytest.mark.parametrize("datum_id", ["step:-1.5,2", "constant:0.5"])
    def test_constant_sided_data_cost_the_same_at_every_time(self, datum_id):
        # nothing varies on the scale 1/sqrt(t), so nothing is graded
        u = from_id(datum_id)
        xs = np.linspace(-4.0, 4.0, 41)
        assert _nodes_used(u, xs, 1e16) == _nodes_used(u, xs, 1e-2)


def _quadpack_far(u, x, t):
    """u(sqrt(t) x, t) at a point |x| >= 100 by QUADPACK over z = x + y,
    |y| <= 40: the Gaussian holds below e^{-400} of its mass outside.  The
    Gaussian is taken in the offset y, so it keeps its digits however far x
    lies."""
    st = math.sqrt(t)

    def g(y):
        return math.exp(-0.25 * y * y) * float(u.eval(st * (x + y)))

    val = integrate.quad(g, -40.0, 40.0, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
    return val / (2.0 * math.sqrt(math.pi))


class TestFarPoints:
    # a far point's Gaussian is about 2 wide; the first level of its segment
    # [1, x + w] must not space its nodes so far apart that both sums of
    # the first Richardson pair miss it and agree on a wrong value

    def test_ladder_matches_quadpack(self):
        u = make_sub_log(0.5)
        for x in np.arange(1e4, 2e4 + 1.0, 250.0):
            want = _quadpack_far(u, float(x), 1.0)
            assert abs(scaled_evolve(u, float(x), 1.0) - want) <= 1e-9, x

    def test_physical_point_at_small_time(self):
        # similarity point 20 / sqrt(1e-6) = 2e4
        u = make_log_sine()
        want = _quadpack_far(u, 2e4, 1e-6)
        assert abs(want - math.sin(math.log(20.0))) <= 1e-4
        assert abs(evolve(u, 20.0, 1e-6) - want) <= 1e-9

    @pytest.mark.parametrize("datum_id", ["sub_log:0.5", "log_sine", "smooth_log_sine:1"])
    @pytest.mark.parametrize("x", [1e5, 1e6])
    def test_beyond_the_old_cap_matches_quadpack(self, datum_id, x):
        # a point integrates only its own window, so a far point costs no
        # more than a near one
        u = from_id(datum_id)
        want = _quadpack_far(u, x, 1.0)
        assert abs(scaled_evolve(u, x, 1.0) - want) <= 2 * DEFAULT_SPEC.abs_tol

    @pytest.mark.parametrize("datum_id", ["sub_log:0.5", "log_sine", "smooth_log_sine:1"])
    @pytest.mark.parametrize(
        "x", [1e21, 1e300, -1e308, 1.7976931348623157e308, -1.7976931348623157e308])
    def test_beyond_1e20_raises_at_once(self, datum_id, x):
        # rounded outward, the window spans at least two ulps of x, and its
        # first certificate would need more than _PANEL_CAP panels; at the
        # largest float an end rounds out to infinity.  Either way it raises
        # before it reads the datum, and without a warning
        u = from_id(datum_id)
        sizes = []

        def ev(z):
            sizes.append(int(np.size(z)))
            return u.eval(z)

        with pytest.raises(UncertifiedQuadrature, match="first certificate"):
            scaled_evolve(dataclasses.replace(u, eval=ev), x, 1.0)
        assert not sizes

    @pytest.mark.parametrize("abs_tol", [1e-10, 1e-13])
    def test_far_step_is_one(self, abs_tol):
        # uncentred nodes lose the Gaussian's digits to the rounding of z,
        # and unwidened windows to the rounding of x -+ w
        xs = np.logspace(3.0, 20.0, 24)
        got = scaled_evolve_many(make_step(0.0, 1.0), xs, 1.0, QuadratureSpec(abs_tol=abs_tol))
        assert np.max(np.abs(got - 1.0)) <= 2 * abs_tol

    @pytest.mark.parametrize("x", [2e3, 5e3, 1e4])
    def test_near_and_far_point_together(self, x):
        # each cell integrates its own window, so the near point's Gaussian
        # no longer sets the panel width out to the far point
        xs = np.array([0.0, x])
        tol = 2 * DEFAULT_SPEC.abs_tol
        got = scaled_evolve_many(make_step(0.0, 1.0), xs, 1.0)
        assert np.max(np.abs(got - 0.5 * erfc(-0.5 * xs))) <= tol
        got = scaled_evolve_many(make_gaussian(1.0), xs, 1.0)
        assert np.max(np.abs(got - _gaussian_scaled(xs, 1.0))) <= tol
        u = make_sub_log(0.5)
        got = scaled_evolve_many(u, xs, 1.0)
        assert abs(got[0] - _quadpack_scaled(u, 0.0, 1.0)) <= tol
        assert abs(got[1] - _quadpack_far(u, x, 1.0)) <= tol

    def test_wide_physical_grid_at_small_time(self):
        # similarity points up to 4e3 apart, at 6 grid points
        u = make_log_sine()
        t = 1e-4
        xs = np.linspace(-40.0, 40.0, 801)
        got = evolve_on_grid(u, xs, t)
        for k in (0, 277, 396, 400, 403, 657):
            x = xs[k] / math.sqrt(t)
            want = _quadpack_far(u, x, t) if abs(x) >= 100.0 else _quadpack_scaled(u, x, t)
            assert abs(got[k] - want) <= 2 * DEFAULT_SPEC.abs_tol, xs[k]


class TestChargedWindow:
    # the Gaussian window comes from abs_tol and the datum's sup norm, and the
    # mass it drops is charged: checked against closed forms out to x = +-40
    XS = np.concatenate([np.linspace(-40.0, 40.0, 161), [-39.99, 0.0, 39.99]])

    @pytest.mark.parametrize("abs_tol", [1e-10, 1e-13])
    def test_constant_and_step(self, abs_tol):
        spec = QuadratureSpec(abs_tol=abs_tol)
        # F(x) = erfc(-x/2)/2, independent of profile_F
        want = -1.5 * 0.5 * erfc(0.5 * self.XS) + 2.0 * 0.5 * erfc(-0.5 * self.XS)
        for t in (1e-4, 1.0, 1e8):
            got = scaled_evolve_many(make_constant(1.0), self.XS, t, spec)
            assert np.max(np.abs(got - 1.0)) <= 2 * abs_tol
            got = scaled_evolve_many(make_step(-1.5, 2.0), self.XS, t, spec)
            assert np.max(np.abs(got - want)) <= 2 * abs_tol

    @pytest.mark.parametrize("datum_id", ["constant:0", "step:0,0"])
    def test_zero_datum_is_exactly_zero(self, datum_id):
        # sup norm 0: no mass to drop, a window of 0, and no log(0)
        for abs_tol in (1e-10, 1e-13):
            got = scaled_evolve_many(from_id(datum_id), self.XS, 1.0,
                                     QuadratureSpec(abs_tol=abs_tol))
            assert np.all(got == 0.0)


class TestHalflinePlan:
    @pytest.mark.parametrize("datum_id", catalog())
    def test_segments_tile_and_budget_holds(self, datum_id):
        # the segments cover [a, b] end to end, and the shares plus the
        # dropped s-tail below the first log segment, at most bound * e^{s_lo}
        # when it starts from z = 0, sum to at most tol
        u = from_id(datum_id)
        tol, bound = 1e-10, 2.5
        for t in (1e-2, 1.0, 1e4, 1e16):
            for a, b in ((0.0, 18.0), (0.0, 0.5), (0.25, 7.0)):
                plan = _halfline_plan(u, a, b, math.sqrt(t), tol, bound)
                ends = [(lo, hi) if kind == "lin" else (math.exp(lo), math.exp(hi))
                        for (kind, lo, hi), _ in plan]
                kind, s_lo, _ = plan[0][0]
                tail = bound * math.exp(s_lo) if kind == "log" and a == 0.0 else 0.0
                assert ends[0][0] == a or tail
                assert ends[-1][1] == pytest.approx(b, rel=1e-15)
                for (_, hi), (lo, _) in zip(ends, ends[1:]):
                    assert lo == pytest.approx(hi, rel=1e-15)
                assert all(lo < hi for lo, hi in ends)
                assert sum(share for _, share in plan) + tail <= tol * (1.0 + 1e-12)


class TestOneSidedLimits:
    def test_step_reads_its_side_at_the_origin(self):
        u = make_step(-1.5, 2.0)
        assert float(_one_sided(u, -1.0, 0.0)) == -1.5
        assert float(_one_sided(u, 1.0, 0.0)) == 2.0
        assert np.array_equal(
            _one_sided(u, 1.0, np.array([0.0, 0.5])), np.array([2.0, 2.0])
        )

    def test_step_certifies_below_node_cap(self):
        # the half-line integrands never see the convention value (a+b)/2, so
        # each segment converges at Simpson's rate instead of doubling to the cap
        u = make_step(-1.5, 2.0)
        sizes = []

        def ev(x):
            sizes.append(int(np.size(x)))
            return u.eval(x)

        recorded = dataclasses.replace(u, eval=ev)
        spec = QuadratureSpec(abs_tol=1e-13)
        xs = np.linspace(-4.0, 4.0, 41)
        want = -1.5 * profile_F(-xs) + 2.0 * profile_F(xs)
        for t in (1e-4, 1.0, 1e6):
            got = scaled_evolve_many(recorded, xs, t, spec)
            assert np.max(np.abs(got - want)) <= 2e-13
        assert sizes
        assert (1 << 17) + 1 not in sizes

    def test_node_cap_raises(self, monkeypatch):
        # sub_log at t = 1e8 needs far more than 512 panels next to its kink;
        # the points, centred on 0, are summed directly
        monkeypatch.setattr(kernels, "_PANEL_CAP", 512)
        xs = np.linspace(-4.0, 4.0, 41)
        with pytest.raises(UncertifiedQuadrature, match="512 panels"):
            _refined_halfline_segment(
                make_sub_log(0.5), xs, 0.0, 1e4, 1.0, "lin", 0.0, 1.0, 1e-10
            )


def _gaussian_scaled(xs, t, s=1.0):
    """u(sqrt(t) x, t) for u0 = e^{-x^2/(4s)}: sqrt(s/(s+t)) e^{-t x^2/(4(s+t))}."""
    return math.sqrt(s / (s + t)) * np.exp(-t * np.asarray(xs) ** 2 / (4.0 * (s + t)))


class TestCompressedCells:
    # dense cells are summed at Chebyshev targets and interpolated once; every
    # check is against a closed form, never against the engine itself

    def test_coincident_points(self):
        xs = np.full(100, 0.7)
        got = scaled_evolve_many(make_gaussian(1.0), xs, 2.0)
        assert np.max(np.abs(got - _gaussian_scaled(xs, 2.0))) <= 2e-10

    def test_points_on_the_targets(self):
        # a cell spanning [0.5, 6.5] whose grid holds each of its targets
        grid = np.linspace(0.5, 6.5, 121)
        assert _cells(grid) == [(0, len(grid))]
        targets = _cell(grid)[1]
        xs = np.sort(np.concatenate([grid, targets]))
        same = _cell(xs)[1]
        assert np.array_equal(same, targets) and np.all(np.isin(targets, xs))
        for t in (0.5, 3.0):
            got = scaled_evolve_many(make_gaussian(1.0), xs, t)
            assert np.max(np.abs(got - _gaussian_scaled(xs, t))) <= 2e-10
        got = scaled_evolve_many(make_step(-1.5, 2.0), xs, 3.0)
        want = -1.5 * profile_F(-xs) + 2.0 * profile_F(xs)
        assert np.max(np.abs(got - want)) <= 2e-10

    def test_dense_cell_next_to_sparse_cell(self):
        xs = np.concatenate([np.linspace(-3.0, 3.0, 301), np.linspace(5.0, 11.0, 7)])
        cells = [_cell(xs[i:e]) for i, e in _cells(xs)]
        assert [weights is None for _, _, weights, _ in cells] == [False, True]
        shuffled = np.random.default_rng(5).permutation(xs)
        for t in (1e-2, 2.0, 1e6):
            got = scaled_evolve_many(make_gaussian(1.0), shuffled, t)
            assert np.max(np.abs(got - _gaussian_scaled(shuffled, t))) <= 2e-10
            got = scaled_evolve_many(make_step(0.0, 1.0), shuffled, t)
            assert np.max(np.abs(got - profile_F(shuffled))) <= 2e-10

    def test_wide_window_on_a_dense_grid(self, monkeypatch):
        # cells keep their width whatever the Gaussian window: cells of half
        # the window interpolate 5e-12 off at t = 2, seen only below 1e-11
        monkeypatch.setattr(semigroup, "gauss_window", lambda tol, sup: 30.0)
        xs = np.linspace(-20.0, 20.0, 2001)
        for abs_tol in (1e-10, 1e-13):
            spec = QuadratureSpec(abs_tol=abs_tol)
            for t in (0.3, 2.0):
                got = scaled_evolve_many(make_gaussian(1.0), xs, t, spec)
                assert np.max(np.abs(got - _gaussian_scaled(xs, t))) <= 2 * abs_tol

    def test_few_targets_fall_back_to_the_points(self, monkeypatch):
        # 8 targets over 8 units interpolate far above any share, so the
        # advance bound sends the whole cell to the direct sum
        monkeypatch.setattr(semigroup, "_TARGETS", 8)
        xs = np.linspace(-4.0, 4.0, 401)
        for t in (1e-2, 2.0):
            got = scaled_evolve_many(make_gaussian(1.0), xs, t)
            assert np.max(np.abs(got - _gaussian_scaled(xs, t))) <= 2e-10
        got = scaled_evolve_many(make_step(0.0, 1.0), xs, 2.0)
        assert np.max(np.abs(got - profile_F(xs))) <= 2e-10

    def test_bound_that_does_not_fit_sums_at_the_points(self, monkeypatch):
        # the grid is one dense cell, summed at its 48 targets; once the
        # advance bound coef sup|u0| (q - p) exceeds _INTERP_PART of a
        # segment's share, every segment of the cell is summed at its points
        xs = np.linspace(-4.0, 4.0, 401)
        sizes = []
        segment = semigroup._refined_halfline_segment

        def recorded(u0, y, *args):
            sizes.append(len(y))
            return segment(u0, y, *args)

        monkeypatch.setattr(semigroup, "_refined_halfline_segment", recorded)
        scaled_evolve_many(make_gaussian(1.0), xs, 2.0)
        assert sizes and set(sizes) == {48}
        sizes.clear()
        monkeypatch.setattr(semigroup, "_INTERP_PART", 1e-30)
        tol = 2 * DEFAULT_SPEC.abs_tol
        for t in (1e-2, 2.0, 1e6):
            got = scaled_evolve_many(make_gaussian(1.0), xs, t)
            assert np.max(np.abs(got - _gaussian_scaled(xs, t))) <= tol
            got = scaled_evolve_many(make_step(0.0, 1.0), xs, t)
            assert np.max(np.abs(got - profile_F(xs))) <= tol
        assert sizes and set(sizes) == {len(xs)}

    @pytest.mark.parametrize("targets", [8, 12, 16])
    def test_interpolation_bound_holds(self, monkeypatch, targets):
        # below 48 targets the interpolation error stands above rounding,
        # so the Cramer bound coef * sum |c_j| can be seen to hold; the
        # engine charges coef sup|u0| (q - p), which is at least this for
        # the Richardson value of a segment [p, q]
        monkeypatch.setattr(semigroup, "_TARGETS", targets)
        xs = np.linspace(-3.5, 3.5, 2 * targets + 1)
        assert _cells(xs) == [(0, len(xs))]
        _, tg, weights, coef = _cell(xs)
        rng = np.random.default_rng(targets)
        for _ in range(20):
            z = np.sort(rng.uniform(-20.0, 20.0, 50))
            c = rng.standard_normal(50)

            def f(y):
                return np.exp(-0.25 * (y[:, None] - z) ** 2) @ c

            err = np.max(np.abs(_barycentric(xs, tg, weights, f(tg)) - f(xs)))
            assert err <= coef * np.sum(np.abs(c))

    def test_window_sum_beyond_one_block(self):
        # more points than _BLOCK: each block holds a single node
        rng = np.random.default_rng(3)
        y = rng.uniform(-5.0, 5.0, _BLOCK + 7)
        z = rng.uniform(-8.0, 8.0, 40)
        c = rng.standard_normal(40)
        want = np.exp(-0.25 * (y[:, None] - z) ** 2) @ c
        assert np.max(np.abs(_window_sum(y, z, c) - want)) <= 1e-13

    def test_interpolation_memory_is_bounded(self):
        # the barycentric matrix is built in row blocks of _BLOCK entries, so
        # 200,001 points in one dense cell do not hold 200,001 x 48 of it
        xs = np.linspace(-4.0, 4.0, 200001)
        assert _cells(xs) == [(0, len(xs))]
        tracemalloc.start()
        try:
            got = scaled_evolve_many(make_gaussian(1.0), xs, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 25e6
        assert np.max(np.abs(got - _gaussian_scaled(xs, 1.0))) <= 2 * DEFAULT_SPEC.abs_tol


def _log_sine_scaled(xs, t):
    """u(sqrt(t) x, t) for u0 = sin(log|x|) in closed form, for |x| <= 12:

        Im[(4t)^{i/2} Gamma((1+i)/2)/sqrt(pi) e^{-x^2/4} M((1+i)/2, 1/2, x^2/4)],

    from sin(log|x|) = Im |x|^i, the absolute moments of a normal variable
    and Kummer's transformation (DLMF 13.2.39).  M is summed by its series,
    whose terms do not cancel at a positive argument; at |x| <= 12 it takes
    about 101 terms to reach 1e-18 relative.
    """
    a = 0.5 + 0.5j
    z = 0.25 * np.asarray(xs, dtype=float) ** 2
    term = np.ones(z.shape, dtype=complex)
    series = term.copy()
    k = 0
    while np.any(np.abs(term) > 1e-18 * np.abs(series)):
        term = term * ((a + k) / ((0.5 + k) * (k + 1.0))) * z
        series += term
        k += 1
    phase = np.exp(0.5j * math.log(4.0 * t))
    return np.imag(phase * gamma(a) / math.sqrt(math.pi) * np.exp(-z) * series)


class TestLogSineClosedForm:
    # log_sine against its closed form, an independent reference: a wrong
    # clock turns the profile's phase (1/2) log 4t and fails every check
    TIMES = (1e-8, 1e-4, 1.0, 1e4, 1e8, 1e16)

    def test_closed_form_matches_quadpack(self):
        u = make_log_sine()
        xs = np.array([-12.0, -5.0, -1.0, 0.0, 0.3, 2.0, 7.0, 12.0])
        want = np.array([_quadpack_scaled(u, float(x), 2.0) for x in xs])
        assert np.max(np.abs(_log_sine_scaled(xs, 2.0) - want)) <= 1e-12

    @pytest.mark.parametrize("abs_tol", [1e-10, 1e-13])
    @pytest.mark.parametrize("t", TIMES)
    def test_dense_cells(self, t, abs_tol):
        xs = np.linspace(-12.0, 12.0, 241)
        # two cells take the Chebyshev path, and the third is summed at its points
        assert [_cell(xs[i:e])[2] is None for i, e in _cells(xs)] == [False, False, True]
        got = scaled_evolve_many(make_log_sine(), xs, t, QuadratureSpec(abs_tol=abs_tol))
        assert np.max(np.abs(got - _log_sine_scaled(xs, t))) <= abs_tol

    @pytest.mark.parametrize("abs_tol", [1e-10, 1e-13])
    @pytest.mark.parametrize("t", TIMES)
    def test_sparse_cells(self, t, abs_tol):
        # 25 points in three cells, each summed at its points, passed shuffled
        xs = np.linspace(-12.0, 12.0, 25)
        assert [_cell(xs[i:e])[2] is None for i, e in _cells(xs)] == [True] * 3
        xs = np.random.default_rng(3).permutation(xs)
        got = scaled_evolve_many(make_log_sine(), xs, t, QuadratureSpec(abs_tol=abs_tol))
        assert np.max(np.abs(got - _log_sine_scaled(xs, t))) <= abs_tol

    @pytest.mark.parametrize("abs_tol", [1e-10, 1e-13])
    @pytest.mark.parametrize("t", TIMES)
    def test_single_points(self, t, abs_tol):
        spec = QuadratureSpec(abs_tol=abs_tol)
        for x in (0.0, -0.4, 3.0, -11.5, 12.0):
            got = scaled_evolve(make_log_sine(), x, t, spec)
            assert abs(got - _log_sine_scaled(x, t)) <= abs_tol


def _direct_sum(y, z, c):
    """The direct Gaussian sum in the node blocks of _window_sum at B = 1."""
    out = np.zeros((len(y),) + c.shape[1:])
    step = max(1, _BLOCK // len(y))
    for k in range(0, len(z), step):
        d = y[:, None] - z[k:k + step]
        d *= d
        d *= -0.25
        out += np.exp(d, out=d) @ c[k:k + step]
    return out


class TestBlockedWindowSum:
    # evenly spaced nodes are summed in blocks of B; every check is against
    # the direct formula, to 1e-14 of sum_j |c_j| e^{-(y - z_j)^2/4}

    @staticmethod
    def _check(y, z, c, dz):
        gauss = np.exp(-0.25 * (y[:, None] - z) ** 2)
        scale = gauss @ np.abs(c)
        assert np.all(np.abs(_window_sum(y, z, c, dz) - gauss @ c) <= 1e-14 * scale)

    @pytest.mark.parametrize("m", [1, 3, 48, 200])
    @pytest.mark.parametrize("n", [1, 2, 129, 513, 4097])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("cols", [None, 3])
    def test_matches_the_direct_sum(self, m, n, sign, cols):
        rng = np.random.default_rng([m, n, int(sign > 0), bool(cols)])
        dz = sign * 24.0 / max(n - 1, 1)
        z = rng.uniform(-5.0, 5.0) + dz * np.arange(n)
        y = rng.uniform(min(z[0], z[-1]) - 3.0, max(z[0], z[-1]) + 3.0, m)
        c = rng.standard_normal(n if cols is None else (n, cols))
        self._check(y, z, c, dz)

    def test_blocks_are_used(self):
        # a cell's 48 targets against a first certificate of 513 nodes
        y = np.linspace(-4.0, 4.0, 48)
        z = 16.0 / 512 * np.arange(513)
        assert _block_size(y, z, z[1]) == math.isqrt(513)
        assert _block_size(y, z, 0.0) == 1
        assert _block_size(y[:1], z, z[1]) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dz", [1.3, 0.05])
    def test_far_window_shrinks_the_blocks(self, dz):
        # a window ulp-wide at x = 1e18 spans about +-128 around the cell;
        # at B = isqrt(n) the factor e^{y l dz/2} would overflow at dz = 1.3
        rng = np.random.default_rng(11)
        z = -128.0 + dz * np.arange(int(256.0 / dz) + 1)
        y = rng.uniform(-128.0, 128.0, 200)
        c = rng.standard_normal((len(z), 3))
        b = _block_size(y, z, dz)
        assert b < math.isqrt(len(z)) and (b - 1) * dz * 128.0 <= 16.0
        self._check(y, z, c, dz)

    def test_more_targets_than_one_chunk(self, monkeypatch):
        rng = np.random.default_rng(4)
        z = -12.0 + 0.01 * np.arange(2401)
        y = rng.uniform(-15.0, 15.0, 3000)
        c = rng.standard_normal((len(z), 3))
        b = _block_size(y, z, 0.01)
        assert 3000 * (b + 3 * -(-len(z) // b)) > _BLOCK
        self._check(y, z, c, 0.01)
        # chunks of both points and blocks
        monkeypatch.setattr(semigroup, "_BLOCK", 50)
        self._check(y[:40], z, c, 0.01)

    @pytest.mark.parametrize("cols", [None, 3])
    def test_one_node_per_block_is_the_direct_sum(self, cols):
        rng = np.random.default_rng(9)
        y = rng.uniform(-6.0, 6.0, 300)
        z = np.sort(rng.uniform(-9.0, 9.0, 700))
        c = rng.standard_normal(700 if cols is None else (700, cols))
        assert np.array_equal(_window_sum(y, z, c), _direct_sum(y, z, c))
        # a single point saves no exponentials by blocking
        even = np.linspace(-9.0, 9.0, 700)
        assert np.array_equal(_window_sum(y[:1], even, c, even[1] - even[0]),
                              _direct_sum(y[:1], even, c))


def _recording(u):
    """u, and the list of arrays its eval is called on."""
    evals = []

    def ev(x):
        evals.append(np.array(x, dtype=float, copy=True))
        return u.eval(x)

    return dataclasses.replace(u, eval=ev), evals


class TestFirstCertificate:
    # a segment evaluates the trapezoid level and the first two midpoint
    # levels, the nodes of its first certificate, in one datum call

    @pytest.mark.parametrize("kind, a, b", [("lin", 0.0, 12.0), ("lin", 1.0, 7.5),
                                            ("lin", 0.0, 400.0), ("log", -20.0, 0.0)])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_first_evaluation_is_the_first_three_levels(self, kind, a, b, sign):
        u, evals = _recording(make_sub_log(0.5))
        st = 3.0
        _refined_halfline_segment(u, np.linspace(-4.0, 4.0, 48), 0.5, st, sign,
                                  kind, a, b, 1e-10)
        m = (len(evals[0]) - 1) // 4
        assert len(evals[0]) == 4 * m + 1 and m >= kernels._FIRST_PANELS // 2
        h = (b - a) / m
        offsets = [h * np.arange(m + 1), h * (np.arange(m) + 0.5),
                   0.5 * h * (np.arange(2 * m) + 0.5)]
        z = np.concatenate([np.exp(a + off) if kind == "log" else a + off
                            for off in offsets])
        want = sign * np.where(st * z == 0, semigroup._TINY, st * z)
        assert np.array_equal(np.sort(evals[0]), np.sort(want))

    def test_later_levels_hold_the_same_points(self, monkeypatch):
        # the first three levels (m + 1, m, 2m points) are one evaluation of
        # 4m + 1, and each later level still doubles: 4m, 8m, ...
        segment = semigroup._refined_halfline_segment
        per_segment = []

        def recorded(*args):
            per_segment.append(len(evals))
            return segment(*args)

        monkeypatch.setattr(semigroup, "_refined_halfline_segment", recorded)
        xs = np.linspace(-4.0, 4.0, 401)
        for datum in ("step:-1.5,2", "log_sine", "sub_log:0.5", "gaussian:1"):
            u, evals = _recording(from_id(datum))
            for t in (1e-4, 1.0, 1e8):
                for abs_tol in (1e-10, 1e-13):
                    per_segment.clear()
                    evals.clear()
                    scaled_evolve_many(u, xs, t, QuadratureSpec(abs_tol=abs_tol))
                    for i, e in zip(per_segment, per_segment[1:] + [len(evals)]):
                        sizes = [len(x) for x in evals[i:e]]
                        m = (sizes[0] - 1) // 4
                        assert sizes == [4 * m + 1] + [4 * m << j for j in range(len(sizes) - 1)]


class TestEvolve:
    def test_gaussian_closed_form(self):
        # e^{-x^2/(4s)} evolves to sqrt(s/(s+t)) e^{-x^2/(4(s+t))}
        u = make_gaussian(1.0)
        s, x, t = 1.0, 0.7, 2.3
        want = math.sqrt(s / (s + t)) * math.exp(-x * x / (4.0 * (s + t)))
        assert evolve(u, x, t) == pytest.approx(want, abs=1e-9)

    def test_on_grid_matches_scalar(self):
        # each grid value against the Gaussian closed form at that point
        u = make_gaussian(1.0)
        xs = np.linspace(-3.0, 3.0, 7)
        grid = evolve_on_grid(u, xs, 2.0)
        one = np.sqrt(1.0 / 3.0) * np.exp(-xs ** 2 / 12.0)
        assert np.max(np.abs(grid - one)) < 1e-8

    def test_on_grid_unsorted_wide_grid_in_input_order(self):
        # a shuffled physical grid much wider than the Gaussian window: every
        # point must see its own window and come back in its input slot
        u = make_gaussian(1.0)
        s, t = 1.0, 1.5
        xs = np.random.default_rng(3).permutation(np.linspace(-160.0, 160.0, 3201))
        want = math.sqrt(s / (s + t)) * np.exp(-xs ** 2 / (4.0 * (s + t)))
        assert np.max(np.abs(evolve_on_grid(u, xs, t) - want)) <= 2e-10

    def test_on_grid_nonsmooth_fallback(self):
        u = make_step(0.0, 1.0)
        xs = np.array([-1.0, 0.0, 1.0])
        grid = evolve_on_grid(u, xs, 4.0)
        want = profile_F(xs / 2.0)
        assert np.max(np.abs(grid - want)) < 2e-10


class TestSlidingAverage:
    def test_constant(self):
        assert sliding_average(make_constant(2.0), 5.0, 3.0) == pytest.approx(
            2.0, abs=1e-9
        )

    def test_log_sine_closed_form(self):
        # (1/(2R)) int_{-R}^{R} sin(log|y|) dy = (sin(log R) - cos(log R))/2
        u = make_log_sine()
        for R in (10.0, 1e4):
            want = 0.5 * (math.sin(math.log(R)) - math.cos(math.log(R)))
            assert sliding_average(u, 0.0, R) == pytest.approx(want, abs=1e-8)

    def test_offset_window(self):
        u = make_step(0.0, 1.0)
        assert sliding_average(u, 10.0, 2.0) == pytest.approx(1.0, abs=1e-9)
        assert sliding_average(u, 1.0, 3.0) == pytest.approx(4.0 / 6.0, abs=1e-9)

    def test_log_periodic_averages_do_not_settle(self):
        # window averages keep swinging along R = 10^k: no stabilization
        u = make_log_sine()
        avgs = [sliding_average(u, 0.0, 10.0 ** k) for k in range(1, 5)]
        deltas = np.abs(np.diff(avgs))
        assert deltas[-1] > 0.1

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            sliding_average(make_constant(1.0), 0.0, 0.0)

    def test_closed_forms_within_abs_tol(self):
        tol = DEFAULT_SPEC.abs_tol
        u = make_log_sine()
        for R in (1e-3, 0.3, 10.0, 1e4):
            want = 0.5 * (math.sin(math.log(R)) - math.cos(math.log(R)))
            assert abs(sliding_average(u, 0.0, R) - want) <= tol
        # (1/(2R)) int_{-R}^{R} e^{-y^2/4} dy = sqrt(pi) erf(R/2)/R
        u = make_gaussian(1.0)
        for R in (0.5, 3.0, 100.0):
            want = math.sqrt(math.pi) * erf(0.5 * R) / R
            assert abs(sliding_average(u, 0.0, R) - want) <= tol


def _unread(x):
    raise AssertionError("the datum was read")


class TestSlidingAverageRoundedWindow:
    @staticmethod
    def _step_average(x, R):
        # step:0,1 averaged over [x - R, x + R] in exact arithmetic
        x, R = Fraction(x), Fraction(R)
        return float(min(max((x + R) / (2 * R), Fraction(0)), Fraction(1)))

    @pytest.mark.parametrize(
        "x, R", [(2.5, 10.0), (-7.0, 3.25), (1e3, 0.3), (1e6, 3.0), (-1e12, 1e12 + 0.5),
                 (0.0, 8e307), (8e307, 8e307), (-8e307, 8e307)],
    )
    def test_matches_exact_step_average(self, x, R):
        # at x = +-8e307 the sum of two node coordinates overflows, their
        # midpoint does not
        got = sliding_average(make_step(0.0, 1.0), x, R)
        assert abs(got - self._step_average(x, R)) <= DEFAULT_SPEC.abs_tol

    @pytest.mark.parametrize(
        "x, R", [(1e16, 3.0), (4.5e15, 0.7), (1e16, 1.0), (1e20, 1.0), (1e6, 0.3)],
    )
    def test_rounded_ends_that_move_the_average_raise(self, x, R):
        # x -+ R round to ends that move the exact average by more than
        # abs_tol (at x = 1e16, R = 1 both ends round onto x); nothing is read
        u = dataclasses.replace(make_step(0.0, 1.0), eval=_unread)
        with pytest.raises(UncertifiedQuadrature, match="rounding the window ends"):
            sliding_average(u, x, R)

    def test_window_rounded_to_a_point_below_abs_tol(self):
        # both ends round onto x = 1e16; a datum below abs_tol can move the
        # average by less than abs_tol, so the empty window returns 0
        assert sliding_average(make_constant(1e-12), 1e16, 1.0) == 0.0

    def test_returns_within_abs_tol_or_raises(self):
        rng = np.random.default_rng(5)
        u = make_step(0.0, 1.0)
        returned = 0
        for _ in range(200):
            x = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 17))
            R = float(10.0 ** rng.uniform(-3, 17))
            try:
                got = sliding_average(u, x, R)
            except UncertifiedQuadrature:
                continue
            returned += 1
            assert abs(got - self._step_average(x, R)) <= DEFAULT_SPEC.abs_tol, (x, R)
        assert returned > 100


class TestEnvelopeBoundClosedForms:
    # (1/(2 sqrt(pi))) int_0^inf rho_L(z) (|u0(-sqrt(t) z)| + |u0(sqrt(t) z)|) dz
    # with zero constants, in closed form
    L = 4.0
    TIMES = (1e-2, 1.0, 1e4, 1e16)

    def test_step(self):
        # |0| + |1| under rho_L: L + int_0^inf e^{-d^2/4} dd = L + sqrt(pi)
        want = self.L / (2.0 * math.sqrt(math.pi)) + 0.5
        for t in self.TIMES:
            got = envelope_bound(make_step(0.0, 1.0), 0.0, 0.0, self.L, t)
            assert abs(got - want) <= DEFAULT_SPEC.abs_tol

    def test_gaussian(self):
        # 2 e^{-t z^2/4} below L; above it, complete the square of
        # (z - L)^2 + t z^2 about c = L/(1 + t)
        L = self.L
        for t in self.TIMES:
            inner = 2.0 * math.sqrt(math.pi / t) * erf(0.5 * L * math.sqrt(t))
            c = L / (1.0 + t)
            outer = (2.0 * math.exp(-L * L * t / (4.0 * (1.0 + t)))
                     * math.sqrt(math.pi / (1.0 + t))
                     * erfc(0.5 * math.sqrt(1.0 + t) * (L - c)))
            want = (inner + outer) / (2.0 * math.sqrt(math.pi))
            got = envelope_bound(make_gaussian(1.0), 0.0, 0.0, L, t)
            assert abs(got - want) <= DEFAULT_SPEC.abs_tol


class TestRescaledResidual:
    def test_constant_is_stationary(self):
        res = rescaled_residual(make_constant(0.5), 4.0, 0.0, 1e-2)
        assert res < 1e-10

    def test_log_sine_small_residual(self):
        res = rescaled_residual(make_log_sine(), 4.0, 1.0, 1e-2)
        assert res < 1e-3

    def test_validation(self):
        u = make_constant(1.0)
        with pytest.raises(ValueError):
            rescaled_residual(u, 4.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            rescaled_residual(u, 0.0, 0.0, 1e-2)
        with pytest.raises(ValueError):
            rescaled_residual(u, 1e-3, 0.0, 1e-2)
