import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import erf, erfc

from mildheat.initial_data import (
    catalog,
    from_id,
    make_constant,
    make_gaussian,
    make_log_sine,
    make_step,
    make_sub_log,
)
from mildheat import semigroup
from mildheat.kernels import (
    DEFAULT_SPEC,
    QuadratureSpec,
    UncertifiedQuadrature,
    profile_F,
)
from mildheat.profile_bounds import envelope_bound
from mildheat.semigroup import (
    GridFunction,
    _cells,
    _halfline_plan,
    _one_sided,
    _refined_halfline_segment,
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
        # the log-z segment lengthens like log t: one more doubling at most
        u = make_sub_log(0.5)
        assert _nodes_used(u, xs, 1e16) <= 2 * _nodes_used(u, xs, 1e4)

    @pytest.mark.parametrize("datum_id", ["step:-1.5,2", "constant:0.5"])
    def test_constant_sided_data_cost_the_same_at_every_time(self, datum_id):
        # nothing varies on the scale 1/sqrt(t), so nothing is graded
        u = from_id(datum_id)
        xs = np.linspace(-4.0, 4.0, 41)
        assert _nodes_used(u, xs, 1e16) == _nodes_used(u, xs, 1e-2)


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
        # sub_log at t = 1e8 needs far more than 512 panels next to its kink
        monkeypatch.setattr(semigroup, "_PANEL_CAP", 512)
        xs = np.linspace(-4.0, 4.0, 41)
        with pytest.raises(UncertifiedQuadrature, match="512 panels"):
            _refined_halfline_segment(
                make_sub_log(0.5), xs, _cells(xs), 1e4, 1.0, "lin", 0.0, 1.0,
                1e-10, 14.0,
            )


def _gaussian_scaled(xs, t, s=1.0):
    """u(sqrt(t) x, t) for u0 = e^{-x^2/(4s)}: sqrt(s/(s+t)) e^{-t x^2/(4(s+t))}."""
    return math.sqrt(s / (s + t)) * np.exp(-t * np.asarray(xs) ** 2 / (4.0 * (s + t)))


class TestCompressedCells:
    # dense cells are summed at Chebyshev targets and interpolated; every
    # check is against a closed form, never against the engine itself

    def test_coincident_points(self):
        xs = np.full(100, 0.7)
        got = scaled_evolve_many(make_gaussian(1.0), xs, 2.0)
        assert np.max(np.abs(got - _gaussian_scaled(xs, 2.0))) <= 2e-10

    def test_points_on_the_targets(self):
        # a cell spanning [0.5, 6.5] whose grid holds each of its targets
        grid = np.linspace(0.5, 6.5, 81)
        (_, _, targets, _), = _cells(grid)[0]
        xs = np.sort(np.concatenate([grid, targets]))
        (_, _, same, _), = _cells(xs)[0]
        assert np.array_equal(same, targets) and np.all(np.isin(targets, xs))
        for t in (0.5, 3.0):
            got = scaled_evolve_many(make_gaussian(1.0), xs, t)
            assert np.max(np.abs(got - _gaussian_scaled(xs, t))) <= 2e-10
        got = scaled_evolve_many(make_step(-1.5, 2.0), xs, 3.0)
        want = -1.5 * profile_F(-xs) + 2.0 * profile_F(xs)
        assert np.max(np.abs(got - want)) <= 2e-10

    def test_dense_cell_next_to_sparse_cell(self):
        xs = np.concatenate([np.linspace(-3.0, 3.0, 301), np.linspace(5.0, 11.0, 7)])
        cut, _ = _cells(xs)
        assert [bary is None for *_, bary in cut] == [False, True]
        shuffled = np.random.default_rng(5).permutation(xs)
        for t in (1e-2, 2.0, 1e6):
            got = scaled_evolve_many(make_gaussian(1.0), shuffled, t)
            assert np.max(np.abs(got - _gaussian_scaled(shuffled, t))) <= 2e-10
            got = scaled_evolve_many(make_step(0.0, 1.0), shuffled, t)
            assert np.max(np.abs(got - profile_F(shuffled))) <= 2e-10

    def test_wide_tail_radius_on_a_dense_grid(self):
        # cells keep their width whatever the tail radius: cells of half the
        # radius interpolate 5e-12 off at t = 2, seen only below 1e-11
        xs = np.linspace(-20.0, 20.0, 2001)
        for abs_tol in (1e-10, 1e-13):
            spec = QuadratureSpec(abs_tol=abs_tol, tail_radius=30.0)
            for t in (0.3, 2.0):
                got = scaled_evolve_many(make_gaussian(1.0), xs, t, spec)
                assert np.max(np.abs(got - _gaussian_scaled(xs, t))) <= 2 * abs_tol

    def test_few_targets_fall_back_to_the_points(self, monkeypatch):
        # 8 targets over 7 units interpolate far above any share, so the
        # bound sends every level to the direct sum
        monkeypatch.setattr(semigroup, "_TARGETS", 8)
        xs = np.linspace(-4.0, 4.0, 401)
        for t in (1e-2, 2.0):
            got = scaled_evolve_many(make_gaussian(1.0), xs, t)
            assert np.max(np.abs(got - _gaussian_scaled(xs, t))) <= 2e-10
        got = scaled_evolve_many(make_step(0.0, 1.0), xs, 2.0)
        assert np.max(np.abs(got - profile_F(xs))) <= 2e-10

    @pytest.mark.parametrize("targets", [8, 12, 16])
    def test_interpolation_bound_holds(self, monkeypatch, targets):
        # below 36 targets the interpolation error stands above rounding,
        # so the Cramer bound coef * sum |c_j| can be seen to hold
        monkeypatch.setattr(semigroup, "_TARGETS", targets)
        xs = np.linspace(-3.5, 3.5, 2 * targets + 1)
        cut, coef = _cells(xs)
        (_, _, tg, bary), = cut
        rng = np.random.default_rng(targets)
        for _ in range(20):
            z = np.sort(rng.uniform(-20.0, 20.0, 50))
            c = rng.standard_normal(50)

            def f(y):
                return np.exp(-0.25 * (y[:, None] - z) ** 2) @ c

            err = np.max(np.abs(bary @ f(tg) - f(xs)))
            assert err <= coef * np.sum(np.abs(c))


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
