import math

import numpy as np
import pytest

from scipy import special

from wtrv import (AccuracyError, BracketError, ConvergenceError, Interval,
                  brent_root, finite_diff_grad, incomplete_beta_upper,
                  integrate_adaptive, invert_monotone, kolmogorov_sf,
                  make_catalog, minimize_bounded)
from wtrv.numerics import _to_halve, scalar_or_array


def simpson(f, a, b, n=2000):
    """Independent composite-Simpson oracle (n even)."""
    xs = np.linspace(a, b, n + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / n
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


class TestIncompleteBetaUpper:
    def test_endpoints(self):
        assert incomplete_beta_upper(0.0, 2.5, 3.5) == pytest.approx(
            special.beta(2.5, 3.5), rel=1e-12)
        assert incomplete_beta_upper(1.0, 2.5, 3.5) == pytest.approx(0.0, abs=1e-14)

    def test_simpson_oracle(self):
        oracle = simpson(lambda t: t * (1 - t) ** 2, 0.25, 1.0, 2000)
        assert incomplete_beta_upper(0.25, 2.0, 3.0) == pytest.approx(oracle, rel=1e-10)

    def test_domain(self):
        with pytest.raises(Exception):
            incomplete_beta_upper(1.5, 2.0, 3.0)


class TestIntegrateAdaptive:
    def test_polynomial(self):
        res = integrate_adaptive(lambda x: 2 * x * (1 - x), Interval(0.0, 1.0),
                                 1e-12, 1e-10)
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-11)

    def test_exponential_tail(self):
        res = integrate_adaptive(lambda x: np.exp(-x), Interval(0.0, math.inf),
                                 1e-12, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_tail_expectation(self):
        # w'(x) sf(x) for X ~ exponential(rate 2), w = x^2: second raw moment
        res = integrate_adaptive(lambda x: 2 * x * np.exp(-2 * x),
                                 Interval(0.0, math.inf), 1e-12, 1e-10)
        assert res.value == pytest.approx(0.5, abs=1e-10)

    def test_partial_tail_substitution(self):
        # integral from a positive lower bound over an infinite domain
        res = integrate_adaptive(lambda x: np.exp(-x), Interval(2.0, math.inf),
                                 1e-12, 1e-10)
        assert res.value == pytest.approx(math.exp(-2.0), rel=1e-9)

    def test_catalog_pdfs_normalize(self, catalog_dist):
        res = integrate_adaptive(lambda x: np.asarray(catalog_dist.pdf(x)),
                                 catalog_dist.support, 1e-12, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_accuracy_error_carries_estimate(self):
        # an unreachable tolerance on a tiny cell budget must fail loudly,
        # and the error must still expose the best available estimate
        with pytest.raises(AccuracyError) as err:
            integrate_adaptive(lambda x: np.sin(40 * x) ** 2,
                               Interval(0.0, 1.0), 1e-300, 1e-300, max_cells=2)
        assert err.value.estimate == pytest.approx(0.5, abs=0.2)

    def test_scalar_integrand_raises(self):
        # no per-point retry: a scalar-only integrand fails on the node batch
        with pytest.raises(TypeError):
            integrate_adaptive(lambda x: math.exp(-x), Interval(0.0, 1.0))

    def test_wrong_shape_names_both_shapes(self):
        with pytest.raises(TypeError, match=r"shape \(\) for input shape \(120,\)"):
            integrate_adaptive(lambda x: 1.0, Interval(0.0, 1.0))


class TestToHalve:
    # the third cell is one float wide: it cannot be halved, and it stops the
    # refinement only when its error alone is above the tolerance
    A = np.array([0.0, 0.5, 1.0])
    B = np.array([0.5, 1.0, np.nextafter(1.0, 2.0)])

    def test_narrow_cell_below_tolerance(self):
        # it holds most of the error, so the halvable cell with the largest
        # error is halved in its place
        errs = np.array([1e-12, 2e-12, 8e-11])
        mask = _to_halve(self.A, self.B, errs, 1e-10, 1.0, 45, 8192)
        assert mask.tolist() == [False, True, False]

    def test_narrow_cell_above_tolerance(self):
        errs = np.array([1e-12, 2e-12, 2e-10])
        with pytest.raises(AccuracyError, match="too narrow to halve") as err:
            _to_halve(self.A, self.B, errs, 1e-10, 1.0, 45, 8192)
        assert err.value.estimate == 1.0

    def test_budget(self):
        with pytest.raises(AccuracyError, match="budget of 3 cells"):
            _to_halve(self.A, self.B, np.array([1e-9, 1e-9, 0.0]), 1e-10, 1.0, 45, 3)


class TestBrentRoot:
    def test_sqrt2(self):
        assert brent_root(lambda x: x * x - 2, 1.0, 2.0, 1e-12) == pytest.approx(
            math.sqrt(2), abs=1e-10)

    def test_origin(self):
        assert brent_root(lambda x: x, -1.0, 1.0, 1e-12) == pytest.approx(0.0, abs=1e-12)

    def test_exponential_median(self):
        d = make_catalog("exponential", {"lambda": 1.0})
        root = brent_root(lambda x: float(d.cdf(x)) - 0.5, 0.0, 10.0, 1e-12)
        assert root == pytest.approx(math.log(2), abs=1e-10)

    def test_residual_bound(self):
        for f, lo, hi in [(lambda x: x ** 3 - 1, 0.0, 2.0),
                          (lambda x: math.cos(x), 0.0, 3.0),
                          (lambda x: x * x - 2, 1.0, 2.0)]:
            root = brent_root(f, lo, hi, 1e-10)
            assert abs(f(root)) <= 1e-8

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            brent_root(lambda x: x * x + 1, -1.0, 1.0, 1e-10)


def _of_x(fn):
    """A function of x alone in invert_monotone's (x, idx) form."""
    return lambda x, idx: fn(x)


class TestInvertMonotone:
    CASES = [(lambda x: x ** 3 + x, lambda x: 3 * x ** 2 + 1, -2.0, 2.0),
             (np.expm1, np.exp, -1.0, 3.0),
             (np.arctan, lambda x: 1.0 / (1.0 + x * x), -50.0, 50.0)]

    def test_matches_brent_root(self):
        for f, fp, lo, hi in self.CASES:
            targets = np.linspace(float(f(lo)), float(f(hi)), 41)[1:-1]
            roots = invert_monotone(_of_x(f), _of_x(fp), targets, lo, hi)
            for t, r in zip(targets, roots):
                ref = brent_root(lambda x: float(f(x)) - t, lo, hi, 1e-15)
                assert abs(r - ref) <= 1e-14 * (1.0 + abs(ref))

    def test_per_point_brackets_and_shape(self):
        lo = np.array([[0.0, 1.0], [2.0, 3.0]])
        target = (lo + 0.5) ** 2
        roots = invert_monotone(_of_x(np.square), _of_x(lambda x: 2.0 * x), target, lo, lo + 1.0)
        assert roots.shape == (2, 2)
        assert np.allclose(roots, lo + 0.5, rtol=0.0, atol=1e-14)

    def test_targets_outside_bracket_clamp(self):
        roots = invert_monotone(_of_x(np.square), _of_x(lambda x: 2.0 * x),
                                np.array([-1.0, 0.0, 4.0, 9.0]), 0.0, 2.0)
        assert list(roots) == [0.0, 0.0, 2.0, 2.0]

    def test_indices_are_the_open_points(self):
        # f and fprime receive, in order, the flat positions of the points
        # their x holds: all points at the bracket ends, then those still
        # open, which shrink as points converge and never include a point
        # clamped to a bracket end. Each point's own function (x^p) is read
        # through the indices, so a wrong index gives a wrong root.
        powers = np.array([[1.0, 2.0, 3.0], [0.5, 4.0, 1.5]])
        target = np.array([[0.3, -1.0, 0.7], [0.2, 2.0, 0.55]])
        flat_p, flat_t = powers.ravel(), target.ravel()
        calls = []

        def f(x, idx):
            calls.append(("f", x.copy(), idx.copy()))
            return x ** flat_p[idx]

        def fprime(x, idx):
            calls.append(("fprime", x.copy(), idx.copy()))
            return flat_p[idx] * x ** (flat_p[idx] - 1.0)

        roots = invert_monotone(f, fprime, target, 0.0, 1.0)
        (_, lo, every_lo), (_, hi, every_hi) = calls[:2]
        assert list(every_lo) == list(every_hi) == list(range(6))
        assert list(lo) == [0.0] * 6 and list(hi) == [1.0] * 6
        clamped = {1, 4}  # targets below f(0) and above f(1)
        rounds = calls[2:]
        assert len(rounds) % 2 == 0 and rounds
        open_before = set(range(6)) - clamped
        for (nf, xf, idx_f), (nd, xd, idx_d) in zip(rounds[::2], rounds[1::2]):
            assert (nf, nd) == ("f", "fprime")
            assert list(idx_f) == list(idx_d) == sorted(idx_f)
            assert np.array_equal(xf, xd) and xf.shape == idx_f.shape
            assert set(idx_f) <= open_before
            open_before = set(idx_f)
        assert list(rounds[0][2]) == sorted(set(range(6)) - clamped)
        assert roots[0, 1] == 0.0 and roots[1, 1] == 1.0
        inner = [0, 2, 3, 5]
        assert np.allclose(roots.ravel()[inner] ** flat_p[inner], flat_t[inner],
                           rtol=0.0, atol=1e-14)

    def test_unconverged_points_raise(self):
        # a derivative that is off by 300 orders forces bisection on a
        # bracket too wide to close within the round budget
        with pytest.raises(ConvergenceError):
            invert_monotone(_of_x(np.log1p), _of_x(lambda x: np.full_like(x, 1e-300)),
                            np.array([1.0]), 0.0, 1e300)

    def test_non_finite_function_raises(self):
        with pytest.raises(ConvergenceError):
            invert_monotone(_of_x(lambda x: np.where(x > 0.5, np.nan, x)),
                            _of_x(np.ones_like), np.array([0.4]), 0.0, 0.6)


class TestScalarOrArray:
    def test_scalar_in_float_out(self):
        f = scalar_or_array(lambda x: 2.0 * x)
        assert type(f(1.5)) is float and f(1.5) == 3.0
        assert type(f(np.float64(1.5))) is float
        assert type(f(np.array(1.5))) is float
        assert np.array_equal(f([1.0, 2.0]), np.array([2.0, 4.0]))


def quadratic(hess, target):
    """(f, g, h) of ½ (v − target)ᵀ hess (v − target)."""
    hess, target = np.asarray(hess, dtype=float), np.asarray(target, dtype=float)

    def fun(v):
        r = v - target
        g = hess @ r
        return 0.5 * float(r @ g), g, hess

    return fun


class TestMinimizeBounded:
    def test_1d_quadratic(self):
        res = minimize_bounded(quadratic([[2.0]], [3.0]), [1.0], [Interval(0.0, 10.0)], 1e-8)
        assert res.argmin[0] == pytest.approx(3.0, abs=1e-6)
        assert res.converged

    def test_2d_bowl(self):
        res = minimize_bounded(quadratic(2.0 * np.eye(2), [0.0, 0.0]), [0.5, 0.5],
                               [Interval(-1.0, 1.0)] * 2, 1e-8)
        assert abs(res.argmin[0]) <= 1e-6 and abs(res.argmin[1]) <= 1e-6

    def test_convex_quadratic_generic(self):
        target = np.array([0.3, -0.2])
        res = minimize_bounded(quadratic([[4.0, 1.0], [1.0, 10.0]], target), [0.0, 0.0],
                               [Interval(-1.0, 1.0)] * 2, 1e-9)
        assert np.allclose(res.argmin, target, atol=1e-6)

    def test_argmin_in_bounds(self):
        res = minimize_bounded(quadratic([[2.0]], [-5.0]), [1.0], [Interval(0.0, 10.0)], 1e-8)
        assert 0.0 <= res.argmin[0] <= 10.0
        assert res.argmin[0] == pytest.approx(0.0, abs=1e-6)

    def test_batched_problems_match_one_at_a_time(self):
        # three 1-D problems with their own bounds, solved side by side
        targets, his = np.array([3.0, 5.0, -1.0]), np.array([10.0, 4.5, 10.0])

        def fun(v):
            r = v[0] - targets
            return r ** 2, 2.0 * r[None], np.full((1, 1, 3), 2.0)

        res = minimize_bounded(fun, [[1.0, 4.0, 9.0]], [(0.0, his)], 1e-8)
        assert np.allclose(res.argmin[0], [3.0, 4.5, 0.0], atol=1e-12)
        assert res.converged.all()
        for j in range(3):
            one = minimize_bounded(quadratic([[2.0]], [targets[j]]), [[1.0, 4.0, 9.0][j]],
                                   [Interval(0.0, his[j])], 1e-8)
            assert one.argmin[0] == pytest.approx(res.argmin[0, j], abs=1e-12)

    def test_step_stops_at_a_face_then_holds_it(self):
        # the unconstrained minimum (2, 2) lies past the face x = 1: the first
        # step ends on it, the second holds x there and finds the constrained
        # minimum (1, 2 - 0.5 * (1 - 2)) = (1, 2.5)
        res = minimize_bounded(quadratic([[2.0, 1.0], [1.0, 2.0]], [2.0, 2.0]), [0.0, 0.0],
                               [Interval(-5.0, 1.0), Interval(-5.0, 5.0)], 1e-10)
        assert np.allclose(res.argmin, [1.0, 2.5], atol=1e-12)
        assert res.iterations <= 2 and res.converged

    def test_three_coordinates(self):
        target = np.array([0.5, -0.25, 2.0])
        hess = [[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]]
        res = minimize_bounded(quadratic(hess, target), [0.0, 0.0, 0.0],
                               [Interval(-1.0, 1.0)] * 3, 1e-10)
        # z stops at its face; x and y then minimize with z = 1
        h = np.asarray(hess)
        xy = np.linalg.solve(h[:2, :2], h[:2, :2] @ target[:2] - h[:2, 2] * (1.0 - target[2]))
        assert np.allclose(res.argmin, [*xy, 1.0], atol=1e-10) and res.converged

    def test_rejects_start_outside_box(self):
        with pytest.raises(ValueError, match="inside the bounds"):
            minimize_bounded(quadratic([[2.0]], [0.0]), [2.0], [Interval(0.0, 1.0)])


class TestFiniteDiffGrad:
    def test_square(self):
        g = finite_diff_grad(lambda v: v[0] ** 2, [3.0], 1e-5)
        assert g[0] == pytest.approx(6.0, abs=1e-7)

    def test_constant(self):
        g = finite_diff_grad(lambda v: 7.0, [1.0, 2.0, 3.0], 1e-5)
        assert np.allclose(g, 0.0, atol=1e-10)

    def test_converged_gradient_scaled_norm(self):
        f = lambda v: (v[0] - 2.0) ** 4 + (v[1] + 1.0) ** 2 + 10.0
        df = lambda v: np.array([4.0 * (v[0] - 2.0) ** 3, 2.0 * (v[1] + 1.0)])
        d2f = lambda v: np.diag([12.0 * (v[0] - 2.0) ** 2, 2.0])
        res = minimize_bounded(lambda v: (f(v), df(v), d2f(v)), [0.0, 0.0],
                               [Interval(-5.0, 5.0)] * 2, 1e-7)
        g = finite_diff_grad(f, res.argmin, 1e-6)
        assert float(np.max(np.abs(g))) <= 1e-4 * (1.0 + abs(res.objective))


class TestKolmogorovSf:
    def test_limits(self):
        assert kolmogorov_sf(0.0) == pytest.approx(1.0)
        assert kolmogorov_sf(6.0) < 1e-10

    def test_series_oracle(self):
        k = np.arange(1, 101)
        oracle = 2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k ** 2))
        assert kolmogorov_sf(1.0) == pytest.approx(float(oracle), abs=1e-12)

    def test_monotone_decreasing(self):
        lam = np.linspace(0.3, 2.5, 40)
        vals = [kolmogorov_sf(v) for v in lam]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_small_argument_is_one(self):
        # the alternating series needs millions of terms below lam ~ 0.01
        assert kolmogorov_sf(0.001) == pytest.approx(1.0, abs=1e-15)
        assert kolmogorov_sf(1e-4) == pytest.approx(1.0, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            kolmogorov_sf(-0.1)
