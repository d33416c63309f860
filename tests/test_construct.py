import math

import numpy as np
import pytest

from scipy import special

from wtrv import (check_order, classify_aging, construct, equilibrium, expected_weight,
                  make_catalog, make_weight, minimum_of, parse_dist_spec,
                  parse_weight_spec, sample,
                  table1_oracle_suite, weighted_kumaraswamy, wtrv_of_minimum)
from wtrv.construct import _hermite, _table1_rows
from wtrv.numerics import Interval, integrate_adaptive, invert_monotone, tabulate_cdf
from wtrv.weights import IntegrabilityError, tail_integrand, validate_weight

from conftest import interior_grid


class TestExpectedWeight:
    def test_exponential_mean(self):
        v = expected_weight(make_catalog("exponential", {"lambda": 1.0}),
                            make_weight("linear", {}))
        assert v == pytest.approx(1.0, abs=1e-9)

    def test_uniform_square(self):
        v = expected_weight(make_catalog("uniform", {}),
                            make_weight("power", {"c": 2.0}))
        assert v == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_kumaraswamy_power_closed_form(self):
        a, b, c = 2.0, 3.0, 1.5
        v = expected_weight(make_catalog("kumaraswamy", {"a": a, "b": b}),
                            make_weight("power", {"c": c}))
        assert v == pytest.approx(b * special.beta(1 + c / a, b), rel=1e-9)

    def test_divergent_weight(self):
        with pytest.raises(IntegrabilityError):
            construct(make_catalog("pareto_lomax", {"alpha": 1.0}),
                      make_weight("power", {"c": 2.0}))


class TestConstruct:
    def test_exponential_power_gives_gamma(self):
        k, lam = 2.5, 1.5
        xw = construct(make_catalog("exponential", {"lambda": lam}),
                       make_weight("power", {"c": k}))
        target = make_catalog("gamma", {"k": k, "lambda": lam})
        xs = interior_grid(target, n=512)
        sup = np.max(np.abs(np.asarray(xw.pdf(xs)) - np.asarray(target.pdf(xs))))
        assert sup <= 1e-6

    def test_exponential_linear_fixed_point(self):
        lam = 1.3
        xw = construct(make_catalog("exponential", {"lambda": lam}),
                       make_weight("linear", {}))
        xs = np.linspace(0.05, 5.0, 200)
        target = lam * np.exp(-lam * xs)
        assert np.max(np.abs(np.asarray(xw.pdf(xs)) - target)) <= 1e-8

    def test_burr_log1p_fixed_point(self):
        c, k = 2.5, 1.8
        xw = construct(make_catalog("burr12", {"c": c, "k": k}),
                       make_weight("log1p_power", {"c": c}))
        base = make_catalog("burr12", {"c": c, "k": k})
        xs = interior_grid(base, n=256)
        sup = np.max(np.abs(np.asarray(xw.pdf(xs)) - np.asarray(base.pdf(xs))))
        assert sup <= 1e-6

    def test_normalizer_and_pdf_identity(self):
        base = make_catalog("weibull", {"alpha": 1.7, "beta": 2.2})
        w = make_weight("power", {"c": 2.0})
        xw = construct(base, w)
        xs = interior_grid(xw, n=64)
        expected = (np.asarray(w.w_prime(xs)) * np.asarray(base.sf(xs))
                    / xw.normalizer)
        assert np.allclose(np.asarray(xw.pdf(xs)), expected, rtol=1e-12)

    def test_integrates_to_one(self):
        xw = construct(make_catalog("gamma", {"k": 2.5, "lambda": 1.5}),
                       make_weight("log1p_power", {"c": 2.5}))
        res = integrate_adaptive(lambda x: np.asarray(xw.pdf(x)), xw.support,
                                 1e-12, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_quantile_roundtrip(self):
        xw = construct(make_catalog("exponential", {"lambda": 1.5}),
                       make_weight("power", {"c": 2.5}))
        u = np.linspace(0.001, 0.999, 999)
        err = max(abs(float(xw.cdf(xw.quantile(v))) - v) for v in u)
        assert err <= 1e-7


class TestConstructedQuantile:
    # criterion-3 constructions plus a base density singular at 0
    CASES = [
        (("exponential", {"lambda": 1.5}), ("power", {"c": 2.5})),
        (("uniform", {}), ("neg_log_sq", {})),
        (("kumaraswamy", {"a": 2.0, "b": 3.0}), ("power", {"c": 1.5})),
        (("burr12", {"c": 3.0, "k": 2.0}), ("power", {"c": 2.0})),
        (("weibull", {"alpha": 1.7, "beta": 2.2}),
         ("scaled_power", {"alpha": 1.7, "beta": 2.2})),
        (("gamma", {"k": 2.5, "lambda": 1.5}), ("log1p_power", {"c": 2.5})),
        (("exponential", {"lambda": 2.18}), ("power", {"c": 0.41})),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0][0]}+{c[1][0]}")
    def test_roundtrip_to_1e14(self, case):
        (dname, dparams), (wname, wparams) = case
        xw = construct(make_catalog(dname, dict(dparams)),
                       make_weight(wname, dict(wparams)))
        u = np.linspace(0.001, 0.999, 10 ** 4)
        assert np.max(np.abs(np.asarray(xw.cdf(xw.quantile(u))) - u)) <= 1e-14

    # power(c=0.3) makes the density singular at 0, so the cdf is steep there
    STEEP = [("burr12", {"c": 0.7, "k": 3.0}), ("pareto_lomax", {"alpha": 8.0}),
             ("truncated_power", {"beta": 3.5}), ("gamma", {"k": 0.4, "lambda": 1.0})]

    @pytest.mark.parametrize("base", STEEP, ids=lambda b: b[0])
    def test_steep_at_zero(self, base):
        xw = construct(make_catalog(*base), make_weight("power", {"c": 0.3}))
        u = np.linspace(0.001, 0.999, 10 ** 4)
        assert np.max(np.abs(np.asarray(xw.cdf(xw.quantile(u))) - u)) <= 1e-14
        tiny = np.geomspace(1e-300, 1e-3, 300)
        q = xw.quantile(tiny)
        assert np.all(np.diff(q) >= 0.0)
        assert np.max(np.abs(np.asarray(xw.cdf(q)) - tiny)) <= 1e-14

    def test_lower_end_quantile_error(self):
        # FOUND (CHANGES.md): the table's 1e-10 tolerance is absolute, so the
        # quantile of a density singular at 0 leaves its closed form gamma(0.3)
        # below u ~ 1e-9, by about 3.2e-12 / u relative down to u = 1e-11
        # (3.2e-3 at 1e-9, 0.36 at 1e-11) and faster below (1.9e3 at 1e-13);
        # this pins those sizes
        xw = construct(make_catalog("exponential", {"lambda": 1.0}),
                       make_weight("power", {"c": 0.3}))
        u = np.geomspace(1e-13, 1e-3, 21)
        rel = np.abs(np.asarray(xw.quantile(u)) / special.gammaincinv(0.3, u) - 1.0)
        assert np.all(rel[u >= 1e-11] <= 4e-12 / u[u >= 1e-11] + 1e-7)
        assert rel.max() <= 2.5e3

    def test_scalar_and_edges(self):
        xw = construct(make_catalog("exponential", {"lambda": 1.0}),
                       make_weight("linear", {}))
        assert type(xw.quantile(0.5)) is float
        assert xw.quantile(0.0) == 0.0 and xw.quantile(1.0) == math.inf
        assert xw.cdf_values[-1] == 1.0
        assert float(xw.cdf(xw.cdf_nodes[-1] * 2.0)) == 1.0

    def test_normalizer_integrated_once(self, monkeypatch):
        # the table's pass is also the normalizer's: no second quadrature
        import wtrv.numerics as numerics
        import wtrv.weights as weights
        tables, quads = [], []
        for name, log in (("tabulate_cdf", tables), ("integrate_adaptive", quads)):
            original = getattr(numerics, name)

            def counted(*args, _original=original, _log=log, **kwargs):
                _log.append(args)
                return _original(*args, **kwargs)

            for module in (numerics, weights):
                monkeypatch.setattr(module, name, counted)
        xw = construct(make_catalog("gamma", {"k": 2.0, "lambda": 1.0}),
                       make_weight("power", {"c": 2.0}))
        assert len(tables) == 1 and quads == []
        assert xw.normalizer == pytest.approx(6.0, rel=1e-12)  # E[X^2] = k(k+1)

    def test_infinite_support_tail_has_no_residual_mass(self):
        # the constructed sf vanishes past the table, so the mean residual
        # life integral converges
        xw = construct(make_catalog("weibull", {"alpha": 1.7, "beta": 2.2}),
                       make_weight("scaled_power", {"alpha": 1.7, "beta": 2.2}))
        rep = classify_aging(xw)
        assert rep.failures == {}
        assert rep.classes["IFR"] and rep.classes["DMRL"]


class TestTableGap:
    # a singular density at x = 0 is refined geometrically, so the table
    # meets its tolerance there
    @pytest.mark.parametrize("base, weight", [
        ("exponential(lambda=2.18)", "power(c=0.41)"),
        ("exponential(lambda=1)", "power(c=0.7)"),
        ("exponential(lambda=2)", "power(c=0.5)"),
        ("weibull(alpha=0.6,beta=1.2)", "scaled_power(alpha=0.6,beta=1.2)"),
        ("kumaraswamy(a=1,b=0.5)", "power(c=0.8)"),
    ])
    def test_lower_end_singularity_converges(self, base, weight):
        xw = construct(parse_dist_spec(base), parse_weight_spec(weight))
        assert xw.table_gap <= 1e-10

    def test_upper_end_singularity_reported(self):
        # the floats next to x = 1 cannot resolve this singular end, and the
        # gap left there is reported, not hidden
        xw = construct(make_catalog("kumaraswamy", {"a": 1.0, "b": 0.5}),
                       make_weight("neg_log_sq", {}))
        assert xw.table_gap > 1e-10

    def test_upper_end_singularity_cdf_error(self):
        # the cell next to x = 1 is one float wide and its GK15 mass reads 0,
        # so the total misses about 2 * sqrt(1.1e-16) of the density's
        # (1 - x)^(-1/2) end, and the cdf, scaled by that total, is high by
        # up to that fraction; this pins the error at its present size
        mpmath = pytest.importorskip("mpmath")
        xw = construct(make_catalog("kumaraswamy", {"a": 1.0, "b": 0.5}),
                       make_weight("neg_log_sq", {}))
        g = lambda x: 2 * x / ((1 + x) * mpmath.sqrt(1 - x))  # w'(x) * sf(x)
        with mpmath.workdps(30):
            z = mpmath.quad(g, [0, 1])
            assert xw.normalizer == pytest.approx(float(z), rel=2e-8)
            for x in (0.1, 0.5, 0.9, 0.99, 0.999999, 1 - 1e-12):
                ref = float(mpmath.quad(g, [0, x]) / z)
                assert float(xw.cdf(x)) == pytest.approx(ref, rel=0.0, abs=2e-8), x


def _admissibility_pairs():
    bases = ["exponential(lambda=1)", "exponential(lambda=2.18)", "gamma(k=2,lambda=1.5)",
             "weibull(alpha=0.6,beta=1.2)", "pareto_lomax(alpha=1)", "pareto_lomax(alpha=1.5)",
             "pareto_lomax(alpha=6)", "burr12(c=2.5,k=1.8)", "kumaraswamy(a=1,b=0.5)",
             "beta(alpha=0.5,beta=0.5)", "truncated_power(beta=3.5)"]
    weights = ["linear()", "power(c=2.5)", "power(c=0.41)", "expm1()", "exp_shift_sq()"]
    pairs = [(base, weight) for base in bases for weight in weights]
    return pairs + [("kumaraswamy(a=1,b=0.5)", "neg_log_sq()"), ("uniform", "neg_x_log1m()"),
                    ("gamma(k=0.4,lambda=1)", "neg_log_sq()")]


class TestAdmissibility:
    # one rule decides admissibility: construct builds exactly the pairs
    # validate_weight accepts, and its normalizer is expected_weight's value,
    # computed by the same pass
    REJECTED = {("pareto_lomax(alpha=1)", "linear()"), ("pareto_lomax(alpha=1.5)", "power(c=2.5)"),
                ("exponential(lambda=1)", "expm1()"), ("gamma(k=2,lambda=1.5)", "exp_shift_sq()"),
                ("gamma(k=0.4,lambda=1)", "neg_log_sq()")}
    ACCEPTED = {("exponential(lambda=2.18)", "expm1()"), ("pareto_lomax(alpha=6)", "power(c=2.5)"),
                ("pareto_lomax(alpha=1.5)", "power(c=0.41)"), ("gamma(k=2,lambda=1.5)", "expm1()"),
                ("kumaraswamy(a=1,b=0.5)", "neg_log_sq()")}

    @pytest.mark.parametrize("base, weight", _admissibility_pairs())
    def test_construct_iff_valid(self, base, weight):
        dist, w = parse_dist_spec(base), parse_weight_spec(weight)
        report = validate_weight(w, dist)
        assert (base, weight) not in self.REJECTED or not report.ok
        assert (base, weight) not in self.ACCEPTED or report.ok
        if not report.ok:
            with pytest.raises(IntegrabilityError):
                construct(dist, w)
            return
        xw = construct(dist, w)
        assert xw.normalizer == expected_weight(dist, w) == report.normalizer
        if (base, weight) == ("kumaraswamy(a=1,b=0.5)", "neg_log_sq()"):
            assert xw.table_gap > 1e-10


def _table_cases():
    cases = [(f"{base}+{weight}", parse_dist_spec(base), parse_weight_spec(weight))
             for base, weight in _admissibility_pairs()]
    return cases + [(f"table1-row{i}", base, weight)
                    for i, (_, base, weight, _, _) in enumerate(_table1_rows(), start=1)]


class TestTableInvariants:
    # _hermite divides by the knot spacings, and the quantile brackets a
    # target by the knot values: a repeated knot (rounding puts the nodes of
    # a cell a float wide on one float) or a decreasing value breaks them
    @pytest.mark.parametrize("case", _table_cases(), ids=lambda c: c[0])
    def test_knots_values_slopes_and_cdf(self, case):
        _, dist, w = case
        table = validate_weight(w, dist).table
        if table is None:  # not integrable: TestAdmissibility covers it
            return
        nodes, values, slopes = table.nodes, table.values, table.slopes
        assert np.all(np.diff(nodes) > 0.0)
        assert values[0] == 0.0 and values[-1] == 1.0 and np.all(np.diff(values) >= 0.0)
        assert np.all(np.isfinite(slopes)) and np.all(slopes >= 0.0)
        # every piece at its knots and 1/4, 1/2 and 3/4 of its width
        t = np.append((nodes[:-1, None] + np.diff(nodes)[:, None] * [0.0, 0.25, 0.5, 0.75]).ravel(),
                      nodes[-1])
        with np.errstate(divide="ignore"):  # t = 1 is x = inf on an infinite support
            x = table.to_x(t)
        # the cubics are monotone; the query sums y + c1 s + c2 s^2 + c3 s^3
        # left to right, and three roundings next to 1 may undo one step
        step = np.diff(np.asarray(construct(dist, w).cdf(x)))
        assert np.all(step >= -4 * np.finfo(float).eps)

    def test_evaluations_and_rounds(self, monkeypatch):
        # f is evaluated at the 15 Kronrod nodes of each cell, in one batch
        # per round, and nowhere else
        import wtrv.numerics as numerics
        cells, points = [], []
        gk15 = numerics._gk15_cells
        monkeypatch.setattr(numerics, "_gk15_cells",
                            lambda f, a, b: (cells.append(a.size), gk15(f, a, b))[1])
        dist, w = make_catalog("exponential", {"lambda": 1.0}), make_weight("power", {"c": 0.3})
        f = tail_integrand(w, dist)
        table = tabulate_cdf(lambda x: (points.append(np.size(x)), f(x))[1],
                             Interval(0.0, math.inf))
        assert table.evaluations == 15 * sum(cells) == sum(points)
        assert table.rounds == len(cells) - 1 == len(points) - 1 >= 1


def _searching_quantile(table, u):
    """The constructed quantile with every Newton round's value and slope
    found by a search over all knots: each u bracketed by its pair of knots,
    read through _hermite's searching functions."""
    value, slope = _hermite(table.nodes, table.values, table.slopes)
    i = np.searchsorted(table.values, u, side="right")
    return table.to_x(invert_monotone(lambda v, _: value(v), lambda v, _: slope(v),
                                      u, table.nodes[i - 1], table.nodes[i]))


class TestQuantileInItsPiece:
    # the quantile evaluates each point's cubic in the piece its bracket
    # names; it must give the searching reference's floats: on the CLI's
    # grids, at the knot values themselves and within 1e-12 of 0 and 1
    EDGES = np.array([1e-300, 1e-15, 1e-13, 1e-12, 1.0 - 1e-12, 1.0 - 1e-13,
                      1.0 - 1e-15, 1.0 - 2.0 ** -53])

    @pytest.mark.parametrize("case", _table_cases(), ids=lambda c: c[0])
    def test_bit_identical_to_searching_quantile(self, case):
        _, dist, w = case
        table = validate_weight(w, dist).table
        if table is None:  # not integrable: TestAdmissibility covers it
            return
        xw = construct(dist, w)
        knots = table.values[(table.values > 0.0) & (table.values < 1.0)]
        for u in (np.linspace(0.005, 0.995, 201), np.linspace(0.005, 0.995, 1000),
                  knots, self.EDGES):
            # heavy tails reach t = 1, x = inf, next to u = 1 (CHANGES FOUND)
            with np.errstate(divide="ignore"):
                got, ref = np.asarray(xw.quantile(u)), _searching_quantile(table, u)
            assert np.array_equal(got, ref)


class TestHermite:
    # the written-out interpolant against SciPy's spline on the real tables
    # of five constructions, at their nodes and 20 000 uniform points
    @pytest.mark.parametrize("base, weight", [
        ("gamma(k=2,lambda=1)", "power(c=1.5)"),
        ("exponential(lambda=2)", "power(c=0.41)"),
        ("pareto_lomax(alpha=2.5)", "linear()"),
        ("kumaraswamy(a=2,b=3)", "power(c=1.5)"),
        ("weibull(alpha=0.6,beta=1)", "scaled_power(alpha=0.6,beta=1)"),
    ])
    def test_matches_scipy_spline(self, base, weight):
        from scipy.interpolate import CubicHermiteSpline

        dist, w = parse_dist_spec(base), parse_weight_spec(weight)
        hi = min(dist.support.hi, w.domain_hint.hi)
        table = tabulate_cdf(tail_integrand(w, dist), Interval(0.0, hi))
        nodes, values, slopes = table.nodes, table.values, table.slopes
        ref = CubicHermiteSpline(nodes, values, slopes)
        value, slope = _hermite(nodes, values, slopes)
        pts = np.concatenate([nodes, np.random.default_rng(3).uniform(nodes[0], nodes[-1], 20000)])
        assert np.max(np.abs(value(pts) - ref(pts))) <= 4e-16
        ref_slope = ref.derivative()(pts)
        assert np.max(np.abs(slope(pts) - ref_slope)) <= 1e-14 * np.max(np.abs(ref_slope))


def _gate_cases():
    cases = [(f"table1-row{i}", base, weight, target)
             for i, (_, base, weight, target, _) in enumerate(_table1_rows(), start=1)]
    cases += [(f"exponential+power({c})", make_catalog("exponential", {"lambda": 1.5}),
               make_weight("power", {"c": c}), make_catalog("gamma", {"k": c, "lambda": 1.5}))
              for c in (0.41, 0.7)]
    cases += [(f"pareto_lomax({alpha})+linear", make_catalog("pareto_lomax", {"alpha": alpha}),
               make_weight("linear"), make_catalog("pareto_lomax", {"alpha": alpha - 1.0}))
              for alpha in (1.8, 2.5, 3.5, 6.0)]
    return cases


class TestCdfAccuracyGate:
    # constructions with a closed form: the tabulated cdf meets 1e-8 from
    # the far lower to the far upper tail, and no order check finds a
    # violation between a construction and its own closed form
    U = np.unique(np.concatenate([np.geomspace(1e-9, 1e-3, 61),
                                  np.linspace(1e-3, 1.0 - 1e-3, 999),
                                  1.0 - np.geomspace(1e-3, 1e-9, 61)]))

    @pytest.mark.parametrize("case", _gate_cases(), ids=lambda c: c[0])
    def test_cdf_and_orders_match_closed_form(self, case):
        _, base, weight, target = case
        xw = construct(base, weight)
        xs = np.asarray(target.quantile(self.U))
        assert np.max(np.abs(np.asarray(xw.cdf(xs)) - self.U)) <= 1e-8
        for order in ("st", "fr", "rfr", "lr"):
            assert check_order(xw, target, order).holds_on_grid, (order, "built <= closed")
            assert check_order(target, xw, order).holds_on_grid, (order, "closed <= built")


class TestEquilibrium:
    def test_exponential_fixed_point(self):
        lam = 2.0
        eq = equilibrium(make_catalog("exponential", {"lambda": lam}))
        xs = np.linspace(0.05, 4.0, 100)
        assert np.max(np.abs(np.asarray(eq.pdf(xs))
                             - lam * np.exp(-lam * xs))) <= 1e-8

    def test_uniform(self):
        eq = equilibrium(make_catalog("uniform", {}))
        xs = np.linspace(0.01, 0.99, 100)
        assert np.max(np.abs(np.asarray(eq.pdf(xs)) - 2 * (1 - xs))) <= 1e-8

    def test_gamma_two_one(self):
        eq = equilibrium(make_catalog("gamma", {"k": 2.0, "lambda": 1.0}))
        xs = np.linspace(0.1, 8.0, 100)
        target = (1 + xs) * np.exp(-xs) / 2.0
        assert np.max(np.abs(np.asarray(eq.pdf(xs)) - target)) <= 1e-8

    def test_infinite_mean(self):
        with pytest.raises(IntegrabilityError):
            equilibrium(make_catalog("pareto_lomax", {"alpha": 1.0}))

    def test_density_ratio_proportional_to_w_prime(self):
        # the ratio pdf_{X_w} / pdf_{equilibrium} equals mu * w' / E[w(X)]:
        # nondecreasing for convex weights, nonincreasing for concave ones
        base = make_catalog("gamma", {"k": 2.0, "lambda": 1.0})
        eq = equilibrium(base)
        xs = interior_grid(base, n=128, u_lo=0.02, u_hi=0.98)
        for c, expect_nondec in ((2.0, True), (0.5, False)):
            xw = construct(base, make_weight("power", {"c": c}))
            ratio = np.asarray(xw.pdf(xs)) / np.asarray(eq.pdf(xs))
            diffs = np.diff(ratio)
            if expect_nondec:
                assert np.all(diffs >= -1e-9)
            else:
                assert np.all(diffs <= 1e-9)


class TestWeightedKumaraswamy:
    def test_matches_numeric_construction(self):
        a, b, c = 2.0, 3.0, 1.5
        wk = weighted_kumaraswamy(a, b, c)
        xw = construct(make_catalog("kumaraswamy", {"a": a, "b": b}),
                       make_weight("power", {"c": c}))
        xs = np.linspace(0.02, 0.98, 200)
        assert np.max(np.abs(np.asarray(wk.pdf(xs))
                             - np.asarray(xw.pdf(xs)))) <= 1e-6

    def test_bad_params(self):
        with pytest.raises(Exception):
            weighted_kumaraswamy(-1.0, 3.0, 1.5)


class TestMinima:
    def test_two_unit_exponentials(self):
        d = make_catalog("exponential", {"lambda": 1.0})
        m = minimum_of([d, d])
        xs = np.linspace(0.05, 3.0, 50)
        assert np.allclose(np.asarray(m.sf(xs)), np.exp(-2 * xs), atol=1e-12)
        eq = equilibrium(m)
        assert np.max(np.abs(np.asarray(eq.pdf(xs))
                             - 2 * np.exp(-2 * xs))) <= 1e-8

    def test_rate_sum(self):
        m = minimum_of([make_catalog("exponential", {"lambda": 1.0}),
                        make_catalog("exponential", {"lambda": 2.0})])
        assert float(m.sf(1.0)) == pytest.approx(math.exp(-3.0), rel=1e-12)

    def test_wtrv_of_minimum_matches_direct(self):
        dists = [make_catalog("exponential", {"lambda": 1.0}),
                 make_catalog("exponential", {"lambda": 2.0})]
        w = make_weight("linear", {})
        via_helper = wtrv_of_minimum(dists, w)
        direct = construct(minimum_of(dists), w)
        xs = np.linspace(0.05, 2.0, 50)
        assert np.max(np.abs(np.asarray(via_helper.pdf(xs))
                             - np.asarray(direct.pdf(xs)))) <= 1e-10


class TestTable1Suite:
    def test_all_rows_pass(self):
        rows = table1_oracle_suite()
        assert len(rows) == 12
        for row in rows:
            assert row.passed, f"row {row.index} ({row.target}): {row.sup_norm}"
            assert row.sup_norm <= 1e-6

    def test_kumaraswamy_row_flagged(self):
        rows = table1_oracle_suite()
        flagged = [r for r in rows if "non-normalized" in r.note]
        assert len(flagged) == 1


class TestMonteCarloIdentity:
    def test_lemma_identity_spot_checks(self):
        pairs = [
            (make_catalog("gamma", {"k": 2.5, "lambda": 1.5}),
             make_weight("power", {"c": 2.0})),
            (make_catalog("kumaraswamy", {"a": 2.0, "b": 3.0}),
             make_weight("neg_log_sq", {})),
        ]
        n = 200_000
        for i, (dist, w) in enumerate(pairs):
            v = expected_weight(dist, w)
            draws = np.asarray(w.w(sample(dist, n, seed=100 + i)), dtype=float)
            se = float(np.std(draws, ddof=1)) / math.sqrt(n)
            assert abs(float(np.mean(draws)) - v) <= 3 * se
