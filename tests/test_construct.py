import dataclasses
import math
import warnings

import numpy as np
import pytest

from scipy import special

from wtrv import (check_order, classify_aging, construct, equilibrium,
                  make_catalog, make_weight, minimum_of, parse_dist_spec,
                  parse_weight_spec, sample,
                  table1_oracle_suite, wtrv_of_minimum)
from wtrv.construct import _table1_rows
from wtrv.numerics import (AccuracyError, ConvergenceError, Interval, NegativeDensityError,
                            WtrvError, _from_unit, integrate_adaptive, invert_monotone,
                            table_quantiles, tabulate_cdf, value_or_raise)
from wtrv.weights import (IntegrabilityError, WeightFunction, tail_integrand, validate_weight,
                          weight_normalizer_integral)

from conftest import CATALOG_INSTANCES, interior_grid


class TestExpectedWeight:
    def test_exponential_mean(self):
        v = validate_weight(make_weight("linear", {}),
                            make_catalog("exponential", {"lambda": 1.0})).total
        assert v == pytest.approx(1.0, abs=1e-9)

    def test_uniform_square(self):
        v = validate_weight(make_weight("power", {"c": 2.0}),
                            make_catalog("uniform", {})).total
        assert v == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_kumaraswamy_power_closed_form(self):
        a, b, c = 2.0, 3.0, 1.5
        v = validate_weight(make_weight("power", {"c": c}),
                            make_catalog("kumaraswamy", {"a": a, "b": b})).total
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
        assert xw.table.values[-1] == 1.0
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
        assert xw.table.gap <= 1e-10

    def test_upper_end_singularity_reported(self):
        # the floats next to x = 1 cannot resolve this singular end, and the
        # gap left there is reported, not hidden
        xw = construct(make_catalog("kumaraswamy", {"a": 1.0, "b": 0.5}),
                       make_weight("neg_log_sq", {}))
        assert xw.table.gap > 1e-10

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


# the cause of a rejection: the table pass's own error, or None for a
# total that is not a positive finite number
_PASS_ERRORS = (AccuracyError, NegativeDensityError, FloatingPointError, type(None))


def _one_level(exc):
    """Whether exc's cause is the pass's own error, which has no cause."""
    return type(exc.__cause__) in _PASS_ERRORS and getattr(exc.__cause__, "__cause__", None) is None


class TestAdmissibility:
    # one rule decides admissibility: construct builds exactly the pairs
    # validate_weight accepts, and its normalizer is validate_weight's total,
    # computed by the same pass; a rejected pair gets the same error from
    # validate_weight, weight_normalizer_integral and construct
    REJECTED = {("pareto_lomax(alpha=1)", "linear()"), ("pareto_lomax(alpha=1.5)", "power(c=2.5)"),
                ("exponential(lambda=1)", "expm1()"), ("gamma(k=2,lambda=1.5)", "exp_shift_sq()"),
                ("gamma(k=0.4,lambda=1)", "neg_log_sq()")}
    ACCEPTED = {("exponential(lambda=2.18)", "expm1()"), ("pareto_lomax(alpha=6)", "power(c=2.5)"),
                ("pareto_lomax(alpha=1.5)", "power(c=0.41)"), ("gamma(k=2,lambda=1.5)", "expm1()"),
                ("kumaraswamy(a=1,b=0.5)", "neg_log_sq()")}
    # integrable, but the table's cubics overflow in floats: knots a few
    # floats apart near 0
    OVERFLOW = [("exponential(lambda=1e+200)", "linear()"), ("exponential(lambda=1)", "power(c=0.05)"),
                ("gamma(k=0.05,lambda=1)", "power(c=0.05)"),
                ("beta(alpha=0.05,beta=0.05)", "power(c=0.05)"), ("burr12(c=0.2,k=3)", "power(c=0.1)")]

    @pytest.mark.parametrize("base, weight", _admissibility_pairs() + OVERFLOW)
    def test_construct_iff_valid(self, base, weight):
        dist, w = parse_dist_spec(base), parse_weight_spec(weight)
        try:
            table = validate_weight(w, dist)
        except WtrvError as exc:
            assert (base, weight) not in self.ACCEPTED and _one_level(exc)
            for call in (weight_normalizer_integral, lambda w, d: construct(d, w)):
                with pytest.raises(WtrvError) as err:
                    call(w, dist)
                assert type(err.value) is type(exc) and str(err.value) == str(exc)
            if (base, weight) in self.OVERFLOW:
                assert type(exc) is WtrvError and type(exc.__cause__) is FloatingPointError
                assert str(exc).startswith(f"cdf table of {weight} against {base} cannot be "
                                           f"interpolated in floats: ")
            return
        assert (base, weight) not in self.REJECTED and (base, weight) not in self.OVERFLOW
        xw = construct(dist, w)
        assert xw.normalizer == validate_weight(w, dist).total == table.total
        if (base, weight) == ("kumaraswamy(a=1,b=0.5)", "neg_log_sq()"):
            assert xw.table.gap > 1e-10


def _table_cases():
    cases = [(f"{base}+{weight}", parse_dist_spec(base), parse_weight_spec(weight))
             for base, weight in _admissibility_pairs()]
    return cases + [(f"table1-row{i}", base, weight)
                    for i, (_, base, weight, _, _) in enumerate(_table1_rows(), start=1)]


class TestTableInvariants:
    # the table divides by the knot spacings, and the quantile brackets a
    # target by the knot values: a repeated knot (rounding puts the nodes of
    # a cell a float wide on one float) or a decreasing value breaks them
    @pytest.mark.parametrize("case", _table_cases(), ids=lambda c: c[0])
    def test_knots_values_slopes_and_cdf(self, case):
        _, dist, w = case
        try:
            table = validate_weight(w, dist)
        except IntegrabilityError:  # not integrable: TestAdmissibility covers it
            return
        nodes, values, slopes = table.nodes, table.values, table.slopes
        assert np.all(np.diff(nodes) > 0.0)
        assert values[0] == 0.0 and values[-1] == 1.0 and np.all(np.diff(values) >= 0.0)
        assert np.all(np.isfinite(slopes)) and np.all(slopes >= 0.0)
        # every piece at its knots and 1/4, 1/2 and 3/4 of its width
        t = np.append((nodes[:-1, None] + np.diff(nodes)[:, None] * [0.0, 0.25, 0.5, 0.75]).ravel(),
                      nodes[-1])
        with np.errstate(divide="ignore"):  # t = 1 is x = inf on an infinite support
            x = _from_unit(t, table.lo) if table.mapped else t
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
                            lambda fs, a, b, cuts: (cells.append(a.size), gk15(fs, a, b, cuts))[1])
        dist, w = make_catalog("exponential", {"lambda": 1.0}), make_weight("power", {"c": 0.3})
        f = tail_integrand(w, dist)
        [table] = tabulate_cdf([lambda x: (points.append(np.size(x)), f(x))[1]],
                               [Interval(0.0, math.inf)])
        assert table.evaluations == 15 * sum(cells) == sum(points)
        assert table.rounds == len(cells) - 1 == len(points) - 1 >= 1


def _flat_bases():
    bases = [(name, make_catalog(name, dict(params))) for name, params in CATALOG_INSTANCES]
    return bases + [
        ("minimum", minimum_of([make_catalog("exponential", {"lambda": 1.3}),
                                make_catalog("weibull", {"alpha": 1.7, "beta": 2.2})])),
        ("constructed", construct(make_catalog("gamma", {"k": 2.5, "lambda": 1.5}),
                                  make_weight("power", {"c": 1.5})))]


# every weight family, power also singular at 0
_FLAT_WEIGHTS = ["power(c=1.5)", "power(c=0.41)", "scaled_power(alpha=1.7,beta=2.2)",
                 "log1p_power(c=2.5)", "neg_log_sq()", "exp_shift_sq()", "expm1()",
                 "neg_x_log1m()", "linear()"]


def _handle_integrand(weight, dist):
    """w'(x) * sf(x) read through the public handles, with their edge
    policy and errstates: the reference the flat integrand must match."""

    def integrand(x):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            wp = np.asarray(weight.w_prime(x), dtype=float)
            s = np.asarray(dist.sf(x), dtype=float)
            return np.where((s == 0.0) & ~np.isfinite(wp), 0.0, wp * s)

    return integrand


def _by_hand(weight, dist):
    """The pair rebuilt through the public dataclasses from the fields each
    declares, as a caller outside the catalog would build it."""
    return (WeightFunction(weight.name, weight.params, weight.raw_w, weight.raw_w_prime,
                           weight.domain_hint),
            type(dist)(**{f.name: getattr(dist, f.name) for f in dataclasses.fields(dist)
                          if f.init}))


class TestFlatIntegrand:
    # the table pass reads w' and the family's interior sf through one flat
    # function; every table must be the one the handles, with their edge
    # policy and errstates, give, bit for bit, and a pair one path rejects
    # the other rejects with the same error. A weight and a base built by
    # hand give the catalog pair's table and error
    @pytest.mark.parametrize("case", _flat_bases(), ids=lambda c: c[0])
    def test_matches_tail_integrand(self, case, monkeypatch):
        import wtrv.weights as weights
        _, dist = case
        for spec in _FLAT_WEIGHTS:
            w = parse_weight_spec(spec)
            results = []
            for integrand, pair in ((tail_integrand, (w, dist)), (_handle_integrand, (w, dist)),
                                    (tail_integrand, _by_hand(w, dist))):
                monkeypatch.setattr(weights, "tail_integrand", integrand)
                try:
                    results.append(value_or_raise(weights.validate_weights([pair])[0]))
                except IntegrabilityError as exc:  # AccuracyError, or None for a bad total
                    results.append((type(exc.__cause__), str(exc)))
            got, ref, hand = results
            if any(isinstance(r, tuple) for r in results):  # rejected on one path: on all
                assert hand == got and isinstance(ref, tuple) and ref[0] is got[0], spec
                continue
            for field in ("nodes", "values", "slopes", "total", "gap", "evaluations", "rounds",
                          "lo", "mapped"):
                a, b, c = (np.asarray(getattr(t, field)) for t in (got, ref, hand))
                assert a.dtype == b.dtype == c.dtype and a.shape == b.shape == c.shape, \
                    (spec, field)
                assert a.tobytes() == b.tobytes() == c.tobytes(), (spec, field)

    @pytest.mark.parametrize("case", _flat_bases(), ids=lambda c: c[0])
    def test_integrand_matches_handles_above_lo(self, case):
        # the handles' edge policy is skipped: above lo only the clause for
        # x >= hi stands in for it
        _, dist = case
        hi = dist.support.hi
        x = np.concatenate([interior_grid(dist, 64), [hi, hi + 1.0, np.inf]])
        for spec in _FLAT_WEIGHTS:
            w = parse_weight_spec(spec)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                got, ref = tail_integrand(w, dist)(x), _handle_integrand(w, dist)(x)
            np.testing.assert_array_equal(got, ref, err_msg=spec)  # 0.0 == -0.0 beyond hi

    @pytest.mark.parametrize("case", _flat_bases(), ids=lambda c: c[0])
    def test_constructed_pdf_matches_handles(self, case):
        # the constructed pdf reads the flat integrand inside its own handle,
        # which clamps x to the support and gives 0 at and beyond its ends
        _, dist = case
        if dist.support.lo != 0.0:
            return
        for spec in ("power(c=1.5)", "power(c=0.41)", "neg_x_log1m()"):
            w = parse_weight_spec(spec)
            try:
                v = construct(dist, w)
            except WtrvError:  # not admissible: TestAdmissibility covers it
                continue
            x = np.concatenate([[-1.0, 0.0, v.support.hi, v.support.hi + 1.0],
                                interior_grid(v, 64)])
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                ref = np.where((x <= 0.0) | (x >= v.support.hi), 0.0,
                               _handle_integrand(w, dist)(x) / v.normalizer)
            assert np.asarray(v.pdf(x)).tobytes() == ref.tobytes(), spec


_TABLE_FIELDS = ("nodes", "values", "slopes", "total", "gap", "evaluations", "rounds", "lo",
                 "mapped", "cubic")


def _flat_pairs():
    """The (weight, base) pairs of TestFlatIntegrand, 16 bases times 9 weights."""
    return [(parse_weight_spec(spec), dist) for _, dist in _flat_bases() for spec in _FLAT_WEIGHTS]


def _groupings(n, seed):
    """A seeded shuffle of range(n) cut into groups of 1 to 5."""
    rng = np.random.default_rng(seed)
    order, groups = rng.permutation(n).tolist(), []
    while order:
        k = int(rng.integers(1, 6))
        groups.append(order[:k])
        order = order[k:]
    return groups


def _same_result(got, ref):
    """Every CdfTable field byte-equal, or the same rejection: the same
    error type, cause type and text."""
    if isinstance(ref, Exception):
        return (type(got) is type(ref) and type(got.__cause__) is type(ref.__cause__)
                and str(got) == str(ref))
    return all(np.asarray(getattr(got, f)).tobytes() == np.asarray(getattr(ref, f)).tobytes()
               and np.asarray(getattr(got, f)).dtype == np.asarray(getattr(ref, f)).dtype
               for f in _TABLE_FIELDS)


class TestBatchedPass:
    # tables that share one tabulate_cdf pass are the tables of their solo
    # passes bit for bit, and a rejected pair fails alone, with its own text
    @pytest.fixture(scope="class")
    def solo(self):
        import wtrv.weights as weights
        pairs = _flat_pairs()
        return pairs, [weights.validate_weights([pair])[0] for pair in pairs]

    def test_solo_rejects_the_known_pairs(self, solo):
        _, results = solo
        assert sum(isinstance(r, IntegrabilityError) for r in results) == 37
        assert all(_one_level(r) for r in results if isinstance(r, Exception))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_groupings_match_solo(self, solo, seed):
        import wtrv.weights as weights
        pairs, results = solo
        mixed = 0
        for group in _groupings(len(pairs), seed):
            batch = weights.validate_weights([pairs[i] for i in group])
            assert len(batch) == len(group)
            for i, got in zip(group, batch):
                assert _same_result(got, results[i]), (i, group)
            kinds = {isinstance(results[i], Exception) for i in group}
            mixed += kinds == {True, False}
        assert mixed > 0  # some batch holds a rejected pair beside accepted ones

    @pytest.mark.parametrize("seed", [0, 1])
    def test_batched_inversion_matches_each_table(self, solo, seed):
        # one invert_monotone call over several tables gives each table's
        # own quantile bit for bit, on the CLI's grids, at knot values and
        # next to 0 and 1
        _, results = solo
        tables = [t for t in results if not isinstance(t, Exception)]
        u = np.concatenate([np.linspace(0.005, 0.995, 201), TestQuantileInItsPiece.EDGES])
        with np.errstate(divide="ignore"):  # heavy tails reach x = inf next to u = 1
            for group in _groupings(len(tables), seed):
                batch = [tables[i] for i in group]
                knots = batch[0].values[::97]
                levels = np.concatenate([u, knots[(knots > 0.0) & (knots < 1.0)]])
                for t, got in zip(batch, table_quantiles(batch, levels)):
                    assert got.tobytes() == np.asarray(t.quantile(levels)).tobytes()


def _searching_quantile(table, u):
    """The constructed quantile with every Newton round's value and slope
    found by a search over all knots: each u bracketed by its pair of knots,
    read through the table's searching value and slope."""
    i = np.searchsorted(table.values, u, side="right")
    t = invert_monotone(lambda v, _: table.value(v), lambda v, _: table.slope(v),
                        u, table.nodes[i - 1], table.nodes[i])
    return _from_unit(t, table.lo) if table.mapped else t


class TestQuantileInItsPiece:
    # the quantile evaluates each point's cubic in the piece its bracket
    # names; it must give the searching reference's floats: on the CLI's
    # grids, at the knot values themselves and within 1e-12 of 0 and 1
    EDGES = np.array([1e-300, 1e-15, 1e-13, 1e-12, 1.0 - 1e-12, 1.0 - 1e-13,
                      1.0 - 1e-15, 1.0 - 2.0 ** -53])

    @pytest.mark.parametrize("case", _table_cases(), ids=lambda c: c[0])
    def test_bit_identical_to_searching_quantile(self, case):
        _, dist, w = case
        try:
            table = validate_weight(w, dist)
        except IntegrabilityError:  # not integrable: TestAdmissibility covers it
            return
        xw = construct(dist, w)
        knots = table.values[(table.values > 0.0) & (table.values < 1.0)]
        for u in (np.linspace(0.005, 0.995, 201), np.linspace(0.005, 0.995, 1000),
                  knots, self.EDGES):
            # heavy tails reach t = 1, x = inf, next to u = 1 (CHANGES FOUND)
            with np.errstate(divide="ignore"):
                got, ref = np.asarray(xw.quantile(u)), _searching_quantile(table, u)
            assert np.array_equal(got, ref)


class TestQuantileEdges:
    # the table's quantile takes the handles' edge policy: the lower end at
    # u <= 0 and the last knot (inf on a mapped table) at u >= 1, without a
    # warning; a NaN level raises
    @pytest.mark.parametrize("base, upper", [("exponential(lambda=1)", math.inf),
                                             ("kumaraswamy(a=2,b=3)", 1.0)])
    def test_ends_and_nan(self, base, upper):
        table = construct(parse_dist_spec(base), make_weight("linear")).table
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for u, end in ((-0.1, 0.0), (0.0, 0.0), (1.0, upper), (1.5, upper)):
                assert table.quantile([u]).tolist() == [end]
                assert [q.tolist() for q in table_quantiles([table, table], [u, 0.5])] == \
                    [[end, float(table.quantile(0.5))]] * 2
            with pytest.raises(ConvergenceError):
                table.quantile([np.nan])


class TestHermite:
    # the table's written-out cubic against SciPy's spline on the real tables
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
        [table] = tabulate_cdf([tail_integrand(w, dist)], [Interval(0.0, hi)])
        nodes, values, slopes = table.nodes, table.values, table.slopes
        ref = CubicHermiteSpline(nodes, values, slopes)
        pts = np.concatenate([nodes, np.random.default_rng(3).uniform(nodes[0], nodes[-1], 20000)])
        assert np.max(np.abs(table.value(pts) - ref(pts))) <= 4e-16
        ref_slope = ref.derivative()(pts)
        assert np.max(np.abs(table.slope(pts) - ref_slope)) <= 1e-14 * np.max(np.abs(ref_slope))


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


class TestEveryWeightFamily:
    # one admissible base for each catalog weight: the built density
    # integrates to 1, and the normalizer is E[w(X)] = integral of w * f_X,
    # not the tail identity the table integrates
    @pytest.mark.parametrize("base, weight", [
        ("gamma(k=2,lambda=1.5)", "power(c=2.5)"),
        ("weibull(alpha=0.6,beta=1.2)", "scaled_power(alpha=0.6,beta=1.2)"),
        ("burr12(c=2.5,k=1.8)", "log1p_power(c=2.5)"),
        ("beta(alpha=2,beta=3)", "neg_log_sq()"),
        ("half_normal(sigma=0.5)", "exp_shift_sq()"),
        ("exponential(lambda=2.18)", "expm1()"),
        ("uniform", "neg_x_log1m()"),
        ("pareto_lomax(alpha=2.5)", "linear()"),
    ])
    def test_mass_and_normalizer(self, base, weight):
        dist, w = parse_dist_spec(base), parse_weight_spec(weight)
        xw = construct(dist, w)

        def w_times_pdf(x):  # w overflows where the pdf underflows to 0
            with np.errstate(over="ignore", invalid="ignore"):
                pdf = np.asarray(dist.pdf(x), dtype=float)
                return np.where(pdf == 0.0, 0.0, np.asarray(w.w(x), dtype=float) * pdf)

        mass = integrate_adaptive(xw.pdf, xw.support, 1e-12, 1e-10).value
        mean_w = integrate_adaptive(w_times_pdf, xw.support, 1e-12, 1e-10).value
        assert abs(mass - 1.0) <= 1e-8
        assert xw.normalizer == pytest.approx(mean_w, rel=1e-8)


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
        wk = make_catalog("weighted_kumaraswamy", {"a": a, "b": b, "c": c})
        xw = construct(make_catalog("kumaraswamy", {"a": a, "b": b}),
                       make_weight("power", {"c": c}))
        xs = np.linspace(0.02, 0.98, 200)
        assert np.max(np.abs(np.asarray(wk.pdf(xs))
                             - np.asarray(xw.pdf(xs)))) <= 1e-6

    def test_bad_params(self):
        with pytest.raises(Exception):
            make_catalog("weighted_kumaraswamy", {"a": -1.0, "b": 3.0, "c": 1.5})


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
            v = validate_weight(w, dist).total
            draws = np.asarray(w.w(sample(dist, n, seed=100 + i)), dtype=float)
            se = float(np.std(draws, ddof=1)) / math.sqrt(n)
            assert abs(float(np.mean(draws)) - v) <= 3 * se
