import gc
import inspect
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from wtrv import (construct, kumaraswamy_moment, make_catalog, make_weight, minimum_of,
                  parse_dist_spec, sample, wk_moment)
from wtrv.distributions import _BUILDERS, CatalogError, parse_kv_spec
from wtrv.numerics import Interval, WtrvError, integrate_adaptive

from conftest import CATALOG_INSTANCES, interior_grid


class TestHandleInvariants:
    def test_cdf_plus_sf(self, catalog_dist):
        xs = interior_grid(catalog_dist)
        total = np.asarray(catalog_dist.cdf(xs)) + np.asarray(catalog_dist.sf(xs))
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    def test_quantile_roundtrip(self, catalog_dist):
        xs = interior_grid(catalog_dist)
        back = np.array([catalog_dist.quantile(float(catalog_dist.cdf(x)))
                         for x in xs])
        assert np.max(np.abs(back - xs)) <= 1e-8

    def test_pdf_matches_cdf_derivative(self, catalog_dist):
        xs = interior_grid(catalog_dist, u_lo=0.05, u_hi=0.95)
        h = 1e-6 * (1.0 + np.abs(xs))
        num = (np.asarray(catalog_dist.cdf(xs + h))
               - np.asarray(catalog_dist.cdf(xs - h))) / (2 * h)
        pdf = np.asarray(catalog_dist.pdf(xs))
        rel = np.abs(num - pdf) / (1e-12 + np.abs(pdf))
        assert np.max(rel) <= 1e-5

    def test_pdf_integrates_to_one(self, catalog_dist):
        res = integrate_adaptive(lambda x: np.asarray(catalog_dist.pdf(x)),
                                 catalog_dist.support, 1e-12, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-8)

    def test_pdf_nonnegative(self, catalog_dist):
        xs = interior_grid(catalog_dist, n=128)
        assert np.all(np.asarray(catalog_dist.pdf(xs)) >= 0.0)

    def test_cdf_monotone(self, catalog_dist):
        xs = interior_grid(catalog_dist, n=128)
        cs = np.asarray(catalog_dist.cdf(xs))
        assert np.all(np.diff(cs) >= -1e-14)


EDGE_HANDLES = {
    **{name: (lambda n=name, p=params: make_catalog(n, dict(p)))
       for name, params in CATALOG_INSTANCES},
    "wtrv_finite": lambda: construct(make_catalog("truncated_power", {"beta": 3.5}),
                                     make_weight("power", {"c": 2.25})),
    "wtrv_infinite": lambda: construct(make_catalog("gamma", {"k": 2.0, "lambda": 1.0}),
                                       make_weight("power", {"c": 1.5})),
    "minimum": lambda: minimum_of([make_catalog("exponential", {"lambda": 1.0}),
                                   make_catalog("gamma", {"k": 2.0, "lambda": 1.0})]),
}


class TestEdgePolicy:
    """Catalog and built handles share one policy at their support's ends."""

    @pytest.mark.parametrize("name", EDGE_HANDLES)
    def test_edges_and_shapes(self, name):
        h = EDGE_HANDLES[name]()
        lo, hi = h.support.lo, h.support.hi
        xs = np.array([lo - 1.0, lo, hi, hi + 1.0])
        assert h.pdf(xs).tolist() == [0.0, 0.0, 0.0, 0.0]
        assert h.cdf(xs).tolist() == [0.0, 0.0, 1.0, 1.0]
        assert h.sf(xs).tolist() == [1.0, 1.0, 0.0, 0.0]
        q = h.quantile(np.array([-0.5, 0.0, 1.0, 1.5, np.nan]))
        assert q[:4].tolist() == [lo, lo, hi, hi] and math.isnan(q[4])
        mid = h.quantile(0.5)
        for fn, v in ((h.pdf, mid), (h.cdf, mid), (h.sf, mid), (h.quantile, 0.5)):
            assert type(fn(v)) is float
            out = fn(np.full((2, 3), v))
            assert out.shape == (2, 3) and out.dtype == np.float64
            assert np.allclose(out, fn(v), rtol=1e-14, atol=0.0)


class TestDerivedHandles:
    """The public functions are derived from the declared interior ones, in
    one place, so a replace() derives them again."""

    def test_replace_rederives_without_stacking(self):
        gamma = make_catalog("gamma", {"k": 1.5, "lambda": 0.5})
        chi = make_catalog("chi_square", {"k": 3.0})  # gamma(1.5, 0.5)'s functions
        xs = np.array([-1.0, 0.0, 0.3, 2.0, 9.0, np.inf])
        for fn in ("pdf", "cdf", "sf"):
            assert getattr(chi, fn)(xs).tobytes() == getattr(gamma, fn)(xs).tobytes()
        depths = []

        def half_cdf(x):
            depths.append(len(inspect.stack(0)))
            return 0.5 * gamma.interior.cdf(x)

        halved = replace(gamma, interior=gamma.interior._replace(cdf=half_cdf))
        again = replace(replace(halved, name="halved"), params={})
        for h in (halved, again):
            assert h.cdf(xs).tolist() == [0.0, 0.0, *(0.5 * gamma.cdf(xs[2:5])), 1.0]
            assert h.sf(xs).tobytes() == gamma.sf(xs).tobytes()
        # each replace wraps the interior cdf in one guard, not the last one's
        assert len(depths) == 2 and depths[0] == depths[1]
        with pytest.raises(ValueError, match="init=False"):
            replace(gamma, cdf=half_cdf)

    def test_dropped_handle_is_freed_at_once(self):
        # a quantile reaches its handle only through a weak reference, so a
        # dropped handle, and a constructed variable's table, are freed
        # without waiting for the collector; a quantile that outlives its
        # handle names it by its name
        gc.disable()
        try:
            built = construct(make_catalog("exponential", {"lambda": 1.0}), make_weight("linear"))
            refs = [weakref.ref(built), weakref.ref(built.table)]
            q = make_catalog("weibull", {"alpha": 1e-300, "beta": 1.0}).quantile
            del built
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()
        with pytest.raises(WtrvError, match=r"^quantile of weibull is not finite at u = 0\.9$"):
            q(0.9)

    def test_weight_replace_rederives(self):
        w = make_weight("power", {"c": 2.0})
        doubled = replace(w, raw_w_prime=lambda x: 2.0 * w.raw_w_prime(x))
        assert doubled.w_prime(np.array([0.5, 3.0])).tolist() == [2.0, 12.0]
        assert doubled.w is not w.w and doubled.w(3.0) == w.w(3.0) == 9.0


def _quantile_outcome(handle, u):
    """The quantiles at u, or the level named by the WtrvError they raise."""
    try:
        return handle.quantile(u)
    except WtrvError as exc:
        return str(exc).rsplit(" at u = ", 1)[1]


class TestReparameterizedFamilies:
    # Lomax, truncated power and chi-square call their parent's builder, so
    # each function gives the parent's floats, at the support's edges, far
    # outside it, on NaN and next to u = 0 and u = 1
    X = np.array([-np.inf, -1.0, 0.0, 5e-324, 1e-300, 1e-150, 1e-15, 1e-8, 0.1, 0.5,
                  1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52, 2.0, 1e8, 1e150, 1e300, np.inf,
                  np.nan])
    U = np.array([-0.5, 0.0, 5e-324, 1e-300, 1e-150, 1e-15, 1e-8, 0.1, 0.5, 0.9,
                  1.0 - 1e-8, 1.0 - 1e-15, 1.0 - 2.0 ** -53, 1.0, 1.5, np.nan])
    VALUES = [1e-3, 0.37, 1.0, 2.5, 40.0,
              *np.exp(np.random.default_rng(5).uniform(np.log(1e-2), np.log(1e2), 20)).tolist()]
    CASES = [
        *((("pareto_lomax", {"alpha": v}), ("burr12", {"c": 1.0, "k": v})) for v in VALUES),
        *((("truncated_power", {"beta": 1.0 + v}), ("kumaraswamy", {"a": 1.0, "b": 1.0 + v - 1.0}))
          for v in VALUES),
        *((("chi_square", {"k": v}), ("gamma", {"k": v / 2.0, "lambda": 0.5})) for v in VALUES),
    ]

    @pytest.mark.parametrize("child, parent", CASES,
                             ids=[f"{c[0]}{c[1]}" for c, _ in CASES])
    def test_bit_identical_to_parent(self, child, parent):
        c, p = make_catalog(*child), make_catalog(*parent)
        for fn in ("pdf", "cdf", "sf"):
            assert np.array_equal(getattr(c, fn)(self.X), getattr(p, fn)(self.X), equal_nan=True)
        got, ref = _quantile_outcome(c, self.U), _quantile_outcome(p, self.U)
        assert type(got) is type(ref)
        assert np.array_equal(got, ref, equal_nan=True) if isinstance(ref, np.ndarray) else got == ref


class TestDeclaredOrder:
    # catalog_build names every entry and orders its parameters as the
    # catalog declares them, whatever order the caller gives
    @pytest.mark.parametrize("name, params", CATALOG_INSTANCES, ids=[n for n, _ in CATALOG_INSTANCES])
    def test_reversed_parameters_build_the_same_family(self, name, params):
        fwd = make_catalog(name, dict(params))
        rev = make_catalog(name, dict(reversed(list(params.items()))))
        assert list(fwd.params) == list(_BUILDERS[name][0])
        assert (rev.name, list(rev.params.items()), rev.describe()) == \
            (fwd.name, list(fwd.params.items()), fwd.describe())


class TestSpecificFamilies:
    def test_exponential_basics(self):
        d = make_catalog("exponential", {"lambda": 1.0})
        assert float(d.sf(1.0)) == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert float(d.quantile(0.5)) == pytest.approx(math.log(2), rel=1e-12)

    def test_kumaraswamy_quantile_closed_form(self):
        a, b = 2.0, 3.0
        d = make_catalog("kumaraswamy", {"a": a, "b": b})
        for u in (0.1, 0.5, 0.9):
            expected = (1.0 - (1.0 - u) ** (1.0 / b)) ** (1.0 / a)
            assert float(d.quantile(u)) == pytest.approx(expected, rel=1e-12)

    def test_kumaraswamy_moments_vs_quadrature(self):
        a, b = 2.0, 3.0
        d = make_catalog("kumaraswamy", {"a": a, "b": b})
        for n in (1, 2, 3):
            quad = integrate_adaptive(
                lambda x: x ** n * np.asarray(d.pdf(x)),
                Interval(0.0, 1.0), 1e-12, 1e-10).value
            assert kumaraswamy_moment(a, b, n) == pytest.approx(quad, abs=1e-9)

    def test_wk_moment_vs_quadrature(self):
        a, b, c = 2.0, 3.0, 1.5
        d = make_catalog("weighted_kumaraswamy", {"a": a, "b": b, "c": c})
        quad = integrate_adaptive(lambda x: x * np.asarray(d.pdf(x)),
                                  Interval(0.0, 1.0), 1e-12, 1e-10).value
        assert wk_moment(a, b, c, 1) == pytest.approx(quad, abs=1e-8)

    def test_wk_sf_at_zero(self):
        d = make_catalog("weighted_kumaraswamy", {"a": 2.0, "b": 3.0, "c": 1.5})
        assert float(d.sf(1e-14)) == pytest.approx(1.0, abs=1e-9)

    def test_wk_beta_link(self):
        # X^a ~ Beta(c/a, b+1)
        from scipy import stats
        for a, b, c in ((2.0, 3.0, 1.5), (0.7, 12.0, 4.0), (5.0, 0.4, 0.3)):
            d = make_catalog("weighted_kumaraswamy", {"a": a, "b": b, "c": c})
            link = stats.beta(c / a, b + 1.0)
            xs = np.linspace(0.01, 0.99, 99)
            assert np.max(np.abs(np.asarray(d.sf(xs)) - link.sf(xs ** a))) <= 1e-13
            u = np.linspace(0.001, 0.999, 999)
            assert np.max(np.abs(np.asarray(d.quantile(u))
                                 - link.ppf(u) ** (1.0 / a))) <= 1e-13

    def test_wk_pdf_at_the_fit_box_corner(self):
        # b B(1 + c/a, b) underflows to 0 here, and so does x^(c-1): the pdf
        # is evaluated in logs and stays a density
        d = make_catalog("weighted_kumaraswamy", {"a": 1e-3, "b": 1e3, "c": 265.3})
        pdf = np.asarray(d.pdf(np.linspace(0.0, 1.0, 1001)))
        assert np.all(np.isfinite(pdf)) and pdf.max() > 100.0
        mass = integrate_adaptive(d.pdf, Interval(0.0, 1.0), 1e-12, 1e-12).value
        assert abs(mass - 1.0) <= 1e-8

    @pytest.mark.xfail(strict=True, reason="the cdf reads betainc(c/a, b+1, x**a) and the "
                       "quantile betaincinv(c/a, b+1, u)**(1/a), which underflow at large a; "
                       "perfbench's report check reads the same cdf, so the mend lands "
                       "with the check's")
    def test_wk_cdf_and_quantile_at_large_a(self):
        # at a = 1000, x**a underflows to 0 below x ≈ 0.4924, where the law
        # still has mass 0.46: the cdf reads 0 there and the quantile of
        # every u up to about 0.45 reads 0.4924
        mpmath = pytest.importorskip("mpmath")
        a, b, c = 1000.0, 70.0, 1.1
        d = make_catalog("weighted_kumaraswamy", {"a": a, "b": b, "c": c})

        def cdf(x):
            with mpmath.workdps(40):
                return float(mpmath.betainc(mpmath.mpf(c) / a, b + 1, 0,
                                            mpmath.mpf(x) ** a, regularized=True))

        assert float(d.cdf(0.3)) == pytest.approx(cdf(0.3), rel=1e-9)
        for u in (0.1, 0.3, 0.45):
            assert cdf(float(d.quantile(u))) == pytest.approx(u, rel=1e-9), u

    def test_lomax_sf(self):
        d = make_catalog("pareto_lomax", {"alpha": 2.0})
        assert float(d.sf(1.0)) == pytest.approx(0.25, rel=1e-12)

    def test_weibull_sf(self):
        d = make_catalog("weibull", {"alpha": 1.7, "beta": 2.2})
        assert float(d.sf(1.3)) == pytest.approx(
            math.exp(-((1.3 / 2.2) ** 1.7)), rel=1e-12)


class TestQuantileNearZero:
    # the closed-form quantiles keep their relative accuracy as u -> 0,
    # against 40-digit mpmath
    FAMILIES = [
        ("kumaraswamy", {"a": 2.0, "b": 3.0},
         lambda u, p: (1 - (1 - u) ** (1 / p["b"])) ** (1 / p["a"])),
        ("pareto_lomax", {"alpha": 2.5}, lambda u, p: (1 - u) ** (-1 / p["alpha"]) - 1),
        ("burr12", {"c": 2.5, "k": 1.8},
         lambda u, p: ((1 - u) ** (-1 / p["k"]) - 1) ** (1 / p["c"])),
        ("truncated_power", {"beta": 3.5}, lambda u, p: 1 - (1 - u) ** (1 / (p["beta"] - 1))),
    ]

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f[0])
    def test_relative_accuracy_against_mpmath(self, family):
        mpmath = pytest.importorskip("mpmath")
        name, params, exact = family
        d = make_catalog(name, params)
        with mpmath.workdps(40):
            for u in (1e-6, 1e-9, 1e-12, 1e-15):
                ref = float(exact(mpmath.mpf(u), {k: mpmath.mpf(v) for k, v in params.items()}))
                assert float(d.quantile(u)) == pytest.approx(ref, rel=1e-13, abs=0.0), u


class TestErrors:
    def test_unknown_name(self):
        with pytest.raises(CatalogError):
            make_catalog("cauchy", {})

    def test_bad_parameter(self):
        with pytest.raises(Exception):
            make_catalog("exponential", {"lambda": -1.0})

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("name, key", [(n, k) for n, ps in CATALOG_INSTANCES for k in ps])
    def test_nonfinite_parameter(self, name, key, bad):
        # inf passed a bare "> 0" test; gamma(k=inf) then gave NaN quantiles
        params = dict(CATALOG_INSTANCES)[name]
        with pytest.raises(CatalogError, match=f"{key!r}"):
            make_catalog(name, {**params, key: bad})

    @pytest.mark.parametrize("spec", ["exponential(lambda=1,lambda=2)",
                                      "gamma(k=1, lambda=2,lambda =3)"])
    def test_repeated_key(self, spec):
        with pytest.raises(CatalogError, match="'lambda' given twice in "):
            parse_kv_spec(spec)

    def test_spec_parsing(self):
        d = parse_dist_spec("exponential(lambda=2)")
        assert float(d.sf(1.0)) == pytest.approx(math.exp(-2.0), rel=1e-12)
        with pytest.raises(Exception):
            parse_dist_spec("exponential[lambda=2]")


class TestSampling:
    def test_support_containment(self):
        d = make_catalog("uniform", {})
        v = sample(d, 3, seed=1)
        assert len(v) == 3 and np.all((v > 0) & (v < 1))

    def test_determinism(self):
        d = make_catalog("kumaraswamy", {"a": 2.0, "b": 3.0})
        assert np.array_equal(sample(d, 100, seed=7), sample(d, 100, seed=7))
        assert not np.array_equal(sample(d, 100, seed=7), sample(d, 100, seed=8))

    def test_exponential_mean_clt(self):
        d = make_catalog("exponential", {"lambda": 1.0})
        v = sample(d, 10 ** 6, seed=42)
        assert abs(float(np.mean(v)) - 1.0) <= 0.005
