import math

import numpy as np
import pytest

from wtrv import (construct, kumaraswamy_moment, make_catalog, make_weight, minimum_of,
                  parse_dist_spec, sample, wk_moment)
from wtrv.distributions import CatalogError
from wtrv.numerics import Interval, integrate_adaptive

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
            assert out.shape == (2, 3) and np.allclose(out, fn(v), rtol=1e-14, atol=0.0)


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
