import numpy as np
import pytest

from wtrv import (check_theorem_conditions, classify_aging, construct,
                  equilibrium, glaser, hazard, make_catalog, make_weight, mrl,
                  parse_dist_spec, parse_weight_spec, reversed_hazard)
from wtrv.numerics import WtrvError
from wtrv.reliability import TailError
from wtrv.weights import IntegrabilityError

from conftest import interior_grid


class TestPointwiseFunctions:
    def test_hazard_exponential_constant(self):
        lam = 1.3
        d = make_catalog("exponential", {"lambda": lam})
        xs = np.linspace(0.1, 5.0, 40)
        assert np.allclose(np.asarray(hazard(d, xs)), lam, rtol=1e-12)

    def test_hazard_uniform(self):
        d = make_catalog("uniform", {})
        xs = np.linspace(0.05, 0.95, 20)
        assert np.allclose(np.asarray(hazard(d, xs)), 1.0 / (1.0 - xs), rtol=1e-12)

    def test_hazard_lomax(self):
        alpha = 2.5
        d = make_catalog("pareto_lomax", {"alpha": alpha})
        xs = np.linspace(0.1, 10.0, 20)
        assert np.allclose(np.asarray(hazard(d, xs)), alpha / (1.0 + xs),
                           rtol=1e-12)

    def test_hazard_times_sf_is_pdf(self, catalog_dist):
        xs = interior_grid(catalog_dist, n=32, u_lo=0.05, u_hi=0.9)
        lhs = np.asarray(hazard(catalog_dist, xs)) * np.asarray(catalog_dist.sf(xs))
        assert np.max(np.abs(lhs - np.asarray(catalog_dist.pdf(xs)))) <= 1e-10

    def test_reversed_hazard_times_cdf_is_pdf(self, catalog_dist):
        xs = interior_grid(catalog_dist, n=32, u_lo=0.1, u_hi=0.95)
        lhs = (np.asarray(reversed_hazard(catalog_dist, xs))
               * np.asarray(catalog_dist.cdf(xs)))
        assert np.max(np.abs(lhs - np.asarray(catalog_dist.pdf(xs)))) <= 1e-10

    def test_mrl_exponential(self):
        lam = 1.3
        d = make_catalog("exponential", {"lambda": lam})
        for x in (0.1, 1.0, 3.0):
            assert mrl(d, x) == pytest.approx(1.0 / lam, rel=1e-8)

    @pytest.mark.parametrize("build", [
        lambda: make_catalog("exponential", {"lambda": 1.3}),
        lambda: make_catalog("gamma", {"k": 2.5, "lambda": 1.5}),
        lambda: make_catalog("beta", {"alpha": 2.25, "beta": 3.5}),
        lambda: construct(make_catalog("weibull", {"alpha": 1.7, "beta": 2.2}),
                          make_weight("power", {"c": 2.0})),
    ], ids=["exponential", "gamma", "beta", "wtrv"])
    def test_mrl_grid_matches_points(self, build):
        d = build()
        xs = interior_grid(d, n=24, u_lo=0.05, u_hi=0.95)
        m = mrl(d, xs)
        assert isinstance(m, np.ndarray) and m.shape == xs.shape
        points = [mrl(d, float(x)) for x in xs]
        assert all(type(v) is float for v in points)
        assert np.allclose(m, points, rtol=1e-8, atol=0.0)

    def test_mrl_raises_where_sf_vanishes(self):
        d = make_catalog("uniform", {})
        with pytest.raises(TailError, match="vanishes at 1.0 "):
            mrl(d, np.array([0.5, 1.0]))
        with pytest.raises(TailError):
            mrl(d, 1.5)

    def test_mrl_divergent_tail(self):
        # E[X] is infinite for alpha <= 1, so no residual life is finite
        d = make_catalog("pareto_lomax", {"alpha": 0.8})
        with pytest.raises(IntegrabilityError):
            mrl(d, 1.0)
        rep = classify_aging(d)
        assert rep.failures["mrl"] == "residual-life integral unavailable on the grid"

    def test_glaser_beta(self):
        a, b = 2.25, 3.5
        d = make_catalog("beta", {"alpha": a, "beta": b})
        for x in (0.2, 0.4, 0.6):
            expected = (b - 1) / (1 - x) - (a - 1) / x
            assert glaser(d, x) == pytest.approx(expected, rel=1e-4)

    def test_glaser_array_matches_points(self):
        a, b = 2.25, 3.5
        d = make_catalog("beta", {"alpha": a, "beta": b})
        xs = np.array([0.2, 0.4, 0.6])
        g = glaser(d, xs)
        assert isinstance(g, np.ndarray) and g.shape == xs.shape
        assert np.allclose(g, (b - 1) / (1 - xs) - (a - 1) / xs, rtol=1e-4)
        assert np.allclose(g, [glaser(d, float(x)) for x in xs], rtol=1e-6, atol=0.0)

    def test_glaser_array_near_support_raises(self):
        d = make_catalog("beta", {"alpha": 2.25, "beta": 3.5})
        with pytest.raises(TailError, match="1e-07"):
            glaser(d, np.array([0.2, 1e-7, 0.6]))


class TestClassification:
    def test_gamma_shape_above_one_is_ilr(self):
        rep = classify_aging(make_catalog("gamma", {"k": 2.5, "lambda": 1.5}))
        assert rep.classes["ILR"] and rep.classes["IFR"] and rep.classes["DMRL"]
        assert not rep.classes["DFR"]

    def test_gamma_shape_below_one_is_dfr(self):
        rep = classify_aging(make_catalog("gamma", {"k": 0.5, "lambda": 1.0}))
        assert rep.classes["DFR"] and rep.classes["IMRL"]
        assert not rep.classes["ILR"]

    def test_lomax_is_dfr(self):
        rep = classify_aging(make_catalog("pareto_lomax", {"alpha": 2.5}))
        assert rep.classes["DFR"] and rep.classes["IMRL"]
        assert not rep.classes["IFR"] or rep.classes["DFR"]

    def test_exponential_is_boundary_case(self):
        rep = classify_aging(make_catalog("exponential", {"lambda": 1.0}))
        assert rep.classes["IFR"] and rep.classes["DFR"]
        assert rep.classes["DMRL"] and rep.classes["IMRL"]

    def test_implication_chain(self, catalog_dist):
        rep = classify_aging(catalog_dist)
        if rep.classes["ILR"]:
            assert rep.classes["IFR"]
        if rep.classes["IFR"]:
            assert rep.classes["DMRL"]
        if rep.classes["DFR"]:
            assert rep.classes["IMRL"]

    def test_equilibrium_glaser_equals_base_hazard(self):
        # the log-derivative shape of the equilibrium density is the base
        # hazard, so base IFR on a grid must appear as equilibrium ILR
        base = make_catalog("weibull", {"alpha": 1.7, "beta": 2.2})
        eq = equilibrium(base)
        xs = interior_grid(base, n=24, u_lo=0.05, u_hi=0.9)
        g = np.array([glaser(eq, float(x)) for x in xs])
        h = np.asarray(hazard(base, xs), dtype=float)
        assert np.max(np.abs(g - h) / (1e-12 + np.abs(h))) <= 1e-3


class TestTheoremConditions:
    def test_small_grid_rejected(self):
        # no longer raised silently to 64 for the aging and order checks
        with pytest.raises(ValueError, match="grid_size must be at least 64"):
            check_theorem_conditions(make_catalog("exponential", {"lambda": 1.0}),
                                     make_weight("power", {"c": 2.0}), "thm1", grid_size=32)

    def test_ilr_preservation_truncated_power(self):
        # bounded base with increasing hazard plus log-concave weight slope
        rep = check_theorem_conditions(
            make_catalog("truncated_power", {"beta": 3.5}),
            make_weight("power", {"c": 2.25}), "prop1")
        assert rep.hypotheses_pass
        assert rep.conclusion_pass is True

    def test_ifr_preservation(self):
        rep = check_theorem_conditions(
            make_catalog("exponential", {"lambda": 1.0}),
            make_weight("power", {"c": 2.0}), "thm1")
        assert rep.hypotheses_pass
        assert rep.conclusion_pass is True

    def test_dfr_preservation(self):
        rep = check_theorem_conditions(
            make_catalog("exponential", {"lambda": 2.0}),
            make_weight("expm1", {}), "thm2")
        assert rep.hypotheses_pass
        assert rep.conclusion_pass is True

    @pytest.mark.parametrize("base, weight, which", [
        ("pareto_lomax(alpha=2.5)", "exp_shift_sq()", "thm2"),
        # integrable, but the table's cubics overflow in floats
        ("exponential(lambda=1e+200)", "linear()", "thm1")])
    def test_dfr_case_with_divergent_normalizer(self, base, weight, which):
        # hypotheses can hold while the construction itself fails; the
        # report must say so instead of fabricating a verdict
        dist, w = parse_dist_spec(base), parse_weight_spec(weight)
        rep = check_theorem_conditions(dist, w, which)
        assert rep.hypotheses_pass
        assert rep.conclusion_pass is None
        with pytest.raises(WtrvError) as err:
            construct(dist, w)
        assert rep.detail == f"construction failed: {err.value}"

    def test_hypotheses_not_met_reported(self):
        rep = check_theorem_conditions(
            make_catalog("pareto_lomax", {"alpha": 2.5}),
            make_weight("power", {"c": 2.0}), "prop1")
        assert not rep.hypotheses_pass
        assert rep.conclusion_pass is None

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            check_theorem_conditions(make_catalog("uniform", {}),
                                     make_weight("linear", {}), "thm99")

    def test_dmrl_preservation(self):
        rep = check_theorem_conditions(
            make_catalog("exponential", {"lambda": 1.0}),
            make_weight("power", {"c": 2.0}), "thm3")
        assert rep.conclusion_pass in (True, None)
        if rep.hypotheses_pass:
            assert rep.conclusion_pass is True

    @pytest.mark.parametrize("base, weight, conclusion", [
        ("exponential(lambda=1)", "power(c=0.6)", "X_w <=lr X"),
        ("gamma(k=0.6,lambda=1)", "power(c=2)", "X <=lr X_w"),
    ])
    def test_lr_order_branches(self, base, weight, conclusion):
        rep = check_theorem_conditions(parse_dist_spec(base), parse_weight_spec(weight),
                                       "prop2")
        assert rep.hypotheses_pass
        assert rep.conclusion == conclusion
        assert rep.conclusion_pass is True
