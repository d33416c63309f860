import math

import numpy as np
import pytest

from wtrv import (finite_diff_grad, fit_mle, from_unit_values, loglik_beta,
                  loglik_kw, loglik_wk, make_catalog, normalize, rmse_metric,
                  sample)
from wtrv.fit import BoundaryError, DegenerateSampleError


def unit_sample(a=2.0, b=5.0, n=400, seed=3, family="kumaraswamy", **extra):
    params = {"a": a, "b": b, **extra}
    return from_unit_values(sample(make_catalog(family, params), n, seed))


class TestNormalize:
    def test_minmax_exact(self):
        s = normalize([10.0, 20.0, 15.0, 30.0])
        assert s.z_min == 10.0 and s.z_max == 30.0
        assert s.values.min() == 0.0 and s.values.max() == 1.0

    def test_exclude_boundary_drops_extremes(self):
        s = normalize([1.0, 2.0, 3.0, 4.0], policy="exclude_boundary")
        lv = s.likelihood_values
        assert np.all((lv > 0) & (lv < 1))
        assert len(lv) == s.n - 2

    def test_shrink_keeps_all(self):
        s = normalize([1.0, 2.0, 3.0, 4.0], policy="shrink")
        lv = s.likelihood_values
        assert len(lv) == s.n
        assert np.all((lv > 0) & (lv < 1))

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            normalize([1.0, 1.0])

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            normalize([1.0, 2.0, 3.0], policy="clip")


class TestLogLikelihoods:
    def test_wk_unit_parameters(self):
        s = from_unit_values([0.5, 0.5, 0.5])
        # with all three parameters 1 each observation contributes
        # log 2 + log(1 - x) = log 2 + log 0.5 = 0
        assert loglik_wk(s, 1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_wk_nests_kumaraswamy(self):
        s = unit_sample()
        a, b = 1.7, 4.2
        assert loglik_wk(s, a, b, a) == pytest.approx(loglik_kw(s, a, b + 1),
                                                      rel=1e-12)

    def test_beta_uniform_case(self):
        s = from_unit_values([0.2, 0.4, 0.7])
        assert loglik_beta(s, 1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_finite_diff_gradient_consistency(self):
        s = unit_sample()
        theta = np.array([1.9, 4.5, 2.3])
        f = lambda v: loglik_wk(s, v[0], v[1], v[2])
        g = finite_diff_grad(f, theta, 1e-6)
        # analytic partial for b: d/db [n log(c/(b B(1+c/a,b))) + b sum log(1-x^a)]
        from scipy.special import digamma
        a, b, c = theta
        x = s.likelihood_values
        n = len(x)
        db = (-n / b - n * (digamma(b) - digamma(1 + c / a + b))
              + float(np.sum(np.log1p(-x ** a))))
        assert g[1] == pytest.approx(db, rel=1e-5)


    def test_likelihood_set_built_once(self):
        s = unit_sample()
        assert s._likelihood_set is s._likelihood_set
        assert np.array_equal(s._likelihood_set, s.likelihood_values)
        assert not s._likelihood_set.flags.writeable

    def test_empty_likelihood_set(self):
        s = from_unit_values([0.0, 0.0, 1.0])
        with pytest.raises(BoundaryError, match="empty"):
            loglik_kw(s, 1.0, 1.0)


class TestFitMle:
    def test_recovers_kumaraswamy(self):
        s = unit_sample(a=2.0, b=5.0, n=2000, seed=9)
        res = fit_mle(s, "kw", starts=6, seed=0)
        assert res.params["a"] == pytest.approx(2.0, rel=0.15)
        assert res.params["b"] == pytest.approx(5.0, rel=0.2)
        assert res.optimizer.converged

    def test_wk_beats_nested_kw(self):
        s = unit_sample(a=2.0, b=13.0, c=6.0, n=1500, seed=5,
                        family="weighted_kumaraswamy")
        wk = fit_mle(s, "wk", starts=6, seed=0)
        kw = fit_mle(s, "kw", starts=6, seed=0)
        assert wk.loglik >= kw.loglik - 1e-6

    def test_aic_bic_identities(self):
        s = unit_sample(n=500, seed=2)
        res = fit_mle(s, "beta", starts=4, seed=0)
        k, n = 2, len(s.likelihood_values)
        assert res.aic == pytest.approx(2 * k - 2 * res.loglik, abs=1e-9)
        assert res.bic == pytest.approx(k * math.log(n) - 2 * res.loglik,
                                        abs=1e-9)

    def test_refit_idempotent(self):
        s = unit_sample(n=800, seed=4)
        first = fit_mle(s, "kw", starts=6, seed=0)
        again = fit_mle(s, "kw", starts=6, seed=0)
        for key in first.params:
            assert again.params[key] == pytest.approx(first.params[key],
                                                      abs=1e-8)

    def test_handle_roundtrip(self):
        s = unit_sample(n=500, seed=6)
        res = fit_mle(s, "kw", starts=4, seed=0)
        h = res.handle()
        assert h.name == "kumaraswamy"
        assert float(h.cdf(0.5)) == pytest.approx(
            1 - (1 - 0.5 ** res.params["a"]) ** res.params["b"], rel=1e-10)

    def test_rmse_is_finite_and_small_for_true_model(self):
        s = unit_sample(a=2.0, b=5.0, n=3000, seed=11)
        res = fit_mle(s, "kw", starts=4, seed=0)
        assert np.isfinite(res.rmse)
        assert res.rmse == pytest.approx(
            rmse_metric(s, res.handle()), abs=1e-12)

    def test_unknown_model(self):
        s = unit_sample()
        with pytest.raises(ValueError):
            fit_mle(s, "gumbel")
