import itertools
import math

import numpy as np
import pytest
from scipy.special import betaincinv

import wtrv.fit as fit_mod
from wtrv import (finite_diff_grad, fit_mle, fit_models, from_unit_values, loglik_beta,
                  loglik_kw, loglik_wk, make_catalog, normalize, rmse_metric,
                  sample, score_beta, score_kw, score_wk)
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
        g = finite_diff_grad(lambda v: loglik_wk(s, *v), theta, 1e-6)
        np.testing.assert_allclose(g, score_wk(s, *theta), rtol=1e-5)

    def test_likelihood_set_built_once(self):
        s = unit_sample()
        assert s._likelihood_set is s._likelihood_set
        assert np.array_equal(s._likelihood_set, s.likelihood_values)
        assert not s._likelihood_set.flags.writeable

    def test_kw_next_to_one(self):
        # 1 − xᵃ is −expm1(a·log x): log1p(−xᵃ) was 7.7e-9 relative off here,
        # where xᵃ is 1 − 2.9e-10 at the largest value (50-digit reference)
        s = from_unit_values([0.1, 0.4, 0.7, 1 - 1e-9])
        assert loglik_kw(s, 0.2948, 0.0829) == pytest.approx(11.884614390241751, rel=1e-14)

    def test_wk_next_to_one(self):
        mpmath = pytest.importorskip("mpmath")
        values = [0.1, 0.4, 0.7, 1 - 1e-9]
        a, b, c = 0.2948, 0.0829, 0.61
        with mpmath.workdps(30):
            ma, mb, mc = map(mpmath.mpf, (a, b, c))
            const = mpmath.log(mc / mb) - mpmath.log(mpmath.beta(1 + mc / ma, mb))
            ref = sum(const + (mc - 1) * mpmath.log(x) + mb * mpmath.log1p(-mpmath.mpf(x) ** ma)
                      for x in values)
        assert loglik_wk(from_unit_values(values), a, b, c) == pytest.approx(float(ref),
                                                                             rel=1e-14)

    def test_empty_likelihood_set(self):
        s = from_unit_values([0.0, 0.0, 1.0])
        with pytest.raises(BoundaryError, match="empty"):
            loglik_kw(s, 1.0, 1.0)


@pytest.mark.parametrize("fn, names", [
    (loglik_beta, ("alpha", "beta")), (loglik_kw, ("a", "b")), (loglik_wk, ("a", "b", "c")),
    (score_beta, ("alpha", "beta")), (score_kw, ("a", "b")), (score_wk, ("a", "b", "c")),
], ids=lambda v: getattr(v, "__name__", ""))
def test_parameters_outside_the_quadrant_rejected(fn, names):
    # the log-likelihoods are defined for positive finite parameters only;
    # outside, loglik_kw gave nan with a RuntimeWarning and loglik_beta a
    # finite value
    s = from_unit_values([0.2, 0.5, 0.7])
    for i, name in enumerate(names):
        for bad in (0.0, -0.5, -1.0, math.inf, math.nan):
            theta = [2.0] * len(names)
            theta[i] = bad
            with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
                fn(s, *theta)
    assert np.isfinite(fn(s, *[2.0] * len(names))).all()


SCORED = [
    ("wk", loglik_wk, score_wk, "weighted_kumaraswamy", {"a": 2.0, "b": 3.0, "c": 1.5}),
    ("kw", loglik_kw, score_kw, "kumaraswamy", {"a": 2.0, "b": 3.0}),
    ("beta", loglik_beta, score_beta, "beta", {"alpha": 2.25, "beta": 3.5}),
]


@pytest.mark.parametrize("model, loglik, score, family, params", SCORED,
                         ids=[m[0] for m in SCORED])
class TestScores:
    def test_matches_finite_differences(self, model, loglik, score, family, params):
        s = from_unit_values(sample(make_catalog(family, params), 80, seed=12))
        rng = np.random.default_rng(7)
        for theta in np.exp(rng.uniform(math.log(0.05), math.log(50.0),
                                        size=(30, len(params)))):
            fd = finite_diff_grad(lambda v: loglik(s, *v), theta, 1e-6 * theta)
            np.testing.assert_allclose(score(s, *theta), fd, rtol=1e-5)

    def test_hessian_matches_finite_differences(self, model, loglik, score, family, params):
        s = from_unit_values(sample(make_catalog(family, params), 80, seed=12))
        rng = np.random.default_rng(7)
        for theta in np.exp(rng.uniform(math.log(0.05), math.log(50.0),
                                        size=(30, len(params)))):
            # the scores cancel large terms, so the step is 10x the one above
            fd = np.array([finite_diff_grad(lambda v: score(s, *v)[i], theta, 1e-5 * theta)
                           for i in range(len(params))])
            np.testing.assert_allclose(fit_mod._terms(s, model, theta)[2], fd, rtol=1e-5)

    def test_finite_at_box_corners(self, model, loglik, score, family, params):
        s = from_unit_values([1e-9, 0.2, 0.5, 0.8, 1.0 - 1e-9])
        for theta in itertools.product((1e-3, 1.0, 1e3), repeat=len(params)):
            assert math.isfinite(loglik(s, *theta)), theta
            assert np.isfinite(score(s, *theta)).all(), theta
            assert np.isfinite(fit_mod._terms(s, model, theta)[2]).all(), theta


def rainfall_series(rng, law):
    """A normalized series drawn like the benchmark's report inputs:
    n in 30-100, a Kw or WK law, rescaled and written to 3 decimals."""
    n = int(rng.integers(30, 101))
    a, b = float(rng.uniform(1.0, 4.0)), float(rng.uniform(1.0, 6.0))
    u = rng.random(n)
    if law == "kw":
        x = betaincinv(1.0, b, u) ** (1.0 / a)
    else:  # WK(a, b, c): X^a ~ Beta(c/a, b+1)
        c = float(rng.uniform(0.5, 4.0))
        x = betaincinv(c / a, b + 1.0, u) ** (1.0 / a)
    low, span = rng.uniform(100.0, 600.0), rng.uniform(500.0, 2500.0)
    return normalize([float(f"{v:.3f}") for v in low + span * x])


def report_series():
    """40 fresh samples, alternately from Kw and WK laws."""
    return [rainfall_series(np.random.default_rng([2026, i]), ("kw", "wk")[i % 2])
            for i in range(40)]


@pytest.mark.parametrize("model, k", [("kw", 2), ("wk", 3)])
def test_joint_derivatives_in_log_a(model, k):
    # the refinement's gradient and Hessian in (s = log a, b[, c]) come from
    # those in (a, b[, c]) by the chain rule
    s = unit_sample(n=80)
    rng = np.random.default_rng(5)
    for theta in np.column_stack([rng.uniform(-2.0, 3.0, 20),
                                  np.exp(rng.uniform(-2.0, 3.0, (20, k - 1)))]):
        value, grad, hess = fit_mod._joint(s, model, theta)
        loglik = loglik_kw if model == "kw" else loglik_wk
        assert value == pytest.approx(-loglik(s, math.exp(theta[0]), *theta[1:]), rel=1e-12)
        step = 1e-6 * (1.0 + np.abs(theta))
        fd = finite_diff_grad(lambda v: fit_mod._joint(s, model, v)[0], theta, step)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-6)
        fd = np.array([finite_diff_grad(lambda v: fit_mod._joint(s, model, v)[1][i], theta,
                                        10.0 * step) for i in range(k)])
        np.testing.assert_allclose(hess, fd, rtol=1e-5, atol=1e-5)


class TestFitMle:
    def test_recovers_kumaraswamy(self):
        s = unit_sample(a=2.0, b=5.0, n=2000, seed=9)
        res = fit_mle(s, "kw", starts=6)
        assert res.params["a"] == pytest.approx(2.0, rel=0.15)
        assert res.params["b"] == pytest.approx(5.0, rel=0.2)
        assert res.optimizer.converged

    def test_wk_beats_nested_kw(self):
        s = unit_sample(a=2.0, b=13.0, c=6.0, n=1500, seed=5,
                        family="weighted_kumaraswamy")
        wk = fit_mle(s, "wk", starts=6)
        kw = fit_mle(s, "kw", starts=6)
        assert wk.loglik >= kw.loglik - 1e-6

    def test_wk_nests_kw_on_report_series(self):
        # WK(a, b - 1, a) is Kw(a, b), so the WK maximum cannot be lower
        # whenever the fitted Kw law lies inside the WK parameter box
        inside = 0
        for i, s in enumerate(report_series()):
            kw = fit_mle(s, "kw", starts=4)
            wk = fit_mle(s, "wk", starts=4)
            assert kw.optimizer.converged and wk.optimizer.converged, i
            if 1.001 <= kw.params["b"] <= 1001.0:
                inside += 1
                assert wk.loglik >= kw.loglik - 1e-9 * (1.0 + abs(kw.loglik)), i
        assert inside >= 30

    def test_wk_reuses_the_kw_fit(self, monkeypatch):
        # report fits kw before wk on one sample; the wk fit's nested start
        # then takes that kw optimum instead of scanning and refining kw again
        real_profile, real_refine, calls = fit_mod._kw_profile, fit_mod._refine, []

        def kw_profile(sample, s):
            calls.append("kw scan")
            return real_profile(sample, s)

        def refine(sample, model, *args):
            calls.append(f"{model} refine")
            return real_refine(sample, model, *args)

        monkeypatch.setattr(fit_mod, "_kw_profile", kw_profile)
        monkeypatch.setattr(fit_mod, "_refine", refine)
        for i, (s, twin) in enumerate(zip(report_series(), report_series())):
            calls.clear()
            alone = fit_mle(s, "wk", starts=4)
            assert calls.count("kw scan") == 1 and calls.count("kw refine") == 1, i
            fit_mle(twin, "kw", starts=4)
            calls.clear()
            after = fit_mle(twin, "wk", starts=4)
            assert "kw scan" not in calls and "kw refine" not in calls, i
            assert after.params == alone.params and after.loglik == alone.loglik, i
            assert (after.starts_tried, after.starts_failed, after.optimizer.iterations) == \
                (alone.starts_tried, alone.starts_failed, alone.optimizer.iterations), i

    def test_scan_steps_on_report_series(self, monkeypatch):
        # the closed-form starts of the scan's beta solves keep the batched
        # 49-point wk scan, with the beta model's problem as in a report, to a
        # few Newton steps, also where the optimum lies on a face of the box:
        # at large a, where xᵃ underflows, b is on 1e3
        real, steps = fit_mod.minimize_bounded, []

        def record(fun, x0, bounds, tol=1e-6):
            res = real(fun, x0, bounds, tol)
            steps.append(res.iterations)
            return res

        monkeypatch.setattr(fit_mod, "minimize_bounded", record)
        for s in report_series():
            fit_mod._solve_links(s, ("beta", "wk"))
        assert len(steps) == 40
        assert np.mean(steps) <= 7.0 and max(steps) <= 9
        # one observation after exclude_boundary: every optimum is on a face
        steps.clear()
        rng = np.random.default_rng(1)
        for _ in range(20):
            fit_mod._solve_links(normalize(rng.gamma(2.0, 100.0, 3)), ("beta", "wk"))
        assert max(steps) <= 6

    def test_failed_start_counted(self, monkeypatch):
        # a refinement that raises fails all the starts it carried; wk then
        # still refines from the kw optimum and ends at or above the kw fit
        real, calls = fit_mod.minimize_bounded, []

        def fail_first_refinement(fun, x0, bounds, tol=1e-6):
            # (log a, b, c): the joint wk refinement of the scan's peaks; the
            # scan's inner solves have two coordinates
            if len(x0) == 3 and not calls:
                calls.append(x0)
                raise ValueError("forced failure")
            return real(fun, x0, bounds, tol)

        s = unit_sample(n=300)
        clean = fit_mle(s, "wk", starts=4)
        assert clean.starts_failed == 0
        monkeypatch.setattr(fit_mod, "minimize_bounded", fail_first_refinement)
        res = fit_mle(s, "wk", starts=4)
        assert calls
        assert res.starts_tried == clean.starts_tried
        assert res.starts_failed == clean.starts_tried - 1
        kw = fit_mle(s, "kw", starts=4)
        assert res.loglik >= kw.loglik - 1e-9 * (1.0 + abs(kw.loglik))

    def test_aic_bic_identities(self):
        s = unit_sample(n=500, seed=2)
        res = fit_mle(s, "beta", starts=4)
        k, n = 2, len(s.likelihood_values)
        assert res.aic == pytest.approx(2 * k - 2 * res.loglik, abs=1e-9)
        assert res.bic == pytest.approx(k * math.log(n) - 2 * res.loglik,
                                        abs=1e-9)

    def test_refit_idempotent(self):
        s = unit_sample(n=800, seed=4)
        first = fit_mle(s, "kw", starts=6)
        again = fit_mle(s, "kw", starts=6)
        for key in first.params:
            assert again.params[key] == pytest.approx(first.params[key],
                                                      abs=1e-8)

    def test_handle_roundtrip(self):
        s = unit_sample(n=500, seed=6)
        res = fit_mle(s, "kw", starts=4)
        h = res.handle()
        assert h.name == "kumaraswamy"
        assert float(h.cdf(0.5)) == pytest.approx(
            1 - (1 - 0.5 ** res.params["a"]) ** res.params["b"], rel=1e-10)

    def test_rmse_is_finite_and_small_for_true_model(self):
        s = unit_sample(a=2.0, b=5.0, n=3000, seed=11)
        res = fit_mle(s, "kw", starts=4)
        assert np.isfinite(res.rmse)
        assert res.rmse == pytest.approx(
            rmse_metric(s, res.handle()), abs=1e-12)

    def test_wk_rmse_finite_on_three_point_samples(self):
        # the WK optimum of one observation lies at the box corner a = 1e-3,
        # b = 1e3, where the pdf's closed-form factors under- and overflow
        for s in three_point_samples():
            assert math.isfinite(fit_mle(s, "wk", starts=4).rmse)

    def test_unknown_model(self):
        s = unit_sample()
        with pytest.raises(ValueError):
            fit_mle(s, "gumbel")


def three_point_samples():
    """20 gamma samples of 3 points: one observation after exclude_boundary,
    where every Beta-link optimum lies on a face of the box."""
    rng = np.random.default_rng(1)
    return [normalize(rng.gamma(2.0, 100.0, 3)) for _ in range(20)]


def twin(s):
    """A fresh sample object with the same data, so no fit is reused."""
    return fit_mod.NormalizedSample(values=s.values, z_min=s.z_min, z_max=s.z_max,
                                    n=s.n, boundary_policy=s.boundary_policy)


def fields(res):
    return (res.params, res.loglik, res.aic, res.bic, res.rmse, res.starts_tried,
            res.starts_failed, res.optimizer.converged)


def outcome(fit, *args):
    """fields() of a fit, or the type and message of what it raised."""
    try:
        return fields(fit(*args))
    except (ValueError, fit_mod.FitError) as exc:
        return type(exc), str(exc)


class TestFitModels:
    MODELS = ("beta", "kw", "wk")

    def test_matches_separate_fits(self, monkeypatch):
        # one Beta-link batch serves the beta model and the wk scan: the same
        # fits as three fit_mle calls on one sample, with one solve fewer
        real, calls = fit_mod.minimize_bounded, []

        def count(*args, **kwargs):
            calls.append(len(args[1]))
            return real(*args, **kwargs)

        monkeypatch.setattr(fit_mod, "minimize_bounded", count)
        for i, s in enumerate(report_series() + three_point_samples()):
            calls.clear()
            together = fit_models(s, self.MODELS, 4)
            shared = len(calls)
            calls.clear()
            alone = twin(s)
            separate = {model: fit_mle(alone, model, 4) for model in self.MODELS}
            assert list(together) == list(self.MODELS), i
            for model in self.MODELS:
                np.testing.assert_equal(fields(together[model]), fields(separate[model]),
                                        err_msg=f"{i} {model}")
            assert shared == len(calls) - 1, i

    @pytest.mark.parametrize("poisoned, failing", [(0.0, "beta"), (1.0, "wk")])
    def test_failed_solve_fails_the_same_model(self, monkeypatch, poisoned, failing):
        # a Beta-link problem non-finite at its start fails the whole batch;
        # each model is then solved alone, so the model it belongs to fails as
        # fit_mle fails it, and the others fit as they would
        real = fit_mod._beta_start

        def poison(n, s1, s2, scale, shift):
            theta = real(n, s1, s2, scale, shift)
            return np.where(np.asarray(shift) == poisoned, np.nan, theta)

        s = report_series()[0]
        clean = fit_models(twin(s), self.MODELS, 4)
        monkeypatch.setattr(fit_mod, "_beta_start", poison)
        expected = outcome(fit_mle, twin(s), failing, 4)
        assert expected[0] is (fit_mod.FitError if failing == "beta" else ValueError)
        assert "non-finite at x0" in expected[1]
        assert outcome(fit_models, twin(s), self.MODELS, 4) == expected
        others = tuple(m for m in self.MODELS if m != failing)
        together = fit_models(twin(s), others, 4)
        for model in others:
            np.testing.assert_equal(fields(together[model]), fields(clean[model]), err_msg=model)

    def test_histogram_built_once_per_sample(self, monkeypatch):
        real, calls = np.histogram, []

        def count(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(fit_mod.np, "histogram", count)
        s = report_series()[1]
        fits = fit_models(s, self.MODELS, 4)
        assert len(calls) == 1
        for res in fits.values():
            assert res.rmse == rmse_metric(twin(s), res.handle())
