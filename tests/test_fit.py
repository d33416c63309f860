import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import betaincinv

import wtrv.fit as fit_mod
from helpers import finite_diff_grad
from wtrv import (fit_mle, fit_models, from_unit_values, loglik_beta, loglik_kw,
                  loglik_wk, make_catalog, normalize, rmse_metric, sample,
                  score_beta, score_kw, score_wk)
from wtrv.distributions import _BUILDERS
from wtrv.fit import BoundaryError, DegenerateSampleError


def unit_sample(a=2.0, b=5.0, n=400, seed=3, family="kumaraswamy", **extra):
    params = {"a": a, "b": b, **extra}
    return from_unit_values(sample(make_catalog(family, params), n, seed))


@pytest.mark.parametrize("model", fit_mod.MODELS)
def test_model_parameters_are_the_catalogs(model):
    # a fitted model is built by its catalog name from MODELS' names
    assert fit_mod.MODELS[model] == _BUILDERS[fit_mod._CATALOG_NAME[model]][0]


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

    def test_hand_built_sample_counts_its_values(self):
        # n is read from the values, so a sample built without it shrinks
        # as from_unit_values' does rather than dividing by zero
        v = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
        s = fit_mod.NormalizedSample(values=v, boundary_policy="shrink")
        assert s.n == len(v)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert np.array_equal(s.likelihood_values,
                                  from_unit_values(v, "shrink").likelihood_values)

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            normalize([1.0, 1.0])

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            normalize([1.0, 2.0, 3.0], policy="clip")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
    def test_nonfinite_value_rejected(self, bad):
        # NaN fails both range comparisons: it read as a constant sample
        with pytest.raises(ValueError, match=f"non-finite value: {bad}$"):
            normalize([1.0, bad, 3.0, 4.0])

    @pytest.mark.parametrize("policy", ["exclude_boundary", "shrink"])
    def test_unit_values_nan_rejected(self, policy):
        # NaN was accepted: exclude_boundary dropped it from the likelihood
        # set, and shrink failed every fit start
        with pytest.raises(ValueError, match="non-finite value: nan$"):
            from_unit_values([0.2, math.nan, 0.5, 0.7], policy)


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
        assert s.likelihood_values is s.likelihood_values
        v = s.values
        assert np.array_equal(s.likelihood_values, v[(v > 0.0) & (v < 1.0)])
        assert not s.likelihood_values.flags.writeable

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
        with pytest.raises(BoundaryError, match="empty"):
            s.likelihood_values


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
        # one fit_models call of kw and wk scans kw once and refines it in the
        # batch of two-parameter problems, which also solves the wk scan; the
        # wk fit's nested start takes that kw fit, and both results equal
        # separate fits. kw's iterations count the batch's steps, as beta's do
        real_profile, real_solve, scans, solves = fit_mod._kw_profile, fit_mod.minimize_bounded, [], []

        def kw_profile(sample):
            scans.append(1)
            return real_profile(sample)

        def solve(fun, x0, lo, hi, tol):
            res = real_solve(fun, x0, lo, hi, tol)
            solves.append((len(x0), res.iterations))
            return res

        monkeypatch.setattr(fit_mod, "_kw_profile", kw_profile)
        monkeypatch.setattr(fit_mod, "minimize_bounded", solve)
        for i, s in enumerate(report_series()):
            scans.clear()
            solves.clear()
            both = fit_models(s, ("kw", "wk"), starts=4)
            pairs = [steps for k, steps in solves if k == 2]
            assert len(scans) == 1 and len(pairs) == 1, i
            assert both["kw"].optimizer.iterations == pairs[0], i
            alone = {model: fit_mle(twin(s), model, starts=4) for model in ("kw", "wk")}
            for model in ("kw", "wk"):
                np.testing.assert_equal(fields(both[model]), fields(alone[model]),
                                        err_msg=f"{i} {model}")
            assert both["wk"].optimizer.iterations == alone["wk"].optimizer.iterations, i

    def test_scan_steps_on_report_series(self, monkeypatch):
        # the closed-form starts of the scan's beta solves keep the batched
        # 49-point wk scan, with the beta model's problem as in a report, to a
        # few Newton steps, also where the optimum lies on a face of the box:
        # at large a, where xᵃ underflows, b is on 1e3
        real, steps = fit_mod.minimize_bounded, []

        def record(fun, x0, lo, hi, tol):
            res = real(fun, x0, lo, hi, tol)
            steps.append(res.iterations)
            return res

        monkeypatch.setattr(fit_mod, "minimize_bounded", record)

        def solve_links(s):
            fit_mod._solve_pairs(s, {m: fit_mod._link_problems(s, m) for m in ("beta", "wk")})

        for s in report_series():
            solve_links(s)
        assert len(steps) == 40
        assert np.mean(steps) <= 7.0 and max(steps) <= 9
        # one observation after exclude_boundary: every optimum is on a face
        steps.clear()
        rng = np.random.default_rng(1)
        for _ in range(20):
            solve_links(normalize(rng.gamma(2.0, 100.0, 3)))
        assert max(steps) <= 6

    def test_failed_start_counted(self, monkeypatch):
        # a wk refine start whose objective is not finite there fails alone:
        # the other starts of its batch end where they would without it, and
        # wk still ends at or above the kw fit it nests
        real, ends = fit_mod.minimize_bounded, []

        def poison(column):
            def solve(fun, x0, lo, hi, tol):
                if np.shape(x0) != (3, 3):  # (log a, b, c) at the scan's three peaks
                    return real(fun, x0, lo, hi, tol)
                x0 = np.array(x0)
                x0[:, column] = np.nan
                res = real(fun, x0, lo, hi, tol)
                ends.append(res.objective)
                return res
            return solve

        s = report_series()[30]  # three wk peaks, kw nested in the wk box
        clean = fit_mle(twin(s), "wk", starts=4)
        assert (clean.starts_tried, clean.starts_failed) == (4, 0)
        kw = fit_mle(twin(s), "kw", starts=4)
        for column in (1, 0):
            ends.clear()
            monkeypatch.setattr(fit_mod, "minimize_bounded", poison(column))
            res = fit_mle(twin(s), "wk", starts=4)
            assert np.isfinite(ends[0]).tolist() == [j != column for j in range(3)]
            assert (res.starts_tried, res.starts_failed) == (4, 1)
            if column:
                np.testing.assert_equal(fields(res)[:5], fields(clean)[:5])
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
        h = res.law
        assert h.name == "kumaraswamy"
        assert float(h.cdf(0.5)) == pytest.approx(
            1 - (1 - 0.5 ** res.params["a"]) ** res.params["b"], rel=1e-10)

    def test_rmse_is_finite_and_small_for_true_model(self):
        s = unit_sample(a=2.0, b=5.0, n=3000, seed=11)
        res = fit_mle(s, "kw", starts=4)
        assert np.isfinite(res.rmse)
        assert res.rmse == pytest.approx(
            rmse_metric(s, res.law), abs=1e-12)

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
    """A fresh sample object with the same data and nothing cached."""
    return fit_mod.NormalizedSample(values=s.values, z_min=s.z_min, z_max=s.z_max,
                                    boundary_policy=s.boundary_policy)


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
        # one Beta-link batch serves the beta model and the wk scan, and one
        # kw fit serves kw and the wk nested start: the same fits as three
        # fit_mle calls on one sample, with two solves fewer
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
            assert shared == len(calls) - 2, i

    @pytest.mark.parametrize("poisoned, failing", [(0.0, "beta"), (1.0, "wk")])
    def test_failed_solve_fails_the_same_model(self, monkeypatch, poisoned, failing):
        # Beta-link problems non-finite at their start fail alone in the
        # shared batch: the model they belong to fails or fits as fit_mle
        # fits it alone, and the others fit as they would
        real = fit_mod._beta_start

        def poison(n, s1, s2, scale, shift):
            theta = real(n, s1, s2, scale, shift)
            return np.where(np.asarray(shift) == poisoned, np.nan, theta)

        s = report_series()[0]
        clean = fit_models(twin(s), self.MODELS, 4)
        monkeypatch.setattr(fit_mod, "_beta_start", poison)
        expected = outcome(fit_mle, twin(s), failing, 4)
        others = tuple(m for m in self.MODELS if m != failing)
        if failing == "beta":  # its one start fails
            assert expected[0] is fit_mod.FitError
            assert "all 1 starts failed for model 'beta'" in expected[1]
            assert outcome(fit_models, twin(s), self.MODELS, 4) == expected
            together = fit_models(twin(s), others, 4)
        else:  # a scan that is nowhere finite has no peaks: wk fits from its nested kw start
            assert expected[5:7] == (1, 0)
            together = fit_models(twin(s), self.MODELS, 4)
            np.testing.assert_equal(fields(together["wk"]), expected)
        for model in others:
            np.testing.assert_equal(fields(together[model]), fields(clean[model]), err_msg=model)

    def test_failed_kw_solve_fails_only_kw(self, monkeypatch):
        # kw refine starts non-finite there fail alone in the shared batch:
        # kw fails all its starts as fit_mle fails it, beta fits as it would,
        # and wk counts its nested start failed
        real = fit_mod._kw_profile

        def poison(sample):
            values, b = real(sample)
            return values, np.full_like(b, np.nan)

        s = report_series()[0]
        clean = fit_models(twin(s), self.MODELS, 4)
        monkeypatch.setattr(fit_mod, "_kw_profile", poison)
        expected = outcome(fit_mle, twin(s), "kw", 4)
        assert expected[0] is fit_mod.FitError and "starts failed for model 'kw'" in expected[1]
        assert outcome(fit_models, twin(s), self.MODELS, 4) == expected
        together = fit_models(twin(s), ("beta", "wk"), 4)
        np.testing.assert_equal(fields(together["beta"]), fields(clean["beta"]))
        np.testing.assert_equal(fields(together["wk"]), outcome(fit_mle, twin(s), "wk", 4))
        assert together["wk"].starts_tried == clean["wk"].starts_tried
        assert together["wk"].starts_failed == clean["wk"].starts_failed + 1

    @pytest.mark.parametrize("models, dims", [
        (("beta", "kw", "wk"), [2, 3]), (("wk",), [2, 3]), (("kw",), [2]), (("beta",), [2])])
    def test_solves_per_fit(self, monkeypatch, models, dims):
        # every two-parameter problem of a call shares one batch, and wk adds
        # its refine in (log a, b, c); on these series a wk peak always ends
        # at or above the kw optimum, so the nested start is not refined
        real, calls = fit_mod.minimize_bounded, []

        def count(fun, x0, lo, hi, tol):
            calls.append(len(x0))
            return real(fun, x0, lo, hi, tol)

        monkeypatch.setattr(fit_mod, "minimize_bounded", count)
        for i, s in enumerate(report_series()):
            calls.clear()
            fit_models(s, models, 4)
            assert calls == dims, i

    def test_one_evaluation_at_each_fitted_theta(self, monkeypatch):
        # each model's log-likelihood and projected gradient at its fitted θ
        # come from one _LOGLIK call: one _terms call with scalar parameters
        # per model, where the Newton steps evaluate arrays of problems
        real, scalar = fit_mod._terms, []

        def count(sample, model, theta):
            if np.ndim(theta[0]) == 0:
                scalar.append(model)
            return real(sample, model, theta)

        monkeypatch.setattr(fit_mod, "_terms", count)
        for i, s in enumerate(report_series()[:10]):
            scalar.clear()
            fit_models(s, self.MODELS, 4)
            assert scalar == list(self.MODELS), i

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
            assert res.rmse == rmse_metric(twin(s), res.law)
