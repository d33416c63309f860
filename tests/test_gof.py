import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import cramervonmises
from test_fit import rainfall_series, report_series

import wtrv.gof as gof_mod
from wtrv import (ad_test, bootstrap_pvalue, chisq_test, cvm_test, fit_mle,
                  fit_models, from_unit_values, ks_test, kolmogorov_sf,
                  make_catalog, run_gof, sample)
from wtrv.gof import _cvm_pvalues

UNIFORM = make_catalog("uniform", {})


def midpoint_grid(n):
    return (np.arange(1, n + 1) - 0.5) / n


class TestKs:
    def test_staircase_statistic(self):
        n = 20
        d, _ = ks_test(midpoint_grid(n), UNIFORM)
        assert d == pytest.approx(0.5 / n, abs=1e-14)

    def test_pvalue_is_kolmogorov_sf(self):
        n = 50
        values = np.linspace(0.3, 0.9, n)
        d, p = ks_test(values, UNIFORM)
        assert p == pytest.approx(kolmogorov_sf(np.sqrt(n) * d), abs=1e-14)

    def test_bad_fit_rejected(self):
        values = np.linspace(0.8, 0.999, 100)
        _, p = ks_test(values, UNIFORM)
        assert p < 1e-6


class TestCvm:
    def test_minimal_statistic(self):
        n = 25
        w2, _ = cvm_test(midpoint_grid(n), UNIFORM)
        assert w2 == pytest.approx(1.0 / (12 * n), abs=1e-14)

    def test_pvalue_range(self):
        w2, p = cvm_test(midpoint_grid(25), UNIFORM)
        assert 0.9 < p <= 1.0

    def test_matches_scipy_exactly(self):
        # the ported Csörgő–Faraway series against scipy.stats.cramervonmises
        # on the same probability-integral transform
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            n = int(rng.integers(2, 301))
            u = np.sort(rng.random(n) ** rng.uniform(0.2, 5.0))
            ref = cramervonmises(np.clip(u, 1e-12, 1.0 - 1e-12), "uniform")
            assert cvm_test(u, UNIFORM) == (ref.statistic, ref.pvalue), n

    def test_matches_scipy_past_one_block(self, monkeypatch):
        # each series is evaluated _BLOCK terms at a time: near n/3 it runs
        # for several blocks, and just above 1/(12n) it ends in its first,
        # at its first term for n = 400 (blocks counts both series' blocks);
        # stacked, each value is summed through its own blocks alone
        real, blocks = gof_mod._sum_until_small, []

        def record(term, m):  # the first k of each block evaluated
            return real(lambda r, k: (blocks.append(k[0]), term(r, k))[1], m)

        monkeypatch.setattr(gof_mod, "_sum_until_small", record)
        rng = np.random.default_rng(18)
        longest = {}
        for n in (3, 10, 40, 100, 250, 400):
            mid = (np.arange(1, n + 1) - 0.5) / n
            refs = []
            for scale in (1e-6, 1e-4, 1e-2, 0.1, 0.3):
                # a cdf near 0 on the whole sample: W² just below n/3; and the
                # midpoint grid, slightly perturbed: W² just above 1/(12n)
                high = cramervonmises(np.sort(rng.random(n)) * scale, "uniform")
                low = cramervonmises(mid + rng.uniform(-scale, scale, n) / (4 * n), "uniform")
                for side, ref in (("high", high), ("low", low)):
                    w2 = float(ref.statistic)
                    assert 1.0 / (12 * n) < w2 < n / 3.0, (n, scale)
                    blocks.clear()
                    assert _cvm_pvalues(np.array([w2]), n)[0] == ref.pvalue, (n, scale, w2)
                    longest[side] = max(longest.get(side, 0), len(blocks))
                    refs.append(ref)
            w2 = np.array([float(ref.statistic) for ref in refs])
            assert _cvm_pvalues(w2, n).tolist() == [ref.pvalue for ref in refs], n
        assert longest["high"] >= 10 and longest["low"] == 2

    @pytest.mark.parametrize("n", [2, 3, 10, 57, 300])
    def test_support_edges_match_scipy(self, n):
        # W² = 1/(12n) for the midpoint grid and n/3 for a cdf that is 0 on
        # the whole sample: the p-value is 1 and 0 there
        low = cramervonmises(midpoint_grid(n), "uniform")
        high = cramervonmises(np.linspace(0.1, 0.9, n), np.zeros_like)
        assert low.statistic <= 1.0 / (12 * n) and high.statistic >= n / 3.0
        w2 = np.array([low.statistic, high.statistic], dtype=float)
        assert _cvm_pvalues(w2, n).tolist() == [low.pvalue, high.pvalue] == [1.0, 0.0]


class TestAd:
    def test_quadrature_oracle_n5(self):
        u = np.array([0.11, 0.31, 0.52, 0.68, 0.89])
        n = len(u)

        def fn(t):
            return float(np.sum(u <= t)) / n

        a2_oracle = n * sum(
            quad(lambda t: (fn(t) - t) ** 2 / (t * (1 - t)), lo, hi,
                 limit=200)[0]
            for lo, hi in zip([0.0, *u], [*u, 1.0]))
        a2, _ = ad_test(u, UNIFORM)
        assert a2 == pytest.approx(a2_oracle, rel=1e-8)

    def test_reference_pvalue(self):
        # published critical behavior of the asymptotic distribution:
        # Pr(A^2 >= 2.492) is close to 0.05
        from wtrv.gof import _ad_pvalue
        assert _ad_pvalue(2.492) == pytest.approx(0.05, abs=0.002)

    def test_pvalue_monotone(self):
        from wtrv.gof import _ad_pvalue
        stats = np.linspace(0.1, 5.0, 60)
        ps = [_ad_pvalue(s) for s in stats]
        assert all(a >= b for a, b in zip(ps, ps[1:]))


class TestChisq:
    def test_uniform_equal_probability_bins(self):
        # counts exactly equal across bins: statistic 0
        n, bins = 100, 10
        stat, p = chisq_test(midpoint_grid(n), UNIFORM, bins=bins)
        assert stat == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0)

    def test_df_conventions(self):
        values = sample(UNIFORM, 400, seed=5)
        from scipy.stats import chi2
        # df = bins - 1 - n_params
        stat, p_full = chisq_test(values, UNIFORM, bins=10, n_params=0)
        _, p_cal = chisq_test(values, UNIFORM, bins=10, n_params=2)
        assert p_full == pytest.approx(float(chi2.sf(stat, 9)), abs=1e-12)
        assert p_cal == pytest.approx(float(chi2.sf(stat, 7)), abs=1e-12)

    def test_bad_bins(self):
        with pytest.raises(Exception):
            chisq_test(midpoint_grid(20), UNIFORM, bins=1)


class TestPitInvariance:
    def test_statistics_invariant_under_pit(self):
        d = make_catalog("kumaraswamy", {"a": 2.0, "b": 3.0})
        values = sample(d, 200, seed=8)
        pit = np.asarray(d.cdf(values), dtype=float)
        for test in (ks_test, ad_test, cvm_test):
            s_model, _ = test(values, d)
            s_unif, _ = test(pit, UNIFORM)
            assert s_model == pytest.approx(s_unif, abs=1e-12)


class TestCalibration:
    def test_ks_rejection_rate_at_level(self):
        # under the null the asymptotic KS test at level 0.05 should reject
        # about 5% of the time
        rng = np.random.default_rng(123)
        rejections = 0
        sims = 500
        for _ in range(sims):
            _, p = ks_test(rng.uniform(size=100), UNIFORM)
            rejections += p < 0.05
        assert 0.03 <= rejections / sims <= 0.08


class TestRunGof:
    def test_report_structure(self):
        d = make_catalog("kumaraswamy", {"a": 2.0, "b": 3.0})
        values = sample(d, 300, seed=4)
        rep = run_gof(values, d)
        assert list(rep) == ["ks", "ad", "cvm", "chisq"]
        for name in ("ks", "ad", "cvm", "chisq"):
            assert 0.0 <= rep[name]["p_value"] <= 1.0

    def test_true_model_not_rejected(self):
        d = make_catalog("kumaraswamy", {"a": 2.0, "b": 3.0})
        values = sample(d, 500, seed=12)
        rep = run_gof(values, d)
        assert all(t["p_value"] > 0.01 for t in rep.values())

    def test_one_cdf_evaluation(self):
        # KS, AD and CvM read one probability-integral transform per run_gof
        # call, with the values the separate tests give
        for i, s in enumerate(report_series()):
            for model, res in fit_models(s, ("beta", "kw", "wk"), 4).items():
                law, calls = res.law, []

                def cdf(x, law=law, calls=calls):
                    calls.append(len(x))
                    return law.cdf(x)

                values = s.likelihood_values
                rep = run_gof(values, dataclasses.replace(
                    law, interior=law.interior._replace(cdf=cdf)), family=model)
                assert calls == [len(values)], (i, model)
                for name, test in (("ks", ks_test), ("ad", ad_test), ("cvm", cvm_test)):
                    stat, p = test(values, law)
                    assert (rep[name]["statistic"], rep[name]["p_value"]) == \
                        (stat, p), (i, model, name)


class TestBootstrap:
    def test_one_cdf_evaluation(self):
        # the bootstrap refits from the observed statistics run_gof has
        # computed, so the observed law's cdf is read once
        s = report_series()[0]
        law, calls = fit_mle(s, "kw", starts=4).law, []

        def cdf(x):
            calls.append(len(x))
            return law.cdf(x)

        values = s.likelihood_values
        rep = run_gof(values, dataclasses.replace(law, interior=law.interior._replace(cdf=cdf)),
                      method="bootstrap", family="kw", replicates=99)
        assert calls == [len(values)]
        assert all(t["method"] == "bootstrap" for t in rep.values())

    def test_bootstrap_pvalue_reasonable_and_deterministic(self):
        d = make_catalog("kumaraswamy", {"a": 2.0, "b": 5.0})
        values = np.asarray(sample(d, 150, seed=3))
        s = from_unit_values(values)
        fitted = fit_mle(s, "kw", starts=4)
        p1 = bootstrap_pvalue(values, "kw", fitted.params, "ks",
                              replicates=99, seed=21)
        p2 = bootstrap_pvalue(values, "kw", fitted.params, "ks",
                              replicates=99, seed=21)
        assert p1 == p2
        assert 1.0 / 100 <= p1 <= 1.0
        assert p1 > 0.05  # true model should not be rejected

    def test_repeated_test_counted_once(self):
        # a test named twice is one entry of the result, with the p-value it
        # has alone: its exceedances and failures were counted once per name
        d = make_catalog("kumaraswamy", {"a": 2.0, "b": 3.0})
        values = sample(d, 40, seed=6)
        law = fit_mle(from_unit_values(values), "kw", starts=4).law
        twice, once = (run_gof(values, law, tests, method="bootstrap", family="kw",
                               replicates=99, seed=13) for tests in (("ks", "ks"), ("ks",)))
        assert twice == once and 0.0 < twice["ks"]["p_value"] <= 1.0

    def test_run_gof_matches_per_test_bootstrap(self):
        d = make_catalog("kumaraswamy", {"a": 2.0, "b": 3.0})
        values = np.sort(np.asarray(sample(d, 40, seed=6)))
        fitted = fit_mle(from_unit_values(values), "kw", starts=4)
        tests = ("ad", "chisq")
        rep = run_gof(values, fitted.law, tests=tests,
                      method="bootstrap", family="kw", replicates=99, seed=13)
        for name in tests:
            assert rep[name]["method"] == "bootstrap"
            assert rep[name]["p_value"] == bootstrap_pvalue(
                values, "kw", fitted.params, name, replicates=99, seed=13)


class TestStackedLaws:
    def test_equals_one_law_runs(self):
        # one run_gof call on several fitted laws gives each law the bits of
        # its own one-law call, on report-like series (n in 30-100) whose wk
        # fits include each box face a = 1e-3, b = 1e3 and a = 1e3
        faces = set()
        for i in range(200):
            s = rainfall_series(np.random.default_rng([77, i]), ("kw", "wk")[i % 2])
            fits = fit_models(s, ("beta", "kw", "wk"), 4)
            values = s.likelihood_values
            stacked = run_gof(values, {m: r.law for m, r in fits.items()})
            alone = {m: run_gof(values, r.law, family=m) for m, r in fits.items()}
            assert repr(stacked) == repr(alone), i
            a, b = fits["wk"].params["a"], fits["wk"].params["b"]
            faces |= {face for face, on in (("a", a == 1e-3), ("b", b == 1e3),
                                            ("A", a == 1e3)) if on}
        assert faces == {"a", "b", "A"}

    def test_bootstrap_pvalues_pinned(self):
        # exceedances among 99 replicates (seed 13) of each model's tests on
        # one report-like series, as each model's own run gave them before
        # the laws were stacked
        s = report_series()[1]
        fits = fit_models(s, ("beta", "kw", "wk"), 4)
        rep = run_gof(s.likelihood_values, {m: r.law for m, r in fits.items()},
                      method="bootstrap", replicates=99, seed=13)
        exceed = {"beta": (18, 13, 27, 32), "kw": (15, 20, 35, 75), "wk": (78, 75, 66, 16)}
        for m, counts in exceed.items():
            assert [t["p_value"] for t in rep[m].values()] == \
                [(1.0 + c) / (99 + 1.0) for c in counts], m

    def test_family_is_the_key(self):
        law = make_catalog("kumaraswamy", {"a": 2.0, "b": 3.0})
        with pytest.raises(ValueError, match="keyed by their families"):
            run_gof(sample(law, 40, seed=6), {"kw": law}, family="kw")
