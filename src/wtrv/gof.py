"""Goodness-of-fit tests against a fitted bounded-support model.

Implements Kolmogorov-Smirnov, Anderson-Darling, Cramer-von Mises, and
equal-probability chi-square tests. Default p-values are parameters-known
ones: asymptotic for KS, AD and chi-square, and the finite-n Csörgő–Faraway
(1996) approximation for Cramer-von Mises, ported from SciPy so that the
module needs scipy.special alone. A parametric bootstrap is available
because fitting the parameters on the same data invalidates the
parameters-known p-values.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .distributions import DistributionHandle, make_catalog, sample as _draw
from .fit import _CATALOG_NAME, MODELS, FitError, fit_mle, from_unit_values
from .numerics import WtrvError, _sc


class BinningError(ValueError):
    """Chi-square expected counts too small for the requested bins."""


class BootstrapError(WtrvError):
    """Too many bootstrap replicates failed to refit."""


TEST_NAMES = ("ks", "ad", "cvm", "chisq")
_BOOTSTRAP_STARTS = 4


def _sorted(values) -> np.ndarray:
    return np.sort(np.asarray(values, dtype=float))


def _pits(x: np.ndarray, laws: Sequence[DistributionHandle]) -> tuple[int, np.ndarray, np.ndarray]:
    """Sample size, (m, n) probability-integral transforms of the sorted
    sample x with boundary nudge, one row per law, and ranks 1..n."""
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 observations")
    u = np.clip([law.cdf(x) for law in laws], 1e-12, 1.0 - 1e-12)
    return n, u, np.arange(1, n + 1)


def _ks(n: int, u: np.ndarray, i: np.ndarray) -> np.ndarray:
    return np.max(np.maximum(i / n - u, u - (i - 1) / n), axis=1)


def _ad(n: int, u: np.ndarray, i: np.ndarray) -> np.ndarray:
    return -n - np.sum((2 * i - 1) * (np.log(u) + np.log1p(-u[:, ::-1])), axis=1) / n


def _ad_pvalue(z: float) -> float:
    """Asymptotic (parameters-known) right tail of the A-squared statistic."""
    if z <= 0.0:
        return 1.0
    if z < 2.0:
        cdf = (math.exp(-1.2337141 / z) / math.sqrt(z)
               * (2.00012 + (0.247105 - (0.0649821 - (0.0347962
                  - (0.011672 - 0.00168691 * z) * z) * z) * z) * z))
    else:
        cdf = math.exp(-math.exp(1.0776 - (2.30695 - (0.43424 - (0.082433
                       - (0.008056 - 0.0003146 * z) * z) * z) * z) * z))
    return float(min(max(1.0 - cdf, 0.0), 1.0))


def _cvm(n: int, u: np.ndarray, i: np.ndarray) -> np.ndarray:
    return np.sum((u - (2 * i - 1) / (2 * n)) ** 2, axis=1) + 1.0 / (12 * n)


_BLOCK = 4  # series terms per array call; a well-fitting law's W² needs two


def _sum_until_small(term: Callable, m: int) -> np.ndarray:
    """For each of m rows, term(0) + term(1) + ..., through the row's first
    term below 1e-7 in size, added in order as floats. term(r, k) gives the
    terms of the rows r at the array k, one row each; it is evaluated
    _BLOCK values of k at a time, on the rows still summing. Terms past a
    row's last one added are discarded, so their overflow is not reported."""
    totals, rows, k = [0.0] * m, list(range(m)), 0
    while rows:
        with np.errstate(over="ignore", invalid="ignore"):
            block = term(np.array(rows), np.arange(k, k + _BLOCK)).tolist()
        summing = []
        for r, terms in zip(rows, block):
            for z in terms:
                totals[r] += z
                if not abs(z) >= 1e-7:
                    break
            else:
                summing.append(r)
        rows, k = summing, k + _BLOCK
    return np.array(totals)


def _cvm_pvalues(w2: np.ndarray, n: int) -> np.ndarray:
    """Right tails of the W² values w2 for a sample of n: the finite-n cdf of
    Csörgő and Faraway (1996, eq. 1.8), V(x)(1 + 1/(12n)) + ψ₁(x)/n with ψ₁
    (eq. 1.10) less its V(x)/12 term, 0 up to 1/(12n) and 1 from n/3. It is
    SciPy's _cdf_cvm, operation for operation, so each p-value equals
    scipy.stats.cramervonmises's bit for bit. The values inside (1/(12n),
    n/3) share one loop over the two series, each summed through its own
    first small term, so a value's p-value does not depend on the others."""
    low, high = w2 <= 1.0 / (12 * n), w2 >= n / 3.0
    p = np.where(low, 1.0, 0.0)
    inside = ~(low | high)
    if not inside.any():
        return p
    x = w2[inside][:, None]  # one row per value; the terms' k run along the columns
    sx, y1, y2 = 2 * np.sqrt(x), x ** (3 / 4), x ** (5 / 4)

    def v_term(r, k):  # eq. 1.2, second line of 1.3
        # math.exp, as SciPy's: np.exp rounds differently for some k
        log_ratio = (_sc.gammaln(k + 0.5) - _sc.gammaln(k + 1)).tolist()
        u = np.array([math.exp(v) for v in log_ratio]) / (np.pi ** 1.5 * np.sqrt(x[r]))
        y = 4 * k + 1
        q = y ** 2 / (16 * x[r])
        return u * np.sqrt(y) * np.exp(-q) * _sc.kv(0.25, q)

    def psi_term(r, k):  # eq. 1.10 less V(x)/12, with SciPy's _psi1_mod's ed2 and ed3
        m, g1, g3 = 2 * k + 1, _sc.gamma(k + 1 / 2), _sc.gamma(k + 3 / 2)
        # ed2 is read at y = (4k + 1)/sx, (4k + 3)/sx and (4k + 5)/sx, ed3 at
        # the first and last: over a block of k, at (4k₀ + 1 + 2j)/sx
        y = np.arange(4 * k[0] + 1, 4 * k[-1] + 6, 2) / sx[r]
        z = y ** 2 / 4
        e, k1, k3 = np.exp(-z), _sc.kv(1 / 4, z), _sc.kv(3 / 4, z)
        ed2 = e * (y / 2) ** (3 / 2) * (k1 + k3) / math.sqrt(np.pi)
        ed3 = (e[:, ::2] / math.sqrt(np.pi) * (y[:, ::2] / 2) ** (5 / 2)
               * (2 * k1[:, ::2] + 3 * k3[:, ::2] - _sc.kv(5 / 4, z[:, ::2])))
        a_k = (m * g1 * ed2[:, 1::2] / (9 * y1[r])
               + g1 * ed3[:, :-1] / (72 * y2[r])
               + 2 * (m + 2) * g3 * ed3[:, 1:] / (12 * y2[r])
               + 7 * m * g1 * ed2[:, :-1:2] / (144 * y1[r])
               + 7 * m * g1 * ed2[:, 2::2] / (144 * y1[r]))
        return -a_k / (np.pi * _sc.gamma(k + 1))

    cdf = (_sum_until_small(v_term, len(x)) * (1 + 1.0 / (12 * n))
           + _sum_until_small(psi_term, len(x)) / n)
    p[inside] = np.maximum(1.0 - cdf, 0.0)
    return p


def _chisq(x: np.ndarray, laws: Sequence[DistributionHandle], bins: int) -> np.ndarray:
    """Equal-probability chi-square statistic of the sorted sample x against
    each law, counted in the bins between that law's own quantiles."""
    n = len(x)
    if bins < 2:
        raise ValueError("bins must be at least 2")
    if n < bins:
        raise ValueError("need at least as many observations as bins")
    expected = n / bins
    if expected < 1.0:
        raise BinningError(f"expected count {expected:.3g} < 1 with {bins} bins")
    levels = np.linspace(0.0, 1.0, bins + 1)
    edges = np.array([law.quantile(levels) for law in laws])
    counts = np.diff(np.searchsorted(x, edges, side="right"), axis=1)
    counts[:, 0] += np.sum(x < edges[:, :1], axis=1)
    counts[:, -1] += np.sum(x > edges[:, -1:], axis=1)
    return np.sum((counts - expected) ** 2, axis=1) / expected


# statistics of each test from the (m, n) PIT stack
_FROM_PIT = {"ks": _ks, "ad": _ad, "cvm": _cvm}


def _statistics(x: np.ndarray, laws: Sequence[DistributionHandle], bins: int) -> Callable:
    """name -> (m,) statistics of that test of each of the m laws on the
    sorted sample x. KS, AD and CvM read one stack of PITs, made at the
    first of them that is asked for; until one is made, each asks for it
    again."""
    pits = functools.cache(lambda: _pits(x, laws))

    def statistic(name: str) -> np.ndarray:
        if name == "chisq":
            return _chisq(x, laws, bins)
        return _FROM_PIT[name](*pits())

    return statistic


def _pvalues(name: str, stats: np.ndarray, n: int, df) -> np.ndarray:
    """Asymptotic p-values of the (m,) statistics of test `name` on a sample
    of n; df, one or per law, is the chi-square test's degrees of freedom."""
    if name == "ks":
        return _sc.kolmogorov(math.sqrt(n) * stats)
    if name == "ad":
        return np.array([_ad_pvalue(z) for z in stats.tolist()])
    if name == "cvm":
        return _cvm_pvalues(stats, n)
    return _sc.chdtrc(df, stats)


def _one_law(name: str, values, model: DistributionHandle, bins: int = 10,
             df: int = 1) -> tuple[float, float]:
    """(statistic, asymptotic p-value) of one test of one law: the m = 1
    case of the stacked tests."""
    x = _sorted(values)
    stats = _statistics(x, (model,), bins)(name)
    return float(stats[0]), float(_pvalues(name, stats, len(x), df)[0])


def ks_test(values, model: DistributionHandle) -> tuple[float, float]:
    """Two-sided KS statistic and asymptotic p-value."""
    return _one_law("ks", values, model)


def ad_test(values, model: DistributionHandle) -> tuple[float, float]:
    """Anderson-Darling A-squared and asymptotic p-value."""
    return _one_law("ad", values, model)


def cvm_test(values, model: DistributionHandle) -> tuple[float, float]:
    """Cramer-von Mises W-squared and its finite-n (Csörgő–Faraway) p-value."""
    return _one_law("cvm", values, model)


def chisq_test(values, model: DistributionHandle, bins: int = 10,
                n_params: int = 0) -> tuple[float, float]:
    """Equal-probability chi-square test, with df = bins - 1 - n_params (at
    least 1), the convention that reproduces published p-values for this
    test family."""
    return _one_law("chisq", values, model, bins, max(bins - 1 - n_params, 1))


def _bootstrap_pvalues(n: int, family: str, fitted: DistributionHandle,
                       t_obs: dict[str, float], replicates: int, seed: int,
                       bins: int) -> dict[str, float]:
    """Bootstrap p-values of the tests in t_obs, {test: observed statistic}
    on a sample of n, from one set of simulations from the fitted law and
    refits of `family`; failures are counted per test."""
    exceed = dict.fromkeys(t_obs, 0)
    failures = dict.fromkeys(t_obs, 0)
    for r in range(replicates):
        sim = _draw(fitted, n, seed=seed + 1000 * (r + 1))
        try:
            refit = fit_mle(from_unit_values(sim), family, starts=_BOOTSTRAP_STARTS).law
        except (FitError, ValueError):
            for t in t_obs:
                failures[t] += 1
            continue
        replicate = _statistics(np.sort(sim), (refit,), bins)
        for t in t_obs:
            try:
                t_star = replicate(t)[0]
            except ValueError:
                failures[t] += 1
                continue
            if t_star >= t_obs[t]:
                exceed[t] += 1
    for t in t_obs:
        if failures[t] > 0.1 * replicates:
            raise BootstrapError(f"{failures[t]}/{replicates} bootstrap refits failed")
    return {t: (1.0 + exceed[t]) / (replicates + 1.0) for t in t_obs}


def bootstrap_pvalue(values, family: str, fitted_params: dict[str, float],
                     test: str, replicates: int = 199, seed: int = 42,
                     bins: int = 10) -> float:
    """Parametric bootstrap p-value: simulate from the fitted model, refit,
    recompute the statistic; p = (1 + #{T* >= T_obs}) / (replicates + 1).
    It is run_gof's bootstrap of the one test."""
    if family not in MODELS:
        raise ValueError(f"unknown model family {family!r}")
    law = make_catalog(_CATALOG_NAME[family], fitted_params)
    return run_gof(values, law, (test,), "bootstrap", bins, family, replicates,
                   seed)[test]["p_value"]


def run_gof(values, model: DistributionHandle | Mapping[str, DistributionHandle],
            tests: Sequence[str] = TEST_NAMES, method: str = "asymptotic",
            bins: int = 10, family: Optional[str] = None, replicates: int = 199,
            seed: int = 42) -> dict[str, dict]:
    """{test: {statistic, p_value, method}} of the selected tests of `model`,
    the law fitted as `family`; or, when `model` is {family: law} of several
    fitted laws, {family: {test: ...}} of each. One law is the case m = 1 of
    the m laws tested in one pass: the sample is sorted once, each law's cdf
    is evaluated once, and KS, AD and CvM read the (m, n) stack of their
    probability-integral transforms, with one vectorized statistic per test
    and one p-value pass for all m. The chi-square test counts each law's
    own quantile bins, with df less its family's parameter count. Bootstrap
    p-values simulate from each law and refit its family."""
    several = isinstance(model, Mapping)
    if several and family is not None:
        raise ValueError("several laws are keyed by their families; family must be None")
    laws = dict(model) if several else {family: model}
    if method not in ("asymptotic", "bootstrap"):
        raise ValueError(f"unknown p-value method {method!r}")
    if method == "bootstrap":
        for fam in laws:
            if fam not in MODELS:
                raise ValueError(f"bootstrap p-values need the fitted model family, got {fam!r}")
    x = _sorted(values)
    dfs = np.array([max(bins - 1 - len(MODELS.get(fam, ())), 1) for fam in laws])
    statistic = _statistics(x, tuple(laws.values()), bins)
    results: dict = {fam: {} for fam in laws}
    for name in tests:
        if name not in TEST_NAMES:
            raise ValueError(f"unknown test {name!r}")
        stats = statistic(name)
        for fam, stat, p in zip(laws, stats.tolist(),
                                _pvalues(name, stats, len(x), dfs).tolist()):
            results[fam][name] = {"statistic": stat, "p_value": p, "method": "asymptotic"}
    if method == "bootstrap":
        if replicates < 99:
            raise ValueError("replicates must be at least 99")
        for fam, law in laws.items():
            t_obs = {name: r["statistic"] for name, r in results[fam].items()}
            boot = _bootstrap_pvalues(len(x), fam, law, t_obs, replicates, seed, bins)
            for name, p in boot.items():
                results[fam][name].update(p_value=p, method="bootstrap")
    return results if several else results[family]
