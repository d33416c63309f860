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
from typing import Callable, Optional, Sequence

import numpy as np

from .distributions import DistributionHandle, make_catalog, sample as _draw
from .fit import _CATALOG_NAME, MODELS, FitError, fit_mle, from_unit_values
from .numerics import WtrvError, _sc, kolmogorov_sf


class BinningError(ValueError):
    """Chi-square expected counts too small for the requested bins."""


class BootstrapError(WtrvError):
    """Too many bootstrap replicates failed to refit."""


TEST_NAMES = ("ks", "ad", "cvm", "chisq")
_BOOTSTRAP_STARTS = 4


def _pit(x: np.ndarray, model: DistributionHandle) -> tuple[int, np.ndarray, np.ndarray]:
    """Sample size, probability-integral transform of the sorted sample x with
    boundary nudge, and ranks 1..n."""
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 observations")
    u = np.clip(model.cdf(x), 1e-12, 1.0 - 1e-12)
    return n, u, np.arange(1, n + 1)


def _sorted(values) -> np.ndarray:
    return np.sort(np.asarray(values, dtype=float))


def _ks(n: int, u: np.ndarray, i: np.ndarray) -> tuple[float, float]:
    d = float(np.max(np.maximum(i / n - u, u - (i - 1) / n)))
    return d, kolmogorov_sf(math.sqrt(n) * d)


def ks_test(values, model: DistributionHandle) -> tuple[float, float]:
    """Two-sided KS statistic and asymptotic p-value."""
    return _ks(*_pit(_sorted(values), model))


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


def _ad(n: int, u: np.ndarray, i: np.ndarray) -> tuple[float, float]:
    a2 = float(-n - np.sum((2 * i - 1) * (np.log(u) + np.log1p(-u[::-1]))) / n)
    return a2, _ad_pvalue(a2)


def ad_test(values, model: DistributionHandle) -> tuple[float, float]:
    """Anderson-Darling A-squared and asymptotic p-value."""
    return _ad(*_pit(_sorted(values), model))


_BLOCK = 4  # series terms per array call; a well-fitting law's W² needs two


def _sum_until_small(term: Callable) -> float:
    """term(0) + term(1) + ..., through the first term below 1e-7 in size,
    added in order as floats. term takes an array of k and is evaluated
    _BLOCK values of k at a time; terms past the last one added are
    discarded, so their overflow is not reported."""
    total, k = 0.0, 0
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            block = term(np.arange(k, k + _BLOCK)).tolist()
        for z in block:
            total += z
            if not abs(z) >= 1e-7:
                return total
        k += _BLOCK


def _cvm_pvalue(w2: float, n: int) -> float:
    """Right tail of W² for a sample of n: the finite-n cdf of Csörgő and
    Faraway (1996, eq. 1.8), V(x)(1 + 1/(12n)) + ψ₁(x)/n with ψ₁ (eq. 1.10)
    less its V(x)/12 term, 0 up to 1/(12n) and 1 from n/3. It is SciPy's
    _cdf_cvm, operation for operation, so the p-value equals
    scipy.stats.cramervonmises's bit for bit."""
    if w2 <= 1.0 / (12 * n):
        return 1.0
    if w2 >= n / 3.0:
        return 0.0
    x = np.array([w2])
    sx, y1, y2 = 2 * np.sqrt(x), x ** (3 / 4), x ** (5 / 4)

    def v_term(k):  # eq. 1.2, second line of 1.3
        # math.exp, as SciPy's: np.exp rounds differently for some k
        log_ratio = (_sc.gammaln(k + 0.5) - _sc.gammaln(k + 1)).tolist()
        u = np.array([math.exp(v) for v in log_ratio]) / (np.pi ** 1.5 * np.sqrt(x))
        y = 4 * k + 1
        q = y ** 2 / (16 * x)
        return u * np.sqrt(y) * np.exp(-q) * _sc.kv(0.25, q)

    def psi_term(k):  # eq. 1.10 less V(x)/12, with SciPy's _psi1_mod's ed2 and ed3
        m, g1, g3 = 2 * k + 1, _sc.gamma(k + 1 / 2), _sc.gamma(k + 3 / 2)
        # ed2 is read at y = (4k + 1)/sx, (4k + 3)/sx and (4k + 5)/sx, ed3 at
        # the first and last: over a block of k, at (4k₀ + 1 + 2j)/sx
        y = np.arange(4 * k[0] + 1, 4 * k[-1] + 6, 2) / sx
        z = y ** 2 / 4
        e, k1, k3 = np.exp(-z), _sc.kv(1 / 4, z), _sc.kv(3 / 4, z)
        ed2 = e * (y / 2) ** (3 / 2) * (k1 + k3) / math.sqrt(np.pi)
        ed3 = (e[::2] / math.sqrt(np.pi) * (y[::2] / 2) ** (5 / 2)
               * (2 * k1[::2] + 3 * k3[::2] - _sc.kv(5 / 4, z[::2])))
        a_k = (m * g1 * ed2[1::2] / (9 * y1)
               + g1 * ed3[:-1] / (72 * y2)
               + 2 * (m + 2) * g3 * ed3[1:] / (12 * y2)
               + 7 * m * g1 * ed2[:-1:2] / (144 * y1)
               + 7 * m * g1 * ed2[2::2] / (144 * y1))
        return -a_k / (np.pi * _sc.gamma(k + 1))

    cdf = _sum_until_small(v_term) * (1 + 1.0 / (12 * n)) + _sum_until_small(psi_term) / n
    return float(max(1.0 - cdf, 0.0))


def _cvm(n: int, u: np.ndarray, i: np.ndarray) -> tuple[float, float]:
    w2 = float(np.sum((u - (2 * i - 1) / (2 * n)) ** 2) + 1.0 / (12 * n))
    return w2, _cvm_pvalue(w2, n)


def cvm_test(values, model: DistributionHandle) -> tuple[float, float]:
    """Cramer-von Mises W-squared and its finite-n (Csörgő–Faraway) p-value."""
    return _cvm(*_pit(_sorted(values), model))


def chisq_test(values, model: DistributionHandle, bins: int = 10,
                n_params: int = 0) -> tuple[float, float]:
    """Equal-probability chi-square test, with df = bins - 1 - n_params (at
    least 1), the convention that reproduces published p-values for this
    test family."""
    x = _sorted(values)
    n = len(x)
    if bins < 2:
        raise ValueError("bins must be at least 2")
    if n < bins:
        raise ValueError("need at least as many observations as bins")
    expected = n / bins
    if expected < 1.0:
        raise BinningError(f"expected count {expected:.3g} < 1 with {bins} bins")
    edges = model.quantile(np.linspace(0.0, 1.0, bins + 1))
    counts = np.diff(np.searchsorted(x, edges, side="right"))
    counts[0] += np.sum(x < edges[0])
    counts[-1] += np.sum(x > edges[-1])
    stat = float(np.sum((counts - expected) ** 2) / expected)
    return stat, float(_sc.chdtrc(max(bins - 1 - n_params, 1), stat))


# (statistic, asymptotic p-value) of each test from the PIT (n, u, ranks)
_FROM_PIT = {"ks": _ks, "ad": _ad, "cvm": _cvm}


def _statistics(x: np.ndarray, model: DistributionHandle, bins: int, k: int) -> Callable:
    """name -> (statistic, asymptotic p-value) of that test on the sorted
    sample x. KS, AD and CvM read one PIT, made at the first of them that
    is asked for; until one is made, each asks for it again."""
    pit = functools.cache(lambda: _pit(x, model))

    def statistic(name: str) -> tuple[float, float]:
        if name == "chisq":
            return chisq_test(x, model, bins=bins, n_params=k)
        return _FROM_PIT[name](*pit())

    return statistic


def _bootstrap_pvalues(n: int, family: str, fitted: DistributionHandle,
                       t_obs: dict[str, float], replicates: int, seed: int,
                       bins: int) -> dict[str, float]:
    """Bootstrap p-values of the tests in t_obs, {test: observed statistic}
    on a sample of n, from one set of simulations from the fitted law and
    refits of `family`; failures are counted per test."""
    k = len(MODELS[family])
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
        replicate = _statistics(np.sort(sim), refit, bins, k)
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


def run_gof(values, model: DistributionHandle, tests: Sequence[str] = TEST_NAMES,
            method: str = "asymptotic", bins: int = 10, family: Optional[str] = None,
            replicates: int = 199, seed: int = 42) -> dict[str, dict]:
    """{test: {statistic, p_value, method}} of the selected tests. The
    sample is sorted and model.cdf evaluated once per call, for KS, AD and
    CvM alike. `family` is the model family `model` was fitted as; the
    chi-square df subtracts its parameter count, and bootstrap p-values
    simulate from `model` and refit that family."""
    if method not in ("asymptotic", "bootstrap"):
        raise ValueError(f"unknown p-value method {method!r}")
    if method == "bootstrap" and family not in MODELS:
        raise ValueError(f"bootstrap p-values need the fitted model family, got {family!r}")
    x = _sorted(values)
    k = len(MODELS[family]) if family in MODELS else 0
    statistic = _statistics(x, model, bins, k)
    results: dict[str, dict] = {}
    for name in tests:
        if name not in TEST_NAMES:
            raise ValueError(f"unknown test {name!r}")
        stat, p = statistic(name)
        results[name] = {"statistic": stat, "p_value": p, "method": "asymptotic"}
    if method == "bootstrap":
        if replicates < 99:
            raise ValueError("replicates must be at least 99")
        t_obs = {name: r["statistic"] for name, r in results.items()}
        boot = _bootstrap_pvalues(len(x), family, model, t_obs, replicates, seed, bins)
        for name, p in boot.items():
            results[name].update(p_value=p, method="bootstrap")
    return results
