"""Maximum-likelihood fitting of bounded-support models to normalized data.

Supports the two-parameter beta and Kumaraswamy families plus the
three-parameter weighted Kumaraswamy family, with multi-start bounded
quasi-Newton optimization on the closed-form scores, AIC/BIC, and a
histogram-based RMSE metric.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import digamma, gammaln

from .distributions import DistributionHandle, make_catalog
from .numerics import OptimizeResult, WtrvError, minimize_bounded


class DegenerateSampleError(ValueError):
    """Sample cannot be normalized or has no variation."""


class BoundaryError(ValueError):
    """A boundary value (0 or 1) entered a likelihood sum."""


class FitError(WtrvError):
    """No optimizer start produced a finite optimum."""


BOUNDARY_POLICIES = ("exclude_boundary", "shrink")
PARAM_BOUNDS = (1e-3, 1e3)

MODELS = {
    "beta": ("alpha", "beta"),
    "kw": ("a", "b"),
    "wk": ("a", "b", "c"),
}

_CATALOG_NAME = {"beta": "beta", "kw": "kumaraswamy", "wk": "weighted_kumaraswamy"}


@dataclass(frozen=True)
class NormalizedSample:
    values: np.ndarray = field(repr=False)
    z_min: float = 0.0
    z_max: float = 1.0
    n: int = 0
    boundary_policy: str = "exclude_boundary"

    @property
    def likelihood_values(self) -> np.ndarray:
        """Observations entering likelihood sums, after the boundary policy."""
        if self.boundary_policy == "exclude_boundary":
            v = self.values
            return v[(v > 0.0) & (v < 1.0)]
        return (self.values * (self.n - 1) + 0.5) / self.n

    @functools.cached_property
    def _likelihood_set(self) -> np.ndarray:
        """likelihood_values, checked for boundary values once per sample."""
        x = self.likelihood_values
        if len(x) == 0:
            raise BoundaryError("likelihood set is empty after the boundary policy")
        if np.any(x <= 0.0) or np.any(x >= 1.0):
            raise BoundaryError("boundary values 0/1 present in the likelihood set")
        x.flags.writeable = False
        return x

    @functools.cached_property
    def _log_x(self) -> np.ndarray:
        """log of the likelihood set, once per sample."""
        return np.log(self._likelihood_set)

    @functools.cached_property
    def _sum_log_x(self) -> float:
        return float(np.sum(self._log_x))

    @functools.cached_property
    def _sum_log1m_x(self) -> float:
        return float(np.sum(np.log1p(-self._likelihood_set)))


def normalize(z, policy: str = "exclude_boundary") -> NormalizedSample:
    """Exact min-max normalization of a raw sample onto [0, 1]."""
    if policy not in BOUNDARY_POLICIES:
        raise ValueError(f"unknown boundary policy {policy!r}")
    arr = np.sort(np.asarray(z, dtype=float))
    if len(arr) < 3:
        raise DegenerateSampleError("need at least 3 observations")
    z_min, z_max = float(arr[0]), float(arr[-1])
    if not z_max > z_min:
        raise DegenerateSampleError("constant sample cannot be normalized")
    values = (arr - z_min) / (z_max - z_min)
    return NormalizedSample(values=values, z_min=z_min, z_max=z_max,
                            n=len(arr), boundary_policy=policy)


def from_unit_values(x, policy: str = "exclude_boundary") -> NormalizedSample:
    """Wrap data already on [0, 1] without rescaling it."""
    if policy not in BOUNDARY_POLICIES:
        raise ValueError(f"unknown boundary policy {policy!r}")
    arr = np.sort(np.asarray(x, dtype=float))
    if len(arr) < 3:
        raise DegenerateSampleError("need at least 3 observations")
    if arr[0] < 0.0 or arr[-1] > 1.0:
        raise ValueError("values must lie in [0, 1]")
    return NormalizedSample(values=arr, z_min=0.0, z_max=1.0,
                            n=len(arr), boundary_policy=policy)


def loglik_wk(sample: NormalizedSample, a: float, b: float, c: float) -> float:
    """Log-likelihood of the weighted Kumaraswamy family."""
    x = sample._likelihood_set
    const = math.log(c) - math.log(b) - float(gammaln(1.0 + c / a) + gammaln(b)
                                              - gammaln(1.0 + c / a + b))
    return (len(x) * const + (c - 1.0) * sample._sum_log_x
            + b * float(np.sum(np.log1p(-x ** a))))


def loglik_kw(sample: NormalizedSample, a: float, b: float) -> float:
    x = sample._likelihood_set
    return (len(x) * (math.log(a) + math.log(b)) + (a - 1.0) * sample._sum_log_x
            + (b - 1.0) * float(np.sum(np.log1p(-x ** a))))


def loglik_beta(sample: NormalizedSample, alpha: float, beta: float) -> float:
    n = len(sample._likelihood_set)
    lbeta = float(gammaln(alpha) + gammaln(beta) - gammaln(alpha + beta))
    return (-n * lbeta + (alpha - 1.0) * sample._sum_log_x
            + (beta - 1.0) * sample._sum_log1m_x)


def _power_sums(sample: NormalizedSample, a: float) -> tuple[float, float]:
    """(Σ log(1 − xᵃ), Σ xᵃ·log x / (1 − xᵃ)), with 1 − xᵃ = −expm1(a·log x)."""
    lx = sample._log_x
    u = a * lx
    one_minus = -np.expm1(u)
    return (float(np.sum(np.log(one_minus))),
            float(np.sum(np.exp(u) * lx / one_minus)))


def score_wk(sample: NormalizedSample, a: float, b: float, c: float) -> np.ndarray:
    """Gradient of loglik_wk in (a, b, c)."""
    n = len(sample._log_x)
    big_l, t = _power_sums(sample, a)
    p = 1.0 + c / a
    psi_pb = digamma(p + b)
    d_psi = digamma(p) - psi_pb
    return np.array([n * c * d_psi / a ** 2 - b * t,
                     n * (psi_pb - digamma(b) - 1.0 / b) + big_l,
                     n * (1.0 / c - d_psi / a) + sample._sum_log_x])


def score_kw(sample: NormalizedSample, a: float, b: float) -> np.ndarray:
    """Gradient of loglik_kw in (a, b)."""
    n = len(sample._log_x)
    big_l, t = _power_sums(sample, a)
    return np.array([n / a + sample._sum_log_x - (b - 1.0) * t, n / b + big_l])


def score_beta(sample: NormalizedSample, alpha: float, beta: float) -> np.ndarray:
    """Gradient of loglik_beta in (alpha, beta)."""
    n = len(sample._likelihood_set)
    psi_ab = digamma(alpha + beta)
    return np.array([-n * (digamma(alpha) - psi_ab) + sample._sum_log_x,
                     -n * (digamma(beta) - psi_ab) + sample._sum_log1m_x])


_LOGLIK: dict[str, Callable] = {"beta": loglik_beta, "kw": loglik_kw, "wk": loglik_wk}
_SCORE: dict[str, Callable] = {"beta": score_beta, "kw": score_kw, "wk": score_wk}


@dataclass(frozen=True)
class FitResult:
    model: str
    params: dict[str, float]
    loglik: float
    aic: float
    bic: float
    rmse: float
    optimizer: OptimizeResult
    starts_tried: int
    starts_failed: int  # raised ValueError or ended non-finite
    boundary_policy: str

    def handle(self) -> DistributionHandle:
        return make_catalog(_CATALOG_NAME[self.model], dict(self.params))


def rmse_metric(sample: NormalizedSample, fitted: DistributionHandle,
                bins: int = 10) -> float:
    """RMS difference between equal-width histogram density heights on [0,1]
    and the fitted pdf at the bin midpoints."""
    if bins < 2:
        raise ValueError("bins must be at least 2")
    heights, edges = np.histogram(sample.values, bins=bins, range=(0.0, 1.0),
                                  density=True)
    mids = 0.5 * (edges[:-1] + edges[1:])
    model = np.asarray(fitted.pdf(mids), dtype=float)
    return float(np.sqrt(np.mean((heights - model) ** 2)))


def _moment_start(sample: NormalizedSample, model: str) -> np.ndarray:
    x = sample.likelihood_values
    m, v = float(np.mean(x)), max(float(np.var(x)), 1e-6)
    common = max(m * (1.0 - m) / v - 1.0, 1e-2)
    alpha = max(m * common, PARAM_BOUNDS[0])
    beta = max((1.0 - m) * common, PARAM_BOUNDS[0])
    start = [alpha, beta] if model in ("beta", "kw") else [alpha, beta, alpha]
    return np.clip(np.asarray(start, dtype=float), *PARAM_BOUNDS)


def fit_mle(sample: NormalizedSample, model: str, starts: int = 16,
            seed: int = 42) -> FitResult:
    """Multi-start bounded minimization of the negative log-likelihood."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; known: {', '.join(MODELS)}")
    if starts < 1:
        raise ValueError("starts must be at least 1")
    names = MODELS[model]
    k = len(names)
    loglik, score = _LOGLIK[model], _SCORE[model]
    bounds = [PARAM_BOUNDS] * k

    def objective(theta):
        try:
            return -loglik(sample, *[float(t) for t in theta])
        except (ValueError, OverflowError):
            return math.inf

    def gradient(theta):
        return -score(sample, *[float(t) for t in theta])

    rng = np.random.default_rng(seed)
    start_points = [_moment_start(sample, model), np.ones(k)]
    # random starts stay near the unit scale where bounded densities live
    for _ in range(max(starts - len(start_points), 0)):
        start_points.append(np.exp(rng.uniform(math.log(0.2), math.log(50.0), size=k)))
    start_points = start_points[:max(starts, 1)]

    best: Optional[OptimizeResult] = None
    failed = 0
    for point in start_points:
        try:
            res = minimize_bounded(objective, gradient, point, bounds)
        except ValueError:  # start outside the box or non-finite there
            failed += 1
            continue
        if not math.isfinite(res.objective):
            failed += 1
            continue
        if best is None or res.objective < best.objective - 1e-12:
            best = res
    if best is None:
        raise FitError(f"all {len(start_points)} starts failed for model {model!r} "
                       f"(n={sample.n}, policy={sample.boundary_policy})")
    try:  # polish from the winning start
        polish = minimize_bounded(objective, gradient, best.argmin, bounds)
        if math.isfinite(polish.objective) and polish.objective <= best.objective:
            best = polish
    except ValueError:
        pass
    # convergence judged relative to the objective scale
    tol_eff = 1e-4 * (1.0 + abs(best.objective))
    best = dataclasses.replace(best, converged=best.gradient_norm <= tol_eff)

    params = {name: float(v) for name, v in zip(names, best.argmin)}
    ll = -best.objective
    n_lik = len(sample.likelihood_values)
    fitted = make_catalog(_CATALOG_NAME[model], params)
    return FitResult(model=model, params=params, loglik=ll,
                     aic=2.0 * k - 2.0 * ll, bic=k * math.log(n_lik) - 2.0 * ll,
                     rmse=rmse_metric(sample, fitted),
                     optimizer=best, starts_tried=len(start_points),
                     starts_failed=failed,
                     boundary_policy=sample.boundary_policy)
