"""Maximum-likelihood fitting of bounded-support models to normalized data.

Supports the two-parameter beta and Kumaraswamy families plus the
three-parameter weighted Kumaraswamy family (WK). One evaluator, _terms,
gives each log-likelihood with its gradient and Hessian, 1 − xᵃ as
−expm1(a·log x); loglik_*, score_*, the refinement and fit_mle read it.
Through the Beta link (under WK(a, b, c), X^a ~ Beta(c/a, b+1); under
Kumaraswamy(a, b), X^a ~ Beta(1, b); the beta model is the link at a = 1)
the log-likelihood at fixed a depends on the data through a·Σ log x and
Σ log(1 − xᵃ) alone and is concave in the two beta shapes, so Newton steps
solve it, and the Kumaraswamy b is n / |Σ log(1 − xᵃ)|. This profile over
log a is scanned on a grid, and its highest peaks are refined by one batched
projected-Newton solve in (log a, b[, c]) jointly. fit_models solves every
two-parameter problem in one batch: the beta model's Beta-link problem, the
WK scan's and the Kumaraswamy refine. The WK fit also starts from the
Kumaraswamy optimum it nests, fitted once per fit_models call. Also AIC/BIC
and a histogram-based RMSE metric.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .distributions import DistributionHandle, make_catalog
from .numerics import OptimizeResult, WtrvError, _sc, minimize_bounded, projected_gradient


class DegenerateSampleError(ValueError):
    """Sample cannot be normalized or has no variation."""


class BoundaryError(ValueError):
    """The likelihood set is empty after the boundary policy."""


class FitError(WtrvError):
    """No optimizer start produced a finite optimum."""


BOUNDARY_POLICIES = ("exclude_boundary", "shrink")
PARAM_BOUNDS = (1e-3, 1e3)
_RMSE_BINS = 10
# the profile over s = log a is scanned on this grid, then refined
_SCAN = np.linspace(math.log(PARAM_BOUNDS[0]), math.log(PARAM_BOUNDS[1]), 49)

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
    boundary_policy: str = "exclude_boundary"

    @property
    def n(self) -> int:
        return len(self.values)

    @functools.cached_property
    def likelihood_values(self) -> np.ndarray:
        """Observations entering likelihood sums, after the boundary policy,
        built once per sample, read-only: exclude_boundary keeps the values
        in (0, 1), and shrink maps [0, 1] into [0.5/n, 1 − 0.5/n]. Raises
        BoundaryError when the set is empty."""
        v = self.values
        if self.boundary_policy == "exclude_boundary":
            x = v[(v > 0.0) & (v < 1.0)]
        else:
            x = (v * (self.n - 1) + 0.5) / self.n
        if len(x) == 0:
            raise BoundaryError("likelihood set is empty after the boundary policy")
        x.flags.writeable = False
        return x

    @functools.cached_property
    def _log_x(self) -> np.ndarray:
        """log of the likelihood set, once per sample."""
        return np.log(self.likelihood_values)

    @functools.cached_property
    def _log1m_scan(self) -> np.ndarray:
        """Σ log(1 − xᵃ) at each a = e^s of _SCAN, with 1 − xᵃ = −expm1(a·log x),
        once per sample: the kw scan and the wk scan's Beta-link problems read it."""
        return np.log(-np.expm1(np.multiply.outer(np.exp(_SCAN), self._log_x))).sum(-1)

    @functools.cached_property
    def _sum_log_x(self) -> float:
        return float(np.sum(self._log_x))

    @functools.cached_property
    def _sum_log1m_x(self) -> float:
        return float(np.sum(np.log1p(-self.likelihood_values)))

    @functools.cached_property
    def _histogram(self) -> tuple:
        """rmse_metric's _RMSE_BINS equal-width density heights on [0, 1]
        and bin midpoints."""
        heights, edges = np.histogram(self.values, bins=_RMSE_BINS, range=(0.0, 1.0),
                                      density=True)
        return heights, 0.5 * (edges[:-1] + edges[1:])


def _sorted(z, policy: str) -> np.ndarray:
    """z as sorted floats, after the checks normalize and from_unit_values share."""
    if policy not in BOUNDARY_POLICIES:
        raise ValueError(f"unknown boundary policy {policy!r}")
    arr = np.sort(np.asarray(z, dtype=float))
    if len(arr) < 3:
        raise DegenerateSampleError("need at least 3 observations")
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise ValueError(f"sample holds a non-finite value: {bad[0]}")
    return arr


def normalize(z, policy: str = "exclude_boundary") -> NormalizedSample:
    """Exact min-max normalization of a raw sample onto [0, 1]."""
    arr = _sorted(z, policy)
    z_min, z_max = float(arr[0]), float(arr[-1])
    if not z_max > z_min:
        raise DegenerateSampleError("constant sample cannot be normalized")
    return NormalizedSample(values=(arr - z_min) / (z_max - z_min), z_min=z_min,
                            z_max=z_max, boundary_policy=policy)


def from_unit_values(x, policy: str = "exclude_boundary") -> NormalizedSample:
    """Wrap data already on [0, 1] without rescaling it."""
    arr = _sorted(x, policy)
    if arr[0] < 0.0 or arr[-1] > 1.0:
        raise ValueError("values must lie in [0, 1]")
    return NormalizedSample(values=arr, boundary_policy=policy)


def _power_sums(sample: NormalizedSample, a):
    """Σ log(1 − xᵃ), Σ xᵃ·log x / (1 − xᵃ) and Σ xᵃ·log²x / (1 − xᵃ)² for
    each a, with 1 − xᵃ = −expm1(a·log x)."""
    lx = sample._log_x
    u = np.multiply.outer(a, lx)
    one_minus = -np.expm1(u)
    w = lx / one_minus
    r = np.exp(u) * w
    return np.log(one_minus).sum(-1), r.sum(-1), (r * w).sum(-1)


def _beta_terms(n: int, s1, s2, p, q) -> tuple:
    """(p − 1)·s1 + (q − 1)·s2 − n·log B(p, q), the beta log-likelihood on
    the sufficient statistics s1 = Σ log y, s2 = Σ log(1 − y), with its
    gradient and Hessian in (p, q). It is concave in (p, q)."""
    shapes = np.array([p, q, p + q])
    psi_p, psi_q, psi_pq = _sc.digamma(shapes)
    tri_p, tri_q, tri_pq = _sc.zeta(2.0, shapes)
    value = (p - 1.0) * s1 + (q - 1.0) * s2 - n * _sc.betaln(p, q)
    grad = np.array([s1 - n * (psi_p - psi_pq), s2 - n * (psi_q - psi_pq)])
    hess = -n * np.array([[tri_p - tri_pq, -tri_pq], [-tri_pq, tri_q - tri_pq]])
    return value, grad, hess


def _terms(sample: NormalizedSample, model: str, theta) -> tuple:
    """Log-likelihood of `model` at θ in its natural parameters, (alpha, beta),
    (a, b) or (a, b, c), with its gradient and Hessian in θ; each coordinate
    a scalar or an array over m problems. Beta is _beta_terms on Σ log x and
    Σ log(1 − x); kw and wk read _power_sums, so 1 − xᵃ is −expm1(a·log x)."""
    n, sx = len(sample._log_x), sample._sum_log_x
    if model == "beta":
        return _beta_terms(n, sx, sample._sum_log1m_x, *theta)
    a, b = theta[0], theta[1]
    big_l, t, v = _power_sums(sample, a)
    if model == "kw":
        value = n * np.log(a * b) + (a - 1.0) * sx + (b - 1.0) * big_l
        grad = np.array([n / a + sx - (b - 1.0) * t, n / b + big_l])
        hess = np.array([[-n / a ** 2 - (b - 1.0) * v, -t], [-t, -n / b ** 2]])
        return value, grad, hess
    c = theta[2]
    p = c / a
    shapes = np.array([1.0 + p + b, 1.0 + p, b])
    psi_pb, psi_p, psi_b = _sc.digamma(shapes)
    tri_pb, tri_p, tri_b = _sc.zeta(2.0, shapes)
    d, d1 = psi_p - psi_pb, tri_p - tri_pb
    ab, bc = -n * p * tri_pb / a - t, n * tri_pb / a
    ac = n * (d + p * d1) / a ** 2
    value = n * (np.log(c / b) - _sc.betaln(1.0 + p, b)) + (c - 1.0) * sx + b * big_l
    grad = np.array([n * p * d / a - b * t,
                     n * (psi_pb - psi_b - 1.0 / b) + big_l,
                     n * (1.0 / c - d / a) + sx])
    hess = np.array([[-n * p * (p * d1 + 2.0 * d) / a ** 2 - b * v, ab, ac],
                     [ab, n * (tri_pb - tri_b + 1.0 / b ** 2), bc],
                     [ac, bc, -n * (1.0 / c ** 2 + d1 / a ** 2)]])
    return value, grad, hess


def _checked_terms(model: str, sample: NormalizedSample, theta) -> tuple:
    """_terms at θ, after raising ValueError for a parameter that is not
    positive and finite, where the likelihood is undefined."""
    for name, value in zip(MODELS[model], theta):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return _terms(sample, model, theta)


def loglik_wk(sample: NormalizedSample, a: float, b: float, c: float) -> float:
    """Log-likelihood of the weighted Kumaraswamy family."""
    return float(_checked_terms("wk", sample, (a, b, c))[0])


def loglik_kw(sample: NormalizedSample, a: float, b: float) -> float:
    return float(_checked_terms("kw", sample, (a, b))[0])


def loglik_beta(sample: NormalizedSample, alpha: float, beta: float) -> float:
    return float(_checked_terms("beta", sample, (alpha, beta))[0])


def score_wk(sample: NormalizedSample, a: float, b: float, c: float) -> np.ndarray:
    """Gradient of loglik_wk in (a, b, c)."""
    return _checked_terms("wk", sample, (a, b, c))[1]


def score_kw(sample: NormalizedSample, a: float, b: float) -> np.ndarray:
    """Gradient of loglik_kw in (a, b)."""
    return _checked_terms("kw", sample, (a, b))[1]


def score_beta(sample: NormalizedSample, alpha: float, beta: float) -> np.ndarray:
    """Gradient of loglik_beta in (alpha, beta)."""
    return _checked_terms("beta", sample, (alpha, beta))[1]


# _LOGLIK[model](sample, θ) is _checked_terms' triple; _fit_one reads it at the fitted θ
_LOGLIK: dict[str, Callable] = {model: functools.partial(_checked_terms, model)
                                for model in MODELS}


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
    starts_failed: int  # ended non-finite, or wk's nested start when the kw fit failed
    boundary_policy: str
    law: DistributionHandle = field(repr=False, compare=False)  # the fitted law


def rmse_metric(sample: NormalizedSample, fitted: DistributionHandle) -> float:
    """RMS difference between _RMSE_BINS equal-width histogram density
    heights on [0,1] and the fitted pdf at the bin midpoints. The histogram
    is built once per sample."""
    heights, mids = sample._histogram
    return float(np.sqrt(np.mean((heights - fitted.pdf(mids)) ** 2)))


def _beta_start(n: int, s1, s2, scale, shift) -> np.ndarray:
    """Start of a Beta-link problem of _solve_pairs: of five closed-form approximations to the beta
    shapes (p, q) from the mean logs m1 = s1/n of y and m2 = s2/n of 1 − y,
    the one with the highest likelihood, as θ = (p·scale, q − shift) clipped
    to the box. With G = e^m and ψ(x) ≈ log(x − 1/2) they are
    - interior: p, q = 1/2 + G1, G2 over 2·(1 − G1 − G2);
    - q on its upper face Q: p = 1/2 + Q·G1/(1 − G1), or, for p ≪ Q, p from
      ψ(p) = m1 + ψ(Q) by Minka's inverse-digamma start;
    - p on its upper face P: q = 1/2 + P·G2/(1 − G2);
    - large q, where q·y is Gamma(p): log p − ψ(p) = log(−m2) − m1 by
      Minka's closed form, and q = p/(−m2).
    Newton reaches a face only by doubling its distance each step, so the
    face candidates matter where the optimum lies there: at large a in the
    WK scan, where xᵃ underflows, and for a single observation."""
    m1, m2 = np.divide(s1, n), np.divide(s2, n)
    g1, g2 = np.exp(m1), np.exp(m2)
    p_face, q_face = PARAM_BOUNDS[1] / scale, PARAM_BOUNDS[1] + shift
    psi = m1 + _sc.digamma(q_face)
    with np.errstate(all="ignore"):
        gap = -np.expm1(m2) - g1  # 1 − G1 − G2 ≥ 0 by AM–GM
        r = np.log(-m2) - m1
        p_gamma = (3.0 - r + np.sqrt((r - 3.0) ** 2 + 24.0 * r)) / (12.0 * r)
        pq = np.array(np.broadcast_arrays(  # the five (p, q) above, in order
            0.5 + g1 / (2.0 * gap), 0.5 + q_face * g1 / -np.expm1(m1),
            np.where(psi >= -2.22, np.exp(psi) + 0.5, -1.0 / (psi + np.euler_gamma)),
            p_face, p_gamma,
            0.5 + g2 / (2.0 * gap), q_face, q_face,
            0.5 + p_face * g2 / -np.expm1(m2), p_gamma / -m2))
        p, q = pq.reshape(2, 5, *pq.shape[1:])
        theta = np.clip(np.array([p * scale, q - shift]), *PARAM_BOUNDS)
        p, q = theta[0] / scale, theta[1] + shift
        value = (p - 1.0) * s1 + (q - 1.0) * s2 - n * _sc.betaln(p, q)
    best = np.argmax(np.where(np.isnan(value), -np.inf, value), axis=0)
    return np.take_along_axis(theta, best[None, None], axis=1)[:, 0]


def _kw_profile(sample: NormalizedSample) -> tuple:
    """loglik_kw on _SCAN maximised over b at each a = e^s, b = n / |Σ log(1 − xᵃ)|
    clipped to the box: values and b as a (1, m) array."""
    n = len(sample._log_x)
    a = np.exp(_SCAN)
    big_l = sample._log1m_scan
    with np.errstate(divide="ignore"):
        b = np.clip(n / np.abs(big_l), *PARAM_BOUNDS)  # Σ log(1 − xᵃ) ≤ 0, 0 once xᵃ underflows
    return n * np.log(a * b) + (a - 1.0) * sample._sum_log_x + (b - 1.0) * big_l, b[None]


def _link_problems(sample: NormalizedSample, model: str) -> np.ndarray:
    """(s1, s2, scale, shift) of each Beta-link problem of `model`, one
    column each: the beta model's own, or WK's at each a = e^s of _SCAN,
    X^a ~ Beta(c/a, b + 1)."""
    sx = sample._sum_log_x
    if model == "beta":
        return np.array([[sx], [sample._sum_log1m_x], [1.0], [0.0]])
    a = np.exp(_SCAN)
    return np.array([a * sx, sample._log1m_scan, a, np.ones_like(a)])


def _boxed(theta0: np.ndarray, s_lo, s_hi) -> np.ndarray:
    """(θ0, lo, hi) of starts θ0 of shape (k, m): the first coordinate
    within [s_lo, s_hi], the others in the box."""
    lo, hi = np.full_like(theta0, PARAM_BOUNDS[0]), np.full_like(theta0, PARAM_BOUNDS[1])
    lo[0], hi[0] = s_lo, s_hi
    return np.array([theta0, lo, hi])


def _peak_starts(values: np.ndarray, inner: np.ndarray, starts: int) -> np.ndarray:
    """_boxed refine starts (s, inner) at the `starts` highest local maxima
    of a profile scanned on _SCAN, each s between its two grid neighbours."""
    v = np.where(np.isfinite(values), values, -np.inf)
    left, right = np.append(-np.inf, v[:-1]), np.append(v[1:], -np.inf)
    idx = np.nonzero((v > left) & (v >= right))[0]
    peaks = idx[np.argsort(-v[idx], kind="stable")][:starts]
    last = len(_SCAN) - 1
    return _boxed(np.vstack([_SCAN[peaks], inner[:, peaks]]),
                  _SCAN[np.maximum(peaks - 1, 0)], _SCAN[np.minimum(peaks + 1, last)])


def _solve_pairs(sample: NormalizedSample, problems: dict) -> dict:
    """{model: (objective, argmin, steps)} of the two-parameter problems in
    `problems`, solved by one minimize_bounded batch whose steps every entry
    counts. They are the Beta-link problems of beta and wk, (s1, s2, scale,
    shift) from _link_problems, maximising _beta_terms in θ = (p·scale,
    q − shift) to the rounding floor (tol 0), and kw's refine starts, from
    _peak_starts, maximising the kw log-likelihood in (log a, b) until the
    gradient is below 1e-8 per observation. The link problems share one
    _beta_terms evaluation. No column's arithmetic reads another's, so each
    entry is its model's solve alone, steps aside; a column whose objective
    is not finite at its start ends there, non-finite, and fails alone."""
    if not problems:
        return {}
    n = len(sample._log_x)
    link_models = [model for model in problems if model != "kw"]
    order = link_models + ["kw"] * ("kw" in problems)  # the link columns first
    edges = np.cumsum([0] + [np.shape(problems[model])[-1] for model in order])
    n_link = edges[len(link_models)]
    parts = []  # (objective, columns, (θ0, lo, hi)) of the link columns, then of kw's
    if link_models:
        s1, s2, scale, shift = np.hstack([problems[model] for model in link_models])
        jac = np.array(np.broadcast_arrays(1.0 / scale, 1.0))

        def links(theta):
            value, grad, hess = _beta_terms(n, s1, s2, theta[0] / scale, theta[1] + shift)
            return -value, -grad * jac, -hess * jac[:, None] * jac[None]

        parts.append((links, slice(0, n_link),
                      _boxed(_beta_start(n, s1, s2, scale, shift), *PARAM_BOUNDS)))
    if "kw" in problems:
        parts.append((functools.partial(_joint, sample, "kw"), slice(n_link, None), problems["kw"]))
    theta0, lo, hi = (np.hstack(v) for v in zip(*(box for _, _, box in parts)))

    def stacked(theta):
        out = [f(theta[:, span]) for f, span, _ in parts]
        return tuple(np.concatenate(v, axis=-1) for v in zip(*out))

    res = minimize_bounded(stacked, theta0, lo, hi,
                           tol=np.where(np.arange(edges[-1]) < n_link, 0.0, 1e-8 * n))
    cuts = edges[1:-1]
    return {model: (objective, argmin, res.iterations) for model, objective, argmin
            in zip(order, np.split(res.objective, cuts), np.split(res.argmin, cuts, axis=1))}


def _wk_profile(sample: NormalizedSample, link: tuple) -> tuple:
    """loglik_wk on _SCAN maximised over (b, c) at each a = e^s, from the
    solved Beta-link problems of _link_problems(sample, "wk"): values and the
    (b, c) optimum as a (2, m) array."""
    n, sx = len(sample._log_x), sample._sum_log_x
    a = np.exp(_SCAN)
    objective, argmin, _ = link
    return n * np.log(a) + (a - 1.0) * sx - objective, argmin[::-1]


def _joint(sample: NormalizedSample, model: str, theta: np.ndarray) -> tuple:
    """−_terms of kw at (e^s, b) or of wk at (e^s, b, c), for θ = (s, b[, c])
    of shape (k, m), with its gradient and Hessian in θ: by the chain rule
    through a = e^s, g_s = a·g_a, H_ss = a²·H_aa + a·g_a and H_s· = a·H_a·."""
    a = np.exp(theta[0])
    value, grad, hess = _terms(sample, model, (a, *theta[1:]))
    grad[0] *= a
    hess[0] *= a
    hess[:, 0] *= a
    hess[0, 0] += grad[0]
    return -value, -grad, -hess


def _refine_wk(sample: NormalizedSample, box: np.ndarray):
    """Projected Newton ascent of the wk log-likelihood in θ = (s, b, c) from
    the _boxed starts `box`, until the gradient is below 1e-8 per
    observation: (objective, argmin, steps). No starts take no steps."""
    if not box.shape[-1]:  # a scan with no finite peak
        return np.empty(0), box[0], 0
    res = minimize_bounded(functools.partial(_joint, sample, "wk"), *box,
                           tol=1e-8 * len(sample._log_x))
    return res.objective, res.argmin, res.iterations


def _fit_profile(sample: NormalizedSample, model: str, solved, kw=None) -> tuple:
    """The best solved start of a model, from `solved`, the (objective,
    argmin, steps) of its solve, one column per start: the column with the
    highest finite log-likelihood. A column that is not finite is a failed
    start. WK(a, b − 1, a) is Kw(a, b), so when b − 1 is in the box and no
    wk peak ends at or above the kw optimum, wk is also refined from kw,
    the call's kw fit, over the whole box: the wk fit never ends below a kw
    fit it nests. That nested start counts as tried, and as failed when kw
    is the FitError the kw fit raised. Returns (params, value, starts tried,
    starts failed, Newton steps), with a = e^s for kw and wk; raises
    FitError when every start failed."""
    objective, theta, steps = solved
    tried, failed = objective.size, 0
    if model == "wk":
        tried += 1
        if isinstance(kw, FitError):
            failed += 1
        else:
            (a, b), kw_value = kw[:2]
            nested = PARAM_BOUNDS[0] <= b - 1.0 <= PARAM_BOUNDS[1]
            if nested and not np.any(np.isfinite(objective) & (-objective >= kw_value)):
                box = _boxed(np.array([[math.log(a)], [b - 1.0], [a]]), _SCAN[:1], _SCAN[-1:])
                more, theta_more, more_steps = _refine_wk(sample, box)
                objective, theta = np.append(objective, more), np.hstack([theta, theta_more])
                steps += more_steps
    ok = np.isfinite(objective)
    failed += int(np.sum(~ok))
    if not ok.any():
        raise FitError(f"all {tried} starts failed for model {model!r} "
                       f"(n={sample.n}, policy={sample.boundary_policy})")
    best = int(np.argmax(np.where(ok, -objective, -np.inf)))
    params = [float(v) for v in theta[:, best]]
    if model != "beta":  # s = log a, with a exactly on a face at the scan's ends
        s = params[0]
        params[0] = (PARAM_BOUNDS[1] if s >= _SCAN[-1] else PARAM_BOUNDS[0] if s <= _SCAN[0]
                     else math.exp(s))
    return tuple(params), -objective[best], tried, failed, steps


def fit_models(sample: NormalizedSample, models: Sequence[str],
               starts: int = 16) -> dict[str, FitResult]:
    """Maximum-likelihood fits of each of `models` to one sample, by profile
    likelihood through the Beta link, as {model: FitResult} in that order.

    beta is one Newton solve of a concave problem. For kw and wk the profile
    over s = log a is scanned on a grid over the box, and its `starts`
    highest peaks are refined by projected Newton steps in (s, b[, c])
    jointly. wk is also refined from the kw optimum it nests, so a call
    with wk fits kw too, once for both. Every two-parameter problem is
    solved in one batch, whose steps the beta and kw results' iterations
    count: the beta problem, the 49 Beta-link problems of the wk scan and
    the kw refine. The wk refine is a second solve. A start whose objective
    is not finite where it starts fails alone, and the model's other starts
    are solved as they would be without it. A model whose starts all fail
    raises FitError as it would alone, the first such model in order.
    Newton steps read _terms; the reported log-likelihood and the
    convergence test read one _LOGLIK evaluation at the fitted θ.
    """
    for model in models:
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}; known: {', '.join(MODELS)}")
    if starts < 1:
        raise ValueError("starts must be at least 1")
    problems = {model: _link_problems(sample, model) for model in models if model != "kw"}
    if "kw" in models or "wk" in models:
        problems["kw"] = _peak_starts(*_kw_profile(sample), starts)
    solved = _solve_pairs(sample, problems)
    kw = None
    if "kw" in solved:
        try:
            kw = _fit_profile(sample, "kw", solved.pop("kw"))
        except FitError as exc:
            kw = exc
    return {model: _fit_one(sample, model, starts, solved.get(model), kw)
            for model in models}


def fit_mle(sample: NormalizedSample, model: str, starts: int = 16) -> FitResult:
    """fit_models for one model."""
    return fit_models(sample, (model,), starts)[model]


def _fit_one(sample: NormalizedSample, model: str, starts: int, link, kw) -> FitResult:
    """fit_models' fit of one model, given its Beta-link entry of
    _solve_pairs and the call's kw fit, or the FitError it raised. The
    log-likelihood and the projected gradient come from one _LOGLIK call at
    the fitted θ; the law built for the RMSE is the result's law."""
    names = MODELS[model]
    k = len(names)
    if model == "kw" and isinstance(kw, FitError):
        raise kw
    if model == "wk":
        link = _refine_wk(sample, _peak_starts(*_wk_profile(sample, link), starts))
    theta, _, tried, failed, steps = kw if model == "kw" else _fit_profile(sample, model, link, kw)
    theta = np.array(theta, dtype=float)
    value, grad, _ = _LOGLIK[model](sample, theta)
    ll = float(value)
    lo, hi = np.full(k, PARAM_BOUNDS[0]), np.full(k, PARAM_BOUNDS[1])
    norm = float(np.max(np.abs(projected_gradient(-grad, theta, lo, hi))))
    # convergence judged relative to the objective scale
    optimizer = OptimizeResult(argmin=theta, objective=-ll, gradient_norm=norm,
                               iterations=steps, converged=bool(norm <= 1e-4 * (1.0 + abs(ll))))
    params = {name: float(v) for name, v in zip(names, theta)}
    fitted = make_catalog(_CATALOG_NAME[model], params)
    return FitResult(model=model, params=params, loglik=ll, aic=2.0 * k - 2.0 * ll,
                     bic=k * math.log(len(sample.likelihood_values)) - 2.0 * ll,
                     rmse=rmse_metric(sample, fitted),
                     optimizer=optimizer, starts_tried=tried,
                     starts_failed=failed,
                     boundary_policy=sample.boundary_policy, law=fitted)
