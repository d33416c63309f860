"""Base-distribution abstraction and the catalog of input families.

Every handle exposes vectorized pdf/cdf/sf/quantile plus support metadata.
Parameterizations follow the survival-function forms used throughout the
construction engine, e.g. Weibull sf = exp(-(x/beta)^alpha) and Lomax-style
Pareto sf = (1+x)^(-alpha).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .numerics import Interval, _sc, scalar_or_array
from .numerics import brent_root, incomplete_beta_upper  # noqa: F401 (re-exported)


class CatalogError(ValueError):
    """Unknown family name or parameter set."""


@dataclass(frozen=True)
class DistributionHandle:
    name: str
    params: dict[str, float]
    support: Interval
    pdf: Callable = field(repr=False)
    cdf: Callable = field(repr=False)
    sf: Callable = field(repr=False)
    quantile: Callable = field(repr=False)

    def describe(self) -> str:
        args = ",".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.name}({args})"


def _masked(support: Interval, inside: Callable, below: float, above: float) -> Callable:
    lo, hi = support.lo, support.hi

    @scalar_or_array
    def fn(x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(x <= lo, below, np.where(x >= hi, above,
                            inside(np.clip(x, lo, hi))))

    return fn


def _inverse(support: Interval, inside: Callable) -> Callable:
    @scalar_or_array
    def fn(u):
        out = np.where(u <= 0.0, support.lo, np.where(u >= 1.0, support.hi, np.nan))
        inner = (u > 0.0) & (u < 1.0)
        out[inner] = inside(u[inner])
        return out

    return fn


def _handle(name, params, support, pdf, cdf, sf, quantile, cls=DistributionHandle, **fields):
    """Build a distribution handle; every handle is made here. The
    vectorized functions given need only be right inside the support: pdf,
    cdf and sf take their edge values at and beyond it, the quantile gives
    the support's ends at u <= 0 and u >= 1 and runs only on u in (0, 1),
    and a scalar in gives a float out. A subclass cls receives its extra
    fields."""
    return cls(
        name=name, params=dict(params), support=support,
        pdf=_masked(support, pdf, 0.0, 0.0), cdf=_masked(support, cdf, 0.0, 1.0),
        sf=_masked(support, sf, 1.0, 0.0), quantile=_inverse(support, quantile), **fields)


def _require_positive(params: dict[str, float], *names: str) -> None:
    for n in names:
        if not 0 < params.get(n, 0.0) < math.inf:
            raise CatalogError(f"parameter {n!r} must be finite and positive, "
                               f"got {params.get(n)}")


def _exponential(lam: float) -> DistributionHandle:
    sup = Interval(0.0, math.inf)
    return _handle(
        "exponential", {"lambda": lam}, sup,
        pdf=lambda x: lam * np.exp(-lam * x),
        cdf=lambda x: -np.expm1(-lam * x),
        sf=lambda x: np.exp(-lam * x),
        quantile=lambda u: -np.log1p(-u) / lam,
    )


def _gamma(k: float, lam: float) -> DistributionHandle:
    sup = Interval(0.0, math.inf)
    lg = _sc.gammaln(k)
    return _handle(
        "gamma", {"k": k, "lambda": lam}, sup,
        pdf=lambda x: np.exp(k * np.log(lam) + (k - 1) * np.log(x) - lam * x - lg),
        cdf=lambda x: _sc.gammainc(k, lam * x),
        sf=lambda x: _sc.gammaincc(k, lam * x),
        quantile=lambda u: _sc.gammaincinv(k, u) / lam,
    )


def _weibull(alpha: float, beta: float) -> DistributionHandle:
    sup = Interval(0.0, math.inf)
    return _handle(
        "weibull", {"alpha": alpha, "beta": beta}, sup,
        pdf=lambda x: (alpha / beta) * (x / beta) ** (alpha - 1) * np.exp(-((x / beta) ** alpha)),
        cdf=lambda x: -np.expm1(-((x / beta) ** alpha)),
        sf=lambda x: np.exp(-((x / beta) ** alpha)),
        quantile=lambda u: beta * (-np.log1p(-u)) ** (1.0 / alpha),
    )


def _rayleigh(sigma: float) -> DistributionHandle:
    sup = Interval(0.0, math.inf)
    s2 = sigma * sigma
    return _handle(
        "rayleigh", {"sigma": sigma}, sup,
        pdf=lambda x: (x / s2) * np.exp(-x * x / (2 * s2)),
        cdf=lambda x: -np.expm1(-x * x / (2 * s2)),
        sf=lambda x: np.exp(-x * x / (2 * s2)),
        quantile=lambda u: sigma * np.sqrt(-2.0 * np.log1p(-u)),
    )


def _half_normal(sigma: float) -> DistributionHandle:
    sup = Interval(0.0, math.inf)
    c = math.sqrt(2.0 / math.pi) / sigma
    rt2 = math.sqrt(2.0)
    return _handle(
        "half_normal", {"sigma": sigma}, sup,
        pdf=lambda x: c * np.exp(-x * x / (2 * sigma * sigma)),
        cdf=lambda x: _sc.erf(x / (sigma * rt2)),
        sf=lambda x: _sc.erfc(x / (sigma * rt2)),
        quantile=lambda u: sigma * rt2 * _sc.erfinv(u),
    )


def _generalized_gamma(p: float, a: float, d: float) -> DistributionHandle:
    sup = Interval(0.0, math.inf)
    lg = _sc.gammaln(d / p)
    return _handle(
        "generalized_gamma", {"p": p, "a": a, "d": d}, sup,
        pdf=lambda x: np.exp(np.log(p) + (d - 1) * np.log(x) - (x / a) ** p
                             - d * np.log(a) - lg),
        cdf=lambda x: _sc.gammainc(d / p, (x / a) ** p),
        sf=lambda x: _sc.gammaincc(d / p, (x / a) ** p),
        quantile=lambda u: a * _sc.gammaincinv(d / p, u) ** (1.0 / p),
    )


def _burr12(c: float, k: float) -> DistributionHandle:
    sup = Interval(0.0, math.inf)
    return _handle(
        "burr12", {"c": c, "k": k}, sup,
        pdf=lambda x: c * k * x ** (c - 1) * (1 + x ** c) ** (-(k + 1)),
        cdf=lambda x: 1.0 - (1 + x ** c) ** (-k),
        sf=lambda x: (1 + x ** c) ** (-k),
        quantile=lambda u: np.expm1(-np.log1p(-u) / k) ** (1.0 / c),
    )


def _pareto_lomax(alpha: float) -> DistributionHandle:
    sup = Interval(0.0, math.inf)
    return _handle(
        "pareto_lomax", {"alpha": alpha}, sup,
        pdf=lambda x: alpha * (1 + x) ** (-(alpha + 1)),
        cdf=lambda x: 1.0 - (1 + x) ** (-alpha),
        sf=lambda x: (1 + x) ** (-alpha),
        quantile=lambda u: np.expm1(-np.log1p(-u) / alpha),
    )


def _uniform() -> DistributionHandle:
    sup = Interval(0.0, 1.0)
    return _handle(
        "uniform", {}, sup,
        pdf=lambda x: np.ones_like(x),
        cdf=lambda x: x,
        sf=lambda x: 1.0 - x,
        quantile=lambda u: u,
    )


def _beta(alpha: float, beta: float) -> DistributionHandle:
    sup = Interval(0.0, 1.0)
    lb = _sc.betaln(alpha, beta)
    return _handle(
        "beta", {"alpha": alpha, "beta": beta}, sup,
        pdf=lambda x: np.exp((alpha - 1) * np.log(x) + (beta - 1) * np.log1p(-x) - lb),
        cdf=lambda x: _sc.betainc(alpha, beta, x),
        sf=lambda x: _sc.betaincc(alpha, beta, x),
        quantile=lambda u: _sc.betaincinv(alpha, beta, u),
    )


def _kumaraswamy(a: float, b: float) -> DistributionHandle:
    sup = Interval(0.0, 1.0)
    return _handle(
        "kumaraswamy", {"a": a, "b": b}, sup,
        pdf=lambda x: a * b * x ** (a - 1) * (1 - x ** a) ** (b - 1),
        cdf=lambda x: 1.0 - (1 - x ** a) ** b,
        sf=lambda x: (1 - x ** a) ** b,
        quantile=lambda u: (-np.expm1(np.log1p(-u) / b)) ** (1.0 / a),
    )


def _weighted_kumaraswamy(a: float, b: float, c: float) -> DistributionHandle:
    # Beta link: X^a ~ Beta(c/a, b+1). The pdf c x^(c-1) (1-x^a)^b / (b B(1+c/a, b))
    # in logs, whose factors under- and overflow apart at the fit's box corners
    log_c, log_norm = math.log(c), math.log(b) + _sc.betaln(1.0 + c / a, b)
    p, q = c / a, b + 1.0

    def pdf(x):
        log_x = np.log(x)
        return np.exp(log_c + (c - 1) * log_x + b * np.log(-np.expm1(a * log_x)) - log_norm)

    return _handle(
        "weighted_kumaraswamy", {"a": a, "b": b, "c": c}, Interval(0.0, 1.0), pdf=pdf,
        cdf=lambda x: _sc.betainc(p, q, x ** a),
        sf=lambda x: _sc.betaincc(p, q, x ** a),
        quantile=lambda u: _sc.betaincinv(p, q, u) ** (1.0 / a),
    )


def wk_moment(a: float, b: float, c: float, n: int) -> float:
    """n-th raw moment of the weighted Kumaraswamy family."""
    _require_positive({"a": a, "b": b, "c": c}, "a", "b", "c")
    return float(c * _sc.beta((c + n) / a, b + 1.0) / (a * b * _sc.beta(1.0 + c / a, b)))


def kumaraswamy_moment(a: float, b: float, n: int) -> float:
    """n-th raw moment of the Kumaraswamy family: b * B(1 + n/a, b)."""
    _require_positive({"a": a, "b": b}, "a", "b")
    return float(b * _sc.beta(1.0 + n / a, b))


def _chi_square(k: float) -> DistributionHandle:
    return replace(_gamma(k / 2.0, 0.5), name="chi_square", params={"k": k})


def _truncated_power(beta: float) -> DistributionHandle:
    # SF (1-x)^(beta-1) on (0, 1), requires beta > 1
    if not 1 < beta < math.inf:
        raise CatalogError(f"parameter 'beta' of truncated_power must be finite and > 1, "
                           f"got {beta}")
    sup = Interval(0.0, 1.0)
    return _handle(
        "truncated_power", {"beta": beta}, sup,
        pdf=lambda x: (beta - 1) * (1 - x) ** (beta - 2),
        cdf=lambda x: 1.0 - (1 - x) ** (beta - 1),
        sf=lambda x: (1 - x) ** (beta - 1),
        quantile=lambda u: -np.expm1(np.log1p(-u) / (beta - 1)),
    )


_BUILDERS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "exponential": (("lambda",), lambda p: _exponential(p["lambda"])),
    "gamma": (("k", "lambda"), lambda p: _gamma(p["k"], p["lambda"])),
    "weibull": (("alpha", "beta"), lambda p: _weibull(p["alpha"], p["beta"])),
    "rayleigh": (("sigma",), lambda p: _rayleigh(p["sigma"])),
    "half_normal": (("sigma",), lambda p: _half_normal(p["sigma"])),
    "generalized_gamma": (("p", "a", "d"), lambda p: _generalized_gamma(p["p"], p["a"], p["d"])),
    "burr12": (("c", "k"), lambda p: _burr12(p["c"], p["k"])),
    "pareto_lomax": (("alpha",), lambda p: _pareto_lomax(p["alpha"])),
    "uniform": ((), lambda p: _uniform()),
    "beta": (("alpha", "beta"), lambda p: _beta(p["alpha"], p["beta"])),
    "kumaraswamy": (("a", "b"), lambda p: _kumaraswamy(p["a"], p["b"])),
    "weighted_kumaraswamy": (("a", "b", "c"), lambda p: _weighted_kumaraswamy(p["a"], p["b"], p["c"])),
    "chi_square": (("k",), lambda p: _chi_square(p["k"])),
    "truncated_power": (("beta",), lambda p: _truncated_power(p["beta"])),
}

CATALOG_NAMES = tuple(sorted(_BUILDERS))


def make_catalog(name: str, params: dict[str, float] | None = None) -> DistributionHandle:
    """Build a catalog distribution by family name and named parameters."""
    if name not in _BUILDERS:
        raise CatalogError(f"unknown distribution {name!r}; known: {', '.join(CATALOG_NAMES)}")
    wanted, builder = _BUILDERS[name]
    params = dict(params or {})
    missing = [k for k in wanted if k not in params]
    extra = [k for k in params if k not in wanted]
    if missing or extra:
        raise CatalogError(f"{name} expects parameters {wanted}, got {tuple(params)}")
    if name != "truncated_power":
        _require_positive(params, *wanted)
    return builder(params)


_SPEC_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*\(([^()]*)\)\s*$")


def parse_kv_spec(text: str) -> tuple[str, dict[str, float]]:
    """Parse the CLI text form "name(k1=v1,k2=v2)"; bare "name" is allowed."""
    text = text.strip()
    m = _SPEC_RE.match(text)
    if m is None:
        if re.fullmatch(r"[a-zA-Z_][a-zA-Z0-9_]*", text):
            return text, {}
        raise CatalogError(f"cannot parse spec {text!r}")
    name, body = m.group(1), m.group(2).strip()
    params: dict[str, float] = {}
    if body:
        for piece in body.split(","):
            if "=" not in piece:
                raise CatalogError(f"expected k=v in {text!r}, got {piece!r}")
            k, v = piece.split("=", 1)
            try:
                params[k.strip()] = float(v)
            except ValueError as exc:
                raise CatalogError(f"bad numeric value in {text!r}: {v!r}") from exc
    return name, params


def parse_dist_spec(text: str) -> DistributionHandle:
    name, params = parse_kv_spec(text)
    return make_catalog(name, params)


def sample(dist: DistributionHandle, n: int, seed: int) -> np.ndarray:
    """n i.i.d. inverse-transform draws; deterministic for a fixed seed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    return np.asarray(dist.quantile(u), dtype=float)
