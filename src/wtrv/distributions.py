"""Base-distribution abstraction and the catalog of input families.

Every handle exposes vectorized pdf/cdf/sf/quantile plus support metadata.
Parameterizations follow the survival-function forms used throughout the
construction engine, e.g. Weibull sf = exp(-(x/beta)^alpha) and Lomax-style
Pareto sf = (1+x)^(-alpha).
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .numerics import Interval, WtrvError, _sc, scalar_or_array
from .numerics import brent_root, incomplete_beta_upper  # noqa: F401 (re-exported)


class CatalogError(ValueError):
    """A family or weight spec with a bad name, parameter set or value."""


class CatalogEntry:
    """Base of the families and weights, whose describe() is name(k=v,...)."""

    def describe(self) -> str:
        args = ",".join(f"{k}={v:g}" for k, v in self.params.items())
        return f"{self.name}({args})"


class Interior(NamedTuple):
    """A family's vectorized pdf, cdf, sf and quantile, which need be right
    only strictly inside its support, the quantile only on u in (0, 1)."""

    pdf: Callable
    cdf: Callable
    sf: Callable
    quantile: Callable


@dataclass(frozen=True)
class DistributionHandle(CatalogEntry):
    """A distribution on support, built from its interior functions. Its
    pdf, cdf, sf and quantile are derived from them here, so a replace()
    derives them again: pdf, cdf and sf take their edge values at and beyond
    the support, the quantile gives the support's ends at u <= 0 and u >= 1
    and calls the interior quantile only on u in (0, 1), where a value that
    is not finite raises WtrvError, and a scalar in gives a float out."""

    name: str
    params: dict[str, float]
    support: Interval
    interior: Interior = field(repr=False)
    pdf: Callable = field(init=False, repr=False, compare=False)
    cdf: Callable = field(init=False, repr=False, compare=False)
    sf: Callable = field(init=False, repr=False, compare=False)
    quantile: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sup, f = self.support, self.interior
        for name, guarded in (("pdf", _masked(sup, f.pdf, 0.0, 0.0)),
                              ("cdf", _masked(sup, f.cdf, 0.0, 1.0)),
                              ("sf", _masked(sup, f.sf, 1.0, 0.0)),
                              ("quantile", _inverse(sup, f.quantile, _label(self)))):
            object.__setattr__(self, name, guarded)


def _label(handle: DistributionHandle) -> Callable[[], str]:
    """handle.describe through a weak reference, since a quantile holding the
    handle would keep it, and a constructed variable's table, alive until a
    full garbage collection; a quantile that outlives its handle names it by
    its name."""
    ref, name = weakref.ref(handle), handle.name
    return lambda: h.describe() if (h := ref()) is not None else name


def _masked(support: Interval, inside: Callable, below: float, above: float) -> Callable:
    """inside under the edge policy and an errstate."""
    lo, hi = support.lo, support.hi

    @scalar_or_array
    def fn(x):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(x <= lo, below, np.where(x >= hi, above,
                            inside(np.minimum(np.maximum(x, lo), hi))))

    return fn


def _inverse(support: Interval, inside: Callable, describe: Callable) -> Callable:
    """inside on u in (0, 1) under _masked's errstate; a level there whose
    quantile is not finite raises WtrvError naming describe() and the level."""
    @scalar_or_array
    def fn(u):
        out = np.where(u <= 0.0, support.lo, np.where(u >= 1.0, support.hi, np.nan))
        inner = (u > 0.0) & (u < 1.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out[inner] = inside(u[inner])
        bad = inner & ~np.isfinite(out)
        if bad.any():
            raise WtrvError(f"quantile of {describe()} is not finite at u = {float(u[bad][0])!r}")
        return out

    return fn


_HALF_LINE, _UNIT = Interval(0.0, math.inf), Interval(0.0, 1.0)


def _require_positive(params: dict[str, float], *names: str) -> None:
    for n in names:
        if not 0 < params.get(n, 0.0) < math.inf:
            raise CatalogError(f"parameter {n!r} must be finite and positive, "
                               f"got {params.get(n)}")


def _exponential(lam: float) -> tuple[Interval, Interior]:
    return _HALF_LINE, Interior(
        pdf=lambda x: lam * np.exp(-lam * x),
        cdf=lambda x: -np.expm1(-lam * x),
        sf=lambda x: np.exp(-lam * x),
        quantile=lambda u: -np.log1p(-u) / lam)


def _gamma(k: float, lam: float) -> tuple[Interval, Interior]:
    lg = _sc.gammaln(k)
    return _HALF_LINE, Interior(
        pdf=lambda x: np.exp(k * np.log(lam) + (k - 1) * np.log(x) - lam * x - lg),
        cdf=lambda x: _sc.gammainc(k, lam * x),
        sf=lambda x: _sc.gammaincc(k, lam * x),
        quantile=lambda u: _sc.gammaincinv(k, u) / lam)


def _weibull(alpha: float, beta: float) -> tuple[Interval, Interior]:
    return _HALF_LINE, Interior(
        pdf=lambda x: (alpha / beta) * (x / beta) ** (alpha - 1) * np.exp(-((x / beta) ** alpha)),
        cdf=lambda x: -np.expm1(-((x / beta) ** alpha)),
        sf=lambda x: np.exp(-((x / beta) ** alpha)),
        quantile=lambda u: beta * (-np.log1p(-u)) ** (1.0 / alpha))


def _rayleigh(sigma: float) -> tuple[Interval, Interior]:
    s2 = sigma * sigma
    return _HALF_LINE, Interior(
        pdf=lambda x: (x / s2) * np.exp(-x * x / (2 * s2)),
        cdf=lambda x: -np.expm1(-x * x / (2 * s2)),
        sf=lambda x: np.exp(-x * x / (2 * s2)),
        quantile=lambda u: sigma * np.sqrt(-2.0 * np.log1p(-u)))


def _half_normal(sigma: float) -> tuple[Interval, Interior]:
    c = math.sqrt(2.0 / math.pi) / sigma
    rt2 = math.sqrt(2.0)
    return _HALF_LINE, Interior(
        pdf=lambda x: c * np.exp(-x * x / (2 * sigma * sigma)),
        cdf=lambda x: _sc.erf(x / (sigma * rt2)),
        sf=lambda x: _sc.erfc(x / (sigma * rt2)),
        quantile=lambda u: sigma * rt2 * _sc.erfinv(u))


def _generalized_gamma(p: float, a: float, d: float) -> tuple[Interval, Interior]:
    lg = _sc.gammaln(d / p)
    return _HALF_LINE, Interior(
        pdf=lambda x: np.exp(np.log(p) + (d - 1) * np.log(x) - (x / a) ** p
                             - d * np.log(a) - lg),
        cdf=lambda x: _sc.gammainc(d / p, (x / a) ** p),
        sf=lambda x: _sc.gammaincc(d / p, (x / a) ** p),
        quantile=lambda u: a * _sc.gammaincinv(d / p, u) ** (1.0 / p))


def _burr12(c: float, k: float) -> tuple[Interval, Interior]:
    return _HALF_LINE, Interior(
        pdf=lambda x: c * k * x ** (c - 1) * (1 + x ** c) ** (-(k + 1)),
        cdf=lambda x: 1.0 - (1 + x ** c) ** (-k),
        sf=lambda x: (1 + x ** c) ** (-k),
        quantile=lambda u: np.expm1(-np.log1p(-u) / k) ** (1.0 / c))


def _uniform() -> tuple[Interval, Interior]:
    return _UNIT, Interior(
        pdf=lambda x: np.ones_like(x),
        cdf=lambda x: x,
        sf=lambda x: 1.0 - x,
        quantile=lambda u: u)


def _beta(alpha: float, beta: float) -> tuple[Interval, Interior]:
    lb = _sc.betaln(alpha, beta)
    return _UNIT, Interior(
        pdf=lambda x: np.exp((alpha - 1) * np.log(x) + (beta - 1) * np.log1p(-x) - lb),
        cdf=lambda x: _sc.betainc(alpha, beta, x),
        sf=lambda x: _sc.betaincc(alpha, beta, x),
        quantile=lambda u: _sc.betaincinv(alpha, beta, u))


def _kumaraswamy(a: float, b: float) -> tuple[Interval, Interior]:
    return _UNIT, Interior(
        pdf=lambda x: a * b * x ** (a - 1) * (1 - x ** a) ** (b - 1),
        cdf=lambda x: 1.0 - (1 - x ** a) ** b,
        sf=lambda x: (1 - x ** a) ** b,
        quantile=lambda u: (-np.expm1(np.log1p(-u) / b)) ** (1.0 / a))


def _weighted_kumaraswamy(a: float, b: float, c: float) -> tuple[Interval, Interior]:
    # Beta link: X^a ~ Beta(c/a, b+1). The pdf c x^(c-1) (1-x^a)^b / (b B(1+c/a, b))
    # in logs, whose factors under- and overflow apart at the fit's box corners
    log_c, log_norm = math.log(c), math.log(b) + _sc.betaln(1.0 + c / a, b)
    p, q = c / a, b + 1.0

    def pdf(x):
        log_x = np.log(x)
        return np.exp(log_c + (c - 1) * log_x + b * np.log(-np.expm1(a * log_x)) - log_norm)

    return _UNIT, Interior(
        pdf=pdf,
        cdf=lambda x: _sc.betainc(p, q, x ** a),
        sf=lambda x: _sc.betaincc(p, q, x ** a),
        quantile=lambda u: _sc.betaincinv(p, q, u) ** (1.0 / a))


def wk_moment(a: float, b: float, c: float, n: int) -> float:
    """n-th raw moment of the weighted Kumaraswamy family."""
    _require_positive({"a": a, "b": b, "c": c}, "a", "b", "c")
    return float(c * _sc.beta((c + n) / a, b + 1.0) / (a * b * _sc.beta(1.0 + c / a, b)))


def kumaraswamy_moment(a: float, b: float, n: int) -> float:
    """n-th raw moment of the Kumaraswamy family: b * B(1 + n/a, b)."""
    _require_positive({"a": a, "b": b}, "a", "b")
    return float(b * _sc.beta(1.0 + n / a, b))


def _truncated_power(beta: float) -> tuple[Interval, Interior]:
    # Kumaraswamy(1, beta - 1): SF (1-x)^(beta-1) on (0, 1), requires beta > 1
    if not beta > 1:
        raise CatalogError(f"parameter 'beta' of truncated_power must be > 1, got {beta}")
    return _kumaraswamy(1.0, beta - 1.0)


_BUILDERS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "exponential": (("lambda",), _exponential),
    "gamma": (("k", "lambda"), _gamma),
    "weibull": (("alpha", "beta"), _weibull),
    "rayleigh": (("sigma",), _rayleigh),
    "half_normal": (("sigma",), _half_normal),
    "generalized_gamma": (("p", "a", "d"), _generalized_gamma),
    "burr12": (("c", "k"), _burr12),
    "pareto_lomax": (("alpha",), lambda alpha: _burr12(1.0, alpha)),
    "uniform": ((), _uniform),
    "beta": (("alpha", "beta"), _beta),
    "kumaraswamy": (("a", "b"), _kumaraswamy),
    "weighted_kumaraswamy": (("a", "b", "c"), _weighted_kumaraswamy),
    "chi_square": (("k",), lambda k: _gamma(k / 2.0, 0.5)),
    "truncated_power": (("beta",), _truncated_power),
}


def catalog_build(catalog: dict, entry: type, kind: str, name: str,
                  params: dict[str, float] | None):
    """The one lookup of the family and weight catalogs, which map a name to
    (parameter names, builder): checks the name, the exact parameter set and
    that each value is finite and positive, then builds entry(name, params
    in declared order, *builder(*their values)), where a family's builder
    gives (support, Interior) and a weight's (raw_w, raw_w_prime[, domain]).
    A bad spec raises CatalogError naming the entry, or the parameter and
    its value."""
    if name not in catalog:
        raise CatalogError(f"unknown {kind} {name!r}; known: {', '.join(sorted(catalog))}")
    wanted, builder = catalog[name]
    params = dict(params or {})
    if sorted(params) != sorted(wanted):
        raise CatalogError(f"{name} expects parameters {wanted}, got {tuple(params)}")
    _require_positive(params, *wanted)
    values = [params[k] for k in wanted]
    return entry(name, dict(zip(wanted, values)), *builder(*values))


def make_catalog(name: str, params: dict[str, float] | None = None) -> DistributionHandle:
    """Build a catalog distribution by family name and named parameters."""
    return catalog_build(_BUILDERS, DistributionHandle, "distribution", name, params)


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
            k = k.strip()
            if k in params:
                raise CatalogError(f"parameter {k!r} given twice in {text!r}")
            try:
                params[k] = float(v)
            except ValueError as exc:
                raise CatalogError(f"bad numeric value in {text!r}: {v!r}") from exc
    return name, params


def parse_dist_spec(text: str) -> DistributionHandle:
    return make_catalog(*parse_kv_spec(text))


def sample(dist: DistributionHandle, n: int, seed: int) -> np.ndarray:
    """n i.i.d. inverse-transform draws; deterministic for a fixed seed."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    return dist.quantile(u)
