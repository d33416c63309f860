"""Construction engine for weighted tail random variables.

Given a base distribution X with lower bound 0 and an admissible weight w,
the constructed variable has density w'(x) * sf_X(x) / E[w(X)]. Its cdf is
tabulated by the same GK15 pass that computes E[w(X)] (numerics.tabulate_cdf,
run once by validate_weight), with each cell's left end and Kronrod nodes as
knots, and read through a piecewise-cubic Hermite interpolant (written out in
_hermite), both in the table's coordinate: x on a finite support,
t = x / (1 + x) on an infinite one (CdfTable.to_t). The quantile inverts that
interpolant for all points at once by safeguarded Newton-bisection, with each
point bracketed by its pair of knots and the interpolant's own slope. The
constructed variable and the minimum of independent variables pass only what
they compute inside the support to distributions._handle, which adds the
edge values and the scalar/array handling shared by every handle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .distributions import DistributionHandle, _handle, make_catalog
from .numerics import ConvergenceError, Interval, WtrvError, _sc, invert_monotone
from .numerics import brent_root, integrate_adaptive  # noqa: F401 (re-exported)
from .weights import (IntegrabilityError, WeightFunction, make_weight,
                      tail_integrand, validate_weight, weight_normalizer_integral)


def expected_weight(dist: DistributionHandle, weight: WeightFunction) -> float:
    """E[w(X)] via the tail identity: integral of w'(x) * sf(x)."""
    return weight_normalizer_integral(weight, dist)


@dataclass(frozen=True)
class WtrvDistribution(DistributionHandle):
    base: DistributionHandle = None
    weight: WeightFunction = None
    normalizer: float = float("nan")
    cdf_nodes: np.ndarray = field(default=None, repr=False)
    cdf_values: np.ndarray = field(default=None, repr=False)
    # largest miss of the cdf interpolant against the table's partial masses
    # (CdfTable.gap)
    table_gap: float = 0.0

    def describe(self) -> str:
        return f"wtrv[{self.base.describe()}; {self.weight.describe()}]"


def _hermite(x: np.ndarray, y: np.ndarray, dydx: np.ndarray) -> tuple[Callable, Callable]:
    """Value and slope functions of the piecewise cubic through (x, y) with
    slopes dydx, on [x[0], x[-1]]. On [x[i], x[i+1]) (the last cell closed) it
    is SciPy's CubicHermiteSpline cubic in s = v - x[i], summed in SciPy's
    order, so the two give the same floats."""
    h = np.diff(x)
    secant = np.diff(y) / h
    t = (dydx[:-1] + dydx[1:] - 2 * secant) / h
    c1, c2, c3 = dydx[:-1], (secant - dydx[:-1]) / h - t, t / h
    d2, d3 = c2 * 2, c3 * 3

    def cell(v):
        i = np.clip(np.searchsorted(x, v, side="right") - 1, 0, h.size - 1)
        return i, v - x[i]

    def value(v):
        i, s = cell(v)
        return y[i] + c1[i] * s + c2[i] * (s * s) + c3[i] * (s * s * s)

    def slope(v):
        i, s = cell(v)
        return c1[i] + d2[i] * s + d3[i] * (s * s)

    return value, slope


def construct(dist: DistributionHandle, weight: WeightFunction) -> WtrvDistribution:
    """Build the weighted tail variable of (X, w) with tabulated cdf."""
    if dist.support.lo != 0.0:
        raise ValueError("construction requires a base distribution with lower bound 0")
    report = validate_weight(weight, dist)
    if not report.ok:
        raise IntegrabilityError(
            f"weight {weight.describe()} is not admissible for {dist.describe()}: "
            f"{report.detail or 'validity flags failed'}")
    table = report.table
    z = table.total
    hi = min(dist.support.hi, weight.domain_hint.hi)
    support = Interval(0.0, hi)

    g = tail_integrand(weight, dist)
    nodes, fvals, to_t, to_x = table.nodes, table.values, table.to_t, table.to_x
    try:
        with np.errstate(over="raise", invalid="raise"):
            interp, density = _hermite(nodes, fvals, table.slopes)
    except FloatingPointError as exc:  # knots a few floats apart near 0
        raise WtrvError(f"cdf table of {weight.describe()} against {dist.describe()} "
                        f"cannot be interpolated in floats: {exc}") from exc
    cdf = lambda x: np.clip(interp(to_t(x)), 0.0, 1.0)

    def quantile(u):
        i = np.searchsorted(fvals, u, side="right")
        return to_x(invert_monotone(interp, density, u, nodes[i - 1], nodes[i]))

    with np.errstate(divide="ignore"):
        x_nodes = to_x(nodes)
    return _handle(
        "wtrv", {**{f"base_{k}": v for k, v in dist.params.items()},
                 **{f"w_{k}": v for k, v in weight.params.items()}},
        support, pdf=lambda x: np.asarray(g(x), dtype=float) / z, cdf=cdf,
        sf=lambda x: 1.0 - cdf(x), quantile=quantile, cls=WtrvDistribution,
        base=dist, weight=weight, normalizer=z, cdf_nodes=x_nodes, cdf_values=fvals,
        table_gap=table.gap)


def equilibrium(dist: DistributionHandle) -> WtrvDistribution:
    """Equilibrium variable of X: the tail construction with the identity weight."""
    return construct(dist, make_weight("linear"))


def weighted_kumaraswamy(a: float, b: float, c: float) -> DistributionHandle:
    """Closed-form handle for the three-parameter weighted Kumaraswamy family."""
    return make_catalog("weighted_kumaraswamy", {"a": a, "b": b, "c": c})


def minimum_of(handles: Sequence[DistributionHandle]) -> DistributionHandle:
    """Distribution of the minimum of independent variables with common support."""
    if len(handles) < 2:
        raise ValueError("minimum requires at least two distributions")
    sup = handles[0].support
    for h in handles[1:]:
        if h.support != sup:
            raise ValueError("minimum requires identical supports")

    def sf(x):
        return np.prod([np.asarray(h.sf(x), dtype=float) for h in handles], axis=0)

    def cdf(x):
        return 1.0 - sf(x)

    def pdf(x):
        sfs = [np.asarray(h.sf(x), dtype=float) for h in handles]
        pdfs = [np.asarray(h.pdf(x), dtype=float) for h in handles]
        total = np.prod(sfs, axis=0)
        out = np.zeros_like(total)
        for s, p in zip(sfs, pdfs):
            with np.errstate(divide="ignore", invalid="ignore"):
                out = out + np.where(s > 0, p * total / np.maximum(s, 1e-300), 0.0)
        return out

    def quantile(u):
        lo = np.full_like(u, sup.lo)
        hi = np.full_like(u, sup.hi if sup.is_finite else max(1.0, sup.lo + 1.0))
        # bracket doubling, all points at once
        short = cdf(hi) < u
        while short.any():
            if not np.isfinite(hi[short]).all():
                raise ConvergenceError("no finite upper bracket for a quantile")
            lo = np.where(short, hi, lo)
            hi = np.where(short, 2.0 * hi, hi)
            short = cdf(hi) < u
        return invert_monotone(cdf, pdf, u, lo, hi)

    name = "min[" + ",".join(h.describe() for h in handles) + "]"
    return _handle(name, {}, sup, pdf=pdf, cdf=cdf, sf=sf, quantile=quantile)


def wtrv_of_minimum(dists: Sequence[DistributionHandle],
                    weight: WeightFunction) -> WtrvDistribution:
    """WTRV of the minimum of independent variables with common support."""
    return construct(minimum_of(dists), weight)


@dataclass(frozen=True)
class Table1Row:
    index: int
    base: str
    weight: str
    target: str
    sup_norm: float
    passed: bool
    note: str = ""


def _burr_power_target(c: float, k: float, a: float) -> DistributionHandle:
    """Closed-form density a x^(a-1) (1+x^c)^(-k) / (k B((ck-a)/c, (c+a)/c)),
    whose cdf is I_t(a/c, k - a/c) at t = x^c / (1 + x^c)."""
    if not a < c * k:
        raise ValueError("requires a < c*k for integrability")
    norm = k * _sc.beta((c * k - a) / c, (c + a) / c)
    p, q = a / c, k - a / c

    def quantile(u):
        v = _sc.betaincinv(p, q, u)
        return (v / (1.0 - v)) ** (1.0 / c)

    return _handle("burr12_power_wtrv", {"c": c, "k": k, "a": a}, Interval(0.0, math.inf),
                   pdf=lambda x: a * x ** (a - 1) * (1 + x ** c) ** (-k) / norm,
                   cdf=lambda x: _sc.betainc(p, q, 1.0 / (1.0 + x ** -c)),
                   sf=lambda x: _sc.betainc(q, p, 1.0 / (1.0 + x ** c)),
                   quantile=quantile)


def _table1_rows() -> list[tuple[str, DistributionHandle, WeightFunction, DistributionHandle, str]]:
    rt2 = math.sqrt(2.0)
    sigma6, sigma7 = 1.4, 0.9
    return [
        ("exponential -> exponential",
         make_catalog("exponential", {"lambda": 1.3}), make_weight("linear"),
         make_catalog("exponential", {"lambda": 1.3}), ""),
        ("exponential + power -> gamma",
         make_catalog("exponential", {"lambda": 1.5}), make_weight("power", {"c": 2.5}),
         make_catalog("gamma", {"k": 2.5, "lambda": 1.5}), ""),
        ("weibull -> weibull",
         make_catalog("weibull", {"alpha": 1.7, "beta": 2.2}),
         make_weight("scaled_power", {"alpha": 1.7, "beta": 2.2}),
         make_catalog("weibull", {"alpha": 1.7, "beta": 2.2}), ""),
        ("truncated power + power -> beta",
         make_catalog("truncated_power", {"beta": 3.5}), make_weight("power", {"c": 2.25}),
         make_catalog("beta", {"alpha": 2.25, "beta": 3.5}), ""),
        ("exponential(1/2) + power(k/2) -> chi-square",
         make_catalog("exponential", {"lambda": 0.5}), make_weight("power", {"c": 2.5}),
         make_catalog("chi_square", {"k": 5.0}), ""),
        ("rayleigh -> rayleigh",
         make_catalog("rayleigh", {"sigma": sigma6}),
         make_weight("scaled_power", {"alpha": 2.0, "beta": rt2 * sigma6}),
         make_catalog("rayleigh", {"sigma": sigma6}), ""),
        ("weibull(2, sqrt2*sigma) + linear scale -> half-normal",
         make_catalog("weibull", {"alpha": 2.0, "beta": rt2 * sigma7}),
         make_weight("scaled_power", {"alpha": 1.0, "beta": rt2 * sigma7}),
         make_catalog("half_normal", {"sigma": sigma7}), ""),
        ("weibull + power -> generalized gamma",
         make_catalog("weibull", {"alpha": 1.5, "beta": 2.0}),
         make_weight("scaled_power", {"alpha": 3.4, "beta": 2.0}),
         make_catalog("generalized_gamma", {"p": 1.5, "a": 2.0, "d": 3.4}),
         "weight exponent read as the target shape d"),
        ("burr12 + log1p -> burr12",
         make_catalog("burr12", {"c": 2.5, "k": 1.8}), make_weight("log1p_power", {"c": 2.5}),
         make_catalog("burr12", {"c": 2.5, "k": 1.8}), ""),
        ("burr12 + power -> burr12 tail family",
         make_catalog("burr12", {"c": 3.0, "k": 2.0}), make_weight("power", {"c": 2.0}),
         _burr_power_target(3.0, 2.0, 2.0), ""),
        ("kumaraswamy + power(a) -> kumaraswamy(a, b+1)",
         make_catalog("kumaraswamy", {"a": 2.0, "b": 3.0}), make_weight("power", {"c": 2.0}),
         make_catalog("kumaraswamy", {"a": 2.0, "b": 4.0}),
         "compared against Kw(a, b+1): the printed Kw(a,b) density is non-normalized"),
        ("kumaraswamy + power(c) -> weighted kumaraswamy",
         make_catalog("kumaraswamy", {"a": 2.0, "b": 3.0}), make_weight("power", {"c": 1.5}),
         make_catalog("weighted_kumaraswamy", {"a": 2.0, "b": 3.0, "c": 1.5}), ""),
    ]


def table1_oracle_suite(grid_size: int = 512, tolerance: float = 1e-6) -> list[Table1Row]:
    """Construct every closed-form catalog row numerically and report the
    sup-norm distance to the target density on an interior grid."""
    rows = []
    for i, (label, base, weight, target, note) in enumerate(_table1_rows(), start=1):
        built = construct(base, weight)
        if target.support.is_finite:
            grid = np.linspace(target.support.lo, target.support.hi, grid_size + 2)[1:-1]
        else:
            grid = np.asarray(target.quantile(np.linspace(1e-3, 1.0 - 1e-3, grid_size)))
        sup_norm = float(np.max(np.abs(np.asarray(built.pdf(grid)) - np.asarray(target.pdf(grid)))))
        rows.append(Table1Row(index=i, base=base.describe(), weight=weight.describe(),
                              target=f"{label}: {target.describe()}", sup_norm=sup_norm,
                              passed=sup_norm <= tolerance, note=note))
    return rows
