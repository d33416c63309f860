"""Construction engine for weighted tail random variables.

Given a base distribution X with lower bound 0 and an admissible weight w,
the constructed variable has density w'(x) * sf_X(x) / E[w(X)]. The one
GK15 pass of validate_weight gives both E[w(X)] and the cdf table
(numerics.CdfTable), whose cdf and quantile the variable reads;
construct_all builds several variables on the tables of one pass. The
constructed variable and the minimum of independent variables declare only
what they compute inside the support, as distributions.Interior; their
DistributionHandle adds the edge values and the scalar/array handling
shared by every handle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .distributions import DistributionHandle, Interior, make_catalog
from .numerics import CdfTable, ConvergenceError, Interval, WtrvError, _sc, invert_monotone
from .numerics import brent_root, integrate_adaptive  # noqa: F401 (re-exported)
from .weights import (WeightFunction, make_weight, tail_integrand, validate_weight,
                      validate_weights)
from .weights import weight_normalizer_integral  # noqa: F401 (re-exported)


@dataclass(frozen=True)
class WtrvDistribution(DistributionHandle):
    base: DistributionHandle
    weight: WeightFunction
    # validate_weight's cdf table, whose total is the normalizer
    table: CdfTable = field(repr=False)

    @property
    def normalizer(self) -> float:
        return self.table.total

    @property
    def cdf_nodes(self) -> np.ndarray:
        return self.table.knots

    def describe(self) -> str:
        return f"wtrv[{self.base.describe()}; {self.weight.describe()}]"


def _built(dist: DistributionHandle, weight: WeightFunction, table: CdfTable) -> WtrvDistribution:
    """The weighted tail variable on the pair's table."""
    z = table.total
    g = tail_integrand(weight, dist)
    return WtrvDistribution(
        "wtrv", {**{f"base_{k}": v for k, v in dist.params.items()},
                 **{f"w_{k}": v for k, v in weight.params.items()}},
        Interval(0.0, min(dist.support.hi, weight.domain_hint.hi)),
        Interior(pdf=lambda x: g(x) / z, cdf=table.cdf,
                 sf=lambda x: 1.0 - table.cdf(x), quantile=table.quantile),
        dist, weight, table)


def construct(dist: DistributionHandle, weight: WeightFunction) -> WtrvDistribution:
    """Build the weighted tail variable of (X, w): its pdf is w'·sf/E[w(X)],
    and its cdf, sf and quantile are those of validate_weight's cdf table.
    Raises validate_weight's error for a pair it does not accept."""
    return _built(dist, weight, validate_weight(weight, dist))


def construct_all(pairs: Sequence[tuple[DistributionHandle, WeightFunction]]) -> list:
    """construct for each (dist, weight) pair, with all their tables from
    one pass of validate_weights: each pair's WtrvDistribution, or the
    WtrvError that construct raises for it, which leaves the other pairs
    alone."""
    tables = validate_weights([(w, d) for d, w in pairs])
    return [t if isinstance(t, WtrvError) else _built(d, w, t) for (d, w), t in zip(pairs, tables)]


def equilibrium(dist: DistributionHandle) -> WtrvDistribution:
    """Equilibrium variable of X: the tail construction with the identity weight."""
    return construct(dist, make_weight("linear"))


def minimum_of(handles: Sequence[DistributionHandle]) -> DistributionHandle:
    """Distribution of the minimum of independent variables with common support."""
    if len(handles) < 2:
        raise ValueError("minimum requires at least two distributions")
    sup = handles[0].support
    for h in handles[1:]:
        if h.support != sup:
            raise ValueError("minimum requires identical supports")

    def sf(x):
        return np.prod([h.sf(x) for h in handles], axis=0)

    def cdf(x):
        return 1.0 - sf(x)

    def pdf(x):
        sfs = [h.sf(x) for h in handles]
        pdfs = [h.pdf(x) for h in handles]
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
        return invert_monotone(lambda x, _: cdf(x), lambda x, _: pdf(x), u, lo, hi)

    name = "min[" + ",".join(h.describe() for h in handles) + "]"
    return DistributionHandle(name, {}, sup, Interior(pdf, cdf, sf, quantile))


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

    return DistributionHandle(
        "burr12_power_wtrv", {"c": c, "k": k, "a": a}, Interval(0.0, math.inf), Interior(
            pdf=lambda x: a * x ** (a - 1) * (1 + x ** c) ** (-k) / norm,
            cdf=lambda x: _sc.betainc(p, q, 1.0 / (1.0 + x ** -c)),
            sf=lambda x: _sc.betainc(q, p, 1.0 / (1.0 + x ** c)),
            quantile=quantile))


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


TABLE1_GRID_SIZE = 512  # interior points at which each row's densities are compared
TABLE1_TOLERANCE = 1e-6  # a row passes when its sup-norm distance is at most this


def table1_oracle_suite() -> list[Table1Row]:
    """Construct every closed-form catalog row numerically and report the
    sup-norm distance to the target density on TABLE1_GRID_SIZE interior
    points; a row passes within TABLE1_TOLERANCE."""
    rows = []
    for i, (label, base, weight, target, note) in enumerate(_table1_rows(), start=1):
        built = construct(base, weight)
        if target.support.is_finite:
            grid = np.linspace(target.support.lo, target.support.hi, TABLE1_GRID_SIZE + 2)[1:-1]
        else:
            grid = target.quantile(np.linspace(1e-3, 1.0 - 1e-3, TABLE1_GRID_SIZE))
        sup_norm = float(np.max(np.abs(built.pdf(grid) - target.pdf(grid))))
        rows.append(Table1Row(index=i, base=base.describe(), weight=weight.describe(),
                              target=f"{label}: {target.describe()}", sup_norm=sup_norm,
                              passed=sup_norm <= TABLE1_TOLERANCE, note=note))
    return rows
