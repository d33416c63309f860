"""Weight functions and the numeric admissibility check.

A weight is an increasing differentiable function on [0, u) with w(0) = 0
whose derivative is absolutely integrable against the base distribution.
Integrability is verified as finiteness of the single integral of
w'(x) * sf(x), which is the same criterion as the defining double integral
for nonnegative derivatives and doubles as the construction normalizer. One
adaptive pass, numerics.tabulate_cdf, computes that integral and the cdf
table of the constructed variable together; validate_weight returns that
table, and validate_weights the tables of several pairs from one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .distributions import CatalogEntry, DistributionHandle, catalog_build, parse_kv_spec
from .numerics import (AccuracyError, CdfTable, Interval, NegativeDensityError, WtrvError,
                       scalar_or_array, tabulate_cdf, value_or_raise, with_cause)
from .numerics import integrate_adaptive  # noqa: F401 (re-exported)


class IntegrabilityError(WtrvError):
    """Weight derivative is not integrable against the base distribution."""


@dataclass(frozen=True)
class WeightFunction(CatalogEntry):
    """A weight on domain_hint built from its vectorized raw_w and
    raw_w_prime; w and w_prime are derived from them here, so a replace()
    derives them again: under an errstate that silences their edge
    arithmetic, a scalar gives a float and an array a float64 array of its
    shape, as a DistributionHandle's functions do."""

    name: str
    params: dict[str, float]
    raw_w: Callable = field(repr=False)
    raw_w_prime: Callable = field(repr=False)
    domain_hint: Interval = Interval(0.0, math.inf)
    w: Callable = field(init=False, repr=False, compare=False)
    w_prime: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", _derived(self.raw_w))
        object.__setattr__(self, "w_prime", _derived(self.raw_w_prime))


def _derived(f):
    @scalar_or_array
    def wrapped(x):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return f(x)
    return wrapped


_WEIGHTS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "power": (("c",), lambda p: WeightFunction(
        "power", p,
        lambda x: x ** p["c"],
        lambda x: p["c"] * x ** (p["c"] - 1.0))),
    "scaled_power": (("alpha", "beta"), lambda p: WeightFunction(
        "scaled_power", p,
        lambda x: (x / p["beta"]) ** p["alpha"],
        lambda x: (p["alpha"] / p["beta"]) * (x / p["beta"]) ** (p["alpha"] - 1.0))),
    "log1p_power": (("c",), lambda p: WeightFunction(
        "log1p_power", p,
        lambda x: np.log1p(x ** p["c"]),
        lambda x: p["c"] * x ** (p["c"] - 1.0) / (1.0 + x ** p["c"]))),
    "neg_log_sq": ((), lambda p: WeightFunction(
        "neg_log_sq", p,
        lambda x: -np.log1p(-x ** 2),
        lambda x: 2.0 * x / (1.0 - x ** 2),
        Interval(0.0, 1.0))),
    "exp_shift_sq": ((), lambda p: WeightFunction(
        "exp_shift_sq", p,
        lambda x: np.exp((x + 1.0) ** 2) - math.e,
        lambda x: 2.0 * (x + 1.0) * np.exp((x + 1.0) ** 2))),
    "expm1": ((), lambda p: WeightFunction("expm1", p, np.expm1, np.exp)),
    "neg_x_log1m": ((), lambda p: WeightFunction(
        "neg_x_log1m", p,
        lambda x: -x - np.log1p(-x),
        lambda x: x / (1.0 - x),
        Interval(0.0, 1.0))),
    "linear": ((), lambda p: WeightFunction("linear", p, lambda x: x, np.ones_like)),
}


def make_weight(name: str, params: dict[str, float] | None = None) -> WeightFunction:
    """Build a catalog weight function with analytic w and w'; a bad name or
    parameter set raises CatalogError."""
    return catalog_build(_WEIGHTS, "weight", name, params)


def parse_weight_spec(text: str) -> WeightFunction:
    return make_weight(*parse_kv_spec(text))


def tail_integrand(weight: WeightFunction, dist: DistributionHandle) -> Callable:
    """w'(x) * sf(x) from the weight's raw w' and the family's interior sf,
    under the caller's errstate: the quadrature's, or that of the constructed
    pdf's handle, which also applies the edge policy. Once sf underflows to exactly
    0 the product vanishes regardless of w', and it is 0 at and beyond hi."""
    wp, sf, hi = weight.raw_w_prime, dist.interior.sf, dist.support.hi

    def integrand(x):
        d, s = wp(x), sf(x)
        return np.where(((s == 0.0) & ~np.isfinite(d)) | (x >= hi), 0.0, d * s)

    return integrand


def _admitted(weight: WeightFunction, dist: DistributionHandle, table):
    """The pair's table, if its total is a positive finite number, or the
    error that rejects the pair, caused by the pass's own error (or None)."""
    pair = f"{weight.describe()} against {dist.describe()}"
    if isinstance(table, NegativeDensityError):
        text = f"w'*sf for {pair} is negative at x = {table.x:.6g}"
    elif isinstance(table, AccuracyError):
        text = f"integral of w'*sf for {pair} did not converge (best estimate {table.estimate:.4g})"
    elif isinstance(table, WtrvError):  # the cubics overflow
        return with_cause(WtrvError(f"cdf table of {pair} {table}"), table.__cause__)
    elif not math.isfinite(table.total) or table.total <= 0:
        text, table = f"normalizer for {pair} is not a positive finite number: {table.total}", None
    else:
        return table
    return with_cause(IntegrabilityError(f"weight {weight.describe()} is not admissible for "
                                         f"{dist.describe()}: {text}"), table)


def weight_normalizer_integral(weight: WeightFunction, dist: DistributionHandle) -> float:
    """E[w(X)] computed as the integral of w'(x) * sf(x) over the support."""
    return validate_weight(weight, dist).total


def validate_weights(pairs: Sequence[tuple[WeightFunction, DistributionHandle]]) -> list:
    """validate_weight for each (weight, dist) pair, all in one tabulate_cdf
    pass of w'(x) * sf(x) over the pair's support: each pair's table, or the
    error that rejects it, which leaves the other pairs alone."""
    if any(d.support.lo != 0.0 for _, d in pairs):
        raise ValueError("weight validation requires a base distribution with lower bound 0")
    tables = tabulate_cdf([tail_integrand(w, d) for w, d in pairs],
                          [Interval(d.support.lo, min(d.support.hi, w.domain_hint.hi))
                           for w, d in pairs])
    return [_admitted(w, d, t) for (w, d), t in zip(pairs, tables)]


def validate_weight(weight: WeightFunction, dist: DistributionHandle) -> CdfTable:
    """The cdf table of w'(x) * sf(x) for an admissible pair, whose total is
    E[w(X)]; a pair whose pass does not reach a positive finite total raises
    IntegrabilityError, and one whose cubics overflow in floats WtrvError.
    Every catalog weight starts at zero and is nondecreasing, which the
    tests check family by family, so integrability is the one condition
    left to the pair."""
    return value_or_raise(validate_weights([(weight, dist)])[0])
