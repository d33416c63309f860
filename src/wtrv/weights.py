"""Weight functions and the numeric admissibility check.

A weight is an increasing differentiable function on [0, u) with w(0) = 0
whose derivative is absolutely integrable against the base distribution.
Integrability is verified as finiteness of the single integral of
w'(x) * sf(x), which is the same criterion as the defining double integral
for nonnegative derivatives and doubles as the construction normalizer. One
adaptive pass, numerics.tabulate_cdf, computes that integral and the cdf
table of the constructed variable together; validate_weight returns that
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import CatalogEntry, DistributionHandle, catalog_build, parse_kv_spec
from .numerics import (AccuracyError, CdfTable, Interval, NegativeDensityError, WtrvError,
                       tabulate_cdf)
from .numerics import integrate_adaptive  # noqa: F401 (re-exported)


class IntegrabilityError(WtrvError):
    """Weight derivative is not integrable against the base distribution."""


@dataclass(frozen=True)
class WeightFunction(CatalogEntry):
    """A weight on domain_hint built from its vectorized raw_w and
    raw_w_prime; w and w_prime are derived from them here, under an
    errstate that silences their edge arithmetic, so a replace() derives
    them again."""

    name: str
    params: dict[str, float]
    raw_w: Callable = field(repr=False)
    raw_w_prime: Callable = field(repr=False)
    domain_hint: Interval = Interval(0.0, math.inf)
    w: Callable = field(init=False, repr=False, compare=False)
    w_prime: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", _quiet(self.raw_w))
        object.__setattr__(self, "w_prime", _quiet(self.raw_w_prime))


def _arr(x):
    return np.asarray(x, dtype=float)


def _quiet(f):
    def wrapped(x):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return f(x)
    return wrapped


_WEIGHTS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "power": (("c",), lambda p: WeightFunction(
        "power", p,
        lambda x: _arr(x) ** p["c"],
        lambda x: p["c"] * _arr(x) ** (p["c"] - 1.0))),
    "scaled_power": (("alpha", "beta"), lambda p: WeightFunction(
        "scaled_power", p,
        lambda x: (_arr(x) / p["beta"]) ** p["alpha"],
        lambda x: (p["alpha"] / p["beta"]) * (_arr(x) / p["beta"]) ** (p["alpha"] - 1.0))),
    "log1p_power": (("c",), lambda p: WeightFunction(
        "log1p_power", p,
        lambda x: np.log1p(_arr(x) ** p["c"]),
        lambda x: p["c"] * _arr(x) ** (p["c"] - 1.0) / (1.0 + _arr(x) ** p["c"]))),
    "neg_log_sq": ((), lambda p: WeightFunction(
        "neg_log_sq", p,
        lambda x: -np.log1p(-_arr(x) ** 2),
        lambda x: 2.0 * _arr(x) / (1.0 - _arr(x) ** 2),
        Interval(0.0, 1.0))),
    "exp_shift_sq": ((), lambda p: WeightFunction(
        "exp_shift_sq", p,
        lambda x: np.exp((_arr(x) + 1.0) ** 2) - math.e,
        lambda x: 2.0 * (_arr(x) + 1.0) * np.exp((_arr(x) + 1.0) ** 2))),
    "expm1": ((), lambda p: WeightFunction(
        "expm1", p,
        lambda x: np.expm1(_arr(x)),
        lambda x: np.exp(_arr(x)))),
    "neg_x_log1m": ((), lambda p: WeightFunction(
        "neg_x_log1m", p,
        lambda x: -_arr(x) - np.log1p(-_arr(x)),
        lambda x: _arr(x) / (1.0 - _arr(x)),
        Interval(0.0, 1.0))),
    "linear": ((), lambda p: WeightFunction(
        "linear", p,
        lambda x: _arr(x),
        lambda x: np.ones_like(_arr(x)))),
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


def _tail_table(weight: WeightFunction, dist: DistributionHandle) -> CdfTable:
    """The cdf table of w'(x) * sf(x) over the support; its total is E[w(X)].
    A negative w'*sf, a pass that does not converge, or a total that is not
    a positive finite number raises IntegrabilityError."""
    rng = Interval(dist.support.lo, min(dist.support.hi, weight.domain_hint.hi))
    try:
        table = tabulate_cdf(tail_integrand(weight, dist), rng)
    except NegativeDensityError as exc:
        raise IntegrabilityError(f"w'*sf for {weight.describe()} against {dist.describe()} "
                                 f"is negative at x = {exc.x:.6g}") from exc
    except AccuracyError as exc:
        raise IntegrabilityError(
            f"integral of w'*sf for {weight.describe()} against {dist.describe()} "
            f"did not converge (best estimate {exc.estimate:.4g})") from exc
    if not math.isfinite(table.total) or table.total <= 0:
        raise IntegrabilityError(
            f"normalizer for {weight.describe()} against {dist.describe()} "
            f"is not a positive finite number: {table.total}")
    return table


def weight_normalizer_integral(weight: WeightFunction, dist: DistributionHandle) -> float:
    """E[w(X)] computed as the integral of w'(x) * sf(x) over the support."""
    return _tail_table(weight, dist).total


def validate_weight(weight: WeightFunction, dist: DistributionHandle) -> CdfTable:
    """The cdf table of w'(x) * sf(x) for an admissible pair, whose total is
    E[w(X)]; a pair whose pass does not reach a positive finite total raises
    IntegrabilityError. Every catalog weight starts at zero and is
    nondecreasing, which the tests check family by family, so integrability
    is the one condition left to the pair."""
    if dist.support.lo != 0.0:
        raise ValueError("weight validation requires a base distribution with lower bound 0")
    try:
        return _tail_table(weight, dist)
    except IntegrabilityError as exc:
        raise IntegrabilityError(f"weight {weight.describe()} is not admissible for "
                                 f"{dist.describe()}: {exc}") from exc
