"""Weight functions and numeric admissibility checks.

A weight is an increasing differentiable function on [0, u) with w(0) = 0
whose derivative is absolutely integrable against the base distribution.
Integrability is verified as finiteness of the single integral of
w'(x) * sf(x), which is the same criterion as the defining double integral
for nonnegative derivatives and doubles as the construction normalizer. One
adaptive pass, numerics.tabulate_cdf, computes that integral and the cdf
table of the constructed variable together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .distributions import CatalogEntry, DistributionHandle, catalog_build, parse_kv_spec
from .numerics import AccuracyError, CdfTable, Interval, WtrvError, tabulate_cdf
from .numerics import integrate_adaptive  # noqa: F401 (re-exported)


class IntegrabilityError(WtrvError):
    """Weight derivative is not integrable against the base distribution."""


@dataclass(frozen=True)
class WeightFunction(CatalogEntry):
    name: str
    params: dict[str, float]
    w: Callable
    w_prime: Callable
    domain_hint: Interval


@dataclass(frozen=True)
class WeightValidityReport:
    starts_at_zero: bool
    nondecreasing_on_grid: bool
    integrability_ok: bool
    normalizer: float | None
    detail: str
    # the cdf table of w'(x) * sf(x) whose total is the normalizer
    table: CdfTable | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.starts_at_zero and self.nondecreasing_on_grid and self.integrability_ok


def _arr(x):
    return np.asarray(x, dtype=float)


def _quiet(f):
    def wrapped(x):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return f(x)
    wrapped.raw = f
    return wrapped


def _mk(name, params, w, w_prime, hi=math.inf):
    return WeightFunction(name=name, params=dict(params), w=_quiet(w),
                          w_prime=_quiet(w_prime),
                          domain_hint=Interval(0.0, hi))


_WEIGHTS: dict[str, tuple[tuple[str, ...], Callable]] = {
    "power": (("c",), lambda p: _mk(
        "power", p,
        lambda x: _arr(x) ** p["c"],
        lambda x: p["c"] * _arr(x) ** (p["c"] - 1.0))),
    "scaled_power": (("alpha", "beta"), lambda p: _mk(
        "scaled_power", p,
        lambda x: (_arr(x) / p["beta"]) ** p["alpha"],
        lambda x: (p["alpha"] / p["beta"]) * (_arr(x) / p["beta"]) ** (p["alpha"] - 1.0))),
    "log1p_power": (("c",), lambda p: _mk(
        "log1p_power", p,
        lambda x: np.log1p(_arr(x) ** p["c"]),
        lambda x: p["c"] * _arr(x) ** (p["c"] - 1.0) / (1.0 + _arr(x) ** p["c"]))),
    "neg_log_sq": ((), lambda p: _mk(
        "neg_log_sq", p,
        lambda x: -np.log1p(-_arr(x) ** 2),
        lambda x: 2.0 * _arr(x) / (1.0 - _arr(x) ** 2),
        hi=1.0)),
    "exp_shift_sq": ((), lambda p: _mk(
        "exp_shift_sq", p,
        lambda x: np.exp((_arr(x) + 1.0) ** 2) - math.e,
        lambda x: 2.0 * (_arr(x) + 1.0) * np.exp((_arr(x) + 1.0) ** 2))),
    "expm1": ((), lambda p: _mk(
        "expm1", p,
        lambda x: np.expm1(_arr(x)),
        lambda x: np.exp(_arr(x)))),
    "neg_x_log1m": ((), lambda p: _mk(
        "neg_x_log1m", p,
        lambda x: -_arr(x) - np.log1p(-_arr(x)),
        lambda x: _arr(x) / (1.0 - _arr(x)),
        hi=1.0)),
    "linear": ((), lambda p: _mk(
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
    """w'(x) * sf(x) from the weight's own w' and the family's interior sf,
    under the caller's errstate: the quadrature's, or that of the constructed
    pdf's handle, which also applies the edge policy. Once sf underflows to exactly
    0 the product vanishes regardless of w', and it is 0 at and beyond hi."""
    wp, sf, hi = weight.w_prime.raw, dist.sf.inside, dist.support.hi

    def integrand(x):
        d, s = wp(x), sf(x)
        return np.where(((s == 0.0) & ~np.isfinite(d)) | (x >= hi), 0.0, d * s)

    return integrand


def _tail_table(weight: WeightFunction, dist: DistributionHandle) -> CdfTable:
    """The cdf table of w'(x) * sf(x) over the support; its total is E[w(X)].
    A pass that does not converge, or a total that is not a positive finite
    number, raises IntegrabilityError."""
    rng = Interval(dist.support.lo, min(dist.support.hi, weight.domain_hint.hi))
    try:
        table = tabulate_cdf(tail_integrand(weight, dist), rng)
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


_GRID_SIZE = 256  # points of validate_weight's monotonicity grid


def validate_weight(weight: WeightFunction, dist: DistributionHandle) -> WeightValidityReport:
    """Check w(0)=0, monotonicity on a grid of _GRID_SIZE points, and
    integrability of w' against X. The report carries the cdf table of an
    integrable pair, for construct."""
    if dist.support.lo != 0.0:
        raise ValueError("weight validation requires a base distribution with lower bound 0")
    hi = min(dist.support.hi, weight.domain_hint.hi)
    w0 = float(weight.w(0.0))
    starts_at_zero = abs(w0) <= 1e-12

    if math.isinf(hi):
        grid = np.asarray(dist.quantile(np.linspace(1e-4, 1.0 - 1e-4, _GRID_SIZE)))
    else:
        grid = np.linspace(0.0, hi, _GRID_SIZE + 2)[1:-1]
    vals = _arr(weight.w(grid))
    scale = float(np.nanmax(np.abs(vals[np.isfinite(vals)]))) if np.isfinite(vals).any() else 1.0
    with np.errstate(invalid="ignore"):  # inf - inf where w overflows on the grid
        diffs = np.diff(vals)
    nondecreasing = bool(np.all(diffs[np.isfinite(diffs)] >= -1e-12 * max(scale, 1.0)))

    detail = ""
    table: CdfTable | None = None
    try:
        table = _tail_table(weight, dist)
    except IntegrabilityError as exc:
        detail = str(exc)
    return WeightValidityReport(starts_at_zero=starts_at_zero,
                                nondecreasing_on_grid=nondecreasing,
                                integrability_ok=table is not None,
                                normalizer=None if table is None else table.total,
                                detail=detail, table=table)
