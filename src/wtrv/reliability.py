"""Reliability functionals and aging-class checks.

Provides the hazard rate, reversed hazard rate, mean residual life, and
Glaser function of a distribution handle, a grid-based aging classifier for
the ILR/DLR, IFR/DFR, and DMRL/IMRL classes, and hypothesis/conclusion
checkers for the aging-preservation results of the construction, driven by
one table of results. The hazard and the Glaser function are evaluated on
the whole grid at once.

Grid checks are one-sided: a violation disproves membership, absence of a
violation on the grid supports it but proves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .distributions import DistributionHandle
from .numerics import (AccuracyError, Interval, _gk15_cells, integrate_adaptive,
                       scalar_or_array)
from .weights import IntegrabilityError, WeightFunction


class TailError(ValueError):
    """Functional requested at a point where the defining ratio degenerates."""


AGING_CLASSES = ("ILR", "DLR", "IFR", "DFR", "DMRL", "IMRL")


@scalar_or_array
def _pdf_ratio(x, dist: DistributionHandle, den, what: str):
    d = np.asarray(den(x), dtype=float)
    if np.any(d <= 0.0):
        raise TailError(f"{what} vanishes on the requested points of {dist.describe()}")
    return np.asarray(dist.pdf(x), dtype=float) / d


def hazard(dist: DistributionHandle, x):
    """Failure rate pdf(x)/sf(x)."""
    return _pdf_ratio(x, dist, dist.sf, "survival function")


def reversed_hazard(dist: DistributionHandle, x):
    """Reversed failure rate pdf(x)/cdf(x)."""
    return _pdf_ratio(x, dist, dist.cdf, "cdf")


def mrl(dist: DistributionHandle, x: float) -> float:
    """Mean residual life: integral of sf over (x, hi) divided by sf(x)."""
    s = float(dist.sf(x))
    if s <= 0.0:
        raise TailError(f"survival function vanishes at {x} for {dist.describe()}")
    try:
        res = integrate_adaptive(lambda t: np.asarray(dist.sf(t), dtype=float),
                                 Interval(float(x), dist.support.hi),
                                 abs_tol=1e-11, rel_tol=1e-9)
    except AccuracyError as exc:
        raise IntegrabilityError(
            f"residual-life integral of {dist.describe()} at {x} did not converge "
            f"(best estimate {exc.estimate:.4g})") from exc
    return res.value / s


@scalar_or_array
def _log_pdf_slope(x, dist: DistributionHandle, h_rel: float):
    lo, hi = dist.support.lo, dist.support.hi
    h = h_rel * (1.0 + np.abs(x))
    close = (x - h <= lo) | (math.isfinite(hi) & (x + h >= hi))
    with np.errstate(all="ignore"):
        fp = np.asarray(dist.pdf(x + h), dtype=float)
        fm = np.asarray(dist.pdf(x - h), dtype=float)
    bad = close | (fp <= 0.0) | (fm <= 0.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        xi = float(x.flat[i])
        if close.flat[i]:
            raise TailError(f"point {xi} too close to the support boundary of {dist.describe()}")
        raise TailError(f"pdf vanishes near {xi} for {dist.describe()}")
    return -(np.log(fp) - np.log(fm)) / (2.0 * h)


def glaser(dist: DistributionHandle, x, h_rel: float = 1e-6):
    """Glaser function -pdf'(x)/pdf(x), via central differences of log pdf;
    TailError names the first point too close to the support boundary or
    where the pdf vanishes."""
    return _log_pdf_slope(x, dist, h_rel)


def _interior_grid(dist: DistributionHandle, grid_size: int,
                   u_lo: float = 0.005, u_hi: float = 0.995) -> np.ndarray:
    u = np.linspace(u_lo, u_hi, grid_size)
    return np.unique(np.asarray(dist.quantile(u), dtype=float))


def _monotone(xs: np.ndarray, vals: np.ndarray, slack_rel: float = 5e-7):
    """(nondecreasing, nonincreasing, witness) on finite pairs of a grid."""
    ok = np.isfinite(vals)
    x, v = xs[ok], vals[ok]
    if len(v) < 3:
        return False, False, None
    scale = float(np.max(np.abs(v)))
    slack = slack_rel * max(scale, 1e-300)
    d = np.diff(v)
    inc_bad = np.nonzero(d < -slack)[0]
    dec_bad = np.nonzero(d > slack)[0]
    witness = None
    if inc_bad.size:
        i = int(inc_bad[0])
        witness = (float(x[i]), float(x[i + 1]), float(v[i]), float(v[i + 1]))
    elif dec_bad.size:
        i = int(dec_bad[0])
        witness = (float(x[i]), float(x[i + 1]), float(v[i]), float(v[i + 1]))
    return inc_bad.size == 0, dec_bad.size == 0, witness


def _slopes(xs: np.ndarray, vals: np.ndarray):
    ok = np.isfinite(vals) & np.isfinite(xs)
    x, v = xs[ok], vals[ok]
    dx = np.diff(x)
    keep = dx > 0
    return x[:-1][keep], np.diff(v)[keep] / dx[keep]


def concavity_on_grid(xs: np.ndarray, vals: np.ndarray, slack_rel: float = 1e-9):
    """(concave_ok, convex_ok): divided-difference slopes monotone on the grid."""
    sx, s = _slopes(xs, vals)
    if len(s) < 2:
        return False, False
    nondec, noninc, _ = _monotone(sx, s, slack_rel=slack_rel)
    return noninc, nondec


def log_concavity_on_grid(xs: np.ndarray, vals: np.ndarray, slack_rel: float = 1e-9):
    """(log_concave_ok, log_convex_ok) for a positive function sampled on a grid."""
    v = np.asarray(vals, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(v > 0, np.log(np.maximum(v, 1e-300)), np.nan)
    if np.count_nonzero(np.isfinite(logs)) < len(v) - 2:
        return False, False
    return concavity_on_grid(xs, logs, slack_rel=slack_rel)


@dataclass(frozen=True)
class AgingReport:
    classes: dict[str, bool]
    grid: np.ndarray = field(repr=False)
    witnesses: dict[str, tuple] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for a, b in (("ILR", "IFR"), ("IFR", "DMRL"), ("DFR", "IMRL")):
            if self.classes.get(a) and not self.classes.get(b):
                raise ValueError(f"inconsistent aging flags: {a} without {b}")


def _mrl_grid(dist: DistributionHandle, grid: np.ndarray) -> np.ndarray:
    """Mean residual life on an increasing grid via one batched quadrature."""
    sf = lambda t: np.asarray(dist.sf(t), dtype=float)
    seg = _gk15_cells(sf, grid[:-1], grid[1:])[0]
    hi = dist.support.hi
    try:
        tail = integrate_adaptive(sf, Interval(float(grid[-1]), hi),
                                  abs_tol=1e-11, rel_tol=1e-8).value
    except AccuracyError:
        return np.full_like(grid, np.nan)
    cum = tail + np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    s = np.asarray(dist.sf(grid), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s > 0, cum / np.maximum(s, 1e-300), np.nan)


def classify_aging(dist: DistributionHandle, grid_size: int = 128) -> AgingReport:
    """Grid classification of the six aging classes, with the implication
    chain (ILR implies IFR implies DMRL; DLR implies DFR implies IMRL)
    applied as closure so marginal numerical misses cannot break it."""
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    grid = _interior_grid(dist, grid_size)
    classes = {c: False for c in AGING_CLASSES}
    witnesses: dict[str, tuple] = {}
    failures: dict[str, str] = {}

    def record(xs, vals, inc_class, dec_class):
        nondec, noninc, witness = _monotone(xs, vals, slack_rel=5e-7)
        classes[inc_class], classes[dec_class] = nondec, noninc
        if witness is not None:
            for c in (inc_class, dec_class):
                if not classes[c]:
                    witnesses[c] = witness

    try:
        record(grid[1:-1], glaser(dist, grid[1:-1]), "ILR", "DLR")
    except TailError as exc:
        failures["glaser"] = str(exc)

    try:
        record(grid, np.asarray(hazard(dist, grid), dtype=float), "IFR", "DFR")
    except TailError as exc:
        failures["hazard"] = str(exc)

    m = _mrl_grid(dist, grid)
    if np.isfinite(m).sum() >= 3:
        record(grid, m, "IMRL", "DMRL")
    else:
        failures["mrl"] = "residual-life integral unavailable on the grid"

    # implication closure
    if classes["ILR"]:
        classes["IFR"] = True
    if classes["DLR"] and not dist.support.is_finite:
        classes["DFR"] = True
    if classes["IFR"]:
        classes["DMRL"] = True
    if classes["DFR"]:
        classes["IMRL"] = True
    for c in AGING_CLASSES:
        if classes[c]:
            witnesses.pop(c, None)
    return AgingReport(classes=classes, grid=grid, witnesses=witnesses, failures=failures)


@dataclass(frozen=True)
class ConditionReport:
    which: str
    hypotheses: dict[str, bool]
    hypotheses_pass: bool
    conclusion: str
    conclusion_pass: Optional[bool]
    detail: str = ""


# Each aging result: its branches, tried in order, as (hypothesis keys,
# conclusion, target), and the conclusion reported when no branch holds.
# A target is an aging class of X_w, or an lr-ordered pair of "X" and "X_w".
_AGING_RESULTS = {
    "prop1": ([(("X_IFR", "w_prime_log_concave"), "X_w is ILR", "ILR"),
               (("X_DFR", "w_prime_log_convex"), "X_w is DLR", "DLR")],
              "X_w is ILR or DLR"),
    "thm1": ([(("X_IFR", "ratio_increasing", "ratio_log_concave"), "X_w is IFR", "IFR")],
             "X_w is IFR"),
    "thm2": ([(("X_DFR", "ratio_increasing", "ratio_log_convex"), "X_w is DFR", "DFR")],
             "X_w is DFR"),
    "thm3": ([(("X_DMRL", "ratio_increasing", "ratio_log_concave", "mrl_log_convex"),
               "X_w is IFR (hence DMRL)", "IFR")], "X_w is IFR (hence DMRL)"),
    "thm4": ([(("X_IMRL", "ratio_increasing", "ratio_log_convex", "mrl_log_concave"),
               "X_w is DFR (hence IMRL)", "DFR")], "X_w is DFR (hence IMRL)"),
    "prop2": ([(("X_IFR", "w_strictly_increasing", "w_concave"), "X_w <=lr X", ("X_w", "X")),
               (("X_DFR", "w_strictly_increasing", "w_convex"), "X <=lr X_w", ("X", "X_w"))],
              "X_w <=lr X or X <=lr X_w"),
}


def _weight_over_hazard(xs, dist: DistributionHandle, w: WeightFunction):
    """w'(x)/r_X(x) = w'(x) sf(x) / pdf(x) on a grid, nan where the pdf vanishes."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        num = np.asarray(w.w_prime(xs), dtype=float) * np.asarray(dist.sf(xs), dtype=float)
        den = np.asarray(dist.pdf(xs), dtype=float)
        return np.where(den > 0, num / np.maximum(den, 1e-300), np.nan)


def _aging_facts(dist: DistributionHandle, weight: WeightFunction,
                 grid_size: int) -> dict[str, bool]:
    """Every grid hypothesis of the aging results, keyed as in _AGING_RESULTS."""
    base = classify_aging(dist, grid_size=max(grid_size, 64)).classes
    hi = min(dist.support.hi, weight.domain_hint.hi)
    if math.isinf(hi):
        grid = _interior_grid(dist, grid_size)
    else:
        grid = np.linspace(dist.support.lo, hi, grid_size + 2)[1:-1]
    ratio = _weight_over_hazard(grid, dist, weight)
    wp = np.asarray(weight.w_prime(grid), dtype=float)
    m = _mrl_grid(dist, grid)
    facts = {f"X_{c}": base[c] for c in ("IFR", "DFR", "DMRL", "IMRL")}
    facts["ratio_increasing"] = _monotone(grid, ratio)[0]
    facts["ratio_log_concave"], facts["ratio_log_convex"] = log_concavity_on_grid(grid, ratio)
    facts["w_prime_log_concave"], facts["w_prime_log_convex"] = log_concavity_on_grid(grid, wp)
    facts["w_concave"], facts["w_convex"] = concavity_on_grid(
        grid, np.asarray(weight.w(grid), dtype=float))
    facts["mrl_log_concave"], facts["mrl_log_convex"] = (
        log_concavity_on_grid(grid, m) if np.isfinite(m).sum() >= 3 else (False, False))
    facts["w_strictly_increasing"] = bool(np.all(wp[np.isfinite(wp)] > 0))
    return facts


def check_theorem_conditions(dist: DistributionHandle, weight: WeightFunction,
                             which: str, grid_size: int = 128) -> ConditionReport:
    """Grid-check the hypotheses of one aging-preservation result and, when
    they pass, verify its conclusion on the constructed variable."""
    from .construct import construct  # deferred: construct imports weights only

    if which not in _AGING_RESULTS:
        raise ValueError(f"unknown result id {which!r}; known: {', '.join(_AGING_RESULTS)}")
    branches, fallback = _AGING_RESULTS[which]
    facts = _aging_facts(dist, weight, grid_size)
    for keys, conclusion, target in branches:
        hyp = {k: facts[k] for k in keys}
        if all(hyp.values()):
            break
    else:
        hyp = {k: facts[k] for keys, _, _ in branches for k in keys}
        return ConditionReport(which, hyp, False, fallback, None, "hypotheses not met")

    try:
        built = construct(dist, weight)
    except IntegrabilityError as exc:
        return ConditionReport(which, hyp, True, conclusion, None, f"construction failed: {exc}")
    grid_size = max(grid_size, 64)
    if isinstance(target, str):
        holds = classify_aging(built, grid_size=grid_size).classes[target]
    else:
        from .orders import check_order
        named = {"X": dist, "X_w": built}
        holds = check_order(named[target[0]], named[target[1]], "lr",
                            grid_size=grid_size).holds_on_grid
    return ConditionReport(which, hyp, True, conclusion, bool(holds), "")
