"""Reliability functionals and aging-class checks.

Provides the hazard rate, reversed hazard rate, mean residual life, and
Glaser function of a distribution handle, a grid-based aging classifier for
the ILR/DLR, IFR/DFR, and DMRL/IMRL classes, and hypothesis/conclusion
checkers for the aging-preservation results of the construction.

Grid checks are one-sided: a violation disproves membership, absence of a
violation on the grid supports it but proves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

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


def glaser(dist: DistributionHandle, x: float, h_rel: float = 1e-6) -> float:
    """Glaser function -pdf'(x)/pdf(x), via central differences of log pdf."""
    lo, hi = dist.support.lo, dist.support.hi
    h = h_rel * (1.0 + abs(float(x)))
    if x - h <= lo or (math.isfinite(hi) and x + h >= hi):
        raise TailError(f"point {x} too close to the support boundary of {dist.describe()}")
    fp, fm = float(dist.pdf(x + h)), float(dist.pdf(x - h))
    if fp <= 0.0 or fm <= 0.0:
        raise TailError(f"pdf vanishes near {x} for {dist.describe()}")
    return -(math.log(fp) - math.log(fm)) / (2.0 * h)


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
    seg, _, _ = _gk15_cells(sf, grid[:-1], grid[1:])
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

    def record(pair, xs, vals, inc_class, dec_class):
        nondec, noninc, witness = _monotone(xs, vals, slack_rel=5e-7)
        classes[inc_class], classes[dec_class] = pair(nondec, noninc)
        if witness is not None:
            for c, ok in ((inc_class, classes[inc_class]), (dec_class, classes[dec_class])):
                if not ok:
                    witnesses[c] = witness

    try:
        eta = np.array([glaser(dist, float(x)) for x in grid[1:-1]])
        record(lambda nd, ni: (nd, ni), grid[1:-1], eta, "ILR", "DLR")
    except TailError as exc:
        failures["glaser"] = str(exc)

    try:
        r = np.asarray(hazard(dist, grid), dtype=float)
        record(lambda nd, ni: (nd, ni), grid, r, "IFR", "DFR")
    except TailError as exc:
        failures["hazard"] = str(exc)

    m = _mrl_grid(dist, grid)
    if np.isfinite(m).sum() >= 3:
        record(lambda nd, ni: (ni, nd), grid, m, "DMRL", "IMRL")
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


_THEOREM_IDS = ("prop1", "thm1", "thm2", "thm3", "thm4", "prop2")


def _weight_ratio_grid(dist: DistributionHandle, weight: WeightFunction,
                       grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid values of w'(x)/r_X(x) = w'(x) sf(x) / pdf(x)."""
    hi = min(dist.support.hi, weight.domain_hint.hi)
    if math.isinf(hi):
        grid = _interior_grid(dist, grid_size)
    else:
        grid = np.linspace(dist.support.lo, hi, grid_size + 2)[1:-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        num = np.asarray(weight.w_prime(grid), dtype=float) * np.asarray(dist.sf(grid), dtype=float)
        den = np.asarray(dist.pdf(grid), dtype=float)
        vals = np.where(den > 0, num / np.maximum(den, 1e-300), np.nan)
    return grid, vals


def check_theorem_conditions(dist: DistributionHandle, weight: WeightFunction,
                             which: str, grid_size: int = 128) -> ConditionReport:
    """Grid-check the hypotheses of one aging-preservation result and, when
    they pass, verify its conclusion on the constructed variable."""
    from .construct import construct  # deferred: construct imports weights only

    if which not in _THEOREM_IDS:
        raise ValueError(f"unknown result id {which!r}; known: {', '.join(_THEOREM_IDS)}")

    base_report = classify_aging(dist, grid_size=max(grid_size, 64))
    grid, ratio = _weight_ratio_grid(dist, weight, grid_size)
    ratio_inc, _, _ = _monotone(grid, ratio)
    ratio_lc, ratio_lx = log_concavity_on_grid(grid, ratio)
    wp = np.asarray(weight.w_prime(grid), dtype=float)
    wp_lc, wp_lx = log_concavity_on_grid(grid, wp)
    wv = np.asarray(weight.w(grid), dtype=float)
    w_concave, w_convex = concavity_on_grid(grid, wv)
    m = _mrl_grid(dist, grid)
    if np.isfinite(m).sum() >= 3:
        m_lc, m_lx = log_concavity_on_grid(grid, m)
    else:
        m_lc = m_lx = False

    def conclude_aging(target: str):
        try:
            built = construct(dist, weight)
        except IntegrabilityError as exc:
            return None, f"construction failed: {exc}"
        return bool(classify_aging(built, grid_size=max(grid_size, 64)).classes[target]), ""

    def conclude_order(first_is_wtrv: bool):
        from .orders import check_order
        try:
            built = construct(dist, weight)
        except IntegrabilityError as exc:
            return None, f"construction failed: {exc}"
        pair = (built, dist) if first_is_wtrv else (dist, built)
        return bool(check_order(pair[0], pair[1], "lr",
                                grid_size=max(grid_size, 64)).holds_on_grid), ""

    if which == "prop1":
        branch_ifr = {"X_IFR": base_report.classes["IFR"], "w_prime_log_concave": wp_lc}
        branch_dfr = {"X_DFR": base_report.classes["DFR"], "w_prime_log_convex": wp_lx}
        if all(branch_ifr.values()):
            hyp, concl = branch_ifr, "ILR"
        elif all(branch_dfr.values()):
            hyp, concl = branch_dfr, "DLR"
        else:
            hyp, concl = {**branch_ifr, **branch_dfr}, "ILR or DLR"
        ok = all(hyp.values()) and concl != "ILR or DLR"
        conclusion_pass, detail = conclude_aging(concl) if ok else (None, "hypotheses not met")
        return ConditionReport(which, hyp, ok, f"X_w is {concl}", conclusion_pass, detail)

    if which == "thm1":
        hyp = {"X_IFR": base_report.classes["IFR"],
               "ratio_increasing": ratio_inc, "ratio_log_concave": ratio_lc}
        ok = all(hyp.values())
        conclusion_pass, detail = conclude_aging("IFR") if ok else (None, "hypotheses not met")
        return ConditionReport(which, hyp, ok, "X_w is IFR", conclusion_pass, detail)

    if which == "thm2":
        hyp = {"X_DFR": base_report.classes["DFR"],
               "ratio_increasing": ratio_inc, "ratio_log_convex": ratio_lx}
        ok = all(hyp.values())
        conclusion_pass, detail = conclude_aging("DFR") if ok else (None, "hypotheses not met")
        return ConditionReport(which, hyp, ok, "X_w is DFR", conclusion_pass, detail)

    if which == "thm3":
        hyp = {"X_DMRL": base_report.classes["DMRL"], "ratio_increasing": ratio_inc,
               "ratio_log_concave": ratio_lc, "mrl_log_convex": m_lx}
        ok = all(hyp.values())
        conclusion_pass, detail = conclude_aging("IFR") if ok else (None, "hypotheses not met")
        return ConditionReport(which, hyp, ok, "X_w is IFR (hence DMRL)", conclusion_pass, detail)

    if which == "thm4":
        hyp = {"X_IMRL": base_report.classes["IMRL"], "ratio_increasing": ratio_inc,
               "ratio_log_convex": ratio_lx, "mrl_log_concave": m_lc}
        ok = all(hyp.values())
        conclusion_pass, detail = conclude_aging("DFR") if ok else (None, "hypotheses not met")
        return ConditionReport(which, hyp, ok, "X_w is DFR (hence IMRL)", conclusion_pass, detail)

    # prop2
    w_strictly_increasing = bool(np.all(wp[np.isfinite(wp)] > 0))
    branch_ifr = {"X_IFR": base_report.classes["IFR"],
                  "w_strictly_increasing": w_strictly_increasing, "w_concave": w_concave}
    branch_dfr = {"X_DFR": base_report.classes["DFR"],
                  "w_strictly_increasing": w_strictly_increasing, "w_convex": w_convex}
    if all(branch_ifr.values()):
        hyp, first_is_wtrv, concl = branch_ifr, True, "X_w <=lr X"
    elif all(branch_dfr.values()):
        hyp, first_is_wtrv, concl = branch_dfr, False, "X <=lr X_w"
    else:
        hyp = {**branch_ifr, **branch_dfr}
        return ConditionReport("prop2", hyp, False, "X_w <=lr X or X <=lr X_w",
                               None, "hypotheses not met")
    conclusion_pass, detail = conclude_order(first_is_wtrv)
    return ConditionReport("prop2", hyp, True, concl, conclusion_pass, detail)
