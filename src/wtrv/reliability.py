"""Reliability functionals and aging-class checks.

Provides the hazard rate, reversed hazard rate, mean residual life, and
Glaser function of a distribution handle, and a grid-based aging classifier
for the ILR/DLR, IFR/DFR, and DMRL/IMRL classes. The hazard and the Glaser
function are evaluated on the whole grid at once.

Grid checks are one-sided: a violation disproves membership, absence of a
violation on the grid supports it but proves nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionHandle
from .numerics import (AccuracyError, Interval, _gk15_cells, integrate_adaptive,
                       scalar_or_array)
from .weights import IntegrabilityError


class TailError(ValueError):
    """Functional requested at a point where the defining ratio degenerates."""


AGING_CLASSES = ("ILR", "DLR", "IFR", "DFR", "DMRL", "IMRL")


def _pdf_ratio(x, dist: DistributionHandle, den, what: str):
    d = den(x)
    if np.any(d <= 0.0):
        raise TailError(f"{what} vanishes on the requested points of {dist.describe()}")
    return dist.pdf(x) / d


def hazard(dist: DistributionHandle, x):
    """Failure rate pdf(x)/sf(x)."""
    return _pdf_ratio(x, dist, dist.sf, "survival function")


def reversed_hazard(dist: DistributionHandle, x):
    """Reversed failure rate pdf(x)/cdf(x)."""
    return _pdf_ratio(x, dist, dist.cdf, "cdf")


@scalar_or_array
def _residual_life(x, dist: DistributionHandle):
    grid = x.ravel()
    s = dist.sf(grid)
    if np.any(s <= 0.0):
        raise TailError(f"survival function vanishes at {grid[np.argmax(s <= 0.0)]} "
                        f"for {dist.describe()}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        seg = _gk15_cells((dist.sf,), grid[:-1], grid[1:], [0, grid.size - 1])[0]
    try:
        tail = integrate_adaptive(dist.sf, Interval(float(grid[-1]), dist.support.hi),
                                  abs_tol=1e-11, rel_tol=1e-8).value
    except AccuracyError as exc:
        raise IntegrabilityError(
            f"residual-life integral of {dist.describe()} past {grid[-1]} did not "
            f"converge (best estimate {exc.estimate:.4g})") from exc
    cum = tail + np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    return (cum / s).reshape(x.shape)


def mrl(dist: DistributionHandle, x):
    """Mean residual life: integral of sf over (x, hi) divided by sf(x), at
    one point or on an increasing grid: GK15 between neighbouring points and
    one adaptive quadrature past the last. TailError names the first point
    where sf vanishes; a divergent tail integral raises IntegrabilityError."""
    return _residual_life(x, dist)


_H_REL = 1e-6  # glaser's central-difference step, relative to 1 + |x|
_U_LO, _U_HI = 0.005, 0.995  # the quantile levels at the ends of _interior_grid


@scalar_or_array
def _log_pdf_slope(x, dist: DistributionHandle):
    lo, hi = dist.support.lo, dist.support.hi
    h = _H_REL * (1.0 + np.abs(x))
    close = (x - h <= lo) | (math.isfinite(hi) & (x + h >= hi))
    with np.errstate(all="ignore"):
        fp = dist.pdf(x + h)
        fm = dist.pdf(x - h)
    bad = close | (fp <= 0.0) | (fm <= 0.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        xi = float(x.flat[i])
        if close.flat[i]:
            raise TailError(f"point {xi} too close to the support boundary of {dist.describe()}")
        raise TailError(f"pdf vanishes near {xi} for {dist.describe()}")
    return -(np.log(fp) - np.log(fm)) / (2.0 * h)


def glaser(dist: DistributionHandle, x):
    """Glaser function -pdf'(x)/pdf(x), via central differences of log pdf
    with step _H_REL·(1 + |x|); TailError names the first point too close to
    the support boundary or where the pdf vanishes."""
    return _log_pdf_slope(x, dist)


def _check_grid_size(grid_size: int) -> None:
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")


def _interior_grid(dist: DistributionHandle, grid_size: int) -> np.ndarray:
    """The distinct quantiles of grid_size levels from _U_LO to _U_HI."""
    u = np.linspace(_U_LO, _U_HI, grid_size)
    return np.unique(dist.quantile(u))


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


def classify_aging(dist: DistributionHandle, grid_size: int = 128) -> AgingReport:
    """Grid classification of the six aging classes, with the implication
    chain (ILR implies IFR implies DMRL; DLR implies DFR implies IMRL)
    applied as closure so marginal numerical misses cannot break it."""
    _check_grid_size(grid_size)
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
        record(grid, hazard(dist, grid), "IFR", "DFR")
    except TailError as exc:
        failures["hazard"] = str(exc)

    try:
        record(grid, mrl(dist, grid), "IMRL", "DMRL")
    except (TailError, IntegrabilityError):
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
