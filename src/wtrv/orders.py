"""Grid-based stochastic order checks and the paper's preservation results.

Implements the likelihood ratio (lr), failure rate (fr), reversed failure
rate (rfr), and usual stochastic (st) orders as one-sided grid checks, and
one table of the aging- and order-preservation results, read by two
verifiers: each tests a result's hypotheses and, when they pass (always, for
the order results), its conclusion on the constructed variables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import reliability
from .construct import WtrvDistribution, construct, construct_all, minimum_of, wtrv_of_minimum
from .distributions import DistributionHandle, make_catalog, parse_dist_spec
from .numerics import _TABLE_TOL, WtrvError, table_quantiles
from .reliability import (_U_HI, _U_LO, AGING_CLASSES, TailError, _check_grid_size,
                          _interior_grid, _monotone, mrl)
from .weights import IntegrabilityError, WeightFunction, make_weight, parse_weight_spec

ORDER_NAMES = ("lr", "fr", "rfr", "st")


@dataclass(frozen=True)
class OrderVerdict:
    order: str
    holds_on_grid: bool
    bounds_ok: bool
    first_violation: Optional[tuple]
    grid: str

    def __bool__(self) -> bool:
        return self.holds_on_grid


def _merged_grid(x: DistributionHandle, y: DistributionHandle, grid_size: int) -> np.ndarray:
    """The union of both handles' interior grids; two constructed variables
    invert their tables in one Newton pass."""
    half = max(grid_size // 2, 32)
    if isinstance(x, WtrvDistribution) and isinstance(y, WtrvDistribution):
        return np.union1d(*table_quantiles([x.table, y.table], np.linspace(_U_LO, _U_HI, half)))
    return np.union1d(_interior_grid(x, half), _interior_grid(y, half))


def _cdf_accuracy(dist: DistributionHandle) -> float:
    """Absolute accuracy of the handle's cdf/sf: closed-form handles are
    exact to rounding; a construction carries twice its table gap, the
    Hermite's largest miss at the midpoints of its 16 pieces per cell (at 1/4,
    1/2 and 3/4 of a cell too narrow to cut), and at least twice the table
    tolerance."""
    return 2.0 * max(dist.table.gap, _TABLE_TOL) if isinstance(dist, WtrvDistribution) else 1e-12


_ORDER_SLACK = 1e-9  # check_order's, absolute
_CONCAVITY_SLACK = 1e-9  # the concavity checks', relative to the largest slope


def _ratio_nondecreasing(xs, num, den, noise=None):
    """Monotone check of log(num/den) on the finite part of the grid, up to
    _ORDER_SLACK.

    `noise` is a per-point bound on the absolute error of the log-ratio;
    a decrease is a violation only when it exceeds what that error allows.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logr = np.where((num > 0) & (den > 0) & np.isfinite(num) & np.isfinite(den),
                        np.log(np.maximum(num, 1e-300)) - np.log(np.maximum(den, 1e-300)),
                        np.nan)
    ok = np.isfinite(logr)
    x, v = xs[ok], logr[ok]
    if len(v) < 3:
        return False, None
    tol = np.full(len(v) - 1, _ORDER_SLACK)
    if noise is not None:
        nz = np.asarray(noise, dtype=float)[ok]
        tol = tol + nz[:-1] + nz[1:]
    bad = np.nonzero(np.diff(v) < -tol)[0]
    if bad.size:
        i = int(bad[0])
        return False, (float(x[i]), float(x[i + 1]), float(v[i]), float(v[i + 1]))
    return True, None


def check_order(x: DistributionHandle, y: DistributionHandle, order: str,
                grid_size: int = 128, *, grid: np.ndarray | None = None) -> OrderVerdict:
    """One-sided grid verdict for x <=_order y, up to _ORDER_SLACK and the
    handles' cdf accuracy. grid is internal: a caller that has built
    _merged_grid(x, y, grid_size) already passes it on."""
    if order not in ORDER_NAMES:
        raise ValueError(f"unknown order {order!r}; known: {', '.join(ORDER_NAMES)}")
    _check_grid_size(grid_size)
    grid = _merged_grid(x, y, grid_size) if grid is None else grid
    desc = f"merged quantile grid, {len(grid)} points"
    bounds_ok = (x.support.lo <= y.support.lo) and (x.support.hi <= y.support.hi)

    if order == "st":
        sfx, sfy = x.sf(grid), y.sf(grid)
        bad = np.nonzero(sfx > sfy + _ORDER_SLACK + _cdf_accuracy(x) + _cdf_accuracy(y))[0]
        violation = None
        if bad.size:
            i = int(bad[0])
            violation = (float(grid[i]), float(sfx[i]), float(sfy[i]))
        return OrderVerdict(order, bad.size == 0, True, violation, desc)

    if order == "lr":
        lo = max(x.support.lo, y.support.lo)
        hi = min(x.support.hi, y.support.hi)
        inner = grid[(grid > lo) & (grid < hi)]
        ok, violation = _ratio_nondecreasing(inner, y.pdf(inner), x.pdf(inner))
        return OrderVerdict(order, ok and bounds_ok, bounds_ok, violation, desc)

    if order == "fr":
        num, den = y.sf(grid), x.sf(grid)
    else:  # rfr: cdf ratio on the common support
        grid = grid[grid < min(x.support.hi, y.support.hi)]
        num, den = y.cdf(grid), x.cdf(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        noise = (_cdf_accuracy(y) / np.maximum(num, 1e-300)
                 + _cdf_accuracy(x) / np.maximum(den, 1e-300))
    ok, violation = _ratio_nondecreasing(grid, num, den, noise=noise)
    return OrderVerdict(order, ok, bounds_ok, violation, desc)


@dataclass(frozen=True)
class TheoremReport:
    which: str
    hypotheses: dict[str, bool]
    hypotheses_pass: bool
    conclusion_order: str
    conclusion: Optional[OrderVerdict]
    consistent: bool
    detail: str = ""


@dataclass(frozen=True)
class ConditionReport:
    which: str
    hypotheses: dict[str, bool]
    hypotheses_pass: bool
    conclusion: str
    conclusion_pass: Optional[bool]
    detail: str = ""


# The paper's thirteen results: for each, its branches, tried in order, as
# (hypotheses, conclusion label, conclusion), and the label reported when no
# branch holds. One rule reads every name (see _resolver): "A_o_B" is the
# grid verdict A <=_o B and "A_C" says that A is in the aging class C, for A
# and B among X, Y, Xw1 = Xw (X weighted by w1), Yw2 = Yw and the two sides
# of Theorem 7; any other name is a grid fact of _aging_facts or _order_facts.
_RESULTS = {
    "prop1": ([(("X_IFR", "w_prime_log_concave"), "X_w is ILR", "Xw_ILR"),
               (("X_DFR", "w_prime_log_convex"), "X_w is DLR", "Xw_DLR")],
              "X_w is ILR or DLR"),
    "thm1": ([(("X_IFR", "ratio_increasing", "ratio_log_concave"), "X_w is IFR", "Xw_IFR")],
             "X_w is IFR"),
    "thm2": ([(("X_DFR", "ratio_increasing", "ratio_log_convex"), "X_w is DFR", "Xw_DFR")],
             "X_w is DFR"),
    "thm3": ([(("X_DMRL", "ratio_increasing", "ratio_log_concave", "mrl_log_convex"),
               "X_w is IFR (hence DMRL)", "Xw_IFR")], "X_w is IFR (hence DMRL)"),
    "thm4": ([(("X_IMRL", "ratio_increasing", "ratio_log_convex", "mrl_log_concave"),
               "X_w is DFR (hence IMRL)", "Xw_DFR")], "X_w is DFR (hence IMRL)"),
    "prop2": ([(("X_IFR", "w_strictly_increasing", "w_concave"), "X_w <=lr X", "Xw_lr_X"),
               (("X_DFR", "w_strictly_increasing", "w_convex"), "X <=lr X_w", "X_lr_Xw")],
              "X_w <=lr X or X <=lr X_w"),
    "thm5i": ([(("l1_le_l2", "u1_le_u2", "X_fr_Y", "w2p_over_w1p_increasing", "w1p_nonzero"),
                "lr", "Xw1_lr_Yw2")], "lr"),
    "thm5ii": ([(("Xw1_lr_Yw2", "w1p_over_w2p_increasing", "w2p_nonzero"), "fr", "X_fr_Y")],
               "fr"),
    "thm6": ([(("Xw1_rfr_Yw2", "w1p_over_w2p_increasing", "w2p_nonzero",
                "w1p_nonzero_at_origin"), "st", "X_st_Y")], "st"),
    "thm7": ([(("common_weight", "same_support", "Xw_fr_X", "Yw_fr_Y"), "lr",
               "min(Xw,Yw)_lr_min(X,Y)w")], "lr"),
    "thm8": ([(("w1p_over_rX_decreasing", "w2p_over_rY_increasing", "X_st_Y"), "st",
               "Xw1_st_Yw2")], "st"),
    "thm9": ([(("w1p_over_rX_decreasing", "w2p_over_rY_increasing", "l1_le_l2", "u1_le_u2",
                "X_fr_Y"), "fr", "Xw1_fr_Yw2")], "fr"),
    "thm10": ([(("w1p_over_rX_decreasing", "w2p_over_rY_increasing", "l1_le_l2", "u1_le_u2",
                 "X_rfr_Y"), "rfr", "Xw1_rfr_Yw2")], "rfr"),
}
THEOREM_IDS = ("thm5i", "thm5ii", "thm6", "thm7", "thm8", "thm9", "thm10")
_AGING_IDS = tuple(k for k in _RESULTS if k not in THEOREM_IDS)


def _resolver(operands: dict, facts: dict, grid_size: int, xy_grid=None) -> Callable:
    """Evaluate names by the rule of _RESULTS, each at most once. `operands`
    maps a variable name to its handle, or to a function that builds it (or
    returns None when it does not exist, which makes its verdicts None);
    `facts` maps every other name to the function that computes it; the
    X, Y verdicts reuse xy_grid, their merged grid, when it is given."""
    @functools.cache
    def operand(name):
        v = operands[name]
        return v if isinstance(v, DistributionHandle) else v()

    @functools.cache
    def classes(name):
        # looked up on the module, so a wrapper installed there sees these calls
        return reliability.classify_aging(operand(name), grid_size=grid_size).classes

    @functools.cache
    def resolve(name):
        a, *rest = name.split("_")
        if len(rest) == 2 and rest[0] in ORDER_NAMES:
            x, y = operand(a), operand(rest[1])
            return None if x is None or y is None else check_order(
                x, y, rest[0], grid_size, grid=xy_grid if (a, rest[1]) == ("X", "Y") else None)
        if len(rest) == 1 and rest[0] in AGING_CLASSES:
            return classes(a)[rest[0]]
        return facts[name]()

    return resolve


def _weight_over_hazard(xs, dist: DistributionHandle, w: WeightFunction):
    """w'(x)/r_X(x) = w'(x) sf(x) / pdf(x) on a grid, nan where the pdf vanishes."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        num = w.w_prime(xs) * dist.sf(xs)
        den = dist.pdf(xs)
        return np.where(den > 0, num / np.maximum(den, 1e-300), np.nan)


def concavity_on_grid(xs: np.ndarray, vals: np.ndarray):
    """(concave_ok, convex_ok): divided-difference slopes monotone on the
    grid, up to _CONCAVITY_SLACK of their largest magnitude."""
    ok = np.isfinite(vals) & np.isfinite(xs)
    x, v = xs[ok], vals[ok]
    dx = np.diff(x)
    keep = dx > 0
    if np.count_nonzero(keep) < 2:
        return False, False
    nondec, noninc, _ = _monotone(x[:-1][keep], np.diff(v)[keep] / dx[keep], _CONCAVITY_SLACK)
    return noninc, nondec


def log_concavity_on_grid(xs: np.ndarray, vals: np.ndarray):
    """(log_concave_ok, log_convex_ok) for a positive function sampled on a grid."""
    v = np.asarray(vals, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(v > 0, np.log(np.maximum(v, 1e-300)), np.nan)
    if np.count_nonzero(np.isfinite(logs)) < len(v) - 2:
        return False, False
    return concavity_on_grid(xs, logs)


def _aging_facts(dist: DistributionHandle, weight: WeightFunction, grid_size: int) -> dict:
    """The grid facts of the aging results, each computed when first named."""
    hi = min(dist.support.hi, weight.domain_hint.hi)
    if math.isinf(hi):
        grid = _interior_grid(dist, grid_size)
    else:
        grid = np.linspace(dist.support.lo, hi, grid_size + 2)[1:-1]
    ratio = _weight_over_hazard(grid, dist, weight)
    wp, w = weight.w_prime(grid), weight.w(grid)

    def mrl_shape():
        try:
            return log_concavity_on_grid(grid, mrl(dist, grid))
        except (TailError, IntegrabilityError):
            return False, False

    return {"ratio_increasing": lambda: _monotone(grid, ratio)[0],
            "ratio_log_concave": lambda: log_concavity_on_grid(grid, ratio)[0],
            "ratio_log_convex": lambda: log_concavity_on_grid(grid, ratio)[1],
            "w_prime_log_concave": lambda: log_concavity_on_grid(grid, wp)[0],
            "w_prime_log_convex": lambda: log_concavity_on_grid(grid, wp)[1],
            "w_concave": lambda: concavity_on_grid(grid, w)[0],
            "w_convex": lambda: concavity_on_grid(grid, w)[1],
            "mrl_log_concave": lambda: mrl_shape()[0],
            "mrl_log_convex": lambda: mrl_shape()[1],
            "w_strictly_increasing": lambda: bool(np.all(wp[np.isfinite(wp)] > 0))}


def _order_facts(x: DistributionHandle, y: DistributionHandle, w1: WeightFunction,
                 w2: WeightFunction, xw, yw, grid: np.ndarray) -> dict:
    """The grid facts of the order results, each computed when first named."""
    lo = max(x.support.lo, y.support.lo)
    hi = min(x.support.hi, y.support.hi, w1.domain_hint.hi, w2.domain_hint.hi)
    inner = grid[(grid > lo) & (grid < hi)]

    def slope_ratio_increasing(wa, wb):  # w_a'/w_b', nan where w_b' vanishes
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            num, den = wa.w_prime(inner), wb.w_prime(inner)
            ratio = np.where(np.abs(den) > 0, num / np.where(den == 0, 1.0, den), np.nan)
        return _monotone(inner, ratio, 1e-9)[0]

    def slope_nonzero(w):
        return bool(np.all(np.abs(w.w_prime(inner)) > 0))

    def over_hazard(dist, w):
        g = grid[(grid > dist.support.lo) & (grid < min(dist.support.hi, w.domain_hint.hi))]
        return _monotone(g, _weight_over_hazard(g, dist, w), 1e-9)

    def slope_nonzero_at_origin():
        w1p0 = w1.w_prime(0.0)
        return w1p0 == w1p0 and w1p0 != 0.0

    return {"l1_le_l2": lambda: xw.support.lo <= yw.support.lo,
            "u1_le_u2": lambda: xw.support.hi <= yw.support.hi,
            "w1p_over_w2p_increasing": lambda: slope_ratio_increasing(w1, w2),
            "w2p_over_w1p_increasing": lambda: slope_ratio_increasing(w2, w1),
            "w1p_nonzero": lambda: slope_nonzero(w1),
            "w2p_nonzero": lambda: slope_nonzero(w2),
            "w1p_nonzero_at_origin": slope_nonzero_at_origin,
            "common_weight": lambda: (w1.name, w1.params) == (w2.name, w2.params),
            "same_support": lambda: x.support == y.support,
            "w1p_over_rX_decreasing": lambda: over_hazard(x, w1)[1],
            "w2p_over_rY_increasing": lambda: over_hazard(y, w2)[0]}


def verify_theorem(x: DistributionHandle, y: DistributionHandle,
                   w1: WeightFunction, w2: WeightFunction, which: str,
                   grid_size: int = 128, *, built: tuple | None = None) -> TheoremReport:
    """Check one order-preservation result end to end: construct the weighted
    variables, grid-test the hypotheses, test the conclusion. X_w1 and Y_w2
    are built in one table pass; a pair that construct rejects gives a
    report without verdicts whose detail holds the error of each failing
    pair. built is internal: a caller that has called construct_all on
    the two pairs already passes its results on, errors included."""
    if which not in THEOREM_IDS:
        raise ValueError(f"unknown result id {which!r}; known: {', '.join(THEOREM_IDS)}")
    _check_grid_size(grid_size)
    [(keys, order, conclusion)], _ = _RESULTS[which]
    grid = _merged_grid(x, y, grid_size)
    xw, yw = construct_all([(x, w1), (y, w2)]) if built is None else built
    failed = [v for v in (xw, yw) if isinstance(v, WtrvError)]
    if failed:
        return TheoremReport(which, {"construction_ok": False}, False, order, None,
                             True, "; ".join(map(str, failed)))
    same = x.support == y.support
    resolve = _resolver({"X": x, "Y": y, "Xw1": xw, "Xw": xw, "Yw2": yw, "Yw": yw,
                         "min(Xw,Yw)": lambda: minimum_of([xw, yw]) if same else None,
                         "min(X,Y)w": lambda: wtrv_of_minimum([x, y], w1) if same else None},
                        _order_facts(x, y, w1, w2, xw, yw, grid), grid_size, grid)
    if "common_weight" in keys and not resolve("common_weight"):
        # the result speaks of one weight; nothing else is checked
        return TheoremReport(which, {"common_weight": False}, False, order, None,
                             True, "requires a common weight for both variables")
    hyp = {k: bool(resolve(k)) for k in keys}
    verdict = resolve(conclusion)
    ok = all(hyp.values())
    return TheoremReport(which, hyp, ok, order, verdict, not ok or bool(verdict))


def check_theorem_conditions(dist: DistributionHandle, weight: WeightFunction,
                             which: str, grid_size: int = 128) -> ConditionReport:
    """Grid-check the hypotheses of one aging-preservation result and, when
    they pass, verify its conclusion on the constructed variable."""
    if which not in _AGING_IDS:
        raise ValueError(f"unknown result id {which!r}; known: {', '.join(_AGING_IDS)}")
    _check_grid_size(grid_size)
    branches, fallback = _RESULTS[which]
    operands = {"X": dist}
    resolve = _resolver(operands, _aging_facts(dist, weight, grid_size), grid_size)
    for keys, label, conclusion in branches:
        hyp = {k: bool(resolve(k)) for k in keys}
        if all(hyp.values()):
            break
    else:
        hyp = {k: bool(resolve(k)) for keys, _, _ in branches for k in keys}
        return ConditionReport(which, hyp, False, fallback, None, "hypotheses not met")
    try:
        operands["Xw"] = construct(dist, weight)
    except WtrvError as exc:
        return ConditionReport(which, hyp, True, label, None, f"construction failed: {exc}")
    return ConditionReport(which, hyp, True, label, bool(resolve(conclusion)), "")


FIXTURES = {
    # uniform base with an exponential-minus-one weight versus the
    # equilibrium of a unit exponential: fr holds, lr does not
    "thm9-example7": ("uniform()", "exponential(lambda=1)", "expm1()", "linear()", "thm9"),
    "thm10-example8": ("exponential(lambda=1)", "uniform()", "linear()", "neg_x_log1m()", "thm10"),
    "thm5i-example4": ("exponential(lambda=2)", "exponential(lambda=1)",
                       "power(c=1.5)", "power(c=2.5)", "thm5i"),
}


def named_fixture(name: str):
    """(X, Y, w1, w2, which) for a catalogued worked example."""
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; known: {', '.join(sorted(FIXTURES))}")
    xs, ys, w1s, w2s, which = FIXTURES[name]
    return (parse_dist_spec(xs), parse_dist_spec(ys),
            parse_weight_spec(w1s), parse_weight_spec(w2s), which)


def ratio_curve(xw: DistributionHandle, yw: DistributionHandle,
                grid_size: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise density ratio f_{Y_w2}/f_{X_w1} of the constructed X_w1 and
    Y_w2 on their common interior."""
    lo = max(xw.support.lo, yw.support.lo)
    hi = min(xw.support.hi, yw.support.hi)
    if math.isinf(hi):
        grid = _merged_grid(xw, yw, grid_size)
        grid = grid[grid > lo]
    else:
        grid = np.linspace(lo, hi, grid_size + 2)[1:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = yw.pdf(grid) / xw.pdf(grid)
    return grid, ratio


@dataclass(frozen=True)
class AuditReport:
    which: str
    trials: int
    hypotheses_passed: int
    conclusion_passed: int
    skipped: int
    counterexample: Optional[dict] = None


def _power(c: float) -> WeightFunction:
    return make_weight("power", {"c": c})


def _hazard_weights(u):
    return _power(u(0.5, 1.0)), _power(u(1.0, 2.5))


# Weights (w1, w2) inside each result's hypothesis class, drawn by u(lo, hi)
_AUDIT_WEIGHTS = {
    "thm5i": lambda u: (_power(k := u(0.8, 1.5)), _power(k + u(0.2, 1.5))),
    "thm5ii": lambda u: (_power(k := u(0.8, 2.0)), _power(k)),
    "thm6": lambda u: (make_weight("linear"), make_weight("linear")),
    "thm7": lambda u: (w := _power(u(0.5, 1.0)), w),
    "thm8": _hazard_weights, "thm9": _hazard_weights, "thm10": _hazard_weights,
}


def _audit_tuple(which: str, rng: np.random.Generator):
    """Random (X, Y, w1, w2) inside the hypothesis class of each result."""
    lam1 = rng.uniform(1.0, 3.0)
    lam2 = lam1 * rng.uniform(0.35, 0.95)
    return (make_catalog("exponential", {"lambda": lam1}),
            make_catalog("exponential", {"lambda": lam2}),
            *_AUDIT_WEIGHTS[which](rng.uniform))


def randomized_theorem_audit(which: str, trials: int, seed: int,
                             grid_size: int = 128) -> AuditReport:
    """Counterexample search: sample tuples from the hypothesis class,
    keep those whose hypotheses pass on the grid, assert each conclusion."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if which not in THEOREM_IDS:
        raise ValueError(f"unknown result id {which!r}; known: {', '.join(THEOREM_IDS)}")
    rng = np.random.default_rng(seed)
    hyp_pass = concl_pass = skipped = 0
    counterexample = None
    for _ in range(trials):
        x, y, w1, w2 = _audit_tuple(which, rng)
        report = verify_theorem(x, y, w1, w2, which, grid_size=grid_size)
        if not report.hypotheses_pass:
            skipped += 1
            continue
        hyp_pass += 1
        if report.conclusion is not None and report.conclusion.holds_on_grid:
            concl_pass += 1
        elif counterexample is None:
            counterexample = {"x": x.describe(), "y": y.describe(),
                              "w1": w1.describe(), "w2": w2.describe(),
                              "violation": report.conclusion.first_violation
                              if report.conclusion else None}
    return AuditReport(which=which, trials=trials, hypotheses_passed=hyp_pass,
                       conclusion_passed=concl_pass, skipped=skipped,
                       counterexample=counterexample)
