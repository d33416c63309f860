"""Grid-based stochastic order checks and order-preservation verifiers.

Implements the likelihood ratio (lr), failure rate (fr), reversed failure
rate (rfr), and usual stochastic (st) orders as one-sided grid checks, plus
verifiers that test the hypotheses of each order-preservation result and,
when they pass, assert its conclusion on the constructed variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .construct import construct, minimum_of, wtrv_of_minimum
from .distributions import DistributionHandle, make_catalog
from .reliability import _interior_grid, _monotone, _weight_over_hazard
from .weights import IntegrabilityError, WeightFunction, make_weight

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
    half = max(grid_size // 2, 32)
    return np.union1d(_interior_grid(x, half), _interior_grid(y, half))


def _cdf_accuracy(dist: DistributionHandle) -> float:
    """Absolute accuracy of the handle's cdf/sf: closed-form handles are
    exact to rounding; a construction carries twice its table gap, which is
    sampled at three points per cell, and at least twice the table tolerance."""
    from .construct import _TABLE_TOL, WtrvDistribution
    return 2.0 * max(dist.table_gap, _TABLE_TOL) if isinstance(dist, WtrvDistribution) else 1e-12


def _ratio_nondecreasing(xs, num, den, slack: float, noise=None):
    """Monotone check of log(num/den) on the finite part of the grid.

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
    tol = np.full(len(v) - 1, slack)
    if noise is not None:
        nz = np.asarray(noise, dtype=float)[ok]
        tol = tol + nz[:-1] + nz[1:]
    bad = np.nonzero(np.diff(v) < -tol)[0]
    if bad.size:
        i = int(bad[0])
        return False, (float(x[i]), float(x[i + 1]), float(v[i]), float(v[i + 1]))
    return True, None


def check_order(x: DistributionHandle, y: DistributionHandle, order: str,
                grid_size: int = 128, slack: float = 1e-9) -> OrderVerdict:
    """One-sided grid verdict for x <=_order y."""
    if order not in ORDER_NAMES:
        raise ValueError(f"unknown order {order!r}; known: {', '.join(ORDER_NAMES)}")
    if grid_size < 64:
        raise ValueError("grid_size must be at least 64")
    grid = _merged_grid(x, y, grid_size)
    desc = f"merged quantile grid, {len(grid)} points"
    bounds_ok = (x.support.lo <= y.support.lo) and (x.support.hi <= y.support.hi)

    if order == "st":
        sfx = np.asarray(x.sf(grid), dtype=float)
        sfy = np.asarray(y.sf(grid), dtype=float)
        bad = np.nonzero(sfx > sfy + slack + _cdf_accuracy(x) + _cdf_accuracy(y))[0]
        violation = None
        if bad.size:
            i = int(bad[0])
            violation = (float(grid[i]), float(sfx[i]), float(sfy[i]))
        return OrderVerdict(order, bad.size == 0, True, violation, desc)

    if order == "lr":
        lo = max(x.support.lo, y.support.lo)
        hi = min(x.support.hi, y.support.hi)
        inner = grid[(grid > lo) & (grid < hi)]
        num = np.asarray(y.pdf(inner), dtype=float)
        den = np.asarray(x.pdf(inner), dtype=float)
        ok, violation = _ratio_nondecreasing(inner, num, den, slack)
        return OrderVerdict(order, ok and bounds_ok, bounds_ok, violation, desc)

    if order == "fr":
        num = np.asarray(y.sf(grid), dtype=float)
        den = np.asarray(x.sf(grid), dtype=float)
    else:  # rfr: cdf ratio on the common support
        grid = grid[grid < min(x.support.hi, y.support.hi)]
        num = np.asarray(y.cdf(grid), dtype=float)
        den = np.asarray(x.cdf(grid), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        noise = (_cdf_accuracy(y) / np.maximum(num, 1e-300)
                 + _cdf_accuracy(x) / np.maximum(den, 1e-300))
    ok, violation = _ratio_nondecreasing(grid, num, den, slack, noise=noise)
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


THEOREM_IDS = ("thm5i", "thm5ii", "thm6", "thm7", "thm8", "thm9", "thm10")


def _weight_deriv_ratio(xs, wa: WeightFunction, wb: WeightFunction):
    """w_a'(x)/w_b'(x) on a grid, nan where the denominator vanishes."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        num = np.asarray(wa.w_prime(xs), dtype=float)
        den = np.asarray(wb.w_prime(xs), dtype=float)
        return np.where(np.abs(den) > 0, num / np.where(den == 0, 1.0, den), np.nan)


def _try_construct(dist, weight):
    try:
        return construct(dist, weight), ""
    except IntegrabilityError as exc:
        return None, str(exc)


def _report(which, hyp, order, conclusion, detail=""):
    ok = all(hyp.values())
    consistent = (not ok) or (conclusion is not None and conclusion.holds_on_grid)
    return TheoremReport(which=which, hypotheses=hyp, hypotheses_pass=ok,
                         conclusion_order=order, conclusion=conclusion,
                         consistent=consistent, detail=detail)


def verify_theorem(x: DistributionHandle, y: DistributionHandle,
                   w1: WeightFunction, w2: WeightFunction, which: str,
                   grid_size: int = 128) -> TheoremReport:
    """Check one order-preservation result end to end: grid-test its
    hypotheses, construct the weighted variables, test the conclusion."""
    if which not in THEOREM_IDS:
        raise ValueError(f"unknown result id {which!r}; known: {', '.join(THEOREM_IDS)}")
    grid = _merged_grid(x, y, grid_size)
    lo = max(x.support.lo, y.support.lo)
    hi = min(x.support.hi, y.support.hi, w1.domain_hint.hi, w2.domain_hint.hi)
    inner = grid[(grid > lo) & (grid < hi)]

    xw, dx = _try_construct(x, w1)
    yw, dy = _try_construct(y, w2)
    if xw is None or yw is None:
        return TheoremReport(which, {"construction_ok": False}, False, "", None,
                             True, dx or dy)
    bounds = {"l1_le_l2": xw.support.lo <= yw.support.lo,
              "u1_le_u2": xw.support.hi <= yw.support.hi}

    if which == "thm5i":
        hyp = {**bounds,
               "X_fr_Y": check_order(x, y, "fr", grid_size).holds_on_grid,
               "w2p_over_w1p_increasing": _monotone(
                   inner, _weight_deriv_ratio(inner, w2, w1), 1e-9)[0],
               "w1p_nonzero": bool(np.all(np.abs(np.asarray(w1.w_prime(inner), dtype=float)) > 0))}
        concl = check_order(xw, yw, "lr", grid_size)
        return _report(which, hyp, "lr", concl)

    if which == "thm5ii":
        hyp = {"Xw1_lr_Yw2": check_order(xw, yw, "lr", grid_size).holds_on_grid,
               "w1p_over_w2p_increasing": _monotone(
                   inner, _weight_deriv_ratio(inner, w1, w2), 1e-9)[0],
               "w2p_nonzero": bool(np.all(np.abs(np.asarray(w2.w_prime(inner), dtype=float)) > 0))}
        concl = check_order(x, y, "fr", grid_size)
        return _report(which, hyp, "fr", concl)

    if which == "thm6":
        with np.errstate(divide="ignore", invalid="ignore"):
            w1p0 = float(np.asarray(w1.w_prime(0.0), dtype=float))
        hyp = {"Xw1_rfr_Yw2": check_order(xw, yw, "rfr", grid_size).holds_on_grid,
               "w1p_over_w2p_increasing": _monotone(
                   inner, _weight_deriv_ratio(inner, w1, w2), 1e-9)[0],
               "w2p_nonzero": bool(np.all(np.abs(np.asarray(w2.w_prime(inner), dtype=float)) > 0)),
               "w1p_nonzero_at_origin": bool(w1p0 == w1p0 and w1p0 != 0.0)}
        concl = check_order(x, y, "st", grid_size)
        return _report(which, hyp, "st", concl)

    if which == "thm7":
        if w1.describe() != w2.describe():
            return TheoremReport(which, {"common_weight": False}, False, "lr", None,
                                 True, "requires a common weight for both variables")
        hyp = {"common_weight": True,
               "same_support": x.support == y.support,
               "Xw_fr_X": check_order(xw, x, "fr", grid_size).holds_on_grid,
               "Yw_fr_Y": check_order(yw, y, "fr", grid_size).holds_on_grid}
        concl = None
        if hyp["same_support"]:
            concl = check_order(minimum_of([xw, yw]), wtrv_of_minimum([x, y], w1),
                                "lr", grid_size)
        return _report(which, hyp, "lr", concl)

    # thm8 / thm9 / thm10: hazard-weighted monotonicity plus a base order
    gx = grid[(grid > x.support.lo) & (grid < min(x.support.hi, w1.domain_hint.hi))]
    gy = grid[(grid > y.support.lo) & (grid < min(y.support.hi, w2.domain_hint.hi))]
    hyp = {"w1p_over_rX_decreasing": _monotone(gx, _weight_over_hazard(gx, x, w1), 1e-9)[1],
           "w2p_over_rY_increasing": _monotone(gy, _weight_over_hazard(gy, y, w2), 1e-9)[0]}
    if which == "thm8":
        base = "st"
        hyp["X_st_Y"] = check_order(x, y, "st", grid_size).holds_on_grid
    elif which == "thm9":
        base = "fr"
        hyp.update(bounds)
        hyp["X_fr_Y"] = check_order(x, y, "fr", grid_size).holds_on_grid
    else:
        base = "rfr"
        hyp.update(bounds)
        hyp["X_rfr_Y"] = check_order(x, y, "rfr", grid_size).holds_on_grid
    concl = check_order(xw, yw, base, grid_size)
    return _report(which, hyp, base, concl)


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
    from .distributions import parse_dist_spec
    from .weights import parse_weight_spec
    if name not in FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; known: {', '.join(sorted(FIXTURES))}")
    xs, ys, w1s, w2s, which = FIXTURES[name]
    return (parse_dist_spec(xs), parse_dist_spec(ys),
            parse_weight_spec(w1s), parse_weight_spec(w2s), which)


def ratio_curve(x: DistributionHandle, y: DistributionHandle,
                w1: WeightFunction, w2: WeightFunction,
                grid_size: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise density ratio f_{Y_w2}/f_{X_w1} on the common interior."""
    xw = construct(x, w1)
    yw = construct(y, w2)
    lo = max(xw.support.lo, yw.support.lo)
    hi = min(xw.support.hi, yw.support.hi)
    if math.isinf(hi):
        grid = _merged_grid(xw, yw, grid_size)
        grid = grid[grid > lo]
    else:
        grid = np.linspace(lo, hi, grid_size + 2)[1:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.asarray(yw.pdf(grid), dtype=float) / np.asarray(xw.pdf(grid), dtype=float)
    return grid, ratio


@dataclass(frozen=True)
class AuditReport:
    which: str
    trials: int
    hypotheses_passed: int
    conclusion_passed: int
    skipped: int
    counterexample: Optional[dict] = None


def _audit_tuple(which: str, rng: np.random.Generator):
    """Random (X, Y, w1, w2) inside the hypothesis class of each result."""
    lam1 = rng.uniform(1.0, 3.0)
    lam2 = lam1 * rng.uniform(0.35, 0.95)
    if which == "thm5i":
        k1 = rng.uniform(0.8, 1.5)
        k2 = k1 + rng.uniform(0.2, 1.5)
        return (make_catalog("exponential", {"lambda": lam1}),
                make_catalog("exponential", {"lambda": lam2}),
                make_weight("power", {"c": k1}), make_weight("power", {"c": k2}))
    if which == "thm5ii":
        k = rng.uniform(0.8, 2.0)
        return (make_catalog("exponential", {"lambda": lam1}),
                make_catalog("exponential", {"lambda": lam2}),
                make_weight("power", {"c": k}), make_weight("power", {"c": k}))
    if which == "thm6":
        return (make_catalog("exponential", {"lambda": lam1}),
                make_catalog("exponential", {"lambda": lam2}),
                make_weight("linear"), make_weight("linear"))
    if which == "thm7":
        k = rng.uniform(0.5, 1.0)
        w = make_weight("power", {"c": k})
        return (make_catalog("exponential", {"lambda": lam1}),
                make_catalog("exponential", {"lambda": lam2}), w, w)
    # thm8 / thm9 / thm10
    k1 = rng.uniform(0.5, 1.0)
    k2 = rng.uniform(1.0, 2.5)
    return (make_catalog("exponential", {"lambda": lam1}),
            make_catalog("exponential", {"lambda": lam2}),
            make_weight("power", {"c": k1}), make_weight("power", {"c": k2}))


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
