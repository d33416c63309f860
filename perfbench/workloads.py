"""Workloads of the benchmark: seeded CLI operations and their output checks.

Each workload turns ``(seed, round index)`` into one round of ``wtrv`` CLI
operations. A round always has the same commands in the same order; only
their inputs change, and every input is drawn afresh, so no two operations of
a run share inputs. The program receives only the generated arguments and
files.

Every output is checked against closed forms computed here with SciPy and
NumPy, apart from the program. A check returns the list of its complaints;
an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sc
from scipy import stats

# Absolute cdf accuracy of a constructed variable, as the project README
# states it (~1e-8); the order checks of the program use the same 2e-8.
CDF_TOL = 2e-8
# Relative accuracy of the normaliser and of the density, whose only error
# is the normaliser quadrature (requested at rel_tol 1e-10).
NORM_RTOL = 1e-8
# Simulated draws: the root finder stops within 1e-13 in x, and the CSV
# carries 12 significant digits.
DRAW_ATOL = 1e-12
DRAW_RTOL = 1e-11
# Log-likelihoods and KS statistics are recomputed from the same floats.
LL_RTOL = 1e-9
KS_ATOL = 1e-9
# Kw(a, b) equals WK(a, b - 1, a) for b in this range, given the fit's
# parameter box [1e-3, 1e3].
KW_IN_WK = (1.0 + 1e-3, 1.0 + 1e3)
# Share of theorem operations whose grid hypotheses must pass: every tuple
# is drawn inside the hypothesis class, so only grid misses may fail them.
HYPOTHESES_FLOOR = 0.9

THEOREM_ORDER = {"thm5i": "lr", "thm8": "st", "thm9": "fr", "thm10": "rfr"}
AGING_CLASSES = ("ILR", "DLR", "IFR", "DFR", "DMRL", "IMRL")
INCREASING = {"ILR": True, "IFR": True, "DMRL": True,
              "DLR": False, "DFR": False, "IMRL": False}

CONSTRUCT_GRID = 1000
SIMULATE_N = 200
# The moment start, the unit start and two random starts. The CLI default of
# 16 starts takes about 0.55 s per report, too slow for the 100 operations a
# run must complete within its time.
REPORT_STARTS = 4


@dataclass
class Op:
    """One CLI operation: its arguments (without ``--out``) and what the
    check needs to know about its inputs."""

    kind: str
    argv: list
    expect: dict = field(default_factory=dict)


def _f(v: float) -> str:
    return repr(float(v))


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _either(rng: np.random.Generator, low: tuple, high: tuple) -> float:
    """A shape parameter from one of two ranges on either side of 1, so the
    target's aging classes are strict."""
    lo, hi = low if rng.random() < 0.5 else high
    return float(rng.uniform(lo, hi))


# ---------------------------------------------------------------- targets

def _target(family: str, p: dict):
    """(base spec, weight spec, SciPy target, closed-form E[w(X)], shape
    deciding the aging classes) for a closed-form Table-1 pair."""
    if family == "gamma":  # exponential(lambda) + power(c) -> gamma(c, lambda)
        lam, c = p["lam"], p["c"]
        return (f"exponential(lambda={_f(lam)})", f"power(c={_f(c)})",
                stats.gamma(c, scale=1.0 / lam),
                math.exp(sc.gammaln(c + 1.0) - c * math.log(lam)), c)
    if family == "weibull":  # weibull + scaled_power of the same shape
        alpha, beta = p["alpha"], p["beta"]
        return (f"weibull(alpha={_f(alpha)},beta={_f(beta)})",
                f"scaled_power(alpha={_f(alpha)},beta={_f(beta)})",
                stats.weibull_min(alpha, scale=beta), 1.0, alpha)
    if family == "beta":  # truncated_power(beta) + power(c) -> beta(c, beta)
        beta, c = p["beta"], p["c"]
        return (f"truncated_power(beta={_f(beta)})", f"power(c={_f(c)})",
                stats.beta(c, beta), (beta - 1.0) * sc.beta(1.0 + c, beta - 1.0),
                min(c, beta))
    raise ValueError(f"unknown target family {family!r}")


def _draw_target(family: str, rng: np.random.Generator, below_one: bool) -> dict:
    """Parameters of a Table-1 pair; ``below_one`` lets the gamma and
    Weibull shapes fall below 1, where the target pdf is singular at 0."""
    low = (0.4, 0.8) if below_one else (1.3, 3.0)
    if family == "gamma":
        return {"lam": float(rng.uniform(0.5, 3.0)),
                "c": _either(rng, low, (1.3, 3.0))}
    if family == "weibull":
        return {"alpha": _either(rng, low, (1.3, 3.0)),
                "beta": float(rng.uniform(0.5, 3.0))}
    return {"beta": float(rng.uniform(1.5, 5.0)), "c": float(rng.uniform(1.3, 3.0))}


FAMILIES = ("gamma", "weibull", "beta")


# ---------------------------------------------------------------- audit

def _theorem_tuple(which: str, rng: np.random.Generator) -> dict:
    """Exponential bases and power weights inside the hypothesis class of
    each result, as the randomized audits of the program draw them."""
    lam1 = float(rng.uniform(1.0, 3.0))
    lam2 = lam1 * float(rng.uniform(0.35, 0.95))
    if which == "thm5i":
        k1 = float(rng.uniform(0.8, 1.5))
        k2 = k1 + float(rng.uniform(0.2, 1.5))
    else:
        k1 = float(rng.uniform(0.5, 1.0))
        k2 = float(rng.uniform(1.0, 2.5))
    return {"which": which, "lam1": lam1, "lam2": lam2, "k1": k1, "k2": k2}


def _theorem_op(t: dict) -> Op:
    return Op("verify-theorem", [
        "verify-theorem", t["which"],
        "--x", f"exponential(lambda={_f(t['lam1'])})",
        "--y", f"exponential(lambda={_f(t['lam2'])})",
        "--w1", f"power(c={_f(t['k1'])})", "--w2", f"power(c={_f(t['k2'])})"], t)


def _aging_op(family: str, p: dict) -> Op:
    base, weight, _, _, _ = _target(family, p)
    return Op("check-aging", ["check-aging", "--dist", base, "--weight", weight,
                              "--format", "json"], {"family": family, **p})


def _order_holds(order: str, x, y) -> bool:
    """X <=_order Y for two SciPy gamma laws, on a fine grid."""
    u = np.linspace(0.001, 0.999, 400)
    grid = np.unique(np.concatenate([x.ppf(u), y.ppf(u)]))
    if order == "st":
        return bool(np.all(x.sf(grid) <= y.sf(grid) + 1e-12))
    if order == "lr":
        r = y.logpdf(grid) - x.logpdf(grid)
    elif order == "fr":
        r = y.logsf(grid) - x.logsf(grid)
    else:
        r = y.logcdf(grid) - x.logcdf(grid)
    return bool(np.all(np.diff(r) >= -1e-9 * (1.0 + np.abs(r[1:]))))


def check_theorem(op: Op, text: str) -> list:
    t = op.expect
    rep = json.loads(text)
    errs = []
    order = THEOREM_ORDER[t["which"]]
    if rep.get("which") != t["which"] or rep.get("conclusion_order") != order:
        errs.append(f"report is for {rep.get('which')}/{rep.get('conclusion_order')}, "
                    f"expected {t['which']}/{order}")
    hyp = rep.get("hypotheses") or {}
    if not hyp or bool(rep.get("hypotheses_pass")) != all(hyp.values()):
        errs.append("hypotheses_pass disagrees with the hypotheses")
    if rep.get("hypotheses_pass"):
        # exponential + power(k) is gamma(k, lambda) in closed form
        xw = stats.gamma(t["k1"], scale=1.0 / t["lam1"])
        yw = stats.gamma(t["k2"], scale=1.0 / t["lam2"])
        truth = _order_holds(order, xw, yw)
        concl = rep.get("conclusion") or {}
        if not truth:
            errs.append(f"closed-form conclusion {order} fails for {t}")
        if concl.get("holds_on_grid") is not True or rep.get("consistent") is not True:
            errs.append(f"hypotheses pass but the conclusion does not hold: {concl}")
    return errs


def check_aging(op: Op, text: str) -> list:
    p = dict(op.expect)
    family = p.pop("family")
    shape = _target(family, p)[4]
    want = {c: (shape > 1.0) == INCREASING[c] for c in AGING_CLASSES}
    got = json.loads(text).get("classes")
    if got != want:
        return [f"{family}{p}: aging classes {got}, closed form gives {want}"]
    return []


# ---------------------------------------------------------------- draw

def _construct_op(family: str, p: dict) -> Op:
    base, weight, _, _, _ = _target(family, p)
    return Op("construct", ["construct", "--dist", base, "--weight", weight,
                            "--grid", str(CONSTRUCT_GRID), "--format", "json"],
              {"family": family, **p})


def check_construct(op: Op, text: str) -> list:
    p = dict(op.expect)
    family = p.pop("family")
    _, _, target, z, _ = _target(family, p)
    out = json.loads(text)
    x = np.asarray(out["x"], dtype=float)
    u = np.linspace(0.005, 0.995, CONSTRUCT_GRID)
    errs = []
    if x.shape != u.shape or not np.all(np.isfinite(x)):
        return [f"{family}{p}: expected {CONSTRUCT_GRID} finite quantiles"]
    cdf_err = float(np.max(np.abs(target.cdf(x) - u)))
    if cdf_err > CDF_TOL:
        errs.append(f"{family}{p}: target cdf at returned x misses u by {cdf_err:.3g}")
    pdf = np.asarray(out["pdf"], dtype=float)
    ref = target.pdf(x)
    pdf_err = float(np.max(np.abs(pdf - ref) / np.maximum(ref, 1e-300)))
    if not pdf_err <= NORM_RTOL:
        errs.append(f"{family}{p}: pdf off the closed form by {pdf_err:.3g} (relative)")
    norm_err = abs(float(out["normalizer"]) - z) / z
    if not norm_err <= NORM_RTOL:
        errs.append(f"{family}{p}: normaliser {out['normalizer']} vs closed form {z}")
    return errs


def _simulate_op(rng: np.random.Generator) -> Op:
    a, b, c = (float(rng.uniform(0.5, 3.0)) for _ in range(3))
    seed = _cli_seed(rng)
    return Op("simulate", ["simulate", "--dist",
                           f"weighted_kumaraswamy(a={_f(a)},b={_f(b)},c={_f(c)})",
                           "--n", str(SIMULATE_N), "--seed", str(seed)],
              {"a": a, "b": b, "c": c, "seed": seed})


def wk_quantile(u, a: float, b: float, c: float):
    """Closed-form weighted-Kumaraswamy quantile: X^a ~ Beta(c/a, b+1)."""
    return sc.betaincinv(c / a, b + 1.0, u) ** (1.0 / a)


def check_simulate(op: Op, text: str) -> list:
    e = op.expect
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["x"] or len(rows) != SIMULATE_N + 1:
        return [f"simulate output has {len(rows)} rows, expected a header and {SIMULATE_N}"]
    x = np.array([float(r[0]) for r in rows[1:]])
    # sample() draws u from numpy's default_rng(seed).random(n), then inverts
    u = np.random.default_rng(e["seed"]).random(SIMULATE_N)
    ref = wk_quantile(u, e["a"], e["b"], e["c"])
    err = np.abs(x - ref) - (DRAW_ATOL + DRAW_RTOL * ref)
    if not np.all(err <= 0.0):
        i = int(np.argmax(err))
        return [f"WK{e}: draw {x[i]!r} vs closed-form inverse {ref[i]!r}"]
    return []


# ---------------------------------------------------------------- report

def _write_series(path: str, rng: np.random.Generator, law: str) -> dict:
    n = int(rng.integers(30, 101))
    a = float(rng.uniform(1.0, 4.0))
    b = float(rng.uniform(1.0, 6.0))
    u = rng.random(n)
    if law == "kw":  # Kumaraswamy(a, b): X^a ~ Beta(1, b)
        params = {"a": a, "b": b}
        x = sc.betaincinv(1.0, b, u) ** (1.0 / a)
    else:
        c = float(rng.uniform(0.5, 4.0))
        params = {"a": a, "b": b, "c": c}
        x = wk_quantile(u, a, b, c)
    low, span = float(rng.uniform(100.0, 600.0)), float(rng.uniform(500.0, 2500.0))
    with open(path, "w") as fh:
        fh.write("year,rainfall_mm\n")
        for i, v in enumerate(low + span * x):
            fh.write(f"{1900 + i},{v:.3f}\n")
    return {"law": law, **params, "n": n}


def loglik(model: str, x: np.ndarray, p: dict) -> float:
    """Log-likelihood of the fitted models, from their closed-form densities."""
    if model == "beta":
        return float(np.sum(stats.beta.logpdf(x, p["alpha"], p["beta"])))
    a, b = p["a"], p["b"]
    lx, l1 = np.log(x), np.log1p(-x ** a)
    if model == "kw":
        return float(np.sum(math.log(a * b) + (a - 1.0) * lx + (b - 1.0) * l1))
    c = p["c"]
    log_norm = math.log(b) + sc.betaln(1.0 + c / a, b)
    return float(np.sum(math.log(c) + (c - 1.0) * lx + b * l1 - log_norm))


def model_cdf(model: str, p: dict):
    if model == "beta":
        return stats.beta(p["alpha"], p["beta"]).cdf
    if model == "kw":
        return lambda x: -np.expm1(p["b"] * np.log1p(-np.asarray(x) ** p["a"]))
    return lambda x: sc.betainc(p["c"] / p["a"], p["b"] + 1.0, np.asarray(x) ** p["a"])


def _read_values(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([float(r["rainfall_mm"]) for r in csv.DictReader(fh)])


def check_report(op: Op, text: str) -> list:
    out = json.loads(text)
    z = _read_values(op.expect["csv"])
    errs = []
    desc = out["describe"]
    if desc["n"] != len(z) or not math.isclose(desc["mean"], float(np.mean(z)), rel_tol=1e-12):
        errs.append(f"describe gives n={desc['n']} mean={desc['mean']}, "
                    f"data has n={len(z)} mean={np.mean(z)}")
    v = (np.sort(z) - z.min()) / (z.max() - z.min())
    x = v[(v > 0.0) & (v < 1.0)]
    models = out["models"]
    for model in ("beta", "kw", "wk"):
        m = models[model]
        ll = loglik(model, x, m["params"])
        if not math.isclose(m["loglik"], ll, rel_tol=LL_RTOL, abs_tol=LL_RTOL):
            errs.append(f"{model}: loglik {m['loglik']} vs closed form {ll}")
        ks = stats.kstest(x, model_cdf(model, m["params"])).statistic
        if not abs(m["tests"]["ks"]["statistic"] - ks) <= KS_ATOL:
            errs.append(f"{model}: KS {m['tests']['ks']['statistic']} vs scipy {ks}")
        for name, t in m["tests"].items():
            if not (t["p_value"] is not None and 0.0 <= t["p_value"] <= 1.0):
                errs.append(f"{model}: {name} p-value {t['p_value']} outside [0, 1]")
    # WK(a, b, c=a) is Kw(a, b + 1), so when the fitted Kw law lies inside
    # the WK parameter box the WK maximum cannot be lower
    kw = models["kw"]["params"]
    inside = KW_IN_WK[0] <= kw["b"] <= KW_IN_WK[1]
    if inside and not models["wk"]["loglik"] >= models["kw"]["loglik"] - LL_RTOL * (1.0 + abs(models["kw"]["loglik"])):
        errs.append(f"wk loglik {models['wk']['loglik']} below kw {models['kw']['loglik']} "
                    f"(kw {models['kw']['params']}, wk {models['wk']['params']})")
    return errs


# ---------------------------------------------------------------- rounds

class Workload:
    """A named rotation of operations; ``round(r)`` is reproducible from the
    seed and the round index alone."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, r])

    def round(self, r: int) -> list:
        raise NotImplementedError

    def summary_errors(self, flags: list) -> list:
        """Checks over the whole run; ``flags`` holds one dict per op."""
        return []


class Audit(Workload):
    """verify-theorem on thm5i/thm8/thm9/thm10 tuples, alternating with
    check-aging on closed-form Table-1 pairs."""

    name = "audit"

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for j, which in enumerate(THEOREM_ORDER):
            ops.append(_theorem_op(_theorem_tuple(which, rng)))
            family = FAMILIES[(4 * r + j) % len(FAMILIES)]
            ops.append(_aging_op(family, _draw_target(family, rng, below_one=True)))
        return ops

    def summary_errors(self, flags):
        hyp = [f["hypotheses_pass"] for f in flags if "hypotheses_pass" in f]
        if hyp and sum(hyp) < HYPOTHESES_FLOOR * len(hyp):
            return [f"only {sum(hyp)}/{len(hyp)} theorem tuples passed their "
                    f"hypotheses (floor {HYPOTHESES_FLOOR})"]
        return []


class Draw(Workload):
    """construct --grid 1000 on closed-form pairs, alternating with
    simulate of a weighted Kumaraswamy law."""

    name = "draw"

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for family in FAMILIES:
            # shapes stay above 1: below it the tabulated cdf misses the
            # stated accuracy near 0 (see CHANGES.md)
            # TODO: pass below_one=True once construct meets the cdf
            # accuracy for densities singular at 0.
            ops.append(_construct_op(family, _draw_target(family, rng, below_one=False)))
            ops.append(_simulate_op(rng))
        return ops


class Report(Workload):
    """report on rainfall-like series from Kumaraswamy and weighted
    Kumaraswamy laws, written to CSV files before the operation is timed."""

    name = "report"

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for j, law in enumerate(("kw", "wk")):
            path = os.path.join(self.workdir, f"series_{j}.csv")
            info = _write_series(path, rng, law)
            ops.append(Op("report", ["report", path, "--starts", str(REPORT_STARTS),
                                     "--seed", str(_cli_seed(rng))],
                          {"csv": path, **info}))
        return ops


WORKLOADS = {w.name: w for w in (Audit, Draw, Report)}

CHECKS = {"verify-theorem": check_theorem, "check-aging": check_aging,
          "construct": check_construct, "simulate": check_simulate,
          "report": check_report}


def check(op: Op, text: str) -> tuple:
    """(complaints, flags) for one operation's output."""
    errs = CHECKS[op.kind](op, text)
    flags = {}
    if op.kind == "verify-theorem":
        flags["hypotheses_pass"] = bool(json.loads(text).get("hypotheses_pass"))
    return errs, flags
