"""Command-line interface wiring every module together.

JSON is the machine interface (byte-identical for identical configs and
seeds); tables are for humans; plot data is emitted as CSV with a header.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import Optional

import numpy as np

from . import data as _data_mod
from . import fit as _fit_mod
from . import gof as _gof_mod
from . import orders as _orders_mod
from . import reliability as _rel_mod
from .construct import construct as _construct
from .construct import construct_all as _construct_all
from .construct import table1_oracle_suite as _table1_oracle_suite
from .distributions import parse_dist_spec, sample as _draw
from .numerics import WtrvError, value_or_raise
from .weights import parse_weight_spec


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biu" or (obj.dtype.kind == "f" and np.isfinite(obj).all()):
            return obj.tolist()  # no NaN or inf to turn into null
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and (obj != obj):
        return None
    return obj


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dumps(obj, pad: str = "\n") -> str:
    """json.dumps(obj, sort_keys=True, indent=2) for a value of _jsonable's
    output (dict keys are strings) at indentation pad. json's C encoder runs
    only without indent, so nested dicts and lists are laid out here, and a
    dict or list with no dict or list in it is encoded by the C encoder with
    the line break and indentation as its item separator. _jsonable leaves
    no container but plain dicts and lists, so nesting is read from the
    item types."""
    inner = pad + "  "
    if isinstance(obj, dict) and obj:
        if {dict, list}.isdisjoint(map(type, obj.values())):
            body = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))[1:-1]
        else:
            body = ("," + inner).join(json.dumps(k) + ": " + _dumps(v, inner)
                                      for k, v in sorted(obj.items()))
        return "{" + inner + body + pad + "}"
    if isinstance(obj, list) and obj:
        if {dict, list}.isdisjoint(map(type, obj)):
            body = json.dumps(obj, separators=("," + inner, ": "))[1:-1]
        else:
            body = ("," + inner).join(_dumps(v, inner) for v in obj)
        return "[" + inner + body + pad + "]"
    return json.dumps(obj)


def _emit_json(obj, out: Optional[str]) -> None:
    _emit(_dumps(_jsonable(obj)) + "\n", out)


def _emit_csv(header, rows, out: Optional[str]) -> None:
    lines = [",".join(header)]
    lines += [",".join([f"{v!r}" if isinstance(v, str) else f"{v:.12g}" for v in row])
              for row in rows]
    _emit("\n".join(lines) + "\n", out)


def _cmd_construct(args) -> int:
    if args.grid < 1:
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    dist = parse_dist_spec(args.dist)
    weight = parse_weight_spec(args.weight)
    built = _construct(dist, weight)
    u = np.linspace(0.005, 0.995, args.grid)
    x = built.quantile(u)
    if args.format == "json":
        _emit_json({"base": dist.describe(), "weight": weight.describe(),
                    "normalizer": built.normalizer,
                    "support": [built.support.lo, built.support.hi],
                    "x": x, "pdf": built.pdf(x), "cdf": built.cdf(x)}, args.out)
    else:
        _emit_csv(["x", "pdf", "cdf"],
                  zip(x.tolist(), built.pdf(x).tolist(), built.cdf(x).tolist()), args.out)
    return 0


def _maybe_weighted(spec: str, wspec: Optional[str]):
    dist = parse_dist_spec(spec)
    if wspec:
        return _construct(dist, parse_weight_spec(wspec))
    return dist


def _cmd_check_aging(args) -> int:
    dist = _maybe_weighted(args.dist, args.weight)
    label = dist.describe()
    report = _rel_mod.classify_aging(dist)
    if args.format == "json":
        _emit_json({"distribution": label, "classes": report.classes,
                    "witnesses": report.witnesses, "failures": report.failures},
                   args.out)
    else:
        lines = [f"aging classes for {label} "
                 f"(grid of {len(report.grid)} points; no-violation-found, not proof)"]
        for name in _rel_mod.AGING_CLASSES:
            lines.append(f"  {name:5s} {'yes' if report.classes[name] else 'no'}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_check_order(args) -> int:
    # the weighted sides are built in one table pass; X's error comes first
    sides = [(parse_dist_spec(s), w and parse_weight_spec(w))
             for s, w in ((args.x, args.wx), (args.y, args.wy))]
    built = iter(_construct_all([side for side in sides if side[1]]))
    x, y = (value_or_raise(next(built)) if w else d for d, w in sides)
    verdict = _orders_mod.check_order(x, y, args.order)
    _emit_json({"x": x.describe(), "y": y.describe(), "order": verdict.order,
                "holds_on_grid": verdict.holds_on_grid,
                "bounds_ok": verdict.bounds_ok,
                "first_violation": verdict.first_violation,
                "grid": verdict.grid}, args.out)
    return 0


def _cmd_verify_theorem(args) -> int:
    if args.which in _orders_mod.FIXTURES:
        x, y, w1, w2, which = _orders_mod.named_fixture(args.which)
    else:
        which = args.which
        if not (args.x and args.y and args.w1 and args.w2):
            raise ValueError("--x, --y, --w1, --w2 are required unless a named "
                             "fixture is given")
        x, y = parse_dist_spec(args.x), parse_dist_spec(args.y)
        w1, w2 = parse_weight_spec(args.w1), parse_weight_spec(args.w2)
    built = None
    if args.emit_ratio:
        built = _construct_all([(x, w1), (y, w2)])
        xs = ratio = np.empty(0)  # a rejected pair: the report says why
        if not any(isinstance(v, WtrvError) for v in built):
            xs, ratio = _orders_mod.ratio_curve(*built)
        _emit_csv(["x", "density_ratio"], zip(xs.tolist(), ratio.tolist()), args.emit_ratio)
    report = _orders_mod.verify_theorem(x, y, w1, w2, which, built=built)
    _emit_json(report, args.out)
    return 0


def _cmd_table1_audit(args) -> int:
    rows = _table1_oracle_suite()
    if args.format == "json":
        _emit_json(rows, args.out)
    else:
        lines = [f"{'row':>3s}  {'sup_norm':>12s}  pass  target"]
        for r in rows:
            flag = f"  [{r.note}]" if r.note else ""
            lines.append(f"{r.index:3d}  {r.sup_norm:12.3e}  "
                         f"{'yes' if r.passed else 'NO '}  {r.target}{flag}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_describe(args) -> int:
    series = _data_mod.read_csv(args.csv, args.value_column)
    stats = _data_mod.describe(series, convention=args.convention)
    _emit_json(stats, args.out)
    return 0


def _policy(flag: str) -> str:
    return flag.replace("-", "_")


def _load_sample(args):
    series = _data_mod.read_csv(args.csv, args.value_column)
    return _fit_mod.normalize(series.rainfall_mm, policy=_policy(args.policy))


def _cmd_fit(args) -> int:
    sample = _load_sample(args)
    result = _fit_mod.fit_mle(sample, args.model, starts=args.starts)
    if args.emit_density:
        grid = np.linspace(0.001, 0.999, 399)
        _emit_csv(["x", "pdf"],
                  zip(grid.tolist(), result.law.pdf(grid).tolist()),
                  args.emit_density)
    _emit_json({"model": result.model, "params": result.params,
                "loglik": result.loglik, "aic": result.aic, "bic": result.bic,
                "rmse": result.rmse, "boundary_policy": result.boundary_policy,
                "starts_tried": result.starts_tried,
                "converged": result.optimizer.converged}, args.out)
    return 0


def _cmd_gof(args) -> int:
    sample = _load_sample(args)
    result = _fit_mod.fit_mle(sample, args.model, starts=args.starts)
    values = sample.likelihood_values
    tests = _gof_mod.run_gof(values, result.law, tests=args.tests.split(","),
                             method=args.pvalue, bins=args.bins, family=args.model,
                             replicates=args.replicates, seed=args.seed)
    _emit_json({"model": args.model, "n": len(values), "tests": tests,
                "params": result.params}, args.out)
    return 0


def _cmd_report(args) -> int:
    series = _data_mod.read_csv(args.csv, args.value_column)
    stats = _data_mod.describe(series, convention=args.convention)
    sample = _fit_mod.normalize(series.rainfall_mm, policy=_policy(args.policy))
    out = {"describe": stats, "models": {}}
    fits = _fit_mod.fit_models(sample, ("beta", "kw", "wk"), starts=args.starts)
    tests = _gof_mod.run_gof(sample.likelihood_values,
                             {model: result.law for model, result in fits.items()},
                             bins=args.bins, seed=args.seed)
    for model, result in fits.items():
        out["models"][model] = {"params": result.params, "loglik": result.loglik,
                                "aic": result.aic, "bic": result.bic,
                                "rmse": result.rmse, "tests": tests[model]}
    _emit_json(out, args.out)
    return 0


def _cmd_simulate(args) -> int:
    dist = parse_dist_spec(args.dist)
    draws = _draw(dist, args.n, seed=args.seed)
    _emit_csv(["x"], zip(draws.tolist()), args.out)
    return 0


@functools.cache  # built once per process; parse_args returns a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtrv",
        description="Weighted tail random variables: construction, aging and "
                    "order checks, fitting, and goodness of fit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a weighted tail variable")
    p.add_argument("--dist", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--grid", type=int, default=201)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check-aging", help="classify aging classes on a grid")
    p.add_argument("--dist", required=True)
    p.add_argument("--weight", default=None)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_check_aging)

    p = sub.add_parser("check-order", help="check a stochastic order on a grid")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--wx", default=None)
    p.add_argument("--wy", default=None)
    p.add_argument("--order", choices=_orders_mod.ORDER_NAMES, required=True)
    p.set_defaults(func=_cmd_check_order)

    p = sub.add_parser("verify-theorem",
                       help="verify hypotheses and conclusion of a result")
    p.add_argument("which",
                   help="result id (thm5i..thm10) or a named fixture such as "
                        "thm9-example7")
    p.add_argument("--x"); p.add_argument("--y")
    p.add_argument("--w1"); p.add_argument("--w2")
    p.add_argument("--emit-ratio", default=None,
                   help="write the density-ratio curve as CSV to this path")
    p.set_defaults(func=_cmd_verify_theorem)

    p = sub.add_parser("table1-audit",
                       help="rebuild every closed-form catalog row numerically")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_table1_audit)

    p = sub.add_parser("describe", help="descriptive statistics of a CSV column")
    p.add_argument("csv")
    p.add_argument("--value-column", default="rainfall_mm")
    p.add_argument("--convention", choices=("population", "sample"),
                   default="population")
    p.set_defaults(func=_cmd_describe)

    def add_fit_flags(p):
        p.add_argument("csv")
        p.add_argument("--value-column", default="rainfall_mm")
        p.add_argument("--policy", choices=("exclude-boundary", "shrink"),
                       default="exclude-boundary")
        p.add_argument("--starts", type=int, default=16)

    p = sub.add_parser("fit", help="maximum-likelihood fit to normalized data")
    add_fit_flags(p)
    p.add_argument("--model", choices=tuple(_fit_mod.MODELS), default="wk")
    p.add_argument("--emit-density", default=None,
                   help="write the fitted (x, pdf) grid as CSV to this path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("gof", help="goodness-of-fit tests for a fitted model")
    add_fit_flags(p)
    p.add_argument("--model", choices=tuple(_fit_mod.MODELS), default="wk")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tests", default="ks,ad,cvm,chisq")
    p.add_argument("--pvalue", choices=("asymptotic", "bootstrap"),
                   default="asymptotic")
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--replicates", type=int, default=199)
    p.set_defaults(func=_cmd_gof)

    p = sub.add_parser("report",
                       help="describe, fit all models, and test goodness of fit")
    add_fit_flags(p)
    # run_gof reads the seed for a bootstrap alone, which report never runs
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--convention", choices=("population", "sample"),
                   default="population")
    p.add_argument("--bins", type=int, default=10)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("simulate", help="draw inverse-transform samples")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_simulate)

    for p in sub.choices.values():  # each command writes to --out, or to stdout
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WtrvError, ValueError, OSError) as exc:  # structured message, exit 1
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
