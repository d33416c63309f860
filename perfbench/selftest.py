"""Self-test of the output checks: each one rejects a corrupted output.

    python3 perfbench/selftest.py

Runs one operation of every kind, confirms that its check accepts the real
output, then corrupts the output in several ways and confirms that the check
rejects each corruption. Exits with 1 if any check gets either case wrong.
"""

import csv
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from wtrv import cli  # noqa: E402


def _json_edit(edit):
    def corrupt(text):
        obj = json.loads(text)
        edit(obj)
        return json.dumps(obj)
    return corrupt


def _csv_scale(row: int, factor: float):
    def corrupt(text):
        rows = list(csv.reader(io.StringIO(text)))
        rows[row][0] = repr(float(rows[row][0]) * factor)
        return "\n".join(",".join(r) for r in rows) + "\n"
    return corrupt


def _scale(key, i, factor):
    def edit(obj):
        obj[key][i] *= factor
    return edit


def _set(path, value):
    def edit(obj):
        *head, last = path
        for k in head:
            obj = obj[k]
        obj[last] = value
    return edit


def _shift(path, delta):
    def edit(obj):
        *head, last = path
        for k in head:
            obj = obj[k]
        obj[last] += delta
    return edit


def _wk_below_kw(obj):
    obj["models"]["wk"]["loglik"] = obj["models"]["kw"]["loglik"] - 1e-3


CORRUPTIONS = {
    "verify-theorem": {
        "conclusion reported as failing": _json_edit(_set(("conclusion", "holds_on_grid"), False)),
        "hypotheses_pass contradicts the hypotheses": _json_edit(
            lambda o: o["hypotheses"].update({k: False for k in list(o["hypotheses"])[:1]})),
        "report for another result": _json_edit(_set(("conclusion_order",), "st2")),
    },
    "check-aging": {
        "ILR flipped": _json_edit(lambda o: o["classes"].update(ILR=not o["classes"]["ILR"])),
        "IMRL flipped": _json_edit(lambda o: o["classes"].update(IMRL=not o["classes"]["IMRL"])),
    },
    "construct": {
        "one quantile off by 1e-6 (relative)": _json_edit(_scale("x", 500, 1 + 1e-6)),
        "one pdf value off by 1e-6 (relative)": _json_edit(_scale("pdf", 10, 1 + 1e-6)),
        "normaliser off by 1e-7 (relative)": _json_edit(
            lambda o: o.update(normalizer=o["normalizer"] * (1 + 1e-7))),
    },
    "simulate": {
        "one draw off by 1e-9 (relative)": _csv_scale(17, 1 + 1e-9),
        "last draw off by 1e-9 (relative)": _csv_scale(-1, 1 - 1e-9),
    },
    "report": {
        "beta loglik off by 1e-6": _json_edit(_shift(("models", "beta", "loglik"), 1e-6)),
        "wk loglik below kw": _json_edit(_wk_below_kw),
        "kw KS statistic off by 1e-6": _json_edit(
            _shift(("models", "kw", "tests", "ks", "statistic"), 1e-6)),
        "AD p-value above 1": _json_edit(_set(("models", "wk", "tests", "ad", "p_value"), 1.2)),
        "describe mean off": _json_edit(_shift(("describe", "mean"), 1e-3)),
    },
}


def main() -> int:
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    out = os.path.join(workdir, "out")
    bad = 0
    try:
        ops = {}
        for name in ("audit", "draw", "report"):
            for op in workloads.WORKLOADS[name](7, workdir).round(0):
                ops.setdefault(op.kind, op)
        for kind, op in ops.items():
            if cli.main(op.argv + ["--out", out]) != 0:
                print(f"FAIL {kind}: the operation itself failed")
                bad += 1
                continue
            with open(out) as fh:
                text = fh.read()
            errs, _ = workloads.check(op, text)
            print(f"{'ok  ' if not errs else 'FAIL'} {kind}: real output accepted {errs[:1]}")
            bad += bool(errs)
            for label, corrupt in CORRUPTIONS[kind].items():
                errs, _ = workloads.check(op, corrupt(text))
                print(f"{'ok  ' if errs else 'FAIL'} {kind}: rejects {label}")
                bad += not errs
        floor = workloads.WORKLOADS["audit"](7, workdir).summary_errors(
            [{"hypotheses_pass": i % 4 == 0} for i in range(40)])
        print(f"{'ok  ' if floor else 'FAIL'} audit: rejects a run where 10/40 hypotheses pass")
        bad += not floor
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{bad} failure(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
