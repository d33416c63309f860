"""Benchmark of the ``wtrv`` command-line interface.

    python3 perfbench/run.py --workload audit|draw|report --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; ``wtrv`` is imported from ``src/``.
Every operation is one CLI command, run through ``wtrv.cli.main(argv)``
with ``--out`` pointing to a scratch file in a worker process that imports
only ``wtrv`` (``worker.py``). This process generates the inputs, times the
reference kernel and checks every output against closed forms (see
``workloads.py``). The run does whole rounds of operations until
``--seconds`` have passed (and at least ``MIN_OPS`` operations are done).

Timings are speed-normalised: the reference kernel of ``refkernel.py`` is
timed before and after every pass of at least ``PASS_S`` seconds of
operations (one operation, mostly), and each operation's time is rescaled by
``NOMINAL_S`` over the mean kernel time of the passes around it. Raw
figures are printed on the line before the result, unbounded.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``.
"""

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# One BLAS thread: set before NumPy is first imported, here and in children.
THREAD_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                               "MKL_NUM_THREADS")}
SETUP_REPS = 5
SETUP_KERNEL_REPS = 30
PASS_S = 0.1
WINDOW = 10
MIN_OPS = 100

_SETUP_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
import wtrv, wtrv.cli
t1 = time.perf_counter()
sys.path.insert(0, {here!r})
import refkernel
print(json.dumps({{"import_s": t1 - t0, "kernel_s": refkernel.time_kernel({reps}),
                  "nominal_s": refkernel.NOMINAL_S, "file": wtrv.__file__}}))
"""


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def measure_setup() -> tuple:
    """(raw, normalised) median import time of wtrv and wtrv.cli in fresh
    interpreters.

    Runs before this process imports anything but the standard library. Each
    child times its imports, then the reference kernel. The median import
    time is rescaled by the kernel's nominal duration over the mean kernel
    time of all children: a single child's kernel timing covers a fraction
    of a second, too little to tell the speed its import ran at.
    """
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": SRC}
    code = _SETUP_PROBE.format(here=HERE, reps=SETUP_KERNEL_REPS)
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"importing wtrv failed:\n{proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not os.path.realpath(probe["file"]).startswith(os.path.realpath(SRC) + os.sep):
            fail(f"wtrv was imported from {probe['file']}, not from {SRC}")
        out.append(probe)
    raw = statistics.median(p["import_s"] for p in out)
    return raw, raw * out[0]["nominal_s"] / statistics.fmean(p["kernel_s"] for p in out)


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Runner:
    """Runs operations in the worker, checks their outputs, and normalises
    their timings.

    The worker times the kernel between operations, at the start and after
    every pass of at least ``PASS_S`` seconds of operations. The host
    switches between a slow and a fast state every few tens of milliseconds
    and drifts over tens of seconds, so one kernel timing says little about
    the operation next to it; the mean of the ``2 * WINDOW`` timings around a
    pass (a few seconds) estimates the speed the pass saw.
    """

    def __init__(self, out_path: str, trace: bool):
        # the worker imports wtrv while this process imports SciPy
        self.worker = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py")] + (["--trace"] if trace else []),
            cwd=ROOT, env={**os.environ, **THREAD_ENV, "PYTHONPATH": SRC},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        import refkernel
        import workloads
        self.nominal_s = refkernel.NOMINAL_S
        self.workloads = workloads
        self.out_path = out_path
        self.records = []  # per op: raw s, pass index, traced, self s, counts
        self.pass_raw = 0.0
        self.kernel_times = []
        self.errors = []
        self.flags = []
        self.attempted = self.failed = 0

    def ask(self, request: dict) -> dict:
        self.worker.stdin.write(json.dumps(request) + "\n")
        self.worker.stdin.flush()
        line = self.worker.stdout.readline()
        if not line:
            fail(f"the worker exited on {request}")
        return json.loads(line)

    def close_pass(self) -> None:
        self.kernel_times.append(self.ask({"kernel": True})["kernel_s"])
        self.pass_raw = 0.0

    def execute(self, op, traced: bool = False) -> dict:
        """Run one operation in the worker; its answer."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        return self.ask({"argv": op.argv + ["--out", self.out_path], "trace": traced})

    def timed(self, op, traced: bool) -> None:
        answer = self.execute(op, traced)
        raw = answer["raw"]
        self.attempted += 1
        if not answer["ok"]:
            self.failed += 1
        else:
            with open(self.out_path) as fh:
                errs, flags = self.workloads.check(op, fh.read())
            self.errors.extend(errs)
            self.flags.append(flags)
            self.records.append({"raw": raw, "pass": len(self.kernel_times) - 1,
                                 "traced": traced, "self": answer.get("self", {}),
                                 "counts": answer.get("counts", {})})
        self.pass_raw += raw
        if self.pass_raw >= PASS_S:
            self.close_pass()

    def finish(self) -> float:
        """End the worker; its peak resident set size in MB."""
        self.worker.stdin.close()
        line = self.worker.stdout.readline()
        self.worker.wait(timeout=60)
        if not line:
            fail("the worker exited without reporting its memory")
        return json.loads(line)["peak_rss_mb"]

    def stop(self) -> None:
        if self.worker.poll() is None:
            self.worker.kill()
        self.worker.wait()

    def normalise(self) -> None:
        """Rescale every record to the kernel's nominal speed."""
        if self.pass_raw:
            self.close_pass()
        k = self.kernel_times
        for rec in self.records:
            i = rec["pass"]
            factor = self.nominal_s / statistics.fmean(
                k[max(0, i - WINDOW + 1):i + WINDOW + 1])
            rec["norm"] = rec["raw"] * factor
            rec["self"] = {name: v * factor for name, v in rec["self"].items()}


# Per-layer metrics of the traced run, per operation: (name, unit). A name
# ending in ".self_ms" is the self time of the layer before it; any other
# name is a count kept by the tracer.
LAYER_METRICS = [
    ("numerics.integrate_adaptive.calls", "count"),
    ("numerics.integrate_adaptive.evals", "count"),
    ("numerics.integrate_adaptive.self_ms", "ms"),
    ("numerics.integrate_adaptive.budget_exhausted", "count"),
    ("weights.validate_weight.calls", "count"),
    ("weights.validate_weight.self_ms", "ms"),
    ("weights.weight_normalizer_integral.calls", "count"),
    ("weights.weight_normalizer_integral.self_ms", "ms"),
    ("construct.construct.calls", "count"),
    ("construct.construct.self_ms", "ms"),
    ("construct.table_nodes", "count"),
    ("construct.quantile.points", "count"),
    ("construct.quantile.self_ms", "ms"),
    ("numerics.brent_root.calls", "count"),
    ("numerics.brent_root.self_ms", "ms"),
    ("numerics.incomplete_beta_upper.calls", "count"),
    ("numerics.incomplete_beta_upper.self_ms", "ms"),
    ("distributions.sample.calls", "count"),
    ("distributions.sample.draws", "count"),
    ("distributions.sample.self_ms", "ms"),
    ("orders.verify_theorem.calls", "count"),
    ("orders.verify_theorem.self_ms", "ms"),
    ("orders.check_order.calls", "count"),
    ("orders.check_order.self_ms", "ms"),
    ("reliability.classify_aging.calls", "count"),
    ("reliability.classify_aging.self_ms", "ms"),
    ("reliability.glaser.calls", "count"),
    ("reliability.glaser.self_ms", "ms"),
    ("fit.fit_mle.calls", "count"),
    ("fit.fit_mle.self_ms", "ms"),
    ("fit.loglik.calls", "count"),
    ("fit.loglik.self_ms", "ms"),
    ("numerics.minimize_bounded.calls", "count"),
    ("numerics.minimize_bounded.self_ms", "ms"),
    ("numerics.minimize_bounded.iterations", "count"),
    ("numerics.minimize_bounded.raised", "count"),
    ("gof.run_gof.calls", "count"),
    ("gof.run_gof.self_ms", "ms"),
    ("gof.statistic.self_ms", "ms"),
    ("data.read_csv.self_ms", "ms"),
    ("data.describe.self_ms", "ms"),
    ("cli.main.self_ms", "ms"),
]


def layer_metrics(traced: list) -> dict:
    n = len(traced)
    self_ms, counts = {}, {}
    for rec in traced:
        for k, v in rec["self"].items():
            self_ms[k] = self_ms.get(k, 0.0) + 1e3 * v
        for k, v in rec["counts"].items():
            counts[k] = counts.get(k, 0.0) + v
    out = {}
    for name, unit in LAYER_METRICS:
        if name.endswith(".self_ms"):
            value = self_ms.get(name[:-len(".self_ms")], 0.0) / n
        else:
            value = counts.get(name, 0.0) / n
        out[name] = {"value": value, "unit": unit}
    builds = counts.get("construct.construct.calls", 0.0)
    out["weights.normalizer_per_construct"] = {
        "value": counts.get("weights.weight_normalizer_integral.calls", 0.0) / builds
        if builds else 0.0, "unit": "count"}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("audit", "draw", "report"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.environ.update(THREAD_ENV)
    if not os.path.isfile(os.path.join(SRC, "wtrv", "cli.py")):
        fail(f"no wtrv sources under {SRC}; run from the root of a checkout")

    setup = measure_setup()

    sys.path.insert(0, HERE)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    runner = None
    try:
        runner = Runner(os.path.join(workdir, "out"), bool(args.trace))
        import workloads
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        # Warm-up: one round on its own stream, neither timed nor counted.
        for op in workloads.WORKLOADS[args.workload](args.seed + 1_000_003, workdir).round(0):
            runner.execute(op)
        runner.close_pass()

        deadline = time.perf_counter() + args.seconds
        r = 0
        while True:
            traced = bool(args.trace) and r % 2 == 1
            for op in workload.round(r):
                runner.timed(op, traced)
            r += 1
            if (time.perf_counter() >= deadline and runner.attempted >= MIN_OPS
                    and (not args.trace or r >= 2)):
                break
        runner.normalise()
        peak_rss_mb = runner.finish()
    finally:
        if runner is not None:
            runner.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    errors = runner.errors + workload.summary_errors(runner.flags)
    for e in errors[:20]:
        sys.stderr.write(f"perfbench: check failed: {e}\n")
    recs = runner.records
    if not recs:
        fail("no operation completed")
    norm = [r["norm"] for r in recs if not r["traced"]]
    raw = [r["raw"] for r in recs if not r["traced"]]
    kernel = runner.kernel_times
    detail = {
        "workload": args.workload, "seed": args.seed, "rounds": r,
        "raw": {"ops_per_s": len(raw) / sum(raw), "op_p50_ms": 1e3 * statistics.median(raw),
                "op_p90_ms": 1e3 * quantile(raw, 0.9),
                "setup_s": setup[0]},
        "kernel_ms": {"mean": 1e3 * statistics.fmean(kernel), "min": 1e3 * min(kernel),
                      "max": 1e3 * max(kernel), "n": len(kernel)},
    }
    if args.trace:
        traced = [r for r in recs if r["traced"]]
        untraced_mean = statistics.fmean(norm)
        detail["trace_overhead_pct"] = 100.0 * (
            statistics.fmean(r["norm"] for r in traced) / untraced_mean - 1.0)
        metrics = layer_metrics(traced)
        detail["raised_per_op"] = {
            k: v / len(traced) for k, v in
            sum((collections.Counter(r["counts"]) for r in traced), collections.Counter()).items()
            if k.endswith(".raised")}
        metrics["trace.overhead_pct"] = {"value": detail["trace_overhead_pct"], "unit": "%"}
    else:
        metrics = {
            "setup_s": {"value": setup[1], "unit": "s"},
            "ops_per_s": {"value": len(norm) / sum(norm), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(norm), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * quantile(norm, 0.9), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps(detail))
    print(json.dumps({"correct": not errors, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
