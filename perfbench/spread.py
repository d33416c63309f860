"""Run-to-run spread of the benchmark's figures.

    python3 perfbench/spread.py --workload audit --seeds 1-10 --seconds 28

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median over the runs and the distance between the first and third
quartiles as a share of the median (``statistics.quantiles(values, n=4)``).
The raw wall-clock figures from the line before each result are shown too,
so normalised and raw spreads can be compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    p.add_argument("--seconds", default="28")
    args = p.parse_args()
    first, last = (int(v) for v in args.seeds.split("-"))
    rows, walls = [], []
    for seed in range(first, last + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        walls.append(time.perf_counter() - t0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        rows.append((detail, result))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={walls[-1]:.1f}s", file=sys.stderr)
    print(f"{args.workload}: {len(rows)} runs of {args.seconds} s, "
          f"wall time per run {min(walls):.1f}-{max(walls):.1f} s")
    print(f"{'metric':48s} {'median':>12s} {'IQR/median':>10s}")
    for name in rows[0][1]["metrics"]:
        med, s = spread([r["metrics"][name]["value"] for _, r in rows])
        print(f"{name:48s} {med:12.5g} {s:10.4f}")
        if name in rows[0][0]["raw"]:
            med, s = spread([d["raw"][name] for d, _ in rows])
            print(f"{'  raw ' + name:48s} {med:12.5g} {s:10.4f}")
    shares = {r["failed"] / r["attempted"] for _, r in rows}
    print(f"failed share over runs: {sorted(shares)}; all correct: "
          f"{all(r['correct'] for _, r in rows)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
