"""Runs the benchmark's ``wtrv`` CLI operations in a process of their own.

    python3 perfbench/worker.py [--trace]

Started by ``run.py`` with ``src/`` on ``PYTHONPATH``. Reads one JSON object
per line on standard input and answers each on standard output with one:

- ``{"argv": [...], "trace": bool}`` runs ``wtrv.cli.main(argv)``; the
  answer has ``ok`` (exit code 0) and ``raw`` (wall seconds of the call),
  plus the per-layer ``self`` seconds and ``counts`` of ``spans.Tracer`` for
  a traced operation.
- ``{"kernel": true}`` times one call of the reference kernel; the answer
  has ``kernel_s``. The kernel runs here, not in ``run.py``, because the
  host's speed can differ between the CPUs the two processes run on.

When its input ends it answers with its peak resident set size in MB and
exits.

The process imports ``wtrv``, ``refkernel`` (NumPy only) and, with
``--trace``, ``spans``; the output checks run in ``run.py``. So its peak
memory is the program's alone.
"""

import json
import os
import resource
import sys
import time


def main() -> None:
    reply = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # whatever the program prints goes to standard error
    from wtrv import cli
    import refkernel
    tracer = None
    if "--trace" in sys.argv[1:]:
        import spans
        tracer = spans.Tracer()
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("kernel"):
            reply.write(json.dumps({"kernel_s": refkernel.time_kernel()}) + "\n")
            reply.flush()
            continue
        traced = bool(request["trace"])
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            ok = cli.main(request["argv"]) == 0
            raw = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        answer = {"ok": ok, "raw": raw}
        if traced:
            answer["self"], answer["counts"] = tracer.take()
        reply.write(json.dumps(answer) + "\n")
        reply.flush()
    reply.write(json.dumps(
        {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}) + "\n")
    reply.flush()


if __name__ == "__main__":
    main()
