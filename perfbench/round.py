"""One round of one workload, in a fresh interpreter.

    python3 perfbench/round.py --workload NAME --workdir DIR
        [--size full|small] [--trace 0|1] [--setup-only]

Imports rmlab (from the checkout's src/, which run.py puts on PYTHONPATH),
builds the workload, runs its operations once, checks their outputs and
prints one JSON object.  A fresh process per round makes every round pay
the same cold caches a user's run pays.  With --setup-only it times the
set-up alone and prints {"setup_s": ...}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children (pool workers)."""
    return sum(u.ru_utime + u.ru_stime for u in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--size", default="full", choices=("full", "small"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    os.makedirs(args.workdir, exist_ok=True)

    start = perf_counter()
    import workloads
    import rmlab
    tracer = None
    if args.trace:
        import spans
        tracer = spans.install()
    workload = workloads.WORKLOADS[args.workload](args.size, args.workdir)
    setup_s = perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "rmlab": rmlab.__file__}))
        return 0

    attempted = failed = 0
    errors, ops = [], {}
    cpu0, wall0 = cpu_seconds(), perf_counter()
    for name, op in workload.operations():
        attempted += 1
        t0 = perf_counter()
        try:
            ok = op()
        except Exception:       # reported as a failed, incorrect round
            ok = False
            errors.append(f"{name} raised:\n{traceback.format_exc()}")
        ops[name] = {"ok": ok, "wall_s": perf_counter() - t0}
        failed += not ok
    wall_s = perf_counter() - wall0
    cpu_s = cpu_seconds() - cpu0
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if tracer:
        tracer.enabled = False

    digits = None
    if not errors:
        check_errors, digits = workload.check()
        errors += check_errors
    result = {
        "correct": not errors,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "operations": ops,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mib": kib / 1024,
        "unit_digits": digits,
        "rmlab": rmlab.__file__,
    }
    if tracer:
        result["per_layer"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
