"""rmlab benchmark: one run of one workload.

    python3 perfbench/run.py --workload {flagship,p7-cli,unit} --seed N
        --seconds S --trace {0,1} [--size full|small]

Run from the root of a checkout; rmlab is imported from its src/.  A run
times the set-up in five fresh interpreters (untraced runs only), then runs
whole rounds of the workload, each in a fresh interpreter (perfbench/round.py),
until S seconds have passed since the first round began.  Every metric is
the median over those rounds (or set-up samples).  With --trace 0 it prints
the end-to-end metrics, with --trace 1 the per-layer metrics of BENCHMARK.json.

The inputs are fixed instances and nothing in rmlab is random, so --seed
changes no input; it is recorded in the run's output only.  The last line
of standard output is the result object; the line before it, and the file
.perfbench/runs/<workload>-seed<N>-trace<T>.json, hold the run's record:
git sha, Python version, nproc, and every round.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter

from spans import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("flagship", "p7-cli", "unit")
SETUP_SAMPLES = 5
DEADLINE_S = 170        # a hung round is killed, so a run ends within 180 s

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "unit_digits": "digits",
}


def child(args: list, deadline: float) -> dict:
    """Run round.py with `args` in its own process group; kill the whole
    group (pool workers too) if it outlives the deadline."""
    # a fixed hash seed gives every round the same set and dict layouts
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "round.py")] + args,
        cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("round ran past the run's deadline")
    if proc.returncode:
        raise SystemExit(f"round.py {' '.join(args)} exited "
                         f"{proc.returncode}")
    record = json.loads(out.decode().strip().splitlines()[-1])
    if not record["rmlab"].startswith(SRC + os.sep):
        raise SystemExit(f"rmlab imported from {record['rmlab']}, "
                         f"not from {SRC}")
    return record


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return res.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "small"),
                    help="small: the self-test's reduced instances")
    args = ap.parse_args()
    deadline = perf_counter() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "rmlab", "__init__.py")):
        print(f"no rmlab sources under {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(STATE, "work", tag)
    common = ["--workload", args.workload, "--workdir", workdir,
              "--size", args.size]
    setups = [] if args.trace else [
        child(common + ["--setup-only"], deadline)["setup_s"]
        for _ in range(SETUP_SAMPLES)]
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        rounds.append(child(common + ["--trace", str(args.trace)], deadline))

    def median(key):
        return statistics.median(r[key] for r in rounds)

    if args.trace:
        metrics = {name: {"value": statistics.median(
                              r["per_layer"][name] for r in rounds),
                          "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        values = {"wall_s": median("wall_s"), "cpu_s": median("cpu_s"),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mib": median("peak_rss_mib"),
                  "unit_digits": median("unit_digits")
                  if all(r["unit_digits"] is not None for r in rounds)
                  else 0}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    result = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "seconds": args.seconds,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "setup_samples_s": setups,
        "rounds": rounds, "result": result,
    }
    os.makedirs(os.path.join(STATE, "runs"), exist_ok=True)
    with open(os.path.join(STATE, "runs", f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for r in rounds:
        for err in r["errors"]:
            print(err, file=sys.stderr)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
