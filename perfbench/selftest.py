"""Quick self-test of the benchmark (about half a minute on two cores).

    python3 perfbench/selftest.py

1. Runs every workload at its small size, untraced and traced, and checks
   that the printed result has the contract's keys, that its metric names
   and units are those of BENCHMARK.json, and that the only failed
   operation is p7-cli's verify.
2. Feeds each output check a right value, which it must accept, and wrong
   ones, which it must reject: a_0 off by a unit times p^k just below the
   certified digits, the other branch of sqrt(-3), a wrong polynomial.

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl                                  # noqa: E402
from rmlab.padic import PadicContext, padic_exp        # noqa: E402

FAILURES = []


def expect(cond: bool, what: str):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def run_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    expect([w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS),
           "BENCHMARK.json lists the workloads workloads.py defines")
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                bench["command"] + ["--workload", name, "--seed", "0",
                                    "--seconds", "1", "--trace", str(trace),
                                    "--size", "small"],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            tag = f"{name} trace {trace}"
            expect(proc.returncode == 0, f"{tag}: exit 0 ({proc.stderr})")
            if proc.returncode:
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag}: result keys")
            expect(res["correct"] is True, f"{tag}: outputs pass the checks")
            expect(res["attempted"] >= 2 and res["attempted"] % 2 == 0,
                   f"{tag}: whole rounds of two operations")
            want_failed = res["attempted"] // 2 if name == "p7-cli" else 0
            expect(res["failed"] == want_failed,
                   f"{tag}: {want_failed} failed of {res['attempted']}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == names[trace], f"{tag}: metric names and units")


def closed_form_checks():
    p5 = PadicContext(5, 32)
    a0 = wl.flagship_log(p5) / p5.from_int(12)
    good = {"residuals": {2: 21, 3: 21}, "min_residual": 21, "a0": a0,
            "e2": a0 / p5.from_int(4), "polynomial": wl.FLAGSHIP_POLY,
            "newton_ok": True, "reciprocal_ok": True}
    errors, digits = wl.check_flagship(p5, good)
    expect(not errors and digits >= 21, "flagship: closed form accepted")
    off = a0 + p5.from_int(3 * 5 ** 20)       # a unit times p^20 < 21 digits
    for e2, what in ((good["e2"], "E2 kept"), (off / p5.from_int(4),
                                               "E2 consistent")):
        errors, _ = wl.check_flagship(p5, dict(good, a0=off, e2=e2))
        expect(bool(errors), f"flagship: a_0 + 3*5^20 rejected ({what})")
    errors, _ = wl.check_flagship(p5, dict(good, residuals={2: 21, 3: 19}))
    expect(bool(errors), "flagship: residual below the bar rejected")
    errors, _ = wl.check_flagship(p5, dict(good, polynomial=(5, -6, 6)))
    expect(bool(errors), "flagship: wrong polynomial rejected")

    p7 = PadicContext(7, 32)
    a0 = (wl.p7_log(p7) / p7.from_int(12)).to_json()
    good = {"gtau_exit": 0, "gtau_a0": a0, "verify_a0": a0,
            "min_residual": 8, "cache_ns": [1, 2, 3, 4, 5, 6]}
    errors, digits = wl.check_p7(p7, 6, good)
    expect(not errors and digits >= 8, "p7-cli: closed form accepted")
    other = (wl.p7_log(p7, -1) / p7.from_int(12)).to_json()
    errors, _ = wl.check_p7(p7, 6, dict(good, gtau_a0=other,
                                        verify_a0=other))
    expect(bool(errors), "p7-cli: other branch of sqrt(-3) rejected")
    off = (wl.p7_log(p7) / p7.from_int(12)
           + p7.from_int(2 * 7 ** 7)).to_json()
    errors, _ = wl.check_p7(p7, 6, dict(good, gtau_a0=off, verify_a0=off))
    expect(bool(errors), "p7-cli: a_0 + 2*7^7 rejected")
    errors, _ = wl.check_p7(p7, 6, dict(good, verify_a0=off))
    expect(bool(errors), "p7-cli: verify's a_0 differing from gtau's rejected")
    errors, _ = wl.check_p7(p7, 6, dict(good, cache_ns=[1, 2, 3, 4, 5]))
    expect(bool(errors), "p7-cli: missing cache entry rejected")

    j = PadicContext(5, 16)
    log = wl.flagship_log(j)
    good = {"polynomial": wl.FLAGSHIP_POLY, "twist": 0, "newton_ok": True,
            "reciprocal_ok": True, "split_fraction": 1.0,
            "J": padic_exp(log)}
    errors, digits = wl.check_unit(j, 4, good)
    expect(not errors and digits >= 4, "unit: closed form accepted")
    errors, _ = wl.check_unit(j, 4, dict(good, polynomial=(1, -6, 5)))
    expect(bool(errors), "unit: wrong polynomial rejected")
    errors, _ = wl.check_unit(j, 4, dict(good, twist=1))
    expect(bool(errors), "unit: wrong torsion twist rejected")
    errors, _ = wl.check_unit(j, 4, dict(good, split_fraction=0.9))
    expect(bool(errors), "unit: low split fraction rejected")
    errors, _ = wl.check_unit(
        j, 4, dict(good, J=padic_exp(log + j.from_int(2 * 5 ** 3))))
    expect(bool(errors), "unit: J_DR off by a unit times 5^3 rejected")


def main() -> int:
    closed_form_checks()
    run_workloads()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
