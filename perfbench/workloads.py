"""The benchmark's workloads: their set-up, their operations and the checks
on their outputs.

Every input is a fixed instance from the paper's examples.  Nothing here or
in rmlab is random, so no seed changes an input.  Each workload object is
built once per round; its constructor is the set-up that ``setup_s`` times,
and ``operations()`` lists the steps of the timed body in order.  The check
functions are module-level so that the self-test can feed them wrong values.
"""

from __future__ import annotations

import json
import os
import shutil

from rmlab import cli, gsunits, padic, quadfield, siegelmeasure

# acceptance bar on fit residual valuations (tests/test_acceptance.py)
RESIDUAL_BAR = 20

# "full" is what the benchmark measures; "small" is the self-test's size
SIZES = {
    "flagship": {
        "full": {"n_max": 8, "depth": 4, "prec": 32, "degree": 4},
        "small": {"n_max": 2, "depth": 4, "prec": 32, "degree": 2},
    },
    "p7-cli": {
        "full": {"n_max": 30, "depth": 2, "prec": 32, "threads": 2},
        "small": {"n_max": 6, "depth": 2, "prec": 32, "threads": 2},
    },
    "unit": {
        "full": {"prec": 44, "budget": 30, "degree": 4, "level": 4,
                 "jdr_prec": 16},
        "small": {"prec": 32, "budget": 19, "degree": 2, "level": 2,
                  "jdr_prec": 16},
    },
}

FLAGSHIP_POLY = (5, -6, 5)      # minimal polynomial of (3+4i)/5


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------

def flagship_log(ctx: padic.PadicContext) -> padic.PadicScalar:
    """log_p(3 + 4i) = log_p(u^12) for u^12 = (3+4i)/5, D = 12, p = 5."""
    i = ctx.sqrt_zp(-1 % ctx.modulus)
    return padic.iwasawa_log(ctx.from_int(3 + 4 * i))


def p7_log(ctx: padic.PadicContext, branch: int = 1) -> padic.PadicScalar:
    """log_p(1 + 4 sqrt(-3)) = log_p(u^12) for u^12 = (1+4 sqrt(-3))/7, with
    sqrt(-3) the root = 2 (mod 7); branch -1 takes the other root."""
    s = ctx.sqrt_zp(-3 % ctx.modulus)
    if s % 7 != 2:
        s = ctx.modulus - s
    return padic.iwasawa_log(ctx.from_int(1 + 4 * branch * s))


def agreement(x: padic.PadicScalar, y: padic.PadicScalar) -> int:
    """p-adic digits to which x and y agree: v(x - y), or their joint
    absolute precision when the difference vanishes."""
    d = x - y
    if not d.is_zero:
        return d.v
    return min(z.v + z.effective_prec() for z in (x, y) if not z.is_zero)


# --------------------------------------------------------------------------
# checks: each returns (list of error strings, unit digits)
# --------------------------------------------------------------------------

def check_flagship(ctx, out: dict) -> tuple:
    errors = []
    low = {n: v for n, v in out["residuals"].items()
           if v is not None and v < RESIDUAL_BAR}
    if low:
        errors.append(f"fit residual valuations below {RESIDUAL_BAR}: {low}")
    if not out["a0"].equals(out["e2"] * (ctx.p - 1)):
        errors.append("a_0 is not (p - 1) times the E2 coefficient")
    digits = agreement(out["a0"] * 12, flagship_log(ctx))
    certified = out["min_residual"] or RESIDUAL_BAR
    if digits < max(RESIDUAL_BAR, certified):
        errors.append(f"12 a_0 agrees with log_p(3+4i) to {digits} digits; "
                      f"the fit certifies {certified}")
    if tuple(out["polynomial"] or ()) != FLAGSHIP_POLY:
        errors.append(f"recognized {out['polynomial']}, "
                      f"expected {FLAGSHIP_POLY}")
    if not (out["newton_ok"] and out["reciprocal_ok"]):
        errors.append("recognition failed its Newton or reciprocity test")
    return errors, digits


def check_p7(ctx, n_max: int, out: dict) -> tuple:
    errors = []
    if out["gtau_exit"] != cli.EXIT_OK:
        errors.append(f"gtau exited {out['gtau_exit']}")
    a0 = padic.PadicScalar.from_json(out["gtau_a0"])
    digits = agreement(a0 * 12, p7_log(ctx))
    certified = out["min_residual"] or ctx.prec
    if digits < certified:
        errors.append(f"12 a_0 agrees with log_p(1+4 sqrt(-3)) to {digits} "
                      f"digits; the fit certifies {certified}")
    wanted = [n for n in range(1, n_max + 1) if n % ctx.p]
    if sorted(out["cache_ns"]) != wanted:
        errors.append(f"cache holds n = {sorted(out['cache_ns'])}, "
                      f"expected {wanted}")
    if out["verify_a0"] != out["gtau_a0"]:
        errors.append("verify reports another a_0 than gtau")
    return errors, digits


def check_unit(ctx, level: int, out: dict) -> tuple:
    errors = []
    if out["polynomial"] != FLAGSHIP_POLY or out["twist"] != 0:
        errors.append(f"recognized {out['polynomial']} at twist "
                      f"{out['twist']}, expected {FLAGSHIP_POLY} at 0")
    if not (out["newton_ok"] and out["reciprocal_ok"]):
        errors.append("recognition failed its Newton or reciprocity test")
    if out["split_fraction"] < 0.95:
        errors.append(f"split fraction {out['split_fraction']} < 0.95")
    digits = agreement(padic.iwasawa_log(out["J"]), flagship_log(ctx))
    if digits < level:
        errors.append(f"log_p J_DR agrees with log_p(3+4i) to {digits} "
                      f"digits at level {level}")
    return errors, digits


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------

class Flagship:
    """generating_series at (D, p) = (12, 5), then unit recognition, as
    scripts/flagship_pipeline.py runs them through the library."""

    def __init__(self, size: str, workdir: str):
        self.cfg = SIZES["flagship"][size]
        self.ctx = padic.PadicContext(5, self.cfg["prec"])
        self.group = quadfield.NarrowClassGroup(12)
        self.tau = self.group.rm_representative(self.group.identity)
        self.out = {}

    def operations(self):
        return [("series", self.series), ("recognize", self.recognize)]

    def series(self) -> bool:
        res = gsunits.generating_series(
            self.tau, 5, self.cfg["n_max"], self.ctx,
            m_max=self.cfg["depth"], group=self.group)
        self.out.update(residuals=res.fit.residuals,
                        min_residual=res.fit.min_residual_valuation,
                        a0=res.a0, e2=res.fit.coefficients[0])
        return True

    def recognize(self) -> bool:
        # the recognition budget of scripts/flagship_pipeline.py
        budget = min(20, self.cfg["prec"] - 6)
        if self.out["min_residual"] is not None:
            budget = min(budget, self.out["min_residual"] - 2)
        cands = gsunits.unit_from_constant_term(
            self.out["a0"], self.group, self.group.identity, self.ctx)
        rec = gsunits.recognize(cands, self.group, self.group.identity,
                                self.ctx, degree=self.cfg["degree"],
                                budget=budget)
        self.out.update(polynomial=rec.polynomial, newton_ok=rec.newton_ok,
                        reciprocal_ok=rec.reciprocal_ok)
        return True

    def check(self) -> tuple:
        return check_flagship(self.ctx, self.out)


class P7Cli:
    """(D, p) = (12, 7) through rmlab.cli.main: gtau with a process pool into
    an empty cache, then verify from that warm cache."""

    def __init__(self, size: str, workdir: str):
        self.cfg = SIZES["p7-cli"][size]
        self.ctx = padic.PadicContext(7, self.cfg["prec"])
        self.workdir = workdir
        self.cache = os.path.join(workdir, "cache")
        shutil.rmtree(self.cache, ignore_errors=True)
        self.out = {}

    def operations(self):
        return [("gtau", self.gtau), ("verify", self.verify)]

    def _run(self, command: str, extra: list) -> tuple:
        path = os.path.join(self.workdir, f"{command}.json")
        cfg = self.cfg
        code = cli.main([command, "--disc", "12", "--p", "7",
                         "--nmax", str(cfg["n_max"]),
                         "--depth", str(cfg["depth"]),
                         "--prec", str(cfg["prec"]),
                         "--cache-dir", self.cache, "--out", path] + extra)
        with open(path) as fh:
            return code, json.load(fh)

    def gtau(self) -> bool:
        code, report = self._run("gtau", ["--threads",
                                          str(self.cfg["threads"])])
        self.out.update(gtau_exit=code, gtau_a0=report["fit"]["a0"],
                        min_residual=report["fit"]["min_residual_valuation"])
        return code == cli.EXIT_OK

    def verify(self) -> bool:
        code, report = self._run("verify", ["--threshold", str(RESIDUAL_BAR)])
        self.out.update(verify_exit=code, verify_a0=report["fit"]["a0"])
        return code == cli.EXIT_OK

    def check(self) -> tuple:
        with open(cli.cache_path(self.cache)) as fh:
            self.out["cache_ns"] = [json.loads(line)["n"] for line in fh]
        return check_p7(self.ctx, self.cfg["n_max"], self.out)


class Unit:
    """Recognition from the exact flagship log (acceptance criterion 7) and
    the Poisson product J_DR (criterion 6); no series is computed."""

    def __init__(self, size: str, workdir: str):
        self.cfg = SIZES["unit"][size]
        self.ctx = padic.PadicContext(5, self.cfg["prec"])
        self.jctx = padic.PadicContext(5, self.cfg["jdr_prec"])
        self.group = quadfield.NarrowClassGroup(12)
        self.tau = self.group.rm_representative(self.group.identity)
        self.a0 = flagship_log(self.ctx) / self.ctx.from_int(12)
        self.out = {}

    def operations(self):
        return [("recognize", self.recognize), ("poisson_JDR", self.jdr)]

    def recognize(self) -> bool:
        cands = gsunits.unit_from_constant_term(
            self.a0, self.group, self.group.identity, self.ctx)
        rec = gsunits.recognize(cands, self.group, self.group.identity,
                                self.ctx, degree=self.cfg["degree"],
                                budget=self.cfg["budget"])
        self.out.update(polynomial=rec.polynomial, twist=rec.twist,
                        newton_ok=rec.newton_ok,
                        reciprocal_ok=rec.reciprocal_ok,
                        split_fraction=rec.split_fraction)
        return True

    def jdr(self) -> bool:
        self.out["J"] = siegelmeasure.poisson_JDR(self.tau, self.cfg["level"],
                                                  self.jctx)
        return True

    def check(self) -> tuple:
        return check_unit(self.jctx, self.cfg["level"], self.out)


WORKLOADS = {"flagship": Flagship, "p7-cli": P7Cli, "unit": Unit}
