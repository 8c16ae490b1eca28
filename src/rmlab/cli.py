"""Command-line interface.

Every command emits a single JSON report (schema "rmlab/1") to stdout or
--out.  Exit codes: 0 success, 1 computational failure, 2 invalid instance
or a path that cannot be read or written, 3 a requested certification
criterion failed.

Configuration comes from flags, optionally defaulted by a TOML file
(--config); flags always win.  Stabilized series coefficients are cached as
JSON lines keyed by (disc, p, n, code version, kernel revision, precision,
depth).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from . import __version__
from .eisenstein import KERNEL_REVISION
from .gsunits import (generating_series, recognition_budget, recognize,
                      unit_from_constant_term, valuation_predictions)
from .lattice import algdep_padic
from .modforms import QSeries, basis_for_level, fit_to_basis
from .padic import PadicContext, PadicScalar, iwasawa_log
from .quadfield import NarrowClassGroup, RMPoint, has_norm_minus_one
from .siegelmeasure import phi_DR, poisson_JDR
from .winding import log_Tn_Jw

SCHEMA = "rmlab/1"

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_INVALID = 2
EXIT_CRITERION = 3


# --------------------------------------------------------------------------
# config
# --------------------------------------------------------------------------

def read_toml_subset(path: str) -> dict:
    """Minimal TOML reader: top-level (or flattened [section]) key = value
    pairs with integer, string, or bare-word values; comments with #,
    outside a quoted value."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = re.match(r'(?:[^"#]|"[^"]*"?)*', raw).group().strip()
            if not line or line.startswith("["):
                continue
            if "=" not in line:
                raise ValueError(f"unparseable config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            if val.startswith('"') and val.endswith('"'):
                out[key] = val[1:-1]
            else:
                try:
                    out[key] = int(val)
                except ValueError:
                    out[key] = val
    return out


# global-flag defaults; the parser leaves these unset (None) so that an
# explicit flag is distinguishable from a --config value
DEFAULTS = {
    "disc": 12, "p": 5, "form": None, "prec": 32, "nmax": 30,
    "depth": 4, "out": None, "cache_dir": None,
}


def apply_config(args: argparse.Namespace):
    """Resolve the global flags: explicit flag, then --config, then the
    built-in default.  ValueError for a config key that names no global
    flag (`threads` is accepted and ignored) and for a value of another type
    than its default's (a string where the default is None)."""
    config = getattr(args, "config", None)
    conf = read_toml_subset(config) if config else {}
    unknown = sorted(set(conf) - {"threads"} - {
        key for dest in DEFAULTS for key in (dest, dest.replace("_", "-"))})
    if unknown:
        raise ValueError(f"unknown config key: {', '.join(unknown)}")
    for dest, default in DEFAULTS.items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, conf.get(dest.replace("_", "-"),
                                         conf.get(dest, default)))
        value, kind = getattr(args, dest), type(default or "")
        if value is not None and type(value) is not kind:
            raise ValueError(f"{dest} must be {kind.__name__}: {value!r}")


# --------------------------------------------------------------------------
# coefficient cache
# --------------------------------------------------------------------------

CACHE_KEY = ("disc", "p", "version", "kernel", "prec", "depth")


def cache_path(cache_dir: str) -> str:
    return os.path.join(cache_dir, "coefficients.jsonl")


def scalar_of(ctx: PadicContext, obj) -> PadicScalar:
    """The scalar that the JSON `obj` encodes; ValueError unless it is a
    p-adic scalar object of `ctx`."""
    try:
        x = PadicScalar.from_json(obj)
    except (TypeError, KeyError, IndexError) as exc:
        raise ValueError(f"not a p-adic scalar object: {obj!r}") from exc
    if x.ctx != ctx:
        raise ValueError(f"a scalar of p = {x.ctx.p}, N = {x.ctx.prec}, "
                         f"not of p = {ctx.p}, N = {ctx.prec}")
    return x


def cache_load(cache_dir: str | None, D: int, p: int, prec: int,
               depth: int) -> dict:
    """n -> cached value for the instance.  A line that is not an entry of
    the instance's key (one that does not parse, such as a torn last
    append, or of another version or kernel revision, or none), or whose
    value is not a scalar of PadicContext(p, prec), is skipped and its
    coefficient so recomputed."""
    found = {}
    if not cache_dir:
        return found
    path = cache_path(cache_dir)
    if not os.path.exists(path):
        return found
    ctx = PadicContext(p, prec)
    key = (D, p, __version__, KERNEL_REVISION, prec, depth)
    with open(path) as fh:
        for line in fh:
            try:
                entry = json.loads(line)
                if (isinstance(entry, dict)
                        and type(entry.get("n")) is int
                        and tuple(map(entry.get, CACHE_KEY)) == key):
                    found[entry["n"]] = scalar_of(ctx, entry.get("value"))
            except ValueError:
                continue
    return found


def cache_append(cache_dir: str | None, D: int, p: int, prec: int,
                 depth: int, items: dict):
    if not cache_dir or not items:
        return
    text = "".join(json.dumps({
        "disc": D, "p": p, "n": n, "version": __version__,
        "kernel": KERNEL_REVISION, "prec": prec, "depth": depth,
        "value": value}) + "\n"
        for n, value in sorted(items.items()))
    with open(cache_path(cache_dir), "ab+") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size:
            fh.seek(size - 1)
            if fh.read(1) != b"\n":
                text = "\n" + text     # end a torn last line first
        fh.write(text.encode())


# --------------------------------------------------------------------------
# shared pieces
# --------------------------------------------------------------------------

def parse_ints(text: str, flag: str, count: int) -> list:
    """The value of a flag holding `count` comma-separated integers;
    ValueError naming the flag for anything else."""
    try:
        parts = [int(s) for s in text.split(",")]
    except ValueError:
        parts = None
    if parts is None or len(parts) != count:
        words = {3: "three", 4: "four"}[count]
        raise ValueError(f"{flag} must be {words} comma-separated integers")
    return parts


def parse_form(text: str, D: int) -> RMPoint:
    tau = RMPoint(*parse_ints(text, "--form", 3))
    if tau.disc != D:
        raise ValueError(f"form discriminant {tau.disc} != --disc {D}")
    return tau


def parse_matrix(text: str):
    a, b, c, d = parse_ints(text, "--gamma", 4)
    return ((a, b), (c, d))


def instance_from_args(args) -> tuple:
    """(context, narrow class group, RM point) named by the global flags."""
    ctx = PadicContext(args.p, args.prec)
    group = NarrowClassGroup(args.disc)
    tau = parse_form(args.form, args.disc) if args.form \
        else group.rm_representative(group.identity)
    return ctx, group, tau


def stabilized_coefficients(args, tau: RMPoint, group: NarrowClassGroup,
                            ctx: PadicContext):
    """generating_series for the instance over the coefficient cache:
    cached values are reused and freshly computed ones appended.  The cache
    directory is made first, so that a bad one is refused before the
    series."""
    D, p, prec, depth = args.disc, args.p, args.prec, args.depth
    if args.cache_dir:
        os.makedirs(args.cache_dir, exist_ok=True)
    res = generating_series(tau, p, args.nmax, ctx, group=group,
                            known=cache_load(args.cache_dir, D, p, prec,
                                             depth))
    cache_append(args.cache_dir, D, p, prec, depth,
                 {n: res.stabilized[n].to_json() for n in res.certificates})
    return res


def fit_report(fit) -> dict:
    return {
        "a0": fit.a0.to_json(),
        "basis_coefficients": [c.to_json() for c in fit.coefficients],
        "solve_indices": list(fit.solve_indices),
        "residual_valuations": {str(n): v for n, v in fit.residuals.items()},
        "min_residual_valuation": fit.min_residual_valuation,
        "certified": fit.certified,
    }


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_gtau(args) -> tuple:
    ctx, group, tau = instance_from_args(args)
    res = stabilized_coefficients(args, tau, group, ctx)
    report = {
        "form": list(tau.form),
        "coefficients": {str(n): res.series.coeffs[n].to_json()
                         for n in range(1, args.nmax + 1)},
        "stabilized_at": {str(n): cert.stabilized_at
                          for n, cert in res.certificates.items()},
        "fit": fit_report(res.fit),
    }
    return report, EXIT_OK


def cmd_verify(args) -> tuple:
    ctx, group, tau = instance_from_args(args)
    res = stabilized_coefficients(args, tau, group, ctx)
    fit = res.fit
    bar = args.threshold if args.threshold is not None else args.prec - 5
    ok = fit.min_residual_valuation is None \
        or fit.min_residual_valuation >= bar
    report = {
        "form": list(tau.form),
        "fit": fit_report(fit),
        "threshold": bar,
        "passed": ok,
    }
    return report, EXIT_OK if ok else EXIT_CRITERION


def cmd_recognize(args) -> tuple:
    # a bad --degree, --budget or --prec, or a field with no odd character,
    # is refused before the long series
    if args.degree < 1:
        raise ValueError("degree must be at least 1")
    ctx, group, tau = instance_from_args(args)
    recognition_budget(None, ctx, args.budget)
    if has_norm_minus_one(group.D):     # the series is 0: no unit to find
        raise ValueError(f"Q(sqrt({group.D})) has a unit of norm -1 and so "
                         "no odd character")
    res = stabilized_coefficients(args, tau, group, ctx)
    tau_class = group.class_of_rm_point(tau)
    candidates = unit_from_constant_term(res.a0, group, tau_class, ctx)
    rec = recognize(candidates, group, tau_class, ctx, degree=args.degree,
                    budget=recognition_budget(res.fit, ctx, args.budget))
    report = {
        "form": list(tau.form),
        "a0": res.a0.to_json(),
        "predicted_valuations": {
            str(s): [v.numerator, v.denominator]
            for s, v in valuation_predictions(group, tau_class).items()},
        "polynomial": list(rec.polynomial) if rec.polynomial else None,
        "twist": rec.twist,
        "newton_ok": rec.newton_ok,
        "reciprocal_ok": rec.reciprocal_ok,
        "split_fraction": rec.split_fraction,
        "matches": [[t, list(c)] for t, c in rec.matches],
        "recognized": rec.recognized,
    }
    return report, EXIT_OK if rec.recognized else EXIT_CRITERION


def cmd_winding(args) -> tuple:
    ctx, group, tau = instance_from_args(args)
    value = log_Tn_Jw(tau, args.n, args.p, ctx, group)
    report = {"form": list(tau.form), "n": args.n,
              "log_TnJw": value.to_json()}
    return report, EXIT_OK


def cmd_phi_dr(args) -> tuple:
    gamma = parse_matrix(args.gamma)
    report = {"gamma": [list(r) for r in gamma],
              "phi_DR": phi_DR(gamma, args.p)}
    return report, EXIT_OK


def cmd_jdr(args) -> tuple:
    ctx, group, tau = instance_from_args(args)
    value = poisson_JDR(tau, args.level, ctx)
    report = {"form": list(tau.form), "level": args.level,
              "JDR": value.to_json(),
              "log_JDR": iwasawa_log(value).to_json()}
    return report, EXIT_OK


def cmd_fit(args) -> tuple:
    ctx = PadicContext(args.p, args.prec)
    if args.series:
        with open(args.series) as fh:
            data = json.load(fh)
    else:
        data = json.load(sys.stdin)
    coeffs = data.get("coefficients") if isinstance(data, dict) else None
    if isinstance(coeffs, dict):
        # a gtau report: keyed by n >= 1; a_0 and absent n are unknown
        known = {int(n): c for n, c in coeffs.items()}
        coeffs = [None] + [known.get(n)
                           for n in range(1, max(known, default=0) + 1)]
    if not isinstance(coeffs, list):
        raise ValueError("series file needs 'coefficients' as a list or as "
                         "an object keyed by n")
    for n, c in enumerate(coeffs):
        if c is None:
            continue
        try:
            coeffs[n] = scalar_of(ctx, c)
        except ValueError as exc:
            raise ValueError(f"coefficient {n} is invalid: {exc}") from exc
    series = QSeries(tuple(coeffs))
    fit = fit_to_basis(series, basis_for_level(args.p, series.n_max), ctx)
    return {"fit": fit_report(fit)}, EXIT_OK


def cmd_algdep(args) -> tuple:
    ctx = PadicContext(args.p, args.prec)
    a0, a1, v = parse_ints(args.value, "--value", 3)
    x = ctx.from_coords(a0, a1, v)
    res = algdep_padic(x, args.degree, args.budget)
    report = {
        "value": x.to_json(),
        "polynomial": list(res.coefficients) if res.found else None,
        "height": res.height,
        # JSON has no infinity: a margin past the float range is null
        "margin": res.margin if math.isfinite(res.margin) else None,
        "found": res.found,
    }
    return report, EXIT_OK if res.found else EXIT_CRITERION


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # the global flags live on a parent parser with SUPPRESS defaults so
    # they are accepted both before and after the subcommand without the
    # subparser's defaults clobbering values parsed by the main parser
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--config", help="TOML file with flag defaults")
    common.add_argument("--disc", type=int,
                        help="fundamental discriminant D > 0 (default 12)")
    common.add_argument("--p", type=int,
                        help="prime, inert in Q(sqrt(D)) (default 5)")
    common.add_argument("--form", help="RM point as A,B,C; a form with "
                        "negative A must be written --form=A,B,C, e.g. "
                        "--form=-1,2,2")
    common.add_argument("--prec", type=int,
                        help="working p-adic precision (default 32)")
    common.add_argument("--nmax", type=int,
                        help="q-expansion truncation (default 30)")
    common.add_argument("--depth", type=int,
                        help="accepted and not read, but still part of the "
                             "cache key: the series is the ordinary part "
                             "of the raw coefficients in Katz's span, with "
                             "no extrapolation (default 4)")
    common.add_argument("--out", help="write the JSON report here")
    common.add_argument("--cache-dir", dest="cache_dir",
                        help="coefficient cache directory")
    common.add_argument("--threads", type=int,
                        help="accepted for compatibility and ignored: the "
                             "coefficients are computed in one process")

    parser = argparse.ArgumentParser(
        prog="rmlab",
        description="p-adic generating series at RM points and the units "
                    "they encode",
        parents=[common])

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gtau", parents=[common],
                   help="generating series and its modular fit")
    verify = sub.add_parser("verify", parents=[common],
                            help="certify the overdetermined fit")
    verify.add_argument("--threshold", type=int,
                        help="required residual valuation (default prec-5)")
    rec = sub.add_parser("recognize-unit", parents=[common],
                         help="minimal polynomial of the encoded unit")
    rec.add_argument("--degree", type=int, default=4)
    rec.add_argument("--budget", type=int, default=20,
                     help="cap on gsunits.recognition_budget")
    winding = sub.add_parser("winding", parents=[common],
                             help="one RM value of the winding cocycle")
    winding.add_argument("--n", type=int, default=1)
    phi = sub.add_parser("phi-dr", parents=[common],
                         help="the homomorphism phi_DR on Gamma_0(p)")
    phi.add_argument("--gamma", required=True, help="matrix as a,b,c,d")
    jdr = sub.add_parser("jdr", parents=[common],
                         help="Poisson-product value of J_DR")
    jdr.add_argument("--level", type=int, default=3)
    fit = sub.add_parser("fit", parents=[common],
                         help="fit a stored series to the modular basis")
    fit.add_argument("--series", help="JSON file (default: stdin)")
    alg = sub.add_parser("algdep", parents=[common],
                         help="integer polynomial vanishing at a p-adic "
                              "value",
                         description="Integer polynomial vanishing at a "
                                     "p-adic value.  The report's margin, "
                                     "the ratio of the two shortest reduced "
                                     "rows, is null when it passes the "
                                     "float range (JSON has no infinity).")
    alg.add_argument("--value", required=True, help="scalar as u0,u1,val")
    alg.add_argument("--degree", type=int, default=4)
    alg.add_argument("--budget", type=int, default=20)
    return parser


HANDLERS = {
    "gtau": cmd_gtau,
    "verify": cmd_verify,
    "recognize-unit": cmd_recognize,
    "winding": cmd_winding,
    "phi-dr": cmd_phi_dr,
    "jdr": cmd_jdr,
    "fit": cmd_fit,
    "algdep": cmd_algdep,
}


def run_command(args) -> int:
    """Run the command and write its report; OSError when --out cannot be
    written, raised before the command runs."""
    if args.out:
        open(args.out, "a").close()   # not truncated: --series may read it
    base = {
        "schema": SCHEMA,
        "version": __version__,
        "command": args.command,
        "disc": args.disc,
        "p": args.p,
        "prec": args.prec,
        "nmax": args.nmax,
    }
    try:
        report, code = HANDLERS[args.command](args)
    except (OSError, ValueError) as exc:   # a bad path, or bad input
        report, code = {"error": str(exc)}, EXIT_INVALID
    except ArithmeticError as exc:
        report, code = {"error": str(exc)}, EXIT_COMPUTE
    base.update(report)
    base["exit_code"] = code
    text = json.dumps(base, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text, flush=True)   # a closed pipe raises here, not at exit
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        apply_config(args)
        return run_command(args)
    except BrokenPipeError:   # the reader closed stdout: write no more,
        sys.stdout = None     # not even at exit
        return EXIT_INVALID
    except (OSError, ValueError) as exc:   # --config, or the --out write
        print(json.dumps({"schema": SCHEMA, "error": str(exc),
                          "exit_code": EXIT_INVALID}))
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
