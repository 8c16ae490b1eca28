"""Command-line interface.

Every command emits a single JSON report (schema "rmlab/1") to stdout or
--out.  Exit codes: 0 success, 1 computational failure, 2 invalid instance,
3 a requested certification criterion failed.

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
import sys

from . import __version__
from .eisenstein import KERNEL_REVISION
from .gsunits import (generating_series, recognize, unit_from_constant_term,
                      valuation_predictions)
from .lattice import algdep_padic
from .modforms import QSeries, basis_for_level, fit_to_basis
from .padic import PadicContext, PadicScalar, iwasawa_log
from .quadfield import NarrowClassGroup, RMPoint
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
    pairs with integer, string, or bare-word values; comments with #."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
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
    "depth": 4, "out": None, "cache_dir": None, "threads": 1,
}


def apply_config(args: argparse.Namespace):
    """Resolve the global flags: explicit flag, then --config, then the
    built-in default."""
    config = getattr(args, "config", None)
    conf = read_toml_subset(config) if config else {}
    for dest, default in DEFAULTS.items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, conf.get(dest.replace("_", "-"),
                                         conf.get(dest, default)))


# --------------------------------------------------------------------------
# coefficient cache
# --------------------------------------------------------------------------

def cache_path(cache_dir: str) -> str:
    return os.path.join(cache_dir, "coefficients.jsonl")


def cache_load(cache_dir: str | None, D: int, p: int, prec: int,
               depth: int) -> dict:
    """n -> cached value (as JSON) for the instance; lines that do not
    parse, such as a torn last append, and entries of another version or
    kernel revision (or none) are skipped and so recomputed."""
    found = {}
    if not cache_dir:
        return found
    path = cache_path(cache_dir)
    if not os.path.exists(path):
        return found
    with open(path) as fh:
        for line in fh:
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if (entry["disc"], entry["p"], entry["version"],
                    entry.get("kernel"), entry["prec"], entry["depth"]) == \
                    (D, p, __version__, KERNEL_REVISION, prec, depth):
                found[entry["n"]] = entry["value"]
    return found


def cache_append(cache_dir: str | None, D: int, p: int, prec: int,
                 depth: int, items: dict):
    if not cache_dir or not items:
        return
    os.makedirs(cache_dir, exist_ok=True)
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

def parse_form(text: str, D: int) -> RMPoint:
    parts = [int(s) for s in text.split(",")]
    if len(parts) != 3:
        raise ValueError("--form must be three comma-separated integers")
    tau = RMPoint(*parts)
    if tau.disc != D:
        raise ValueError(f"form discriminant {tau.disc} != --disc {D}")
    return tau


def parse_matrix(text: str):
    parts = [int(s) for s in text.split(",")]
    if len(parts) != 4:
        raise ValueError("--gamma must be four comma-separated integers")
    return ((parts[0], parts[1]), (parts[2], parts[3]))


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
    cached values are reused and freshly computed ones appended."""
    D, p, prec, depth = args.disc, args.p, args.prec, args.depth
    cached = cache_load(args.cache_dir, D, p, prec, depth)
    res = generating_series(
        tau, p, args.nmax, ctx, m_max=depth, group=group,
        known={n: PadicScalar.from_json(v) for n, v in cached.items()},
        workers=args.threads)
    cache_append(args.cache_dir, D, p, prec, depth,
                 {n: res.stabilized[n].to_json() for n in res.certificates})
    return res


def series_from_args(args) -> tuple:
    """(context, group, RM point, GSeriesResult) for the instance."""
    ctx, group, tau = instance_from_args(args)
    return ctx, group, tau, stabilized_coefficients(args, tau, group, ctx)


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
    ctx, group, tau, res = series_from_args(args)
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
    ctx, group, tau, res = series_from_args(args)
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
    ctx, group, tau, res = series_from_args(args)
    tau_class = group.class_of_rm_point(tau)
    candidates = unit_from_constant_term(res.a0, group, tau_class, ctx)
    rec = recognize(candidates, group, tau_class, ctx,
                    degree=args.degree, budget=args.budget)
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
            coeffs[n] = PadicScalar.from_json(c)
        except (TypeError, KeyError, IndexError) as exc:
            raise ValueError(f"coefficient {n} is not a p-adic scalar "
                             f"object: {c!r}") from exc
    series = QSeries(tuple(coeffs), args.p)
    fit = fit_to_basis(series, basis_for_level(args.p, series.n_max), ctx)
    return {"fit": fit_report(fit)}, EXIT_OK


def cmd_algdep(args) -> tuple:
    ctx = PadicContext(args.p, args.prec)
    a0, a1, v = (int(s) for s in args.value.split(","))
    x = ctx.from_coords(a0, a1, v)
    res = algdep_padic(x, args.degree, args.budget)
    poly = list(res.coefficients) if res.found else None
    while poly and poly[-1] == 0:
        poly.pop()
    report = {
        "value": x.to_json(),
        "polynomial": poly,
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
                        help="extrapolation depth for ordinary projection "
                             "(default 4)")
    common.add_argument("--out", help="write the JSON report here")
    common.add_argument("--cache-dir", dest="cache_dir",
                        help="coefficient cache directory")
    common.add_argument("--threads", type=int,
                        help="worker processes for the coefficients; the "
                             "indices are split into one share per worker "
                             "(default 1)")

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
    rec.add_argument("--budget", type=int, default=20)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        apply_config(args)
    except (OSError, ValueError) as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc),
                          "exit_code": EXIT_INVALID}))
        return EXIT_INVALID
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
    except (ValueError, NotImplementedError) as exc:
        report, code = {"error": str(exc)}, EXIT_INVALID
    except (ArithmeticError, OverflowError) as exc:
        report, code = {"error": str(exc)}, EXIT_COMPUTE
    base.update(report)
    base["exit_code"] = code
    text = json.dumps(base, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
