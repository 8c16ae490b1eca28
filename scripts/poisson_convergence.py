#!/usr/bin/env python3
"""Convergence of the Poisson-transform cross-check.

The generating series' constant term a_0 is log_p(u_tau); independently, the
Poisson transform of the Dedekind-Rademacher measure against the automorph
of tau computes J_DR[tau] = u_tau^12 as a Riemann product over level-M balls.
This script prints the valuation of iwasawa_log(J_DR) - 12 a_0 as the level
grows: it should equal the level exactly, one p-adic digit per level.  Level
M has about p^(2M) balls, but the measure is constant on cells, where the
floors of a few linear forms are fixed, and is evaluated once per cell; the
cells do not grow with the level (322 at (12, 5) from level 3 on), while
the pieces that cut each row of p^M balls grow by about p per level.  The
product samples each ball on its line through the origin, so it raises
only the p^M + p^(M-1) points of P^1(Z/p^M) and the units mod p^M to
their masses: the powers grow by p per level, while summing the rows along
the lines touches every ball once (p^2 times more per level) in C-level
list operations; memory stays small.  Each level's line gives the ball,
piece and P^1 point counts next to the time of the product.

    python3 scripts/poisson_convergence.py [--disc 12] [--p 5] [--levels 4]

A field or prime the pipeline does not support, or --levels below 1,
exits 2 with a one-line message on stderr before the series is computed;
a reader that closes stdout early ends the script with exit 2 and nothing on
stderr, as the CLI does.
"""

import argparse
import sys
from time import perf_counter

from rmlab.gsunits import generating_series
from rmlab.padic import PadicContext, iwasawa_log
from rmlab.quadfield import NarrowClassGroup, automorph
from rmlab.siegelmeasure import mu_pieces, poisson_JDR


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--disc", type=int, default=12)
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--prec", type=int, default=16)
    args = ap.parse_args()
    if args.levels < 1:
        print(f"error: --levels {args.levels} gives no level; it must be "
              "at least 1", file=sys.stderr)
        return 2

    try:
        ctx = PadicContext(args.p, args.prec)
        group = NarrowClassGroup(args.disc)
        tau = group.rm_representative(group.identity)
        res = generating_series(tau, args.p, 4, ctx, group=group)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    target = res.a0 * 12
    print(f"12 a_0 = {target}")

    # the measure that poisson_JDR integrates: that of the inverse automorph
    (a, b), (c, d) = automorph(tau.form)
    gamma = ((d, -b), (-c, a))
    for level in range(1, args.levels + 1):
        t0 = perf_counter()
        J = poisson_JDR(tau, level, ctx)
        seconds = perf_counter() - t0
        diff = iwasawa_log(J) - target
        v = "exact" if diff.is_zero else diff.v
        balls = args.p ** (2 * level) - args.p ** (2 * level - 2)
        pieces = sum(len(starts)
                     for _, starts, _ in mu_pieces(gamma, args.p, level))
        points = args.p ** level + args.p ** (level - 1)
        print(f"level {level}: error valuation {v}  ({balls} balls, "
              f"{pieces} pieces, {points} P^1 points, {seconds:.2f} s)")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:   # the reader closed stdout: write no more,
        sys.stdout = None     # not even at exit
        code = 2
    sys.exit(code)
