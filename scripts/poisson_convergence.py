#!/usr/bin/env python3
"""Convergence of the Poisson-transform cross-check.

The generating series' constant term a_0 is log_p(u_tau); independently, the
Poisson transform of the Dedekind-Rademacher measure against the automorph
of tau computes J_DR[tau] = u_tau^12 as a Riemann product over level-M balls.
This script prints the valuation of iwasawa_log(J_DR) - 12 a_0 as the level
grows: it should equal the level exactly, one p-adic digit per level.  Level
M has about p^(2M) balls, each visited once, one row of p^M balls at a time,
so time grows by p^2 per level while memory stays small.

    python3 scripts/poisson_convergence.py [--disc 12] [--p 5] [--levels 4]
"""

import argparse
import time

from rmlab.gsunits import generating_series
from rmlab.padic import PadicContext, iwasawa_log
from rmlab.quadfield import NarrowClassGroup
from rmlab.siegelmeasure import poisson_JDR


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--disc", type=int, default=12)
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--prec", type=int, default=16)
    args = ap.parse_args()

    ctx = PadicContext(args.p, args.prec)
    group = NarrowClassGroup(args.disc)
    tau = group.rm_representative(group.identity)

    res = generating_series(tau, args.p, 4, ctx, m_max=3, group=group)
    target = res.a0 * 12
    print(f"12 a_0 = {target}")

    for level in range(1, args.levels + 1):
        t0 = time.time()
        J = poisson_JDR(tau, level, ctx)
        diff = iwasawa_log(J) - target
        v = "exact" if diff.is_zero else diff.v
        print(f"level {level}: error valuation {v}  "
              f"({time.time() - t0:.1f} s)")


if __name__ == "__main__":
    main()
