#!/usr/bin/env python3
"""End-to-end demonstration at the flagship instance D = 12, p = 5.

Computes the generating series of RM values at the principal class, fits it
against the weight-two Eisenstein basis on Gamma_0(5), reads off the constant
term, and reconstructs the minimal polynomial of the 12th power of the
Gross-Stark unit by p-adic lattice reduction.

    python3 scripts/flagship_pipeline.py [--nmax 10] [--prec 24] [--budget 20]

The recognition budget is `gsunits.recognition_budget` with --budget as its
cap; a --budget or --prec that leaves it below 1 exits 2 with a one-line
message on stderr before the series, and so does an --nmax too small to fit
the series (--nmax 1).  The series is reported with its one certificate,
the least residual valuation of the fit to M_2(Gamma_0(5)), or prec when
every residual is exact.
"""

import argparse
import sys
import time

from rmlab.gsunits import (generating_series, l_invariants_from_unit,
                           recognition_budget, recognize,
                           unit_from_constant_term)
from rmlab.padic import PadicContext
from rmlab.quadfield import NarrowClassGroup


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nmax", type=int, default=10)
    ap.add_argument("--prec", type=int, default=24)
    ap.add_argument("--budget", type=int, default=20)
    args = ap.parse_args()

    try:
        ctx = PadicContext(5, args.prec)
        recognition_budget(None, ctx, args.budget)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    group = NarrowClassGroup(12)
    tau = group.rm_representative(group.identity)
    print(f"D = 12, p = 5, prec = {args.prec}, n_max = {args.nmax}")
    print(f"RM point: {tau}")

    t0 = time.time()
    try:
        res = generating_series(tau, 5, args.nmax, ctx, group=group)
    except ValueError as exc:   # too few coefficients to fit
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"\nseries computed in {time.time() - t0:.3f} s")
    print(f"series certified to {res.fit.certified_digits} digits "
          "(least fit residual, or prec when every residual is exact)")
    print(f"fit residual valuations: {res.fit.residuals}")
    print(f"constant term a_0 = {res.a0}")

    cands = unit_from_constant_term(res.a0, group, group.identity, ctx)
    print(f"\n{len(cands)} torsion-twist candidates, "
          f"pinned valuation {cands[0].pinned_valuation}")
    budget = recognition_budget(res.fit, ctx, args.budget)
    rec = recognize(cands, group, group.identity, ctx, budget=budget)
    print(f"algdep budget: {budget}")
    print(f"recognized: {rec.recognized}")
    print(f"minimal polynomial of u^12: {rec.polynomial} "
          f"(twist {rec.twist})")
    print(f"newton polygon ok: {rec.newton_ok}, "
          f"reciprocal up to p-power: {rec.reciprocal_ok}, "
          f"split fraction at the primes split completely in the genus "
          f"field: {rec.split_fraction:.2f}")
    if rec.recognized and len(rec.polynomial) == 3:
        L1, L2 = l_invariants_from_unit(rec.polynomial, ctx)
        print(f"\nL-invariants (both embeddings):")
        print(f"  L_1 = {L1}")
        print(f"  L_2 = {L2}")
    print(f"\ntotal {time.time() - t0:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
