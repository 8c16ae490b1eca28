#!/usr/bin/env python3
"""Convergence profile of the ordinary projection with and without Shanks
acceleration.

For a coefficient index n coprime to p, prints the valuation of consecutive
differences of the raw sequence a_{n p^m} and of each Shanks column.  The raw
sequence gains roughly a constant number of digits per step (one geometric
transient per finite-slope U_p eigenvalue); each Shanks column removes the
dominant transient and multiplies the rate.  Each trace level is reported
with its number of elements, the number the kernel sieves (nu and its
conjugate nu' add the same summand, so it sieves the s >= 0 half) and its
time, and the run ends with the process's peak resident memory.

    python3 scripts/acceleration_profile.py [--disc 12] [--p 5] [--n 1]
                                            [--depth 4] [--prec 32]

A field, prime or precision the kernel does not support, or a field with a
unit of norm -1 (it has no odd character), exits 2 with a one-line message
on stderr before the first level.
"""

import argparse
import resource
import sys
import time

from rmlab.eisenstein import (LogCache, accelerated_ordinary_projection,
                              diag_coefficient)
from rmlab.padic import PadicContext
from rmlab.quadfield import (IdealDivisorEngine, NarrowClassGroup,
                             check_inert, trace_range)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--disc", type=int, default=12)
    ap.add_argument("--p", type=int, default=5)
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--depth", type=int, default=4)
    ap.add_argument("--prec", type=int, default=32)
    args = ap.parse_args()
    if args.n % args.p == 0:
        ap.error("--n must be coprime to --p")
    if args.depth < 2:
        ap.error("--depth must be at least 2")

    try:
        ctx = PadicContext(args.p, args.prec)
        group = NarrowClassGroup(args.disc)
        check_inert(args.disc, args.p)
        chis = group.odd_characters()
        if not chis:
            raise ValueError(f"Q(sqrt({args.disc})) has a unit of norm -1 "
                             "and so no odd character")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engine = IdealDivisorEngine(group, args.p)
    chi = chis[0]
    logs = LogCache(ctx)
    terms = []

    def producer(k):
        t0 = time.perf_counter()
        value = diag_coefficient(k, chi, engine, ctx, logs)
        svals = trace_range(k, args.disc)
        # the s > 0 half, and s = 0 unless p | k leaves it out
        sieved = len(svals) // 2 + (0 in svals and k % args.p != 0)
        print(f"a_{args.n}*{args.p}^{len(terms)}: {len(svals)} elements in "
              f"{time.perf_counter() - t0:.3f} s, {sieved} sieved")
        terms.append(value)
        return value

    _, cert = accelerated_ordinary_projection(producer, args.n, args.p,
                                              args.depth, ctx)
    # row 0 is the raw sequence, row k the k-th Shanks column
    print(f"\nraw agreement profile:    {cert.agreements[0]}")
    for col, prof in enumerate(cert.agreements[1:], 1):
        print(f"after Shanks column {col}:   {prof}")
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"\npeak RSS {peak:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
