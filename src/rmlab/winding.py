"""RM values of the winding cocycle.

Two independent routes to the same weighted multisets of RM points:

* the ideal-pair route: pairs (I, nu) with Tr(nu) = n, p coprime to I, I
  dividing (nu) * (different), and I in the ideal class of the lattice
  (1, tau), mapped to w = nu_0 * sqrt(D) / Nm(I);
* the double-coset route: representatives delta of determinant-n matrices
  modulo SL2(Z) on the left and the stabilizer of tau on the right, with the
  crossing points of each orbit SL2(Z) * delta(tau) read off one period of
  the river of delta(tau)'s form: its forms (A, B, C) with A*C < 0.

Both give log_Tn_Jw, the weighted p-adic log sum, as one Iwasawa log of the
weighted product of the points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .padic import PadicContext, PadicScalar, _vp, iwasawa_log
from .quadfield import (IdealDivisorEngine, NarrowClassGroup, QuadNum,
                        RMPoint, _ext_gcd, apply_sl2, automorph, check_inert,
                        embed_quadnum, enumerate_trace, reduce_form)


@dataclass(frozen=True)
class WeightedRMPoint:
    """An RM point w with opposite-sign real embeddings and its
    intersection weight."""

    w: QuadNum
    weight: int          # +1 iff w > 0 > w', -1 iff w < 0 < w'

    def __post_init__(self):
        sign = self.w.sign()
        assert sign * self.w.conj().sign() < 0
        assert self.weight == sign


def _check_instance(D: int, n: int, p: int):
    check_inert(D, p)
    if n < 1:
        raise ValueError(f"n must be a positive integer, not {n}")
    if gcd(n, p) != 1:
        raise ValueError("n must be coprime to p")


def rm_plus_set(tau: RMPoint, n: int, p: int,
                group: NarrowClassGroup | None = None,
                engine: IdealDivisorEngine | None = None) -> list:
    """RM_n^+(tau) via the ideal-pair parametrization; weight +1 points."""
    D = tau.disc
    _check_instance(D, n, p)
    group = group or NarrowClassGroup(D)
    engine = engine or IdealDivisorEngine(group, p)
    required = group.class_of_rm_point(tau)
    out = []
    for elt in enumerate_trace(n, D):
        assert elt.vp(p) == 0  # inert p with p coprime to n
        alpha = elt.alpha  # nu * sqrt(D), generates (nu) * different
        for norm, cls in engine.divisors(alpha):
            if cls == required:
                out.append(WeightedRMPoint(alpha * Fraction(1, norm), 1))
    return out


def rm_minus_set(tau: RMPoint, n: int, p: int,
                 group: NarrowClassGroup | None = None,
                 engine: IdealDivisorEngine | None = None) -> list:
    """RM_n^-(tau) = -RM_n^+(-tau); weight -1 points."""
    plus = rm_plus_set(tau.negate(), n, p, group, engine)
    return [WeightedRMPoint(-pt.w, -1) for pt in plus]


def log_Tn_Jw(tau: RMPoint, n: int, p: int, ctx: PadicContext,
              group: NarrowClassGroup | None = None,
              engine: IdealDivisorEngine | None = None) -> PadicScalar:
    """Weighted p-adic log sum over RM_n^+(tau) and RM_n^-(tau)."""
    group = group or NarrowClassGroup(tau.disc)
    engine = engine or IdealDivisorEngine(group, p)
    return _log_of_product(rm_plus_set(tau, n, p, group, engine)
                           + rm_minus_set(tau, n, p, group, engine), ctx)


def _log_of_product(points: list, ctx: PadicContext) -> PadicScalar:
    """The weighted log sum over `points` as one Iwasawa log: that of the
    product of the w^weight in Q_{p^2}."""
    prod = {1: ctx.one(), -1: ctx.one()}
    for pt in points:
        prod[pt.weight] = prod[pt.weight] * embed_quadnum(pt.w, ctx)
    return iwasawa_log(prod[1] / prod[-1])


# --------------------------------------------------------------------------
# double-coset oracle
# --------------------------------------------------------------------------

def _hnf2(M):
    """Left-SL2(Z) Hermite normal form [[a, b], [0, d]], a, d > 0, 0 <= b < d
    of an integer matrix with positive determinant."""
    (a, b), (c, d) = M
    if c:
        g, x, y = _ext_gcd(a, c)
        # [[x, y], [-c/g, a/g]] is in SL2(Z) and kills the lower-left entry
        a, b, c, d = g, x * b + y * d, 0, (-c // g) * b + (a // g) * d
    if a < 0:
        a, b, d = -a, -b, -d  # multiply by -identity
    assert a > 0 and d > 0
    b %= d
    return ((a, b), (0, d))


def _matmul(M, N):
    return ((M[0][0] * N[0][0] + M[0][1] * N[1][0],
             M[0][0] * N[0][1] + M[0][1] * N[1][1]),
            (M[1][0] * N[0][0] + M[1][1] * N[1][0],
             M[1][0] * N[0][1] + M[1][1] * N[1][1]))


def double_coset_reps(tau: RMPoint, n: int):
    """Representatives of SL2(Z) \\ M2(Z)_n / Stab(tau), as HNF matrices."""
    g = automorph(tau.form)
    hnfs = [((a, b), (0, n // a))
            for a in range(1, n + 1) if n % a == 0
            for b in range(n // a)]
    remaining = set(hnfs)
    reps = []
    while remaining:
        # delta -> hnf(delta g) permutes the HNFs (hnf(delta g^-1) undoes
        # it), so the orbit of <g> is the cycle through its least member
        start = cur = min(remaining)
        for _ in hnfs:
            remaining.discard(cur)
            cur = _hnf2(_matmul(cur, g))
            if cur == start:
                break
        else:
            raise ArithmeticError("automorph orbit failed to close")
        reps.append(start)
    return reps


def _crossing_points(point: RMPoint, D: int, p: int) -> list:
    """(w, weight) for all RM points w in the SL2(Z)-orbit of `point` whose
    geodesic (w', w) separates 0 from infinity, with their p-power content
    divided out: exactly the roots of equivalent forms with A*C < 0.  Those
    with A > 0 > C are the edges of the form's river (Conway, The Sensual
    (Quadratic) Form), of weight +1, and the rest are their images
    (C, -B, A) under S, of weight -1; one period of the river is walked from
    a reduced form.  The root of (A, B, C) has norm C/A, so for inert p its
    valuation is (v_p(C) - v_p(A))/2, and its S-image has the opposite one.
    Values are returned over sqrt(D)."""
    Dp = point.disc
    k = isqrt(Dp // D)
    assert k * k * D == Dp
    A, B, C = start = reduce_form(point.form)   # reduced, so A*C < 0
    if A < 0:
        A, B, C = start = (C, -B, A)           # S keeps the proper class
    out = []
    # a river form has B^2 < Dp and A | (Dp - B^2)/4: fewer than 2 Dp of them
    for _ in range(2 * Dp):
        # (-B + k*sqrt(D)) / (2A p^v), and (B + k*sqrt(D)) p^v / (2C) for
        # (C, -B, A)
        v = (_vp(C, p) - _vp(A, p)) // 2
        up, down = p ** max(-v, 0), p ** max(v, 0)
        a, c = 2 * A * down, 2 * C * up
        out.append((QuadNum(D, Fraction(-B * up, a), Fraction(k * up, a)), 1))
        out.append((QuadNum(D, Fraction(B * down, c), Fraction(k * down, c)),
                    -1))
        s = A + B + C   # the value at (1, 1); never 0, as Dp is no square
        A, B, C = (A, B + 2 * A, s) if s < 0 else (s, B + 2 * C, C)
        if (A, B, C) == start:
            return out
    raise ArithmeticError("river walk failed to close")


def _translate(tau: RMPoint, delta) -> RMPoint:
    """The RM point (a tau + b)/d for delta = [[a, b], [0, d]]: the root of
    the form of tau under ad * delta^-1, made primitive."""
    (a, b), (_, d) = delta
    f = apply_sl2(tau.form, ((d, -b), (0, a)))
    g = gcd(*f)
    return RMPoint(*(c // g for c in f))


def rm_set_by_cosets(tau: RMPoint, n: int, p: int) -> list:
    """Oracle route: weighted RM points from the double-coset formula, the
    translates (a tau + b)/d of tau by the coset representatives."""
    D = tau.disc
    _check_instance(D, n, p)
    return [WeightedRMPoint(w, weight) for delta in double_coset_reps(tau, n)
            for w, weight in _crossing_points(_translate(tau, delta), D, p)]


def log_Tn_Jw_by_cosets(tau: RMPoint, n: int, p: int,
                        ctx: PadicContext) -> PadicScalar:
    return _log_of_product(rm_set_by_cosets(tau, n, p), ctx)
