"""RM values of the winding cocycle.

Two independent routes to the same weighted multisets of RM points:

* the ideal-pair route: pairs (I, nu) with Tr(nu) = n, p coprime to I, I
  dividing (nu) * (different), and I in the ideal class of the lattice
  (1, tau), mapped to w = nu_0 * sqrt(D) / Nm(I);
* the double-coset route: representatives delta of determinant-n matrices
  modulo SL2(Z) on the left and the stabilizer of tau on the right, with the
  crossing points of each orbit SL2(Z) * delta(tau) enumerated exactly via
  the finitely many forms (A, B, C) with A*C < 0 in the right class.

Both feed the weighted p-adic log sum log_Tn_Jw.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .padic import PadicContext, PadicScalar, _vp, iwasawa_log
from .quadfield import (IdealDivisorEngine, NarrowClassGroup, QuadNum,
                        RMPoint, _ext_gcd, apply_sl2, automorph, check_inert,
                        embed_quadnum, enumerate_trace, is_primitive,
                        reduce_cycle, reduce_form)


@dataclass(frozen=True)
class WeightedRMPoint:
    """An RM point w with opposite-sign real embeddings and its
    intersection weight."""

    w: QuadNum
    weight: int          # +1 iff w > 0 > w', -1 iff w < 0 < w'

    def __post_init__(self):
        assert self.w.sign() * self.w.conj().sign() < 0
        assert self.weight == (1 if self.w.sign() > 0 else -1)


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
    D = tau.disc
    group = group or NarrowClassGroup(D)
    engine = engine or IdealDivisorEngine(group, p)
    total = ctx.zero()
    for pt in rm_plus_set(tau, n, p, group, engine):
        total = total + iwasawa_log(embed_quadnum(pt.w, ctx))
    for pt in rm_minus_set(tau, n, p, group, engine):
        total = total - iwasawa_log(embed_quadnum(pt.w, ctx))
    return total


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


def _crossing_points(point: RMPoint, D: int):
    """All RM points w in the SL2(Z)-orbit of `point` whose geodesic (w', w)
    separates 0 from infinity: exactly the roots of equivalent forms with
    A*C < 0.  Finite, enumerated exactly; values returned over sqrt(D)."""
    Dp = point.disc
    k = isqrt(Dp // D)
    assert k * k * D == Dp
    cycle = set(reduce_cycle(point.form))
    s = isqrt(Dp)
    out = []
    for B in range(-s, s + 1):
        if (B * B - Dp) % 4:
            continue
        AC = (B * B - Dp) // 4  # negative: B^2 < Dp = k^2 D, not a square
        for A in range(1, -AC + 1):
            if AC % A:
                continue
            for Asigned in (A, -A):
                fcand = (Asigned, B, AC // Asigned)
                if not is_primitive(fcand):
                    continue
                if reduce_form(fcand) not in cycle:
                    continue
                # (-B + k*sqrt(D)) / (2A), expressed over sqrt(D)
                w = QuadNum(D, Fraction(-B, 2 * Asigned),
                            Fraction(k, 2 * Asigned))
                out.append(w)
    return out


def _strip_p(w: QuadNum, p: int) -> QuadNum:
    """Divide out the p-power content of an RM point (inert p, so
    v_p(w) = v_p(Nm w) / 2)."""
    nm = w.norm()
    vp = _vp(nm.numerator, p) // 2 - _vp(nm.denominator, p) // 2
    return w * Fraction(1, p) ** vp if vp else w


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
    out = []
    for delta in double_coset_reps(tau, n):
        for w in _crossing_points(_translate(tau, delta), D):
            w0 = _strip_p(w, p)
            weight = 1 if w0.sign() > 0 else -1
            out.append(WeightedRMPoint(w0, weight))
    return out


def log_Tn_Jw_by_cosets(tau: RMPoint, n: int, p: int,
                        ctx: PadicContext) -> PadicScalar:
    total = ctx.zero()
    for pt in rm_set_by_cosets(tau, n, p):
        term = iwasawa_log(embed_quadnum(pt.w, ctx))
        total = total + (term if pt.weight > 0 else -term)
    return total
