import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import pytest
from sympy import primerange

from rmlab import winding
from rmlab.padic import PadicContext, _vp, iwasawa_log
from rmlab.quadfield import (IdealDivisorEngine, NarrowClassGroup, QuadNum,
                             automorph, embed_quadnum,
                             is_fundamental_discriminant, is_primitive,
                             reduce_cycle, reduce_form, splitting_type)
from rmlab.winding import (WeightedRMPoint, _crossing_points, _hnf2, _matmul,
                           _translate, double_coset_reps, log_Tn_Jw,
                           log_Tn_Jw_by_cosets, rm_minus_set, rm_plus_set,
                           rm_set_by_cosets)

from test_quadfield import form_of_value, rm_value

CTX5 = PadicContext(5, 18)


def group_engine(D, p):
    g = NarrowClassGroup(D)
    return g, IdealDivisorEngine(g, p)


def multiset(points):
    return Counter(((pt.w.a, pt.w.b), pt.weight) for pt in points)


def test_instance_guards():
    g, eng = group_engine(12, 5)
    tau = g.rm_representative(0)
    with pytest.raises(ValueError):
        rm_plus_set(tau, 5, 5, g, eng)  # n not coprime to p
    with pytest.raises(ValueError):
        rm_plus_set(tau, 1, 13, g, eng)  # 13 splits in Q(sqrt 12)
    with pytest.raises(ValueError):
        rm_plus_set(tau, 1, 3, g, eng)  # 3 ramifies


@pytest.mark.parametrize("n", [0, -1])
def test_nonpositive_n_rejected(n):
    # the trace range is empty for n <= 0, which would sum to the zero
    # marker; 0 is divisible by p, but the message must name the sign
    g, eng = group_engine(12, 5)
    tau = g.rm_representative(0)
    msg = rf"^n must be a positive integer, not {n}$"
    with pytest.raises(ValueError, match=msg):
        rm_plus_set(tau, n, 5, g, eng)
    with pytest.raises(ValueError, match=msg):
        log_Tn_Jw(tau, n, 5, CTX5, g, eng)


def test_emitted_points_postconditions():
    g, eng = group_engine(12, 5)
    for i in range(g.h):
        tau = g.rm_representative(i)
        for n in (1, 2, 3):
            for pt in rm_plus_set(tau, n, p=5, group=g, engine=eng):
                assert pt.w.sign() > 0 > pt.w.conj().sign()
                assert pt.weight == 1
                nm = pt.w.norm()
                assert nm.numerator % 25 and nm.denominator % 25
            for pt in rm_minus_set(tau, n, p=5, group=g, engine=eng):
                assert pt.w.sign() < 0 < pt.w.conj().sign()
                assert pt.weight == -1


def test_minus_set_is_negated_plus_set_of_negated_point():
    g, eng = group_engine(12, 5)
    tau = g.rm_representative(0)
    for n in (1, 2, 3):
        minus = multiset(rm_minus_set(tau, n, 5, g, eng))
        negated = Counter((((-pt.w).a, (-pt.w).b), -pt.weight)
                          for pt in rm_plus_set(tau.negate(), n, 5, g, eng))
        assert minus == negated


def test_norm_minus_one_field_cancels():
    # D = 5 has a unit of norm -1; the plus and minus sets pair off and all
    # weighted log sums vanish
    for p in (7, 13):
        g, eng = group_engine(5, p)
        ctx = PadicContext(p, 12)
        tau = g.rm_representative(0)
        for n in range(1, 11):
            if n % p == 0:
                continue
            plus = multiset(rm_plus_set(tau, n, p, g, eng))
            minus = Counter((((-pt.w).a, (-pt.w).b), 1)
                            for pt in rm_minus_set(tau, n, p, g, eng))
            assert plus == minus
            assert log_Tn_Jw(tau, n, p, ctx, g, eng).is_zero


def test_weighted_point_validates_sign_convention():
    w = QuadNum(12, 1, Fraction(1, 2))  # 1 + sqrt(12)/2 > 0 > conj
    WeightedRMPoint(w, 1)
    with pytest.raises(AssertionError):
        WeightedRMPoint(w, -1)
    with pytest.raises(AssertionError):
        WeightedRMPoint(QuadNum(12, 4, 1), 1)  # totally positive


# --- double-coset oracle ------------------------------------------------------

def test_hnf2_is_left_sl2_reduction():
    rng = random.Random(1)
    for _ in range(40):
        while True:
            M = tuple((rng.randrange(-9, 10), rng.randrange(-9, 10))
                      for _ in range(2))
            det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
            if det > 0:
                break
        (a, b), (c, d) = _hnf2(M)
        assert c == 0 and a > 0 and d > 0 and 0 <= b < d
        assert a * d == det
        assert _hnf2(((a, b), (c, d))) == ((a, b), (0, d))


def test_hnf2_invariant_under_left_sl2():
    rng = random.Random(2)
    gens = [((1, 1), (0, 1)), ((0, -1), (1, 0))]
    for _ in range(20):
        M = ((rng.randrange(1, 8), rng.randrange(0, 8)),
             (0, rng.randrange(1, 8)))
        U = ((1, 0), (0, 1))
        for _ in range(5):
            U = _matmul(U, gens[rng.randrange(2)])
        assert _hnf2(_matmul(U, M)) == _hnf2(M)


def test_n1_coset_space_is_identity():
    g, _ = group_engine(12, 5)
    tau = g.rm_representative(0)
    assert double_coset_reps(tau, 1) == [((1, 0), (0, 1))]


def bfs_coset_reps(tau, n):
    """Oracle for `double_coset_reps`: the orbits of <g> on the HNFs of
    determinant n, each found by a search along delta -> hnf(delta g) and
    delta -> hnf(delta g^-1) and represented by its least member."""
    g = automorph(tau.form)
    ginv = ((g[1][1], -g[0][1]), (-g[1][0], g[0][0]))
    remaining = {((a, b), (0, n // a)) for a in range(1, n + 1) if n % a == 0
                 for b in range(n // a)}
    reps = []
    while remaining:
        start = min(remaining)
        orbit, frontier = {start}, [start]
        while frontier:
            cur = frontier.pop()
            for m in (g, ginv):
                nxt = _hnf2(_matmul(cur, m))
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        reps.append(start)
        remaining -= orbit
    return reps


def test_double_coset_reps_match_the_orbit_search():
    # 25 fundamental discriminants, every class, tau and -tau, n = 1..24
    discs = [D for D in range(5, 200) if is_fundamental_discriminant(D)][:25]
    for D in discs:
        group = NarrowClassGroup(D)
        for i in range(group.h):
            tau = group.rm_representative(i)
            for t in (tau, tau.negate()):
                for n in range(1, 25):
                    assert double_coset_reps(t, n) == bfs_coset_reps(t, n), \
                        (D, i, t.form, n)


def test_translate_matches_the_value_route():
    # (a tau + b)/d by forms against the same translate of the QuadNum value:
    # 25 fundamental discriminants, every class, tau and -tau, n = 1..12
    discs = [D for D in range(5, 200) if is_fundamental_discriminant(D)][:25]
    hnfs = [((a, b), (0, n // a)) for n in range(1, 13)
            for a in range(1, n + 1) if n % a == 0 for b in range(n // a)]
    for D in discs:
        group = NarrowClassGroup(D)
        for i in range(group.h):
            tau = group.rm_representative(i)
            for t in (tau, tau.negate()):
                w = rm_value(t)
                for delta in hnfs:
                    (a, b), (_, d) = delta
                    val = (w * a + QuadNum(D, b, 0)) * Fraction(1, d)
                    assert _translate(t, delta) == form_of_value(val), \
                        (D, i, t.form, delta)


@lru_cache(maxsize=None)
def reduced_crossing_forms(Dp):
    """Every primitive (A, B, C) of discriminant Dp with A*C < 0, found by
    trying each (A, B) with B^2 < Dp and A | AC and both signs of A, paired
    with its reduced form; kept per Dp, which many translates share."""
    s = isqrt(Dp)
    out = []
    for B in range(-s, s + 1):
        if (B * B - Dp) % 4:
            continue
        AC = (B * B - Dp) // 4  # negative: Dp is not a square
        for A in range(1, -AC + 1):
            if AC % A:
                continue
            for Asigned in (A, -A):
                f = (Asigned, B, AC // Asigned)
                if is_primitive(f):
                    out.append((f, reduce_form(f)))
    return out


def lowest_terms(num, den):
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def search_crossing_points(point, D, p):
    """Oracle for `_crossing_points`: the roots w = (-B + k sqrt(D))/(2A) of
    the forms of `reduced_crossing_forms` that reduce into the cycle of
    `point`'s form, each divided by p^(v_p(Nm w)/2) (p inert), read off
    Nm w = (B^2 - k^2 D)/(4A^2), as sorted tuples (a, a', b, b', sign A) of
    the value a/a' + (b/b') sqrt(D) in lowest terms with a', b' > 0 and its
    weight (`WeightedRMPoint` checks each weight of `rm_set_by_cosets`
    against the exact sign)."""
    k = isqrt(point.disc // D)
    cycle = set(reduce_cycle(point.form))
    out = []
    for (A, B, _), reduced in reduced_crossing_forms(point.disc):
        if reduced in cycle:
            v = (_vp(point.disc - B * B, p) - _vp(4 * A * A, p)) // 2
            up, down = p ** max(-v, 0), 2 * A * p ** max(v, 0)
            out.append(lowest_terms(-B * up, down) + lowest_terms(k * up, down)
                       + ((A > 0) - (A < 0),))
    return sorted(out)


def sorted_values(points):
    """(QuadNum, weight) pairs as the sorted tuples of
    `search_crossing_points`."""
    return sorted((w.a.numerator, w.a.denominator, w.b.numerator,
                   w.b.denominator, weight) for w, weight in points)


def test_crossing_points_walk_matches_the_search():
    # 25 fundamental discriminants, every class, tau and -tau, n = 1..6:
    # every double-coset translate (1,628 of them), at the least inert p
    discs = [D for D in range(5, 200) if is_fundamental_discriminant(D)][:25]
    translates = 0
    for D in discs:
        p = next(q for q in primerange(2, D) if splitting_type(D, q) == "inert")
        group = NarrowClassGroup(D)
        for i in range(group.h):
            tau = group.rm_representative(i)
            for t in (tau, tau.negate()):
                for n in range(1, 7):
                    for delta in double_coset_reps(t, n):
                        point = _translate(t, delta)
                        walk = sorted_values(_crossing_points(point, D, p))
                        assert walk == search_crossing_points(point, D, p), \
                            (D, i, t.form, delta)
                        translates += 1
    assert translates == 1628


def per_point_log_sum(points, ctx):
    """Oracle for the one log of `log_Tn_Jw` and `log_Tn_Jw_by_cosets`: the
    weighted sum of one Iwasawa log per point."""
    total = ctx.zero()
    for pt in points:
        term = iwasawa_log(embed_quadnum(pt.w, ctx))
        total = total + (term if pt.weight > 0 else -term)
    return total


@pytest.mark.parametrize("D, p", [(12, 5), (21, 11), (60, 13), (136, 7)])
def test_one_log_matches_the_per_point_sum(D, p):
    # both routes give the same points, so one sum checks both; the one log
    # knows every digit the sum does, and more where the sum cancels: at
    # (136, 7), n = 4, logs of valuation 1 add up to valuation 2, and the
    # sum keeps slack 3 where the one log has 2
    ctx = PadicContext(p, 12)
    g, eng = group_engine(D, p)
    for i in range(g.h):
        tau = g.rm_representative(i)
        for n in [k for k in range(1, 7) if k % p]:
            oracle = per_point_log_sum(rm_set_by_cosets(tau, n, p), ctx)
            for value in (log_Tn_Jw(tau, n, p, ctx, g, eng),
                          log_Tn_Jw_by_cosets(tau, n, p, ctx)):
                assert (value - oracle).is_zero, (i, n)
                assert value.v == oracle.v and value.slack <= oracle.slack


@pytest.mark.parametrize("D, p", [(5, 7), (13, 5)])
def test_one_log_vanishes_exactly_on_norm_minus_one_fields(D, p):
    ctx = PadicContext(p, 12)
    g, eng = group_engine(D, p)
    tau = g.rm_representative(0)
    for n in [k for k in range(1, 9) if k % p]:
        assert log_Tn_Jw(tau, n, p, ctx, g, eng).is_zero
        assert log_Tn_Jw_by_cosets(tau, n, p, ctx).is_zero


def test_one_value_costs_one_log(monkeypatch):
    calls = []

    def counting_log(x):
        calls.append(x)
        return iwasawa_log(x)

    monkeypatch.setattr(winding, "iwasawa_log", counting_log)
    ctx = PadicContext(7, 12)
    g, eng = group_engine(136, 7)
    tau = g.rm_representative(1)
    for n in (1, 4, 6):
        calls.clear()
        log_Tn_Jw(tau, n, 7, ctx, g, eng)
        assert len(calls) == 1
        calls.clear()
        log_Tn_Jw_by_cosets(tau, n, 7, ctx)
        assert len(calls) == 1


def test_coset_oracle_matches_ideal_route():
    g, eng = group_engine(12, 5)
    for i in range(g.h):
        tau = g.rm_representative(i)
        for n in (1, 2, 3):
            ideal_ms = multiset(rm_plus_set(tau, n, 5, g, eng)
                                + rm_minus_set(tau, n, 5, g, eng))
            coset_ms = multiset(rm_set_by_cosets(tau, n, 5))
            assert ideal_ms == coset_ms
            li = log_Tn_Jw(tau, n, 5, CTX5, g, eng)
            lc = log_Tn_Jw_by_cosets(tau, n, 5, CTX5)
            assert li.equals(lc, 14)


def test_coset_oracle_orientation_on_cyclic_class_group():
    # Cl+(145) is cyclic of order 4: classes 2 and 3 are mutually inverse,
    # so this pins the orientation of the lattice-class convention
    g, eng = group_engine(145, 7)
    assert g.h == 4 and sorted(g.inverse) == [0, 1, 2, 3] \
        and g.inverse != list(range(4))
    for i in range(g.h):
        tau = g.rm_representative(i)
        ideal_ms = multiset(rm_plus_set(tau, 1, 7, g, eng)
                            + rm_minus_set(tau, 1, 7, g, eng))
        coset_ms = multiset(rm_set_by_cosets(tau, 1, 7))
        assert ideal_ms == coset_ms


def test_log_parity_under_negation():
    g, eng = group_engine(12, 5)
    tau = g.rm_representative(0)
    for n in (1, 2, 3):
        a = log_Tn_Jw(tau, n, 5, CTX5, g, eng)
        b = log_Tn_Jw(tau.negate(), n, 5, CTX5, g, eng)
        assert (a + b).is_zero or (a + b).v >= 14


def test_embedding_frobenius_equivariance():
    # conjugating the field element corresponds to Frobenius on the inert
    # completion, hence every log summand is Frobenius-equivariant
    g, eng = group_engine(12, 5)
    tau = g.rm_representative(0)
    for pt in rm_plus_set(tau, 3, 5, g, eng):
        lw = iwasawa_log(embed_quadnum(pt.w, CTX5))
        lwc = iwasawa_log(embed_quadnum(pt.w.conj(), CTX5))
        assert lwc.equals(lw.frobenius(), 14)
