import random
from collections import Counter
from fractions import Fraction

import pytest

from rmlab.padic import PadicContext, iwasawa_log
from rmlab.quadfield import (IdealDivisorEngine, NarrowClassGroup, QuadNum,
                             automorph, embed_quadnum,
                             is_fundamental_discriminant)
from rmlab.winding import (WeightedRMPoint, _hnf2, _matmul, _translate,
                           double_coset_reps, log_Tn_Jw, log_Tn_Jw_by_cosets,
                           rm_minus_set, rm_plus_set, rm_set_by_cosets)

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
