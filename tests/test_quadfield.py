import random
from fractions import Fraction
from math import isqrt

import pytest

from rmlab.padic import PadicContext
from rmlab.quadfield import (IdealF, IdealDivisorEngine, NarrowClassGroup,
                             QuadNum, RMPoint, all_reduced_forms, apply_sl2,
                             automorph, check_inert, compose_forms,
                             cycle_matrix, embed_quadnum, enumerate_trace,
                             factor_alpha, form_disc, has_norm_minus_one,
                             is_fundamental_discriminant,
                             minus_cf_cycle, partial_zeta_zero,
                             pell_fundamental, prime_ideal, prime_pairs,
                             principal_form, principal_ideal, reduce_form,
                             rho_step, shintani_zeta_zero, sieve_trace,
                             splitting_type, sqrtD_padic, trace_range)

DISCS = [5, 8, 12, 13, 21, 24, 28, 33, 40, 44, 56, 57, 60, 61]


def rand_quadnum(D, rng, integral=False, nonzero=True):
    while True:
        if integral:
            u, v = rng.randrange(-30, 31), rng.randrange(-30, 31)
            x = QuadNum(D, u, 0) + QuadNum.omega(D) * v
        else:
            x = QuadNum(D, Fraction(rng.randrange(-30, 31), rng.randrange(1, 7)),
                        Fraction(rng.randrange(-30, 31), rng.randrange(1, 7)))
        if not (nonzero and x.is_zero()):
            return x


def rand_sl2(rng, size=5):
    while True:
        a, b = rng.randrange(-size, size + 1), rng.randrange(-size, size + 1)
        c, d = rng.randrange(-size, size + 1), rng.randrange(-size, size + 1)
        if a * d - b * c == 1:
            return ((a, b), (c, d))


# --- discriminants and exact elements ---------------------------------------

def test_fundamental_discriminants():
    fund = [D for D in range(2, 70) if is_fundamental_discriminant(D)]
    assert fund == [5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40, 41, 44, 53,
                    56, 57, 60, 61, 65, 69]
    assert not is_fundamental_discriminant(9)    # square
    assert not is_fundamental_discriminant(45)   # 9 | 45
    assert not is_fundamental_discriminant(-3)


def test_quadnum_field_ops():
    rng = random.Random(1)
    for D in (5, 12, 61):
        for _ in range(30):
            x = rand_quadnum(D, rng)
            y = rand_quadnum(D, rng)
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x + y).trace() == x.trace() + y.trace()
            assert (x * x.inverse()) == QuadNum(D, 1, 0)
            assert x.conj().conj() == x
            assert (x * y).conj() == x.conj() * y.conj()


def test_quadnum_sign_and_floor_match_floats():
    rng = random.Random(2)
    for D in (5, 12, 61):
        for _ in range(50):
            x = rand_quadnum(D, rng)
            fx = float(x)
            if abs(fx) > 1e-9:
                assert x.sign() == (1 if fx > 0 else -1)
                assert x.floor() == int(fx // 1)
    # a case floats get nervous about: 1 + b*sqrt(D) with b ~ -1/sqrt(D)
    x = QuadNum(5, 1, Fraction(-161, 360))  # (161/360)^2*5 = 129605/129600 > 1
    assert x.sign() == -1


def test_coords_in_order_roundtrip():
    rng = random.Random(3)
    for D in (5, 12):
        w = QuadNum.omega(D)
        for _ in range(20):
            x = rand_quadnum(D, rng, integral=True)
            u, v = x.coords_in_order()
            assert QuadNum(D, u, 0) + w * v == x
        assert QuadNum(D, Fraction(1, 2), 0).coords_in_order() is None


# --- forms: reduction, cycles, composition ----------------------------------

def test_is_reduced_matches_float_definition():
    for D in DISCS:
        s = D ** 0.5
        for f in all_reduced_forms(D):
            A, B, C = f
            assert 0 < B < s and s - B < 2 * abs(A) < s + B
            assert form_disc(f) == D


def test_rho_step_is_the_stated_substitution():
    rng = random.Random(4)
    for D in (12, 40, 61):
        f = principal_form(D)
        for _ in range(15):
            g, m = rho_step(f)
            assert g == apply_sl2(f, ((0, -1), (1, m)))
            assert form_disc(g) == D
            f = g


def test_reduce_form_reaches_cycle():
    rng = random.Random(5)
    for D in (12, 40, 60):
        reds = set(all_reduced_forms(D))
        for _ in range(10):
            M = rand_sl2(rng)
            f = apply_sl2(principal_form(D), M)
            assert reduce_form(f) in reds


def test_cycle_matrix_is_automorph():
    for D in (12, 21, 40, 61):
        f = reduce_form(principal_form(D))
        M = cycle_matrix(f)
        assert M[0][0] * M[1][1] - M[0][1] * M[1][0] == 1
        assert apply_sl2(f, M) == f
        assert M != ((1, 0), (0, 1))


def _pell_brute(D, ubound=250):
    for u in range(1, ubound):
        t2 = D * u * u + 4
        t = isqrt(t2)
        if t * t == t2:
            return t, u
    raise AssertionError


def test_pell_fundamental_against_brute_force():
    for D in DISCS:
        assert pell_fundamental(D) == _pell_brute(D)
    assert pell_fundamental(61) == (1523, 195)
    assert pell_fundamental(57) == (302, 40)


def test_automorph_stabilizes_forms():
    rng = random.Random(6)
    for D in (12, 40):
        for f in all_reduced_forms(D)[:6]:
            g = automorph(f)
            assert apply_sl2(f, g) == f


def test_has_norm_minus_one():
    expected_true = {5, 8, 13, 17, 29, 37, 40, 41, 53, 61, 65}
    for D in DISCS + [17, 29, 37, 41, 53, 65]:
        assert has_norm_minus_one(D) == (D in expected_true), D


def test_compose_forms_well_defined_on_classes():
    rng = random.Random(7)
    for D in (12, 40, 60):
        g = NarrowClassGroup(D)
        for _ in range(10):
            i, j = rng.randrange(g.h), rng.randrange(g.h)
            f1 = apply_sl2(g.representative(i), rand_sl2(rng))
            f2 = apply_sl2(g.representative(j), rand_sl2(rng))
            assert g.class_of_form(compose_forms(f1, f2)) == g.compose(i, j)


# --- narrow class group ------------------------------------------------------

def test_class_numbers():
    expected = {5: 1, 8: 1, 12: 2, 13: 1, 21: 2, 24: 2, 28: 2, 33: 2, 40: 2,
                44: 2, 56: 2, 57: 2, 60: 4, 61: 1}
    for D, h in expected.items():
        assert NarrowClassGroup(D).h == h


def test_group_axioms_and_inverses():
    for D in (12, 40, 60):
        g = NarrowClassGroup(D)
        e = g.identity
        for i in range(g.h):
            assert g.compose(e, i) == i
            assert g.compose(i, g.inverse[i]) == e
            for j in range(g.h):
                assert g.compose(i, j) == g.compose(j, i)
                for k in range(g.h):
                    assert (g.compose(g.compose(i, j), k)
                            == g.compose(i, g.compose(j, k)))


def test_different_class_trivial_iff_norm_minus_one():
    for D in DISCS:
        g = NarrowClassGroup(D)
        assert (g.different_class == g.identity) == has_norm_minus_one(D)


def test_odd_character_counts():
    expected = {5: 0, 8: 0, 12: 1, 13: 0, 33: 1, 40: 0, 60: 2, 61: 0}
    for D, n in expected.items():
        g = NarrowClassGroup(D)
        assert len(g.odd_characters()) == n
        for chi in g.characters:
            assert chi[g.identity] == 1
            for i in range(g.h):
                for j in range(g.h):
                    assert chi[g.compose(i, j)] == chi[i] * chi[j]


# --- RM points ----------------------------------------------------------------

def test_rm_point_roundtrip():
    rng = random.Random(8)
    for D in (12, 40, 61):
        g = NarrowClassGroup(D)
        for i in range(g.h):
            tau = g.rm_representative(i)
            assert RMPoint.from_value(tau.value()) == tau
            assert g.class_of_rm_point(tau) == i
            M = rand_sl2(rng)
            moved = tau.apply(M)
            assert g.class_of_rm_point(moved) == i
            # Moebius action on the actual value
            (a, b), (c, d) = M
            w = tau.value()
            expected = (w * a + QuadNum(D, b, 0)) / (w * c + QuadNum(D, d, 0))
            assert moved.value() == expected


def test_negation_multiplies_by_different_class():
    for D in (12, 21, 40, 60):
        g = NarrowClassGroup(D)
        for i in range(g.h):
            tau = g.rm_representative(i)
            assert (g.class_of_rm_point(tau.negate())
                    == g.compose(i, g.different_class))
            assert tau.negate().value() == -tau.value()


# --- ideals -------------------------------------------------------------------

def test_principal_ideal_norm():
    rng = random.Random(9)
    for D in (12, 40, 61):
        for _ in range(20):
            x = rand_quadnum(D, rng, integral=True)
            I = principal_ideal(D, x)
            assert I.norm == abs(x.norm())
            assert I.contains(x)
            assert I.contains(x * QuadNum.omega(D))


def test_ideal_mult_norm_multiplicative():
    rng = random.Random(10)
    for D in (12, 40):
        for _ in range(15):
            x = rand_quadnum(D, rng, integral=True)
            y = rand_quadnum(D, rng, integral=True)
            Ix, Iy = principal_ideal(D, x), principal_ideal(D, y)
            assert Ix.mult(Iy) == principal_ideal(D, x * y)
            assert Ix.mult(Iy).norm == Ix.norm * Iy.norm


def test_prime_ideals():
    for D in (12, 40, 61):
        for q in (2, 3, 5, 7, 11, 13):
            typ = splitting_type(D, q)
            P = prime_ideal(D, q)
            assert P.contains(QuadNum(D, q, 0))
            if typ == "inert":
                assert P.norm == q * q
                assert P == principal_ideal(D, QuadNum(D, q, 0))
            else:
                assert P.norm == q
            if typ == "split":
                Q = prime_ideal(D, q, 1)
                assert Q != P
                assert P.mult(Q) == principal_ideal(D, QuadNum(D, q, 0))
            if typ == "ramified":
                assert P.mult(P) == principal_ideal(D, QuadNum(D, q, 0))


def test_check_inert_is_the_callers_guard():
    from rmlab.eisenstein import diag_restrict_derivative
    from rmlab.gsunits import generating_series
    from rmlab.winding import log_Tn_Jw
    check_inert(12, 5)
    group = NarrowClassGroup(12)
    tau = group.rm_representative(group.identity)
    ctx = PadicContext(11, 8)
    chi = group.odd_characters()[0]
    for p in (11, 3):                       # split, ramified
        msg = rf"^p = {p} is not inert in Q\(sqrt\(12\)\)$"
        for call in (lambda: check_inert(12, p),
                     lambda: generating_series(tau, p, 4, ctx),
                     lambda: diag_restrict_derivative(chi, group, p, 4, ctx),
                     lambda: log_Tn_Jw(tau, 1, p, ctx)):
            with pytest.raises(ValueError, match=msg):
                call()


def test_factor_alpha_reconstructs_ideal():
    rng = random.Random(11)
    for D in (12, 40, 61):
        for _ in range(15):
            x = rand_quadnum(D, rng, integral=True)
            I = IdealF(D, 1, 0, 1)
            nm = 1
            for P, e in factor_alpha(D, x):
                nm *= P.norm ** e
                for _ in range(e):
                    I = I.mult(P)
            assert I == principal_ideal(D, x)
            assert nm == abs(x.norm())


# (D, n): 2 splits in Q(sqrt(33)); 2, 3 and 5 ramify in Q(sqrt(60)) and 2, 3
# in Q(sqrt(12)); 5 is inert and divides n in (33, 10), (12, 35), and 13 in
# (60, 26); 7^2 | 98 and 5^2 | 25, 50 with 7 and 5 inert
SIEVE_LEVELS = [(33, 1), (33, 6), (33, 10), (33, 98), (12, 1), (12, 25),
                (12, 35), (12, 50), (60, 4), (60, 26), (60, 30)]


@pytest.mark.parametrize("D, n", SIEVE_LEVELS)
def test_level_sieve_matches_factor_alpha(D, n):
    svals, owner, primes, exps = sieve_trace(n, D)
    assert svals == trace_range(n, D)
    assert [e.s for e in enumerate_trace(n, D)] == list(svals)
    records = [[] for _ in svals]
    for i, q, e in zip(owner, primes, exps):
        records[i].append((q, e))
    for s, recs in zip(svals, records):
        alpha = QuadNum(D, Fraction(s, 2), Fraction(n, 2))
        u, v = (s - n * D) // 2, n                  # alpha = u + v*omega
        assert [q for q, _ in recs] == sorted({q for q, _ in recs})
        assert [pair for q, e in recs for pair in prime_pairs(D, q, e, u, v)] \
            == factor_alpha(D, alpha)
    # a skipped s keeps no record, and the others keep theirs
    for skip in (5, 7):
        kept = list(zip(*sieve_trace(n, D, skip)[1:]))
        assert kept == [r for r in zip(owner, primes, exps)
                        if svals[r[0]] % skip]


def test_narrow_class_of_principal_ideals():
    g = NarrowClassGroup(12)
    tot_pos = QuadNum(12, 7, 2)
    assert tot_pos.is_totally_positive()
    assert g.narrow_class_of_ideal(principal_ideal(12, tot_pos)) == g.identity
    mixed = QuadNum(12, 1, 1)
    assert mixed.sign() != mixed.conj().sign()
    assert (g.narrow_class_of_ideal(principal_ideal(12, mixed))
            == g.different_class)


def test_divisor_engine_counts_and_classes():
    rng = random.Random(12)
    for D, p in ((12, 5), (40, 7)):
        g = NarrowClassGroup(D)
        eng = IdealDivisorEngine(g, p)
        for _ in range(10):
            x = rand_quadnum(D, rng, integral=True)
            divs = eng.divisors(x)
            expected = 1
            for P, e in factor_alpha(D, x):
                if P.a != p:
                    expected *= e + 1
            assert len(divs) == expected
            for d in rng.sample(divs, min(4, len(divs))):
                I = d.hnf()
                assert I.norm == d.norm
                assert g.narrow_class_of_ideal(I) == d.class_idx
                assert d.norm % p != 0


# --- trace enumeration ---------------------------------------------------------

def test_enumerate_trace_exact_set():
    for D in (12, 40):
        for n in range(1, 8):
            elts = enumerate_trace(n, D)
            seen = set()
            for e in elts:
                nu = e.nu
                assert nu.trace() == n
                assert nu.is_totally_positive()
                alpha = e.alpha
                assert alpha.coords_in_order() is not None  # in the different^-1
                assert e.ideal_norm == -alpha.norm()  # Nm(sqrt(D)) < 0
                seen.add(e.s)
            # completeness: every legal s is present
            smax = isqrt(n * n * D)
            legal = {s for s in range(-smax, smax + 1)
                     if (s - n * D) % 2 == 0 and s * s < n * n * D}
            assert seen == legal


def test_vp_and_deprivation():
    p = 5
    found = 0
    for n in range(1, 30):
        for e in enumerate_trace(n, 12):
            k = e.vp(p)
            if k > 0:
                found += 1
                d = e.deprived(p)
                assert d.n * p ** k == e.n and d.s * p ** k == e.s
                assert d.vp(p) == 0
    assert found > 0


# --- p-adic embedding -----------------------------------------------------------

def test_sqrtD_padic_squares_to_D():
    for p, D in ((5, 12), (5, 61), (7, 12), (7, 40)):
        ctx = PadicContext(p, 15)
        s = sqrtD_padic(ctx, D)
        assert (s * s).equals(ctx.from_int(D))
        # split iff D is a residue: the omega-coordinate vanishes exactly then
        if splitting_type(D, p) == "split":
            assert s.u1 == 0
        else:
            assert s.u0 == 0 or s.v is None or s.u1 != 0


def test_embed_is_ring_homomorphism():
    rng = random.Random(13)
    ctx = PadicContext(5, 15)
    for D in (12, 61):
        for _ in range(15):
            x = rand_quadnum(D, rng)
            y = rand_quadnum(D, rng)
            ex, ey = embed_quadnum(x, ctx), embed_quadnum(y, ctx)
            assert embed_quadnum(x * y, ctx).equals(ex * ey, 12)
            assert embed_quadnum(x + y, ctx).equals(ex + ey, 12)


def test_embed_ramified_rejected():
    ctx = PadicContext(5, 10)
    with pytest.raises(ValueError):
        sqrtD_padic(ctx, 40)


# --- partial zeta values ----------------------------------------------------------

def test_minus_cf_is_periodic_and_equivalent():
    for D in (12, 40, 61):
        g = NarrowClassGroup(D)
        tau = g.rm_representative(g.identity).value()
        bs, ws = minus_cf_cycle(tau)
        assert all(b >= 2 for b in bs)
        w = ws[0]
        for b in bs:
            w = (QuadNum(D, b, 0) - w).inverse()
        assert w == ws[0]


ZETA_TABLE = {
    # class-indexed values, identity first, then by group index
    5: [Fraction(0)],
    8: [Fraction(0)],
    12: [Fraction(1, 12), Fraction(-1, 12)],
    13: [Fraction(0)],
    21: [Fraction(1, 6), Fraction(-1, 6)],
    24: [Fraction(1, 6), Fraction(-1, 6)],
    28: [Fraction(1, 4), Fraction(-1, 4)],
    33: [Fraction(-1, 6), Fraction(1, 6)],
    40: [Fraction(0), Fraction(0)],
    44: [Fraction(1, 4), Fraction(-1, 4)],
    56: [Fraction(1, 2), Fraction(-1, 2)],
    57: [Fraction(-1, 6), Fraction(1, 6)],
    60: [Fraction(5, 12), Fraction(-5, 12), Fraction(1, 12), Fraction(-1, 12)],
    61: [Fraction(0)],
}


def test_partial_zeta_pinned_values():
    for D, vals in ZETA_TABLE.items():
        g = NarrowClassGroup(D)
        assert [partial_zeta_zero(g, i) for i in range(g.h)] == vals


def test_partial_zeta_sums_to_zero_and_odd_under_different():
    for D in DISCS:
        g = NarrowClassGroup(D)
        z = [partial_zeta_zero(g, i) for i in range(g.h)]
        assert sum(z) == 0
        for i in range(g.h):
            assert z[g.compose(i, g.different_class)] == -z[i]


def test_partial_zeta_matches_shintani_oracle():
    for D in DISCS:
        g = NarrowClassGroup(D)
        for i in range(g.h):
            assert shintani_zeta_zero(g, i) == partial_zeta_zero(g, i)


def test_flagship_zeta_identity_value():
    # L-value of the odd genus character at D = 12 forces the identity class
    # to carry +1/12
    g = NarrowClassGroup(12)
    assert partial_zeta_zero(g, g.identity) == Fraction(1, 12)
    (chi,) = g.odd_characters()
    lval = sum(chi[i] * partial_zeta_zero(g, i) for i in range(g.h))
    assert lval == Fraction(1, 6)
