import random
from array import array
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm

import pytest
from hypothesis import assume, given, strategies as st
from sympy import primerange

from rmlab.padic import PadicContext, hensel_lift
from rmlab.quadfield import (IdealF, IdealDivisorEngine, NarrowClassGroup,
                             QuadNum, RMPoint, all_reduced_forms, apply_sl2,
                             automorph, check_inert, compose_forms,
                             embed_quadnum, enumerate_trace,
                             factor_alpha, form_disc, genus_value,
                             has_norm_minus_one,
                             is_fundamental_discriminant, partial_zeta_zero,
                             pell_fundamental, prime_ideal, prime_pairs,
                             principal_form, reduce_form,
                             rho_step, shintani_zeta_zero, splitting_type,
                             sqrtD_padic, trace_range)
from rmlab.quadfield import (_ext_gcd, _odd_primes_upto, _split_exponent,
                             _split_root, progression_start)

DISCS = [5, 8, 12, 13, 21, 24, 28, 33, 40, 44, 56, 57, 60, 61]
FUNDAMENTAL_500 = [D for D in range(5, 500) if is_fundamental_discriminant(D)]
# the discriminants of the minus continued fraction oracle's tests
ORACLE_DISCS = [D for D in range(5, 2000) if is_fundamental_discriminant(D)]


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


# --- oracles: the same facts through QuadNum values and the Gauss cycle ------

def quadnum_floor(x):
    """Oracle: the exact floor of x under sqrt(D) > 0, from the floor of
    L * x with L the common denominator of its coordinates."""
    L = lcm(x.a.denominator, x.b.denominator)
    A, B = int(x.a * L), int(x.b * L)
    r = isqrt(B * B * x.D)
    return (A + (r if B >= 0 else -r - 1)) // L


def quadnum_minus_cf_cycle(w):
    """Oracle for `minus_cf_cycle`: (bs, ws) of the period of the minus
    continued fraction, walked on the values w -> 1/(b - w)."""
    seen, path = {}, []
    while w not in seen:
        seen[w] = len(path)
        b = quadnum_floor(w) + 1  # ceiling of an irrational
        path.append((w, b))
        w = (QuadNum(w.D, b, 0) - w).inverse()
    start = seen[w]
    return [b for (_, b) in path[start:]], [x for (x, _) in path[start:]]


def minus_cf_cycle(f):
    """Oracle for `partial_zeta_zero` and `pell_fundamental`: the period of
    the minus continued fraction of the root w of f, as the
    (b_0, ..., b_{m-1}), the periodic forms and their product M of the
    [[b_i, -1], [1, 0]], the automorph of the first periodic form.

    The step w -> 1/(b - w), b the ceiling of w, is the form f(bx - y, x)
    = (f(b, 1), -2Ab - B, A).  w = (-B + sqrt(D))/(2A) is irrational, so its
    ceiling is its floor plus one, read off s = isqrt(D)."""
    s = isqrt(form_disc(f))
    seen, path = {}, []
    while f not in seen:
        seen[f] = len(path)
        A, B, _ = f
        b = ((s - B) // (2 * A) if A > 0 else (B - s - 1) // (-2 * A)) + 1
        path.append((f, b))
        f = apply_sl2(f, ((b, -1), (1, 0)))
    period = path[seen[f]:]
    M = ((1, 0), (0, 1))
    for _, b in period:
        M = ((b * M[0][0] + M[0][1], -M[0][0]),
             (b * M[1][0] + M[1][1], -M[1][0]))
    return [b for _, b in period], [g for g, _ in period], M


def pell_square_test(D):
    """Oracle for `has_norm_minus_one`: with (t, u) the least solution of
    t^2 - D u^2 = 4, read off the minus continued fraction, a unit of norm
    -1 exists iff t - 2 and (t + 2)/D are perfect squares (then
    eps_- = sqrt(eps_+))."""
    M = minus_cf_cycle(principal_form(D))[2]
    t = abs(M[0][0] + M[1][1])
    y2 = (t + 2) // D
    return (isqrt(t - 2) ** 2 == t - 2 and (t + 2) % D == 0
            and isqrt(y2) ** 2 == y2)


def rm_value(tau):
    """The RM point tau = (-B + sqrt(D))/(2A) as a QuadNum."""
    return QuadNum(tau.disc, Fraction(-tau.B, 2 * tau.A),
                   Fraction(1, 2 * tau.A))


def form_of_value(w):
    """Oracle: the unique primitive form (A, B, C) with
    w = (-B + k sqrt(D))/(2A), k >= 1, from the rational coefficients of
    A w^2 + B w + C = 0 with A = 1/(2b) and B = -a/b, cleared by a positive
    rational (which keeps the root)."""
    assert w.b != 0
    D = w.D
    A = Fraction(1, 2) / w.b
    B = -w.a / w.b
    Cq = -(w * w * A + w * B)
    assert Cq.b == 0
    C = Cq.a
    L = lcm(A.denominator, B.denominator, C.denominator)
    Ai, Bi, Ci = int(A * L), int(B * L), int(C * L)
    g = gcd(gcd(Ai, Bi), Ci)
    pt = RMPoint(Ai // g, Bi // g, Ci // g)
    assert pt.disc % D == 0
    k2 = pt.disc // D
    assert isqrt(k2) ** 2 == k2
    assert (w * w * pt.A + w * pt.B + QuadNum(D, pt.C, 0)).is_zero()
    assert (w.b > 0) == (pt.A > 0)
    return pt


def gauss_cycle_matrix(f):
    """Oracle automorph: the matrix of one trip around the reduced (Gauss)
    cycle of f, an automorph of the reduced starting form."""
    g = reduce_form(f)
    M = ((1, 0), (0, 1))
    h = g
    while True:
        h, m = rho_step(h)
        M = ((M[0][1], -M[0][0] + m * M[0][1]),
             (M[1][1], -M[1][0] + m * M[1][1]))
        if h == g:
            return M


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
            assert x + x.conj() == QuadNum(D, 2 * x.a, 0)   # the trace
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
                assert quadnum_floor(x) == int(fx // 1)
    # a case floats get nervous about: 1 + b*sqrt(D) with b ~ -1/sqrt(D)
    x = QuadNum(5, 1, Fraction(-161, 360))  # (161/360)^2*5 = 129605/129600 > 1
    assert x.sign() == -1


def sign_by_squares(x):
    """Oracle for `QuadNum.sign`: the sign of a + b sqrt(D) from the signs
    of a and b, and, when they differ, from a^2 against b^2 D."""
    sa, sb = (x.a > 0) - (x.a < 0), (x.b > 0) - (x.b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if x.a * x.a > x.D * x.b * x.b else sb


@given(st.sampled_from(DISCS), st.fractions(max_denominator=50),
       st.fractions(max_denominator=50))
def test_sign_and_floor_are_exact(D, a, b):
    # the isqrt closed forms against the case analysis by squares, and the
    # floor bracketed by two exact signs
    x = QuadNum(D, a, b)
    assert x.sign() == sign_by_squares(x)
    f = quadnum_floor(x)
    assert sign_by_squares(x - QuadNum(D, f, 0)) >= 0
    assert sign_by_squares(x - QuadNum(D, f + 1, 0)) < 0


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
        M = gauss_cycle_matrix(f)
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


def test_pell_fundamental_matches_the_minus_continued_fraction():
    # the rho steps' automorph against the minus continued fraction's
    for D in ORACLE_DISCS:
        _, forms, M = minus_cf_cycle(principal_form(D))
        t, u = abs(M[0][0] + M[1][1]), abs(M[1][0]) // forms[0][0]
        assert pell_fundamental(D) == (t, u), D


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


def test_has_norm_minus_one_matches_the_pell_square_test():
    for D in ORACLE_DISCS:
        assert has_norm_minus_one(D) == pell_square_test(D), D


def _compose_by_search(f1, f2):
    # oracle: Dirichlet composition after moving f2 to a form whose first
    # coefficient is prime to a1, found by searching small coprime (x, y)
    D = form_disc(f1)
    a1, b1, _ = f1
    A2, B2, C2 = f2
    x, y, a2 = next(
        (x, y, val) for bound in range(1, 40)
        for x in range(-bound, bound + 1) for y in range(-bound, bound + 1)
        if gcd(x, y) == 1
        for val in (A2 * x * x + B2 * x * y + C2 * y * y,)
        if val != 0 and gcd(a1, val) == 1)
    if y == 0:                               # x = +-1
        M = ((x, 0), (0, x))
    else:                                    # x v + y u = 1
        v = pow(x, -1, abs(y))
        M = ((x, -(1 - x * v) // y), (y, v))
    b2 = apply_sl2(f2, M)[1]
    # B = b1 mod 2 a1, B = b2 mod 2 a2
    k = ((b2 - b1) // 2 * pow(a1, -1, abs(a2))) % abs(a2)
    B = b1 + 2 * a1 * k
    return (a1 * a2, B, (B * B - D) // (4 * a1 * a2))


def _characters_by_search(g):
    # oracle: every sign pattern on the classes that is a homomorphism
    return [signs for signs in product((1, -1), repeat=g.h)
            if signs[g.identity] == 1
            and all(signs[g.table[i][j]] == signs[i] * signs[j]
                    for i in range(g.h) for j in range(g.h))]


FUNDAMENTAL = [D for D in range(5, 300) if is_fundamental_discriminant(D)]


def test_compose_forms_well_defined_on_classes():
    # the closed form against the coprime search, class by class
    rng = random.Random(7)
    for D in FUNDAMENTAL:
        g = NarrowClassGroup(D)
        for i in range(g.h):
            for j in range(g.h):
                f1 = apply_sl2(g.representative(i), rand_sl2(rng))
                f2 = apply_sl2(g.representative(j), rand_sl2(rng))
                f3 = compose_forms(f1, f2)
                assert form_disc(f3) == D
                assert g.class_of_form(f3) == g.compose(i, j) \
                    == g.class_of_form(_compose_by_search(f1, f2))


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


GENUS_DISCS = DISCS + [105, 165]


def test_characters_match_brute_force_search():
    for D in GENUS_DISCS:
        g = NarrowClassGroup(D)
        assert g.characters == _characters_by_search(g)


def test_genus_value_is_the_character_on_primes():
    # q = 2 splits in Q(sqrt(33)), ramifies in Q(sqrt(12)), Q(sqrt(24)) and
    # Q(sqrt(60)), and 8 divides 40 and 56
    for D in GENUS_DISCS:
        g = NarrowClassGroup(D)
        for chi in g.characters:
            d = g.genus[chi]
            for q in primerange(2, 400):
                typ = splitting_type(D, q)
                if typ == "inert":
                    continue
                for which in (0, 1) if typ == "split" else (0,):
                    P = prime_ideal(D, q, which)
                    assert genus_value(D, d, q) \
                        == chi[g.narrow_class_of_ideal(P)], (D, d, q)


# --- RM points ----------------------------------------------------------------

def test_rm_point_roundtrip():
    rng = random.Random(8)
    for D in (12, 40, 61):
        g = NarrowClassGroup(D)
        for i in range(g.h):
            tau = g.rm_representative(i)
            assert form_of_value(rm_value(tau)) == tau
            assert g.class_of_rm_point(tau) == i
            M = rand_sl2(rng)
            (a, b), (c, d) = M
            # forms transform by M^-1 under the Moebius action of M
            moved = RMPoint(*apply_sl2(tau.form, ((d, -b), (-c, a))))
            assert g.class_of_rm_point(moved) == i
            w = rm_value(tau)
            expected = (w * a + QuadNum(D, b, 0)) / (w * c + QuadNum(D, d, 0))
            assert rm_value(moved) == expected


def test_negation_multiplies_by_different_class():
    for D in (12, 21, 40, 60):
        g = NarrowClassGroup(D)
        for i in range(g.h):
            tau = g.rm_representative(i)
            assert (g.class_of_rm_point(tau.negate())
                    == g.compose(i, g.different_class))
            assert rm_value(tau.negate()) == -rm_value(tau)


# --- ideals -------------------------------------------------------------------

# Ideal arithmetic in Hermite normal form, which the package does not carry:
# the oracle for factor_alpha, for the divisor classes and for the closed
# form of the class of (sqrt(D)).

def times_omega(D, u, v):
    """Coordinates of (u + v*omega) * omega, with omega^2 = D omega -
    (D^2 - D)/4."""
    return -v * (D * D - D) // 4, u + v * D


def hnf_contains(I, u, v):
    """u + v*omega lies in I = Z*a + Z*(b + c*omega)."""
    return v % I.c == 0 and (u - v // I.c * I.b) % I.a == 0


def ideal_from_generators(D, gens):
    """HNF of the Z-module generated by {g, g*omega : g in gens}."""
    rows = []
    for g in gens:
        u, v = g.coords_in_order()
        rows += [(u, v), times_omega(D, u, v)]
    # triangularize [[a, 0], [b, c]] with column 2 = omega coordinate
    c, b = 0, 0
    for u, v in rows:
        if v:
            g, x, y = _ext_gcd(c, v)
            b, c = x * b + y * u, g
    a = 0
    for u, v in rows:
        a = gcd(a, u - v // c * b)
    return IdealF(D, abs(a), b, c)


def principal_ideal(D, x):
    return ideal_from_generators(D, [x])


def ideal_mult(I, J):
    (b1, b2), (c1, c2) = I.basis(), J.basis()
    return ideal_from_generators(I.D, [b1 * c1, b1 * c2, b2 * c1, b2 * c2])


def hnf_divisors(D, alpha, p):
    """Every ideal I | (alpha) with p not dividing Nm I, by trying each HNF
    triple (a, b, c) with a*c | Nm(alpha): it is an ideal when it holds
    (b + c*omega)*omega, and divides (alpha) when it holds alpha and
    alpha*omega."""
    u, v = alpha.coords_in_order()
    N = abs(int(alpha.norm()))
    out = []
    for m in range(1, N + 1):
        if N % m or m % p == 0:
            continue
        for c in range(1, isqrt(m) + 1):
            if m % (c * c):
                continue
            for b in range(0, m // c, c):
                I = IdealF(D, m // c, b, c)
                if (hnf_contains(I, *times_omega(D, b, c))
                        and hnf_contains(I, u, v)
                        and hnf_contains(I, *times_omega(D, u, v))):
                    out.append(I)
    return out


def test_different_class_is_the_class_of_sqrtD():
    # the closed form (-1, D mod 2, (D - D mod 2)/4) against the class of the
    # HNF ideal (sqrt(D)), on every fundamental D < 2000
    for D in range(5, 2000):
        if is_fundamental_discriminant(D):
            g = NarrowClassGroup(D)
            sq = QuadNum(D, 0, 1)
            assert g.different_class == g.narrow_class_of_ideal(
                principal_ideal(D, sq)), D


def test_principal_ideal_norm():
    rng = random.Random(9)
    for D in (12, 40, 61):
        for _ in range(20):
            x = rand_quadnum(D, rng, integral=True)
            I = principal_ideal(D, x)
            assert I.norm == abs(x.norm())
            assert hnf_contains(I, *x.coords_in_order())
            assert hnf_contains(I, *(x * QuadNum.omega(D)).coords_in_order())


def test_ideal_mult_norm_multiplicative():
    rng = random.Random(10)
    for D in (12, 40):
        for _ in range(15):
            x = rand_quadnum(D, rng, integral=True)
            y = rand_quadnum(D, rng, integral=True)
            Ix, Iy = principal_ideal(D, x), principal_ideal(D, y)
            assert ideal_mult(Ix, Iy) == principal_ideal(D, x * y)
            assert ideal_mult(Ix, Iy).norm == Ix.norm * Iy.norm


def test_prime_ideals():
    for D in (12, 40, 61):
        for q in (2, 3, 5, 7, 11, 13):
            typ = splitting_type(D, q)
            P = prime_ideal(D, q)
            assert hnf_contains(P, q, 0)
            if typ == "inert":
                assert P.norm == q * q
                assert P == principal_ideal(D, QuadNum(D, q, 0))
            else:
                assert P.norm == q
            if typ == "split":
                Q = prime_ideal(D, q, 1)
                assert Q != P
                assert ideal_mult(P, Q) == principal_ideal(D, QuadNum(D, q, 0))
            if typ == "ramified":
                assert ideal_mult(P, P) == principal_ideal(D, QuadNum(D, q, 0))


def test_check_inert_is_the_callers_guard():
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
                    I = ideal_mult(I, P)
            assert I == principal_ideal(D, x)
            assert nm == abs(x.norm())


def hensel_split_exponent(D, q, e, u, v):
    """Oracle for `_split_exponent`, the rule it replaced: the valuation,
    capped at e, of u + v*T, T the root t1 = `_split_root` of omega's
    minimal polynomial Hensel-lifted to q^(e+1)."""
    T = hensel_lift(-D, (D * D - D) // 4, _split_root(D, q), q, e + 1)
    x = (u + v * T) % q ** (e + 1)
    v1 = 0
    while v1 < e and x % q == 0:
        v1 += 1
        x //= q
    return v1


@pytest.mark.parametrize("D", [12, 21, 28, 33, 57, 60, 105])
def test_split_exponent_matches_hensel_oracle(D):
    # every split q <= 50, every e <= 6 and every u + v*omega of a box with
    # q^e exactly dividing its norm; the box reaches e = 6 at q = 2, 3, 5,
    # and elements divisible by q whose norm keeps a power of q beyond
    # that of (q)^k, which goes to one prime only
    c0, box = (D * D - D) // 4, range(-150, 151)
    split = [q for q in primerange(2, 51) if splitting_type(D, q) == "split"]
    seen = set()
    for u, v in product(box, box):
        nm = u * u + u * v * D + v * v * c0
        for q in split if nm else ():
            e = 0
            while nm % q == 0:
                nm, e = nm // q, e + 1
            if 1 <= e <= 6:
                v1 = _split_exponent(D, q, e, u, v)
                assert v1 == hensel_split_exponent(D, q, e, u, v), \
                    (q, e, u, v)
                shared = u % q == 0 and v % q == 0
                seen.add((q, e, shared and v1 != e - v1))
    assert {q for q, e, _ in seen if e == 6} >= {q for q in split if q <= 5}
    assert any(mixed for _, _, mixed in seen)


def sieve_trace(n: int, D: int, skip: int = 0) -> tuple:
    """Oracle for the sieve inside `eisenstein._fold`: factor the norms
    (n^2 D - s^2)/4 of all alpha = (s + n sqrt(D))/2, s in
    `trace_range(n, D)`, at once, into flat records.

    Returns (svals, owner, primes, exps), the last three parallel flat
    sequences of records: primes[k]^exps[k] exactly divides the norm of the
    element s = svals[owner[k]].  Each element's records ascend in q.  2 is
    stripped by trailing zeros; an odd q up to the square root of the
    largest norm divides exactly the s = +-n sqrt(D) (mod q), or s = 0
    (mod q) when q divides nD; what is left above 1 is one prime.  Elements
    whose s is divisible by `skip` (if given) are left without records."""
    svals = trace_range(n, D)
    size = len(svals)
    nnD = n * n * D
    rem = [(nnD - s * s) >> 2 for s in svals]
    if skip:
        first = progression_start(svals, 0, skip)
        rem[first::skip] = [1] * len(range(first, size, skip))
    owner, primes, exps = array("q"), [], array("q")
    for i, x in enumerate(rem):
        if not x & 1:
            e = (x & -x).bit_length() - 1
            rem[i] = x >> e
            owner.append(i)
            primes.append(2)
            exps.append(e)
    for q in _odd_primes_upto(isqrt(max(rem, default=0))):
        if n * D % q == 0:
            roots = (0,)
        elif splitting_type(D, q) == "split":
            r = n * (2 * _split_root(D, q) - D) % q         # n sqrt(D) mod q
            roots = (r, q - r)
        else:
            continue
        for r in roots:
            for i in range(progression_start(svals, r, q), size, q):
                x = rem[i]
                if x % q:
                    continue                                # a skipped s
                e = 0
                while x % q == 0:
                    x //= q
                    e += 1
                rem[i] = x
                owner.append(i)
                primes.append(q)
                exps.append(e)
    for i, x in enumerate(rem):
        if x > 1:
            owner.append(i)
            primes.append(x)
            exps.append(1)
    return svals, owner, primes, exps


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
    assert tot_pos.sign() == tot_pos.conj().sign() == 1
    assert g.narrow_class_of_ideal(principal_ideal(12, tot_pos)) == g.identity
    mixed = QuadNum(12, 1, 1)
    assert mixed.sign() != mixed.conj().sign()
    assert (g.narrow_class_of_ideal(principal_ideal(12, mixed))
            == g.different_class)


# inert p: 11 in Q(sqrt(21)), 7 in Q(sqrt(33)) and Q(sqrt(40)), 13 in
# Q(sqrt(60)), whose Cl+ has order 4
DIVISOR_FIELDS = [(12, 5), (21, 11), (33, 7), (40, 7), (60, 13)]


def test_divisor_engine_counts_and_classes():
    # (norm, class) of each divisor against the brute-force HNF divisors,
    # as multisets
    rng = random.Random(12)
    for D, p in DIVISOR_FIELDS:
        g = NarrowClassGroup(D)
        eng = IdealDivisorEngine(g, p)
        for _ in range(8):
            x = rand_quadnum(D, rng, integral=True)
            while abs(x.norm()) > 3000:
                x = rand_quadnum(D, rng, integral=True)
            assert sorted(eng.divisors(x)) == sorted(
                (I.norm, g.narrow_class_of_ideal(I))
                for I in hnf_divisors(D, x, p))


# --- trace enumeration ---------------------------------------------------------

def test_enumerate_trace_exact_set():
    for D in (12, 40):
        for n in range(1, 8):
            elts = enumerate_trace(n, D)
            seen = set()
            for e in elts:
                alpha = e.alpha
                nu = alpha / QuadNum(D, 0, 1)
                assert nu + nu.conj() == QuadNum(D, n, 0)   # the trace
                assert nu.sign() == nu.conj().sign() == 1
                assert alpha.coords_in_order() is not None  # in the different^-1
                # Nm(sqrt(D)) < 0
                assert (n * n * D - e.s * e.s) // 4 == -alpha.norm()
                seen.add(e.s)
            # completeness: every legal s is present
            smax = isqrt(n * n * D)
            legal = {s for s in range(-smax, smax + 1)
                     if (s - n * D) % 2 == 0 and s * s < n * n * D}
            assert seen == legal


@given(st.integers(2, 10 ** 9), st.integers(1, 10 ** 6))
def test_trace_range_is_symmetric(D, n):
    # s -> -s maps the level onto itself (start = -(last element)), s = 0
    # is in it exactly when nD is even, and so its s > 0 half, the last
    # len // 2 elements, is range(2 - start % 2, stop, 2): the halving of
    # each level rests on this
    assume(isqrt(D) ** 2 != D)
    svals = trace_range(n, D)
    last = svals[-1]
    assert svals.start == -last
    assert last ** 2 < n * n * D < (last + 2) ** 2
    assert (0 in svals) == (n * D % 2 == 0)
    half = range(2 - svals.start % 2, svals.stop, 2)
    assert half == svals[len(svals) - len(svals) // 2:]


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
        bs, forms, M = minus_cf_cycle(g.representative(g.identity))
        assert all(b >= 2 for b in bs)
        f = forms[0]
        for b in bs:
            f = apply_sl2(f, ((b, -1), (1, 0)))
        assert f == forms[0]
        assert M[0][0] * M[1][1] - M[0][1] * M[1][0] == 1


def test_minus_cf_walk_matches_the_quadnum_walk():
    # the walk on forms against the walk on values: the same b's, the roots
    # of the periodic forms are the periodic w's, and M fixes the first form
    for D in FUNDAMENTAL_500:
        g = NarrowClassGroup(D)
        for i in range(g.h):
            f = g.representative(i)
            bs, forms, M = minus_cf_cycle(f)
            assert (bs, [rm_value(RMPoint(*h)) for h in forms]) == \
                quadnum_minus_cf_cycle(rm_value(RMPoint(*f))), (D, i)
            assert apply_sl2(forms[0], M) == forms[0]


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


def test_partial_zeta_matches_the_minus_continued_fraction():
    # Zagier's sum(b_i - 3)/12 over the period of the minus continued
    # fraction, whose forms lie in the class, against sum(m)/12 over the
    # rho steps of its cycle
    for D in ORACLE_DISCS:
        g = NarrowClassGroup(D)
        for i in range(g.h):
            bs, forms, _ = minus_cf_cycle(g.representative(i))
            assert g.class_of_form(forms[0]) == i
            assert partial_zeta_zero(g, i) == \
                Fraction(sum(bs) - 3 * len(bs), 12), (D, i)


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
