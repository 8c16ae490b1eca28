import cmath
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from rmlab import siegelmeasure
from rmlab.padic import PadicContext, iwasawa_log, padic_exp
from rmlab.quadfield import NarrowClassGroup, automorph, sqrtD_padic
from rmlab.siegelmeasure import (BallMeasure, dedekind_sum, default_c,
                                 measure_scale, mu_DR, phi_DR, poisson_JDR,
                                 rademacher_phi, sl2_word)


def _matmul(x, y):
    return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2))
                       for j in range(2)) for i in range(2))


def _inv(g):
    (a, b), (c, d) = g
    return ((d, -b), (-c, a))


def random_gamma0(rng, p, bound=10 ** 4):
    """Random element of Gamma_0(p) with entries bounded by `bound`."""
    from math import gcd
    while True:
        c = p * rng.randrange(-bound // p, bound // p + 1)
        d = rng.randrange(-bound, bound + 1)
        if c == 0:
            if abs(d) != 1:
                continue
            return ((d, rng.randrange(-bound, bound + 1)), (0, d))
        if d == 0 or gcd(c, d) != 1:
            continue
        # solve a d - b c = 1
        a = pow(d, -1, abs(c)) if abs(c) > 1 else rng.choice([0, c])
        b = (a * d - 1) // c
        if a * d - b * c == 1 and abs(a) <= bound and abs(b) <= bound:
            return ((a, b), (c, d))


# --------------------------------------------------------------------------
# Dedekind sums and the Rademacher function
# --------------------------------------------------------------------------

def test_dedekind_sum_known_values():
    assert dedekind_sum(1, 1) == 0
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    for k in (2, 3, 5, 7, 12):
        assert dedekind_sum(1, k) == Fraction((k - 1) * (k - 2), 12 * k)


def test_dedekind_sum_reciprocity_and_antisymmetry():
    rng = random.Random(1)
    from math import gcd
    for _ in range(40):
        k = rng.randrange(2, 400)
        h = rng.randrange(1, k)
        if gcd(h, k) != 1:
            continue
        lhs = dedekind_sum(h, k) + dedekind_sum(k % h, h)
        assert lhs == Fraction(-1, 4) + \
            Fraction(h * h + k * k + 1, 12 * h * k)
        assert dedekind_sum(k - h, k) == -dedekind_sum(h, k)


def test_dedekind_sum_guards():
    with pytest.raises(ValueError):
        dedekind_sum(2, 4)
    with pytest.raises(ValueError):
        dedekind_sum(1, 0)


def test_rademacher_phi_generators():
    assert rademacher_phi(((1, 0), (0, 1))) == 0
    assert rademacher_phi(((-1, 0), (0, -1))) == 0
    assert rademacher_phi(((0, -1), (1, 0))) == 0
    for b in (-3, -1, 1, 2, 5):
        assert rademacher_phi(((1, b), (0, 1))) == b
    with pytest.raises(ValueError):
        rademacher_phi(((1, 1), (1, 1)))


def test_rademacher_phi_near_cocycle():
    # Phi(g1 g2) = Phi(g1) + Phi(g2) - 3 sign(c1 c2 c3)
    rng = random.Random(2)
    count = 0
    while count < 30:
        g1 = random_gamma0(rng, 1, 50)
        g2 = random_gamma0(rng, 1, 50)
        g3 = _matmul(g1, g2)
        c1, c2, c3 = g1[1][0], g2[1][0], g3[1][0]
        if 0 in (c1, c2, c3):
            continue
        count += 1
        sgn = 1 if c1 * c2 * c3 > 0 else -1
        assert rademacher_phi(g3) == \
            rademacher_phi(g1) + rademacher_phi(g2) - 3 * sgn


def test_phi_DR_on_translation():
    for p in (5, 7, 13):
        assert phi_DR(((1, 1), (0, 1)), p) == 2 * (p - 1)


def test_phi_DR_is_homomorphism():
    rng = random.Random(3)
    for _ in range(20):
        g1 = random_gamma0(rng, 5)
        g2 = random_gamma0(rng, 5)
        assert phi_DR(_matmul(g1, g2), 5) == phi_DR(g1, 5) + phi_DR(g2, 5)


def test_phi_DR_requires_level():
    with pytest.raises(ValueError):
        phi_DR(((1, 0), (1, 1)), 5)


def test_sl2_word_reconstructs_matrix():
    rng = random.Random(4)
    for _ in range(50):
        g = random_gamma0(rng, 1, 10 ** 4)
        acc = ((1, 0), (0, 1))
        for factor in sl2_word(g):
            if factor[0] == "T":
                m = ((1, factor[1]), (0, 1))
            elif factor[0] == "S":
                m = ((0, -1), (1, 0))
            else:
                m = ((-1, 0), (0, -1))
            acc = _matmul(acc, m)
        assert acc == g


# --------------------------------------------------------------------------
# oracle: the measure assembled from generator periods by the cocycle law
# --------------------------------------------------------------------------

def _word_matrix(factor):
    if factor[0] == "T":
        return ((1, factor[1]), (0, 1))
    if factor[0] == "S":
        return ((0, -1), (1, 0))
    return ((-1, 0), (0, -1))


@lru_cache(maxsize=None)
def centers(p, level):
    """The primitive centers (a, b) in [0, p^level)^2 of the level-`level`
    balls, in the order of `BallMeasure.values`: by a, then by b."""
    den = p ** level
    return tuple((a, b) for a in range(den) for b in range(den)
                 if a % p or b % p)


def _perm(p, level, gamma):
    """Index permutation v -> v * gamma mod p^level of the balls."""
    (g00, g01), (g10, g11) = gamma
    den = p ** level
    pos = {v: i for i, v in enumerate(centers(p, level))}
    return [pos[(a * g00 + b * g10) % den, (a * g01 + b * g11) % den]
            for a, b in centers(p, level)]


def _acted(mu, gamma):
    """mu|gamma: (mu|gamma)(B_v) = mu(B_{v gamma^{-1}})."""
    return BallMeasure(mu.p, mu.level,
                       [mu.values[i]
                        for i in _perm(mu.p, mu.level, _inv(gamma))],
                       mu.scale)


@lru_cache(maxsize=None)
def _factor_measure(p, level, factor, c):
    """Exact period of the generator `factor` on every level-`level` ball:
    (K(v f) - K(v) + c^2 E_f(v) - E_f(<cv>)) / 12 n^2, with K and E_f as in
    the comment above siegelmeasure._numerators."""
    n = p ** level
    if factor[0] == "T":
        q = factor[1]

        def E(x, y):
            return n * n * q + 6 * n * (x - n) * ((y + q * x) // n)
    elif factor[0] == "S":
        def E(x, y):
            return -3 * n * n - (6 * n * (y - n) if x else 0)
    else:
        def E(x, y):
            return -6 * n * (y - (x if y else 0)) if x else 0

    def K(x, y):
        qx, rx = divmod(c * x, n)
        return 6 * n * (c * y // n * (rx - n) + qx * (n - c * y))

    (g00, g01), (g10, g11) = _word_matrix(factor)
    out = []
    for x, y in centers(p, level):
        num = (K((x * g00 + y * g10) % n, (x * g01 + y * g11) % n) - K(x, y)
               + c * c * E(x, y) - E(c * x % n, c * y % n))
        val, rem = divmod(num, 12 * n * n)
        assert rem == 0, "period not integral"
        out.append(val)
    return tuple(out)


def _assembled_mu(gamma, p, level, c=None):
    """mu_DR(gamma) assembled from the generator periods of sl2_word(gamma)
    by the cocycle law mu(g h) = mu(h)|g^{-1} + mu(g)."""
    c = default_c(p) if c is None else c
    den = p ** level
    acc = [0] * len(centers(p, level))
    g_acc = ((1, 0), (0, 1))
    for factor in sl2_word(gamma):
        vals = _factor_measure(p, level, factor, c)
        # (mu(f)|g_acc^{-1})(B_v) = mu(f)(B_{v g_acc})
        acc = [x + vals[i] for x, i in zip(acc, _perm(p, level, g_acc))]
        f = _word_matrix(factor)
        g_acc = tuple(
            tuple((sum(g_acc[i][k] * f[k][j] for k in range(2))) % den
                  for j in range(2)) for i in range(2))
    return BallMeasure(p, level, acc, measure_scale(c))


def _sample_point(x, y, p, n):
    """The point of the ball of center (x, y) mod n = p^level at which
    poisson_JDR samples it: (x, x t) with t = y / x when p does not divide
    x, else (y u, y) with u = x / y."""
    if x % p:
        return x, x * (y * pow(x, -1, n) % n)
    return y * (x * pow(y, -1, n) % n), y


def _per_ball_product(balls, tau, level, ctx, c=None):
    """poisson_JDR by square-and-multiply of every ball's sample point to
    its exponent, for balls (x, y, mu) of the inverse automorph's
    measure."""
    p = ctx.p
    c = default_c(p) if c is None else c
    A, B, _ = tau.form
    sq = sqrtD_padic(ctx, tau.disc)
    m, r = ctx.modulus, ctx.r
    s0, s1 = sq.u0 * p ** sq.v % m, sq.u1 * p ** sq.v % m
    num = den_acc = (1, 0)

    def mul(x, y):
        return ((x[0] * y[0] + r * x[1] * y[1]) % m,
                (x[0] * y[1] + x[1] * y[0]) % m)

    for x, y, e in balls:
        x, y = _sample_point(x, y, p, p ** level)
        base = ((2 * A * y - B * x + x * s0) % m, (x * s1) % m)
        acc = (1, 0)
        k = abs(e)
        while k:
            if k & 1:
                acc = mul(acc, base)
            base = mul(base, base)
            k >>= 1
        if e > 0:
            num = mul(num, acc)
        else:
            den_acc = mul(den_acc, acc)
    J = ctx.from_coords(*num) / ctx.from_coords(*den_acc)
    return padic_exp(iwasawa_log(J) / ctx.from_int(2 * measure_scale(c)))


def _per_ball_poisson(tau, level, ctx, c=None):
    """_per_ball_product over the measure assembled from generator
    periods."""
    p = ctx.p
    (ga, gb), (gc, gd) = automorph(tau.form)
    mu = _assembled_mu(((gd, -gb), (-gc, ga)), p, level, c)
    return _per_ball_product(
        ((a, b, v) for (a, b), v in zip(centers(p, level), mu.values)), tau,
        level, ctx, c)


@pytest.mark.parametrize("p, c_other", [(5, 11), (7, 11), (11, 13)])
def test_mu_DR_matches_assembled_oracle(p, c_other):
    # the telescoped identity gives the word assembly's value on every ball
    rng = random.Random(100 + p)
    for level in (1, 2, 3) if p == 5 else (1, 2):
        for c in (None, c_other):
            # alternately from SL2(Z) and Gamma_0(p)
            for i in range(4 if level < 3 else 2):
                g = random_gamma0(rng, (1, p)[i % 2])
                assert mu_DR(g, p, level, c).values == \
                    _assembled_mu(g, p, level, c).values, (g, level, c)


def _mu_rows(gamma, p, level, c):
    """Yield (a, bs, values) for a = 0 .. p^level - 1: the values of
    mu_DR(gamma) on the balls with primitive centers (a, b), b in bs
    ascending, by the telescoped identity evaluated on every ball; the
    per-ball driver that siegelmeasure.mu_pieces replaced."""
    n = p ** level
    c2 = c * c
    word = sl2_word(gamma)
    const = (c2 - 1) * n * n * sum(
        f[1] if f[0] == "T" else -3 if f[0] == "S" else 0 for f in word)
    six_n, den = 6 * n, 12 * n * n
    all_b = list(range(n))
    unit_b = [b for b in all_b if b % p]
    for a in range(n):
        bs = all_b if a % p else unit_b
        qa, ca = divmod(c * a, n)
        X, Y = [a] * len(bs), bs
        CX, CY = [ca] * len(bs), [c * b % n for b in bs]
        acc = [qa * (c * b - n) - c * b // n * (ca - n) for b in bs]
        for f in word:
            if f[0] == "T":
                q = f[1]
                t = [y + q * x for x, y in zip(X, Y)]
                ct = [cy + q * cx for cx, cy in zip(CX, CY)]
                acc = [s + c2 * (x - n) * (u // n) - (cx - n) * (v // n)
                       for s, x, cx, u, v in zip(acc, X, CX, t, ct)]
                Y = [u % n for u in t]
                CY = [v % n for v in ct]
            elif f[0] == "S":
                acc = [s - c2 * (y - n) + cy - n if x else s
                       for s, x, y, cy in zip(acc, X, Y, CY)]
                X, Y = Y, [-x % n for x in X]
                CX, CY = CY, [-cx % n for cx in CX]
            else:
                acc = [s - c2 * (y - x) + cy - cx if x and y else s
                       for s, x, y, cx, cy in zip(acc, X, Y, CX, CY)]
                X, Y = [-x % n for x in X], [-y % n for y in Y]
                CX, CY = [-cx % n for cx in CX], [-cy % n for cy in CY]
        nums = [const + six_n * (s + c * y // n * (cx - n)
                                 + c * x // n * (n - c * y))
                for s, x, y, cx in zip(acc, X, Y, CX)]
        assert all(u % den == 0 for u in nums), "period not integral"
        yield a, bs, [u // den for u in nums]


def _inverse_automorph(D, cls):
    """The matrix whose measure poisson_JDR integrates at the RM point of
    narrow class `cls` of discriminant D."""
    tau = NarrowClassGroup(D).rm_representative(cls)
    (a, b), (c, d) = automorph(tau.form)
    return ((d, -b), (-c, a))


def _assert_pieces_match_rows(gamma, p, level, c=None):
    c = default_c(p) if c is None else c
    n = p ** level
    rows = _mu_rows(gamma, p, level, c)
    for a, starts, values in siegelmeasure.mu_pieces(gamma, p, level, c):
        expanded = []
        for lo, hi, v in zip(starts, starts[1:] + [n], values):
            centers = [b for b in range(lo, hi) if a % p or b % p]
            assert centers, "piece without a primitive center"
            expanded += [(b, v) for b in centers]
        a_ref, bs, ref = next(rows)
        assert a == a_ref
        assert expanded == list(zip(bs, ref)), (gamma, p, level, c, a)
    assert next(rows, None) is None


# (D, class, p): both classes of Q(sqrt 3), and one automorph per field
PIECE_CASES = [(12, 0, 5), (12, 1, 5), (12, 0, 7), (13, 0, 5), (8, 0, 5),
               (28, 0, 5), (21, 0, 11), (33, 0, 7), (40, 0, 7)]


@pytest.mark.parametrize(
    "case", PIECE_CASES + ["random"],
    ids=[f"{D}-{cls}-{p}" for D, cls, p in PIECE_CASES] + ["random"])
def test_pieces_match_per_ball_rows(case):
    if case != "random":
        D, cls, p = case
        gamma = _inverse_automorph(D, cls)
        for level in (1, 2, 3) if p < 11 else (1, 2):
            _assert_pieces_match_rows(gamma, p, level)
        return
    # random words: small entries give long pieces; entries up to 10^4 (the
    # dense case) mostly give a form of slope >= p^level, so one ball per
    # piece
    rng = random.Random(7)
    for p, levels, c_other in ((5, (1, 2, 3), 11), (7, (1, 2), 11),
                               (11, (1, 2), 13)):
        for level in levels:
            for bound in (30, 10 ** 4):
                for q in (1, p):
                    g = random_gamma0(rng, q, bound)
                    _assert_pieces_match_rows(g, p, level)
                    _assert_pieces_match_rows(g, p, level, c_other)


def test_pieces_evaluate_few_balls(monkeypatch):
    # at (12, 5) level 4 the 375,000 balls form 13,473 pieces, but the
    # measure takes 322 cells, the same at every level: each is evaluated
    # once, at one or two points
    evaluate, seen = siegelmeasure._numerators, []

    def counted(word, n, c, a, bs):
        seen.append(len(bs))
        return evaluate(word, n, c, a, bs)

    monkeypatch.setattr(siegelmeasure, "_numerators", counted)
    gamma = _inverse_automorph(12, 0)
    for level in (4, 5):
        seen.clear()
        rows = list(siegelmeasure.mu_pieces(gamma, 5, level))
        assert len(rows) == 5 ** level
        assert sum(seen) <= 2 * 322


def test_measure_is_a_function_of_its_cell():
    # the floors of the forms of _forms fix the measure: one value per floor
    # vector, the same at every level
    for D, cls, p in PIECE_CASES:
        gamma = _inverse_automorph(D, cls)
        word = sl2_word(gamma)
        for c in (default_c(p), 11 if p != 11 else 13):
            forms, pairs = siegelmeasure._forms(word, c), set()
            # the other c to level 3 would take seconds more at p = 7
            for level in (1, 2, 3) if p < 11 and c == default_c(p) else (1, 2):
                n = p ** level
                for a, bs, values in _mu_rows(gamma, p, level, c):
                    floors = ([(a * m0 + beta * b) // n for b in bs]
                              if beta else [a * m0 // n] * len(bs)
                              for m0, beta in forms)
                    pairs.update(zip(zip(*floors), values))
            assert len(dict(pairs)) == len(pairs), (D, cls, p, c)


# the cut set of the pieces depends on the automorph: (D, class, p, levels)
POISSON_ORACLE_CASES = [(12, 0, 5, 3), (12, 1, 5, 3), (13, 0, 5, 3),
                        (28, 0, 5, 3), (57, 0, 5, 3), (12, 0, 7, 2)]


@pytest.mark.parametrize("level", [1, 2, 3])
def test_poisson_matches_per_ball_oracle(level):
    for D, cls, p, max_level in POISSON_ORACLE_CASES:
        if level > max_level:
            continue
        ctx = PadicContext(p, 16)
        tau = NarrowClassGroup(D).rm_representative(cls)
        assert poisson_JDR(tau, level, ctx).to_json() == \
            _per_ball_poisson(tau, level, ctx).to_json(), (D, cls, p)


def _piecewise_poisson(tau, level, ctx, c=None):
    """The Poisson product at the center of every ball, each piece's
    samples multiplied into one local product, folded into one accumulator
    per value of mu: the center-sample reference, which poisson_JDR must
    match below the level."""
    p = ctx.p
    c = default_c(p) if c is None else c
    A, B, _ = tau.form
    (ga, gb), (gc, gd) = automorph(tau.form)
    sq = sqrtD_padic(ctx, tau.disc)
    s0, s1 = sq.u0, sq.u1
    m, r = ctx.modulus, ctx.r

    def mul(x, y):
        return ((x[0] * y[0] + r * x[1] * y[1]) % m,
                (x[0] * y[1] + x[1] * y[0]) % m)

    n = p ** level
    groups = {}
    for x, starts, values in siegelmeasure.mu_pieces(
            ((gd, -gb), (-gc, ga)), p, level, c):
        u, w = x * (s0 - B) % m, x * s1 % m
        rw = r * w % m
        prim = x % p != 0
        for lo, hi, e in zip(starts, starts[1:] + [n], values):
            if not e:
                continue
            if prim:
                samples = range(2 * A * lo + u, 2 * A * hi + u, 2 * A)
            else:
                samples = [2 * A * y + u for y in range(lo, hi) if y % p]
            a0, a1 = 1, 0
            for b0 in samples:
                a0, a1 = (a0 * b0 + a1 * rw) % m, (a0 * w + a1 * b0) % m
            groups[e] = mul(groups.get(e, (1, 0)), (a0, a1))
    J = ctx.one()
    for e, base in groups.items():
        J = J * ctx.from_coords(*base) ** e
    return padic_exp(iwasawa_log(J) / ctx.from_int(2 * measure_scale(c)))


@pytest.mark.parametrize("D, cls", [(12, 0), (12, 1), (28, 0)])
def test_poisson_matches_piecewise_oracle_at_level_4(D, cls):
    # any sample point of a ball moves log J by a multiple of p^level
    ctx = PadicContext(5, 16)
    tau = NarrowClassGroup(D).rm_representative(cls)
    diff = (iwasawa_log(poisson_JDR(tau, 4, ctx))
            - iwasawa_log(_piecewise_poisson(tau, 4, ctx)))
    assert diff.is_zero or diff.v >= 4


def _edge_rows(last):
    """Made-up rows of mu_pieces at p = 5, level 4 (rows of 625 balls, or
    500 when 5 | x), the one ball (2, 624) of value `last`."""
    return [
        # pieces of value 0 inside, equal neighbours, one-ball pieces
        (1, [0, 7, 10, 13, 14, 300, 301, 302], [2, -1, -1, 0, 3, 3, 5, -4]),
        # 5 | x at valuations 1 (x0 = 1 and 4), 2 and 3; in the first two
        # a one-ball piece at 10 was dropped and [4, 11) runs over it
        (5, [0, 4, 11, 200], [1, -2, 3, 0]),
        (20, [0, 4, 11, 200], [-3, 4, -1, 2]),
        (25, [0, 1, 333], [5, -2, 1]),
        (125, [0, 600], [-1, 3]),
        # x = 0, whose first piece [0, 1) was dropped
        (0, [1, 2, 400], [-3, 1, 2]),
        # a cut every third ball, the last piece the one ball 624
        (2, list(range(0, 625, 3)), [i % 4 - 2 for i in range(208)] + [last]),
        # the units 1/2 and -1 mod 625, far from 1 in the unit group
        (313, [0, 123], [0, 6]),
        (624, [0, 30, 31], [1, -7, 2]),
        # a row of zeros
        (9, [0, 30], [0, 0]),
    ]


def _edge_balls(rows):
    """The balls (x, y, mu) of made-up rows at p = 5, level 4."""
    for x, starts, values in rows:
        for lo, hi, e in zip(starts, starts[1:] + [625], values):
            yield from ((x, y, e) for y in range(lo, hi) if x % 5 or y % 5)


def test_summation_by_parts_edge_cases(monkeypatch):
    # made-up rows of total mass zero against the per-ball product; a total
    # of one raises
    last = -sum(e for _, _, e in _edge_balls(_edge_rows(0)))
    rows = _edge_rows(last)

    def fake(gamma, p, level, c=None):
        assert (p, level) == (5, 4)
        yield from rows

    monkeypatch.setattr(siegelmeasure, "mu_pieces", fake)
    ctx = PadicContext(5, 16)
    tau = NarrowClassGroup(12).rm_representative(0)
    assert poisson_JDR(tau, 4, ctx).to_json() == \
        _per_ball_product(_edge_balls(rows), tau, 4, ctx).to_json()
    rows = _edge_rows(last + 1)
    with pytest.raises(ArithmeticError, match="total mass"):
        poisson_JDR(tau, 4, ctx)


def test_poisson_builds_no_ball_space(monkeypatch):
    # the product reads the rows of mu_pieces: no list of one value per
    # ball, which mu_DR builds, is made
    def refuse(*args, **kwargs):
        raise AssertionError("ball measure built")
    monkeypatch.setattr(siegelmeasure, "mu_DR", refuse)
    monkeypatch.setattr(BallMeasure, "__init__", refuse)
    ctx = PadicContext(5, 10)
    group = NarrowClassGroup(12)
    poisson_JDR(group.rm_representative(group.identity), 2, ctx)


def test_level_must_be_positive():
    ctx = PadicContext(5, 10)
    group = NarrowClassGroup(12)
    tau = group.rm_representative(group.identity)
    for level in (0, -1):
        with pytest.raises(ValueError, match="level must be >= 1"):
            mu_DR(((1, 1), (0, 1)), 5, level)
        with pytest.raises(ValueError, match="level must be >= 1"):
            poisson_JDR(tau, level, ctx)


# --------------------------------------------------------------------------
# the measure
# --------------------------------------------------------------------------

def _glog(alpha, beta, z):
    """Branch log of the Siegel function
    g_{alpha,beta} = -q^{B2(alpha)/2} e^{pi i beta(alpha-1)}
                     prod (1 - q^{n+alpha} e^{2 pi i beta})
                     prod (1 - q^{n+1-alpha} e^{-2 pi i beta})
    up to the constant log(-1), summed in floats; alpha in [0, 1), beta any
    lift."""
    w = (alpha * alpha - alpha + 1 / 6) / 2
    tot = 2j * cmath.pi * w * z + 1j * cmath.pi * beta * (alpha - 1)
    for n in range(int(44 / (2 * cmath.pi * z.imag)) + 3):
        for e in ((n + alpha) * z + beta, (n + 1 - alpha) * z - beta):
            tot += cmath.log(1 - cmath.exp(2j * cmath.pi * e))
    return tot


def _c_glog(x, y, den, z, c):
    """Log of g_v^{c^2} / g_{cv} at v = (x, y)/den, with the reduction of cx
    compensated by g_{alpha+1,beta} = -e^{-pi i beta} g_{alpha,beta}."""
    qa, ra = divmod(c * x, den)
    cb = c * y / den
    return (c * c * _glog(x / den, y / den, z) - _glog(ra / den, cb, z)
            - qa * 1j * cmath.pi * (1 - cb))


def _float_periods(p, level, gamma, c):
    """Periods (1/2 pi i)(log _cg_v(z) - log _cg_{v gamma}(gamma^{-1} z)) at
    a sample point, rounded to integers after checking they are within 1e-4
    of one."""
    (a, b), (cc, d) = gamma
    den = p ** level
    z = 0.13 + 1.07j
    ginv_z = (d * z - b) / (-cc * z + a)
    out = []
    for x, y in centers(p, level):
        x2, y2 = (x * a + y * cc) % den, (x * b + y * d) % den
        val = (_c_glog(x, y, den, z, c)
               - _c_glog(x2, y2, den, ginv_z, c)) / (2j * cmath.pi)
        k = round(val.real)
        assert abs(val - k) < 1e-4, f"period not integral at {(x, y)}"
        out.append(k)
    return out


@pytest.mark.parametrize("p, c", [(5, 7), (7, 5), (5, 11)])
def test_exact_periods_match_float_siegel_logs(p, c):
    # the closed-form integer periods equal the rounded complex-float
    # Siegel-unit logs on every ball, for each kind of generator
    factors = [("S",), ("-I",)] + [("T", q) for q in (1, -1, 3, -7)]
    for level in (1, 2):
        for factor in factors:
            assert list(_factor_measure(p, level, factor, c)) == \
                _float_periods(p, level, _word_matrix(factor), c), factor


def test_measure_totals_and_level_mass():
    rng = random.Random(5)
    for _ in range(6):
        g = random_gamma0(rng, 5)
        mu = mu_DR(g, 5, 2)
        assert mu.total() == 0
        assert mu.mass_pZxZpx() == mu.scale * phi_DR(g, 5)


def test_measure_scale_follows_c():
    g = ((1, 2), (5, 11))
    for c in (7, 11):
        mu = mu_DR(g, 5, 1, c=c)
        assert mu.scale == measure_scale(c) == (c * c - 1) // 24
        assert mu.mass_pZxZpx() == mu.scale * phi_DR(g, 5)
    with pytest.raises(ValueError):
        mu_DR(g, 5, 1, c=10)  # not prime to 6p


def test_measure_other_prime():
    g = ((1, 1), (7, 8))
    mu = mu_DR(g, 7, 1)
    assert default_c(7) == 5 and mu.scale == 1
    assert mu.mass_pZxZpx() == phi_DR(g, 7)


def test_measure_cocycle_law():
    # mu(g1 g2) = mu(g2)|g1^{-1} + mu(g1), exactly on every ball
    rng = random.Random(6)
    for _ in range(5):
        g1 = random_gamma0(rng, 1, 30)
        g2 = random_gamma0(rng, 1, 30)
        m12 = mu_DR(_matmul(g1, g2), 5, 2)
        m1 = mu_DR(g1, 5, 2)
        m2 = mu_DR(g2, 5, 2)
        rhs = [x + y for x, y in zip(_acted(m2, _inv(g1)).values, m1.values)]
        assert m12.values == rhs


def test_measure_refinement_additivity():
    # a level-1 ball's value is the sum over its level-2 children, exactly
    # for translation words; words involving the inversion S pick up branch
    # defects that are always multiples of 12 (an eta-multiplier artifact
    # invisible to every mass functional and to the Poisson limit)
    for g in (((1, 1), (0, 1)), ((1, 3), (0, 1)), ((0, -1), (1, 0)),
              ((2, 1), (5, 3))):
        exact = g[1][0] == 0
        m1 = mu_DR(g, 5, 1)
        m2 = mu_DR(g, 5, 2)
        for a, b in centers(5, 1):
            children = sum(
                m2.value_at(a + 5 * i, b + 5 * j)
                for i in range(5) for j in range(5))
            defect = children - m1.value_at(a, b)
            assert defect == 0 if exact else defect % 12 == 0


def test_measure_value_at_rejects_imprimitive_center():
    m = mu_DR(((1, 1), (0, 1)), 5, 1)
    with pytest.raises(ValueError):
        m.value_at(0, 5)
    # every primitive center, reduced mod p^level, reads its own ball
    for p, level in ((5, 2), (7, 1), (3, 3)):
        m = mu_DR(((2, 1), (5, 3)), p, level, c=5 if p != 5 else 7)
        den = p ** level
        assert [m.value_at(a - den, b + 2 * den)
                for a, b in centers(p, level)] == m.values
        with pytest.raises(ValueError):
            m.value_at(p * den, -p)


# --------------------------------------------------------------------------
# Poisson transform
# --------------------------------------------------------------------------

def test_poisson_flagship_matches_unit_log():
    # J_DR at the RM point of x^2 + 2x - 2 for p = 5 is (3 + 4i)/5 up to
    # p^Z and torsion; the log converges one digit per ball level
    ctx = PadicContext(5, 16)
    group = NarrowClassGroup(12)
    tau = group.rm_representative(group.identity)
    i5 = ctx.sqrt_zp(-1 % ctx.modulus)
    target = iwasawa_log(ctx.from_int(3 + 4 * i5))
    for level in (2, 3):
        lj = iwasawa_log(poisson_JDR(tau, level, ctx))
        diff = lj - target
        assert diff.is_zero or diff.v >= level


def test_poisson_guards():
    ctx = PadicContext(5, 10)
    group = NarrowClassGroup(12)
    tau = group.rm_representative(0)
    with pytest.raises(ValueError):
        poisson_JDR(tau, 1, ctx, c=11)  # (c^2-1)/12 divisible by p
    g5 = NarrowClassGroup(5)
    with pytest.raises(ValueError):
        poisson_JDR(g5.rm_representative(0), 1, ctx)  # p | D
