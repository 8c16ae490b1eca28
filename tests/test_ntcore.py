"""The standard-library number-theory core against sympy as an oracle:
primality, factorization, modular square roots and the split test of the
recognition stage."""

import random
from itertools import accumulate, islice

import pytest
from sympy import Poly, factorint, isprime, primerange, symbols
from sympy import sqrt_mod as sympy_sqrt_mod

from rmlab.gsunits import _splits_mod
from rmlab.padic import hensel_lift, is_prime, legendre, sqrt_mod
from rmlab.quadfield import _odd_primes_upto, _primes, factor

# least strong pseudoprimes to the first k prime bases (OEIS A014233)
PSI = {1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751,
       5: 2152302898747, 6: 3474749660383, 7: 341550071728321,
       8: 341550071728321, 9: 3825123056546413051,
       10: 3825123056546413051, 11: 3825123056546413051,
       12: 318665857834031151167461, 13: 3317044064679887385961981}
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, b):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(b, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_matches_sympy_below_2e5():
    assert [n for n in range(200_000) if is_prime(n)] == \
        [n for n in range(200_000) if isprime(n)]


def test_is_prime_matches_sympy_on_random_large():
    rng = random.Random(3)
    for _ in range(3000):
        n = rng.randrange(10 ** 24)
        assert is_prime(n) == isprime(n), n
    for n in (PSI[13] - 2, 10 ** 24 - 1):
        assert is_prime(n) == isprime(n)


@pytest.mark.parametrize("k", range(1, 13))
def test_strong_pseudoprimes_are_composite(k):
    n = PSI[k]
    assert all(_strong_probable_prime(n, b) for b in BASES[:k])
    assert not isprime(n)
    assert not is_prime(n)


def test_psi12_needs_base_41():
    # psi_12 passes every base up to 37: only 41 exposes it
    assert all(_strong_probable_prime(PSI[12], b) for b in BASES[:12])
    assert not _strong_probable_prime(PSI[12], 41)


def test_is_prime_refuses_beyond_its_proven_range():
    # psi_13 is composite but passes all 13 bases
    assert all(_strong_probable_prime(PSI[13], b) for b in BASES)
    for n in (PSI[13], PSI[13] + 2, 10 ** 30):
        with pytest.raises(ValueError):
            is_prime(n)


def test_primes_walk_from_two():
    # the first 1200 primes cross the walk's doubled bound from 64 to 16384;
    # a walk started after the shared sieve has grown reads the same primes
    assert list(islice(_primes(), 1200)) == list(primerange(2, 9734))
    _odd_primes_upto(50_000)
    walk = list(islice(_primes(), 1200))
    assert walk == list(primerange(2, 9734))
    assert walk[walk.index(7919) + 1] == 7927


def test_factor_matches_factorint():
    for n in range(1, 100_001):
        assert factor(n) == factorint(n), n


def test_legendre_values():
    for p in (3, 5, 7, 13):
        squares = {x * x % p for x in range(1, p)}
        assert [legendre(a, p) for a in range(p)] == \
            [0] + [1 if a in squares else -1 for a in range(1, p)]


def test_sqrt_mod_is_sympys_least_root():
    # every square mod every prime below 5000 against the least x with
    # x^2 = a, and against sympy.sqrt_mod, whose root order _split_root
    # was written for, on every square below 500 and on a sample above
    # (all 774,403 sympy calls would take about 15 s)
    rng = random.Random(7)
    for p in primerange(2, 5000):
        least = {}
        for x in range(p // 2, -1, -1):
            least[x * x % p] = x
        for a, x in least.items():
            assert sqrt_mod(a, p) == x, (a, p)
        for a in (least if p < 500 else rng.sample(sorted(least), 8)):
            assert sympy_sqrt_mod(a, p) == least[a], (a, p)
        if p > 2:
            a = next(a for a in range(p) if a not in least)
            with pytest.raises(ValueError):
                sqrt_mod(a, p)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_hensel_lift_is_the_one_root_above_its_residue(q):
    # against a digit-by-digit search: each base-q digit of a root of
    # f = x^2 + bx + c above a simple root mod q, tried at every value
    rng = random.Random(q)
    lifted = 0
    for _ in range(40):
        b, c = rng.randrange(-50, 50), rng.randrange(-50, 50)
        if q == 2:
            b = 2 * b + 1       # 2x + b is prime to 2 only for b odd
        for x in range(q):
            if (x * x + b * x + c) % q or (2 * x + b) % q == 0:
                continue
            roots = [x]
            for k in range(1, 9):
                assert roots == [hensel_lift(b, c, x, q, k)], (b, c, x, k)
                roots = [y for r in roots for y in range(r, q ** (k + 1),
                                                         q ** k)
                         if (y * y + b * y + c) % q ** (k + 1) == 0]
            lifted += 1
    assert lifted >= 10


def _mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _random_poly(rng, q, degree=4):
    """Integer coefficients (low to high) of degree <= `degree` with leading
    coefficient prime to q: half at random, half products of monic factors
    of degree 1 or 2, each taken once or twice."""
    while True:
        if rng.random() < 0.5:
            coeffs = [rng.randrange(-50, 51)
                      for _ in range(rng.randint(1, degree + 1))]
        else:
            coeffs = [rng.choice((1, 2, -3))]
            while True:
                f = [rng.randrange(q) for _ in range(rng.randint(1, 2))] + [1]
                e = rng.randint(1, 2)
                if len(coeffs) - 1 + e * (len(f) - 1) > degree:
                    break
                for _ in range(e):
                    coeffs = _mul(coeffs, f)
        if coeffs[-1] % q:
            return coeffs


def test_splits_mod_matches_factor_list():
    x = symbols("x")
    rng = random.Random(5)
    primes = list(primerange(3, 200))
    seen = {True: 0, False: 0}
    for _ in range(200):
        q = rng.choice(primes)
        coeffs = _random_poly(rng, q)
        poly = Poly(list(reversed(coeffs)), x, modulus=q)
        expected = all(f.degree() <= 1 for f, _ in poly.factor_list()[1])
        assert _splits_mod(coeffs, q) == expected, (coeffs, q)
        seen[expected] += 1
    assert min(seen.values()) >= 40


def splits_by_roots(coeffs, q):
    """Oracle for `_splits_mod`: divides out the roots r of F_q, tried in
    turn, each as often as it recurs, and asks whether that uses up the
    whole degree."""
    f, r = [c % q for c in coeffs], 0
    while len(f) > 1 and r < q:
        # synthetic division by x - r: quotient from the top, then f(r)
        *quo, rem = accumulate(reversed(f), lambda a, c: (a * r + c) % q)
        if rem:
            r += 1
        else:
            f = quo[::-1]
    return len(f) == 1


def test_splits_mod_matches_root_stripping():
    # degrees up to 6, repeated roots planted, at primes up to 1500: the
    # split test of `splitting_fraction` reaches q = 1321 at D = 12
    rng = random.Random(19)
    primes = list(primerange(2, 1500))
    seen = {True: 0, False: 0}
    for _ in range(600):
        q = rng.choice(primes)
        coeffs = _random_poly(rng, q, degree=6)
        expected = splits_by_roots(coeffs, q)
        assert _splits_mod(coeffs, q) == expected, (coeffs, q)
        seen[expected] += 1
    assert min(seen.values()) >= 150


def test_splits_mod_constants_and_root_powers():
    # a constant is the empty product; (x - r)^d divides (x^q - x)^d and
    # no lower power, and one irreducible quadratic factor spoils it
    for coeffs, q in (([1], 2), ([-25], 3), ([-24], 29), ([7], 1321)):
        assert _splits_mod(coeffs, q)
    for q, quad in ((2, [1, 1, 1]), (3, [1, 0, 1]), (1321, [-7, 0, 1])):
        assert splits_by_roots(quad, q) is False
        for d in range(1, 7):
            for r in (0, 1, q - 1):
                power = [1]
                for _ in range(d):
                    power = _mul(power, [-r, 1])
                assert _splits_mod(power, q), (r, d, q)
                assert not _splits_mod(_mul(power, quad), q), (r, d, q)


def test_odd_primes_upto_cuts_one_sieve():
    # bounds up and down, across the sieve's doubling, and below 3
    for m in (100, 7, 2, 1000, 3, 257, 5000, 2600, 0):
        assert _odd_primes_upto(m) == list(primerange(3, m + 1)), m
