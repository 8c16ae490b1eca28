import random
from fractions import Fraction

import pytest

from rmlab import lattice
from rmlab.lattice import (algdep_padic, eval_poly, gram_det, is_lll_reduced,
                           lll_reduce)
from rmlab.padic import PadicContext
from rmlab.quadfield import sqrtD_padic


# --------------------------------------------------------------------------
# reference LLL: textbook rational Gram-Schmidt, recomputed after each swap
# --------------------------------------------------------------------------

def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def ref_gram_schmidt(basis):
    """(mu, B): Gram-Schmidt coefficients and squared lengths over Q."""
    n = len(basis)
    mu = [[Fraction(0)] * n for _ in range(n)]
    star = [[Fraction(x) for x in row] for row in basis]
    B = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = _dot(basis[i], star[j]) / B[j]
            star[i] = [si - mu[i][j] * sj for si, sj in zip(star[i], star[j])]
        B[i] = _dot(star[i], star[i])
        if B[i] == 0:
            raise ValueError("basis rows are linearly dependent")
        mu[i][i] = Fraction(1)
    return mu, B


def ref_gram_det(basis):
    d = Fraction(1)
    for b in ref_gram_schmidt(basis)[1]:
        d *= b
    return d


def ref_lll(basis, delta=Fraction(99, 100)):
    b = [list(row) for row in basis]
    mu, B = ref_gram_schmidt(b)
    k = 1
    while k < len(b):
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                q = round(mu[k][j])
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for i in range(j + 1):
                    mu[k][i] -= q * mu[j][i]
        if B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            mu, B = ref_gram_schmidt(b)
            k = max(k - 1, 1)
    return b


def ref_is_lll_reduced(basis, delta=Fraction(99, 100)):
    mu, B = ref_gram_schmidt(basis)
    return all(
        all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
        and B[k] >= (delta - mu[k][k - 1] ** 2) * B[k - 1]
        for k in range(1, len(basis)))


def assert_matches_reference(basis):
    try:
        det = ref_gram_det(basis)
    except ValueError:
        with pytest.raises(ValueError):
            lll_reduce(basis)
        with pytest.raises(ValueError):
            gram_det(basis)
        return False
    out = lll_reduce(basis)
    assert out == ref_lll(basis)
    assert gram_det(basis) == det == gram_det(out)
    assert is_lll_reduced(basis) == ref_is_lll_reduced(basis)
    assert is_lll_reduced(out) and ref_is_lll_reduced(out)
    return True


def test_lll_rejects_dependent_rows():
    with pytest.raises(ValueError):
        lll_reduce([[1, 2], [2, 4]])


def test_lll_orthogonal_basis_unchanged_up_to_sign():
    basis = [[2, 0, 0], [0, 3, 0], [0, 0, 5]]
    out = lll_reduce(basis)
    assert sorted(tuple(map(abs, r)) for r in out) == \
        sorted(tuple(map(abs, r)) for r in basis)


def test_lll_output_is_reduced_and_preserves_gram_det():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(2, 6)
        while True:
            basis = [[rng.randrange(-30, 31) for _ in range(n)]
                     for _ in range(n)]
            try:
                det = gram_det(basis)
                break
            except ValueError:
                continue
        out = lll_reduce(basis)
        assert is_lll_reduced(out)
        assert gram_det(out) == det


def test_lll_matches_reference_on_random_bases():
    # small entries make ties mu = k + 1/2 common, so the rounding rule of
    # the size reduction is exercised
    rng = random.Random(13)
    checked = 0
    while checked < 300:
        n = rng.randrange(2, 7)
        size = rng.choice([2, 5, 40, 10 ** 6])
        basis = [[rng.randrange(-size, size + 1) for _ in range(n)]
                 for _ in range(n)]
        checked += assert_matches_reference(basis)


def test_lll_recovers_planted_short_vector():
    rng = random.Random(11)
    for _ in range(15):
        short = [rng.randrange(-3, 4) for _ in range(4)]
        if all(v == 0 for v in short):
            short[0] = 1
        rows = [short[:]] + [[rng.randrange(-500, 501) for _ in range(4)]
                             for _ in range(3)]
        try:
            gram_det(rows)
        except ValueError:
            continue
        # scramble by random elementary row operations (unimodular)
        for _ in range(20):
            i, j = rng.randrange(4), rng.randrange(4)
            if i != j:
                c = rng.randrange(-2, 3)
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        out = lll_reduce(rows)
        best = min(out, key=lambda r: sum(v * v for v in r))
        assert sum(v * v for v in best) <= sum(v * v for v in short)


# --------------------------------------------------------------------------
# algdep
# --------------------------------------------------------------------------

CTX = PadicContext(5, 40)


def hensel_root(coeffs, ctx, a0, a1):
    """Newton-lift a simple root of the integer polynomial from its residue
    a0 + a1*w mod p."""
    x = ctx.from_coords(a0, a1)
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    for _ in range(12):
        fx = eval_poly(coeffs, x)
        if fx.is_zero:
            break
        x = x - fx / eval_poly(deriv, x)
    assert eval_poly(coeffs, x).is_zero or \
        eval_poly(coeffs, x).v >= ctx.prec - 5
    return x


def find_simple_residue_root(coeffs, p):
    for a0 in range(p):
        for a1 in range(p):
            ctx1 = PadicContext(p, 1)
            x = ctx1.from_coords(a0, a1)
            fx = eval_poly(coeffs, x)
            if not (fx.is_zero or fx.v >= 1):
                continue
            deriv = [i * c for i, c in enumerate(coeffs)][1:]
            dfx = eval_poly(deriv, x)
            if dfx.is_zero or dfx.v >= 1:
                continue
            return a0, a1
    return None


def test_algdep_degree_one():
    res = algdep_padic(CTX.from_int(3), 1, 30)
    assert res.found and res.coefficients == (-3, 1)
    assert res.height == 3 and res.margin > 10


def test_algdep_sqrt_d():
    # above the true degree the polynomial comes back primitive and stripped
    for D in (12, 17, 33):
        x = sqrtD_padic(CTX, D)
        for degree in (2, 4):
            res = algdep_padic(x, degree, 30)
            assert res.coefficients == (-D, 0, 1)


def test_algdep_rejects_bad_inputs():
    with pytest.raises(ValueError):
        algdep_padic(CTX.from_int(3), 0, 10)
    with pytest.raises(ValueError):
        algdep_padic(CTX.from_int(3), 1, 45)  # beyond working precision
    with pytest.raises(ValueError):
        algdep_padic(CTX.from_rational(Fraction(1, 5)), 1, 30)
    # no congruence at all: at budget 0 every polynomial would vanish
    for budget in (0, -2):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            algdep_padic(CTX.from_int(1), 1, budget)


def test_algdep_not_found_is_reported():
    # a generic p-adic number admits no small-height low-degree relation
    rng = random.Random(2)
    x = CTX.from_coords(rng.randrange(5 ** 40), rng.randrange(5 ** 40))
    res = algdep_padic(x, 3, 35, height_bound=10 ** 4)
    assert not res.found and res.coefficients is None and res.height is None


def test_algdep_plant_and_recover():
    rng = random.Random(5)
    recovered = 0
    total = 60
    done = 0
    while done < total:
        d = rng.randrange(2, 5)
        coeffs = [rng.randrange(-50, 51) for _ in range(d)] + \
            [rng.randrange(1, 51)]
        root = find_simple_residue_root(coeffs, 5)
        if root is None:
            continue
        done += 1
        x = hensel_root(coeffs, CTX, *root)
        res = algdep_padic(x, d, 30, height_bound=200)
        if not res.found:
            continue
        # the recovered polynomial must vanish at the planted root and
        # divide into the planted one's height class
        val = eval_poly(res.coefficients, x)
        assert val.is_zero or val.v >= 30 - 3
        recovered += 1
    assert recovered >= int(0.99 * total)


def test_algdep_margin_grows_with_budget():
    x = sqrtD_padic(CTX, 12)
    m1 = algdep_padic(x, 2, 16).margin
    m2 = algdep_padic(x, 2, 32).margin
    assert m2 > m1


def test_algdep_margin_past_float_range():
    # the residue rows are weighted by 7^190, so their squared lengths lie
    # far beyond the float range; the margin must not convert them
    res = algdep_padic(PadicContext(7, 200).from_int(3), 1, 190)
    assert res.coefficients == (-3, 1)
    assert res.margin > 7 ** 5


def test_lll_matches_reference_on_algdep_lattices(monkeypatch):
    lattices = []

    def record(basis):
        lattices.append(basis)
        return lll_reduce(basis)

    monkeypatch.setattr(lattice, "lll_reduce", record)
    rng = random.Random(3)
    generic = CTX.from_coords(rng.randrange(5 ** 40), rng.randrange(5 ** 40))
    for x in (generic, sqrtD_padic(CTX, 12)):
        for d in range(1, 5):
            algdep_padic(x, d, 30)
    assert len(lattices) == 8
    for basis in lattices:
        assert assert_matches_reference(basis)
