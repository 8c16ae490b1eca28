import random
from fractions import Fraction

import pytest

from rmlab.gsunits import (UnitCandidate, _teichmuller_generator,
                           generating_series, is_reciprocal_up_to_p_power,
                           l_invariants_from_unit, newton_slopes,
                           quadratic_roots, recognition_budget, recognize,
                           splitting_fraction, unit_from_constant_term,
                           valuation_predictions)
from rmlab.lattice import eval_poly
from rmlab.modforms import FitResult
from rmlab.padic import (PadicContext, is_prime, iwasawa_log, padic_exp,
                         sqrt_rational)
from rmlab.quadfield import NarrowClassGroup


def flagship_log(ctx):
    """log_p of (3 + 4i)/5, the 12th power of the unit encoded at the
    principal RM point of discriminant 12 (Iwasawa branch kills the 5)."""
    i = ctx.sqrt_zp(-1 % ctx.modulus)
    return iwasawa_log(ctx.from_int(3 + 4 * i))


# --------------------------------------------------------------------------
# zeta predictions
# --------------------------------------------------------------------------

def test_valuation_predictions_flagship():
    group = NarrowClassGroup(12)
    preds = valuation_predictions(group, group.identity)
    assert preds == {0: Fraction(-1, 12), 1: Fraction(1, 12)}
    assert sum(preds.values()) == 0


# --------------------------------------------------------------------------
# the generating series
# --------------------------------------------------------------------------

def test_generating_series_small():
    ctx = PadicContext(5, 16)
    group = NarrowClassGroup(12)
    tau = group.rm_representative(group.identity)
    res = generating_series(tau, 5, 10, ctx, m_max=2, group=group)
    assert not res.trivial
    assert set(res.certificates) == {1, 2, 3, 4, 6, 7, 8, 9}
    assert all(c.stabilized_at >= 5 for c in res.certificates.values())
    assert res.fit.min_residual_valuation is None \
        or res.fit.min_residual_valuation >= 8
    # constant term = log of the unit; 12 a_0 = log((3+4i)/5)
    diff = res.a0 * 12 - flagship_log(ctx)
    assert diff.is_zero or diff.v >= 8
    # coefficients at p | n repeat the stabilized value at n / p
    assert res.series[5].equals(res.series[1])
    assert res.series[10].equals(res.series[2])


def test_generating_series_class_antisymmetry():
    ctx = PadicContext(5, 12)
    group = NarrowClassGroup(12)
    r0 = generating_series(group.rm_representative(0), 5, 4, ctx,
                           m_max=2, group=group)
    r1 = generating_series(group.rm_representative(1), 5, 4, ctx,
                           m_max=2, group=group)
    for n in range(1, 5):
        assert (r0.series[n] + r1.series[n]).is_zero


def test_generating_series_trivial_for_norm_minus_one_field():
    ctx = PadicContext(5, 10)
    group = NarrowClassGroup(8)
    tau = group.rm_representative(group.identity)
    res = generating_series(tau, 5, 6, ctx, group=group)
    assert res.trivial
    assert all(res.series[n].is_zero for n in range(1, 7))
    assert res.a0.is_zero


def test_generating_series_rejects_split_prime():
    ctx = PadicContext(13, 10)
    group = NarrowClassGroup(12)
    with pytest.raises(ValueError):
        generating_series(group.rm_representative(0), 13, 4, ctx,
                          group=group)


# --------------------------------------------------------------------------
# unit candidates
# --------------------------------------------------------------------------

def test_unit_candidates_flagship():
    ctx = PadicContext(5, 24)
    group = NarrowClassGroup(12)
    a0 = flagship_log(ctx) * ctx.from_rational(Fraction(1, 12))
    cands = unit_from_constant_term(a0, group, group.identity, ctx)
    assert len(cands) == 24  # p^2 - 1 torsion twists
    assert all(c.pinned_valuation == -1 for c in cands)
    assert all(c.value.v == -1 for c in cands)
    base = padic_exp(a0 * 12) * ctx.from_rational(Fraction(1, 5))
    assert cands[0].value.equals(base)
    # distinct twists differ
    assert not cands[1].value.equals(cands[0].value)


def test_unit_candidates_domain_guards():
    ctx = PadicContext(5, 10)
    group = NarrowClassGroup(12)
    with pytest.raises(ArithmeticError):
        unit_from_constant_term(ctx.zero(), group, group.identity, ctx)
    with pytest.raises(ArithmeticError):
        unit_from_constant_term(ctx.one(), group, group.identity, ctx)


def test_teichmuller_generator_order():
    ctx = PadicContext(5, 12)
    g = _teichmuller_generator(ctx)
    assert (g ** 24).equals(ctx.one())
    assert not (g ** 8).equals(ctx.one())
    assert not (g ** 12).equals(ctx.one())


# --------------------------------------------------------------------------
# recognition
# --------------------------------------------------------------------------

def test_recognize_flagship_from_exact_log():
    ctx = PadicContext(5, 32)
    group = NarrowClassGroup(12)
    a0 = flagship_log(ctx) * ctx.from_rational(Fraction(1, 12))
    cands = unit_from_constant_term(a0, group, group.identity, ctx)
    rec = recognize(cands, group, group.identity, ctx, degree=4, budget=24)
    assert rec.recognized
    assert rec.polynomial == (5, -6, 5)
    assert rec.twist == 0
    assert rec.newton_ok and rec.reciprocal_ok
    assert rec.split_fraction >= 0.95
    assert (0, (5, -6, 5)) in rec.matches
    # the search stops at the accepted twist
    assert rec.matches[-1] == (rec.twist, rec.polynomial)
    assert all(twist <= rec.twist for twist, _ in rec.matches)


@pytest.mark.parametrize("c1", [8, -14, 4])
def test_recognize_planted_quadratic(c1):
    # plant a root of 5 x^2 + c1 x + 5 (valuations -1, +1 as predicted)
    ctx = PadicContext(5, 32)
    group = NarrowClassGroup(12)
    f = (5, c1, 5)
    r1, r2 = quadratic_roots(f, ctx)
    root = r1 if r1.v == -1 else r2
    assert root.v == -1
    rec = recognize([UnitCandidate(root, 0, -1)], group, group.identity,
                    ctx, degree=4, budget=24)
    assert rec.polynomial == f
    assert rec.newton_ok and rec.reciprocal_ok


def test_recognize_rejects_wrong_newton():
    # a number with both conjugates of order zero fails the polygon check
    ctx = PadicContext(5, 32)
    group = NarrowClassGroup(12)
    r1, _ = quadratic_roots((1, -4, 1), ctx)  # unit roots, slopes [0, 0]
    rec = recognize([UnitCandidate(r1, 0, 0)], group, group.identity,
                    ctx, degree=4, budget=20)
    assert not rec.recognized
    assert rec.matches and rec.matches[0][1] == (1, -4, 1)


def test_recognize_records_each_relation_once():
    # at budget 6 the wrong twists satisfy many spurious relations, and the
    # degree-d and degree-(d + 1) lattices often return the same one
    ctx = PadicContext(5, 24)
    group = NarrowClassGroup(12)
    a0 = flagship_log(ctx) * ctx.from_rational(Fraction(1, 12))
    cands = unit_from_constant_term(a0, group, group.identity, ctx)
    for budget, count in ((6, 72), (14, 2)):
        rec = recognize(cands, group, group.identity, ctx, budget=budget)
        assert len(rec.matches) == len(set(rec.matches)) == count


def test_recognize_rejects_degree_below_1():
    # as algdep_padic does, rather than report "not recognized"
    ctx = PadicContext(5, 32)
    group = NarrowClassGroup(12)
    a0 = flagship_log(ctx) * ctx.from_rational(Fraction(1, 12))
    cands = unit_from_constant_term(a0, group, group.identity, ctx)
    for degree in (0, -1):
        with pytest.raises(ValueError, match="^degree must be at least 1$"):
            recognize(cands, group, group.identity, ctx, degree=degree)


def test_recognition_budget():
    # the least of the cap, prec - 6 and the least residual valuation - 2
    ctx = PadicContext(5, 32)
    fit = FitResult([], ctx.zero(), {2: 21, 3: 25}, 21, True)
    assert recognition_budget(fit, ctx) == 19
    assert recognition_budget(fit, ctx, 12) == 12
    assert recognition_budget(fit, PadicContext(5, 24)) == 18
    exact = FitResult([], ctx.zero(), {2: None}, None, True)
    assert recognition_budget(exact, ctx, 30) == 26


def test_recognition_budget_below_1_names_its_bound():
    # the --budget and --prec bounds are named in tests/test_cli.py
    ctx = PadicContext(5, 32)
    fit = FitResult([], ctx.zero(), {2: 2, 3: 25}, 2, True)
    with pytest.raises(ValueError, match="^the fit's least residual "
                       "valuation 2 leaves a recognition budget of 0; "):
        recognition_budget(fit, ctx)


# --------------------------------------------------------------------------
# polynomial diagnostics
# --------------------------------------------------------------------------

def test_newton_slopes():
    assert newton_slopes((5, -6, 5), 5) == [-1, 1]
    assert newton_slopes((625, -30, 1), 5) == [1, 3]
    assert newton_slopes((5, 0, 0, 1), 5) == [Fraction(1, 3)] * 3
    assert newton_slopes((1, -4, 1), 5) == [0, 0]
    with pytest.raises(ValueError):
        newton_slopes((7,), 5)


def test_reciprocal_up_to_p_power():
    assert is_reciprocal_up_to_p_power((5, -6, 5), 5)
    assert is_reciprocal_up_to_p_power((1, 0, 1), 5)
    assert is_reciprocal_up_to_p_power((25, -30, 1), 5)  # roots r, 25/r
    assert is_reciprocal_up_to_p_power((5, -6, 1), 5)    # roots 1, 5
    assert not is_reciprocal_up_to_p_power((2, -6, 5), 5)
    assert not is_reciprocal_up_to_p_power((1, 2, 3), 5)


def test_splitting_fraction():
    g12 = NarrowClassGroup(12)
    # at D = 12 the primes split completely in the genus field are the
    # q = 1 (mod 12): x^2 + 1 and the flagship polynomial split at each
    assert splitting_fraction((1, 0, 1), g12, 20) == 1.0
    assert splitting_fraction((5, -6, 5), g12, 25) == 1.0
    # x^2 - 2 splits at q = +-1 (mod 8), so at the q = 1 (mod 24) of them
    first = [q for q in range(3, 2000) if is_prime(q) and q % 12 == 1][:20]
    hits = sum(q % 24 == 1 for q in first)
    assert 0 < hits < 20
    assert splitting_fraction((-2, 0, 1), g12, 20) == hits / 20


def test_splitting_fraction_at_the_flagship_field():
    # the 50 primes split completely at D = 12 run to q = 1321; the
    # flagship polynomial splits at all of them, 15625 x^2 + 25774 x + 15625
    # at 20 and x^4 + 1 at 22
    g12 = NarrowClassGroup(12)
    assert splitting_fraction((5, -6, 5), g12) == 1.0
    assert splitting_fraction((15625, 25774, 15625), g12) == 0.4
    assert splitting_fraction((1, 0, 0, 0, 1), g12) == 0.44


def test_splitting_fraction_reads_the_genus_field():
    # the genus field of Q(sqrt(21)) is Q(sqrt(-3), sqrt(-7)), where
    # x^2 + x + 2, of discriminant -7, splits at every prime that splits
    # completely; q = 1 (mod 12) would count 13, where (-7/13) = -1
    assert splitting_fraction((2, 1, 1), NarrowClassGroup(21)) == 1.0


# --------------------------------------------------------------------------
# square roots, roots, L-invariants
# --------------------------------------------------------------------------

def test_sqrt_rational_roundtrip():
    ctx = PadicContext(5, 20)
    rng = random.Random(11)
    done = 0
    while done < 25:
        q = Fraction(rng.randrange(-400, 400), rng.randrange(1, 400))
        if q == 0:
            continue
        num = q.numerator
        v = 0
        while num % 5 == 0:
            num //= 5
            v += 1
        while q.denominator % 5 ** (abs(v) + 1) == 0:
            break
        try:
            s = sqrt_rational(ctx, q)
        except ValueError:
            continue
        done += 1
        diff = s * s - ctx.from_rational(q)
        assert diff.is_zero or diff.v >= 18


def test_sqrt_rational_odd_valuation_rejected():
    ctx = PadicContext(5, 10)
    with pytest.raises(ValueError):
        sqrt_rational(ctx, Fraction(5))


def test_quadratic_roots_satisfy_polynomial():
    ctx = PadicContext(5, 24)
    for f in ((5, -6, 5), (5, 8, 5), (1, -4, 1), (25, -30, 1)):
        for r in quadratic_roots(f, ctx):
            val = eval_poly(f, r)
            assert val.is_zero or val.v >= 20


def test_l_invariants_flagship():
    # both embeddings of (3+4i)/5 give the same L-invariant: the conjugate
    # root is its inverse, so log and order flip sign together
    ctx = PadicContext(5, 28)
    L = flagship_log(ctx)
    L1, L2 = l_invariants_from_unit((5, -6, 5), ctx)
    d1, d2 = L1 - L, L2 - L
    assert d1.is_zero or d1.v >= 24
    assert d2.is_zero or d2.v >= 24
    total = L1 + L2
    assert not total.is_zero and total.v == L.v


def test_l_invariants_guards():
    ctx = PadicContext(5, 10)
    with pytest.raises(ValueError):
        l_invariants_from_unit((1, 1), ctx)
    with pytest.raises(ArithmeticError):
        l_invariants_from_unit((1, -4, 1), ctx)  # unit roots, order zero
