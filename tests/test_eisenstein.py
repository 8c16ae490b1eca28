import random
from math import isqrt

import pytest

from rmlab import eisenstein
from rmlab.eisenstein import (LogCache, _fold, _level_unit,
                              antiparallel_coeff, diag_coefficient,
                              divisor_sums, dual_coeff_Fplus,
                              eis_combination_coeff, eis_family_coeff,
                              ordinary_projection, sigma_psi)
from rmlab.gsunits import generating_series
from rmlab.padic import PadicContext, iwasawa_log
from rmlab.quadfield import (IdealDivisorEngine, NarrowClassGroup, QuadNum,
                             TotallyPositiveElement, _odd_primes_upto,
                             _split_exponent, embed_quadnum, enumerate_trace,
                             genus_value, progression_start,
                             splitting_type, sqrtD_padic, trace_range)
from rmlab.winding import log_Tn_Jw
from test_quadfield import principal_ideal, sieve_trace

D, P = 12, 5
GROUP = NarrowClassGroup(D)
(CHI,) = GROUP.odd_characters()
ENGINE = IdealDivisorEngine(GROUP, P)
CTX = PadicContext(P, 20)
LOGS = LogCache(CTX)


def odd_or_refused(group, *calls):
    """The odd characters of group, the only ones the kernel takes.  When
    there is none, each call(chi) is checked to refuse every character."""
    odd = group.odd_characters()
    if not odd:
        for chi in group.characters:
            for call in calls:
                with pytest.raises(ValueError, match="odd character"):
                    call(chi)
    return odd


def nu_of(nu):
    """nu = alpha / sqrt(D) in Q(sqrt(D))."""
    return nu.alpha / QuadNum(nu.D, 0, 1)


# fields for the kernel-against-divisor-walk checks: (60, 13) has h+ = 4 and
# two odd characters, (40, 7) has no odd character, so the kernel refuses
# both of its characters, and 2 splits in (33, 7), so its n = 4 folds both
# primes over 2
KERNEL_FIELDS = [(12, 5), (24, 7), (33, 7), (40, 7), (60, 13)]


@pytest.mark.parametrize("disc, p", KERNEL_FIELDS)
def test_sigma_trivial_character_counts_divisors(disc, p):
    # sigma_psi is the explicit sum over the divisor walk, which vanishes
    # for an odd character; the trivial character, whose sum would count
    # the divisors, is refused
    group = NarrowClassGroup(disc)
    engine = IdealDivisorEngine(group, p)
    nu1 = enumerate_trace(1, disc)[0]
    with pytest.raises(ValueError, match="odd character"):
        sigma_psi(nu1, group.characters[0], engine)
    for chi in odd_or_refused(group, lambda chi: sigma_psi(nu1, chi, engine)):
        for n in (1, 3, p, 2 * p):
            for nu in enumerate_trace(n, disc):
                assert sigma_psi(nu, chi, engine) == sum(
                    chi[cls] for _, cls in engine.divisors(nu.alpha))


@pytest.mark.parametrize("disc, p", KERNEL_FIELDS)
def test_eis_family_pair_reindexing(disc, p):
    # E(psi,1) at nu is the I -> (nu)d/I reindexing of E(1,psi), and equals
    # -E(1,psi); both, and the anti-parallel and combined families over
    # (nu_0)d, with their log nu_0 and log Nm(alpha_0) terms, against the
    # explicit divisor walk
    group = NarrowClassGroup(disc)
    engine = IdealDivisorEngine(group, p)
    ctx = PadicContext(p, 20)
    logs = LogCache(ctx)
    L1, L2 = ctx.from_int(3), ctx.from_int(8)
    r1, r2 = L1 / (L1 + L2), L2 / (L1 + L2)
    nu1 = enumerate_trace(1, disc)[0]
    for chi in odd_or_refused(
            group, lambda chi: eis_family_coeff(nu1, chi, engine, ctx),
            lambda chi: antiparallel_coeff(nu1, chi, engine, ctx, L1, L2),
            lambda chi: dual_coeff_Fplus(nu1, chi, engine, ctx)):
        for n in (1, 4, p, 2 * p):
            for nu in enumerate_trace(n, disc):
                e1 = eis_family_coeff(nu, chi, engine, ctx, logs)
                total_class = group.narrow_class_of_ideal(
                    principal_ideal(disc, nu.alpha))
                a1, b1, a2, b2 = (ctx.zero(),) * 4
                for norm, cls in engine.divisors(nu.alpha):
                    cof = group.compose(total_class, group.inverse[cls])
                    a1 = a1 + chi[cls]
                    b1 = b1 + chi[cls] * logs.log_int(norm)
                    a2 = a2 + chi[cof]
                    b2 = b2 + chi[cof] * logs.log_int(norm)
                assert e1.a.equals(a1) and e1.b.equals(b1)
                assert (-e1).a.equals(a2) and (-e1).b.equals(b2)
                ap = antiparallel_coeff(nu, chi, engine, ctx, L1, L2, logs)
                fp = dual_coeff_Fplus(nu, chi, engine, ctx, logs)
                nu0 = nu.deprived(p)
                log_nu0 = iwasawa_log(embed_quadnum(nu_of(nu0), ctx))
                norm0 = (nu0.n ** 2 * disc - nu0.s ** 2) // 4
                mass, b_ap, b_fp = ctx.zero(), ctx.zero(), ctx.zero()
                for norm, cls in engine.divisors(nu0.alpha):
                    x = chi[cls]
                    log_i = logs.log_int(norm)
                    log_cof = logs.log_int(norm0 // norm)
                    mass = mass + x
                    b_ap = b_ap + (r1 * log_i + r2 * log_cof - log_nu0) * x
                    b_fp = b_fp + (log_i - log_nu0) * x
                assert ap.a.equals(mass) and ap.b.equals(b_ap)
                assert fp.a.equals(mass) and fp.b.equals(b_fp)


def test_divisor_sums_reject_alpha_of_no_totally_positive_nu():
    # the kernel reads psi((alpha)) as psi(different): alpha = nu sqrt(D)
    # with nu >> 0 in the inverse different only, so no other element is
    # built.  Trace 0 and -2, s^2 past n^2 D on either side, and s of the
    # wrong parity; (n, s) = (5, 1) would pass as (1, 0) if it were deprived
    # of p = 5 unchecked
    for n, s in ((0, 0), (-2, 0), (2, 8), (2, -8), (3, 1), (5, 1)):
        with pytest.raises(ValueError, match="totally positive"):
            divisor_sums(TotallyPositiveElement(D, n, s), CHI, ENGINE, LOGS)
        with pytest.raises(ValueError, match="totally positive"):
            sigma_psi(TotallyPositiveElement(D, n, s), CHI, ENGINE)


def test_l_invariant_cancellation():
    rng = random.Random(3)
    nus = [nu for n in (1, 2, 3, 4) for nu in enumerate_trace(n, D)][:20]
    for _ in range(3):
        L1 = CTX.from_int(rng.randrange(1, 5 ** 6))
        L2 = CTX.from_int(rng.randrange(1, 5 ** 6))
        for nu in nus:
            combined = (antiparallel_coeff(nu, CHI, ENGINE, CTX, L1, L2, LOGS)
                        + eis_combination_coeff(nu, CHI, ENGINE, CTX,
                                                L1, L2, LOGS))
            fplus = dual_coeff_Fplus(nu, CHI, ENGINE, CTX, LOGS)
            assert combined.a.equals(fplus.a)
            assert combined.b.equals(fplus.b, 15)


def test_combination_folds_each_nu_once(monkeypatch):
    # E(psi,1) = psi(different) E(1,psi): one fold of nu serves both
    calls = []
    fold_one = eisenstein._fold_one

    def counting(*args):
        calls.append(args)
        return fold_one(*args)

    monkeypatch.setattr(eisenstein, "_fold_one", counting)
    L1, L2 = CTX.from_int(3), CTX.from_int(8)
    for nu in enumerate_trace(3, D):
        calls.clear()
        eis_combination_coeff(nu, CHI, ENGINE, CTX, L1, L2, LOGS)
        assert len(calls) == 1


def test_degenerate_l_invariant_rejected():
    nu = enumerate_trace(1, D)[0]
    L = CTX.from_int(7)
    with pytest.raises(ArithmeticError):
        antiparallel_coeff(nu, CHI, ENGINE, CTX, L, -L, LOGS)


def test_p_stability():
    for n in (1, 2):
        for nu in enumerate_trace(n, D):
            for m in (1, 2):
                scaled = TotallyPositiveElement(D, nu.n * P ** m,
                                                nu.s * P ** m)
                f0 = dual_coeff_Fplus(nu, CHI, ENGINE, CTX, LOGS)
                fm = dual_coeff_Fplus(scaled, CHI, ENGINE, CTX, LOGS)
                assert f0.a.equals(fm.a) and f0.b.equals(fm.b)
                L1, L2 = CTX.from_int(3), CTX.from_int(11)
                a0 = antiparallel_coeff(nu, CHI, ENGINE, CTX, L1, L2, LOGS)
                am = antiparallel_coeff(scaled, CHI, ENGINE, CTX,
                                        L1, L2, LOGS)
                assert a0.a.equals(am.a) and a0.b.equals(am.b)


def test_diag_series_vanishes_for_norm_minus_one_field(monkeypatch):
    # D = 5 has a unit of norm -1, so the plus/minus RM points pair off and
    # no character is odd: the series is zero without a kernel run, and the
    # kernel refuses the trivial character
    g5 = NarrowClassGroup(5)
    assert g5.odd_characters() == []
    (trivial_chi,) = g5.characters
    eng5 = IdealDivisorEngine(g5, 7)
    ctx7 = PadicContext(7, 12)
    with pytest.raises(ValueError, match="odd character"):
        diag_coefficient(1, trivial_chi, eng5, ctx7)

    def refuse(*args):
        raise AssertionError("kernel run")

    monkeypatch.setattr(eisenstein, "_fold", refuse)
    res = generating_series(g5.rm_representative(0), 7, 6, ctx7, group=g5)
    assert res.trivial
    assert all(a.is_zero for a in res.series.coeffs[1:])


def diag_oracle(n, chi, engine, ctx, logs):
    # the per-element sum: divisor_sums of each nu, one log each
    total = ctx.zero()
    for nu in enumerate_trace(n, engine.D):
        total = total + divisor_sums(nu, chi, engine, logs)
    return total


# (13, 5): no odd character, 13 ramified
@pytest.mark.parametrize("disc, p", KERNEL_FIELDS + [(13, 5)])
def test_diag_coefficient_matches_divisor_sum_oracle(disc, p):
    group = NarrowClassGroup(disc)
    engine = IdealDivisorEngine(group, p)
    ctx = PadicContext(p, 20)
    logs = LogCache(ctx)
    for chi in odd_or_refused(
            group, lambda chi: diag_coefficient(1, chi, engine, ctx)):
        for n in (1, 2, 3, 4, 6, 12, p, 2 * p, p * p):
            oracle = diag_oracle(n, chi, engine, ctx, logs)
            assert diag_coefficient(n, chi, engine, ctx).equals(oracle)
            assert diag_coefficient(n, chi, engine, ctx, logs).equals(oracle)


def _geometric(x, e):
    if x == 1:
        return e + 1, e * (e + 1) // 2
    return (1, e // 2) if e % 2 == 0 else (0, -(e + 1) // 2)


def record_fold(D, d, n, svals, owner, primes, exps):
    """Oracle for `_fold`: the product formula on the records of
    `sieve_trace`, one record (i, q, e) at a time, psi(P) a Legendre
    symbol per q (`genus_value`).  Returns (mass, expo): per element the
    product of its local A, and per q the exponent E_q that `_fold`
    returns."""
    chis = {}
    rec_a, rec_c = [], []
    zeros = [0] * len(svals)
    mass = [1] * len(svals)
    for i, q, e in zip(owner, primes, exps):
        x = chis.get(q)
        if x is None:
            x = chis[q] = genus_value(D, d, q)
        if e == 1 or D % q == 0:
            A, C = _geometric(x, e)
        elif splitting_type(D, q) == "inert":
            A, C = _geometric(1, e // 2)
            C *= 2
        elif n % q:
            A, C = _geometric(x, e)
        else:
            v1 = _split_exponent(D, q, e, (svals[i] - n * D) // 2, n)
            A1, C1 = _geometric(x, v1)
            A2, C2 = _geometric(x, e - v1)
            A, C = A1 * A2, A2 * C1 + A1 * C2
        rec_a.append(A)
        rec_c.append(C)
        if A:
            mass[i] *= A
        else:
            zeros[i] += 1
    expo = {}
    for i, q, A, C in zip(owner, primes, rec_a, rec_c):
        if C:
            z = zeros[i]
            cof = (0 if z else mass[i] // A) if A else \
                (mass[i] if z == 1 else 0)
            if cof:
                expo[q] = expo.get(q, 0) + C * cof
    return [0 if z else m for m, z in zip(mass, zeros)], expo


# fields for the one-pass kernel against the records: 2 splits in (33, 7)
# and (105, 11), is inert in (21, 11) and ramifies in the even D; a split
# q dividing n splits q^e, e > 1, between its two primes on every field
# with an odd character (q = 2 in (33, 7) and (105, 11)); 7 splits in
# (44, 7); (60, 13) and (105, 11) have h+ = 4.  (40, 7), (5, 7), (13, 5),
# (8, 5), (17, 3) and (41, 3) have no odd character, and the kernel refuses
# each of their characters
FOLD_FIELDS = [(12, 5), (12, 7), (24, 7), (33, 7), (40, 7), (60, 13),
               (28, 5), (5, 7), (13, 5), (21, 11), (8, 5), (105, 11),
               (17, 3), (41, 3), (44, 7)]


@pytest.mark.parametrize("disc, p", FOLD_FIELDS)
def test_fold_matches_record_oracle(disc, p):
    # per q exponent E_q, for every character, on the levels n <= 30 and a
    # few with high prime powers, the p | s left out when p | n; the masses
    # vanish, so `_fold` raises on none; and psi((alpha)) = psi(different)
    # on every record set, the identity that gives the kernel the psi of
    # its last prime
    group = NarrowClassGroup(disc)
    engine = IdealDivisorEngine(group, p)
    chars = odd_or_refused(group, lambda chi: _fold(
        1, trace_range(1, disc), _odd_primes_upto(disc), chi, engine))
    for n in sorted({*range(1, 31), p * p, 2 * p ** 3, 50, 98, 169}):
        skip = 0 if n % p else p
        svals, owner, primes, exps = sieve_trace(n, disc, skip)
        kept = [i for i, s in enumerate(svals) if not skip or s % skip]
        odd = _odd_primes_upto(isqrt((n * n * disc - n * disc % 2) // 4))
        for chi in chars:
            d = group.genus[chi]
            mass, expo = record_fold(disc, d, n, svals, owner, primes, exps)
            assert not any(mass[i] for i in kept), (n, chi)
            assert _fold(n, svals, odd, chi, engine) == expo, (n, chi)
            psi = [chi[group.different_class]] * len(svals)
            for i, q, e in zip(owner, primes, exps):
                if splitting_type(disc, q) != "inert" and e % 2:
                    psi[i] *= genus_value(disc, d, q)
            assert all(psi[i] == 1 for i in kept), (n, chi)


@pytest.mark.parametrize("disc, p", [(60, 13), (105, 11)])
def test_prime_table_keeps_characters_apart(disc, p):
    # from an empty prime table, one level folded for chi_1, chi_2, chi_1:
    # each fold must read the entries of its own genus character only
    group = NarrowClassGroup(disc)
    engine = IdealDivisorEngine(group, p)
    chi1, chi2 = group.odd_characters()
    for n in (12, 2 * p, p * p):
        skip = 0 if n % p else p
        svals, owner, primes, exps = sieve_trace(n, disc, skip)
        odd = _odd_primes_upto(isqrt((n * n * disc - n * disc % 2) // 4))
        eisenstein._PRIMES.clear()
        for chi in (chi1, chi2, chi1):
            d = group.genus[chi]
            _, expo = record_fold(disc, d, n, svals, owner, primes, exps)
            assert _fold(n, svals, odd, chi, engine) == expo, (n, chi)


def full_level_unit(n, chi, engine, ctx):
    """Oracle for `_level_unit`: `record_fold` over the whole of
    trace_range(n, D), both nu and nu', the p | s left out when p | n, and
    the unit prod q^{E_q} / prod alpha^{mass} with every alpha a power in
    Z_{p^2}.  Returns (unit, mass)."""
    D, p, M = engine.D, engine.p, ctx.modulus
    skip = 0 if n % p else p
    svals, owner, primes, exps = sieve_trace(n, D, skip)
    mass, expo = record_fold(D, engine.group.genus[chi], n, svals, owner,
                             primes, exps)
    if skip:
        first = progression_start(svals, 0, p)
        mass[first::p] = [0] * len(range(first, len(svals), p))
    num = 1
    for q, E in expo.items():
        if E:
            num = num * pow(q, E, M) % M
    unit = ctx.from_int(num)
    if any(mass):
        sq = sqrtD_padic(ctx, D)
        half = pow(2, -1, M)
        masses = ctx.one()
        for i, s in enumerate(svals):
            if mass[i]:
                alpha = ctx.from_coords((s + n * sq.u0) * half % M,
                                        n * sq.u1 * half % M)
                masses = masses * alpha ** mass[i]
        unit = unit / masses
    return unit, mass


# the inert fields of FOLD_FIELDS with p >= 5, and three more with an odd
# character
MIRROR_FIELDS = [(disc, p) for disc, p in FOLD_FIELDS
                 if p >= 5 and splitting_type(disc, p) == "inert"] \
    + [(57, 5), (88, 5), (76, 7)]


@pytest.mark.parametrize("disc, p", MIRROR_FIELDS)
def test_mirrored_level_equals_full_level(disc, p):
    # the s > 0 half, doubled, plus s = 0 is the whole level: nu and nu'
    # have the same mass, element by element, and the same unit overall
    group = NarrowClassGroup(disc)
    engine = IdealDivisorEngine(group, p)
    ctx = PadicContext(p, 20)
    chars = odd_or_refused(
        group, lambda chi: _level_unit(1, chi, engine, ctx))
    for n in sorted({*range(1, 31), p * p, 2 * p ** 3, 50, 98, 169}):
        for chi in chars:
            full, mass = full_level_unit(n, chi, engine, ctx)
            assert all(m == mass[-1 - i] for i, m in enumerate(mass)), \
                (n, chi)
            assert _level_unit(n, chi, engine, ctx).equals(full), (n, chi)


@pytest.mark.parametrize("disc, p", [(12, 5), (40, 7), (13, 5)])
def test_kernel_refuses_even_characters(disc, p):
    # the kernel is written for odd psi, whose masses vanish: every entry
    # point refuses an even character, the trivial one of D = 12 and each
    # of (40, 7) and (13, 5), which have no odd character
    group = NarrowClassGroup(disc)
    engine = IdealDivisorEngine(group, p)
    ctx = PadicContext(p, 12)
    logs = LogCache(ctx)
    L1, L2 = ctx.from_int(3), ctx.from_int(8)
    even = [chi for chi in group.characters
            if chi[group.different_class] == 1]
    assert even == (group.characters if disc != 12 else [(1, 1)])
    for chi in even:
        for nu in enumerate_trace(2, disc):
            for call in (
                    lambda: divisor_sums(nu, chi, engine, logs),
                    lambda: sigma_psi(nu, chi, engine),
                    lambda: eis_family_coeff(nu, chi, engine, ctx, logs),
                    lambda: antiparallel_coeff(nu, chi, engine, ctx,
                                               L1, L2, logs),
                    lambda: dual_coeff_Fplus(nu, chi, engine, ctx, logs),
                    lambda: eis_combination_coeff(nu, chi, engine, ctx,
                                                  L1, L2, logs)):
                with pytest.raises(ValueError, match="odd character"):
                    call()
        for n in (1, 2, p, 2 * p):
            with pytest.raises(ValueError, match="odd character"):
                diag_coefficient(n, chi, engine, ctx, logs)
        assert not logs.levels


@pytest.mark.parametrize("at_zero", [False, True])
def test_level_unit_refuses_a_nonzero_mass(at_zero, monkeypatch):
    # a mass of an odd psi vanishes; one that does not would need an alpha
    # in the unit, so it is an error, not a term left out.  A surviving
    # local A is planted in the prime table: at n = 1 on 2^1, which divides
    # only the norms 2 of s = +-2, or at n = 3 on 3^3, which divides only
    # the norm 27 of s = 0, the element `_level_unit` folds alone
    n, key = (3, (3, 3)) if at_zero else (1, 2)
    assert (0 in trace_range(n, D)) and n % P
    _level_unit(n, CHI, ENGINE, CTX)
    table = eisenstein._PRIMES[D, GROUP.genus[CHI]]
    A, C = table[key][-2:]
    assert A == 0 and C
    monkeypatch.setitem(table, key, table[key][:-2] + (1, C))
    with pytest.raises(ArithmeticError, match="non-zero divisor mass"):
        _level_unit(n, CHI, ENGINE, CTX)


@pytest.mark.parametrize("disc, p", [(12, 5), (33, 7), (60, 13)])
def test_telescoped_level_equals_fresh_level(disc, p):
    group = NarrowClassGroup(disc)
    engine = IdealDivisorEngine(group, p)
    ctx = PadicContext(p, 24)
    for chi in group.odd_characters():
        logs = LogCache(ctx)
        for n in (1, 2):
            for m in range(4 if p < 13 else 3):
                shared = diag_coefficient(n * p ** m, chi, engine, ctx, logs)
                fresh = diag_coefficient(n * p ** m, chi, engine, ctx)
                assert shared.equals(fresh)
    # a kept a_n is what a_{np} builds on: a planted value moves it
    logs = LogCache(ctx)
    chi = group.odd_characters()[-1]
    below = diag_coefficient(1, chi, engine, ctx, logs)
    logs.levels[(disc, p, chi, 1)] = below + ctx.one()
    telescoped = diag_coefficient(p, chi, engine, ctx, logs)
    assert telescoped.equals(diag_coefficient(p, chi, engine, ctx)
                             + ctx.one())


@pytest.mark.parametrize("disc, p", [(12, 5), (60, 13)])
def test_divisor_sums_reduce_no_form(disc, p, monkeypatch):
    # psi is read at rational primes as a Kronecker symbol: once the group
    # is built, no divisor sum asks for the narrow class of an ideal
    group = NarrowClassGroup(disc)
    engine = IdealDivisorEngine(group, p)
    ctx = PadicContext(p, 12)

    def refuse(self, I):
        raise AssertionError(f"narrow class of {I} asked for")

    monkeypatch.setattr(NarrowClassGroup, "narrow_class_of_ideal", refuse)
    nus = [nu for n in (1, 2, p, 6) for nu in enumerate_trace(n, disc)]
    for chi in group.odd_characters():
        logs = LogCache(ctx)
        for n in (1, 2, 6, p, p * p):
            diag_coefficient(n, chi, engine, ctx)
            diag_coefficient(n, chi, engine, ctx, logs)
        for nu in nus:
            sigma_psi(nu, chi, engine)
            eis_family_coeff(nu, chi, engine, ctx, logs)


def test_diag_coefficient_rejects_split_p():
    g21 = NarrowClassGroup(21)
    with pytest.raises(ValueError, match="not inert"):
        diag_coefficient(1, g21.odd_characters()[0],
                         IdealDivisorEngine(g21, 5), PadicContext(5, 8))


def test_sqrtD_normalization_immaterial():
    # replacing log(nu0 sqrt(D)/Nm I) by log(nu0/Nm I) changes nothing,
    # because sum(psi(I)) over each trace level vanishes
    for n in (1, 2, 3):
        a = diag_coefficient(n, CHI, ENGINE, CTX, LOGS)
        alt = CTX.zero()
        for nu in enumerate_trace(n, D):
            lognu = iwasawa_log(embed_quadnum(nu_of(nu), CTX))
            for norm, cls in ENGINE.divisors(nu.alpha):
                alt = alt - CHI[cls] * (lognu - LOGS.log_int(norm))
        assert a.equals(alt, 16)


def test_diag_matches_weighted_winding():
    # 2 a_n = -(sum over classes of psi * log T_n J_w), the pinned sign
    for n in (1, 2, 3):
        a_n = diag_coefficient(n, CHI, ENGINE, CTX, LOGS)
        wsum = CTX.zero()
        for i in range(GROUP.h):
            tau = GROUP.rm_representative(i)
            term = log_Tn_Jw(tau, n, P, CTX, GROUP, ENGINE)
            wsum = wsum + (term if CHI[i] == 1 else -term)
        assert (a_n * 2).equals(-wsum, 15)


# --- ordinary projection ------------------------------------------------------

def test_ordinary_projection_stationary_input():
    producer = lambda k: CTX.from_int(42)
    val, cert = ordinary_projection(producer, 3, P, 2, CTX)
    assert val.equals(CTX.from_int(42))
    assert cert.agreements[0] == [None, None]
    assert cert.stabilized_at == CTX.prec


def test_ordinary_projection_requires_coprime_index():
    with pytest.raises(ValueError):
        ordinary_projection(lambda k: CTX.one(), 10, P, 1, CTX)


def test_ordinary_projection_divergent_input_raises():
    rng = random.Random(4)
    producer = lambda k: CTX.from_int(rng.randrange(1, 5 ** 10))
    with pytest.raises(ArithmeticError):
        ordinary_projection(producer, 1, P, 2, CTX, threshold=8)


def test_ordinary_projection_convergence_profile():
    producer = lambda k: diag_coefficient(k, CHI, ENGINE, CTX, LOGS)
    val, cert = ordinary_projection(producer, 1, P, 2, CTX, threshold=4)
    # consecutive differences have strictly increasing valuation
    vals = [a for a in cert.agreements[0] if a is not None]
    assert vals == sorted(vals) and len(set(vals)) == len(vals)
    assert not val.is_zero
