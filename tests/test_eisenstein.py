import random

import pytest

from rmlab.eisenstein import (LogCache, antiparallel_coeff, diag_coefficient,
                              diag_restrict_derivative, divisor_sums,
                              dual_coeff_Fplus, eis_combination_coeff,
                              eis_family_coeff, ordinary_projection,
                              sigma_psi)
from rmlab.padic import PadicContext, iwasawa_log
from rmlab.quadfield import (IdealDivisorEngine, NarrowClassGroup,
                             TotallyPositiveElement, embed_quadnum,
                             enumerate_trace, principal_ideal)
from rmlab.winding import log_Tn_Jw

D, P = 12, 5
GROUP = NarrowClassGroup(D)
(CHI,) = GROUP.odd_characters()
ENGINE = IdealDivisorEngine(GROUP, P)
CTX = PadicContext(P, 20)
LOGS = LogCache(CTX)


def test_sigma_psi_diagonal_vanishing():
    for n in range(1, 41):
        assert sum(sigma_psi(nu, CHI, ENGINE)
                   for nu in enumerate_trace(n, D)) == 0


def test_sigma_psi_conjugation_antisymmetry():
    for n in (1, 2, 3, 5):
        for nu in enumerate_trace(n, D):
            conj = TotallyPositiveElement(D, nu.n, -nu.s)
            assert sigma_psi(nu, CHI, ENGINE) == -sigma_psi(conj, CHI, ENGINE)


# fields for the kernel-against-divisor-walk checks: (60, 13) has h+ = 4 and
# two odd characters, (40, 7) has no odd character
KERNEL_FIELDS = [(12, 5), (24, 7), (40, 7), (60, 13)]


@pytest.mark.parametrize("disc, p", KERNEL_FIELDS)
def test_sigma_trivial_character_counts_divisors(disc, p):
    # sigma_psi is the explicit sum over the divisor walk, which for the
    # trivial character counts the divisors
    group = NarrowClassGroup(disc)
    engine = IdealDivisorEngine(group, p)
    for chi in group.characters:
        for n in (1, 3, p, 2 * p):
            for nu in enumerate_trace(n, disc):
                assert sigma_psi(nu, chi, engine) == sum(
                    chi[d.class_idx] for d in engine.divisors(nu.alpha))


@pytest.mark.parametrize("disc, p", KERNEL_FIELDS)
def test_eis_family_pair_reindexing(disc, p):
    # (psi,1) at nu is the I -> (nu)d/I reindexing of (1,psi); both, and the
    # anti-parallel and combined families over (nu_0)d, against the explicit
    # divisor walk (even characters reach their log nu_0 terms)
    group = NarrowClassGroup(disc)
    engine = IdealDivisorEngine(group, p)
    ctx = PadicContext(p, 20)
    logs = LogCache(ctx)
    L1, L2 = ctx.from_int(3), ctx.from_int(8)
    r1, r2 = L1 / (L1 + L2), L2 / (L1 + L2)
    for chi in group.characters:
        for n in (1, 4, p, 2 * p):
            for nu in enumerate_trace(n, disc):
                e1 = eis_family_coeff("1,psi", nu, chi, engine, ctx, logs)
                e2 = eis_family_coeff("psi,1", nu, chi, engine, ctx, logs)
                total_class = group.narrow_class_of_ideal(
                    principal_ideal(disc, nu.alpha))
                a1, b1, a2, b2 = (ctx.zero(),) * 4
                for d in engine.divisors(nu.alpha):
                    cof = group.compose(total_class,
                                        group.inverse[d.class_idx])
                    a1 = a1 + chi[d.class_idx]
                    b1 = b1 + chi[d.class_idx] * logs.log_int(d.norm)
                    a2 = a2 + chi[cof]
                    b2 = b2 + chi[cof] * logs.log_int(d.norm)
                assert e1.a.equals(a1) and e1.b.equals(b1)
                assert e2.a.equals(a2) and e2.b.equals(b2)
                # and the reindexed sum is psi(total) times the (1,psi) a-part
                assert e2.a.equals(e1.a * chi[total_class])
                ap = antiparallel_coeff(nu, chi, engine, ctx, L1, L2, logs)
                fp = dual_coeff_Fplus(nu, chi, engine, ctx, logs)
                nu0 = nu.deprived(p)
                log_nu0 = iwasawa_log(embed_quadnum(nu0.nu, ctx))
                mass, b_ap, b_fp = ctx.zero(), ctx.zero(), ctx.zero()
                for d in engine.divisors(nu0.alpha):
                    x = chi[d.class_idx]
                    log_i = logs.log_int(d.norm)
                    log_cof = logs.log_int(nu0.ideal_norm // d.norm)
                    mass = mass + x
                    b_ap = b_ap + (r1 * log_i + r2 * log_cof - log_nu0) * x
                    b_fp = b_fp + (log_i - log_nu0) * x
                assert ap.a.equals(mass) and ap.b.equals(b_ap)
                assert fp.a.equals(mass) and fp.b.equals(b_fp)


def test_eis_family_rejects_unknown_pair():
    nu = enumerate_trace(1, D)[0]
    with pytest.raises(ValueError):
        eis_family_coeff("psi,psi", nu, CHI, ENGINE, CTX)


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
                assert f0.equals(fm)
                L1, L2 = CTX.from_int(3), CTX.from_int(11)
                a0 = antiparallel_coeff(nu, CHI, ENGINE, CTX, L1, L2, LOGS)
                am = antiparallel_coeff(scaled, CHI, ENGINE, CTX,
                                        L1, L2, LOGS)
                assert a0.equals(am)


def test_diag_series_vanishes_for_norm_minus_one_field():
    # D = 5 has a unit of norm -1, so the plus/minus RM points pair off and
    # every coefficient of the diagonal restriction derivative vanishes
    g5 = NarrowClassGroup(5)
    assert g5.odd_characters() == []
    trivial_chi = g5.characters[0]
    eng5 = IdealDivisorEngine(g5, 7)
    ctx7 = PadicContext(7, 12)
    logs7 = LogCache(ctx7)
    for n in range(1, 7):
        val = diag_coefficient(n, trivial_chi, eng5, ctx7, logs7)
        assert val.is_zero or val.v >= 9


def diag_oracle(n, chi, engine, ctx, logs):
    # the per-element sum: divisor_sums of each alpha_0, one log each
    total = ctx.zero()
    for nu in enumerate_trace(n, engine.D):
        alpha0 = nu.deprived(engine.p).alpha
        mass, log_sum, _ = divisor_sums(alpha0, chi, engine, logs)
        total = total + log_sum
        if mass:
            total = total - iwasawa_log(embed_quadnum(alpha0, ctx)) * mass
    return total


# (33, 7): 2 splits; (13, 5): no odd character, 13 ramified
@pytest.mark.parametrize("disc, p", KERNEL_FIELDS + [(33, 7), (13, 5)])
def test_diag_coefficient_matches_divisor_sum_oracle(disc, p):
    group = NarrowClassGroup(disc)
    engine = IdealDivisorEngine(group, p)
    ctx = PadicContext(p, 20)
    logs = LogCache(ctx)
    for chi in group.characters:
        for n in (1, 2, 3, 4, 6, 12, p, 2 * p, p * p):
            oracle = diag_oracle(n, chi, engine, ctx, logs)
            assert diag_coefficient(n, chi, engine, ctx).equals(oracle)
            assert diag_coefficient(n, chi, engine, ctx, logs).equals(oracle)


@pytest.mark.parametrize("disc, p", [(12, 5), (33, 7), (60, 13)])
def test_telescoped_level_equals_fresh_level(disc, p):
    group = NarrowClassGroup(disc)
    engine = IdealDivisorEngine(group, p)
    ctx = PadicContext(p, 24)
    for chi in group.characters:
        logs = LogCache(ctx)
        for n in (1, 2):
            for m in range(4 if p < 13 else 3):
                shared = diag_coefficient(n * p ** m, chi, engine, ctx, logs)
                fresh = diag_coefficient(n * p ** m, chi, engine, ctx)
                assert shared.equals(fresh)
    # a kept a_n is what a_{np} builds on: a planted value moves it
    logs = LogCache(ctx)
    chi = group.characters[-1]
    below = diag_coefficient(1, chi, engine, ctx, logs)
    logs.levels[(disc, p, chi, 1)] = below + ctx.one()
    telescoped = diag_coefficient(p, chi, engine, ctx, logs)
    assert telescoped.equals(diag_coefficient(p, chi, engine, ctx)
                             + ctx.one())


def test_diag_coefficient_rejects_split_p():
    g21 = NarrowClassGroup(21)
    with pytest.raises(ValueError, match="not inert"):
        diag_coefficient(1, g21.characters[0], IdealDivisorEngine(g21, 5),
                         PadicContext(5, 8))


def test_sqrtD_normalization_immaterial():
    # replacing log(nu0 sqrt(D)/Nm I) by log(nu0/Nm I) changes nothing,
    # because sum(psi(I)) over each trace level vanishes
    logsq = iwasawa_log(
        embed_quadnum(enumerate_trace(1, D)[0].alpha
                      * enumerate_trace(1, D)[0].nu.inverse(), CTX))
    for n in (1, 2, 3):
        a = diag_coefficient(n, CHI, ENGINE, CTX, LOGS)
        alt = CTX.zero()
        for nu in enumerate_trace(n, D):
            lognu = iwasawa_log(embed_quadnum(nu.nu, CTX))
            for d in ENGINE.divisors(nu.alpha):
                alt = alt - CHI[d.class_idx] * (lognu - LOGS.log_int(d.norm))
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


def test_diag_restrict_derivative_series_shape():
    s = diag_restrict_derivative(CHI, GROUP, P, 6, CTX, ENGINE, LOGS)
    assert s.coeffs[0] is None and s.n_max == 6 and s.level == P
    assert s.coeffs[1].equals(diag_coefficient(1, CHI, ENGINE, CTX, LOGS))
    with pytest.raises(ValueError):
        diag_restrict_derivative(CHI, GROUP, 13, 3, CTX)  # 13 splits


# --- ordinary projection ------------------------------------------------------

def test_ordinary_projection_stationary_input():
    producer = lambda k: CTX.from_int(42)
    val, cert = ordinary_projection(producer, 3, P, 2, CTX)
    assert val.equals(CTX.from_int(42))
    assert cert.agreement == [None, None]
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
    vals = [a for a in cert.agreement if a is not None]
    assert vals == sorted(vals) and len(set(vals)) == len(vals)
    assert not val.is_zero
