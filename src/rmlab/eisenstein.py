"""Fourier coefficients of weight-one Eisenstein and cuspidal families over a
real quadratic field, their diagonal restrictions, and ordinary projection.

Every coefficient is a psi-weighted sum over the p-coprime ideal divisors I of
(nu)*(different), of 1 and of log Nm I.  For one nu, `divisor_sums`
evaluates both by the product formula over the prime factorization, without
listing divisors; each family coefficient is a closed form in its two sums.
The diagonal restriction coefficient `diag_coefficient` sums the same
product formula over a whole trace level in one integer pass: the norms of
the level are factored together by a sieve (`quadfield.sieve_trace`), the
psi-weighted log terms are collected as an integer exponent per rational
prime, and one p-adic log is taken per coefficient.  Because the nu of trace
n p divisible by p are p times those of trace n, a level builds on the one
below it when the caller's `LogCache` holds it.  The ordinary projection of
the diagonal restriction derivative is the limit of its coefficients at
indices n * p^m, extrapolated by iterated Shanks steps
(`accelerated_ordinary_projection`); plain stabilization at n * p^{2m}
(`ordinary_projection`) is kept as a check.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import gcd, prod

from .modforms import QSeries
from .padic import (DualScalar, PadicContext, PadicScalar, iwasawa_log)
from .quadfield import (IdealDivisorEngine, NarrowClassGroup, QuadNum,
                        TotallyPositiveElement, _split_exponent,
                        _sqrtD_coords, check_inert, embed_quadnum,
                        factor_alpha, progression_start, sieve_trace,
                        splitting_type)

# revision of the coefficient kernel: bumped by every change that can move a
# coefficient's digits below its certified precision or its slack, so that
# the CLI's coefficient cache, which is keyed by it, recomputes
KERNEL_REVISION = 2


class LogCache:
    """Memoized Iwasawa logs of rational integers in a fixed context, and
    the `diag_coefficient` value of each trace level computed with it."""

    def __init__(self, ctx: PadicContext):
        self.ctx = ctx
        self._cache = {}
        self.levels = {}         # (D, p, psi, n) -> diag_coefficient value

    def log_int(self, n: int) -> PadicScalar:
        if n not in self._cache:
            self._cache[n] = iwasawa_log(self.ctx.from_int(n))
        return self._cache[n]


def _local_factors(alpha: QuadNum, chi: tuple,
                   engine: IdealDivisorEngine) -> list:
    """(A, C, Nm P, psi(P)^e) for each P^e exactly dividing (alpha) with P
    coprime to p, where A = sum_{k <= e} psi(P)^k and
    C = sum_{k <= e} k psi(P)^k."""
    out = []
    for P, e in factor_alpha(engine.D, alpha):
        if P.a == engine.p:
            continue
        x = chi[engine.prime_class(P)]
        out.append(_geometric(x, e) + (P.norm, x ** e))
    return out


def _geometric(x: int, e: int) -> tuple:
    """(A, C) = (sum_{k <= e} x^k, sum_{k <= e} k x^k) for x = +-1."""
    if x == 1:
        return e + 1, e * (e + 1) // 2
    return (1, e // 2) if e % 2 == 0 else (0, -(e + 1) // 2)


def divisor_sums(alpha: QuadNum, chi: tuple, engine: IdealDivisorEngine,
                 logs: LogCache) -> tuple:
    """The divisor-sum kernel: (mass, log_sum, psi((alpha))) with
    mass = sum psi(I) and log_sum = sum psi(I) log Nm I over the p-coprime
    divisors I of (alpha).

    Both factor over the primes P_i^{e_i} || (alpha): mass = prod_i A_i and
    log_sum = sum_i (prod_{j != i} A_j) C_i log Nm P_i (see `_local_factors`),
    so no divisor list is built, and no log is taken when two or more A_i
    vanish.  psi((alpha)) = prod_i psi(P_i)^{e_i}: the prime over the inert p
    is (p), narrowly principal, so it adds nothing."""
    local = _local_factors(alpha, chi, engine)
    masses = [A for A, _, _, _ in local]
    log_sum = logs.ctx.zero()
    if masses.count(0) <= 1:
        for i, (_, C, q, _) in enumerate(local):
            cof = prod(masses[:i] + masses[i + 1:])
            if C and cof:
                log_sum = log_sum + logs.log_int(q) * (cof * C)
    return prod(masses), log_sum, prod(s for _, _, _, s in local)


def sigma_psi(nu: TotallyPositiveElement, chi: tuple,
              engine: IdealDivisorEngine) -> int:
    """Sum of psi(I) over p-coprime divisors I of (nu) * different."""
    return prod(A for A, _, _, _ in _local_factors(nu.alpha, chi, engine))


def eis_family_coeff(pair: str, nu: TotallyPositiveElement, chi: tuple,
                     engine: IdealDivisorEngine, ctx: PadicContext,
                     logs: LogCache | None = None) -> DualScalar:
    """Coefficient of the first-order Eisenstein family, pair in
    {"1,psi", "psi,1"}: sum over p-coprime I | (nu)*different of
    eta(cofactor) * phi(I) * (1 + eps * log Nm(I))."""
    if pair not in ("1,psi", "psi,1"):
        raise ValueError("unsupported character pair")
    logs = logs or LogCache(ctx)
    mass, log_sum, psi_alpha = divisor_sums(nu.alpha, chi, engine, logs)
    if pair == "psi,1":
        # psi(cofactor) = psi((alpha)) psi(I) for quadratic psi
        mass, log_sum = psi_alpha * mass, log_sum * psi_alpha
    return DualScalar(ctx.from_int(mass), log_sum)


def antiparallel_coeff(nu: TotallyPositiveElement, chi: tuple,
                       engine: IdealDivisorEngine, ctx: PadicContext,
                       L1: PadicScalar, L2: PadicScalar,
                       logs: LogCache | None = None) -> DualScalar:
    """Coefficient of the anti-parallel cuspidal family:
    sum over I | (nu)*different of
    psi(I)(1 + eps(-log nu + (L1/L) log Nm I + (L2/L) log Nm(cofactor))),
    extended to p | nu by p-stability."""
    Ltot = L1 + L2
    if Ltot.is_zero:
        raise ArithmeticError("degenerate total L-invariant")
    logs = logs or LogCache(ctx)
    nu0 = nu.deprived(engine.p)
    mass, log_sum, _ = divisor_sums(nu0.alpha, chi, engine, logs)
    r1 = L1 * Ltot.inverse()
    r2 = L2 * Ltot.inverse()
    # log Nm(cofactor) = log Nm(alpha_0) - log Nm I
    b = r1 * log_sum - r2 * log_sum
    if mass:
        log_nu = iwasawa_log(embed_quadnum(nu0.nu, ctx))
        b = b + (r2 * logs.log_int(nu0.ideal_norm) - log_nu) * mass
    return DualScalar(ctx.from_int(mass), b)


def eis_combination_coeff(nu: TotallyPositiveElement, chi: tuple,
                          engine: IdealDivisorEngine, ctx: PadicContext,
                          L1: PadicScalar, L2: PadicScalar,
                          logs: LogCache | None = None) -> DualScalar:
    """(L2/L) * (E(1,psi) - E(psi,1)) coefficient at nu."""
    Ltot = L1 + L2
    if Ltot.is_zero:
        raise ArithmeticError("degenerate total L-invariant")
    logs = logs or LogCache(ctx)
    e1 = eis_family_coeff("1,psi", nu, chi, engine, ctx, logs)
    e2 = eis_family_coeff("psi,1", nu, chi, engine, ctx, logs)
    r2 = L2 * Ltot.inverse()
    return (e1 - e2).scale(r2)


def dual_coeff_Fplus(nu: TotallyPositiveElement, chi: tuple,
                     engine: IdealDivisorEngine, ctx: PadicContext,
                     logs: LogCache | None = None) -> DualScalar:
    """Coefficient of the combined family, free of L-invariants:
    sum over I | (nu_0)*different of psi(I)(1 - eps log(nu_0 / Nm I))."""
    logs = logs or LogCache(ctx)
    nu0 = nu.deprived(engine.p)
    mass, log_sum, _ = divisor_sums(nu0.alpha, chi, engine, logs)
    b = log_sum
    if mass:
        b = b - iwasawa_log(embed_quadnum(nu0.nu, ctx)) * mass
    return DualScalar(ctx.from_int(mass), b)


def _level_unit(n: int, chi: tuple, engine: IdealDivisorEngine,
                ctx: PadicContext, primitive: bool) -> PadicScalar:
    """The p-adic unit whose Iwasawa log is the trace-n sum of
    `diag_coefficient`, over the p-primitive alpha only (p not dividing s)
    when `primitive`.

    One integer pass: the norms are factored by `sieve_trace`; each record
    q^e of an element gets its local (A, C) (see `_local_factors`), folded
    over the primes above q, and C times the product of the element's other
    A is added to an integer exponent E_q.  The unit is
    prod q^{E_q} / prod alpha_0^{mass}."""
    D, p, M = engine.D, engine.p, ctx.modulus
    svals, owner, primes, exps = sieve_trace(n, D, p if primitive else 0)
    size = len(svals)
    chis = {}
    rec_a, rec_c = array("q"), array("q")
    zeros = [0] * size           # count of the element's vanishing A
    mass = [1] * size            # product of the element's non-zero A
    if primitive:                # the p | s left out carry no mass either
        first = progression_start(svals, 0, p)
        zeros[first::p] = [1] * len(range(first, size, p))
    for i, q, e in zip(owner, primes, exps):
        if q == p:               # (p) divides no p-coprime divisor
            rec_a.append(1)
            rec_c.append(0)
            continue
        x = chis.get(q)
        if x is None:
            x = chis[q] = chi[engine.class_over(q, (svals[i] - n * D) // 2,
                                                n)]
        if e == 1 or D % q == 0:             # one prime P, Nm P = q
            A, C = _geometric(x, e)
        elif splitting_type(D, q) == "inert":    # P = (q), Nm P = q^2
            A, C = _geometric(1, e // 2)
            C *= 2
        elif n % q:              # q not dividing alpha: one of the two primes
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
    num = 1
    for q, E in expo.items():
        if E:
            num = num * pow(q, E, M) % M
    unit = ctx.from_int(num)
    if 0 in zeros:
        # alpha_0^mass, alpha_0 = (s + n sqrt(D))/2 / p^k, in Z_{p^2}
        a0, a1 = _sqrtD_coords(p, ctx.prec, D)
        half = pow(2, -1, M)
        masses = ctx.one()
        for i, s in enumerate(svals):
            if zeros[i]:
                continue
            m = n
            while s % p == 0 and m % p == 0:
                s //= p
                m //= p
            alpha0 = ctx.from_coords((s + m * a0) * half % M,
                                     m * a1 * half % M)
            masses = masses * alpha0 ** mass[i]
        unit = unit / masses
    return unit


def diag_coefficient(n: int, chi: tuple, engine: IdealDivisorEngine,
                     ctx: PadicContext,
                     logs: LogCache | None = None) -> PadicScalar:
    """n-th coefficient of the diagonal restriction derivative:
    -sum over Tr(nu)=n, p-coprime I | (nu_0)*different, of
    psi(I) log_p(nu_0 sqrt(D) / Nm(I)), that is
    sum over nu of log_sum - mass * log_p(alpha_0) from `divisor_sums`, with
    alpha_0 = nu_0 sqrt(D), taken as one log of `_level_unit`.

    The nu of trace n with p | nu are p times those of trace n/p and add the
    same, so a_n = a_{n/p} + (the p-primitive sum): with `logs` given, each
    level's value is kept in it per (D, p, psi, n), and a level whose
    a_{n/p} is kept there sums only its p-primitive nu."""
    check_inert(engine.D, engine.p)
    levels = logs.levels if logs is not None else {}
    key = (engine.D, engine.p, chi, n)
    if key not in levels:
        below = levels.get(key[:3] + (n // engine.p,)) \
            if n % engine.p == 0 else None
        value = iwasawa_log(_level_unit(n, chi, engine, ctx,
                                        below is not None))
        levels[key] = value if below is None else below + value
    return levels[key]


def diag_restrict_derivative(chi: tuple, group: NarrowClassGroup, p: int,
                             n_max: int, ctx: PadicContext,
                             engine: IdealDivisorEngine | None = None,
                             logs: LogCache | None = None) -> QSeries:
    """q-series of the diagonal restriction derivative up to q^{n_max};
    constant term left unknown."""
    check_inert(group.D, p)
    engine = engine or IdealDivisorEngine(group, p)
    logs = logs or LogCache(ctx)
    coeffs = [None] + [diag_coefficient(n, chi, engine, ctx, logs)
                       for n in range(1, n_max + 1)]
    return QSeries(tuple(coeffs), p)


@dataclass
class StabilizationCertificate:
    values: list               # a_{n p^{2m}} for m = 0..m_max
    agreement: list            # valuation of consecutive differences
    stabilized_at: int         # digits of agreement of the last two terms


def shanks_step(seq: list) -> list:
    """One column of the Shanks table: eliminates the dominant geometric
    transient from a convergent sequence."""
    out = []
    for a0, a1, a2 in zip(seq, seq[1:], seq[2:]):
        d0, d1 = a1 - a0, a2 - a1
        dd = d1 - d0
        out.append(a2 if dd.is_zero else a2 - d1 * d1 / dd)
    return out


def _agreement_profile(seq: list) -> list:
    """Valuations of consecutive differences, None where one vanishes."""
    return [None if (x - y).is_zero else (x - y).v
            for x, y in zip(seq, seq[1:])]


@dataclass
class AccelerationCertificate:
    depth: int                 # number of Shanks columns applied
    agreements: list           # per column, valuations of consecutive diffs
    stabilized_at: int         # agreement of the last two deepest entries


def accelerated_ordinary_projection(producer, n: int, p: int, m_max: int,
                                    ctx: PadicContext):
    """Ordinary projection as the limit of producer(n * p^m), m = 0..m_max,
    extrapolated by the iterated Shanks transform.

    The non-ordinary transient is a sum of geometric terms (one per
    finite-slope U_p eigenvalue); each Shanks column removes the dominant
    one, so the deepest table entry converges far beyond the raw sequence.
    Returns (value, certificate)."""
    if gcd(n, p) != 1:
        raise ValueError("n must be coprime to p")
    if m_max < 2:
        raise ValueError("need at least three terms to extrapolate")
    seq = [producer(n * p ** m) for m in range(m_max + 1)]
    agreements = [_agreement_profile(seq)]
    depth = 0
    while len(seq) >= 3:
        seq = shanks_step(seq)
        depth += 1
        agreements.append(_agreement_profile(seq))
    # conservative certificate: the deepest column with two entries to
    # compare (a single-entry column certifies nothing by itself)
    last = next((prof[-1] for prof in reversed(agreements) if prof), None)
    stabilized = ctx.prec if last is None else last
    return seq[-1], AccelerationCertificate(depth, agreements, stabilized)


def ordinary_projection(producer, n: int, p: int, m_max: int,
                        ctx: PadicContext,
                        threshold: int | None = None):
    """Stabilized limit of producer(n * p^{2m}) for m = 0..m_max.

    Returns (value, certificate); raises if the last two terms do not agree
    to the threshold (default: half the working precision)."""
    if gcd(n, p) != 1:
        raise ValueError("n must be coprime to p")
    if threshold is None:
        threshold = ctx.prec // 2
    values = [producer(n * p ** (2 * m)) for m in range(m_max + 1)]
    agreement = _agreement_profile(values)
    last = agreement[-1] if agreement else None
    digits = ctx.prec if last is None else last
    if digits < threshold:
        raise ArithmeticError(
            f"no stabilization: last agreement at valuation {digits}, "
            f"needed {threshold}; profile {agreement}")
    cert = StabilizationCertificate(values, agreement, digits)
    return values[-1], cert
