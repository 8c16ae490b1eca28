"""Fourier coefficients of weight-one Eisenstein and cuspidal families over a
real quadratic field, their diagonal restrictions, and ordinary projection.

Every coefficient is a psi-weighted sum over the p-coprime ideal divisors I of
(nu)*(different), of 1 and of log Nm I.  One kernel, `divisor_sums`, evaluates
both by the product formula over the prime factorization, without listing
divisors; each family coefficient is a closed form in its two sums.  The
ordinary projection of the diagonal restriction derivative is the limit of
its coefficients at indices n * p^m, extrapolated by iterated Shanks steps
(`accelerated_ordinary_projection`); plain stabilization at n * p^{2m}
(`ordinary_projection`) is kept as a check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

from .modforms import QSeries
from .padic import (DualScalar, PadicContext, PadicScalar, iwasawa_log)
from .quadfield import (IdealDivisorEngine, NarrowClassGroup, QuadNum,
                        TotallyPositiveElement, check_inert, embed_quadnum,
                        enumerate_trace, factor_alpha)


class LogCache:
    """Memoized Iwasawa logs of rational integers in a fixed context."""

    def __init__(self, ctx: PadicContext):
        self.ctx = ctx
        self._cache = {}

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
        out.append((sum(x ** k for k in range(e + 1)),
                    sum(k * x ** k for k in range(1, e + 1)), P.norm, x ** e))
    return out


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


def diag_coefficient(n: int, chi: tuple, engine: IdealDivisorEngine,
                     ctx: PadicContext,
                     logs: LogCache | None = None) -> PadicScalar:
    """n-th coefficient of the diagonal restriction derivative:
    -sum over Tr(nu)=n, p-coprime I | (nu_0)*different, of
    psi(I) log_p(nu_0 sqrt(D) / Nm(I)), that is
    sum over nu of log_sum - mass * log_p(alpha_0) from `divisor_sums`, with
    alpha_0 = nu_0 sqrt(D).  The log of alpha_0 is skipped when the mass
    vanishes, as it does for every nu when psi is odd."""
    logs = logs or LogCache(ctx)
    total = ctx.zero()
    for elt in enumerate_trace(n, engine.D):
        alpha0 = elt.deprived(engine.p).alpha
        mass, log_sum, _ = divisor_sums(alpha0, chi, engine, logs)
        total = total + log_sum
        if mass:
            total = total - iwasawa_log(embed_quadnum(alpha0, ctx)) * mass
    return total


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
