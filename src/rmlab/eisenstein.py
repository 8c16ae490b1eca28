"""Fourier coefficients of weight-one Eisenstein and cuspidal families over a
real quadratic field, their diagonal restrictions, and ordinary projection.

Every coefficient is a psi-weighted sum over the p-coprime ideal divisors I of
(nu)*(different), of 1 and of log Nm I.  psi is odd (an even psi is refused),
so the first, the mass, vanishes at every nu.  One kernel, `_fold`, checks it
and evaluates the second by the product formula, without listing divisors, in
one pass over a progression of alpha = nu sqrt(D): each prime power is folded
into its element's state the moment the sieve divides it out of the norm,
psi(P) and the rest of a rational prime's data are computed once per field and
genus character (`_prime_data`), and the one prime left above the sieve takes
its psi from psi((alpha)) = psi(different).  The kernel runs on one nu in
`divisor_sums`, the log sum of each family coefficient, and on a whole trace
level in `diag_coefficient`; the psi-weighted log terms are collected as an
integer exponent per rational prime, and one p-adic log is taken per
coefficient.  A level is sieved over s >= 0 only: nu and its conjugate nu' add
the same summand, as psi, a genus character, takes one value on conjugate
primes.  Because the nu of trace n p divisible by p are p times those of trace
n, every level with p | n is the level n/p plus its p-primitive nu.  The
series path (`gsunits.generating_series`) reads the raw coefficients at traces
n <= max(n_max, 3 ell / 2) and takes their ordinary part in Katz's span.  The
ordinary projection as the limit of the coefficients at indices n * p^m,
extrapolated by iterated Shanks steps (`accelerated_ordinary_projection`), and
plain stabilization at n * p^{2m} (`ordinary_projection`) are kept as the
independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .padic import (DualScalar, PadicContext, PadicScalar, _vp, iwasawa_log,
                    sqrt_mod)
from .quadfield import (IdealDivisorEngine, TotallyPositiveElement,
                        _odd_primes_upto, _split_exponent, check_inert,
                        factor, genus_value, progression_start,
                        splitting_type, trace_range)

# revision of the coefficient kernel: bumped by every change that can move a
# coefficient's digits below its certified precision or its slack, so that
# the CLI's coefficient cache, which is keyed by it, recomputes; 3 since the
# series is the ordinary part in Katz's span, not a Shanks limit
KERNEL_REVISION = 3


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


def _geometric(x: int, e: int) -> tuple:
    """(A, C) = (sum_{k <= e} x^k, sum_{k <= e} k x^k) for x = +-1."""
    if x == 1:
        return e + 1, e * (e + 1) // 2
    return (1, e // 2) if e % 2 == 0 else (0, -(e + 1) // 2)


def _local(D: int, q: int, x: int, e: int, n: int, s: int) -> tuple:
    """The local (A, C) = (sum_{k <= e} psi(P)^k, sum_{k <= e} k psi(P)^k)
    of the P^e over q dividing alpha = (s + n sqrt(D))/2, q^e, e >= 2,
    exactly dividing its norm, x = psi(P) = `genus_value`: an inert q gives
    P = (q), narrowly principal, with Nm P = q^2, so its C counts twice;
    the two primes over a split q dividing alpha fold into one factor."""
    if D % q == 0:                       # one prime P, Nm P = q
        return _geometric(x, e)
    if splitting_type(D, q) == "inert":    # P = (q), Nm P = q^2
        A, C = _geometric(1, e // 2)
        return A, 2 * C
    if n % q:                # q not dividing alpha: one of the two primes
        return _geometric(x, e)
    v1 = _split_exponent(D, q, e, (s - n * D) // 2, n)
    A1, C1 = _geometric(x, v1)
    A2, C2 = _geometric(x, e - v1)
    return A1 * A2, A2 * C1 + A1 * C2


# per (D, d), the genus character's d: q -> `_prime_data(D, d, q)`, and
# (q, e) -> the local (A, C) at e > 1 where `_local` reads neither n nor s
# (all but split q dividing n); filled as the sieve reaches q and e
_PRIMES = {}


def _prime_data(D: int, d: int, q: int) -> tuple:
    """What `_fold` needs of q for the genus character of d, none of it
    depending on the level: its splitting type; for split q, r0 = sqrt(D)
    (mod q); x = psi(P) = `genus_value`; whether an odd power of P flips
    psi (psi((q)) = 1 unless q is inert); and the local (A, C) at e = 1."""
    typ = splitting_type(D, q)
    r0 = sqrt_mod(D, q) if typ == "split" else None
    x = genus_value(D, d, q)
    return (typ, r0, x, x < 0 and typ != "inert") + _geometric(x, 1)


def _fold(n: int, svals: range, odd_primes: list, chi: tuple,
          engine: IdealDivisorEngine) -> dict:
    """The product formula on every alpha = (s + n sqrt(D))/2, s in svals
    (a range of step 2, each alpha = nu sqrt(D) with nu >> 0), each q^e
    folded into the element's state as the sieve divides it out of the
    norm (n^2 D - s^2)/4.  When p | n the s divisible by p, whose alpha
    the inert p divides, are left out: no log.

    psi = chi is read once per q, as the genus character of its d
    (`genus_value`), with the rest of q's data, from `_PRIMES`, where it is
    computed once per (D, d, q); psi_d is its value on the different.  Per
    element the state is w, the product of its non-zero local A (`_local`)
    times the C of its first vanishing A; at, the q of that A (0 until one
    vanishes, -1 once a second one does, or when the element is left
    out); and psi_d times prod psi(P)^e over the primes found so far.  2 is
    divided out of every norm, and each q of odd_primes (ascending) out of
    the s = +-n sqrt(D) (mod q), or s = 0 (mod q) when q divides nD.
    odd_primes holds every odd prime factor of the norms up to the square
    root of the largest one, so what is left above 1 is one prime P,
    e = 1, and psi(P) is the running product, because psi((alpha)) =
    psi(different); an element with nothing left must end with the
    product +1.

    Returns {q: E_q}, E_q the sum of w over the elements whose one
    vanishing A is at q, so that the elements' psi-weighted sums of
    log Nm I add up to sum_q E_q log q.  psi must be odd, psi_d = -1
    (ValueError otherwise): then every mass, the product of an element's
    A, vanishes, as I <-> (alpha)/I pairs the divisors off, and an element
    whose A all survive raises ArithmeticError."""
    D, p, group = engine.D, engine.p, engine.group
    d, psi_d = group.genus[chi], chi[group.different_class]
    if psi_d != -1:
        raise ValueError("the divisor-sum kernel needs an odd character")
    size = len(svals)
    nnD = n * n * D
    rem = [(nnD - s * s) >> 2 for s in svals]
    w, at, psi = [1] * size, [0] * size, [psi_d] * size
    if n % p == 0:           # left out: nothing to divide, psi +1
        first = progression_start(svals, 0, p)
        k = len(range(first, size, p))
        rem[first::p], psi[first::p], at[first::p] = \
            [1] * k, [1] * k, [-1] * k
    table = _PRIMES.setdefault((D, d), {})
    for q in [2] + odd_primes:
        data = table.get(q)
        if data is None:
            data = table[q] = _prime_data(D, d, q)
        typ, r0, x, flip, A1, C1 = data
        if q == 2:               # the parity of a norm has period 2 in i
            runs = [range(i, size, 2) for i in range(min(size, 2))
                    if not (nnD - svals[i] ** 2) >> 2 & 1]
        elif n * D % q == 0:
            runs = (range(progression_start(svals, 0, q), size, q),)
        elif typ == "split":
            r = n * r0 % q                                  # n sqrt(D) mod q
            runs = (range(progression_start(svals, r, q), size, q),
                    range(progression_start(svals, q - r, q), size, q))
        else:
            continue
        # the split of q^e between P and P' reads s when q divides n
        fixed = typ != "split" or n % q != 0
        for run in runs:
            for i in run:
                y = rem[i]
                if y % q:
                    continue                        # a skipped s, or q = 2
                y //= q
                e = 1
                while y % q == 0:
                    y //= q
                    e += 1
                rem[i] = y
                if e == 1:
                    A, C = A1, C1
                elif not fixed:
                    A, C = _local(D, q, x, e, n, svals[i])
                else:
                    AC = table.get((q, e))
                    if AC is None:
                        AC = table[q, e] = _local(D, q, x, e, n, 0)
                    A, C = AC
                if flip and e & 1:
                    psi[i] = -psi[i]
                if A:
                    w[i] *= A
                elif at[i]:
                    at[i] = -1
                else:
                    w[i] *= C
                    at[i] = q
    expo = {}
    for i, y in enumerate(rem):
        q = at[i]
        if y > 1:                # one prime above the sieve, e = 1
            if psi[i] == 1:      # (A, C) = (2, 1)
                w[i] *= 2
            else:                # (A, C) = (0, -1)
                q = -1 if q else y
                w[i] = -w[i]
        elif psi[i] != 1:
            raise ArithmeticError(
                f"psi((alpha)) is not psi(different) at s = {svals[i]}")
        if not q:
            raise ArithmeticError(
                f"a non-zero divisor mass at s = {svals[i]}")
        if q > 0 and w[i]:
            expo[q] = expo.get(q, 0) + w[i]
    return expo


def _fold_one(nu: TotallyPositiveElement, chi: tuple,
              engine: IdealDivisorEngine) -> dict:
    """`_fold` on nu deprived of p, from the odd primes up to the square
    root of its norm: as in a level, a prime above it is not sieved."""
    nu0 = nu.deprived(engine.p)
    n, s = nu0.n, nu0.s
    norm = (n * n * engine.D - s * s) >> 2
    odd = [q for q in factor(norm) if 2 < q and q * q <= norm]
    return _fold(n, range(s, s + 2, 2), odd, chi, engine)


def divisor_sums(nu: TotallyPositiveElement, chi: tuple,
                 engine: IdealDivisorEngine, logs: LogCache) -> PadicScalar:
    """sum psi(I) log Nm I over the p-coprime divisors I of
    (nu)*different, nu >> 0, by the product formula of `_fold_one`: no
    divisor list is built, and no log is taken when two or more local A
    vanish."""
    log_sum = logs.ctx.zero()
    for q, E in _fold_one(nu, chi, engine).items():
        log_sum = log_sum + logs.log_int(q) * E
    return log_sum


def sigma_psi(nu: TotallyPositiveElement, chi: tuple,
              engine: IdealDivisorEngine) -> int:
    """Sum of psi(I) over p-coprime divisors I of (nu) * different: 0 for
    odd psi (I <-> (alpha)/I), once the fold of nu has checked it."""
    _fold_one(nu, chi, engine)
    return 0


def eis_family_coeff(nu: TotallyPositiveElement, chi: tuple,
                     engine: IdealDivisorEngine, ctx: PadicContext,
                     logs: LogCache | None = None) -> DualScalar:
    """Coefficient of the first-order Eisenstein family E(1, psi): sum over
    p-coprime I | (nu)*different of psi(I) * (1 + eps * log Nm(I)).  E(psi, 1)
    weights I by psi(cofactor) = psi((alpha)) psi(I), and (alpha) =
    (nu)(sqrt(D)) is in the class of the different: E(psi, 1) = -E(1, psi)."""
    logs = logs or LogCache(ctx)
    return DualScalar(ctx.zero(), divisor_sums(nu, chi, engine, logs))


def antiparallel_coeff(nu: TotallyPositiveElement, chi: tuple,
                       engine: IdealDivisorEngine, ctx: PadicContext,
                       L1: PadicScalar, L2: PadicScalar,
                       logs: LogCache | None = None) -> DualScalar:
    """Coefficient of the anti-parallel cuspidal family:
    sum over I | (nu)*different of
    psi(I)(1 + eps(-log nu + (L1/L) log Nm I + (L2/L) log Nm(cofactor))),
    extended to p | nu by p-stability.  log Nm(cofactor) = log Nm(alpha_0)
    - log Nm I, and the terms in log nu and log Nm(alpha_0) carry the mass,
    which vanishes."""
    Ltot = L1 + L2
    if Ltot.is_zero:
        raise ArithmeticError("degenerate total L-invariant")
    logs = logs or LogCache(ctx)
    log_sum = divisor_sums(nu, chi, engine, logs)
    r1 = L1 * Ltot.inverse()
    r2 = L2 * Ltot.inverse()
    return DualScalar(ctx.zero(), r1 * log_sum - r2 * log_sum)


def eis_combination_coeff(nu: TotallyPositiveElement, chi: tuple,
                          engine: IdealDivisorEngine, ctx: PadicContext,
                          L1: PadicScalar, L2: PadicScalar,
                          logs: LogCache | None = None) -> DualScalar:
    """(L2/L) * (E(1,psi) - E(psi,1)) coefficient at nu."""
    Ltot = L1 + L2
    if Ltot.is_zero:
        raise ArithmeticError("degenerate total L-invariant")
    e1 = eis_family_coeff(nu, chi, engine, ctx, logs)
    # E(psi,1) = -E(1,psi), as in `eis_family_coeff`
    return (e1 + e1).scale(L2 * Ltot.inverse())


# F+, free of L-invariants, sums psi(I)(1 - eps log(nu_0 / Nm I)) over
# I | (nu_0)*different: it is E(1, psi) at odd psi, as its log nu_0 term
# carries the mass, which vanishes, and the p-coprime divisors of
# (nu)*different are those of (nu_0)*different.
dual_coeff_Fplus = eis_family_coeff


def _level_unit(n: int, chi: tuple, engine: IdealDivisorEngine,
                ctx: PadicContext) -> PadicScalar:
    """The p-adic unit whose Iwasawa log is the trace-n sum of
    `diag_coefficient` over the p-primitive alpha, those with p not dividing
    s when p | n (all of them otherwise).

    The unit is prod q^{E_q}: the divisor masses of an odd psi vanish
    (`_fold` checks it), so no alpha enters it.  The level is stable under
    nu -> nu', that is alpha_s -> alpha_{-s} = -sigma(alpha_s), which has
    the same norm, the same local (A, C) at every q and, psi being a genus
    character, the same psi: nu and nu' add the same summand.  So one
    integer pass, `_fold` over the s > 0 half, gives every E_q twice; the
    s = 0 element, present when nD is even and left out when p | n, is
    folded alone with the same primes."""
    D, M = engine.D, ctx.modulus
    svals = trace_range(n, D)
    half = range(2 - svals.start % 2, svals.stop, 2)
    # every norm is at most n^2 D / 4, the norm at s = 0
    odd = _odd_primes_upto(isqrt(n * n * D >> 2))
    expo = {q: 2 * E for q, E in _fold(n, half, odd, chi, engine).items()}
    if 0 in svals and n % engine.p:
        for q, E in _fold(n, range(0, 2, 2), odd, chi, engine).items():
            expo[q] = expo.get(q, 0) + E
    # the primes by exponent, each product raised once
    bases = {}
    for q, E in expo.items():
        if E:
            bases[E] = bases.get(E, 1) * q % M
    num = 1
    for E, b in bases.items():
        num = num * pow(b, E, M) % M
    return ctx.from_int(num)


def diag_coefficient(n: int, chi: tuple, engine: IdealDivisorEngine,
                     ctx: PadicContext,
                     logs: LogCache | None = None) -> PadicScalar:
    """n-th coefficient of the diagonal restriction derivative:
    -sum over Tr(nu)=n, p-coprime I | (nu_0)*different, of
    psi(I) log_p(nu_0 sqrt(D) / Nm(I)), that is the sum over nu of log_sum
    from `divisor_sums` (the mass, which weights log_p(nu_0 sqrt(D)),
    vanishes), taken as one log of `_level_unit`.

    The nu of trace n with p | nu are p times those of trace n/p and add the
    same, so for p | n, a_n = a_{n/p} + (the p-primitive sum): every level
    telescopes onto the one below it.  Each level's value is kept per
    (D, p, psi, n) in `logs`, or for this call only when none is given."""
    D, p = engine.D, engine.p
    check_inert(D, p)
    levels = logs.levels if logs is not None else {}
    a = None                     # a_k, k = n / p^j for j descending to 0
    for k in [n // p ** j for j in range(_vp(n, p), -1, -1)]:
        key = (D, p, chi, k)
        if key not in levels:
            primitive = iwasawa_log(_level_unit(k, chi, engine, ctx))
            levels[key] = primitive if a is None else a + primitive
        a = levels[key]
    return a


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
class ProjectionCertificate:
    depth: int                 # number of Shanks columns applied
    agreements: list           # per column, valuations of consecutive diffs
    stabilized_at: int         # agreement of the last two deepest entries


def _certificate(columns: list, ctx: PadicContext) -> ProjectionCertificate:
    """The certificate of a projection from its columns (the raw sequence,
    then each Shanks column): stabilized at the last agreement of the
    deepest column with two entries to compare (a single-entry column
    certifies nothing by itself), or at the working precision when those
    two entries are equal."""
    agreements = [_agreement_profile(col) for col in columns]
    last = next((prof[-1] for prof in reversed(agreements) if prof), None)
    return ProjectionCertificate(len(columns) - 1, agreements,
                                 ctx.prec if last is None else last)


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
    columns = [[producer(n * p ** m) for m in range(m_max + 1)]]
    while len(columns[-1]) >= 3:
        columns.append(shanks_step(columns[-1]))
    return columns[-1][-1], _certificate(columns, ctx)


def ordinary_projection(producer, n: int, p: int, m_max: int,
                        ctx: PadicContext,
                        threshold: int | None = None):
    """Stabilized limit of producer(n * p^{2m}) for m = 0..m_max.

    Returns (value, certificate of depth 0); raises if the last two terms
    do not agree to the threshold (default: half the working precision)."""
    if gcd(n, p) != 1:
        raise ValueError("n must be coprime to p")
    if threshold is None:
        threshold = ctx.prec // 2
    values = [producer(n * p ** (2 * m)) for m in range(m_max + 1)]
    cert = _certificate([values], ctx)
    if cert.stabilized_at < threshold:
        raise ArithmeticError(
            f"no stabilization: last agreement at valuation "
            f"{cert.stabilized_at}, needed {threshold}; profile "
            f"{cert.agreements[0]}")
    return values[-1], cert
