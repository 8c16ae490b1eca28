"""Fixed-precision arithmetic in Q_p and its unramified quadratic extension.

Elements are stored as p^v * (u0 + u1*w) with w^2 = r for a fixed quadratic
non-residue r mod p.  The unit part is tracked modulo p^N; division by p is a
valuation shift and loses nothing, so the only precision loss comes from
cancellation in addition (tracked per element as `slack`) and a flat charge on
each log/exp call.

It also holds the package's number-theory core: `_vp`, `legendre`, `sqrt_mod`
(Tonelli-Shanks, least root; Cohen, GTM 138, Alg. 1.5.1), `hensel_lift`
(the one Newton lift of a simple root of a monic quadratic), `is_prime`
(Miller-Rabin, bases 2..41) and `sqrt_rational`, the one root in Q_{p^2}.
`from_coords` is the one place where a unit part is normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _vp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a | p) for an odd prime p, by Euler's criterion."""
    e = pow(a, (p - 1) // 2, p)
    return -1 if e == p - 1 else e


def _odd_part(n: int) -> tuple:
    """(s, d) with n = 2^s * d and d odd, for n > 0."""
    s = (n & -n).bit_length() - 1
    return s, n >> s


def sqrt_mod(a: int, p: int) -> int:
    """The least square root of a modulo the prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0 or p == 2:
        return a
    if legendre(a, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    s, q = _odd_part(p - 1)
    t, x = pow(a, q, p), pow(a, (q + 1) // 2, p)
    if t != 1:
        c = pow(next(z for z in range(2, p) if legendre(z, p) == -1), q, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            i, t2 = i + 1, t2 * t2 % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, x = t * c % p, x * b % p
    return min(x, p - x)


def hensel_lift(b: int, c: int, x: int, q: int, k: int) -> int:
    """The root of x^2 + b x + c mod q^k lifting the root x mod q, which
    must be simple (2x + b prime to q): Newton's step with modulus
    doubling."""
    m = 1
    while m < k:
        m = min(2 * m, k)
        qm = q ** m
        x = (x - (x * x + b * x + c) * pow(2 * x + b, -1, qm)) % qm
    return x % q ** k


# Miller-Rabin with these 13 bases is exact below psi_13, the least strong
# pseudoprime to all of them (Sorenson-Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality for n < psi_13; ValueError above it."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is decided below {_MR_LIMIT} only")
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s, d = _odd_part(n - 1)
    for b in _MR_BASES:
        # b is a witness unless b^d = 1 or some b^(2^k d) = -1, k < s
        x = pow(b, d, n)
        if x != 1 and n - 1 not in (pow(x, 1 << k, n) for k in range(s)):
            return False
    return True


@dataclass(frozen=True)
class PadicContext:
    """Parameters (p, N) plus the derived non-residue r defining Q_{p^2}."""

    p: int
    prec: int

    def __post_init__(self):
        if self.p < 5 or not is_prime(self.p):
            raise ValueError(f"p must be a prime >= 5, got {self.p}")
        if self.prec < 1:
            raise ValueError("precision must be >= 1")
        # derived once: every arithmetic operation reads them
        p = self.p
        object.__setattr__(self, "_r", next(
            r for r in range(2, p) if legendre(r, p) == -1))
        object.__setattr__(self, "_modulus", p ** self.prec)

    @property
    def r(self) -> int:
        """Smallest positive quadratic non-residue mod p."""
        return self._r

    @property
    def modulus(self) -> int:
        return self._modulus

    # -- constructors -------------------------------------------------------

    def zero(self) -> "PadicScalar":
        return PadicScalar(self, None, 0, 0)

    def one(self) -> "PadicScalar":
        return self.from_int(1)

    def omega(self) -> "PadicScalar":
        return PadicScalar(self, 0, 0, 1)

    def from_int(self, n: int) -> "PadicScalar":
        return self.from_coords(n, 0)

    def from_rational(self, q) -> "PadicScalar":
        q = Fraction(q)
        if q == 0:
            return self.zero()
        return self.from_int(q.numerator) / self.from_int(q.denominator)

    def from_coords(self, a0: int, a1: int, val: int = 0) -> "PadicScalar":
        """p^val * (a0 + a1*w) with integer coordinates: the common p-power
        of the non-zero coordinates moves into the valuation."""
        if a0 == 0 and a1 == 0:
            return self.zero()
        p, M = self.p, self.modulus
        while a0 % p == 0 and a1 % p == 0:
            a0, a1, val = a0 // p, a1 // p, val + 1
        return PadicScalar(self, val, a0 % M, a1 % M)

    def sqrt_zp(self, a: int) -> int:
        """The square root of a in Z_p (unit a, (a|p) = 1) lifting the least
        root mod p, as int mod p^N."""
        if legendre(a, self.p) != 1:
            raise ValueError("not a unit square in Z_p")
        return hensel_lift(0, -a, sqrt_mod(a, self.p), self.p, self.prec)


class PadicScalar:
    """Immutable element of Q_{p^2} at fixed working precision.

    v is None exactly for the zero marker.  (u0, u1) is the unit part on the
    basis {1, w}, each held mod p^N, not both divisible by p.
    """

    __slots__ = ("ctx", "v", "u0", "u1", "slack")

    def __init__(self, ctx: PadicContext, v, u0: int, u1: int, slack: int = 0):
        self.ctx = ctx
        self.v = v
        self.u0 = u0
        self.u1 = u1
        self.slack = slack
        if v is not None and u0 % ctx.p == 0 and u1 % ctx.p == 0:
            raise AssertionError("non-normalized unit part")

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.v is None

    # -- helpers ------------------------------------------------------------

    def _with_slack(self, s: int) -> "PadicScalar":
        if self.is_zero:
            return self
        return PadicScalar(self.ctx, self.v, self.u0, self.u1,
                           max(self.slack, s))

    def _norm_unit(self) -> int:
        """Norm of the unit part to Z_p: u0^2 - r*u1^2 mod p^N."""
        M = self.ctx.modulus
        return (self.u0 * self.u0 - self.ctx.r * self.u1 * self.u1) % M

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return self.ctx.from_int(other)
        return other

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        ctx = self.ctx
        other = self._coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        v = min(self.v, other.v)
        M = ctx.modulus
        a0 = self.u0 * ctx.p ** (self.v - v) + other.u0 * ctx.p ** (other.v - v)
        a1 = self.u1 * ctx.p ** (self.v - v) + other.u1 * ctx.p ** (other.v - v)
        out = ctx.from_coords(a0 % M, a1 % M, v)
        # absolute precision: each operand is known mod p^(v + prec - slack);
        # the sum is known mod the min of those, whatever its valuation
        abs_prec = min(self.v + ctx.prec - self.slack,
                       other.v + ctx.prec - other.slack)
        if out.is_zero or out.v >= abs_prec:   # no digit of the sum is known
            return ctx.zero()
        # out is new and not yet shared, so its slack is set in place
        out.slack = max(0, out.v + ctx.prec - abs_prec)
        return out

    def __neg__(self) -> "PadicScalar":
        if self.is_zero:
            return self
        M = self.ctx.modulus
        return PadicScalar(self.ctx, self.v, (-self.u0) % M, (-self.u1) % M,
                           self.slack)

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        return self + (-other)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        ctx = self.ctx
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return ctx.zero()
        M, r = ctx.modulus, ctx.r
        c0 = (self.u0 * other.u0 + r * self.u1 * other.u1) % M
        c1 = (self.u0 * other.u1 + self.u1 * other.u0) % M
        slack = max(self.slack, other.slack)
        # unit parts are non-zero in the field F_{p^2}, and so is their product
        return PadicScalar(ctx, self.v + other.v, c0, c1, slack)

    def inverse(self) -> "PadicScalar":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        ctx = self.ctx
        M = ctx.modulus
        n = self._norm_unit()  # a unit of Z_p
        ninv = pow(n, -1, M)
        return PadicScalar(ctx, -self.v, self.u0 * ninv % M,
                           (-self.u1) * ninv % M, self.slack)

    def __truediv__(self, other: "PadicScalar") -> "PadicScalar":
        return self * other.inverse()

    def __pow__(self, e: int) -> "PadicScalar":
        if e < 0:
            return self.inverse() ** (-e)
        base, result = self, None
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return self.ctx.one() if result is None else result

    __rmul__ = __mul__

    # -- Galois -------------------------------------------------------------

    def frobenius(self) -> "PadicScalar":
        """The nontrivial automorphism of Q_{p^2}/Q_p: w -> -w."""
        if self.is_zero:
            return self
        M = self.ctx.modulus
        return PadicScalar(self.ctx, self.v, self.u0, (-self.u1) % M,
                           self.slack)

    def norm(self) -> "PadicScalar":
        return self * self.frobenius()

    # -- comparison ---------------------------------------------------------

    def effective_prec(self) -> int:
        return self.ctx.prec - self.slack

    def equals(self, other: "PadicScalar", digits: int | None = None) -> bool:
        """Agreement of v and unit digits to `digits` (default: joint
        effective precision)."""
        d = self - other
        if digits is None:
            digits = min(self.effective_prec(), other.effective_prec())
        if d.is_zero:
            return True
        base = min(x.v for x in (self, other) if not x.is_zero)
        return d.v >= base + digits

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        raise TypeError("PadicScalar equality is at-precision; not hashable")

    def __repr__(self):
        if self.is_zero:
            return f"O(p^inf; p={self.ctx.p})"
        return (f"{self.ctx.p}^{self.v}*({self.u0} + {self.u1}*w)"
                f" mod {self.ctx.p}^{self.ctx.prec}"
                + (f" [slack {self.slack}]" if self.slack else ""))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        def digits(u: int):
            out, p = [], self.ctx.p
            for _ in range(self.ctx.prec):
                out.append(u % p)
                u //= p
            return out

        return {
            "p": self.ctx.p,
            "N": self.ctx.prec,
            "v": self.v,
            "unit": None if self.is_zero else [digits(self.u0),
                                               digits(self.u1)],
            "slack": self.slack,
        }

    @staticmethod
    def from_json(obj: dict) -> "PadicScalar":
        """Inverse of to_json.  ValueError unless p, N and slack are
        integers (not booleans), slack is not negative, and v is None or an
        integer with a unit part of two lists of N base-p digits, not both
        divisible by p."""
        v, slack = obj["v"], obj.get("slack", 0)
        if not all(type(x) is int for x in (obj["p"], obj["N"], slack)) \
                or slack < 0:
            raise ValueError(f"p, N and slack must be integers, slack not "
                             f"negative: {obj!r}")
        ctx = PadicContext(obj["p"], obj["N"])
        if v is None:
            return ctx.zero()
        p, unit = ctx.p, obj["unit"]
        if type(v) is not int or len(unit) != 2 or any(
                len(ds) != ctx.prec
                or not all(isinstance(d, int) and 0 <= d < p for d in ds)
                for ds in unit):
            raise ValueError(f"not a scalar with p = {p}, N = {ctx.prec}: "
                             f"v = {v!r}, unit = {unit!r}")
        u0, u1 = (sum(d * p ** i for i, d in enumerate(ds)) for ds in unit)
        if u0 % p == 0 and u1 % p == 0:
            raise ValueError("non-normalized unit part")
        return PadicScalar(ctx, v, u0, u1, slack)


# -- transcendental maps ----------------------------------------------------

def _series_slack(ctx: PadicContext, nterms: int) -> int:
    s, k = 1, ctx.p
    while k <= nterms:
        s += 1
        k *= ctx.p
    return s


def _log_one_plus(t: PadicScalar) -> PadicScalar:
    """Log(1 + t) for v(t) >= 1, standard series, summed on integer
    coordinates: with t = p^v tau, term k is c_k tau^k p^v, where
    c_k = +-p^{(k-1)v - v_p(k)} / (k / p^{v_p(k)}), so every term after the
    first lies in p^{v+1} and the sum has valuation v and t's slack.  A t
    with no digit known (slack >= prec) gives zero."""
    ctx = t.ctx
    if t.is_zero or t.slack >= ctx.prec:
        return ctx.zero()
    assert t.v >= 1
    p, v, M, r = ctx.p, t.v, ctx.modulus, ctx.r
    # term k has valuation >= k*v(t) - log_p k; stop when beyond precision+1
    kmax = 1
    while kmax * v - _series_slack(ctx, kmax) <= ctx.prec + 1:
        kmax += 1
    t0, t1 = t.u0, t.u1
    w0, w1 = 1, 0                # tau^k
    s0 = s1 = 0
    for k in range(1, kmax + 1):
        w0, w1 = (w0 * t0 + r * w1 * t1) % M, (w0 * t1 + w1 * t0) % M
        j = _vp(k, p)
        shift = (k - 1) * v - j
        if shift >= ctx.prec:
            continue
        c = p ** shift * pow(k // p ** j, -1, M)
        if k % 2 == 0:
            c = -c
        s0 += c * w0
        s1 += c * w1
    return PadicScalar(ctx, v, s0 % M, s1 % M, t.slack)


def iwasawa_log(x: PadicScalar) -> PadicScalar:
    """p-adic log with log(p) = 0 and log(teichmuller) = 0."""
    if x.is_zero:
        raise ZeroDivisionError("log of zero")
    ctx = x.ctx
    e = ctx.p ** 2 - 1
    u = PadicScalar(ctx, 0, x.u0, x.u1, x.slack)  # drop p-power part
    t = u ** e - ctx.one()
    val = _log_one_plus(t) / ctx.from_int(e)
    return val._with_slack(x.slack + _series_slack(ctx, ctx.prec + 2))


def padic_exp(x: PadicScalar) -> PadicScalar:
    """exp on valuation >= 1 (convergent for p >= 5 in fact on v >= 1)."""
    ctx = x.ctx
    if x.is_zero:
        return ctx.one()
    if x.v < 1:
        raise ValueError("exp needs valuation >= 1")
    # v(x^k / k!) >= k - (k-1)/(p-1) grows linearly for p >= 5
    kmax = 1
    while kmax * x.v - (kmax - 1) // (ctx.p - 1) <= ctx.prec + 1:
        kmax += 1
    acc = ctx.one()
    power = ctx.one()
    fact = 1
    for k in range(1, kmax + 1):
        power = power * x
        fact *= k
        acc = acc + power / ctx.from_int(fact)
    return acc._with_slack(x.slack + _series_slack(ctx, kmax))


def teichmuller(x: PadicScalar) -> PadicScalar:
    """The (p^2-1)-st root of unity congruent to x mod p; needs v(x) = 0.
    With z = omega(x) (1 + p y) the unit part, (1 + p y)^(p^k) = 1 mod
    p^(k+1), and omega(x)^(p^k) = omega(x) for even k, as p^2 = 1 mod
    p^2 - 1: so omega(x) is z^(p^k) for the least even k >= N.  An odd k
    would give the Frobenius conjugate."""
    if x.is_zero or x.v != 0:
        raise ValueError("teichmuller needs a unit")
    ctx = x.ctx
    z = PadicScalar(ctx, 0, x.u0, x.u1, x.slack)
    return z ** ctx.p ** (ctx.prec + ctx.prec % 2)


def sqrt_rational(ctx: PadicContext, q) -> PadicScalar:
    """Square root of a rational in Q_{p^2} (valuation must be even; a
    nonresidue unit part picks up the omega direction).  The unit part is
    the lift `sqrt_zp` of the least root mod p."""
    q = Fraction(q)
    if q == 0:
        return ctx.zero()
    p = ctx.p
    vnum, vden = _vp(q.numerator, p), _vp(q.denominator, p)
    num, den = q.numerator // p ** vnum, q.denominator // p ** vden
    v = vnum - vden
    if v % 2:
        raise ValueError("odd valuation: square root leaves the field")
    unit = num * pow(den, -1, ctx.modulus) % ctx.modulus
    if legendre(unit, p) == 1:
        out = ctx.from_int(ctx.sqrt_zp(unit))
    else:
        # divide by the nonresidue r = omega^2, take sqrt, restore omega
        unit = unit * pow(ctx.r, -1, ctx.modulus) % ctx.modulus
        out = ctx.omega() * ctx.from_int(ctx.sqrt_zp(unit))
    return out * ctx.from_rational(Fraction(p) ** (v // 2))


# -- dual numbers ------------------------------------------------------------

class DualScalar:
    """a + b*eps with eps^2 = 0 over PadicScalar."""

    __slots__ = ("a", "b")

    def __init__(self, a: PadicScalar, b: PadicScalar):
        self.a = a
        self.b = b

    def __add__(self, other):
        return DualScalar(self.a + other.a, self.b + other.b)

    def __neg__(self):
        return DualScalar(-self.a, -self.b)

    def __mul__(self, other):
        return DualScalar(self.a * other.a,
                          self.a * other.b + self.b * other.a)

    def scale(self, c: PadicScalar) -> "DualScalar":
        return DualScalar(self.a * c, self.b * c)

    def __repr__(self):
        return f"({self.a!r}) + ({self.b!r})*eps"
