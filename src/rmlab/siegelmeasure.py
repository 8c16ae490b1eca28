"""The Dedekind-Rademacher homomorphism, the ball measure mu_DR, and the
multiplicative Poisson transform evaluating J_DR at an RM point.

The measure is realized through branch logarithms of c-modified Siegel units

    _cg_{a,b} = g_{a,b}^{c^2} / g_{ca,cb},
    g_{a,b} = -q^{B2(a)/2} e^{pi i b(a-1)}
              * prod_{n>=0} (1 - q^{n+a} e^{2 pi i b})
              * prod_{n>0}  (1 - q^{n-a} e^{-2 pi i b}),

whose periods under SL2(Z) are integers.  The period of each generator T^q,
S and -I on each ball is evaluated in closed form from the transformation
laws of Siegel functions (Kubert-Lang, Modular Units, Ch. 2), in integer
arithmetic, and arbitrary group elements are assembled exactly through the
cocycle law  mu(g h) = mu(h)|g^{-1} + mu(g).  No float enters the measure.

The realized measure is s(c) = (c^2 - 1)/24 times the normalized mu_DR whose
value on p Z_p x Z_p^* is phi_DR; the scale is carried on the BallMeasure and
divided out in logarithmic comparisons.  c defaults to 5, switched to 7 when
p = 5 (c must be prime to 6p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .padic import PadicContext, PadicScalar, iwasawa_log, padic_exp
from .quadfield import RMPoint, automorph, sqrtD_padic


# --------------------------------------------------------------------------
# Dedekind sums and the Rademacher function
# --------------------------------------------------------------------------

def dedekind_sum(h: int, k: int) -> Fraction:
    """Classical Dedekind sum s(h, k) for k > 0, gcd(h, k) = 1, via the
    reciprocity law."""
    if k <= 0 or gcd(h, k) != 1:
        raise ValueError("need k > 0 and gcd(h, k) = 1")
    h %= k
    s = Fraction(0)
    sign = 1
    while k > 1:
        # s(h, k) + s(k, h) = -1/4 + (h^2 + k^2 + 1)/(12 h k)
        s += sign * (Fraction(-1, 4)
                     + Fraction(h * h + k * k + 1, 12 * h * k))
        sign = -sign
        h, k = k % h, h
    return s


def rademacher_phi(gamma) -> int:
    """Rademacher's eta-period function Phi on SL2(Z):
    log Delta(gamma z) - log Delta(z) = 12 log(c z + d) + 2 pi i Phi(gamma),
    with Phi(T^b) = b, computed by the Dedekind-sum closed formula."""
    (a, b), (c, d) = gamma
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    if c == 0:
        return b // d          # d = +-1; Phi(-gamma) = Phi(gamma)
    sign = 1 if c > 0 else -1
    val = Fraction(a + d, c) - 12 * sign * dedekind_sum(d, abs(c))
    assert val.denominator == 1
    return val.numerator


def phi_DR(gamma, p: int) -> int:
    """The Dedekind-Rademacher homomorphism on Gamma_0(p): the period of
    2 E2^(p), equal to 2 (Phi(gamma_p) - Phi(gamma)) with gamma_p the
    conjugate by diag(p, 1)."""
    (a, b), (c, d) = gamma
    if c % p:
        raise ValueError("lower-left entry must be divisible by p")
    gamma_p = ((a, p * b), (c // p, d))
    return 2 * (rademacher_phi(gamma_p) - rademacher_phi(gamma))


# --------------------------------------------------------------------------
# ball space and exact generator periods
# --------------------------------------------------------------------------

def default_c(p: int) -> int:
    return 7 if p == 5 else 5


def measure_scale(c: int) -> int:
    assert (c * c - 1) % 24 == 0
    return (c * c - 1) // 24


class BallSpace:
    """Level-m balls v + p^m Z_p^2 of X_0, indexed by primitive centers."""

    def __init__(self, p: int, level: int):
        self.p, self.level, self.den = p, level, p ** level
        den = self.den
        self.a = [a for a in range(den) for b in range(den) if a % p or b % p]
        self.b = [b for a in range(den) for b in range(den) if a % p or b % p]
        self.pos = [-1] * (den * den)
        for i, (a, b) in enumerate(zip(self.a, self.b)):
            self.pos[a * den + b] = i

    @property
    def size(self) -> int:
        return len(self.a)

    def perm(self, gamma) -> list:
        """Index permutation v -> v * gamma mod p^level."""
        (g00, g01), (g10, g11) = gamma
        den, pos = self.den, self.pos
        out = [pos[(a * g00 + b * g10) % den * den + (a * g01 + b * g11) % den]
               for a, b in zip(self.a, self.b)]
        assert min(out) >= 0
        return out


@dataclass
class BallMeasure:
    """Integer-valued measure on level-m balls of X_0; values are s(c)
    times the normalized mu_DR."""

    space: BallSpace
    values: list
    scale: int

    def total(self) -> int:
        return sum(self.values)

    def mass_pZxZpx(self) -> int:
        """Mass of p Z_p x Z_p^* (centers with p | a; then p cannot
        divide b)."""
        p = self.space.p
        return sum(v for a, v in zip(self.space.a, self.values) if a % p == 0)

    def value_at(self, a: int, b: int) -> int:
        den = self.space.den
        idx = self.space.pos[(a % den) * den + (b % den)]
        if idx < 0:
            raise ValueError("center is not primitive")
        return self.values[idx]

    def acted(self, gamma) -> "BallMeasure":
        """mu|gamma: (mu|gamma)(B_v) = mu(B_{v gamma^{-1}})."""
        (a, b), (c, d) = gamma
        inv = ((d, -b), (-c, a))
        return BallMeasure(self.space,
                           [self.values[i] for i in self.space.perm(inv)],
                           self.scale)


_S = ((0, -1), (1, 0))
_NEG_I = ((-1, 0), (0, -1))


def sl2_word(gamma):
    """Factor gamma in SL2(Z) as a left-to-right product of T^q, S and -I."""
    (a, b), (c, d) = gamma
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    word = []
    while c != 0:
        q = round(Fraction(a, c))
        if q:
            word.append(("T", q))
        word.append(("S",))
        # gamma <- S^{-1} T^{-q} gamma
        a, b = a - q * c, b - q * d
        a, b, c, d = c, d, -a, -b
    if a == -1:
        word.append(("-I",))
        b = -b
    if b:
        word.append(("T", b))
    return word


def _word_matrix(factor):
    if factor[0] == "T":
        return ((1, factor[1]), (0, 1))
    if factor[0] == "S":
        return _S
    return _NEG_I


# Let l(a, b; z) be the branch log of g_{a,b} (module docstring) without its
# constant log(-1), for a in [0, 1) and b any lift:
#     l(a, b; z) = pi i B2(a) z + pi i b (a - 1) + sum of log1p(-...).
# The smoothed log at v = (a, b) is, with <x> = x - floor(x),
#     L(v; z) = c^2 l(a, b; z) - l(<ca>, cb; z) - floor(ca) pi i (1 - cb);
# its last term compensates the reduction of ca by g_{a+1,b} = -e^{-pi i b}
# g_{a,b}.  The period of a generator gamma on the ball of v is
#     mu_DR(gamma)(B_v) = (L(v; z) - L(v gamma; gamma^{-1} z)) / 2 pi i.
# Every log1p term is analytic on H, so the period does not depend on z, and
# four identities evaluate it exactly:
#   shift: l(a, b + j; z) = l(a, b; z) + j pi i (a - 1), for j in Z;
#   T^q:   l(a, b; z - q) = l(a, b - q a; z) - pi i q/6, because the log1p
#          terms agree term by term;
#   S:     l(a, b; z) - l(b, <-a>; -1/z) = 2 pi i (-1/4 - [a != 0](b - 1)/2)
#          for a, b in [0, 1) not both 0: the Siegel S-law (Kubert-Lang,
#          Modular Units, Ch. 2) with branch integer 0;
#   -I:    l(1 - a, -b; z) = l(a, b; z) + pi i b for a != 0, and
#          l(0, -b; z) = l(0, b; z) + pi i for b in (0, 1).
# Shifted to lifts in [0, 1), both sides of a period read c^2 l(v) - l(<cv>)
# at z plus rational multiples of pi i, and the l terms cancel.  For
# v = (x, y)/n with n = p^m and x, y in [0, n), what is left is the integer
# identity
#     12 n^2 mu_DR(gamma)(B_v) = K(v gamma) - K(v) + c^2 E(v) - E(<cv>),
#     K(x, y) = 6 n (floor(cy/n) ((cx mod n) - n) + floor(cx/n) (n - cy)),
# where K collects the shift and compensation terms and E the generator's law:
#   T^q: E(x, y) = n^2 q + 6 n (x - n) floor((y + q x)/n),
#   S:   E(x, y) = -3 n^2 - 6 n [x != 0] (y - n),
#   -I:  E(x, y) = -6 n [x != 0] (y - [y != 0] x).

@lru_cache(maxsize=None)
def _factor_measure(space: BallSpace, factor, c: int) -> tuple:
    """Exact period of the generator `factor` on every ball of `space`."""
    n = space.den
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
    for x, y in zip(space.a, space.b):
        num = (K((x * g00 + y * g10) % n, (x * g01 + y * g11) % n) - K(x, y)
               + c * c * E(x, y) - E(c * x % n, c * y % n))
        val, rem = divmod(num, 12 * n * n)
        assert rem == 0, "period not integral"
        out.append(val)
    return tuple(out)


@lru_cache(maxsize=None)
def ball_space(p: int, level: int) -> BallSpace:
    return BallSpace(p, level)


def mu_DR(gamma, p: int, level: int, c: int | None = None) -> BallMeasure:
    """The Dedekind-Rademacher measure of gamma in SL2(Z) on level-`level`
    balls, assembled exactly from generator periods via the cocycle law
    mu(g h) = mu(h)|g^{-1} + mu(g)."""
    c = default_c(p) if c is None else c
    if gcd(c, 6 * p) != 1:
        raise ValueError("c must be prime to 6p")
    space = ball_space(p, level)
    den = space.den
    acc = [0] * space.size
    g_acc = ((1, 0), (0, 1))
    for factor in sl2_word(gamma):
        vals = _factor_measure(space, factor, c)
        # (mu(f)|g_acc^{-1})(B_v) = mu(f)(B_{v g_acc})
        acc = [x + vals[i] for x, i in zip(acc, space.perm(g_acc))]
        f = _word_matrix(factor)
        g_acc = tuple(
            tuple((sum(g_acc[i][k] * f[k][j] for k in range(2))) % den
                  for j in range(2)) for i in range(2))
    return BallMeasure(space, acc, measure_scale(c))


# --------------------------------------------------------------------------
# multiplicative Poisson transform
# --------------------------------------------------------------------------

def poisson_JDR(tau: RMPoint, level: int, ctx: PadicContext,
                c: int | None = None) -> PadicScalar:
    """Riemann-product approximation of J_DR[tau]: the product over level-M
    balls of (x tau + y)^{mu(ball)} at integer center sample points, for
    gamma_tau the automorph of tau.  Total mass zero makes the product
    invariant under scaling of the sample points, so the integral is taken
    against coordinates of 2A tau = -B + sqrt(D), keeping samples integral.

    The raw product against the c-realized measure of the inverse automorph
    is J_DR[tau]^{(c^2-1)/12} up to p^Z and torsion; the returned value is
    the principal-unit representative of its (c^2-1)/12-th root, so that
    iwasawa_log of the output is directly comparable to 12 a_0 of the
    generating series.  Accuracy in the log grows by one p-adic digit per
    level."""
    p = ctx.p
    c = default_c(p) if c is None else c
    exponent = 2 * measure_scale(c)
    if exponent % p == 0:
        raise ValueError("(c^2 - 1)/12 must be prime to p")
    D = tau.disc
    if D % p == 0:
        raise ValueError("discriminant must be prime to p")
    A, B, _ = tau.form
    if A % p == 0:
        raise ValueError("sample normalization needs p coprime to A")
    (ga, gb), (gc, gd) = automorph(tau.form)
    mu = mu_DR(((gd, -gb), (-gc, ga)), p, level, c)
    space = mu.space
    sq = sqrtD_padic(ctx, D)
    s0 = (sq.u0 * p ** sq.v) % ctx.modulus if not sq.is_zero else 0
    s1 = (sq.u1 * p ** sq.v) % ctx.modulus if not sq.is_zero else 0
    m, r = ctx.modulus, ctx.r
    num = (1, 0)
    den_acc = (1, 0)

    def mul(x, y):
        return ((x[0] * y[0] + r * x[1] * y[1]) % m,
                (x[0] * y[1] + x[1] * y[0]) % m)

    for x, y, e in zip(space.a, space.b, mu.values):
        if e == 0:
            continue
        # x * (2A tau) + y * 2A = (2Ay - Bx) + x sqrt(D)
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
    assert J.v == 0, "Poisson product must be a p-adic unit"
    root_log = iwasawa_log(J) / ctx.from_int(exponent)
    return padic_exp(root_log)
