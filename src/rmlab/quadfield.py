"""Real quadratic fields via binary quadratic forms.

Indefinite form reduction and cycles, narrow class group with Dirichlet
composition, Pell/automorph machinery, exact elements a + b*sqrt(D), ideal
arithmetic in Hermite normal form, totally-positive trace enumeration with a
sieve that factors the norms of a whole trace level, and partial zeta values
at s = 0 (reduced-cycle formula, with a Shintani cone sum as the independent
oracle).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from sympy import factorint
from sympy.ntheory.residue_ntheory import sqrt_mod

from .padic import PadicContext, PadicScalar, _vp


# --------------------------------------------------------------------------
# discriminants and exact field elements
# --------------------------------------------------------------------------

def is_fundamental_discriminant(D: int) -> bool:
    if D <= 0 or isqrt(D) ** 2 == D:
        return False
    if D % 4 == 1:
        return all(e == 1 for e in factorint(D).values())
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and all(e == 1 for e in factorint(m).values())
    return False


def check_fundamental(D: int):
    if not is_fundamental_discriminant(D):
        raise ValueError(f"D = {D} is not a fundamental discriminant > 0")


class QuadNum:
    """Exact element a + b*sqrt(D) of Q(sqrt(D)), a and b rational."""

    __slots__ = ("D", "a", "b")

    def __init__(self, D: int, a, b):
        self.D = D
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def omega(D: int) -> "QuadNum":
        return QuadNum(D, Fraction(D, 2), Fraction(1, 2))

    @staticmethod
    def sqrtD(D: int) -> "QuadNum":
        return QuadNum(D, 0, 1)

    def __add__(self, o):
        return QuadNum(self.D, self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return QuadNum(self.D, self.a - o.a, self.b - o.b)

    def __neg__(self):
        return QuadNum(self.D, -self.a, -self.b)

    def __mul__(self, o):
        if isinstance(o, QuadNum):
            return QuadNum(self.D, self.a * o.a + self.D * self.b * o.b,
                           self.a * o.b + self.b * o.a)
        return QuadNum(self.D, self.a * o, self.b * o)

    def conj(self) -> "QuadNum":
        return QuadNum(self.D, self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.D * self.b * self.b

    def trace(self) -> Fraction:
        return 2 * self.a

    def inverse(self) -> "QuadNum":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError
        return QuadNum(self.D, self.a / n, -self.b / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def __eq__(self, o):
        return (isinstance(o, QuadNum) and self.D == o.D
                and self.a == o.a and self.b == o.b)

    def __hash__(self):
        return hash((self.D, self.a, self.b))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Sign under the embedding sqrt(D) > 0, exactly."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        # compare a with -b*sqrt(D)
        lhs, rhs = self.a * self.a, self.D * self.b * self.b
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        big = 1 if lhs > rhs else -1  # which of |a|, |b|sqrt(D) wins
        return big * ((self.a > 0) - (self.a < 0)) if lhs != rhs \
            else 0  # impossible for nonsquare D unless zero

    def is_totally_positive(self) -> bool:
        return self.sign() > 0 and self.conj().sign() > 0

    def floor(self) -> int:
        """Exact floor under sqrt(D) > 0."""
        lo, hi = -1, 1
        while (self - QuadNum(self.D, lo, 0)).sign() < 0:
            lo *= 2
        while (self - QuadNum(self.D, hi, 0)).sign() >= 0:
            hi *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if (self - QuadNum(self.D, mid, 0)).sign() >= 0:
                lo = mid
            else:
                hi = mid
        return lo

    def coords_in_order(self):
        """Coordinates (u, v) with self = u + v*omega, or None if not in O_F."""
        v = 2 * self.b
        u = self.a - self.b * self.D
        if v.denominator != 1 or u.denominator != 1:
            return None
        return int(u), int(v)

    def __float__(self):
        return float(self.a) + float(self.b) * self.D ** 0.5

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.D}))"


# --------------------------------------------------------------------------
# forms: reduction, cycles, composition
# --------------------------------------------------------------------------

Form = tuple  # (A, B, C) with B^2 - 4AC = D


def form_disc(f: Form) -> int:
    A, B, C = f
    return B * B - 4 * A * C


def is_primitive(f: Form) -> bool:
    return gcd(gcd(f[0], f[1]), f[2]) == 1


def _check_form(f: Form):
    A, B, C = f
    D = form_disc(f)
    if D <= 0 or isqrt(D) ** 2 == D:
        raise ValueError("form must have positive non-square discriminant")
    if not is_primitive(f):
        raise ValueError("form must be primitive")
    if A == 0 or C == 0:
        raise ValueError("degenerate form")


def is_reduced(f: Form) -> bool:
    """0 < B < sqrt(D) and sqrt(D) - B < 2|A| < sqrt(D) + B, exactly."""
    A, B, C = f
    D = form_disc(f)
    if B <= 0 or B * B >= D:
        return False
    t = 2 * abs(A)
    if (t + B) ** 2 <= D:       # need sqrt(D) < 2|A| + B
        return False
    if t > B and (t - B) ** 2 >= D:  # need 2|A| - B < sqrt(D)
        return False
    return True


def rho_step(f: Form):
    """One reduction step; returns (new form, CF partial quotient m) where
    the substitution matrix is [[0, -1], [1, m]]."""
    A, B, C = f
    D = form_disc(f)
    s = isqrt(D)
    two_c = 2 * abs(C)
    if abs(C) > s:
        # bring B' into (-|C|, |C|]
        Bp = (-B) % two_c
        if Bp > abs(C):
            Bp -= two_c
    else:
        # largest B' <= s congruent to -B mod 2|C|
        Bp = s - ((s + B) % two_c)
    m = (B + Bp) // (2 * C)
    Cp = (Bp * Bp - D) // (4 * C)
    return (C, Bp, Cp), m


def reduce_form(f: Form) -> Form:
    _check_form(f)
    while not is_reduced(f):
        f, _ = rho_step(f)
    return f


def reduce_cycle(f: Form) -> list:
    """The full cycle of reduced forms equivalent to f."""
    g = reduce_form(f)
    cyc = [g]
    h, _ = rho_step(g)
    while h != g:
        cyc.append(h)
        h, _ = rho_step(h)
    return cyc


def cycle_matrix(f: Form):
    """Matrix of one trip around the reduced cycle of f (an automorph of the
    reduced starting form)."""
    g = reduce_form(f)
    M = ((1, 0), (0, 1))
    h = g
    while True:
        h, m = rho_step(h)
        M = ((M[0][1], -M[0][0] + m * M[0][1]),
             (M[1][1], -M[1][0] + m * M[1][1]))
        if h == g:
            return M


def apply_sl2(f: Form, M) -> Form:
    """f composed with M: g(x, y) = f((x, y) * M^T)... g = f o M."""
    A, B, C = f
    (a, b), (c, d) = M
    A2 = A * a * a + B * a * c + C * c * c
    B2 = 2 * A * a * b + B * (a * d + b * c) + 2 * C * c * d
    C2 = A * b * b + B * b * d + C * d * d
    return (A2, B2, C2)


def principal_form(D: int) -> Form:
    b = D % 2
    return (1, b, (b * b - D) // 4)


def _ext_gcd(a: int, b: int):
    if b == 0:
        return abs(a), (1 if a >= 0 else -1), 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def compose_forms(f1: Form, f2: Form) -> Form:
    """Dirichlet composition after uniting; valid for any sign pattern of
    primitive forms of equal non-square discriminant."""
    D = form_disc(f1)
    assert form_disc(f2) == D
    a1, b1, _ = f1
    # find a primitive representation of f2 coprime to a1
    A2, B2, C2 = f2
    for bound in range(1, 40):
        found = None
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                if gcd(x, y) != 1:
                    continue
                val = A2 * x * x + B2 * x * y + C2 * y * y
                if val != 0 and gcd(a1, val) == 1:
                    found = (x, y, val)
                    break
            if found:
                break
        if found:
            break
    else:
        raise ArithmeticError("no coprime representation found")
    x, y, a2 = found
    g, v, u = _ext_gcd(x, y)   # x*v + y*u = 1... fix signs below
    assert g == 1
    # complete (x, y) to an SL2 matrix [[x, -u], [y, v]] with x*v + u*y = 1
    M = ((x, -u), (y, v))
    assert x * v - y * (-u) == 1
    g2 = apply_sl2(f2, M)
    assert g2[0] == a2
    b2 = g2[1]
    # CRT: B = b1 mod 2a1, B = b2 mod 2a2  (b1, b2 both = D mod 2)
    k = ((b2 - b1) // 2 * pow(a1, -1, abs(a2))) % abs(a2)
    B = b1 + 2 * a1 * k
    a3 = a1 * a2
    assert (B * B - D) % (4 * a3) == 0
    return (a3, B, (B * B - D) // (4 * a3))


def all_reduced_forms(D: int) -> list:
    out = []
    s = isqrt(D)
    for B in range(1, s + 1):
        if (B - D) % 2:
            continue
        AC = (B * B - D) // 4  # negative
        for A in range(1, s + B):
            if AC % A:
                continue
            for Asigned in (A, -A):
                f = (Asigned, B, AC // Asigned)
                if is_primitive(f) and is_reduced(f):
                    out.append(f)
    return out


# --------------------------------------------------------------------------
# Pell and automorphs
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def pell_fundamental(D: int):
    """Least (t, u), t, u > 0, with t^2 - D u^2 = 4, via the principal cycle."""
    check_fundamental(D)
    f = reduce_form(principal_form(D))
    M = cycle_matrix(f)
    t = abs(M[0][0] + M[1][1])
    u = abs(M[1][0]) // abs(f[0]) if f[0] != 0 else 0
    # M[1][0] = A*u for the automorph of f
    assert t * t - D * u * u == 4 and u > 0
    return t, u


def automorph(f: Form):
    """Normalized generator [[ (t-Bu)/2, -Cu ], [ Au, (t+Bu)/2 ]] of the
    proper stabilizer of the root of f."""
    _check_form(f)
    A, B, C = f
    D = form_disc(f)
    t, u = pell_fundamental(D)
    g = ((t - B * u) // 2, -C * u), (A * u, (t + B * u) // 2)
    assert g[0][0] * g[1][1] - g[0][1] * g[1][0] == 1
    return g


def has_norm_minus_one(D: int) -> bool:
    """True iff x^2 - D y^2 = -4 is solvable (fundamental unit of norm -1).

    With (t, u) the least solution of t^2 - D u^2 = 4, a norm -1 unit exists
    iff t - 2 and (t + 2)/D are perfect squares (then eps_- = sqrt(eps_+)).
    """
    check_fundamental(D)
    t, _ = pell_fundamental(D)
    x2 = t - 2
    if isqrt(x2) ** 2 != x2:
        return False
    if (t + 2) % D:
        return False
    y2 = (t + 2) // D
    return isqrt(y2) ** 2 == y2


# --------------------------------------------------------------------------
# RM points
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RMPoint:
    """Root (−B + sqrt(D))/(2A) of a primitive indefinite form; the sign of A
    selects which of the two points of the form we mean."""

    A: int
    B: int
    C: int

    def __post_init__(self):
        _check_form((self.A, self.B, self.C))

    @property
    def form(self) -> Form:
        return (self.A, self.B, self.C)

    @property
    def disc(self) -> int:
        return form_disc(self.form)

    def value(self) -> QuadNum:
        return QuadNum(self.disc, Fraction(-self.B, 2 * self.A),
                       Fraction(1, 2 * self.A))

    def negate(self) -> "RMPoint":
        return RMPoint(-self.A, self.B, -self.C)

    def apply(self, M) -> "RMPoint":
        """Moebius image M(tau) as an RM point (forms transform by M^{-1})."""
        (a, b), (c, d) = M
        Minv = ((d, -b), (-c, a))
        A2, B2, C2 = apply_sl2(self.form, Minv)
        return RMPoint(A2, B2, C2)

    def padic(self, ctx: PadicContext) -> PadicScalar:
        return embed_quadnum(self.value(), ctx)

    @staticmethod
    def from_value(w: QuadNum) -> "RMPoint":
        """The unique primitive form with w = (−B + sqrt(D))/(2A)."""
        from math import lcm
        assert w.b != 0
        D = w.D
        # A = 1/(2b), B = -a/b, C = -(A w^2 + B w); clear by a positive
        # rational to a primitive integral triple (positivity keeps the root)
        A = Fraction(1, 2) / w.b
        B = -w.a / w.b
        Cq = -(w * w * A + w * B)
        assert Cq.b == 0
        C = Cq.a
        L = lcm(A.denominator, B.denominator, C.denominator)
        Ai, Bi, Ci = int(A * L), int(B * L), int(C * L)
        g = gcd(gcd(Ai, Bi), Ci)
        pt = RMPoint(Ai // g, Bi // g, Ci // g)
        # disc(pt) = k^2 * D with k >= 1; w is the +sqrt root exactly when
        # its sqrt(D)-coordinate and the leading coefficient share a sign
        assert pt.disc % D == 0
        k2 = pt.disc // D
        assert isqrt(k2) ** 2 == k2
        assert (w * w * pt.A + w * pt.B + QuadNum(D, pt.C, 0)).is_zero()
        assert (w.b > 0) == (pt.A > 0)
        return pt


# --------------------------------------------------------------------------
# narrow class group
# --------------------------------------------------------------------------

class NarrowClassGroup:
    """Cl+(D): cycles of reduced forms under proper equivalence, composition
    by Dirichlet composition of representatives."""

    def __init__(self, D: int):
        check_fundamental(D)
        self.D = D
        forms = all_reduced_forms(D)
        seen = set()
        self.cycles = []
        for f in forms:
            if f in seen:
                continue
            cyc = reduce_cycle(f)
            seen.update(cyc)
            self.cycles.append(cyc)
        self._index = {f: i for i, cyc in enumerate(self.cycles) for f in cyc}
        self.h = len(self.cycles)
        self.identity = self.class_of_form(principal_form(D))
        self.table = [[self.class_of_form(
            compose_forms(cyc1[0], cyc2[0]))
            for cyc2 in self.cycles] for cyc1 in self.cycles]
        self.inverse = [next(j for j in range(self.h)
                             if self.table[i][j] == self.identity)
                        for i in range(self.h)]
        self.different_class = self._class_of_different()
        self.characters = self._quadratic_characters()

    # -- lookups ------------------------------------------------------------

    def class_of_form(self, f: Form) -> int:
        return self._index[reduce_form(f)]

    def class_of_rm_point(self, tau: RMPoint) -> int:
        if tau.disc != self.D:
            raise ValueError("discriminant mismatch")
        return self.class_of_form(tau.form)

    def compose(self, i: int, j: int) -> int:
        return self.table[i][j]

    def representative(self, i: int) -> Form:
        return self.cycles[i][0]

    def rm_representative(self, i: int) -> RMPoint:
        return RMPoint(*self.representative(i))

    def _class_of_different(self) -> int:
        sq = QuadNum.sqrtD(self.D)
        I = ideal_from_generators(self.D, [sq, sq * QuadNum.omega(self.D)])
        return self.narrow_class_of_ideal(I)

    def narrow_class_of_ideal(self, I: "IdealF") -> int:
        return self.class_of_form(I.oriented_form())

    # -- characters ----------------------------------------------------------

    def _quadratic_characters(self):
        """All homomorphisms Cl+(D) -> {±1}, brute force (h is desk-scale)."""
        from itertools import product
        chars = []
        for signs in product((1, -1), repeat=self.h):
            if signs[self.identity] != 1:
                continue
            if all(signs[self.table[i][j]] == signs[i] * signs[j]
                   for i in range(self.h) for j in range(self.h)):
                chars.append(tuple(signs))
        return chars

    def odd_characters(self):
        """Quadratic characters with psi(class of (sqrt(D))) = -1."""
        return [chi for chi in self.characters
                if chi[self.different_class] == -1]


# --------------------------------------------------------------------------
# ideals
# --------------------------------------------------------------------------

class IdealF:
    """Integral O_F-ideal Z*a + Z*(b + c*omega) in HNF (c | a, c | b)."""

    __slots__ = ("D", "a", "b", "c")

    def __init__(self, D: int, a: int, b: int, c: int):
        assert a > 0 and c > 0 and a % c == 0 and b % c == 0
        self.D = D
        self.a = a
        self.b = b % a
        self.c = c

    @property
    def norm(self) -> int:
        return self.a * self.c

    def __repr__(self):
        return f"Ideal({self.a}, {self.b}+{self.c}w; D={self.D})"

    def __eq__(self, o):
        return (self.D, self.a, self.b, self.c) == (o.D, o.a, o.b, o.c)

    def __hash__(self):
        return hash((self.D, self.a, self.b, self.c))

    def basis(self):
        w = QuadNum.omega(self.D)
        return (QuadNum(self.D, self.a, 0),
                QuadNum(self.D, self.b, 0) + w * self.c)

    def contains(self, x: QuadNum) -> bool:
        co = x.coords_in_order()
        if co is None:
            return False
        u, v = co
        if v % self.c:
            return False
        return (u - (v // self.c) * self.b) % self.a == 0

    def mult(self, other: "IdealF") -> "IdealF":
        b1, b2 = self.basis()
        c1, c2 = other.basis()
        return ideal_from_generators(
            self.D, [b1 * c1, b1 * c2, b2 * c1, b2 * c2])

    def oriented_form(self) -> Form:
        """Primitive form Nm(x beta1 + y beta2) / Nm(I) of the oriented
        Z-basis (beta1, beta2) = (b + c*omega, a); its class is the narrow
        class of the ideal.  With Nm(b + c*omega) = b^2 + bcD + c^2(D^2-D)/4
        the form is (Nm(b + c*omega)/(ac), (2b + cD)/c, a/c), in integers."""
        # the basis is ordered so that (beta1*beta2' - beta1'*beta2)/sqrt(D)
        # = ac > 0
        D, a, b, c = self.D, self.a, self.b, self.c
        nm = b * b + b * c * D + c * c * (D * D - D) // 4
        assert nm % (a * c) == 0
        return (nm // (a * c), (2 * b + c * D) // c, a // c)


def ideal_from_generators(D: int, gens) -> IdealF:
    """HNF of the Z-module generated by {g, g*omega : g in gens}."""
    w = QuadNum.omega(D)
    rows = []
    for g in gens:
        for x in (g, g * w):
            co = x.coords_in_order()
            assert co is not None, "generator not integral"
            rows.append(co)
    rows = [r for r in rows if r != (0, 0)]
    # triangularize [[a, 0], [b, c]] with column 2 = omega coordinate
    c = 0
    carrier = (0, 0)
    for (u, v) in rows:
        if v == 0:
            continue
        if c == 0:
            c, carrier = abs(v), ((u, v) if v > 0 else (-u, -v))
        else:
            g, x, y = _ext_gcd(c, v)
            carrier = (x * carrier[0] + y * u, g)
            c = g
    assert c != 0, "rank-deficient generator set"
    b, _ = carrier
    a = 0
    for (u, v) in rows:
        k = v // c
        a = gcd(a, u - k * b)
    assert a != 0
    a = abs(a)
    return IdealF(D, a, b % a, c)


def principal_ideal(D: int, x: QuadNum) -> IdealF:
    return ideal_from_generators(D, [x])


@lru_cache(maxsize=None)
def _hensel_root(D: int, q: int, k: int) -> int:
    """Root t of t^2 - D t + (D^2-D)/4 mod q^k (q split), Hensel-lifted."""
    c0 = (D * D - D) // 4
    if q == 2:
        t = next(t for t in range(2) if (t * t - D * t + c0) % 2 == 0)
    else:
        # the discriminant of t^2 - D t + c0 is D: t = (D + sqrt(D))/2 mod q
        t = (D + sqrt_mod(D, q)) * pow(2, -1, q) % q
        assert (t * t - D * t + c0) % q == 0
    m, qm = 1, q
    while m < k:
        m = min(2 * m, k)
        qm = q ** m
        d = (2 * t - D) % qm
        t = (t - (t * t - D * t + c0) * pow(d, -1, qm)) % qm
    return t % q ** k


@lru_cache(maxsize=None)
def splitting_type(D: int, q: int) -> str:
    if D % q == 0:
        return "ramified"
    if q == 2:
        return "split" if D % 8 == 1 else "inert"
    return "split" if pow(D % q, (q - 1) // 2, q) == 1 else "inert"


def check_inert(D: int, p: int):
    if splitting_type(D, p) != "inert":
        raise ValueError(f"p = {p} is not inert in Q(sqrt({D}))")


def prime_ideal(D: int, q: int, which: int = 0) -> IdealF:
    """A prime above q; `which` in {0, 1} picks the root for split q."""
    typ = splitting_type(D, q)
    if typ == "inert":
        return IdealF(D, q, 0, q)
    if typ == "ramified":
        if q == 2:
            t = (D // 4) % 2
        else:
            t = (D * pow(2, -1, q)) % q
        return IdealF(D, q, (-t) % q, 1)
    t = _hensel_root(D, q, 1)
    if which:
        t = (D - t) % q
    return IdealF(D, q, (-t) % q, 1)


def _split_exponent(D: int, q: int, e: int, u: int, v: int) -> int:
    """Exponent of P1 = (q, omega - t1) in (u + v*omega) for a split q with
    q^e exactly dividing the norm, t1 the Hensel root mod q; the conjugate
    prime's exponent is e minus it."""
    T = _hensel_root(D, q, e + 1)
    x = (u + v * T) % q ** (e + 1)
    v1 = 0
    while v1 < e and x % q == 0:
        v1 += 1
        x //= q
    return v1


def prime_pairs(D: int, q: int, e: int, u: int, v: int) -> list:
    """(P, e_P) for the primes P over q dividing (u + v*omega), where q^e
    exactly divides its norm: one pair for inert or ramified q, one per
    dividing conjugate for split q."""
    typ = splitting_type(D, q)
    if typ == "inert":
        assert e % 2 == 0
        return [(IdealF(D, q, 0, q), e // 2)]
    if typ == "ramified":
        return [(prime_ideal(D, q), e)]
    v1 = _split_exponent(D, q, e, u, v)
    t1 = _hensel_root(D, q, 1)
    out = []
    if v1:
        out.append((IdealF(D, q, -t1, 1), v1))
    if e - v1:
        out.append((IdealF(D, q, t1 - D, 1), e - v1))
    return out


def factor_alpha(D: int, alpha: QuadNum):
    """Factor the principal ideal (alpha) into primes.

    Returns a list of (P, e) with P^e exactly dividing (alpha), P the prime
    `IdealF` over q (so P.a = q and P.norm = Nm P), ordered by q; a split q
    gives one pair per conjugate prime that divides.
    """
    co = alpha.coords_in_order()
    assert co is not None and not alpha.is_zero()
    u, v = co
    N = abs(alpha.norm())
    assert N.denominator == 1
    return [pair for q, e in sorted(factorint(int(N)).items())
            for pair in prime_pairs(D, q, e, u, v)]


@dataclass
class DivisorIdeal:
    """Divisor of a principal ideal, carried multiplicatively."""

    D: int
    norm: int
    class_idx: int
    exponents: tuple  # ((prime IdealF, e), ...)

    def hnf(self) -> IdealF:
        I = IdealF(self.D, 1, 0, 1)
        for P, e in self.exponents:
            for _ in range(e):
                I = I.mult(P)
        return I


class IdealDivisorEngine:
    """Enumerates p-coprime divisors of principal ideals with norms, narrow
    classes and character data; caches the narrow class of each prime P of
    a `factor_alpha` pair (P, e), keyed by P.  The explicit enumeration
    serves the ideal-pair route in `winding` and the tests;
    `eisenstein.divisor_sums` needs only the per-prime classes."""

    def __init__(self, group: NarrowClassGroup, p: int):
        self.group = group
        self.D = group.D
        self.p = p
        self._pclass = {}
        self._qclass = {}

    def prime_class(self, P: IdealF) -> int:
        if P not in self._pclass:
            self._pclass[P] = self.group.narrow_class_of_ideal(P)
        return self._pclass[P]

    def class_over(self, q: int, u: int, v: int) -> int:
        """Narrow class of a prime over the rational prime q, where q divides
        Nm(u + v*omega); cached by q.  The two primes over a split q have
        inverse classes (their product (q) is narrowly principal), so a
        quadratic character takes one value on both."""
        if q not in self._qclass:
            if self.D % q == 0 or v % q == 0:
                P = prime_ideal(self.D, q)
            else:
                # omega = -u/v mod a prime over q that divides u + v*omega
                P = IdealF(self.D, q, u * pow(v, -1, q) % q, 1)
            self._qclass[q] = self.group.narrow_class_of_ideal(P)
        return self._qclass[q]

    def divisors(self, alpha: QuadNum):
        """All divisors I | (alpha) with p coprime to I."""
        divs = [DivisorIdeal(self.D, 1, self.group.identity, ())]
        for P, emax in factor_alpha(self.D, alpha):
            if P.a == self.p:
                continue
            cls = self.prime_class(P)
            new = []
            for d in divs:
                ci, nm = d.class_idx, d.norm
                for e in range(emax + 1):
                    new.append(DivisorIdeal(
                        self.D, nm, ci,
                        d.exponents + (((P, e),) if e else ())))
                    nm *= P.norm
                    ci = self.group.compose(ci, cls)
            divs = new
        return divs


# --------------------------------------------------------------------------
# trace enumeration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TotallyPositiveElement:
    """nu = (s + n*sqrt(D)) / (2*sqrt(D)) in the inverse different, totally
    positive with trace n."""

    D: int
    n: int
    s: int

    @property
    def nu(self) -> QuadNum:
        return QuadNum(self.D, Fraction(self.n, 2), Fraction(self.s, 2 * self.D))

    @property
    def alpha(self) -> QuadNum:
        """Generator nu*sqrt(D) of (nu)*(different), in O_F."""
        return QuadNum(self.D, Fraction(self.s, 2), Fraction(self.n, 2))

    @property
    def ideal_norm(self) -> int:
        return (self.n * self.n * self.D - self.s * self.s) // 4

    def vp(self, p: int) -> int:
        """p-valuation of nu, p inert (equals that of alpha)."""
        return _vp(gcd((self.s - self.n * self.D) // 2, self.n), p)

    def deprived(self, p: int) -> "TotallyPositiveElement":
        k = self.vp(p)
        return TotallyPositiveElement(self.D, self.n // p ** k,
                                      self.s // p ** k)


def trace_range(n: int, D: int) -> range:
    """The s of the totally positive nu = (s + n sqrt(D)) / (2 sqrt(D)) of
    trace n: s = nD (mod 2) and s^2 < n^2 D (never equal, D not a square)."""
    if n <= 0:
        return range(0)
    smax = isqrt(n * n * D)
    if smax * smax == n * n * D:
        smax -= 1
    start = -smax
    if (start - n * D) % 2:
        start += 1
    return range(start, smax + 1, 2)


def enumerate_trace(n: int, D: int):
    """All totally positive nu in the inverse different with Tr(nu) = n."""
    check_fundamental(D)
    return [TotallyPositiveElement(D, n, s) for s in trace_range(n, D)]


def _odd_primes_upto(m: int) -> list:
    if m < 3:
        return []
    sieve = bytearray([1]) * (m + 1)
    for i in range(3, isqrt(m) + 1, 2):
        if sieve[i]:
            sieve[i * i::2 * i] = bytes(len(range(i * i, m + 1, 2 * i)))
    return [q for q in range(3, m + 1, 2) if sieve[q]]


def progression_start(svals: range, r: int, q: int) -> int:
    """Index in svals (a range of step 2) of the first s = r (mod q), q odd."""
    return (r - svals.start) * ((q + 1) // 2) % q


def sieve_trace(n: int, D: int, skip: int = 0) -> tuple:
    """Factor the norms (n^2 D - s^2)/4 of all alpha = (s + n sqrt(D))/2,
    s in `trace_range(n, D)`, at once.

    Returns (svals, owner, primes, exps), the last three parallel flat
    sequences of records: primes[k]^exps[k] exactly divides the norm of the
    element s = svals[owner[k]].  Each element's records ascend in q.  2 is
    stripped by trailing zeros; an odd q up to the square root of the
    largest norm divides exactly the s = +-n sqrt(D) (mod q), or s = 0
    (mod q) when q divides nD; what is left above 1 is one prime.  Elements
    whose s is divisible by `skip` (if given) are left without records."""
    svals = trace_range(n, D)
    size = len(svals)
    nnD = n * n * D
    rem = [(nnD - s * s) >> 2 for s in svals]
    if skip:
        first = progression_start(svals, 0, skip)
        rem[first::skip] = [1] * len(range(first, size, skip))
    owner, primes, exps = array("q"), [], array("q")
    for i, x in enumerate(rem):
        if not x & 1:
            e = (x & -x).bit_length() - 1
            rem[i] = x >> e
            owner.append(i)
            primes.append(2)
            exps.append(e)
    for q in _odd_primes_upto(isqrt(max(rem, default=0))):
        if n * D % q == 0:
            roots = (0,)
        elif splitting_type(D, q) == "split":
            r = n * (2 * _hensel_root(D, q, 1) - D) % q     # n sqrt(D) mod q
            roots = (r, q - r)
        else:
            continue
        for r in roots:
            for i in range(progression_start(svals, r, q), size, q):
                x = rem[i]
                if x % q:
                    continue                                # a skipped s
                e = 0
                while x % q == 0:
                    x //= q
                    e += 1
                rem[i] = x
                owner.append(i)
                primes.append(q)
                exps.append(e)
    for i, x in enumerate(rem):
        if x > 1:
            owner.append(i)
            primes.append(x)
            exps.append(1)
    return svals, owner, primes, exps


# --------------------------------------------------------------------------
# p-adic embedding of Q(sqrt(D))
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sqrtD_coords(p: int, N: int, D: int):
    ctx = PadicContext(p, N)
    if D % p == 0:
        raise ValueError("p ramified in Q(sqrt(D)): unsupported embedding")
    M = ctx.modulus
    if pow(D % p, (p - 1) // 2, p) == 1:
        s = ctx.sqrt_zp(D % M)
        if s % p > p // 2:
            s = (-s) % M
        return (s, 0)
    b = ctx.sqrt_zp(D * pow(ctx.r, -1, M) % M)
    if b % p > p // 2:
        b = (-b) % M
    return (0, b)


def sqrtD_padic(ctx: PadicContext, D: int) -> PadicScalar:
    a0, a1 = _sqrtD_coords(ctx.p, ctx.prec, D)
    return ctx.from_coords(a0, a1)


def embed_quadnum(x: QuadNum, ctx: PadicContext) -> PadicScalar:
    if x.is_zero():
        return ctx.zero()
    s = sqrtD_padic(ctx, x.D)
    return ctx.from_rational(x.a) + ctx.from_rational(x.b) * s


# --------------------------------------------------------------------------
# partial zeta values at s = 0
# --------------------------------------------------------------------------

def minus_cf_cycle(w: QuadNum):
    """Period ((b_0, ..., b_{m-1})) of the minus continued fraction of w."""
    seen = {}
    path = []
    while w not in seen:
        seen[w] = len(path)
        b = w.floor() + 1  # ceiling of an irrational
        path.append((w, b))
        w = (QuadNum(w.D, b, 0) - w).inverse()
    start = seen[w]
    return [b for (_, b) in path[start:]], [x for (x, _) in path[start:]]


def partial_zeta_zero(group: NarrowClassGroup, class_idx: int) -> Fraction:
    """Zeta value at 0 of a narrow class, by the reduced-cycle formula."""
    tau = group.rm_representative(class_idx).value()
    bs, ws = minus_cf_cycle(tau)
    # the periodic w's are SL2(Z)-equivalent to tau, so the cycle is that of
    # the requested class; guard anyway
    chk = group.class_of_rm_point(RMPoint.from_value(ws[0]))
    assert chk == class_idx
    return Fraction(sum(bs) - 3 * len(bs), 12)


def _B1(x: Fraction) -> Fraction:
    return x - Fraction(1, 2)


def _B2(x: Fraction) -> Fraction:
    return x * x - x + Fraction(1, 6)


def shintani_zeta_zero(group: NarrowClassGroup, class_idx: int) -> Fraction:
    """Independent oracle: Shintani cone decomposition with the exact
    two-dimensional cone value at s = 0 (Barnes double zeta)."""
    D = group.D
    # integral ideal b in the inverse class
    target = group.inverse[class_idx]
    b_ideal = None
    if target == group.identity:
        b_ideal = IdealF(D, 1, 0, 1)
    else:
        q = 2
        while b_ideal is None:
            if splitting_type(D, q) != "inert":
                for which in (0, 1):
                    P = prime_ideal(D, q, which)
                    if group.narrow_class_of_ideal(P) == target:
                        b_ideal = P
                        break
            q = next_prime(q)
    t, u = pell_fundamental(D)
    eps = QuadNum(D, Fraction(t, 2), Fraction(u, 2))  # totally positive
    beta1, beta2 = b_ideal.basis()
    # cone generators must lie in the ideal so that cell translates stay in it
    a0 = b_ideal.a
    v1 = QuadNum(D, a0, 0)
    v2 = eps * a0
    corners = [QuadNum(D, 0, 0), v1, v2, v1 + v2]
    mn_bounds = []
    det = beta1 * beta2.conj() - beta1.conj() * beta2
    for xi in corners:
        m = (xi * beta2.conj() - xi.conj() * beta2) / det
        nn = (beta1 * xi.conj() - beta1.conj() * xi) / det
        assert m.b == 0 and nn.b == 0
        mn_bounds.append((m.a, nn.a))
    nlo = min(y for _, y in mn_bounds)
    nhi = max(y for _, y in mn_bounds)

    # cell coordinates are linear in (m, n): x_i = p_i*m + q_i*n
    def _cell_coords(xi):
        v2_c = v2.conj()
        x2 = (xi - xi.conj()) * (v2 - v2_c).inverse()
        assert x2.b == 0
        x1 = (xi - v2 * x2.a) * v1.inverse()
        assert x1.b == 0
        return x1.a, x2.a

    p1, p2 = _cell_coords(beta1)
    q1, q2 = _cell_coords(beta2)

    total = Fraction(0)
    for n in range(int(nlo) - 1, int(nhi) + 2):
        # intersect the m-intervals given by 0 < p_i*m + q_i*n <= 1
        mlo2, mhi2 = None, None
        empty = False
        for p, q in ((p1, q1), (p2, q2)):
            c = q * n
            if p == 0:
                if not (0 < c <= 1):
                    empty = True
                    break
                continue
            lo, hi = (-c) / p, (1 - c) / p  # exclusive lo, inclusive hi (p>0)
            if p < 0:
                lo, hi = (1 - c) / p, (-c) / p  # inclusive lo, exclusive hi
                a = lo.__ceil__()
                b = hi.__ceil__() - 1
            else:
                a = lo.__floor__() + 1
                b = hi.__floor__()
            mlo2 = a if mlo2 is None else max(mlo2, a)
            mhi2 = b if mhi2 is None else min(mhi2, b)
        if empty or mlo2 is None:
            continue
        for m in range(mlo2, mhi2 + 1):
            x1 = p1 * m + q1 * n
            x2 = p2 * m + q2 * n
            assert 0 < x1 <= 1 and 0 < x2 <= 1
            # Tr(v1/v2) = Tr(v2/v1) = Tr(eps) = t
            total += (_B1(x1) * _B1(x2)
                      + Fraction(t, 4) * (_B2(x1) + _B2(x2)))
    return total - Fraction(1, 2)


def next_prime(q: int) -> int:
    from sympy import nextprime
    return nextprime(q)
