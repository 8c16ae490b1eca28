"""Real quadratic fields via binary quadratic forms.

Indefinite form reduction and cycles, the narrow class group with Dirichlet
composition in closed form and its genus characters psi(P) = (d / Nm P),
D = d * (D/d), read at rational primes (`genus_value`), exact elements
a + b*sqrt(D), prime ideals and the factorization of principal ideals into
them, totally-positive trace enumeration with the progression helpers of the
divisor-sum kernel's sieve (`eisenstein._fold`), and partial zeta values at
s = 0 (reduced-cycle formula, with a Shintani cone sum as the independent
oracle).  Matrices act on RM points through their forms (`apply_sl2`), so
the minus continued fraction and the fundamental automorph walk forms.

`factor` (trial division) serves the integers met outside that sieve:
discriminants, group orders and the norms factored into prime ideals by
`factor_alpha`.  `_primes` walks 2, 3, 5, ... over the sieve's primes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm

from .padic import (PadicContext, PadicScalar, _vp, legendre, sqrt_mod,
                    sqrt_rational)


# --------------------------------------------------------------------------
# integers, discriminants and exact field elements
# --------------------------------------------------------------------------

def factor(n: int) -> dict:
    """Prime factorization {q: e} of n >= 1, by trial division."""
    out, q = {}, 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1 if q == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_fundamental_discriminant(D: int) -> bool:
    if D <= 0 or isqrt(D) ** 2 == D:
        return False
    if D % 4 == 1:
        return all(e == 1 for e in factor(D).values())
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and all(e == 1 for e in factor(m).values())
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
        """Sign under the embedding sqrt(D) > 0, exactly: for b != 0 the
        element is irrational, so positive exactly when floor(L * self) >= 0,
        L the common denominator of a and b, where floor(B sqrt(D)) is
        isqrt(B^2 D), or minus it minus one when B < 0."""
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        L = lcm(self.a.denominator, self.b.denominator)
        A, B = int(self.a * L), int(self.b * L)
        r = isqrt(B * B * self.D)
        return 1 if A + (r if B > 0 else -r - 1) >= 0 else -1

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


def apply_sl2(f: Form, M) -> Form:
    """The form g(x, y) = f(ax + by, cx + dy) for M = [[a, b], [c, d]].
    For det M > 0 the root of g is M^-1 w = (dw - b)/(a - cw), w the root
    of f: the one way a matrix acts on an RM point."""
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
    """Dirichlet composition of primitive forms of one non-square
    discriminant D, any signs (H. Cohen, A Course in Computational Algebraic
    Number Theory, Ch. 5): with e = gcd(a1, a2, (b1 + b2)/2) = x a1 + y a2
    + z (b1 + b2)/2, the product is (a3, B, (B^2 - D)/(4 a3)) with
    a3 = a1 a2 / e^2 and B = (x a1 b2 + y a2 b1 + z (b1 b2 + D)/2) / e,
    taken mod 2|a3|."""
    D = form_disc(f1)
    assert form_disc(f2) == D
    a1, b1, _ = f1
    a2, b2, _ = f2
    g, u, v = _ext_gcd(a1, a2)
    e, w, z = _ext_gcd(g, (b1 + b2) // 2)
    a3 = a1 * a2 // (e * e)
    B = (w * (u * a1 * b2 + v * a2 * b1) + z * (b1 * b2 + D) // 2) // e \
        % (2 * abs(a3))
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
    """Least (t, u), t, u > 0, with t^2 - D u^2 = 4, read off the automorph
    [[(t - Bu)/2, -Cu], [Au, (t + Bu)/2]] of the first periodic form
    (A, B, C), A > 0, of the principal form's minus continued fraction."""
    check_fundamental(D)
    _, forms, M = minus_cf_cycle(principal_form(D))
    t = abs(M[0][0] + M[1][1])
    u = abs(M[1][0]) // forms[0][0]
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

    def negate(self) -> "RMPoint":
        return RMPoint(-self.A, self.B, -self.C)


# --------------------------------------------------------------------------
# narrow class group
# --------------------------------------------------------------------------

def genus_value(D: int, d: int, q: int) -> int:
    """The genus character of D = d * (D/d) on a prime of norm q (q split
    or ramified): the Kronecker symbol (d'/q), where d' is whichever of d
    and D/d is prime to q.  For q = 2, d' = 1 (mod 4) and (d'/2) is read
    from d' mod 8."""
    if d % q == 0:
        d = D // d
    if q == 2:
        return 1 if d % 8 == 1 else -1
    return legendre(d, q)


class NarrowClassGroup:
    """Cl+(D): cycles of reduced forms under proper equivalence, composition
    by Dirichlet composition of representatives.  Its quadratic characters
    are the genus characters: `genus` maps each to a d | D, and its value on
    a prime of norm q is `genus_value(D, d, q)`."""

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
        # sqrt(D) has negative norm, so the class of (sqrt(D)) is that of
        # the form of norm -1 (H. Cohen, GTM 138, 5.2)
        self.different_class = self.class_of_form(
            (-1, D % 2, (D - D % 2) // 4))
        self.prime_of_class = self._first_primes()
        # d runs over the products of the prime discriminants of D, the d
        # with d and D/d both discriminants; the two give one character,
        # kept under the smaller |d|
        self.genus = {tuple(genus_value(D, d, P.norm)
                            for P in self.prime_of_class): d
                      for m in range(D, 0, -1) if D % m == 0
                      for d in (m, -m) if d % 4 < 2 and D // d % 4 < 2}
        self.characters = sorted(self.genus, reverse=True)

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

    def narrow_class_of_ideal(self, I: "IdealF") -> int:
        return self.class_of_form(I.oriented_form())

    def _first_primes(self) -> list:
        """Per class, the first prime of degree one in it, by ascending
        rational prime q (and the root order of `prime_ideal` for split q)."""
        degree_one = {"inert": 0, "ramified": 1, "split": 2}  # primes over q
        found = {}
        for q in _primes():
            for which in range(degree_one[splitting_type(self.D, q)]):
                P = prime_ideal(self.D, q, which)
                found.setdefault(self.narrow_class_of_ideal(P), P)
            if len(found) == self.h:
                return [found[i] for i in range(self.h)]

    # -- characters ----------------------------------------------------------

    def odd_characters(self):
        """Quadratic characters with psi(class of (sqrt(D))) = -1."""
        return [chi for chi in self.characters
                if chi[self.different_class] == -1]


# --------------------------------------------------------------------------
# ideals
# --------------------------------------------------------------------------

class IdealF:
    """Ideal Z*a + Z*(b + c*omega) of O_F in Hermite normal form (c | a,
    c | b).  The package builds prime ideals only: a = q and c = 1 over a
    split or ramified q, a = c = q over an inert q."""

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


@lru_cache(maxsize=None)
def _split_root(D: int, q: int) -> int:
    """Root t1 of t^2 - D t + (D^2-D)/4, the minimal polynomial of omega,
    mod a split q: the prime P1 = (q, omega - t1) of `prime_ideal`."""
    c0 = (D * D - D) // 4
    if q == 2:
        return next(t for t in range(2) if (t * t - D * t + c0) % 2 == 0)
    # the discriminant of t^2 - D t + c0 is D: t = (D + sqrt(D))/2 mod q
    t = (D + sqrt_mod(D, q)) * pow(2, -1, q) % q
    assert (t * t - D * t + c0) % q == 0
    return t


@lru_cache(maxsize=None)
def splitting_type(D: int, q: int) -> str:
    if D % q == 0:
        return "ramified"
    if q == 2:
        return "split" if D % 8 == 1 else "inert"
    return "split" if legendre(D, q) == 1 else "inert"


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
    t = _split_root(D, q)
    if which:
        t = (D - t) % q
    return IdealF(D, q, (-t) % q, 1)


def _split_exponent(D: int, q: int, e: int, u: int, v: int) -> int:
    """Exponent of P1 = (q, omega - t1) in (u + v*omega) for a split q with
    q^e exactly dividing the norm, t1 = `_split_root`; the conjugate
    prime's exponent is e minus it.  Both primes take the q^k common to u
    and v; the rest of the norm, q^(e - 2k), lies in one of them, in P1
    exactly when u + v*t1 = 0 (mod q) after dividing u and v by q^k."""
    k = 0
    while u % q == 0 and v % q == 0:
        u, v, k = u // q, v // q, k + 1
    return k if (u + v * _split_root(D, q)) % q else e - k


def prime_pairs(D: int, q: int, e: int, u: int, v: int) -> list:
    """(P, e_P) for the primes P over q dividing (u + v*omega), where q^e
    exactly divides its norm: one pair for inert or ramified q, one per
    dividing conjugate for split q."""
    typ = splitting_type(D, q)
    if typ == "inert":
        assert e % 2 == 0
        return [(prime_ideal(D, q), e // 2)]
    if typ == "ramified":
        return [(prime_ideal(D, q), e)]
    v1 = _split_exponent(D, q, e, u, v)
    return [(prime_ideal(D, q, which), k)
            for which, k in enumerate((v1, e - v1)) if k]


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
    return [pair for q, e in sorted(factor(int(N)).items())
            for pair in prime_pairs(D, q, e, u, v)]


class IdealDivisorEngine:
    """Enumerates the p-coprime divisors of principal ideals with their
    norms and narrow classes, caching the narrow class of each prime P of a
    `factor_alpha` pair (P, e), keyed by P.  The enumeration serves the
    ideal-pair route in `winding` and the tests; the divisor sums of
    `eisenstein` need no class, as they evaluate psi at rational primes with
    `genus_value`."""

    def __init__(self, group: NarrowClassGroup, p: int):
        self.group = group
        self.D = group.D
        self.p = p
        self._pclass = {}

    def prime_class(self, P: IdealF) -> int:
        if P not in self._pclass:
            self._pclass[P] = self.group.narrow_class_of_ideal(P)
        return self._pclass[P]

    def divisors(self, alpha: QuadNum) -> list:
        """(norm, narrow class) of every divisor I | (alpha) with p coprime
        to I."""
        divs = [(1, self.group.identity)]
        for P, emax in factor_alpha(self.D, alpha):
            if P.a == self.p:
                continue
            cls = self.prime_class(P)
            new = []
            for nm, ci in divs:
                for _ in range(emax + 1):
                    new.append((nm, ci))
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

    def __post_init__(self):
        n, s = self.n, self.s
        if n <= 0 or s * s >= n * n * self.D or (s - n * self.D) % 2:
            raise ValueError("nu must be totally positive in the inverse "
                             "different")

    @property
    def alpha(self) -> QuadNum:
        """Generator nu*sqrt(D) of (nu)*(different), in O_F."""
        return QuadNum(self.D, Fraction(self.s, 2), Fraction(self.n, 2))

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
    start = -smax
    if (start - n * D) % 2:
        start += 1
    return range(start, smax + 1, 2)


def enumerate_trace(n: int, D: int):
    """All totally positive nu in the inverse different with Tr(nu) = n."""
    check_fundamental(D)
    return [TotallyPositiveElement(D, n, s) for s in trace_range(n, D)]


# (bound, the odd primes up to it) of the one sieve `_odd_primes_upto` cuts
_SIEVED = [2, []]


def _odd_primes_upto(m: int) -> list:
    """The odd primes up to m, ascending, cut (by bisection) from one sieve
    kept for the process; a bound beyond it re-sieves to at least twice the
    old bound, so a growing sequence of bounds costs one sieve to the last
    bound, about twice over."""
    bound, odd = _SIEVED
    if m > bound:
        bound = max(m, 2 * bound)
        top = bound + 1
        sieve = bytearray([1]) * top
        for i in range(3, isqrt(bound) + 1, 2):
            if sieve[i]:
                sieve[i * i::2 * i] = bytes(len(range(i * i, top, 2 * i)))
        odd = [q for q in range(3, top, 2) if sieve[q]]
        _SIEVED[:] = bound, odd
    return odd[:bisect_right(odd, m)]


def _primes():
    """2, 3, 5, 7, ...: the odd ones from `_odd_primes_upto`, its bound
    doubled each time they run out."""
    yield 2
    done, m = 0, 64
    while True:
        odd = _odd_primes_upto(m)
        yield from odd[done:]
        done, m = len(odd), 2 * m


def progression_start(svals: range, r: int, q: int) -> int:
    """Index in svals (a range of step 2) of the first s = r (mod q), q odd."""
    return (r - svals.start) * ((q + 1) // 2) % q


# --------------------------------------------------------------------------
# p-adic embedding of Q(sqrt(D))
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def sqrtD_padic(ctx: PadicContext, D: int) -> PadicScalar:
    """sqrt(D) in Q_{p^2}: `sqrt_rational`, once per (ctx, D)."""
    return sqrt_rational(ctx, D)


def embed_quadnum(x: QuadNum, ctx: PadicContext) -> PadicScalar:
    if x.is_zero():
        return ctx.zero()
    s = sqrtD_padic(ctx, x.D)
    return ctx.from_rational(x.a) + ctx.from_rational(x.b) * s


# --------------------------------------------------------------------------
# partial zeta values at s = 0
# --------------------------------------------------------------------------

def minus_cf_cycle(f: Form):
    """Period of the minus continued fraction of the root w of f: the
    (b_0, ..., b_{m-1}), the periodic forms and their product M of the
    [[b_i, -1], [1, 0]], the automorph of the first periodic form.

    The step w -> 1/(b - w), b the ceiling of w, is the form f(bx - y, x)
    = (f(b, 1), -2Ab - B, A).  w = (-B + sqrt(D))/(2A) is irrational, so its
    ceiling is its floor plus one, read off s = isqrt(D)."""
    s = isqrt(form_disc(f))
    seen, path = {}, []
    while f not in seen:
        seen[f] = len(path)
        A, B, _ = f
        b = ((s - B) // (2 * A) if A > 0 else (B - s - 1) // (-2 * A)) + 1
        path.append((f, b))
        f = apply_sl2(f, ((b, -1), (1, 0)))
    period = path[seen[f]:]
    M = ((1, 0), (0, 1))
    for _, b in period:
        M = ((b * M[0][0] + M[0][1], -M[0][0]),
             (b * M[1][0] + M[1][1], -M[1][0]))
    return [b for _, b in period], [g for g, _ in period], M


def partial_zeta_zero(group: NarrowClassGroup, class_idx: int) -> Fraction:
    """Zeta value at 0 of a narrow class: sum(b_i - 3)/12 over the period of
    the minus continued fraction of its representative (D. Zagier, Math.
    Ann. 213, 1975)."""
    bs, forms, _ = minus_cf_cycle(group.representative(class_idx))
    # the periodic forms are properly equivalent to the representative, so
    # the cycle is that of the requested class; guard anyway
    assert group.class_of_form(forms[0]) == class_idx
    return Fraction(sum(bs) - 3 * len(bs), 12)


def _B1(x: Fraction) -> Fraction:
    return x - Fraction(1, 2)


def _B2(x: Fraction) -> Fraction:
    return x * x - x + Fraction(1, 6)


def shintani_zeta_zero(group: NarrowClassGroup, class_idx: int) -> Fraction:
    """Independent oracle: Shintani cone decomposition with the exact
    two-dimensional cone value at s = 0 (Barnes double zeta)."""
    D = group.D
    b_ideal = group.prime_of_class[group.inverse[class_idx]]
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
