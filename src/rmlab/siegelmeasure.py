"""The Dedekind-Rademacher homomorphism, the ball measure mu_DR, and the
multiplicative Poisson transform evaluating J_DR at an RM point.

The measure is realized through branch logarithms of c-modified Siegel units

    _cg_{a,b} = g_{a,b}^{c^2} / g_{ca,cb},
    g_{a,b} = -q^{B2(a)/2} e^{pi i b(a-1)}
              * prod_{n>=0} (1 - q^{n+a} e^{2 pi i b})
              * prod_{n>0}  (1 - q^{n-a} e^{-2 pi i b}),

whose periods under SL2(Z) are integers.  The period of each generator T^q,
S and -I on each ball has a closed form from the transformation laws of
Siegel functions (Kubert-Lang, Modular Units, Ch. 2).  Summed over a word
for gamma by the cocycle law  mu(g h) = mu(h)|g^{-1} + mu(g), these closed
forms telescope into one integer identity for mu_DR(gamma) on each ball,
evaluated along the orbit of the ball's center under the word.  Every floor
in the identity is the floor of a linear form in the center, and the
measure is constant on each cell, where all these floors are fixed.  The
b where a floor changes cut each row of balls into pieces, each inside one
cell; mu_pieces evaluates the identity once per cell, at one or two points
of the first piece of it met: 498 points for the 322 cells at (12, 5) at
every level from 3 to 5 (each ball is its own piece when an entry of a
prefix of the word reaches p^level).  No float enters the measure; mu_DR
expands the pieces onto the balls.  The Poisson product samples each ball
on its line through the origin, so it factors through the
p^level + p^(level-1) points of P^1(Z/p^level) and the units mod p^level,
each raised to its mass once; the rows are summed along the lines in a
frame of residues ordered by discrete logarithm, where multiplying by a
unit is a rotation.

The realized measure is s(c) = (c^2 - 1)/24 times the normalized mu_DR whose
value on p Z_p x Z_p^* is phi_DR; the scale is carried on the BallMeasure and
divided out in logarithmic comparisons.  c defaults to 5, switched to 7 when
p = 5 (c must be prime to 6p).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice
from math import gcd
from operator import add, itemgetter

from .padic import (PadicContext, PadicScalar, _vp, is_prime, iwasawa_log,
                    padic_exp)
from .quadfield import RMPoint, automorph, check_inert, factor, sqrtD_padic


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
    conjugate by diag(p, 1).  ValueError unless p is a prime."""
    (a, b), (c, d) = gamma
    if not is_prime(p):
        raise ValueError(f"p = {p} is not a prime")
    if c % p:
        raise ValueError("lower-left entry must be divisible by p")
    gamma_p = ((a, p * b), (c // p, d))
    return 2 * (rademacher_phi(gamma_p) - rademacher_phi(gamma))


# --------------------------------------------------------------------------
# balls and exact generator periods
# --------------------------------------------------------------------------

def default_c(p: int) -> int:
    return 7 if p == 5 else 5


def measure_scale(c: int) -> int:
    assert (c * c - 1) % 24 == 0
    return (c * c - 1) // 24


@dataclass
class BallMeasure:
    """Integer-valued measure on the level-m balls v + p^m Z_p^2 of X_0,
    indexed by their primitive centers (a, b) in [0, p^m)^2 in row order:
    by a, then by b.  Values are s(c) times the normalized mu_DR."""

    p: int
    level: int
    values: list
    scale: int

    def _row(self, a: int) -> int:
        """Index of the first ball of row a: a row holds p^m balls, or
        p^m - p^(m-1) when p | a."""
        p, den = self.p, self.p ** self.level
        return a * den - (a + p - 1) // p * (den // p)

    def total(self) -> int:
        return sum(self.values)

    def mass_pZxZpx(self) -> int:
        """Mass of p Z_p x Z_p^* (the rows with p | a; then p cannot
        divide b)."""
        p = self.p
        return sum(sum(self.values[self._row(a):self._row(a + 1)])
                   for a in range(0, p ** self.level, p))

    def value_at(self, a: int, b: int) -> int:
        p, den = self.p, self.p ** self.level
        a, b = a % den, b % den
        idx = self._row(a)
        if a % p:
            idx += b
        elif b % p:
            idx += b - (b + p - 1) // p
        else:
            raise ValueError("center is not primitive")
        return self.values[idx]


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


# Let l(a, b; z) be the branch log of g_{a,b} (module docstring) without its
# constant log(-1), for a in [0, 1) and b any lift:
#     l(a, b; z) = pi i B2(a) z + pi i b (a - 1) + sum of log1p(-...).
# The smoothed log at v = (a, b) is, with <x> = x - floor(x),
#     L(v; z) = c^2 l(a, b; z) - l(<ca>, cb; z) - floor(ca) pi i (1 - cb);
# its last term compensates the reduction of ca by g_{a+1,b} = -e^{-pi i b}
# g_{a,b}.  The period of gamma on the ball of v is
#     mu_DR(gamma)(B_v) = (L(v; z) - L(v gamma; gamma^{-1} z)) / 2 pi i.
# Every log1p term is analytic on H, so the period does not depend on z, and
# four identities evaluate it exactly on the generators:
#   shift: l(a, b + j; z) = l(a, b; z) + j pi i (a - 1), for j in Z;
#   T^q:   l(a, b; z - q) = l(a, b - q a; z) - pi i q/6, because the log1p
#          terms agree term by term;
#   S:     l(a, b; z) - l(b, <-a>; -1/z) = 2 pi i (-1/4 - [a != 0](b - 1)/2)
#          for a, b in [0, 1) not both 0: the Siegel S-law (Kubert-Lang,
#          Modular Units, Ch. 2) with branch integer 0;
#   -I:    l(1 - a, -b; z) = l(a, b; z) + pi i b for a != 0, and
#          l(0, -b; z) = l(0, b; z) + pi i for b in (0, 1).
# Shifted to lifts in [0, 1), both sides of a generator's period read
# c^2 l(v) - l(<cv>) at z plus rational multiples of pi i, and the l terms
# cancel.  For v = (x, y)/n with n = p^m and x, y in [0, n), what is left is
# an integer K(v f) - K(v) + c^2 E_f(v) - E_f(<cv>), with
#     K(x, y) = 6 n (floor(cy/n) ((cx mod n) - n) + floor(cx/n) (n - cy)),
# where K collects the shift and compensation terms and E_f the generator's
# law:
#   T^q: E(x, y) = n^2 q + 6 n (x - n) floor((y + q x)/n),
#   S:   E(x, y) = -3 n^2 - 6 n [x != 0] (y - n),
#   -I:  E(x, y) = -6 n [x != 0] (y - [y != 0] x).
# For gamma = f_1 ... f_r (sl2_word), the cocycle law
# mu(g h)(B_v) = mu(h)(B_{v g}) + mu(g)(B_v) sums the generator periods along
# the orbit w_0 = v, w_k = w_{k-1} f_k mod n, and the K terms telescope:
#     12 n^2 mu_DR(gamma)(B_v) = K(v gamma) - K(v)
#         + sum_k [c^2 E_{f_k}(w_{k-1}) - E_{f_k}(<c w_{k-1}>)].
# c is a unit mod n, so x and cx (y and cy) vanish together.  The n^2 terms
# of the E's add up to (c^2 - 1) n^2 (sum of the T exponents q - 3 #S) on
# every ball; all other terms are multiples of 6 n.

def _numerators(word, n: int, c: int, a: int, bs) -> list:
    """12 n^2 mu_DR(gamma)(B_(a, b)) for b in bs, gamma the product of
    `word`, by the telescoped identity above, for any list bs of b in
    [0, n).  At (0, 0), which is no ball, it is the same arithmetic, with
    the floors and tests of the piece that (0, 0) starts."""
    c2 = c * c
    const = (c2 - 1) * n * n * sum(
        f[1] if f[0] == "T" else -3 if f[0] == "S" else 0 for f in word)
    six_n = 6 * n
    # w = (X, Y) and <c w> = (CX, CY) run through the word together;
    # acc collects the non-constant terms divided by 6 n, from -K(v) on
    qa, ca = divmod(c * a, n)
    X, Y = [a] * len(bs), bs
    CX, CY = [ca] * len(bs), [c * b % n for b in bs]
    acc = [qa * (c * b - n) - c * b // n * (ca - n) for b in bs]
    for f in word:
        if f[0] == "T":
            q = f[1]
            t = [y + q * x for x, y in zip(X, Y)]
            ct = [cy + q * cx for cx, cy in zip(CX, CY)]
            acc = [s + c2 * (x - n) * (u // n) - (cx - n) * (v // n)
                   for s, x, cx, u, v in zip(acc, X, CX, t, ct)]
            Y = [u % n for u in t]
            CY = [v % n for v in ct]
        elif f[0] == "S":
            acc = [s - c2 * (y - n) + cy - n if x else s
                   for s, x, y, cy in zip(acc, X, Y, CY)]
            X, Y = Y, [-x % n for x in X]
            CX, CY = CY, [-cx % n for cx in CX]
        else:
            acc = [s - c2 * (y - x) + cy - cx if x and y else s
                   for s, x, y, cx, cy in zip(acc, X, Y, CX, CY)]
            X, Y = [-x % n for x in X], [-y % n for y in Y]
            CX, CY = [-cx % n for cx in CX], [-cy % n for cy in CY]
    # + K(v gamma)
    return [const + six_n * (s + c * y // n * (cx - n)
                             + c * x // n * (n - c * y))
            for s, x, y, cx in zip(acc, X, Y, CX)]


# Along a row a, every floor above is floor(l/n) for a linear form l(b)
# among the coordinates of (a, b) M_k and c (a, b) M_k, M_k = f_1 ... f_k
# (k = 0 .. r).  On the reduced w_{k-1} = (x, y),
#     floor((y + q x)/n) = floor((Y + q X)/n) - floor(Y/n) - q floor(X/n)
# for the unreduced (X, Y) = (a, b) M_{k-1}, whose image under T^q is
# (X, Y + q X); floor(c y/n) and floor(c x/n) in K unfold the same way, and
# x = X - n floor(X/n).  Every test x != 0 reads X != 0 (mod n) and sits in
# an S or -I step, whose image holds the form -X, with
#     floor(-X/n) = -floor(X/n) - [X != 0 (mod n)];
# so the floors of X and -X together change on both sides of each zero of
# X.  Cut the row at each b where some form's floor changes.  Then on each
# piece every floor and every test is constant, and 12 n^2 mu is affine in
# b.  It is even constant: divided by n^2 the identity is a function of
# v = (a, b)/n alone, with the same floors at every level, and it takes
# integer values at the dense points of p-power denominator on the segment
# between the piece's ends.  The same holds on the piece's whole cell, the
# v at which every form, those with beta = 0 included, has the floors it has
# on the piece: an intersection of strips k <= l(v) < k + 1, so convex, on
# which the identity is affine in v and integral at the dense p-power
# points.  So mu is a function of the vector of floors, and each cell is
# evaluated once, at the first two points of the first piece of it met (the
# two values must agree), or at its one point.  A form of b-slope beta
# changes floor about |beta| times in [0, n); one with |beta| >= n changes
# floor at every b, which makes every b its own piece.

def _forms(word, c: int) -> list:
    """The forms (alpha / a, beta) whose floors fix the cells and, along a
    row, make the cuts, for gamma the product of `word`, sorted.  Those with
    beta = 0 are constant along a row and make no cut."""
    prefixes = [((1, 0), (0, 1))]
    for f in word:
        (m0, m1), (m2, m3) = prefixes[-1]
        if f[0] == "T":
            m0, m1, m2, m3 = m0, m1 + f[1] * m0, m2, m3 + f[1] * m2
        elif f[0] == "S":
            m0, m1, m2, m3 = m1, -m0, m3, -m2
        else:
            m0, m1, m2, m3 = -m0, -m1, -m2, -m3
        prefixes.append(((m0, m1), (m2, m3)))
    return sorted({(k * m[0][j], k * m[1][j])
                   for m in prefixes for j in (0, 1) for k in (1, c)})


def _row_cuts(forms, a: int, n: int) -> list:
    """Sorted starts of the pieces of row a: 0 and every b in (0, n) where
    some form's floor changes."""
    cuts = {0}
    for m0, beta in forms:
        alpha = a * m0
        # floor(l/n) changes where floor(l'/n) does, for l' = -l - 1
        if beta < 0:
            alpha, beta = -alpha - 1, -beta
        # the first b with alpha + beta b >= k n
        for k in range(alpha // n + 1, (alpha + beta * (n - 1)) // n + 1):
            cuts.add((k * n - alpha + beta - 1) // beta)
    return sorted(cuts)


def mu_pieces(gamma, p: int, level: int, c: int | None = None):
    """Yield (a, starts, values) for a = 0 .. p^level - 1: mu_DR(gamma)
    takes the value values[i] on the balls of primitive center (a, b) for
    b in [starts[i], starts[i + 1]), the last piece ending at p^level.
    Each piece holds at least one primitive center."""
    c = _checked_c(p, level, c)
    n = p ** level
    den = 12 * n * n
    word = sl2_word(gamma)
    forms = _forms(word, c)
    flat = [m0 for m0, beta in forms if not beta]
    sloped = [form for form in forms if form[1]]
    every_b = list(range(n)) if max(abs(f[1]) for f in sloped) >= n else None
    # the value of each cell met so far, by the floors of the flat forms,
    # then by those of the sloped forms
    cells = {}
    for a in range(n):
        prim = a % p != 0
        cuts = every_b or _row_cuts(sloped, a, n)
        ends = cuts[1:] + [n]
        lasts = [hi - 1 for hi in ends]
        firsts = []
        for m0, beta in sloped:
            alpha = a * m0
            firsts.append([(alpha + beta * b) // n for b in cuts])
            # floors are monotone along a row, so a piece whose first and
            # last points share their floors lies in one cell (a check left
            # out when every piece is one point)
            assert lasts == cuts or firsts[-1] == [
                (alpha + beta * b) // n for b in lasts], \
                "a piece crosses a cut"
        known = cells.setdefault(tuple(a * m0 // n for m0 in flat), {})
        starts, keys, new = [], [], {}
        for lo, hi, key in zip(cuts, ends, zip(*firsts)):
            # a one-point piece off the primitive centers is dropped; the
            # piece before it then runs over it, adding no primitive center
            if hi - lo == 1 and not prim and lo % p == 0:
                continue
            starts.append(lo)
            keys.append(key)
            if key not in known:
                new.setdefault(key, (lo, lo + 1) if hi - lo > 1 else (lo,))
        if new:
            nums = iter(_numerators(word, n, c, a,
                                    [b for bs in new.values() for b in bs]))
            for key, bs in new.items():
                u = next(nums)
                assert u % den == 0, "period not integral"
                assert len(bs) == 1 or next(nums) == u, \
                    "measure not constant on piece"
                known[key] = u // den
        yield a, starts, [known[key] for key in keys]


def _checked_c(p: int, level: int, c: int | None) -> int:
    """The Siegel-unit modifier c (default_c(p) if None), after checking it
    and the level."""
    if level < 1:
        raise ValueError("level must be >= 1")
    c = default_c(p) if c is None else c
    if gcd(c, 6 * p) != 1:
        raise ValueError("c must be prime to 6p")
    return c


def mu_DR(gamma, p: int, level: int, c: int | None = None) -> BallMeasure:
    """The Dedekind-Rademacher measure of gamma in SL2(Z) on level-`level`
    balls, exactly, by the telescoped period identity."""
    c = _checked_c(p, level, c)
    n = p ** level
    values = []
    for a, starts, row in mu_pieces(gamma, p, level, c):
        for lo, hi, v in zip(starts, starts[1:] + [n], row):
            # less the multiples of p in [lo, hi) when p | a
            values += [v] * (hi - lo if a % p else
                             hi - lo - (hi - 1) // p + (lo - 1) // p)
    return BallMeasure(p, level, values, measure_scale(c))


# --------------------------------------------------------------------------
# multiplicative Poisson transform
# --------------------------------------------------------------------------

def _line_frame(p: int, n: int) -> tuple:
    """(frame, blocks, dlog) for n = p^level: frame lists every residue mod
    n, block j holding p^j g^k mod n for k < phi(n / p^j), with g a
    primitive root mod n and the blocks (offset, length) by j ascending,
    then 0; dlog[g^k mod n] = k.  Multiplication by a unit g^i rotates each
    block by i, so it is a slice, not a permutation built per unit."""
    g = next(g for g in range(2, p)
             if all(pow(g, (p - 1) // q, p) != 1 for q in factor(p - 1)))
    # a primitive root mod p^2 (g, else g + p) is one mod every p^level
    if pow(g, p - 1, p * p) == 1:
        g += p
    units = list(accumulate(range(n - n // p - 1), lambda y, _: y * g % n,
                            initial=1))
    dlog = {y: k for k, y in enumerate(units)}
    frame, blocks, q = [], [], 1
    while q < n:
        size = (n - n // p) // q
        blocks.append((len(frame), size))
        frame += [q * (y % (n // q)) for y in units[:size]]
        q *= p
    return frame + [0], blocks, dlog


def poisson_JDR(tau: RMPoint, level: int, ctx: PadicContext,
                c: int | None = None) -> PadicScalar:
    """Riemann-product approximation of J_DR[tau]: the product over level-M
    balls of (x tau + y)^{mu(ball)} at one sample point per ball, for
    gamma_tau the automorph of tau.  Total mass zero makes the product
    invariant under scaling of the samples, so it is taken against
    theta = 2A tau = -B + sqrt(D), keeping samples integral; a measure of
    non-zero total mass raises ArithmeticError.

    The ball of center (x, y) is sampled at (x, x t), t = y / x mod p^M,
    when p does not divide x, and at (y u, y), u = x / y mod p^M, when p | x:
    a point of the ball on the line of (1 : t) or (u : 1) in P^1(Z/p^M).
    The integrand is homogeneous of degree one, so
        J = prod_x x^{m_x} prod_t (theta + 2At)^{nu(t)}
            * prod_y y^{m'_y} prod_u (2A + u theta)^{nu'(u)},
    with m_x the mass of row x, m'_y that of column y over the rows p | x
    and nu, nu' the measure summed along each line: p^M + p^(M-1) points
    and the units mod p^M.  Two sample points of one ball give logs of the
    integrand that differ by a multiple of p^M, so log J is congruent mod
    p^M to the product at any sample points, the centers included.  Each
    row of mu_pieces is read once through _line_frame: a row p does not
    divide adds to nu rotated by dlog x; a row x = p^j x0 adds its unit
    columns to m' and, folded mod phi(p^(M-j)), to nu' in reverse rotated
    by dlog x0.  No table of the balls is kept.  The powers go by summation
    by parts over the sorted exponents: with e_1 > e_2 > ... the distinct
    exponents, e after the last 0 and P_k the product of the bases of
    exponent at least e_k, prod_i b_i^{e_i} = prod_k P_k^{e_k - e_(k+1)},
    and one running product gives every P_k.  The same step on the pairs
    (e_k - e_(k+1), P_k) leaves one power per distinct gap.

    The raw product against the c-realized measure of the inverse automorph
    is J_DR[tau]^{(c^2-1)/12} up to p^Z and torsion; the returned value is
    the principal-unit representative of its (c^2-1)/12-th root, so that
    iwasawa_log of the output is directly comparable to 12 a_0 of the
    generating series.  Accuracy in the log grows by one p-adic digit per
    level."""
    p = ctx.p
    c = _checked_c(p, level, c)
    exponent = 2 * measure_scale(c)
    if exponent % p == 0:
        raise ValueError("(c^2 - 1)/12 must be prime to p")
    D = tau.disc
    check_inert(D, p)
    A, B, _ = tau.form
    if A % p == 0:
        raise ValueError("sample normalization needs p coprime to A")
    (ga, gb), (gc, gd) = automorph(tau.form)
    sq = sqrtD_padic(ctx, D)            # a unit, since p is inert
    m, r = ctx.modulus, ctx.r

    n = p ** level
    frame, blocks, dlog = _line_frame(p, n)
    phi = n - n // p
    gather = itemgetter(*frame)
    # nu2 is nu' at the places of frame from phi on: the u with p | u
    nu, nu2, mass = [0] * n, [0] * n, [0] * phi
    rows = mu_pieces(((gd, -gb), (-gc, ga)), p, level, c)
    # rows go in chunks, whose additions to nu are summed in one pass
    for chunk in iter(lambda: list(islice(rows, 16)), []):
        rots = [nu]
        for x, starts, values in chunk:
            row = [0] * starts[0]
            for lo, hi, e in zip(starts, starts[1:] + [n], values):
                row += [e] * (hi - lo)
            framed = gather(row)
            if x % p:
                # nu(t) takes row x at x t
                i, rot = dlog[x], []
                for off, size in blocks:
                    k = off + i % size
                    rot += framed[k:off + size] + framed[off:k]
                rots.append(rot + [framed[-1]])
                mass[i] += sum(row)
                continue
            # the balls of row x = p^j x0 are its unit columns y = g^k, on
            # the line of u = x / y = p^j g^(dlog x0 - k) mod p^M
            mass = list(map(add, mass, framed[:phi]))
            if not x:
                nu2[-1] += sum(framed[:phi])
                continue
            j = _vp(x, p)
            off, size = blocks[j]
            i = dlog[x // p ** j] % size
            fold = list(map(sum, zip(*(framed[k:k + size]
                                       for k in range(0, phi, size)))))
            nu2[off:off + size] = map(add, nu2[off:off + size],
                                      fold[i::-1] + fold[:i:-1])
        nu = list(map(sum, zip(*rots)))
    if sum(mass):
        raise ArithmeticError("the measure's total mass is not zero")
    step, th0, th1 = 2 * A, sq.u0 - B, sq.u1
    terms = chain(((e, (step * t + th0, th1)) for e, t in zip(nu, frame)),
                  ((e, (step + u * th0, u * th1))
                   for e, u in zip(nu2[phi:], frame[phi:])),
                  ((e, (y, 0)) for e, y in zip(mass, frame[:phi])))
    for _ in range(2):
        terms = sorted((term for term in terms if term[0]), key=itemgetter(0),
                       reverse=True)
        parts, a0, a1 = [], 1, 0
        for (e, (b0, b1)), (e_next, _) in zip(terms, terms[1:] + [(0, 0)]):
            a0, a1 = (a0 * b0 + r * a1 * b1) % m, (a0 * b1 + a1 * b0) % m
            if e != e_next:
                parts.append((e - e_next, (a0, a1)))
        terms = parts
    J = ctx.one()
    for e, base in terms:
        J = J * ctx.from_coords(*base) ** e
    assert J.v == 0, "Poisson product must be a p-adic unit"
    return padic_exp(iwasawa_log(J) / ctx.from_int(exponent))
