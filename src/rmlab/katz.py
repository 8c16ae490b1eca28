"""Katz's span of overconvergent weight-2 forms of level 1, U_p on it and
its ordinary projector, with integers mod p^K.

The series path (`gsunits.ordinary_restriction`) fits the raw coefficients of
the diagonal restriction in this span and removes their non-ordinary part.
Nothing here is built at import: `katz_span` builds one span when first
asked and keeps it for the process, and gsunits imports this module only
when it first needs a span, so that importing rmlab does not load it: the
benchmark's set-up time is mostly the compiling of rmlab's sources.
Products of series are Kronecker substitutions into one integer
multiplication, so CPython's Karatsuba does the work.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul


def _level_one_dim(k: int) -> int:
    """dim M_k(SL_2(Z)) for even k >= 0."""
    return k // 12 if k % 12 == 2 else k // 12 + 1


def _span_weight(p: int, ell: int) -> int:
    """The least k = 2 + m (p - 1) with dim M_k >= ell."""
    k = 2
    while _level_one_dim(k) < ell:
        k += p - 1
    return k


def span_dimension(p: int, prec: int) -> int:
    """The span size ell for `prec` digits at p: the least dim M_k, k = 2 +
    m (p - 1), at least (p + 1)(prec - 5) / 15 and at least 2.  The span
    gives about 10 ell / (p - 1) digits (A. Lauder, LMS J. Comput. Math.
    14, 2011: about 12 / (p - 1) per basis element), so prec - 5 at p = 5,
    a little less beyond: ell = 11, 15 and 22 at p = 5, 7 and 11 for prec
    32."""
    target = max(2, -(-(p + 1) * (prec - 5) // 15))
    return _level_one_dim(_span_weight(p, target))


def _slot(M: int, terms: int) -> int:
    """Whole bytes per slot for a sum of `terms` products of residues mod
    M, which then never carries into the next slot."""
    return (2 * M.bit_length() + terms.bit_length() + 7) // 8


def _pack(h, w: int) -> int:
    return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in h),
                          "little")


def _unpack(x: int, w: int, n: int, M: int) -> list:
    """The first n slots of x, each reduced mod M."""
    data = (x & ((1 << 8 * w * n) - 1)).to_bytes(w * n, "little")
    return [int.from_bytes(data[i:i + w], "little") % M
            for i in range(0, w * n, w)]


def _mul(f: list, g: list, M: int, length: int) -> list:
    """f g mod (M, q^length) by Kronecker substitution: each series, its
    coefficients in [0, M), is packed into one integer of whole-byte slots
    and multiplied once."""
    w = _slot(M, length)
    return _unpack(_pack(f[:length], w) * _pack(g[:length], w), w, length, M)


def _inverse(f: list, M: int, length: int) -> list:
    """1 / f mod (M, q^length) for f[0] = 1, by Newton's g <- g (2 - f g),
    which doubles the known length each step."""
    g, n = [1], 1
    while n < length:
        n = min(2 * n, length)
        h = [-c % M for c in _mul(f, g, M, n)]
        h[0] = (h[0] + 2) % M
        g = _mul(g, h, M, n)
    return g


def _power(f, e: int, times):
    """f^e for e >= 1 under the product `times`, by squaring."""
    out = f
    for bit in bin(e)[3:]:
        out = times(out, out)
        if bit == "1":
            out = times(out, f)
    return out


def _bernoulli(k: int) -> Fraction:
    """B_k, from sum_{j <= m} C(m + 1, j) B_j = 0 for m >= 1."""
    B = [Fraction(1)]
    for m in range(1, k + 1):
        B.append(-sum(comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    return B[k]


def _eisenstein(k: int, M: int, length: int) -> list:
    """E_k = 1 - (2k / B_k) sum sigma_{k-1}(n) q^n mod M, for even k >= 4
    with B_k prime to M, sigma by a divisor sieve."""
    c = -2 * k / _bernoulli(k)
    c = c.numerator * pow(c.denominator, -1, M) % M
    sigma = [0] * length
    for d in range(1, length):
        dk = pow(d, k - 1, M)
        for n in range(d, length, d):
            sigma[n] += dk
    return [1] + [c * s % M for s in sigma[1:]]


def _delta(M: int, length: int) -> list:
    """Delta = q (sum_k (-1)^k (2k + 1) q^{k(k+1)/2})^8 mod M, Jacobi's
    identity for eta^3, in three squarings."""
    theta = [0] * length
    k = 0
    while k * (k + 1) // 2 < length:
        theta[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1) % M
        k += 1
    for _ in range(3):
        theta = _mul(theta, theta, M, length)
    return [0] + theta[:length - 1]


def _matmul(X: list, Y: list, M: int) -> list:
    """X Y mod M, each row of Y packed as in `_mul`, so that a row of the
    product is one sum of integer multiples of them."""
    w = _slot(M, len(Y))
    rows = [_pack(row, w) for row in Y]
    return [_unpack(sum(map(mul, row, rows)), w, len(Y[0]), M) for row in X]


class KatzSpan:
    """The span e_0 .. e_{ell-1} of overconvergent weight-2 forms of level 1
    with integer coefficients mod p^K, U_p on it and its ordinary
    projector: basis[j][n] = e_j[n], n < length; up[i][c] = the i-th
    coordinate of U_p e_c; projector = lim A^((p-1) p^s), idempotent mod
    p^K."""

    __slots__ = ("basis", "up", "projector")

    def __init__(self, basis: tuple, up: tuple, projector: tuple):
        self.basis, self.up, self.projector = basis, up, projector


@lru_cache(maxsize=None)
def katz_span(p: int, ell: int, K: int, length: int) -> KatzSpan:
    """Katz's basis e_j = Delta^j E_4^a E_6^b / E_{p-1}^m, j < ell, of weight
    k - m (p - 1) = 2, with k = `_span_weight`, 4a + 6b = k - 12j and
    b in {0, 1}, so e_j = q^j + O(q^{j+1}) (N. Katz, LNM 350, 1973;
    A. Lauder, LMS J. Comput. Math. 14, 2011).  e_0 is built once and
    e_{j+1} = e_j (Delta / E_4^3).  Column c of U_p holds the coordinates
    of U_p e_c, read off e_c[p t], t < ell, by forward substitution, so
    `length` must exceed p (ell - 1).  The ordinary projector starts from
    P = A^((p-1) p^s), p^s >= ell, idempotent mod p, and P <- 3P^2 - 2P^3
    doubles its digits each step until P^2 = P mod p^K."""
    if length <= p * (ell - 1):
        raise ValueError(f"length {length} cannot read U_p of {ell} forms")
    M, k = p ** K, _span_weight(p, ell)

    def times(f, g):
        return _mul(f, g, M, length)

    E4 = _eisenstein(4, M, length)
    inv4 = _inverse(E4, M, length)
    # the exponents of E_4, E_6 and E_{p-1} in e_0, one entry per series
    b = k % 4 // 2
    exponents = {4: (k - 6 * b) // 4, 6: b}
    exponents[p - 1] = exponents.get(p - 1, 0) - (k - 2) // (p - 1)
    e = None
    for weight, x in exponents.items():
        if x:
            f = E4 if weight == 4 else _eisenstein(weight, M, length)
            if x < 0:
                f = inv4 if weight == 4 else _inverse(f, M, length)
            f = _power(f, abs(x), times)
            e = f if e is None else times(e, f)
    step = times(_delta(M, length), _power(inv4, 3, times))
    basis = [e]
    for _ in range(ell - 1):
        basis.append(times(basis[-1], step))
    cols = []
    for f in basis:
        x = []
        for t in range(ell):
            x.append((f[p * t] - sum(x[i] * basis[i][t] for i in range(t)))
                     % M)
        cols.append(x)
    A = [list(row) for row in zip(*cols)]
    s = 0
    while p ** s < ell:
        s += 1
    P = _power(A, (p - 1) * p ** s, lambda X, Y: _matmul(X, Y, M))
    for _ in range(K.bit_length() + 1):
        P2 = _matmul(P, P, M)
        if P2 == P:
            break
        P = [[(3 * x - 2 * y) % M for x, y in zip(r2, r3)]
             for r2, r3 in zip(P2, _matmul(P2, P, M))]
    else:       # P_0 was not idempotent mod p: a unit eigenvalue outside F_p
        raise ArithmeticError("the ordinary projector did not converge")
    return KatzSpan(tuple(map(tuple, basis)), tuple(map(tuple, A)),
                    tuple(map(tuple, P)))
