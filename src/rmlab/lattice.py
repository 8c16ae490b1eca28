"""Exact integer lattice reduction and p-adic algebraic-dependence
recognition.

The LLL reduction is Cohen's integral LLL (A Course in Computational
Algebraic Number Theory, Alg. 2.6.7): it keeps the Gram determinants d_i and
lambda_ij = d_{j+1} * mu_ij as exact integers and updates them in place on a
swap, with no floating-point and no `Fraction` Gram-Schmidt.  Exactness makes
runs reproducible bit-for-bit.

`algdep_padic` recognizes an integer polynomial vanishing at a given element
of Q_{p^2} to a prescribed p-adic precision budget, by reducing the lattice
of coefficient vectors (c_0, ..., c_d) joined to the two residue coordinates
of sum c_i x^i on the basis {1, w}.  Splitting into two Z_p coordinates lets
the same lattice recognize rational-coefficient polynomials even when x
generates the quadratic extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, gcd, inf, log

from .padic import PadicScalar


# --------------------------------------------------------------------------
# exact LLL
# --------------------------------------------------------------------------

def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _integral_gram_schmidt(basis):
    """Cohen's integral Gram-Schmidt (Alg. 2.6.7, step 2): returns (d, lam)
    with d[i] the Gram determinant of the first i rows (d[0] = 1) and
    lam[k][j] = d[j+1] * mu[k][j], all integers."""
    n = len(basis)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = _dot(basis[k], basis[j])
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise ValueError("basis rows are linearly dependent")
            else:
                d[k + 1] = u
    return d, lam


def _round_div(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, ties to even (b > 0), as
    round(Fraction(a, b))."""
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q % 2):
        q += 1
    return q


def _lovasz_ok(d, lam, k) -> bool:
    # B_k >= (delta - mu^2) B_{k-1} at delta = 99/100, times d_k d_{k-1} > 0
    return 100 * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) >= 99 * d[k] ** 2


def gram_det(basis) -> int:
    """Determinant of the Gram matrix (squared covolume); reduction
    invariant."""
    return _integral_gram_schmidt(basis)[0][-1]


def lll_reduce(basis):
    """LLL-reduce a list of integer rows; exact integer arithmetic
    throughout (Cohen, Alg. 2.6.7).

    Returns a new list of rows spanning the same lattice, satisfying the
    size-reduction and Lovasz conditions at parameter delta = 99/100."""
    b = [list(row) for row in basis]
    n = len(b)
    d, lam = _integral_gram_schmidt(b)

    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):      # size reduction (RED)
            if 2 * abs(lam[k][j]) > d[j + 1]:
                q = _round_div(lam[k][j], d[j + 1])
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                lam[k][j] -= q * d[j + 1]
                for i in range(j):
                    lam[k][i] -= q * lam[j][i]
        if _lovasz_ok(d, lam, k):
            k += 1
            continue
        # swap rows k-1 and k, updating d and lam in place (SWAPI)
        b[k - 1], b[k] = b[k], b[k - 1]
        lam[k - 1][:k - 1], lam[k][:k - 1] = lam[k][:k - 1], lam[k - 1][:k - 1]
        l = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + l * l) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - l * t) // d[k]
            lam[i][k - 1] = (B * t + l * lam[i][k]) // d[k + 1]
        d[k] = B
        k = max(k - 1, 1)
    return b


def is_lll_reduced(basis) -> bool:
    d, lam = _integral_gram_schmidt(basis)
    for k in range(1, len(basis)):
        if any(2 * abs(lam[k][j]) > d[j + 1] for j in range(k)):
            return False
        if not _lovasz_ok(d, lam, k):
            return False
    return True


# --------------------------------------------------------------------------
# p-adic algebraic dependence
# --------------------------------------------------------------------------

@dataclass
class AlgdepResult:
    coefficients: tuple | None   # c_0, ..., c_d (low to high), or None
    height: int | None           # max |c_i| of the accepted polynomial
    margin: float                # second-shortest / shortest row length

    @property
    def found(self) -> bool:
        return self.coefficients is not None


def _residue_pair(x: PadicScalar, budget: int):
    """(a, b) with x = a + b*w mod p^budget; requires that much certified
    precision."""
    ctx = x.ctx
    if x.is_zero:
        return 0, 0
    if x.v < 0:
        raise ValueError("element must be p-integral")
    if x.v + x.effective_prec() < budget:
        raise ValueError(
            f"precision budget {budget} exceeds certified precision "
            f"{x.v + x.effective_prec()}")
    m = ctx.p ** budget
    pv = ctx.p ** x.v
    return (x.u0 * pv) % m, (x.u1 * pv) % m


def eval_poly(coeffs, x: PadicScalar) -> PadicScalar:
    """Evaluate an integer polynomial (coefficients low to high) at x."""
    acc = x.ctx.zero()
    for c in reversed(coeffs):
        acc = acc * x + x.ctx.from_int(c)
    return acc


def primitive(coeffs) -> tuple:
    """The primitive polynomial proportional to the integer polynomial
    `coeffs` (low to high, not all zero): trailing zeros stripped, the gcd
    divided out and the leading coefficient positive."""
    coeffs = list(coeffs)
    while coeffs[-1] == 0:
        coeffs.pop()
    g = gcd(*coeffs) if coeffs[-1] > 0 else -gcd(*coeffs)
    return tuple(c // g for c in coeffs)


def algdep_padic(x: PadicScalar, degree: int, budget: int,
                 height_bound: int = 10 ** 6) -> AlgdepResult:
    """Smallest integer polynomial of degree <= `degree` vanishing at x
    modulo p^budget, found by LLL on the coefficient-congruence lattice,
    as a `primitive` polynomial: its degree may fall below `degree`.

    A failed search (no candidate below the height bound) is a legitimate
    outcome, reported with coefficients None."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    ctx = x.ctx
    m = ctx.p ** budget
    # residue coordinates of 1, x, ..., x^degree
    coords = []
    power = ctx.one()
    for i in range(degree + 1):
        coords.append(_residue_pair(power, budget))
        if i < degree:
            power = power * x
    d1 = degree + 1
    # scale the residue columns so that any vector with a nonzero residue
    # outweighs every plausible coefficient vector; the shortest reduced row
    # is then an exact congruence when one exists below the height bound
    W = m
    rows = []
    for i, (a, b) in enumerate(coords):
        row = [0] * d1 + [a * W, b * W]
        row[i] = 1
        rows.append(row)
    rows.append([0] * d1 + [m * W, 0])
    rows.append([0] * d1 + [0, m * W])

    reduced = lll_reduce(rows)
    order = sorted(reduced, key=lambda r: _dot(r, r))
    n0, n1 = _dot(order[0], order[0]), _dot(order[1], order[1])
    # n0 > 0 (full rank); log takes any integer; inf past the float range
    try:
        margin = exp((log(n1) - log(n0)) / 2)
    except OverflowError:
        margin = inf

    for row in order:
        c = row[:d1]
        if all(v == 0 for v in c):
            continue
        if sum(ci * a for ci, (a, _) in zip(c, coords)) % m:
            continue
        if sum(ci * b for ci, (_, b) in zip(c, coords)) % m:
            continue
        c = primitive(c)
        height = max(abs(v) for v in c)
        if height > height_bound:
            continue
        return AlgdepResult(c, height, margin)
    return AlgdepResult(None, None, margin)
