"""Classical weight-2 forms on Gamma_0(p) as truncated q-expansions.

Just enough of M_2(Gamma_0(p)) for the small prime levels that occur here:
the Eisenstein series E2^(p), the level-11 eta-product cusp form, and exact
linear fitting of a series with unknown constant term against a basis, with
overdetermined residual certification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .padic import PadicContext, PadicScalar


@dataclass(frozen=True)
class QSeries:
    """Truncated q-expansion a_0 + a_1 q + ... + a_{n_max} q^{n_max}.

    Coefficients may be ints/Fractions or PadicScalars; entries may be None
    (unknown), which fitting skips.  a_0 = None marks the unknown-constant
    case.
    """

    coeffs: tuple

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n):
        return self.coeffs[n]


def sigma_p(n: int, p: int) -> int:
    """sigma^(p)(n) = sum of divisors of n coprime to p."""
    return sum(d for d in range(1, n + 1) if n % d == 0 and d % p != 0)


def e2p_series(p: int, n_max: int) -> QSeries:
    """E2^(p) = (p-1) + 24 * sum sigma^(p)(n) q^n, integer coefficients."""
    if p < 5:
        raise ValueError("level must be a prime >= 5")
    coeffs = [p - 1] + [24 * sigma_p(n, p) for n in range(1, n_max + 1)]
    return QSeries(tuple(coeffs))


def eta_cusp_series(p: int, n_max: int) -> QSeries:
    """The unique normalized cusp form of weight 2 for the supported level:
    q * prod (1-q^n)^2 (1-q^{11n})^2 at p = 11."""
    if p != 11:
        raise ValueError("cusp forms only available at level 11")
    # expand prod (1-q^n)^2 (1-q^{11n})^2 up to q^{n_max-1}, then shift by q
    N = n_max  # series degree needed before the q-shift
    poly = [0] * N
    poly[0] = 1
    for n in range(1, N):
        for m in (n, 11 * n):
            if m >= N:
                continue
            for _ in range(2):
                for k in range(N - 1, m - 1, -1):
                    poly[k] -= poly[k - m]
    coeffs = [0] + poly[:n_max]
    return QSeries(tuple(coeffs[:n_max + 1]))


# --------------------------------------------------------------------------
# fitting
# --------------------------------------------------------------------------

@dataclass
class FitResult:
    coefficients: list          # PadicScalar per basis element
    a0: PadicScalar             # inferred constant term
    residuals: dict             # n -> residual valuation (None = exact zero)
    min_residual_valuation: int | None  # None when all residuals vanish
    certified_digits: int       # the least residual valuation, else prec
    certified: bool             # certified_digits >= prec - 5
    solve_indices: tuple = field(default=())


def _to_padic(x, ctx: PadicContext) -> PadicScalar:
    if isinstance(x, PadicScalar):
        return x
    return ctx.from_rational(x)


def fit_to_basis(s: QSeries, basis: list, ctx: PadicContext) -> FitResult:
    """Fit s (constant term unknown) to the basis q-expansions.

    One Gauss-Jordan elimination on the rows [b_1(n) ... b_k(n) | a_n] of
    the known n.  Each step pivots on the basis entry of least valuation
    among the rows not yet pivoted, ties going to the smaller n and then
    the smaller column, and clears that column from every other row
    (Caruso, arXiv:1701.06794, section 3), touching only the entries where
    the pivot row is not zero: the triangular spans of `katz` leave most of
    them zero.  The pivot rows, in pivot order, give the coefficients; each
    row left over ends as its residual a_n - sum c_j b_j(n).  The fit
    certifies the least residual valuation, or prec when every residual is
    exact: `certified_digits`, the one certificate that `certified`, the
    CLI's `verify` and `gsunits.recognition_budget` read.
    """
    k = len(basis)
    known = [n for n in range(1, s.n_max + 1) if s.coeffs[n] is not None]
    if len(known) < k + 1:
        raise ValueError("not enough known coefficients to overdetermine")
    rows = {n: [_to_padic(b.coeffs[n], ctx) for b in basis]
            + [_to_padic(s.coeffs[n], ctx)] for n in known}
    pivots = {}   # n -> pivot column; pivoted columns are zero elsewhere
    for _ in range(k):
        entries = [(row[j].v, n, j) for n, row in rows.items()
                   if n not in pivots for j in range(k)
                   if not row[j].is_zero]
        if not entries:
            raise ArithmeticError("no nonsingular subsystem found")
        _, n, j = min(entries)
        prow, inv = rows[n], rows[n][j].inverse()
        nonzero = [i for i, y in enumerate(prow) if not y.is_zero]
        for m, row in rows.items():
            if m != n and not row[j].is_zero:
                f = row[j] * inv
                for i in nonzero:
                    row[i] = row[i] - f * prow[i]
        pivots[n] = j
    pivot_row = {j: rows[n] for n, j in pivots.items()}
    coeffs = [pivot_row[j][k] / pivot_row[j][j] for j in range(k)]
    residuals = {n: row[k].v for n, row in rows.items() if n not in pivots}
    min_val = min((v for v in residuals.values() if v is not None),
                  default=None)
    a0 = sum((c * _to_padic(b.coeffs[0], ctx)
              for c, b in zip(coeffs, basis)), ctx.zero())
    digits = ctx.prec if min_val is None else min_val
    return FitResult(coeffs, a0, residuals, min_val, digits,
                     digits >= ctx.prec - 5, tuple(pivots))


def basis_for_level(p: int, n_max: int) -> list:
    """Hard-coded basis of M_2(Gamma_0(p)) for the supported levels."""
    if p in (5, 7, 13):
        return [e2p_series(p, n_max)]
    if p == 11:
        return [e2p_series(p, n_max), eta_cusp_series(p, n_max)]
    raise ValueError(f"unsupported level {p}")
