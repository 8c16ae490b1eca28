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
    certified: bool             # every residual valuation >= prec - 5
    solve_indices: tuple = field(default=())


def _to_padic(x, ctx: PadicContext) -> PadicScalar:
    if isinstance(x, PadicScalar):
        return x
    return ctx.from_rational(x)


def fit_to_basis(s: QSeries, basis: list, ctx: PadicContext) -> FitResult:
    """Fit s (constant term unknown) to the basis q-expansions.

    Solves an exact square subsystem on the first len(basis) usable indices,
    then reports every remaining known coefficient's residual valuation.
    """
    k = len(basis)
    known = [n for n in range(1, s.n_max + 1) if s.coeffs[n] is not None]
    if len(known) < k + 1:
        raise ValueError("not enough known coefficients to overdetermine")
    bmat = {n: [_to_padic(b.coeffs[n], ctx) for b in basis] for n in known}
    # square subsystem: greedily accept rows that extend the exact rank,
    # each reduced with its right-hand side
    solve_idx = []
    reduced = []  # rows [basis values | a_n] in echelon form, with pivots
    for n in known:
        row = bmat[n] + [_to_padic(s.coeffs[n], ctx)]
        for prow, pcol in reduced:
            if not row[pcol].is_zero:
                f = row[pcol] * prow[pcol].inverse()
                row = [x - f * y for x, y in zip(row, prow)]
        pivots = [j for j, x in enumerate(row[:k]) if not x.is_zero]
        if not pivots:
            continue
        pcol = min(pivots, key=lambda j: row[j].v)
        reduced.append((row, pcol))
        solve_idx.append(n)
        if len(solve_idx) == k:
            break
    if len(solve_idx) < k:
        raise ArithmeticError("no nonsingular subsystem found")
    # back-substitution, last pivot first: each row vanishes at the pivots
    # of the rows before it
    coeffs = [None] * k
    for row, pcol in reversed(reduced):
        rhs = row[k]
        for j, c in enumerate(coeffs):
            if c is not None:
                rhs = rhs - row[j] * c
        coeffs[pcol] = rhs * row[pcol].inverse()
    residuals = {}
    min_val = None
    for n in known:
        if n in solve_idx:
            continue
        pred = ctx.zero()
        for c, bn in zip(coeffs, bmat[n]):
            pred = pred + c * bn
        r = _to_padic(s.coeffs[n], ctx) - pred
        if r.is_zero:
            residuals[n] = None
        else:
            residuals[n] = r.v
            min_val = r.v if min_val is None else min(min_val, r.v)
    a0 = ctx.zero()
    for c, b in zip(coeffs, basis):
        a0 = a0 + c * _to_padic(b.coeffs[0], ctx)
    certified = min_val is None or min_val >= ctx.prec - 5
    return FitResult(coeffs, a0, residuals, min_val, certified,
                     tuple(solve_idx))


def basis_for_level(p: int, n_max: int) -> list:
    """Hard-coded basis of M_2(Gamma_0(p)) for the supported levels."""
    if p in (5, 7, 13):
        return [e2p_series(p, n_max)]
    if p == 11:
        return [e2p_series(p, n_max), eta_cusp_series(p, n_max)]
    raise ValueError(f"unsupported level {p}")
