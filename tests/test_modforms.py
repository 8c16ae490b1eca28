import pytest

from rmlab import gsunits
from rmlab.gsunits import generating_series
from rmlab.katz import _delta, _mul, katz_span, span_dimension
from rmlab.modforms import (QSeries, _to_padic, basis_for_level, e2p_series,
                            eta_cusp_series, fit_to_basis, sigma_p)
from rmlab.padic import PadicContext, iwasawa_log
from rmlab.quadfield import NarrowClassGroup

CTX = PadicContext(5, 20)


def _padic_series(ctx, *terms):
    """The p-adic series sum c * s over (c, s) in terms, with a_0 unknown."""
    n_max = min(s.n_max for _, s in terms)
    return QSeries((None,) + tuple(
        ctx.from_int(sum(c * s[n] for c, s in terms))
        for n in range(1, n_max + 1)))


def _perturbed(n, delta):
    """E2^(5) with delta added to its a_n."""
    coeffs = list(_padic_series(CTX, (1, e2p_series(5, 20))).coeffs)
    coeffs[n] = coeffs[n] + CTX.from_int(delta)
    return QSeries(tuple(coeffs))


# name -> (series, basis) of the planted systems fitted in CTX below
PLANTED = {
    "eisenstein": (_padic_series(CTX, (3, e2p_series(5, 20))),
                   [e2p_series(5, 20)]),
    "eisenstein_2": (_padic_series(CTX, (2, e2p_series(5, 20))),
                     [e2p_series(5, 20)]),
    "eisenstein_-3": (_padic_series(CTX, (-3, e2p_series(5, 20))),
                      [e2p_series(5, 20)]),
    "two_dimensional": (_padic_series(CTX, (1, e2p_series(11, 25)),
                                      (7, eta_cusp_series(11, 25))),
                        basis_for_level(11, 25)),
    "unknown_coefficients": (
        QSeries(tuple(None if n % 5 == 0 else 24 * sigma_p(n, 5) * 2
                      for n in range(21))),
        [e2p_series(5, 20)]),
    "perturbed": (_perturbed(13, 5 ** 3), [e2p_series(5, 20)]),
    "underdetermined": (_padic_series(CTX, (1, e2p_series(11, 25)),
                                      (3, eta_cusp_series(11, 25))),
                        [e2p_series(11, 25)]),
}


def _row_order_fit(s, basis, ctx):
    """The row-order solver that `fit_to_basis` replaced, the oracle on
    well-conditioned systems: keep each known row, in index order, that
    raises the rank, pivoting within that row only; back-substitute; then
    predict every other row for its residual.  Returns (coefficients, a_0,
    residual valuations, solve indices)."""
    k = len(basis)
    known = [n for n in range(1, s.n_max + 1) if s[n] is not None]
    bmat = {n: [_to_padic(b[n], ctx) for b in basis] for n in known}
    reduced = []   # (row, pivot column, n), in echelon form
    for n in known:
        row = bmat[n] + [_to_padic(s[n], ctx)]
        for prow, pcol, _ in reduced:
            if not row[pcol].is_zero:
                f = row[pcol] * prow[pcol].inverse()
                row = [x - f * y for x, y in zip(row, prow)]
        cols = [j for j in range(k) if not row[j].is_zero]
        if cols:
            reduced.append((row, min(cols, key=lambda j: row[j].v), n))
            if len(reduced) == k:
                break
    coeffs = [None] * k
    for row, pcol, _ in reversed(reduced):
        rhs = row[k]
        for j, c in enumerate(coeffs):
            if c is not None:
                rhs = rhs - row[j] * c
        coeffs[pcol] = rhs * row[pcol].inverse()
    solve = tuple(n for _, _, n in reduced)
    residuals = {}
    for n in known:
        if n not in solve:
            pred = ctx.zero()
            for c, bn in zip(coeffs, bmat[n]):
                pred = pred + c * bn
            residuals[n] = (_to_padic(s[n], ctx) - pred).v
    a0 = ctx.zero()
    for c, b in zip(coeffs, basis):
        a0 = a0 + c * _to_padic(b[0], ctx)
    return coeffs, a0, residuals, solve


def test_e2p_pinned_values():
    s = e2p_series(5, 10)
    assert s[0] == 4 and s[1] == 24 and s[5] == 24
    assert s[2] == 24 * 3 and s[3] == 24 * 4 and s[10] == 24 * (1 + 2)
    t = e2p_series(7, 7)
    assert t[0] == 6 and t[7] == 24


def test_e2p_sigma_for_coprime_n():
    for p in (5, 7):
        s = e2p_series(p, 30)
        for n in range(1, 31):
            if n % p:
                sigma1 = sum(d for d in range(1, n + 1) if n % d == 0)
                assert s[n] == 24 * sigma1


def test_e2p_up_invariance():
    for p in (5, 7):
        for n in range(1, 20):
            assert sigma_p(n * p, p) == sigma_p(n, p)


def test_e2p_rejects_small_level():
    with pytest.raises(ValueError):
        e2p_series(3, 5)


def test_eta_cusp_pinned_coefficients():
    s = eta_cusp_series(11, 13)
    assert s[0] == 0 and s[1] == 1
    assert s[2] == -2 and s[3] == -1 and s[4] == 2 and s[5] == 1
    assert s[6] == 2 and s[7] == -2 and s[9] == -2 and s[11] == 1
    assert s[13] == 4
    # Hecke multiplicativity of the eigenform coefficients
    assert s[6] == s[2] * s[3]
    assert s[10] == s[2] * s[5]
    assert s[4] == s[2] ** 2 - 2  # a_{l^2} = a_l^2 - l^{k-1}


def test_eta_cusp_unsupported_level():
    with pytest.raises(ValueError):
        eta_cusp_series(7, 5)


def test_hecke_eisenstein_eigenvalues():
    # E2^(p) on coefficients: T_l a_n = a_{nl} + l a_{n/l} = (1 + l) a_n for
    # l = 2, 3, and U_p a_n = a_{np} = a_n
    for p in (5, 7):
        s = e2p_series(p, 60)
        for ell in (2, 3):
            for n in range(60 // ell + 1):
                lo = ell * s[n // ell] if n % ell == 0 else 0
                assert s[n * ell] + lo == (1 + ell) * s[n], (p, ell, n)
        assert all(s[n * p] == s[n] for n in range(60 // p + 1))


def test_hecke_eta_eigenvalue():
    # the level-11 eta form is a T_2 eigenform of eigenvalue a_2 = -2:
    # a_{2n} + 2 a_{n/2} = -2 a_n
    s = eta_cusp_series(11, 40)
    for n in range(21):
        lo = 2 * s[n // 2] if n % 2 == 0 else 0
        assert s[2 * n] + lo == -2 * s[n], n


# --- fitting -----------------------------------------------------------------

def test_fit_planted_eisenstein():
    fit = fit_to_basis(*PLANTED["eisenstein"], CTX)
    assert fit.coefficients[0].equals(CTX.from_int(3))
    assert fit.a0.equals(CTX.from_int(12))
    assert fit.certified
    assert all(v is None for v in fit.residuals.values())


def test_extract_logJDR():
    # log J_DR is read off a fit as 12 a_0, and a_0 is (p - 1) times the
    # E2 coefficient
    for c in (2, -3):
        fit = fit_to_basis(*PLANTED[f"eisenstein_{c}"], CTX)
        assert fit.a0.equals(fit.coefficients[0] * 4)
        assert (fit.a0 * 12).equals(CTX.from_int(12 * 4 * c))


def test_fit_planted_two_dimensional():
    fit = fit_to_basis(*PLANTED["two_dimensional"], CTX)
    assert fit.coefficients[0].equals(CTX.one())
    assert fit.coefficients[1].equals(CTX.from_int(7))
    assert fit.a0.equals(CTX.from_int(10))
    assert fit.certified


def test_fit_skips_unknown_coefficients():
    fit = fit_to_basis(*PLANTED["unknown_coefficients"], CTX)
    assert fit.coefficients[0].equals(CTX.from_int(2))
    assert fit.certified


def test_fit_negative_control_flags_perturbation():
    fit = fit_to_basis(*PLANTED["perturbed"], CTX)
    assert not fit.certified
    bad = [n for n, v in fit.residuals.items() if v is not None]
    assert bad == [13]
    assert fit.residuals[13] == 3
    assert fit.certified_digits == 3


def test_fit_underdetermined_basis_fails_certification():
    # a cusp component at level 11 cannot be absorbed by E2 alone
    fit = fit_to_basis(*PLANTED["underdetermined"], CTX)
    assert not fit.certified


def test_fit_requires_overdetermination():
    s = QSeries((None, CTX.from_int(24)))
    with pytest.raises(ValueError):
        fit_to_basis(s, [e2p_series(5, 1)], CTX)


def test_fit_pivots_on_least_valuation():
    # b = (1, 5^6, 2, 3, ..., 12) and a_n = 3 b(n) + 5^12 t_n with units
    # t_n: pivoting on b(1) = 5^6 would leave c good to 6 digits only
    b = QSeries((1, 5 ** 6) + tuple(range(2, 13)))
    s = QSeries((None,) + tuple(CTX.from_int(3 * b[n] + 5 ** 12 * (1 + n % 4))
                                for n in range(1, 13)))
    fit = fit_to_basis(s, [b], CTX)
    assert fit.solve_indices == (2,)
    assert fit.min_residual_valuation == fit.certified_digits == 12
    assert (fit.coefficients[0] - CTX.from_int(3)).v == 12


def _real_series(D, p):
    ctx = PadicContext(p, 12)
    group = NarrowClassGroup(D)
    res = generating_series(group.rm_representative(group.identity), p, 8,
                            ctx, m_max=2, group=group)
    return res.series, basis_for_level(p, 8), ctx


@pytest.mark.parametrize("system", sorted(PLANTED) + ["real_12_5",
                                                      "real_21_11"])
def test_fit_matches_row_order_oracle(system):
    # on well-conditioned systems, least-valuation pivoting solves on the
    # rows that row order keeps and gives the same digits
    if system.startswith("real"):
        s, basis, ctx = _real_series(*map(int, system.split("_")[1:]))
    else:
        (s, basis), ctx = PLANTED[system], CTX
    fit = fit_to_basis(s, basis, ctx)
    coeffs, a0, residuals, solve = _row_order_fit(s, basis, ctx)
    assert [c.to_json() for c in fit.coefficients] == \
        [c.to_json() for c in coeffs]
    assert fit.a0.to_json() == a0.to_json()
    assert fit.residuals == residuals
    assert fit.solve_indices == solve


# --------------------------------------------------------------------------
# Katz's span
# --------------------------------------------------------------------------

# -2k / B_k for the Eisenstein series that the spans at p = 5, 7, 11 read
EISENSTEIN_FACTOR = {4: 240, 6: -504, 10: -264}


def _schoolbook(f, g, M, length):
    out = [0] * length
    for i, a in enumerate(f[:length]):
        for j, b in enumerate(g[:length - i]):
            out[i + j] += a * b
    return [c % M for c in out]


def _schoolbook_power(f, e, M, length):
    out = [1] + [0] * (length - 1)
    for _ in range(e):
        out = _schoolbook(out, f, M, length)
    return out


def _schoolbook_inverse(f, M, length):
    g = [1]
    for n in range(1, length):
        g.append(-sum(f[i] * g[n - i] for i in range(1, n + 1)) % M)
    return g


def _eisenstein_by_divisors(k, M, length):
    return [1] + [EISENSTEIN_FACTOR[k] * sum(d ** (k - 1)
                                             for d in range(1, n + 1)
                                             if n % d == 0) % M
                  for n in range(1, length)]


def _delta_by_product(M, length):
    """q prod (1 - q^n)^24 mod M."""
    poly = [1] + [0] * (length - 2)
    for n in range(1, length - 1):
        for _ in range(24):
            for k in range(length - 2, n - 1, -1):
                poly[k] -= poly[k - n]
    return [0] + [c % M for c in poly]


def _fresh_span(p, ell, M, length):
    """e_j = Delta^j E_4^a E_6^b / E_{p-1}^m from fresh powers for each j,
    with schoolbook products and the weight read off dim M_k >= ell."""
    k = 2
    while (k // 12 if k % 12 == 2 else k // 12 + 1) < ell:
        k += p - 1
    b = 1 if k % 4 else 0
    delta = _delta_by_product(M, length)
    E4, E6, Ep = (_eisenstein_by_divisors(w, M, length) for w in (4, 6, p - 1))
    quotient = _schoolbook_power(_schoolbook_inverse(Ep, M, length),
                                 (k - 2) // (p - 1), M, length)
    basis = []
    for j in range(ell):
        a = (k - 12 * j - 6 * b) // 4
        e = _schoolbook(_schoolbook_power(delta, j, M, length),
                        _schoolbook_power(E4, a, M, length), M, length)
        e = _schoolbook(e, _schoolbook_power(E6, b, M, length), M, length)
        basis.append(tuple(_schoolbook(e, quotient, M, length)))
    return tuple(basis)


def _matrix_product(X, Y, M):
    return [[sum(X[i][t] * Y[t][j] for t in range(len(Y))) % M
             for j in range(len(Y[0]))] for i in range(len(X))]


def _rank_mod(P, p):
    rows, rank = [[x % p for x in row] for row in P], 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i],
                                                           rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p, ell", [(5, 4), (5, 8), (7, 4), (7, 6),
                                    (11, 3), (11, 5)])
def test_span_matches_fresh_schoolbook_build(p, ell):
    K = 20
    M, length = p ** K, p * (ell - 1) + 1
    assert _delta(M, length) == _delta_by_product(M, length)
    f = _eisenstein_by_divisors(4, M, length)
    g = _delta_by_product(M, length)
    assert _mul(f, g, M, length) == _schoolbook(f, g, M, length)
    span = katz_span(p, ell, K, length)
    assert span.basis == _fresh_span(p, ell, M, length)
    # U_p e_c = sum_i A[i][c] e_i on the first ell coefficients
    A = span.up
    for c, e in enumerate(span.basis):
        for t in range(ell):
            assert sum(A[i][c] * span.basis[i][t]
                       for i in range(ell)) % M == e[p * t]
    # the Newton projector is the limit A^((p-1) p^K) itself
    P, base, n = None, A, (p - 1) * p ** K
    while n:
        if n & 1:
            P = base if P is None else _matrix_product(P, base, M)
        base, n = _matrix_product(base, base, M), n >> 1
    assert [list(row) for row in span.projector] == P


@pytest.mark.parametrize("p, rank", [(5, 1), (7, 1), (11, 2), (17, 2)])
def test_ordinary_projector_has_the_rank_of_m2(p, rank):
    # ordinary forms of weight 2 are classical of level Gamma_0(p), so the
    # rank mod p is dim M_2(Gamma_0(p)) = 1 + genus(X_0(p))
    K, ell = 20, 6
    M = p ** K
    span = katz_span(p, ell, K, p * (ell - 1) + 1)
    P, A = span.projector, span.up
    assert _matrix_product(P, P, M) == [list(row) for row in P]
    assert _matrix_product(P, A, M) == _matrix_product(A, P, M)
    assert _rank_mod(P, p) == rank


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_projector_fixes_the_classical_basis_to_the_span_precision(p):
    # each form of M_2(Gamma_0(p)), fitted into the span at n <= 30, has
    # coordinates t that P fixes to about the fit's span residual (28, 28,
    # 24 and 24, 26 measured), not to p^K: P cannot replace the exact basis
    ctx = PadicContext(p, 32)
    ell, n_max = span_dimension(p, 32), 30
    span = katz_span(p, ell, 44, max(n_max, p * (ell - 1)) + 1)
    basis = [QSeries(tuple(ctx.from_int(c) for c in e[:n_max + 1]))
             for e in span.basis]
    for f in basis_for_level(p, n_max):
        s = QSeries((None,) + tuple(ctx.from_int(c) for c in f.coeffs[1:]))
        t = fit_to_basis(s, basis, ctx).coefficients
        moved = [sum((ctx.from_int(c) * ti for c, ti in zip(row, t)),
                     ctx.zero()) - tj for tj, row in zip(t, span.projector)]
        assert all(x.is_zero or x.v >= 20 for x in moved)


def test_span_dimension_closed_form():
    assert [span_dimension(p, 32) for p in (5, 7, 11)] == [11, 15, 22]
    assert span_dimension(5, 1) == span_dimension(5, 5) == 2
    with pytest.raises(ValueError, match="cannot read U_p"):
        katz_span(5, 4, 20, 15)


def _closed_form_log(ctx):
    """log_p of (3 + 4i)/5 at p = 5 and of (1 + 4 sqrt(-3))/7 at p = 7, the
    12th powers of the units at the principal RM point of D = 12, with
    sqrt(-3) = 2 mod 7."""
    if ctx.p == 5:
        return iwasawa_log(ctx.from_int(3 + 4 * ctx.sqrt_zp(-1 % ctx.modulus)))
    s = ctx.sqrt_zp(-3 % ctx.modulus)
    s = s if s % 7 == 2 else ctx.modulus - s
    return iwasawa_log(ctx.from_int(1 + 4 * s))


def _flagship_series(p):
    group = NarrowClassGroup(12)
    return generating_series(group.rm_representative(group.identity), p, 30,
                             PadicContext(p, 32), group=group)


@pytest.mark.parametrize("p", [5, 7])
def test_unit_log_agrees_to_the_least_residual(p):
    res = _flagship_series(p)
    least = res.fit.min_residual_valuation
    assert least >= 26
    diff = res.a0 * 12 - _closed_form_log(res.a0.ctx)
    assert diff.is_zero or diff.v >= least
    assert res.fit.certified_digits == least


@pytest.mark.parametrize("p, n, e", [(5, 17, 10), (7, 23, 12), (7, 2, 15)])
def test_planted_fault_sets_the_least_residual(monkeypatch, p, n, e):
    true = gsunits.diag_coefficient

    def planted(k, chi, engine, ctx, logs=None):
        value = true(k, chi, engine, ctx, logs)
        return value + ctx.from_int(p ** e) if k == n else value

    monkeypatch.setattr(gsunits, "diag_coefficient", planted)
    least = _flagship_series(p).fit.min_residual_valuation
    assert abs(least - e) <= 2
