import pytest

from rmlab.gsunits import generating_series
from rmlab.modforms import (QSeries, _to_padic, basis_for_level, e2p_series,
                            eta_cusp_series, fit_to_basis, sigma_p)
from rmlab.padic import PadicContext
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
    assert fit.min_residual_valuation == 12
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
