import pytest

from rmlab.modforms import (QSeries, basis_for_level, e2p_series,
                            eta_cusp_series, fit_to_basis, sigma_p)
from rmlab.padic import PadicContext

CTX = PadicContext(5, 20)


def _padic_series(ctx, *terms):
    """The p-adic series sum c * s over (c, s) in terms, with a_0 unknown."""
    n_max = min(s.n_max for _, s in terms)
    return QSeries((None,) + tuple(
        ctx.from_int(sum(c * s[n] for c, s in terms))
        for n in range(1, n_max + 1)))


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
    s = _padic_series(CTX, (3, e2p_series(5, 20)))
    fit = fit_to_basis(s, [e2p_series(5, 20)], CTX)
    assert fit.coefficients[0].equals(CTX.from_int(3))
    assert fit.a0.equals(CTX.from_int(12))
    assert fit.certified
    assert all(v is None for v in fit.residuals.values())


def test_extract_logJDR():
    # log J_DR is read off a fit as 12 a_0, and a_0 is (p - 1) times the
    # E2 coefficient
    for c in (2, -3):
        s = _padic_series(CTX, (c, e2p_series(5, 20)))
        fit = fit_to_basis(s, [e2p_series(5, 20)], CTX)
        assert fit.a0.equals(fit.coefficients[0] * 4)
        assert (fit.a0 * 12).equals(CTX.from_int(12 * 4 * c))


def test_fit_planted_two_dimensional():
    n_max = 25
    sp = _padic_series(CTX, (1, e2p_series(11, n_max)),
                       (7, eta_cusp_series(11, n_max)))
    fit = fit_to_basis(sp, basis_for_level(11, n_max), CTX)
    assert fit.coefficients[0].equals(CTX.one())
    assert fit.coefficients[1].equals(CTX.from_int(7))
    assert fit.a0.equals(CTX.from_int(10))
    assert fit.certified


def test_fit_skips_unknown_coefficients():
    coeffs = [None if n % 5 == 0 else 24 * sigma_p(n, 5) * 2
              for n in range(21)]
    s = QSeries(tuple(coeffs))
    fit = fit_to_basis(s, [e2p_series(5, 20)], CTX)
    assert fit.coefficients[0].equals(CTX.from_int(2))
    assert fit.certified


def test_fit_negative_control_flags_perturbation():
    coeffs = list(_padic_series(CTX, (1, e2p_series(5, 20))).coeffs)
    coeffs[13] = coeffs[13] + CTX.from_int(5 ** 3)
    fit = fit_to_basis(QSeries(tuple(coeffs)), [e2p_series(5, 20)], CTX)
    assert not fit.certified
    bad = [n for n, v in fit.residuals.items() if v is not None]
    assert bad == [13]
    assert fit.residuals[13] == 3


def test_fit_underdetermined_basis_fails_certification():
    # a cusp component at level 11 cannot be absorbed by E2 alone
    n_max = 25
    sp = _padic_series(CTX, (1, e2p_series(11, n_max)),
                       (3, eta_cusp_series(11, n_max)))
    fit = fit_to_basis(sp, [e2p_series(11, n_max)], CTX)
    assert not fit.certified


def test_fit_requires_overdetermination():
    s = QSeries((None, CTX.from_int(24)))
    with pytest.raises(ValueError):
        fit_to_basis(s, [e2p_series(5, 1)], CTX)
