"""The p-adic generating series at an RM point and the unit it encodes.

Pipeline: coefficients a_n = log_p(T_n J_w[tau]) as the ordinary part of the
diagonal restriction's raw coefficients, fitted exactly in Katz's span of
overconvergent forms and projected by the ordinary projector of U_p on it
(Shanks extrapolation in `eisenstein` is kept as the independent check), an
exact fit to the basis of M_2(Gamma_0(p)), exponentiation of the constant term
back to a unit candidate, and recognition of its minimal polynomial by
p-adic lattice reduction, cross-checked against partial-zeta valuation
predictions, a reciprocity symmetry, and splitting behaviour modulo
auxiliary primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .eisenstein import LogCache, diag_coefficient
from .lattice import AlgdepResult, algdep_padic, primitive
from .modforms import QSeries, FitResult, basis_for_level, fit_to_basis
from .padic import (PadicContext, PadicScalar, _vp, iwasawa_log, padic_exp,
                    sqrt_rational, teichmuller)
from .quadfield import (IdealDivisorEngine, NarrowClassGroup, RMPoint,
                        _primes, check_inert, factor, genus_value,
                        has_norm_minus_one, partial_zeta_zero,
                        splitting_type)


# --------------------------------------------------------------------------
# the generating series
# --------------------------------------------------------------------------

class SeriesCertificate:
    """The digits a coefficient is certified to: the least residual
    valuation of the fit to M_2(Gamma_0(p)), or the working precision when
    every residual is exact.  A plain class: a dataclass costs the import
    of rmlab about a millisecond more."""

    __slots__ = ("stabilized_at",)

    def __init__(self, stabilized_at: int):
        self.stabilized_at = stabilized_at


@dataclass
class GSeriesResult:
    series: QSeries             # a_0 unknown; a_n for n >= 1
    certificates: dict          # freshly computed n0 -> SeriesCertificate
    fit: FitResult
    a0: PadicScalar             # inferred constant term = log_p(u_tau)
    trivial: bool               # True when the series vanishes identically
    stabilized: dict            # n0 coprime to p -> value before tau's sign


def _series_sign(group: NarrowClassGroup, chi: tuple, tau: RMPoint) -> int:
    """The diagonal-restriction coefficient carries the character-weighted
    class sum; with two classes summing to zero, the value at tau is
    -chi(class of tau) times it."""
    return -chi[group.class_of_rm_point(tau)]


def ordinary_restriction(coefficient, n_max: int, ns, p: int,
                         ctx: PadicContext) -> dict:
    """n -> L_n = b_n - sum_j ((I - P) t)_j e_j[n] for n in `ns`, from the
    raw coefficients b_n = coefficient(n), n <= N = max(n_max,
    ceil(3 ell / 2)), so that a third of the rows of their fit are spare:
    t fits b to Katz's span (`katz.katz_span`, ell = `span_dimension(p,
    prec)`, mod p^(prec + 12)) and P is its ordinary projector, so L is b
    less its fitted non-ordinary part."""
    # imported here, so that importing rmlab does not load it
    from .katz import katz_span, span_dimension
    ell = span_dimension(p, ctx.prec)
    N = max(n_max, -(-3 * ell // 2))
    span = katz_span(p, ell, ctx.prec + 12, max(N, p * (ell - 1)) + 1)
    raw = [None] + [coefficient(n) for n in range(1, N + 1)]
    basis = [QSeries(tuple(ctx.from_int(c) for c in e[:N + 1]))
             for e in span.basis]
    t = fit_to_basis(QSeries(tuple(raw)), basis, ctx).coefficients
    u = [tj - sum((ctx.from_int(c) * ti for c, ti in zip(row, t)),
                  ctx.zero())
         for tj, row in zip(t, span.projector)]
    return {n: raw[n] - sum((uj * e[n] for uj, e in zip(u, basis)),
                            ctx.zero()) for n in ns}


def generating_series(tau: RMPoint, p: int, n_max: int, ctx: PadicContext,
                      m_max: int = 4,
                      group: NarrowClassGroup | None = None,
                      known: dict | None = None) -> GSeriesResult:
    """G_tau up to q^{n_max}: coefficients a_n = log_p(T_n J_w[tau]) as the
    ordinary part of the diagonal restriction derivative, fitted exactly to
    the basis of M_2(Gamma_0(p)).

    The raw coefficients b_n = `diag_coefficient(n)` give L_n =
    `ordinary_restriction`, and a_n = L_{n0} times tau's sign for
    n0 = n / p^{v_p(n)}, since the ordinary part lies in the U_p = 1
    eigenspace.  Every fresh n0 is certified by the least residual of the
    fit of a to M_2(Gamma_0(p)).  Values in `known` (n0 -> value before
    tau's sign, as in `stabilized`) are kept; when every n0 is known, no
    raw coefficient is computed.  m_max is accepted and not read (the
    Shanks route, `accelerated_ordinary_projection`, is now the check).
    Fields with a unit of norm -1, where (sqrt(D)) is narrowly principal
    and no character is odd, give the zero series; other fields need an
    odd quadratic character, so narrow class number 2 (ValueError
    otherwise)."""
    D = tau.disc
    check_inert(D, p)
    basis = basis_for_level(p, n_max)   # an unsupported level, before work
    group = group or NarrowClassGroup(D)
    if has_norm_minus_one(D):
        zero = QSeries((None,) + (ctx.zero(),) * n_max)
        fit = fit_to_basis(zero, basis, ctx)
        return GSeriesResult(zero, {}, fit, fit.a0, True, {})
    if group.h != 2:
        raise ValueError("only narrow class number 1 or 2 supported")
    known = known or {}
    indices = [n0 for n0 in range(1, n_max + 1) if n0 % p]
    missing = [n0 for n0 in indices if n0 not in known]
    chi = group.odd_characters()[0]
    stabilized = dict(known)
    if missing:
        engine = IdealDivisorEngine(group, p)
        logs = LogCache(ctx)
        stabilized.update(ordinary_restriction(
            lambda n: diag_coefficient(n, chi, engine, ctx, logs), n_max,
            missing, p, ctx))
    sign = _series_sign(group, chi, tau)
    coeffs = [None] * (n_max + 1)
    for n in range(1, n_max + 1):
        coeffs[n] = stabilized[n // p ** _vp(n, p)] * sign
    series = QSeries(tuple(coeffs))
    fit = fit_to_basis(series, basis, ctx)
    least = fit.min_residual_valuation
    cert = SeriesCertificate(ctx.prec if least is None else least)
    return GSeriesResult(series, {n0: cert for n0 in missing}, fit, fit.a0,
                         False, {n0: stabilized[n0] for n0 in indices})


# --------------------------------------------------------------------------
# valuation predictions and unit candidates
# --------------------------------------------------------------------------

def valuation_predictions(group: NarrowClassGroup, tau_class: int) -> dict:
    """sigma -> predicted p-order of the sigma-conjugate of u_tau, as the
    partial zeta value -zeta(0, C_tau * sigma); classes index their own
    conjugates.  The predictions sum to zero."""
    preds = {s: -partial_zeta_zero(group, group.compose(tau_class, s))
             for s in range(group.h)}
    assert sum(preds.values()) == 0
    return preds


def _teichmuller_generator(ctx: PadicContext) -> PadicScalar:
    """A Teichmuller representative generating the full (p^2 - 1)-torsion."""
    p = ctx.p
    order = p * p - 1
    primes = list(factor(order))
    for c in range(p):
        g = teichmuller(ctx.omega() + ctx.from_int(c))
        if all(not (g ** (order // ell)).equals(ctx.one())
               for ell in primes):
            return g
    raise ArithmeticError("no torsion generator found")  # pragma: no cover


@dataclass
class UnitCandidate:
    value: PadicScalar
    twist: int                  # Teichmuller-generator exponent
    pinned_valuation: int       # p-order forced by the zeta prediction


def unit_from_constant_term(a0: PadicScalar, group: NarrowClassGroup,
                            tau_class: int, ctx: PadicContext) -> list:
    """All (p^2 - 1) torsion twists of p^pinned * exp(12 a0), where pinned is
    twelve times the zeta prediction for tau's own class.

    Raises on a constant term outside the exponential's domain (valuation
    must be >= 1); a zero constant term is the degenerate (trivial-unit)
    case and is rejected here."""
    if a0.is_zero:
        raise ArithmeticError("zero constant term: trivial unit")
    if a0.v < 1:
        raise ArithmeticError("constant term outside exponential domain")
    # an integer: `partial_zeta_zero` is (sum b - 3m) / 12
    pinned = int(12 * valuation_predictions(group, tau_class)[group.identity])
    p = ctx.p
    base = padic_exp(a0 * 12) * ctx.from_rational(Fraction(p) ** pinned)
    gen = _teichmuller_generator(ctx)
    out = []
    cur = base
    for t in range(p * p - 1):
        out.append(UnitCandidate(cur, t, pinned))
        cur = cur * gen
    return out


# --------------------------------------------------------------------------
# recognition
# --------------------------------------------------------------------------

def newton_slopes(coeffs, p: int) -> list:
    """Root valuations of an integer polynomial (coefficients low to high)
    from its p-adic Newton polygon, with multiplicity."""
    pts = [(i, _vp(c, p)) for i, c in enumerate(coeffs) if c != 0]
    if len(pts) < 2:
        raise ValueError("polynomial has at most one term")
    # lower convex hull, left to right
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        s = Fraction(y2 - y1, x2 - x1)
        slopes.extend([-s] * (x2 - x1))
    return sorted(slopes)


def is_reciprocal_up_to_p_power(coeffs, p: int) -> bool:
    """True when x^d f(p^s / x) is proportional to f(x) for some integer s:
    the root multiset is stable under r -> p^s / r."""
    d = len(coeffs) - 1
    slopes = newton_slopes(coeffs, p)
    total = sum(slopes)
    if (2 * total) % d != 0:
        return False
    s = int(2 * total / d)
    # x^d f(p^s / x) has coefficients c_{d-i} p^{s (d-i)}
    lhs = [coeffs[d - i] * Fraction(p) ** (s * (d - i))
           for i in range(d + 1)]
    pivot = next(i for i, c in enumerate(coeffs) if c != 0)
    if lhs[pivot] == 0:
        return False
    lam = Fraction(lhs[pivot], coeffs[pivot])
    return all(l == lam * c for l, c in zip(lhs, coeffs))


def _mulmod(u: list, v: list, f: list, q: int) -> list:
    """u * v mod the monic f over F_q, coefficients low to high; the
    remainder has len(f) - 1 coefficients."""
    prod = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            prod[i + j] += a * b
    d = len(f) - 1
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i] % q
        for j in range(d):
            prod[i - d + j] -= c * f[j]
    return [c % q for c in prod[:d]]


def _splits_mod(coeffs, q: int) -> bool:
    """True if the polynomial (low to high, leading coefficient prime to q)
    is a product of linear factors mod q, counted with multiplicity.  The
    monic f of degree d is one exactly when it divides (x^q - x)^d: x^q - x
    is the product of the x - r over F_q, no factor of degree > 1 divides
    a power of it, and no root recurs more than d times (H. Cohen, GTM 138,
    3.4).  x^q is taken mod f by square-and-multiply; a constant f, the
    empty product, leaves the empty remainder."""
    inv = pow(coeffs[-1], -1, q)
    f = [c * inv % q for c in coeffs]
    xq = [1]                     # x^q mod f
    for bit in bin(q)[2:]:
        xq = _mulmod(xq, [0] + xq if bit == "1" else xq, f, q)
    x_q_minus_x = xq + [0] * (2 - len(xq))
    x_q_minus_x[1] -= 1
    d = len(f) - 1
    rem = [1][:d]                # 1 mod f
    for _ in range(d):
        rem = _mulmod(rem, x_q_minus_x, f, q)
    return not any(rem)


def splitting_fraction(coeffs, group: NarrowClassGroup,
                       num_primes: int = 50) -> float:
    """Fraction of the first `num_primes` primes q split completely in the
    genus field of `group` (q splits in F and every genus character is 1 at
    q; for narrow class number 2 this is the narrow Hilbert class field)
    modulo which the polynomial factors completely into linear pieces."""
    D, lead = group.D, coeffs[-1]
    hits = tried = 0
    for q in _primes():
        if tried == num_primes:
            break
        if (splitting_type(D, q) == "split" and lead % q
                and all(genus_value(D, d, q) == 1
                        for d in group.genus.values())):
            tried += 1
            hits += _splits_mod(coeffs, q)
    return hits / num_primes


@dataclass
class RecognitionResult:
    polynomial: tuple | None    # integer coefficients, low to high
    twist: int | None           # accepted candidate's torsion twist
    algdep: AlgdepResult | None
    newton_ok: bool
    reciprocal_ok: bool
    split_fraction: float
    matches: list               # (twist, coefficients) found by algdep, up
                                # to and including the accepted twist, each
                                # pair once

    @property
    def recognized(self) -> bool:
        return (self.polynomial is not None and self.newton_ok
                and self.reciprocal_ok)


def recognition_budget(fit: FitResult | None, ctx: PadicContext,
                       cap: int = 20) -> int:
    """The p-adic digits recognition may ask of a_0: the least of `cap`, six
    below the working precision and, given a fit with a residual, two below
    its least residual valuation, the certificate of the digits a_0 is good
    to.  With fit None (before the series) only the first two count.
    ValueError, naming the first least bound, when that is below 1."""
    bounds = [(cap, f"--budget {cap}"), (ctx.prec - 6, f"--prec {ctx.prec}")]
    least = fit.min_residual_valuation if fit else None
    if least is not None:
        bounds.append((least - 2, "the fit's least residual valuation "
                       f"{least}"))
    budget, bound = min(bounds, key=lambda b: b[0])
    if budget < 1:
        raise ValueError(f"{bound} leaves a recognition budget of {budget}; "
                         "it must be at least 1")
    return budget


def recognize(candidates: list, group: NarrowClassGroup, tau_class: int,
              ctx: PadicContext, degree: int = 4, budget: int = 20,
              num_split_primes: int = 50) -> RecognitionResult:
    """Search the torsion twists in order for the first whose value
    satisfies an integer polynomial of bounded degree whose Newton polygon
    reproduces twelve times the partial-zeta multiset, and stop there.  Then
    validate it: the polynomial must be reciprocal up to a p-power, and it
    must split completely modulo (most) primes split completely in the genus
    field (`splitting_fraction`)."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    p = ctx.p
    expected = sorted(12 * v for v in
                      valuation_predictions(group, tau_class).values())
    matches = []
    for cand in candidates:
        # a candidate of negative p-order is recognized through its integral
        # rescaling p^s * u; the polynomial pulls back by x -> x / p^s
        s = max(0, -cand.value.v)
        value = cand.value * ctx.from_int(p ** s) if s else cand.value
        # ascending degrees: the smallest-degree relation is canonical and
        # keeps the lattice margin meaningful (padding the true degree
        # plants x * f(x) as an equally short vector)
        for d in range(1, degree + 1):
            res = algdep_padic(value, d, budget)
            if not res.found:
                continue
            coeffs = res.coefficients
            if s:
                coeffs = primitive([c * p ** (s * i)
                                    for i, c in enumerate(coeffs)])
            if sum(1 for c in coeffs if c) < 2:
                continue        # degenerate lattice artifact, not a relation
            if (cand.twist, coeffs) in matches:
                continue        # a lower degree's relation, found again
            # a wrong torsion twist can still satisfy a cyclotomic-scaled
            # relation; the Newton polygon gives it away
            matches.append((cand.twist, coeffs))
            # several torsion twists can pass every check (a root of unity
            # in the field times the unit is again such a unit); take the
            # first matching twist for determinism and stop searching.  A
            # spurious low-degree relation (possible at small budgets)
            # fails the polygon test, so keep ascending past it
            if newton_slopes(coeffs, p) == expected:
                reciprocal = is_reciprocal_up_to_p_power(coeffs, p)
                frac = splitting_fraction(coeffs, group, num_split_primes)
                return RecognitionResult(coeffs, cand.twist, res, True,
                                         reciprocal, frac, matches)
    return RecognitionResult(None, None, None, False, False, 0.0, matches)


# --------------------------------------------------------------------------
# L-invariants from the recognized unit
# --------------------------------------------------------------------------

def quadratic_roots(coeffs, ctx: PadicContext) -> tuple:
    """Both roots in Q_{p^2} of an integer quadratic c0 + c1 x + c2 x^2."""
    c0, c1, c2 = coeffs
    disc = Fraction(c1 * c1 - 4 * c0 * c2)
    sq = sqrt_rational(ctx, disc)
    inv2a = ctx.from_rational(Fraction(1, 2 * c2))
    b = ctx.from_int(-c1)
    return ((b + sq) * inv2a, (b - sq) * inv2a)


def l_invariants_from_unit(coeffs, ctx: PadicContext) -> tuple:
    """(L_1, L_2) from the two embeddings of the recognized unit:
    L_j = -log_p(root_j) / ord_p(root_j).  Quadratic units only."""
    if len(coeffs) != 3:
        raise ValueError("need a quadratic minimal polynomial")
    r1, r2 = quadratic_roots(coeffs, ctx)
    out = []
    for r in sorted((r1, r2), key=lambda x: x.v):
        if r.v == 0:
            raise ArithmeticError("unit root has zero p-order")
        out.append(iwasawa_log(r) * ctx.from_rational(Fraction(-1, r.v)))
    return tuple(out)
