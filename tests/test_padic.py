import random

import pytest
from hypothesis import given, settings, strategies as st

from rmlab.padic import (DualScalar, PadicContext, PadicScalar,
                         _log_one_plus, _series_slack, iwasawa_log, padic_exp,
                         teichmuller)

CTX = PadicContext(5, 20)
CTX7 = PadicContext(7, 15)


def rand_scalar(ctx, rng, nonzero=False, unit=False):
    while True:
        a0 = rng.randrange(ctx.modulus)
        a1 = rng.randrange(ctx.modulus)
        if a0 == 0 and a1 == 0:
            continue
        v = 0 if unit else rng.randrange(-4, 5)
        x = ctx.from_coords(a0, a1, v)
        if unit and x.v != 0:
            continue
        if not (nonzero and x.is_zero):
            return x


def test_context_nonresidue():
    assert CTX.r == 2  # 2 is a non-residue mod 5
    assert CTX7.r == 3
    assert pow(CTX.r, (5 - 1) // 2, 5) == 4


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_sqrt_zp_lifts_the_least_root(p):
    # the root convention that sqrtD_padic and the flagship logs rely on
    ctx = PadicContext(p, 12)
    rng = random.Random(p)
    for x0 in range(1, p // 2 + 1):
        a = (x0 * x0 + p * rng.randrange(ctx.modulus)) % ctx.modulus
        x = ctx.sqrt_zp(a)
        assert x % p == x0
        assert (x * x - a) % ctx.modulus == 0
    with pytest.raises(ValueError):
        ctx.sqrt_zp(ctx.r)


def test_context_rejects_small_p():
    with pytest.raises(ValueError):
        PadicContext(3, 10)
    with pytest.raises(ValueError):
        PadicContext(9, 10)


def test_omega_squared_is_r():
    w = CTX.omega()
    assert (w * w).equals(CTX.from_int(CTX.r))


def test_from_rational_roundtrip():
    x = CTX.from_rational("7/3")
    assert (x * CTX.from_int(3)).equals(CTX.from_int(7))
    y = CTX.from_rational("50/4")  # valuation 2 - 1... vp(50)=2, vp(4)=0
    assert y.v == 2


def test_valuation_bookkeeping():
    assert CTX.from_int(250).v == 3
    assert CTX.from_int(250).u0 == 2
    assert (CTX.from_int(5) * CTX.from_int(25)).v == 3
    assert (CTX.from_int(6) - CTX.from_int(1)).v == 1
    # a coordinate whose valuation passes the precision keeps it whole
    for n in (5 ** 21, 3 * 5 ** 25, -5 ** 40):
        x = CTX.from_coords(n, 0)
        assert (x.v, x.u0, x.u1) == (CTX.from_int(n).v, CTX.from_int(n).u0, 0)
        assert x == CTX.from_int(n)


def test_cancellation_tracks_slack():
    a = CTX.from_int(1 + 5 ** 6)
    b = CTX.from_int(1)
    d = a - b
    assert d.v == 6
    assert d.slack == 6  # six digits renormalized away


def test_sum_with_no_known_digit_is_zero_marker():
    # 1 known mod 5^7 plus -1 + 5^8: the sum 5^8 lies beyond what is known
    ctx = PadicContext(5, 10)
    a = ctx.from_int(1)._with_slack(3)
    b = ctx.from_int(-1 + 5 ** 8)
    assert (a + b).is_zero and (b + a).is_zero
    # one digit known is kept: 5^6 + 1 known mod 5^7
    c = ctx.from_int(-1 + 5 ** 6) + a
    assert c.v == 6 and c.effective_prec() == 1


def test_zero_marker():
    z = CTX.zero()
    assert z.is_zero
    x = CTX.from_int(42)
    assert (x - x).is_zero
    assert (z + x).equals(x)
    with pytest.raises(ZeroDivisionError):
        z.inverse()


# --- randomized ring axioms (criterion: 1e4 cases across the suites) -------

@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 64), st.integers(0, 2 ** 64), st.integers(0, 2 ** 64),
       st.integers(min_value=0, max_value=2 ** 32))
def test_ring_axioms(sa, sb, sc, sd):
    rng = random.Random(sa ^ (sb << 1) ^ (sc << 2) ^ sd)
    x = rand_scalar(CTX, rng)
    y = rand_scalar(CTX, rng)
    z = rand_scalar(CTX, rng)
    assert ((x + y) + z).equals(x + (y + z))
    assert ((x * y) * z).equals(x * (y * z))
    assert (x * (y + z)).equals(x * y + x * z)
    assert (x + y).equals(y + x)
    assert (x * y).equals(y * x)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 64))
def test_inverse_and_pow(seed):
    rng = random.Random(seed)
    x = rand_scalar(CTX, rng, nonzero=True)
    assert (x * x.inverse()).equals(CTX.one())
    assert (x ** 3).equals(x * x * x)
    assert (x ** -2).equals((x * x).inverse())


def test_pow_is_the_repeated_product_with_fewest_multiplications(
        monkeypatch):
    # square-and-multiply from the lowest set bit: value and slack of the
    # repeated product, with (bit length - 1) squarings and (set bits - 1)
    # products
    x = CTX.from_coords(3, 7, 2)._with_slack(4)
    for e in range(-5, 65):
        base = x if e >= 0 else x.inverse()
        product = CTX.one()
        for _ in range(abs(e)):
            product = product * base
        assert (x ** e).to_json() == product.to_json(), e
    calls = []
    mul = PadicScalar.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(PadicScalar, "__mul__", counting)
    for e in range(1, 65):
        calls.clear()
        x ** e
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1, e


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 64))
def test_frobenius_automorphism(seed):
    rng = random.Random(seed)
    x = rand_scalar(CTX, rng)
    y = rand_scalar(CTX, rng)
    assert (x * y).frobenius().equals(x.frobenius() * y.frobenius())
    assert (x + y).frobenius().equals(x.frobenius() + y.frobenius())
    assert x.frobenius().frobenius().equals(x)
    # the norm and trace lie in Q_p: no omega-coordinate
    for y in (x * x.frobenius(), x + x.frobenius()):
        assert y.is_zero or y.u1 == 0


def test_frobenius_fixes_qp_and_flips_omega():
    c = CTX.from_int(17)
    assert c.frobenius().equals(c)
    w = CTX.omega()
    assert w.frobenius().equals(-w)
    assert w.norm().equals(CTX.from_int(-CTX.r))


# --- log / exp / teichmuller ------------------------------------------------

def test_log_one_and_p():
    assert iwasawa_log(CTX.one()).is_zero
    assert iwasawa_log(CTX.from_int(5)).is_zero


def test_log_one_plus_p_partial_sums():
    # oracle: partial sums of log(1+x) at x = p, as exact rationals
    from fractions import Fraction
    p, N = 5, 20
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction((-1) ** (k + 1) * p ** k, k)
    expected = CTX.from_rational(acc)
    got = iwasawa_log(CTX.from_int(1 + p))
    assert got.equals(expected, 15)


def log_one_plus_by_scalars(t):
    """Oracle for `_log_one_plus`: the same kmax and terms, each term a
    PadicScalar t^k / k added into the sum with its slack."""
    ctx = t.ctx
    if t.is_zero:
        return ctx.zero()
    kmax = 1
    while kmax * t.v - _series_slack(ctx, kmax) <= ctx.prec + 1:
        kmax += 1
    acc = ctx.zero()
    power = ctx.one()
    for k in range(1, kmax + 1):
        power = power * t
        term = power / ctx.from_int(k)
        acc = acc + (term if k % 2 else -term)
    return acc


@pytest.mark.parametrize("p, prec", [(5, 16), (5, 32), (5, 44), (7, 8),
                                     (7, 32), (11, 24), (13, 20)])
def test_log_one_plus_on_coordinates_matches_scalar_series(p, prec):
    # exact (v, u0, u1, slack), at v(t) = 1, 2, 3, half the precision and
    # beyond it, with slack up to prec - 1
    ctx = PadicContext(p, prec)
    rng = random.Random(p * 100 + prec)
    for _ in range(60):
        v = rng.choice((1, 1, 2, 3, prec // 2, prec + 3))
        slack = rng.choice((0, 0, 1, 3, prec - 1))
        x = rand_scalar(ctx, rng, nonzero=True, unit=True)
        t = PadicScalar(ctx, v, x.u0, x.u1, slack)
        got, want = _log_one_plus(t), log_one_plus_by_scalars(t)
        assert (got.v, got.u0, got.u1, got.slack) == \
            (want.v, want.u0, want.u1, want.slack), (v, slack)
    assert _log_one_plus(PadicScalar(ctx, 1, 1, 1, prec)).is_zero


def test_log_homomorphism():
    rng = random.Random(7)
    for _ in range(25):
        x = rand_scalar(CTX, rng, nonzero=True)
        y = rand_scalar(CTX, rng, nonzero=True)
        lhs = iwasawa_log(x * y)
        rhs = iwasawa_log(x) + iwasawa_log(y)
        assert lhs.equals(rhs, CTX.prec - 2)


def test_exp_log_roundtrip():
    x = CTX.from_int(1 + 5)
    assert padic_exp(iwasawa_log(x)).equals(x, 15)
    rng = random.Random(11)
    for _ in range(20):
        a = rand_scalar(CTX, rng, nonzero=True)
        if a.v < 1:
            a = a * CTX.from_int(5 ** (1 - a.v))
        e = padic_exp(a)
        assert (e * padic_exp(-a)).equals(CTX.one(), 14)
        assert iwasawa_log(e).equals(a, 14)


def test_exp_rejects_low_valuation():
    with pytest.raises(ValueError):
        padic_exp(CTX.from_int(2))


def test_exp_homomorphism():
    rng = random.Random(13)
    for _ in range(20):
        x = rand_scalar(CTX, rng, nonzero=True, unit=True) * CTX.from_int(5)
        y = rand_scalar(CTX, rng, nonzero=True, unit=True) * CTX.from_int(25)
        assert padic_exp(x + y).equals(padic_exp(x) * padic_exp(y), 14)


def test_teichmuller_properties():
    assert teichmuller(CTX.one()).equals(CTX.one())
    rng = random.Random(17)
    for _ in range(20):
        x = rand_scalar(CTX, rng, unit=True)
        z = teichmuller(x)
        assert (z ** (5 ** 2 - 1)).equals(CTX.one(), 18)
        assert (z - x).is_zero or (z - x).v >= 1  # z = x mod p
        assert iwasawa_log(z).is_zero or iwasawa_log(z).v >= 14


def fixed_point_teichmuller(x):
    """Oracle for `teichmuller`: iterate z -> z^(p^2) from the unit part of
    x until it stops moving at its effective precision."""
    ctx = x.ctx
    z = PadicScalar(ctx, 0, x.u0, x.u1, x.slack)
    for _ in range(ctx.prec + 1):
        nxt = z ** (ctx.p ** 2)
        if nxt.equals(z, ctx.prec - z.slack):
            return nxt
        z = nxt
    return z


def test_teichmuller_is_the_fixed_point():
    # odd precisions too: an odd power of p would give the Frobenius
    # conjugate; with slack the loop may stop early in the slack digits
    rng = random.Random(29)
    for p in (5, 7, 11, 13, 17):
        for prec in (1, 2, 3, 8, 15, 20, 31, 44):
            ctx = PadicContext(p, prec)
            for _ in range(4):
                x = rand_scalar(ctx, rng, unit=True)
                assert (teichmuller(x).to_json()
                        == fixed_point_teichmuller(x).to_json()), (x, prec)
                x = x._with_slack(rng.randrange(prec))
                assert teichmuller(x).equals(fixed_point_teichmuller(x))


def test_log_kills_torsion_times_p_power():
    rng = random.Random(19)
    x = rand_scalar(CTX, rng, unit=True)
    z = teichmuller(x)
    val = iwasawa_log(z * CTX.from_int(125))
    assert val.is_zero or val.v >= 14


# --- dual numbers -----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 64))
def test_dual_product_rule(seed):
    rng = random.Random(seed)
    x = DualScalar(rand_scalar(CTX, rng), rand_scalar(CTX, rng))
    y = DualScalar(rand_scalar(CTX, rng), rand_scalar(CTX, rng))
    xy = x * y
    assert xy.b.equals(x.a * y.b + x.b * y.a)
    assert xy.a.equals(x.a * y.a)
    # eps^2 = 0: (eps)*(eps)
    eps = DualScalar(CTX.zero(), CTX.one())
    assert (eps * eps).a.is_zero and (eps * eps).b.is_zero


# --- serialization ----------------------------------------------------------

def test_json_roundtrip():
    rng = random.Random(23)
    for _ in range(10):
        x = rand_scalar(CTX, rng)
        y = PadicScalar.from_json(x.to_json())
        assert y.equals(x) and y.v == x.v
    z = PadicScalar.from_json(CTX.zero().to_json())
    assert z.is_zero


@pytest.mark.parametrize("damage", ["short", "digit-p", "negative-digit",
                                    "zero-unit", "float-v", "float-p",
                                    "negative-slack", "bool-v",
                                    "bool-slack"])
def test_json_invalid_scalar(damage):
    obj = CTX.from_coords(7, 3, 1).to_json()
    u0, u1 = obj["unit"]
    obj.update({
        "short": {"unit": [u0[:-1], u1]},
        "digit-p": {"unit": [u0, u1[:-1] + [5]]},
        "negative-digit": {"unit": [[-1] + u0[1:], u1]},
        "zero-unit": {"unit": [[0] * 20, [0] * 20]},
        "float-v": {"v": 1.0},
        "float-p": {"p": 5.0},
        "negative-slack": {"slack": -3},
        "bool-v": {"v": True},
        "bool-slack": {"slack": True},
    }[damage])
    with pytest.raises(ValueError):
        PadicScalar.from_json(obj)
