"""Schoolbook reference arithmetic: ring laws and independence checks."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plumcalc.oracle import Nat, o_add, o_cmp, o_divmod, o_mul, o_sub

naturals = st.integers(min_value=0, max_value=10**40)
positives = st.integers(min_value=1, max_value=10**40)


def test_nat_round_trip():
    for value in (0, 1, 9, 10, 907, 10**20):
        assert Nat.from_int(value).to_int() == value
        assert str(Nat.from_int(value)) == str(value)


def test_nat_from_digits_strips_leading_zeros():
    assert Nat.from_digits((0, 0, 7)) == Nat.from_int(7)
    assert Nat.from_digits((0,)) == Nat.from_int(0)
    assert Nat.from_digits((0,)).to_digits() == (0,)


def test_nat_rejects_bad_limbs():
    with pytest.raises(ValueError, match=r"^limbs must lie in 0\.\.9: \(10,\)$"):
        Nat((10,))
    with pytest.raises(ValueError, match=r"^limbs must lie in 0\.\.9: \(-1,\)$"):
        Nat((-1,))
    with pytest.raises(ValueError, match=r"^limbs must lie in 0\.\.9: \(3, 10, 1\)$"):
        Nat((3, 10, 1))
    with pytest.raises(ValueError, match=r"^non-canonical high zero limb: \(1, 0\)$"):
        Nat((1, 0))
    with pytest.raises(ValueError):
        Nat.from_int(-1)


def test_add_examples():
    assert o_add(Nat.from_int(0), Nat.from_int(42)).to_int() == 42
    assert o_add(Nat.from_int(999), Nat.from_int(1)).to_int() == 1000
    assert o_add(Nat.from_int(123), Nat.from_int(456)).to_int() == 579


def test_sub_examples():
    assert o_sub(Nat.from_int(42), Nat.from_int(0)).to_int() == 42
    assert o_sub(Nat.from_int(1000), Nat.from_int(1)).to_int() == 999
    assert o_sub(Nat.from_int(56789), Nat.from_int(56457)).to_int() == 332
    with pytest.raises(ValueError):
        o_sub(Nat.from_int(1), Nat.from_int(2))


def test_mul_examples():
    assert o_mul(Nat.from_int(369), Nat.from_int(153)).to_int() == 56457
    assert o_mul(Nat.from_int(12345), Nat.from_int(0)).to_int() == 0
    assert o_mul(Nat.from_int(348), Nat.from_int(697)).to_int() == 242556


def test_divmod_examples():
    q, r = o_divmod(Nat.from_int(56789), Nat.from_int(369))
    assert (q.to_int(), r.to_int()) == (153, 332)
    q, r = o_divmod(Nat.from_int(2728018), Nat.from_int(3456))
    assert (q.to_int(), r.to_int()) == (789, 1234)
    q, r = o_divmod(Nat.from_int(12345), Nat.from_int(1))
    assert (q.to_int(), r.to_int()) == (12345, 0)
    with pytest.raises(ZeroDivisionError):
        o_divmod(Nat.from_int(5), Nat.from_int(0))


def test_cmp_examples():
    assert o_cmp(Nat.from_int(0), Nat.from_int(0)) == 0
    assert o_cmp(Nat.from_int(10), Nat.from_int(9)) == 1
    assert o_cmp(Nat.from_int(999), Nat.from_int(1000)) == -1


def test_mul_against_repeated_addition():
    # independence check so the oracle itself can be trusted: for every x the
    # running sum x + x + ... tracks o_mul(x, y) for all y below 200
    for x in range(200):
        nx = Nat.from_int(x)
        total = Nat.from_int(0)
        for y in range(200):
            assert o_mul(nx, Nat.from_int(y)) == total, (x, y)
            total = o_add(total, nx)


@given(naturals, naturals)
def test_add_commutes_and_matches_int(x, y):
    a, b = Nat.from_int(x), Nat.from_int(y)
    assert o_add(a, b) == o_add(b, a)
    assert o_add(a, b).to_int() == x + y


@given(naturals, naturals, naturals)
def test_mul_ring_laws(x, y, z):
    a, b, c = Nat.from_int(x), Nat.from_int(y), Nat.from_int(z)
    assert o_mul(a, b) == o_mul(b, a)
    assert o_mul(o_mul(a, b), c) == o_mul(a, o_mul(b, c))
    assert o_mul(a, o_add(b, c)) == o_add(o_mul(a, b), o_mul(a, c))


@given(naturals, positives)
def test_divmod_identity(x, y):
    a, b = Nat.from_int(x), Nat.from_int(y)
    q, r = o_divmod(a, b)
    assert o_add(o_mul(b, q), r) == a
    assert o_cmp(r, b) < 0


@given(naturals, naturals)
def test_sub_inverts_add(x, y):
    a, b = Nat.from_int(x), Nat.from_int(y)
    assert o_sub(o_add(a, b), b) == a


@given(naturals, naturals)
def test_cmp_total_order(x, y):
    a, b = Nat.from_int(x), Nat.from_int(y)
    assert o_cmp(a, b) == (x > y) - (x < y)
