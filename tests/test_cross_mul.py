"""Multiplication methods: worked columns, trace soundness, oracle agreement."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plumcalc.cross_mul import (
    cross_sum,
    plum_mul,
    rapid_mul,
    wedge_mul,
    wedge_mul_single,
)
from plumcalc.digit_string import DigitString, normalize, parse


def ds(value: int) -> DigitString:
    return DigitString.from_int(value)


def test_cross_sum_examples():
    assert cross_sum((1, 2, 3), (4, 5, 6)) == 28
    assert cross_sum((7,), (8,)) == 56
    assert cross_sum((2, 9), (2, 9)) == 36


def test_cross_sum_rejects_bad_shapes():
    with pytest.raises(ValueError):
        cross_sum((1, 2), (1,))
    with pytest.raises(ValueError):
        cross_sum((), ())


def test_rapid_columns_123_456():
    cols = rapid_mul(ds(123), ds(456))[1].signed
    assert cols.columns == (4, 13, 28, 27, 18)
    assert str(normalize(cols)) == "56088"


def test_rapid_columns_segmented():
    cols = rapid_mul(ds(2976), ds(2924), 2)[1].signed
    assert cols.columns == (841, 2900, 1824)
    assert str(normalize(cols, 2)) == "8701824"


def test_rapid_columns_identity_multiplier():
    cols = rapid_mul(ds(90210), ds(1))[1].signed
    assert cols.columns == (9, 0, 2, 1, 0)


def test_rapid_columns_swaps_shorter_first_operand():
    a = rapid_mul(ds(12), ds(345))[1].signed
    b = rapid_mul(ds(345), ds(12))[1].signed
    assert a == b
    assert len(a.columns) == 4  # m + n - 1


def test_segment_invariance():
    for length in (1, 2, 3):
        cols = rapid_mul(ds(987654), ds(321), length)[1].signed
        assert int(normalize(cols, length)) == 987654 * 321


def test_plum_mul_worked_columns():
    product, trace = plum_mul(ds(386), ds(47))
    assert trace.signed.columns == (17, 12, -6, 2)
    assert str(product) == "18142"

    product, trace = plum_mul(ds(456), ds(789))
    assert trace.signed.columns == (35, 9, 8, -2, 4)
    assert str(product) == "359784"


def test_plum_mul_zero_short_circuits():
    product, trace = plum_mul(ds(123), ds(0))
    assert str(product) == "0"
    assert trace.signed.columns == (0,)
    assert len(trace.columns) == 1


def test_wedge_mul_single_worked_columns():
    product, trace = wedge_mul_single(parse("35649758"), 9)
    assert trace.signed.columns == (3, 2, 1, -2, 4, 7, 8, 2, 2)
    assert str(product) == "320847822"

    product, trace = wedge_mul_single(ds(48), 7)
    assert trace.signed.columns == (3, 4, -4)
    assert str(product) == "336"


def test_wedge_mul_single_identity_and_zero():
    product, trace = wedge_mul_single(ds(907), 1)
    assert str(product) == "907"
    assert len(trace.signed.columns) == 4
    product, _ = wedge_mul_single(ds(907), 0)
    assert str(product) == "0"
    with pytest.raises(ValueError):
        wedge_mul_single(ds(5), 10)


def test_wedge_mul_single_column_count_and_bounds():
    for value in (5, 99, 12345, 909090):
        for c in range(1, 10):
            _, trace = wedge_mul_single(ds(value), c)
            assert len(trace.signed.columns) == len(ds(value)) + 1
            assert all(-6 <= col <= 11 for col in trace.signed.columns)


def test_wedge_mul_worked_columns():
    product, trace = wedge_mul(ds(348), ds(697))
    assert trace.signed.columns == (2, 4, 2, 5, 6, -4)
    assert str(product) == "242556"
    assert len(trace.signed.columns) == len(ds(348)) + len(ds(697))


def test_wedge_mul_trivial():
    product, _ = wedge_mul(ds(1), ds(1))
    assert str(product) == "1"


def test_wedge_mul_matches_single_digit_method():
    for value in (7, 35649758, 90001):
        for c in range(1, 10):
            via_general, gt = wedge_mul(ds(value), ds(c))
            via_single, st_ = wedge_mul_single(ds(value), c)
            assert via_general == via_single
            assert gt.signed == st_.signed


def trace_is_sound(trace) -> bool:
    for breakdown in trace.columns:
        if breakdown.total != sum(t.value for t in breakdown.terms or ()) and breakdown.terms:
            return False
    return trace.column_value() == int(trace.a) * int(trace.b)


def test_trace_soundness_examples():
    for a, b in ((386, 47), (456, 789), (348, 697), (12, 3), (5, 5)):
        for method in (plum_mul, wedge_mul, rapid_mul):
            _, trace = method(ds(a), ds(b))
            assert trace_is_sound(trace), (method, a, b)


def test_methods_agree_exhaustively_small():
    for a in range(0, 140):
        for b in range(0, 140):
            expected = a * b
            assert int(plum_mul(ds(a), ds(b))[0]) == expected
            assert int(wedge_mul(ds(a), ds(b))[0]) == expected
            assert int(rapid_mul(ds(a), ds(b))[0]) == expected


@settings(max_examples=200)
@given(st.integers(min_value=0, max_value=10**64), st.integers(min_value=0, max_value=10**64))
def test_methods_agree_random_large(x, y):
    a, b = ds(x), ds(y)
    expected = str(x * y)
    assert str(plum_mul(a, b)[0]) == expected
    assert str(wedge_mul(a, b)[0]) == expected
    assert str(rapid_mul(a, b)[0]) == expected


@settings(max_examples=100)
@given(st.integers(min_value=0, max_value=10**32), st.integers(min_value=1, max_value=3))
def test_rapid_segmented_agrees_random(x, length):
    a = ds(x)
    b = ds(x // 2 + 1)
    product, trace = rapid_mul(a, b, length)
    assert int(product) == x * (x // 2 + 1)
    assert trace.radix_power == length


def test_column_counts():
    _, trace = rapid_mul(ds(12345), ds(678))
    assert len(trace.signed.columns) == 5 + 3 - 1
    _, trace = wedge_mul_single(ds(12345), 7)
    assert len(trace.signed.columns) == 5 + 1
