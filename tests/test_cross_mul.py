"""Multiplication methods: worked columns, trace soundness, oracle agreement."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from int_limits import int_digit_limit
from plumcalc import cross_mul, digit_string, plum_div
from plumcalc.bench import metrics_to_csv, run_bench
from plumcalc.cross_mul import (
    MUL_METHODS,
    _diagonal_terms,
    _term_layout,
    cross_sum,
    plum_mul,
    rapid_mul,
    wedge_mul,
    wedge_mul_single,
)
from plumcalc.digit_core import carry, wedge
from plumcalc.digit_string import (
    DigitString,
    SignedDigitString,
    _plane_value,
    _unpack,
    normalize,
    normalize_stats,
    parse,
    segment,
)
from plumcalc.trace import render_mul
from strategies import numerals


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
@given(numerals(64), numerals(64))
def test_methods_agree_random_large(x, y):
    a, b = ds(x), ds(y)
    expected = str(x * y)
    assert str(plum_mul(a, b)[0]) == expected
    assert str(wedge_mul(a, b)[0]) == expected
    assert str(rapid_mul(a, b)[0]) == expected


@settings(max_examples=100)
@given(numerals(32), st.integers(min_value=1, max_value=3))
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


# --- column kernel: packed products against the term-by-term trace ---------


def all_traces(a: DigitString, b: DigitString):
    for length in (1, 2, 3, 4):
        yield rapid_mul(a, b, length)[1]
    yield plum_mul(a, b)[1]
    yield wedge_mul(a, b)[1]
    yield wedge_mul_single(a, b[0])[1]


@settings(max_examples=60, deadline=None)
@given(numerals(128), numerals(128))
def test_kernel_columns_equal_term_totals(x, y):
    for trace in all_traces(ds(x), ds(y)):
        assert tuple(c.total for c in trace.columns) == trace.signed.columns, trace.method


def _terms_one_diagonal_at_a_time(trace) -> list[list]:
    """Each column's terms read by ``_diagonal_terms``, the division steps' reader, over ``_term_layout``'s parts."""
    xs, ys, layout = _term_layout(trace)
    return [[term for kind, k in parts for term in _diagonal_terms(kind, xs, ys[::-1], k)] for parts in layout]


def _assert_both_readers_agree(a: DigitString, b: DigitString) -> None:
    traces = [fn(a, b)[1] for fn in MUL_METHODS.values()] + [rapid_mul(a, b, s)[1] for s in (2, 3, 9)]
    traces.append(wedge_mul_single(a, b[0])[1])
    for trace in traces:
        assert [list(c.terms) for c in trace.columns] == _terms_one_diagonal_at_a_time(trace), trace
        assert tuple(c.total for c in trace.columns) == trace.signed.columns, trace


@pytest.mark.parametrize(
    "x, y",
    [(0, 0), (0, 7), (7, 0), (0, 98765), (3, 4), (9, 9), (7, 98765), (98765, 7), (12, 3), (3, 12), (10**30, 1)]
    + [(int("9" * n), int("8" * m)) for n, m in [(2, 2), (1, 17), (17, 1), (16, 17), (40, 3), (3, 40)]],
)
def test_whole_trace_reader_matches_the_one_diagonal_reader(x, y):
    # 1-digit factors either way round, a 1x1 plum product, zero operands, and a
    # segment longer than either operand
    _assert_both_readers_agree(ds(x), ds(y))


@settings(max_examples=120, deadline=None)
@given(numerals(48), numerals(48))
def test_whole_trace_reader_matches_the_one_diagonal_reader_at_random(x, y):
    _assert_both_readers_agree(ds(x), ds(y))


@settings(max_examples=40, deadline=None)
@given(numerals(2000), numerals(2000))
def test_kernel_products_match_int_products(x, y):
    a, b = ds(x), ds(y)
    with int_digit_limit(0):  # the expected numerals, not the library, may be past the int/str limit
        expected, expected_single = str(x * y), str(x * b[0])
    for method in MUL_METHODS.values():
        assert str(method(a, b)[0]) == expected
    for length in (2, 3, 7):
        assert str(rapid_mul(a, b, length)[0]) == expected
    assert str(wedge_mul_single(a, b[0])[0]) == expected_single


def wedge_pairs(m: int, n: int, k: int) -> int:
    """Number of (window, multiplier digit) pairs in wedge column ``k``."""
    return min(m, k) - max(0, k - n + 1) + 1


@settings(max_examples=40, deadline=None)
@given(numerals(600), numerals(600))
def test_wedge_columns_within_pair_bounds(x, y):
    a, b = ds(x), ds(y)
    if a.is_zero or b.is_zero:
        return
    columns = wedge_mul(a, b)[1].signed.columns
    assert len(columns) == len(a) + len(b)
    for k, col in enumerate(columns):
        p = wedge_pairs(len(a), len(b), k)
        assert -6 * p <= col <= 11 * p, (k, col, p)


@pytest.mark.parametrize(
    "x, y",
    [
        (7, 8),
        (9, 9),
        (1, 1),
        (3, 10**40 + 7),
        (10**40 + 7, 3),
        (9, int("9" * 300)),
        (int("9" * 300), 9),
        (int("9" * 257), int("9" * 131)),
        (int("9" * 40), int("9" * 32)),  # carry columns reach 8 * 32 = 256
        (10**50, 10**20),
        (0, int("9" * 30)),
        (int("9" * 30), 0),
        (0, 0),
    ],
    ids=lambda v: f"{len(str(v))}d",
)
def test_kernel_edge_shapes(x, y):
    a, b = ds(x), ds(y)
    for trace in all_traces(a, b):
        assert tuple(c.total for c in trace.columns) == trace.signed.columns, trace.method
    for method in MUL_METHODS.values():
        assert int(method(a, b)[0]) == x * y


# --- the three kernel paths: the per-pair basecase, one packed point, two points

EVERY_CALL = 10**12  # more digit pairs than any operand these tests multiply

# ``_BASECASE_PAIRS`` and ``_TWO_POINT_PAIRS`` that put every kernel call on each path
KERNEL_PATHS = {"basecase": (EVERY_CALL, EVERY_CALL), "one-point": (0, EVERY_CALL), "two-point": (0, 0)}


def kernel_paths(monkeypatch, paths=tuple(KERNEL_PATHS)):
    """Yield each path's name with every kernel call on that path: basecase, one-point, two-point."""
    for path in paths:
        basecase, two_point = KERNEL_PATHS[path]
        monkeypatch.setattr(cross_mul, "_BASECASE_PAIRS", basecase)
        monkeypatch.setattr(cross_mul, "_TWO_POINT_PAIRS", two_point)
        yield path


@pytest.mark.parametrize("length", range(1, 13))
def test_cross_slot_widths_across_byte_boundaries(length, monkeypatch):
    # all-nines segments give the largest columns; growing segment counts push
    # the column bound (10**L - 1)**2 * count past 2**8, 2**16, 2**32 and 2**64
    for count in (1, 2, 3, 5, 17, 40):
        x, y = 10 ** (length * count) - 1, 10 ** (length * (count // 2 + 1)) - 1
        xs, ys = segment(ds(x), length).segments, segment(ds(y), length).segments
        expected = tuple(
            sum(xs[i] * ys[k - i] for i in range(len(xs)) if 0 <= k - i < len(ys))
            for k in range(len(xs) + len(ys) - 1)
        )
        for _ in kernel_paths(monkeypatch):
            product, trace = rapid_mul(ds(x), ds(y), length)
            assert trace.signed.columns == expected
            assert int(product) == x * y


@pytest.mark.parametrize(
    "bound, width",
    [(0, 1), (1, 1), (255, 1), (256, 2), (2**16 - 1, 2), (2**16, 4), (2**32 - 1, 4), (2**32, 8)]
    + [(2**64 - 1, 8), (2**64, 9), (2**72 - 1, 9), (2**72, 10)],
)
def test_slot_width_at_byte_boundaries(bound, width):
    # a width struct has a code for (1, 2, 4, 8) up to 8 bytes, then the exact byte count
    assert cross_mul._slot_width(bound) == width


# --- slot bytes: widths, extreme slots, decoding, handing over -------------


def direct_wedge_column(xs, ys, k: int) -> int:
    """``P[k-1] - 10*C[k-1] + C[k]`` from per-pair sums over the diagonals ``i + j == k``."""

    def pair_sums(d):
        pairs = [(xs[i], ys[d - i]) for i in range(max(0, d - len(ys) + 1), min(len(xs) - 1, d) + 1)]
        return sum(x * y for x, y in pairs), sum(carry(x, y) for x, y in pairs)

    (p, c), (_, c_next) = pair_sums(k - 1), pair_sums(k)
    return p - 10 * c + c_next


def kernel_operands(m: int, n: int):
    """All-nines, all-twos (residue -6 on every pair) and mixed ``m`` by ``n`` digit operands."""
    rng = random.Random(m * 7919 + n)

    def mixed(length):
        return (rng.randint(1, 9),) + tuple(rng.randint(0, 9) for _ in range(length - 1))

    return [((9,) * m, (9,) * n), ((2,) * m, (2,) * n), (mixed(m), mixed(n)), ((9,) * m, mixed(n))]


def test_wedge_columns_every_column_up_to_40_digits(monkeypatch):
    # min(m, n) = 10 packs one byte a slot and 11 two; all-nines columns pass
    # 127 from about 15 digits, so a slot width below the column bound fails
    cases = []
    for size in range(1, 41):
        for m, n in ((size, size), (size, 37), (37, size)):
            for xs, ys in kernel_operands(m, n):
                cases.append((xs, ys, [direct_wedge_column(xs, ys, k) for k in range(m + n)]))
    for _ in kernel_paths(monkeypatch):
        for xs, ys, expected in cases:
            assert list(cross_mul._wedge_columns(xs, ys)) == expected, (xs, ys)


@pytest.mark.parametrize("size", [2977, 2978, 2979])
def test_wedge_columns_sampled_across_width_two_to_four(size, monkeypatch):
    # min(m, n) = 2977 packs two bytes a slot, 2978 and 2979 four; at two
    # points the half slots step from one byte to two
    sampled = [0, 1, 2, size - 1, size, size + 1, 2 * size - 3, 2 * size - 2, 2 * size - 1]
    for xs, ys in kernel_operands(size, size):
        expected = [direct_wedge_column(xs, ys, k) for k in sampled]
        for path in kernel_paths(monkeypatch, ("one-point", "two-point")):
            columns = cross_mul._wedge_columns(xs, ys).columns
            assert len(columns) == 2 * size
            assert [columns[k] for k in sampled] == expected, path


def max_plus_path(p: int, pick) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """``pick`` (``max`` or ``min``) of ``sum(pick_c (d[i-1], d[i]) ⋈ c for i in 1..p)`` over digits ``d[0..p]``.

    A wedge column of ``p`` terms sums ``p`` overlapping windows of the
    multiplicand, each against its own multiplier digit, so this max-plus (or
    min-plus) pass over the windows gives the extremes operands reach.  Returns
    the extreme, the digits ``d`` and the multiplier digit of each window.
    """
    best_c = {(a, b): pick(range(10), key=lambda c: wedge(a, b, c)) for a in range(10) for b in range(10)}
    window = {ab: wedge(*ab, c) for ab, c in best_c.items()}
    totals, back = [0] * 10, []  # the extreme path so far ending on each digit, and each step's predecessors
    for _ in range(p):
        before = [pick(range(10), key=lambda a: totals[a] + window[a, b]) for b in range(10)]
        totals = [totals[a] + window[a, b] for b, a in enumerate(before)]
        back.append(before)
    path = [pick(range(10), key=totals.__getitem__)]
    for before in reversed(back):
        path.append(before[path[-1]])
    path.reverse()
    return pick(totals), tuple(path), tuple(best_c[ab] for ab in zip(path, path[1:]))


ATTAINED_WEDGE_EXTREMES = {4: (-23, 39), 14: (-78, 134), 16: (-89, 153)}


@pytest.mark.parametrize("p", [4, 10, 11, 14, 15, 16, 2977, 2978])
def test_wedge_columns_reach_the_attained_extremes(p, monkeypatch):
    # the slot bound 22*(p+1) steps from one byte to two between p = 10 and 11,
    # and from two to four between 2977 and 2978; at p = 14 the maximum 134
    # passes 127, so a one-byte slot there fails
    extremes = [max_plus_path(p, pick) for pick in (min, max)]
    low, high = extremes[0][0], extremes[1][0]
    if p in ATTAINED_WEDGE_EXTREMES:
        assert (low, high) == ATTAINED_WEDGE_EXTREMES[p]
    paths = tuple(KERNEL_PATHS) if p < 100 else ("one-point", "two-point")  # pair by pair, 2977² takes seconds
    for extreme, xs, multipliers in extremes:
        # column p sums the windows (xs[i-1], xs[i]) against ys[p-i], i = 1..p; min(len(xs), len(ys)) = p
        ys = multipliers[::-1]
        for path in kernel_paths(monkeypatch, paths):
            columns = cross_mul._wedge_columns(xs, ys).columns
            assert columns[p] == extreme, path
            assert low <= min(columns) and max(columns) <= high, path


@pytest.mark.parametrize("width", [1, 2, 4, 8, 9])
def test_unslot_reads_extreme_signed_slots(width):
    # the slot bytes are what the column tuple, normalize and the division chain
    # check all read: the decoder reads them by struct up to 8 bytes and by
    # int.from_bytes past them, byte planes at every width
    low, high = -(2 ** (8 * width - 1)), 2 ** (8 * width - 1) - 1
    values = [low, high, -1, 0, 1, high, low, low + 1, high - 1, -1, low]
    packed = sum(v << (8 * width * k) for k, v in enumerate(values))
    raw = cross_mul._unslot(packed, len(values), width)
    assert raw == b"".join(v.to_bytes(width, "little", signed=True) for v in values)
    assert _plane_value(raw, width) == decimal_value(values)
    assert _unpack(raw, width) == tuple(values)


def decimal_value(columns) -> int:
    """``columns`` read in radix 10 by the plain loop."""
    total = 0
    for column in columns:
        total = total * 10 + column
    return total


def all_columns(a: DigitString, b: DigitString):
    """Columns of every multiplication of ``a`` by ``b``, and of dividing ``a*b + 1`` by ``b``."""
    columns = [method(a, b)[1].signed.columns for method in MUL_METHODS.values()]
    columns += [rapid_mul(a, b, length)[1].signed.columns for length in (2, 3, 7)]
    columns.append(wedge_mul_single(a, b[0])[1].signed.columns)
    dividend = ds(int(wedge_mul(a, b)[0]) + 1)
    for method in plum_div.DIV_METHODS:
        q, r, trace = plum_div.divmod(dividend, b, method)
        columns.append((q.digits, r.digits, trace._columns))
    return columns


KERNEL_OPERANDS = [(7, 8), (386, 47), (10**12 - 1, 10**11 - 1), (int("2" * 40), int("9" * 300))]


# products whose packed columns take every slot width the kernel makes:
# (method, digits a side, segment length, slot bytes at one point, at two
# points); struct has codes for 1, 2, 4 and 8 bytes and none for 9 or 10, and
# two points halve the slots and interleave them at twice the half width
SLOT_WIDTH_PRODUCTS = [
    ("wedge", 10, 1, 1, 2),
    ("plum", 11, 1, 2, 2),
    ("cross", 405, 1, 4, 4),
    ("cross", 200, 3, 4, 4),
    ("cross", 200, 5, 8, 8),
    ("cross", 200, 9, 9, 10),
]


@pytest.mark.parametrize(
    "method, size, seg_len, one_point, two_points",
    SLOT_WIDTH_PRODUCTS,
    ids=[f"{m}-{n}d-seg{L}" for m, n, L, *_ in SLOT_WIDTH_PRODUCTS],
)
def test_kernel_slots_decode_to_the_basecase_columns(method, size, seg_len, one_point, two_points, monkeypatch):
    # the packed kernel hands over slot bytes only; the columns decoded from
    # them when first read are the basecase's, whatever the width
    rng = random.Random(size * seg_len)
    a, b = ds(10**size - 1), ds(rng.randrange(10 ** (size - 1), 10**size))  # all nines fill the widest columns
    widths = {"basecase": None, "one-point": one_point, "two-point": two_points}
    columns = {}
    for path in kernel_paths(monkeypatch):
        signed = cross_mul._columns(method, a, b, seg_len)
        if widths[path] is None:
            assert "_slots" not in signed.__dict__
        else:
            assert "columns" not in signed.__dict__ and signed._slots[1] == widths[path], path
        columns[path] = signed.columns
        assert type(columns[path]) is tuple and len(signed) == len(columns[path]), path
    assert columns["one-point"] == columns["two-point"] == columns["basecase"]
    assert int(normalize_stats(SignedDigitString(columns["basecase"]), seg_len)[0]) == int(a) * int(b)


def test_basecase_matches_packed_kernel(monkeypatch):
    # every method, segment length and division on the same operands, through
    # each path; the 3008-digit pair above would take seconds pair by pair
    operands = [(ds(x), ds(y)) for x, y in KERNEL_OPERANDS]
    basecase, *packed = ([all_columns(a, b) for a, b in operands] for _ in kernel_paths(monkeypatch))
    assert packed == [basecase, basecase]


def kernel_outputs(a: DigitString, b: DigitString, monkeypatch):
    """``(radix_power, signed)`` of every kernel call of multiplying ``a`` by ``b``, and of dividing ``a*b + 1`` by ``b``.

    The division's kernel output is the one its trace and chain check read;
    each division's trace is checked here too.
    """
    outputs = [(1, cross_mul._columns(method, a, b, 1)) for method in ("cross", "plum", "wedge")]
    outputs += [(length, cross_mul._columns("cross", a, b, length)) for length in (2, 3, 7)]
    outputs.append((1, cross_mul._columns("wedge_single", a, DigitString((b[0],)), 1)))
    kernel = plum_div._wedge_columns
    divisions = []
    monkeypatch.setattr(plum_div, "_wedge_columns", lambda xs, ys: divisions.append(kernel(xs, ys)) or divisions[-1])
    dividend = ds(int(wedge_mul(a, b)[0]) + 1)
    for method in plum_div.DIV_METHODS:
        q, _, trace = plum_div.divmod(dividend, b, method)
        assert trace.pp_reconstruction() == dataclasses.replace(trace).pp_reconstruction() == int(b) * int(q)
        if len(b) > 1:  # a one-digit divisor's kernel columns are all zero, and no kernel is called
            assert trace._columns is divisions[-1]
            outputs.append((1, divisions[-1]))
    monkeypatch.setattr(plum_div, "_wedge_columns", kernel)
    return outputs


# slot widths either side of each step: wedge and plum 1 -> 2 bytes between
# 10 and 11 digits and 2 -> 4 between 2977 and 2978, cross 1 -> 2 between 1 and
# 2 and 2 -> 4 between 404 and 405, whose 4-byte slots have a zero top byte
HANDED_OVER_SIZES = [(1, 1), (2, 2), (10, 10), (11, 11), (10, 300), (404, 404), (405, 405), (2977, 2977), (2978, 2978)]


@pytest.mark.parametrize("sizes", HANDED_OVER_SIZES, ids=[f"{m}x{n}" for m, n in HANDED_OVER_SIZES])
def test_handed_over_bytes_columns_and_normalize_agree(sizes, monkeypatch):
    # the packed kernel's slot bytes, which normalize and the division chain
    # check read, their slot count, the column tuple decoded from them,
    # normalize of the bare columns and normalize_stats all agree, on
    # every path; plum's end corrections are written into the slot bytes, so
    # plum checks them too
    rng = random.Random(sum(sizes))
    m, n = sizes
    a, b = (parse(str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=k - 1))) for k in (m, n))
    paths = tuple(KERNEL_PATHS) if m * n < 10**4 else ("one-point", "two-point")
    packed_widths = set()
    for path in kernel_paths(monkeypatch, paths):
        for radix_power, signed in kernel_outputs(a, b, monkeypatch):
            if path != "basecase" and "_slots" in signed.__dict__:  # built from the kernel's slot bytes
                raw, width = signed._slots
                packed_widths.add(width)
                assert "columns" not in signed.__dict__, path  # the division's chain check read the slots only
                assert len(raw) == len(signed) * width, path
                assert _plane_value(raw, width) == decimal_value(signed.columns), path
            bare = SignedDigitString(signed.columns)
            assert signed == bare and hash(signed) == hash(bare) and repr(signed) == repr(bare), path
            expected = normalize_stats(bare, radix_power)[0]
            assert normalize(signed, radix_power) == normalize(bare, radix_power) == expected, path
            if radix_power == 1:
                assert signed.value() == bare.value() == int(expected), path
    assert packed_widths, "no kernel call was packed"
    if sizes == (10, 10):
        assert 1 in packed_widths  # a one-byte one-point slot


def test_timed_calls_never_decode_the_columns(monkeypatch):
    # products and a division past every crossover read their columns only as
    # slot bytes: with the decoder failing, each still gives int's result;
    # the columns and steps a trace decodes later are the basecase's
    rng = random.Random(320)
    x, y = (rng.randrange(10**319, 10**320) for _ in range(2))
    dividend = rng.randrange(10**639, 10**640)
    a, b, c = ds(x), ds(y), ds(dividend)

    def undecodable(raw, width):
        raise AssertionError("columns decoded")

    monkeypatch.setattr(digit_string, "_unpack", undecodable)
    traces = []
    for method in MUL_METHODS.values():
        product, trace = method(a, b)
        assert int(product) == x * y, trace.method
        traces.append(trace)
    q, r, division = plum_div.divmod(c, b)
    assert (int(q), int(r)) == divmod(dividend, y)
    assert all("_slots" in t.signed.__dict__ for t in traces) and "_slots" in division._columns.__dict__
    monkeypatch.undo()

    decoded = [t.signed.columns for t in traces], division._columns.columns, division.steps
    monkeypatch.setattr(cross_mul, "_BASECASE_PAIRS", EVERY_CALL)
    division = plum_div.divmod(c, b)[2]
    products = [method(a, b)[1].signed.columns for method in MUL_METHODS.values()]
    assert decoded == (products, division._columns.columns, division.steps)


@pytest.mark.parametrize(
    "x, y",
    [
        (int("9" * 97), int("9" * 64)),  # 97 + 64 wedge columns: an odd count, and an even one for cross
        (int("9" * 97), int("9" * 63)),  # an even count of wedge columns, an odd one for cross
        (int("2" * 128), int("2" * 128)),
        (3**20959, 7),  # 10000 digits by one: one carry product
        (int("91" * 16), 10**40),  # divisor 10**40: ``b.digits[1:]`` is all zeros
        (10**40, int("5" * 40)),
    ],
    ids=["97x64", "97x63", "128x128", "10000x1", "32x41", "41x40"],
)
def test_kernel_paths_agree_on_column_counts_and_short_multipliers(x, y, monkeypatch):
    a, b = ds(x), ds(y)
    one_point, two_point = (all_columns(a, b) for _ in kernel_paths(monkeypatch, ("one-point", "two-point")))
    assert two_point == one_point
    assert [int(method(a, b)[0]) for method in MUL_METHODS.values()] == [x * y] * 3


def kernel_shapes():
    """``(seg_len, xs, ys)``: up to 16 by 16 values of ``seg_len`` digits each, zeros anywhere."""

    def values(seg_len):
        return st.lists(st.integers(0, 10**seg_len - 1), min_size=1, max_size=16).map(tuple)

    return st.sampled_from([1, 2, 3, 7]).flatmap(lambda L: st.tuples(st.just(L), values(L), values(L)))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kernel_shapes())
@example((1, (0, 5), (3,)))  # a leading zero, as in divmod's ``b.digits[1:]``
@example((1, (7,), (0, 0, 9)))  # a zero-led quotient
@example((1, (9,) * 16, (9,) * 16))
@example((7, (0,) * 15 + (1,), (9_999_999,) * 16))
@example((1, (0, 0), (4, 0)))  # divisor 100: its tail is all zeros
@example((7, (0,) * 16, (9_999_999,) * 16))  # zero columns, but factors that need four-byte slots
def test_basecase_and_packed_columns_agree(monkeypatch, shape):
    # the kernel takes digits with leading zeros (divmod passes them), and
    # cross also takes segments of any length; each path is set for each example
    seg_len, xs, ys = shape
    top = 10**seg_len - 1
    columns = []
    for _ in kernel_paths(monkeypatch):
        wedge_columns = list(cross_mul._wedge_columns(xs, ys)) if seg_len == 1 else None
        columns.append((list(cross_mul._convolve(xs, ys, top)), wedge_columns))
    assert columns[0] == columns[1] == columns[2]


# --- traces are built only when read ----------------------------------------


def test_trace_columns_are_built_only_when_read():
    with int_digit_limit(0):
        x = int("31415926535897932384626433832795028841971693993751" * 40)
        y = int("27182818284590452353602874713526624977572470936999" * 40)
    a, b = ds(x), ds(y)
    traces = [method(a, b)[1] for method in MUL_METHODS.values()] + [wedge_mul_single(a, 7)[1]]
    for trace in traces:
        assert len(trace.a) == 2000
        trace.column_value()
        assert "columns" not in trace.__dict__, trace.method

    _, trace = wedge_mul(ds(348), ds(697))
    assert "columns" not in trace.__dict__
    assert trace.columns is trace.columns
    assert "columns" in trace.__dict__

    expected = [
        (
            plum_mul(ds(386), ds(47))[1],
            "386 × 47  [plum]",
            "  col 0: 3×4=12, J(3♣7)=2, J(8♣4)=3 = 17",
            "  col 1: 3♣7=1, 8♣4=2, J(8♣7)=6, J(6♣4)=3 = 12",
            "  col 2: 8♣7=-4, 6♣4=-6, tens(6×7)=4 = -6",
            "  col 3: ones(6×7)=2 = 2",
            "  columns: (17,12,-6,2)",
            "  product: 18142",
        ),
        (
            rapid_mul(ds(2976), ds(2924), 2)[1],
            "2976 × 2924  [cross] (segments of 2)",
            "  col 0: 29×29=841 = 841",
            "  col 1: 29×24=696, 76×29=2204 = 2900",
            "  col 2: 76×24=1824 = 1824",
            "  columns: (841,2900,1824)",
            "  product: 8701824",
        ),
        (
            wedge_mul_single(ds(48), 7)[1],
            "48 × 7  [wedge_single]",
            "  col 0: 04⋈7=3 = 3",
            "  col 1: 48⋈7=4 = 4",
            "  col 2: 80⋈7=-4 = -4",
            "  columns: (3,4,-4)",
            "  product: 336",
        ),
    ]
    for trace, *lines in expected:
        assert "columns" not in trace.__dict__
        assert render_mul(trace).lines == tuple(lines)

    # the bench reads every term after its timed call
    rows = metrics_to_csv(run_bench(sizes=[4], trials=2, seed=3)).splitlines()
    assert all(int(row.split(",")[3]) > 0 for row in rows[1:])
