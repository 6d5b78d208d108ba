"""Digit strings, signed columns, segmentation, and carry normalization."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from int_limits import int_digit_limit
from plumcalc import digit_string
from plumcalc.digit_string import (
    _BLOCK,
    _LEAF,
    _DECIMAL_LOOP,
    _NUMERAL_BYTES,
    DigitString,
    SegmentString,
    SignedDigitString,
    _decimal_digits,
    _decimal_text,
    _horner,
    _plane_value,
    _split,
    normalize,
    normalize_stats,
    parse,
    segment,
)
from slot_bytes import packed
from strategies import numerals


def test_parse_examples():
    assert parse("123 456").digits == (1, 2, 3, 4, 5, 6)
    assert parse("0").digits == (0,)
    assert parse("007").digits == (7,)
    assert parse("1_000").digits == (1, 0, 0, 0)


@pytest.mark.parametrize("bad", ["", "  ", "12a", "-5", "1.5", "12 34"])
def test_parse_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        parse(bad)


def test_digit_string_invariants():
    # the public constructor keeps its check, though the library's own results skip it
    with pytest.raises(ValueError, match=r"^digit string must not be empty$"):
        DigitString(())
    with pytest.raises(ValueError, match=r"^leading zero in digit string: \(0, 1\)$"):
        DigitString((0, 1))
    with pytest.raises(ValueError, match=r"^digits must lie in 0\.\.9: \(1, 10\)$"):
        DigitString((1, 10))
    assert DigitString((0,)).is_zero


@settings(max_examples=200)
@given(
    numerals(700),
    st.text("0123456789 _", min_size=1, max_size=40).filter(lambda t: any(c.isdigit() for c in t)),
    st.integers(min_value=1, max_value=3),
    st.lists(st.integers(min_value=-(10**5), max_value=10**5), max_size=24),
)
def test_results_built_unchecked_pass_the_public_check(value, text, radix_power, columns):
    # from_int, parse, normalize_stats and normalize build their results without DigitString's check
    results = [DigitString.from_int(value), parse(text)]
    s = SignedDigitString((10**5, *columns))  # the leading column keeps the value non-negative
    results += [normalize_stats(s, radix_power)[0], normalize(s, radix_power)]
    for result in results:
        assert type(result) is DigitString
        assert DigitString(result.digits) == result


@pytest.mark.parametrize("digits", [(1.5,), (-1,), (10,), (256,), (3, 1.0), (7, -300)])
def test_digit_string_rejects_values_that_are_not_digits(digits):
    with pytest.raises(ValueError, match=r"^digits must lie in 0\.\.9: "):
        DigitString(digits)


@given(st.integers(min_value=0, max_value=10**40))
def test_parse_format_round_trip(value):
    ds = DigitString.from_int(value)
    assert int(parse(str(ds))) == value
    assert parse(str(ds)) == ds


@pytest.mark.parametrize(
    "text",
    ["0", "000", "7", "0070", "1234567890", "9" * 64, "10" * 320, "0" * 3 + "31415926535897932384" * 250],
    ids=lambda s: f"{len(s)}d",
)
def test_str_round_trips_numerals(text):
    assert str(parse(text)) == (text.lstrip("0") or "0")


def test_segment_examples():
    ds = parse("123456")
    assert segment(ds, 2).segments == (12, 34, 56)
    assert segment(ds, 3).segments == (123, 456)
    assert segment(parse("7"), 3).segments == (7,)


def test_segment_rejects_zero_length():
    with pytest.raises(ValueError):
        segment(parse("12"), 0)


@given(st.integers(min_value=0, max_value=10**64), st.integers(min_value=1, max_value=4))
def test_segment_reassemble_identity(value, length):
    ds = DigitString.from_int(value)
    assert segment(ds, length).value() == value


def test_value_of_examples():
    assert SignedDigitString((17, 12, -6, 2)).value() == 18142
    assert SignedDigitString((2, 4, 2, 5, 6, -4)).value() == 242556
    assert SignedDigitString(()).value() == 0
    assert SignedDigitString((3, 2, 1, -2, 4, 7, 8, 2, 2)).value() == 320847822


def test_normalize_examples():
    assert str(normalize(SignedDigitString((4, 13, 28, 27, 18)))) == "56088"
    assert str(normalize(SignedDigitString((3, 2, 1, -2, 4, 7, 8, 2, 2)))) == "320847822"
    assert str(normalize(SignedDigitString((0,)))) == "0"
    assert str(normalize(SignedDigitString(()))) == "0"
    assert str(normalize(SignedDigitString((841, 2900, 1824)), 2)) == "8701824"


def test_normalize_rejects_negative_value():
    with pytest.raises(ValueError):
        normalize(SignedDigitString((-1,)))
    with pytest.raises(ValueError):
        normalize(SignedDigitString((1, -25)))


def test_from_int_and_normalize_reject_with_their_messages():
    with pytest.raises(ValueError, match=re.escape("digit strings represent non-negative integers, got -1")):
        DigitString.from_int(-1)
    with pytest.raises(ValueError, match=re.escape("radix power must be positive, got 0")):
        normalize(SignedDigitString((1,)), 0)


signed_columns = st.lists(st.integers(min_value=-500, max_value=500), min_size=0, max_size=24)


@given(signed_columns)
def test_normalize_preserves_value(columns):
    s = SignedDigitString(tuple(columns))
    if s.value() < 0:
        with pytest.raises(ValueError):
            normalize(s)
        return
    result = normalize(s)
    assert int(result) == s.value()
    assert all(0 <= d <= 9 for d in result.digits)
    # canonical: no leading zero unless the value is zero
    assert result.digits[0] != 0 or result.digits == (0,)


@given(signed_columns, st.integers(min_value=1, max_value=3))
def test_normalize_radix_power_preserves_value(columns, radix_power):
    s = SignedDigitString(tuple(columns))
    radix = 10**radix_power
    true_value = 0
    for c in s.columns:
        true_value = true_value * radix + c
    if true_value < 0:
        with pytest.raises(ValueError):
            normalize(s, radix_power)
        return
    assert int(normalize(s, radix_power)) == true_value


def test_normalize_stats_counts_carries():
    _, carries = normalize_stats(SignedDigitString((1, 2, 3)))
    assert carries == 0
    _, carries = normalize_stats(SignedDigitString((4, 13, 28, 27, 18)))
    assert carries > 0


def normalize_stats_reference(s, radix_power=1):
    """The per-column loop ``normalize_stats`` is checked against: one ``_decimal_digits`` per limb."""
    if radix_power < 1:
        raise ValueError(f"radix power must be positive, got {radix_power}")
    radix = 10**radix_power
    limbs = []  # least significant first
    carry = 0
    carries = 0
    for column in reversed(s.columns):
        carry, limb = divmod(column + carry, radix)
        limbs.append(limb)
        if carry:
            carries += 1
    if carry < 0:
        raise ValueError("signed digit string has negative total value")
    limbs.reverse()
    if radix_power > 1:
        limbs = [d for limb in limbs for d in _decimal_digits(limb, radix_power)]
    digits = (*_decimal_digits(carry), *limbs)
    first = next((i for i, d in enumerate(digits) if d), len(digits) - 1)
    return DigitString(digits[first:]), carries


def assert_normalize_matches_reference(columns, radix_power):
    """``normalize_stats`` and ``normalize`` (one leaf up to ``_LEAF`` radix-10 columns) give the reference's result."""
    s = SignedDigitString(tuple(columns))
    try:
        expected = normalize_stats_reference(s, radix_power)
    except ValueError as exc:
        for function in (normalize_stats, normalize):
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                function(s, radix_power)
        return
    assert normalize_stats(s, radix_power) == expected
    assert normalize(s, radix_power) == expected[0]


@pytest.mark.parametrize("count", [_LEAF - 1, _LEAF, _LEAF + 1, 36, _DECIMAL_LOOP, _DECIMAL_LOOP + 1])
def test_normalize_matches_the_reference_loop_around_the_leaf_size(count):
    # up to _DECIMAL_LOOP radix-10 columns are one Horner loop, leaves of _LEAF beyond
    rng = random.Random(count)
    columns = [rng.randrange(-99, 100) for _ in range(count)]
    # leading columns of ±3 * 10**30 fix the total's sign, small ones may not, and 0 leaves a leading zero column
    for lead in (3 * 10**30, -3 * 10**30, 3, -3, 0):
        assert_normalize_matches_reference([lead, *columns[1:]], 1)
    assert_normalize_matches_reference([0] * (count - 1) + [-1], 1)
    assert_normalize_matches_reference([1] + [0] * (count - 2) + [-1], 1)
    with pytest.raises(ValueError, match=r"^signed digit string has negative total value$"):
        normalize(SignedDigitString((-1,) + (9,) * (count - 1)))


@settings(max_examples=300)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.integers(min_value=0, max_value=4),  # leading zero columns
            st.lists(st.integers(min_value=-(10 ** (p + 2)), max_value=10 ** (p + 2)), max_size=300),
        )
    )
)
def test_normalize_stats_matches_the_reference_loop(case):
    radix_power, zeros, columns = case
    assert_normalize_matches_reference([0] * zeros + columns, radix_power)


@pytest.mark.parametrize("radix_power", [1, 4, 512, 513, 700])
def test_normalize_stats_matches_the_reference_loop_on_long_limbs(radix_power):
    # limbs past the int/str block, under the smallest limit the interpreter allows
    rng = random.Random(radix_power)
    radix = 10**radix_power
    columns = [0, 0, rng.randrange(radix), -rng.randrange(radix), 0, 81 * radix + 5, -1, radix - 1]
    with int_digit_limit(640):
        assert_normalize_matches_reference(columns, radix_power)
        assert_normalize_matches_reference([-c for c in columns], radix_power)
        assert_normalize_matches_reference([0, 0, 0], radix_power)


def test_segment_string_validation():
    with pytest.raises(ValueError):
        SegmentString(0, (1,))
    with pytest.raises(ValueError):
        SegmentString(2, (100,))


# ---------------------------------------------------------------------------
# Radix conversion, against int(str) and str(int) with the limit lifted

# 1, the Horner leaf (16) and the int/str block (512) and their doubles, each +-1
EDGE_LENGTHS = (1, 2, 15, 16, 17, 31, 32, 33, 511, 512, 513, 1023, 1024, 1025, 20000)


def horner_reference(values, radix):
    total = 0
    for v in values:
        total = total * radix + v
    return total


def numeral_texts(length: int, seed: int) -> list[str]:
    """Random digits, a power of ten and all nines, each ``length`` digits long."""
    rng = random.Random(seed)
    random_text = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(length - 1))
    return [random_text, "1" + "0" * (length - 1), "9" * length]


@pytest.mark.parametrize("length", EDGE_LENGTHS)
@pytest.mark.parametrize("radix", [10, 10**3])
def test_horner_matches_the_plain_loop_on_signed_values(length, radix):
    rng = random.Random(length * radix)
    bound = 11 * radix
    values = tuple(rng.randint(-bound, bound) for _ in range(length))
    assert _horner(values, radix) == horner_reference(values, radix)
    assert _horner(list(values), radix) == horner_reference(values, radix)
    assert _horner((), radix) == 0


@pytest.mark.parametrize(
    "length, leaf, low",
    [(17, 16, 16), (32, 16, 16), (33, 16, 32), (40, 16, 32), (65, 16, 64), (513, 512, 512), (1024, 512, 512), (1025, 512, 1024)],
)
def test_split_takes_the_largest_leaf_times_a_power_of_two_below_the_length(length, leaf, low):
    assert _split(length, leaf) == low


# either side of a tuple's one radix-10 Horner loop and of one and two 512-column blocks
PLANE_LENGTHS = (_DECIMAL_LOOP, _DECIMAL_LOOP + 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1)
# digits, the largest 2-byte column, the first past 2, 4 and 8 bytes, and one past 64 bits
PLANE_EXTREMES = (9, 2**15 - 1, 2**15, 2**31, 2**63, 3 * 2**64 + 5)


def assert_reads_match_the_loops(s, columns):
    """``normalize(s)`` gives ``normalize_stats``' digits or error, and ``s.value()`` the plain loop's on ``columns``."""
    try:
        expected = normalize_stats(s)[0]
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            normalize(s)
    else:
        assert normalize(s) == expected
    assert s.value() == horner_reference(columns, 10)


def assert_planes_match_the_loops(columns):
    """The reads match the loops on ``columns`` built as a tuple (``_horner``, ``_decimal_text``) and as slots (byte planes)."""
    assert_reads_match_the_loops(SignedDigitString(tuple(columns)), columns)
    assert_reads_match_the_loops(packed(columns), columns)


@pytest.mark.parametrize("extreme", PLANE_EXTREMES)
@pytest.mark.parametrize("count", PLANE_LENGTHS)
def test_byte_planes_match_the_loops_at_every_packing_width(count, extreme):
    rng = random.Random(count + extreme)
    small = [rng.randint(-99, 99) for _ in range(count)]
    # +-extreme and -extreme - 1 at a few places: the edges of the signed range of each width
    spiked = list(small)
    for place in rng.sample(range(count), 6):
        spiked[place] = rng.choice((extreme, -extreme, -extreme - 1))
    negative = [-rng.randint(0, extreme) for _ in range(count)]
    with int_digit_limit(640):
        for columns in (spiked, negative, [c - extreme for c in small]):
            for lead in (0, 1, -1, 10 * extreme, -10 * extreme):
                assert_planes_match_the_loops([lead, *columns[1:]])
        # a negative total only the last column makes, a total of 1 and a zero total
        assert_planes_match_the_loops([0] * (count - 1) + [-1])
        assert_planes_match_the_loops([1] + [-9] * (count - 1))
        assert_planes_match_the_loops([0] * count)


@pytest.mark.parametrize("count", PLANE_LENGTHS)
def test_byte_planes_skip_an_all_zero_top_plane(count):
    # columns that need 3 bytes pack into 4 with an all-zero top plane, which is
    # skipped and the planes below it read unsigned, with no repunit offset
    rng = random.Random(count)
    columns = [rng.randrange(2**23) for _ in range(count)]
    columns[rng.randrange(count)] = 2**23 - 1
    raw, width = packed(columns)._slots
    assert width == 4 and not raw[3::4].strip(b"\0")
    assert _plane_value(raw, width) == horner_reference(columns, 10)
    with int_digit_limit(640):
        assert_planes_match_the_loops(columns)
        assert_planes_match_the_loops([0] * (count - 1) + [2**16])
        # a negative column fills the top plane again; a negative total still raises
        assert_planes_match_the_loops([-1, *columns[1:]])
        for negative in (SignedDigitString((-(10**8), *columns[1:])), packed((-(10**8), *columns[1:]))):
            with pytest.raises(ValueError, match=r"^signed digit string has negative total value$"):
                normalize(negative)
        # and so does one column that needs all 4 bytes
        assert_planes_match_the_loops([*columns[:-1], 2**31 - 1])


@pytest.mark.parametrize("count", [_DECIMAL_LOOP + 1, 257, _BLOCK + 1, 2 * _BLOCK + 1])
def test_a_column_tuple_is_read_whole_and_never_packed(count, monkeypatch):
    # a basecase kernel makes at most 257 columns; a caller's tuple of any
    # length is read by _horner, and neither value() nor normalize packs it
    def unreachable(raw, width):
        raise AssertionError("a column tuple was read by byte planes")

    monkeypatch.setattr(digit_string, "_plane_value", unreachable)
    rng = random.Random(count)
    columns = [rng.randint(-99, 99) for _ in range(count)]
    with int_digit_limit(640):
        for lead in (10**30, 1, 0, -1, -(10**30)):
            s = SignedDigitString((lead, *columns[1:]))
            assert_reads_match_the_loops(s, s.columns)
            assert "_slots" not in s.__dict__


@pytest.mark.parametrize("length", EDGE_LENGTHS)
def test_digit_conversions_match_int_and_str(length):
    for text in numeral_texts(length, length):
        with int_digit_limit(0):
            value = int(text)
        ds = parse(text)
        assert int(ds) == value
        assert _horner(ds.digits, 10) == value
        assert DigitString.from_int(value) == ds
        assert _decimal_text(value) == text
        assert _decimal_text(-value) == "-" + text
        for count in (length - 1, length, length + 1, length + 600):
            assert _decimal_digits(value, count).translate(_NUMERAL_BYTES).decode() == text.zfill(count)
    assert _decimal_digits(0, length) == bytes(length)


@pytest.mark.parametrize("length", [2, 3, 16, 511, 512, 513, 1025])
def test_segment_matches_int_of_each_chunk(length):
    text = numeral_texts(3 * length + 1, length)[0]
    padded = text.zfill(-(-len(text) // length) * length)
    with int_digit_limit(0):
        expected = tuple(int(padded[i : i + length]) for i in range(0, len(padded), length))
        value = int(text)
    segments = segment(parse(text), length)
    assert segments.segments == expected
    assert segments.value() == value


@settings(max_examples=60, deadline=None)
@given(numerals(3000), st.integers(0, 3100))
def test_conversions_round_trip_property(value, count):
    with int_digit_limit(0):
        text = str(value)
    assert _decimal_text(value, count) == text.zfill(count)
    assert DigitString.from_int(value) == parse(text)
    assert int(parse(text)) == value


def test_conversions_stay_below_the_smallest_int_string_limit():
    # 640 is the smallest limit the interpreter accepts; every int/str call is a block of at most 512 digits
    texts = numeral_texts(20000, 7)
    with int_digit_limit(0):
        values = [int(text) for text in texts]
    with int_digit_limit(640):
        for text, value in zip(texts, values):
            assert int(parse(text)) == value
            assert str(DigitString.from_int(value)) == text
            assert _decimal_text(-value) == "-" + text
            assert segment(parse(text), 700).value() == value
