"""Long multiplication by cross product sums, plum products, and wedge products.

All three methods build the same kind of intermediate: a signed column
sequence whose value already equals the product, which :func:`normalize`
then resolves into canonical digits.  Every method is one call of
``_multiply``, which reads the columns from ``_columns``, normalizes them and
returns a :class:`MulTrace` beside the product; the terms that went into every
column are built from the operands only when :attr:`MulTrace.columns` is first
read, by the diagonal walker and pair tables that the trace text is read from.

Column conventions, 0-indexed from the most significant end:

* cross: column ``k`` is the cross product sum ``sum(a[i]*b[j] for i+j == k)``
  (optionally over fixed-length segments instead of digits).
* plum: residues ``a[i] ♣ b[j]`` land in column ``i+j+1`` and their carries
  ``J`` in column ``i+j``, except that the leading product ``a[0]*b[0]`` is
  kept whole and the trailing product splits on its plain ones digit, which
  is how the worked vertical layouts carry their last column.
* wedge: the multiplicand is padded with one zero on each end and column
  ``k`` sums ``(pad[i], pad[i+1]) ⋈ b[j]`` over ``i+j == k``; each wedge term
  already contains its neighbour's carry, so no separate J terms appear.

With ``P[k] = sum(a[i]*b[j])`` and ``C[k] = sum(J(a[i] ♣ b[j]))`` over
``i+j == k``, ``a ♣ c == a*c - 10*J(a ♣ c)`` makes a wedge column
``P[k-1] - 10*C[k-1] + C[k]`` and a plum column the wedge column one place
lower, with the leading and trailing products as fixed corrections.  As
polynomials in ``z``, the cross columns are ``P(z)`` and the wedge columns
``z*(P(z) - 10*C(z)) + C(z)``, where ``C`` is one product per distinct
multiplier digit.  Above ``_BASECASE_PAIRS`` digit pairs the kernel computes
columns without visiting the pairs one by one: ``_packed_columns`` packs the
operands one value per fixed-width byte slot into big integers, evaluates the
columns' polynomial at one or two points (Kronecker substitution, and its
multipoint form, Harvey, JSC 2009) and reads the columns back by signed
unpacks.  Slot widths follow from the operand lengths and the largest value a
caller passes (9 for digits), not from a scan of the operands.  At or below
``_BASECASE_PAIRS``, the basecase visits each pair once: a cross pair adds
``x*y`` to its column, and a wedge pair adds its residue ``x ♣ y`` to column
``i+j+1`` and its carry ``J(x ♣ y)`` to column ``i+j``, read from the digit
tables.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat, starmap
from operator import getitem, mul
from typing import Callable, Iterable, NamedTuple, Sequence

from .digit_core import _CARRY10, _CLUB10, _WEDGE10
from .digit_string import (
    DigitString,
    SignedDigitString,
    _horner,
    normalize,
    segment,
)

__all__ = [
    "Term",
    "ColumnBreakdown",
    "MulTrace",
    "cross_sum",
    "rapid_mul",
    "plum_mul",
    "wedge_mul_single",
    "wedge_mul",
    "MUL_METHODS",
]


class Term(NamedTuple):
    """One recorded contribution to a column.

    ``kind`` is one of ``residue`` (a[i] ♣ b[j]), ``carry`` (J(a[i] ♣ b[j])),
    ``product`` (a[i] * b[j] kept whole), ``product_ones`` / ``product_tens``
    (the decimal split of the trailing product), or ``wedge``
    ((pad[i], pad[i+1]) ⋈ b[j]).  ``i`` and ``j`` index the first and second
    operand's digits (``i`` indexes the padded multiplicand for wedge terms).
    """

    kind: str
    i: int
    j: int
    value: int


@dataclass(frozen=True)
class ColumnBreakdown:
    """Terms contributing to one output column; ``total`` is their sum."""

    terms: tuple[Term, ...]
    total: int


@dataclass(frozen=True, init=False)
class MulTrace:
    """Record of one multiplication: signed columns and final digits.

    The per-column terms are rebuilt from the operands when :attr:`columns`
    is first read; their totals equal ``signed.columns``.  Those are columns in
    radix ``10**radix_power``, so on a segment trace ``signed.value()``, which
    reads them in radix 10, is not the product; :meth:`column_value` is.
    """

    method: str
    a: DigitString
    b: DigitString
    radix_power: int
    signed: SignedDigitString
    product: DigitString

    def __init__(
        self,
        method: str,
        a: DigitString,
        b: DigitString,
        radix_power: int,
        signed: SignedDigitString,
        product: DigitString,
    ) -> None:
        fields = self.__dict__  # stored directly, as in ``SignedDigitString.__init__``
        fields["method"] = method
        fields["a"] = a
        fields["b"] = b
        fields["radix_power"] = radix_power
        fields["signed"] = signed
        fields["product"] = product

    @cached_property
    def columns(self) -> tuple[ColumnBreakdown, ...]:
        """Every column's terms, most significant column first."""
        xs, ys, layout = _term_layout(self)
        ys_reversed = ys[::-1]
        columns = []
        for parts in layout:
            terms = [term for kind, k in parts for term in _diagonal_terms(kind, xs, ys_reversed, k)]
            columns.append(ColumnBreakdown(tuple(terms), sum(t.value for t in terms)))
        return tuple(columns)

    def column_value(self) -> int:
        """Value of the pre-normalization columns in radix ``10**radix_power``."""
        return _horner(self.signed.columns, 10**self.radix_power)


def cross_sum(xs: list[int] | tuple[int, ...], ys: list[int] | tuple[int, ...]) -> int:
    """Cross product sum ``sum(xs[i] * ys[n-1-i])`` of two equal-length groups."""
    if len(xs) != len(ys):
        raise ValueError(f"cross product sum needs equal lengths, got {len(xs)} and {len(ys)}")
    if not xs:
        raise ValueError("cross product sum of empty groups is undefined")
    return sum(x * y for x, y in zip(xs, reversed(ys)))


# ---------------------------------------------------------------------------
# Column kernel

_SIGNED_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"} if sys.byteorder == "little" else {}

# Kernel calls with at most this many digit pairs (``len(xs) * len(ys)``) take
# the basecase: packing costs a fixed 3-7 µs of C-level calls, the pair loop
# about 0.1-0.15 µs a pair.  Process time on Python 3.11, best of 9, µs, packed
# → basecase: wedge 4×1 4.5 → 1.5, 4×4 6.5 → 2.5, 8×6 7.1 → 6.3, 8×7 7.9 → 7.2,
# 8×8 7.6 → 8.5, 12×6 7.9 → 9.6; cross 4×1 3.6 → 1.2, 4×4 3.6 → 1.6,
# 8×6 4.2 → 3.9, 8×7 4.3 → 4.3, 8×8 4.5 → 4.9, 12×6 4.6 → 6.2.  Both kernels
# cross over between 48 and 64 pairs.
_BASECASE_PAIRS = 48

# Kernel calls whose packed products hold more digit pairs than this, counted
# as ``short**2`` per product for the shorter operand's length ``short``, take
# two points.  Halving the slots saves a share of each product's time, while
# the second point's spreading and unpacking cost time in proportion to the
# operands, so the shorter length decides (a 10**4-by-1-digit product only
# loses) and wedge, with up to ten products a call, pays sooner than cross's
# one.  Process time on Python 3.11, best of 7-9, µs, one point → two points:
# wedge 64² 60.9 → 72.7, 96² 99.7 → 104, 112² 117 → 116, 128² 147 → 134,
# 256² 388 → 316, 10⁴×1 235 → 428; cross 128² 29.4 → 34.1, 256² 63.1 → 63.6,
# 320² 70.4 → 70.7, 384² 87.6 → 84.7, 1024² 604 → 492.
_TWO_POINT_PAIRS = 120_000

# ``_CARRY_BYTES[d]`` maps a digit byte x to J(x ♣ d); ``_INDICATOR_BYTES[d]``
# maps the byte d to 1 and every other byte to 0.  Both map 0 to 0 for d > 0,
# so they can be applied to already spread slots.
_CARRY_BYTES = tuple(bytes(_CARRY10[x][d] for x in range(10)) + bytes(246) for d in range(10))
_INDICATOR_BYTES = tuple(bytes(d) + b"\x01" + bytes(255 - d) for d in range(10))


def _slot_width(bound: int) -> int:
    """Bytes per packed slot for values up to ``bound``; 1, 2, 4 or 8 when they suffice."""
    need = (bound.bit_length() + 7) // 8
    if need <= 2:
        return need or 1
    if need <= 4:
        return 4
    if need <= 8:
        return 8
    return need


def _slots(values: Sequence[int], width: int, top: int) -> bytes | bytearray:
    """Kronecker layout: ``values[i]`` little-endian in bytes ``[i*width, (i+1)*width)``, each at most ``top``."""
    if top > 255:
        return b"".join(v.to_bytes(width, "little") for v in values)
    if width == 1:
        return bytes(values)
    spread = bytearray(len(values) * width)
    spread[::width] = bytes(values)
    return spread


def _odd_slots(spread: bytes | bytearray, width: int) -> bytearray:
    """``spread`` with its even slots zeroed: ``f(-β) = f(β) - 2*odd(β)`` for ``β = 2**(8*width)``."""
    odd = bytearray(len(spread))
    for byte in range(width, 2 * width):
        odd[byte :: 2 * width] = spread[byte :: 2 * width]
    return odd


def _at_points(
    spread_x: bytes | bytearray, odd_x: bytes | bytearray, spread_y: bytes | bytearray, odd_y: bytes | bytearray
) -> tuple[int, int]:
    """The product of two packed operands at ``β``, and at ``-β`` from their odd slots (0 when those are empty)."""
    x, y = int.from_bytes(spread_x, "little"), int.from_bytes(spread_y, "little")
    if not odd_x:
        return x * y, 0
    return x * y, (x - 2 * int.from_bytes(odd_x, "little")) * (y - 2 * int.from_bytes(odd_y, "little"))


@lru_cache(maxsize=32)
def _half_slots(count: int, width: int) -> int:
    """``2**(8*width-1)`` in each of ``count`` slots of ``width`` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _unslot(packed: int, count: int, width: int) -> list[int]:
    """The ``count`` signed slots of ``packed``, each in ``[-2**(8*width-1), 2**(8*width-1))``.

    Half a slot added to every slot makes each one non-negative, so no borrow
    crosses a slot; xor-ing the half back leaves every slot in two's complement.
    """
    half = _half_slots(count, width)
    raw = ((packed + half) ^ half).to_bytes(count * width, "little")
    if width in _SIGNED_FORMATS:
        return memoryview(raw).cast(_SIGNED_FORMATS[width]).tolist()
    return [int.from_bytes(raw[i : i + width], "little", signed=True) for i in range(0, len(raw), width)]


def _packed_columns(
    xs: Sequence[int], ys: Sequence[int], top: int, bound: int, digits: Sequence[int] | None = None
) -> list[int]:
    """Columns of ``h = P``, or with the wedge carry ``digits`` of ``h = z*(P - 10*C) + C``, packed.

    ``xs`` and ``ys`` hold values in ``0..top``, and ``bound`` is at least twice
    every column's magnitude.  Packed products are exact at any slot width, so
    the slots only have to hold the columns.  Up to ``_TWO_POINT_PAIRS`` digit
    pairs (``short**2`` per product; 1 product for ``P`` and one per carry
    digit) every column is a slot of ``h(β)``, ``β = 2**(8*width)``.  Past it,
    slots of half the width give ``h(β)`` and ``h(-β)``: ``(h(β) + h(-β)) / 2``
    holds the even columns and ``(h(β) - h(-β)) / (2*β)`` the odd ones, each in
    slots of the full width.
    """
    short = min(len(xs), len(ys))
    count = len(xs) + len(ys) - (digits is None)
    width = _slot_width(bound)
    two_points = short * short * (1 + len(digits or ())) > _TWO_POINT_PAIRS
    if two_points:
        width = (width + 1) // 2
    spread_x, spread_y = _slots(xs, width, top), _slots(ys, width, top)
    odd_x = odd_y = b""
    if two_points:
        odd_x, odd_y = _odd_slots(spread_x, width), _odd_slots(spread_y, width)
    plus, minus = _at_points(spread_x, odd_x, spread_y, odd_y)
    if digits is not None:
        carries_plus = carries_minus = 0
        for d in digits:
            carry_bytes, indicator_bytes = _CARRY_BYTES[d], _INDICATOR_BYTES[d]
            carry_plus, carry_minus = _at_points(
                spread_x.translate(carry_bytes),
                odd_x.translate(carry_bytes),
                spread_y.translate(indicator_bytes),
                odd_y.translate(indicator_bytes),
            )
            carries_plus += carry_plus
            carries_minus += carry_minus
        # z*(P - 10*C) + C at z = β and at z = -β
        plus = ((plus - 10 * carries_plus) << 8 * width) + carries_plus
        minus = carries_minus - ((minus - 10 * carries_minus) << 8 * width)
    if not two_points:
        return _unslot(plus, count, width)
    columns = [0] * count
    columns[::2] = _unslot((plus + minus) >> 1, (count + 1) // 2, 2 * width)
    columns[1::2] = _unslot((plus - minus) >> (8 * width + 1), count // 2, 2 * width)
    return columns


def _convolve(xs: Sequence[int], ys: Sequence[int], top: int) -> list[int]:
    """``sum(xs[i]*ys[j] for i+j == k)`` for every ``k``, of values in ``0..top``, packed past the basecase."""
    if len(xs) * len(ys) <= _BASECASE_PAIRS:
        columns = [0] * (len(xs) + len(ys) - 1)
        for i, x in enumerate(xs):
            for k, y in enumerate(ys, i):
                columns[k] += x * y
        return columns
    return _packed_columns(xs, ys, top, 2 * top * top * min(len(xs), len(ys)))


def _wedge_columns(xs: tuple[int, ...], ys: tuple[int, ...]) -> list[int]:
    """Wedge columns ``P[k-1] - 10*C[k-1] + C[k]`` for ``k`` in ``0..m+n-1``.

    ``C`` sums, per distinct non-zero digit ``d`` of ``ys``, the carries of
    ``xs`` against ``d`` times the places of ``d`` in ``ys``.  Packed sums are
    exact at any width, so slots only hold the columns: ``|col| <= 11*(min(m, n) + 1)``.
    The basecase adds each pair's residue and carry to their columns instead.
    """
    if len(xs) * len(ys) <= _BASECASE_PAIRS:
        columns = [0] * (len(xs) + len(ys))
        for i, x in enumerate(xs):
            residue_of, carry_of = _CLUB10[x], _CARRY10[x]
            for k, y in enumerate(ys, i):
                columns[k] += carry_of[y]
                columns[k + 1] += residue_of[y]
        return columns
    present = bytes(ys)
    digits = [d for d in range(1, 10) if d in present]
    return _packed_columns(xs, ys, 9, 22 * (min(len(xs), len(ys)) + 1), digits)


def _plum_columns(xs: tuple[int, ...], ys: tuple[int, ...]) -> list[int]:
    """Wedge columns one place lower, with the whole leading and split trailing products."""
    if len(xs) == len(ys) == 1:
        return [xs[0] * ys[0]]
    columns = _wedge_columns(xs, ys)[1:]
    columns[0] += 10 * _CARRY10[xs[0]][ys[0]]
    x, y = xs[-1], ys[-1]
    columns[-2] += x * y // 10 - _CARRY10[x][y]
    columns[-1] += x * y % 10 - _CLUB10[x][y]
    return columns


def _cross_operands(a: DigitString, b: DigitString, seg_len: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Segments of both operands, the one with more segments first."""
    if seg_len == 1:  # the digits themselves, already checked by ``DigitString``
        sa, sb = a.digits, b.digits
    else:
        sa, sb = segment(a, seg_len).segments, segment(b, seg_len).segments
    return (sa, sb) if len(sa) >= len(sb) else (sb, sa)


def _columns(method: str, a: DigitString, b: DigitString, radix_power: int) -> list[int]:
    """Signed columns of ``method`` (``cross`` in radix ``10**radix_power``); a single 0 when a factor is zero."""
    if a.is_zero or b.is_zero:
        return [0]
    if method == "cross":
        return _convolve(*_cross_operands(a, b, radix_power), 10**radix_power - 1)
    if method == "plum":
        return _plum_columns(a.digits, b.digits)
    return _wedge_columns(a.digits, b.digits)


def _multiply(method: str, a: DigitString, b: DigitString, radix_power: int = 1) -> tuple[DigitString, MulTrace]:
    """The one path of every multiplication: columns, then ``normalize``, then the trace."""
    signed = SignedDigitString(tuple(_columns(method, a, b, radix_power)))
    product = normalize(signed, radix_power)
    return product, MulTrace(method, a, b, radix_power, signed, product)


# ---------------------------------------------------------------------------
# Trace terms, generated when ``MulTrace.columns`` or a division step's terms
# are read.  Every term list is made of whole or clipped diagonals
# ``i + j == k`` of an operand grid, walked by ``_diagonal_cells``: the parts
# ``_term_layout`` lists for each multiplication column here, and one per step
# in ``plum_div``, whose partial products pair the divisor with the quotient
# digits chosen so far.  ``_diagonal_terms`` reads the cells' values from
# ``_PAIR_TABLES``; ``trace.render_mul`` reads their text from tables built
# from ``_PAIR_TABLES``, and so builds no term.


def _term_layout(trace: MulTrace) -> tuple[Sequence[int], Sequence[int], list[tuple[tuple[str, int], ...]]]:
    """The two sequences the term indices of ``trace`` point into, and each column's ``(kind, diagonal)`` parts.

    Cross terms index the segments, longer operand first, and wedge terms the
    multiplicand padded with one zero on each end.  Columns run most significant
    first.  Cross and wedge column ``k`` is diagonal ``k``.  Plum column ``k``
    holds the residues of diagonal ``k`` and the carries of diagonal ``k + 1``,
    but the leading product stays whole, and the trailing product, alone on the
    last diagonal, puts its tens in the second-to-last column and its ones in the last.
    """
    a, b = trace.a, trace.b
    if a.is_zero or b.is_zero:
        return (), (), [()]  # one column of no terms, and a zero product's segment length is never checked
    count = len(trace.signed.columns)
    if trace.method == "cross":
        return *_cross_operands(a, b, trace.radix_power), [(("product", k),) for k in range(count)]
    if trace.method != "plum":
        return (0,) + a.digits + (0,), b.digits, [(("wedge", k),) for k in range(count)]
    last = count - 1
    if not last:
        return a.digits, b.digits, [(("product", 0),)]
    layout = [(("residue" if k else "product", k), ("carry", k + 1)) for k in range(last)]
    layout[-1] = (layout[-1][0], ("product_tens", last))
    return a.digits, b.digits, layout + [(("product_ones", last),)]


# Values of the digit-pair kinds, ``table[x][y]``: ``x*y`` whole, split into residue and
# carry, or into tens and ones; a wedge value is ``[a][b][c]``, of the window ``(a, b)`` against ``c``.
_PAIR_TABLES = {
    "product": tuple(tuple(x * y for y in range(10)) for x in range(10)),
    "residue": _CLUB10,
    "carry": _CARRY10,
    "product_tens": tuple(tuple(x * y // 10 for y in range(10)) for x in range(10)),
    "product_ones": tuple(tuple(x * y % 10 for y in range(10)) for x in range(10)),
    "wedge": _WEDGE10,
}


def _diagonal_cells(
    kind: str, xs: Sequence[int], ys_reversed: Sequence[int], k: int, tables: dict | None, first: int = 0
) -> tuple[range, Iterable]:
    """Rows ``i >= first`` of diagonal ``k`` of ``xs`` against ``ys``, and the cell of each row, in order.

    A cell is ``tables[kind][xs[i]][ys[k - i]]``, or without ``tables`` the pair
    ``(xs[i], ys[k - i])``.  A wedge cell is ``tables["wedge"][xs[i]][xs[i+1]][ys[k - i]]``,
    so its rows are the ``len(xs) - 1`` windows of ``xs``.  ``ys`` comes reversed,
    so that the partners of a diagonal's rows are one slice.  The range of rows
    may run past the last row of ``xs``; the cells, cut by the slices, stop there.
    """
    wedge = kind == "wedge"
    start = len(ys_reversed) - 1 - k
    rows = range(max(first, -start), k + 1)
    lefts, rights = xs[rows.start : rows.stop], ys_reversed[start + rows.start : start + rows.stop]
    if tables is None:
        return rows, zip(lefts, rights)
    cells = map(tables[kind].__getitem__, lefts)
    if wedge:
        cells = map(getitem, cells, xs[rows.start + 1 : rows.stop + 1])
    return rows, map(getitem, cells, rights)


def _diagonal_terms(kind: str, xs: Sequence[int], ys_reversed: Sequence[int], k: int, first: int = 0) -> list[Term]:
    """Terms of ``kind`` on the cells of ``_diagonal_cells``, valued from ``_PAIR_TABLES``.

    Products are multiplied out instead, since they may pair segments.  Each
    ``Term`` is made by ``tuple.__new__``, skipping the namedtuple's Python-level
    ``__new__``, which costs more than the values themselves.
    """
    product = kind == "product"
    rows, cells = _diagonal_cells(kind, xs, ys_reversed, k, None if product else _PAIR_TABLES, first)
    values = starmap(mul, cells) if product else cells
    columns = range(k - rows.start, k - rows.stop, -1)
    return list(map(tuple.__new__, repeat(Term), zip(repeat(kind), rows, columns, values)))


# ---------------------------------------------------------------------------
# Public methods


def rapid_mul(a: DigitString, b: DigitString, seg_len: int = 1) -> tuple[DigitString, MulTrace]:
    """Plain rapid multiplication via cross product sums over segments.

    The operand with more segments plays the multiplicand, so the result has
    ``m + n - 1`` columns in radix ``10**seg_len`` whatever the argument order.
    """
    return _multiply("cross", a, b, seg_len)


def plum_mul(a: DigitString, b: DigitString) -> tuple[DigitString, MulTrace]:
    """Multiplication by plum products: residues in place, carries shifted up.

    The leading column keeps ``a[0]*b[0]`` whole and the trailing column keeps
    the plain ones digit of the last product (its tens joining the column
    above), matching the worked column layouts; every other product appears as
    a residue term plus a carry term one column up.
    """
    return _multiply("plum", a, b)


def wedge_mul_single(a: DigitString, c: int) -> tuple[DigitString, MulTrace]:
    """Streaming multiplication by a single digit: one wedge term per column.

    The multiplicand gets one zero pad on each end; column ``i`` is the wedge
    product of the window ``(pad[i], pad[i+1])`` with ``c``, giving exactly
    ``len(a) + 1`` columns, each within [-6, 11].
    """
    if not 0 <= c <= 9:
        raise ValueError(f"multiplier must be a digit in 0..9, got {c}")
    return _multiply("wedge_single", a, DigitString((c,)))


def wedge_mul(a: DigitString, b: DigitString) -> tuple[DigitString, MulTrace]:
    """General wedge multiplication.

    The first operand is the padded multiplicand; column ``k`` sums the wedge
    products of its windows with the multiplier digits along ``i + j == k``,
    for ``len(a) + len(b)`` columns in total.
    """
    return _multiply("wedge", a, b)


MUL_METHODS: dict[str, Callable[[DigitString, DigitString], tuple[DigitString, MulTrace]]] = {
    "cross": rapid_mul,
    "plum": plum_mul,
    "wedge": wedge_mul,
}
