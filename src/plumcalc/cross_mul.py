"""Long multiplication by cross product sums, plum products, and wedge products.

All three methods build the same kind of intermediate: a signed column
sequence whose value already equals the product, which :func:`normalize`
then resolves into canonical digits.  Every method is one call of
``_multiply``, which reads the columns from ``_columns``, normalizes them and
returns a :class:`MulTrace` beside the product; the terms that went into every
column are built from the operands only when :attr:`MulTrace.columns` is first
read, sliced from the same per-kind grids of pairs that the trace text is.

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
multipoint form, Harvey, JSC 2009) and hands over only their two's-complement
slot bytes, which ``normalize`` and the division chain check read by byte planes
and a trace decodes.  Slot widths follow from the operand lengths and the largest
value a caller passes (9 for digits), not from a scan of the operands.  At or below
``_BASECASE_PAIRS``, the basecase visits each pair once: a cross pair adds
``x*y`` to its column, and a wedge pair adds its residue ``x ♣ y`` to column
``i+j+1`` and its carry ``J(x ♣ y)`` to column ``i+j``, read from the digit
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, repeat
from operator import getitem, itemgetter, mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .digit_core import _CARRY10, _CLUB10, _WEDGE10
from .digit_string import (
    DigitString,
    SignedDigitString,
    _from_slots,
    _horner,
    _slot_width,
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
        tables = _PAIR_TABLES if self.radix_power == 1 else None  # segments are multiplied out
        cells = _layout_cells(*_term_layout(self), tables, mul)
        return tuple(ColumnBreakdown(_terms(parts, values), sum(values)) for parts, values in cells)

    def column_value(self) -> int:
        """Value of the pre-normalization columns in radix ``10**radix_power``."""
        return self.signed.value() if self.radix_power == 1 else _horner(self.signed.columns, 10**self.radix_power)


def cross_sum(xs: list[int] | tuple[int, ...], ys: list[int] | tuple[int, ...]) -> int:
    """Cross product sum ``sum(xs[i] * ys[n-1-i])`` of two equal-length groups."""
    if len(xs) != len(ys):
        raise ValueError(f"cross product sum needs equal lengths, got {len(xs)} and {len(ys)}")
    if not xs:
        raise ValueError("cross product sum of empty groups is undefined")
    return sum(x * y for x, y in zip(xs, reversed(ys)))


# ---------------------------------------------------------------------------
# Column kernel

# Kernel calls with at most this many digit pairs (``len(xs) * len(ys)``) take
# the basecase, whose pair loop costs 0.1-0.15 µs a pair; packing costs 20-40 µs
# of C-level calls right after ``gc.collect()``, as perfbench times every call
# (3-7 µs warm, where both cross over near 64).  Process time on Python 3.11,
# medians of 101 alternated calls each after ``gc.collect()``, µs, packed →
# basecase: wedge 8×8 34.2 → 15.9, 12×12 38.6 → 23.1, 16×16 40.4 → 31.0, 24×12
# 38.2 → 37.1, 24×16 40.7 → 41.9; cross 8×8 24.9 → 12.8, 12×12 24.1 → 16.8,
# 16×16 25.3 → 22.7, 24×12 25.1 → 24.3, 24×16 25.6 → 28.0.
_BASECASE_PAIRS = 256

# Kernel calls whose packed products hold more digit pairs than this, counted
# as ``short**2`` per product for the shorter operand's length ``short``, take
# two points.  Halving the slots saves a share of each product's time, while
# the second point's masks and unpacking cost time in proportion to the
# operands, so the shorter length decides (a 10**4-by-1-digit product only
# loses) and wedge, with up to ten products a call, pays sooner than cross's
# one.  As above, µs, one point → two points: wedge 64² 50.5 → 53.5, 80² 57.4
# → 57.8, 88² 60.4 → 59.1, 96² 62.5 → 58.5, 104² 64.9 → 64.8, 10⁴×1 238 → 364;
# cross 224² 39.4 → 39.8, 256² 43.0 → 44.7, 320² 50.2 → 48.8, 352² 54.2 → 50.9:
# within a few percent of even up to the switch at 110 and 347 digits.
_TWO_POINT_PAIRS = 120_000

# ``_CARRY_BYTES[d]`` maps a digit byte x to J(x ♣ d); ``_INDICATOR_BYTES[d]``
# maps the byte d to 1 and every other byte to 0.  Both map 0 to 0 for d > 0,
# so they can be applied to already spread slots.
_CARRY_BYTES = tuple(bytes(_CARRY10[x][d] for x in range(10)) + bytes(246) for d in range(10))
_INDICATOR_BYTES = tuple(bytes(d) + b"\x01" + bytes(255 - d) for d in range(10))


def _slots(values: Sequence[int], width: int, top: int) -> bytes | bytearray:
    """Kronecker layout: ``values[i]`` little-endian in bytes ``[i*width, (i+1)*width)``, each at most ``top``."""
    if top > 255:
        return b"".join(v.to_bytes(width, "little") for v in values)
    if width == 1:
        return bytes(values)
    spread = bytearray(len(values) * width)
    spread[::width] = bytes(values)
    return spread


@lru_cache(maxsize=32)
def _repeated(unit: bytes, count: int) -> int:
    """The little-endian integer of ``count`` copies of ``unit``: a mask or an offset for every slot."""
    return int.from_bytes(unit * count, "little")


def _unslot(packed: int, count: int, width: int) -> bytes:
    """The ``count`` signed slots of ``packed``, each in ``[-2**(8*width-1), 2**(8*width-1))``, in two's complement.

    Half a slot added to every slot makes each one non-negative, so no borrow
    crosses a slot; xor-ing the half back leaves every slot in two's complement.
    """
    half = _repeated(bytes(width - 1) + b"\x80", count)  # 2**(8*width-1) in every slot
    return ((packed + half) ^ half).to_bytes(count * width, "little")


def _packed_columns(
    xs: Sequence[int], ys: Sequence[int], top: int, bound: int, digits: Sequence[int] | None = None
) -> tuple[bytes | bytearray, int]:
    """Columns of ``h = P``, or with the wedge carry ``digits`` of ``h = z*(P - 10*C) + C``, packed.

    ``xs`` and ``ys`` hold values in ``0..top``, and ``bound`` is at least twice
    every column's magnitude.  Packed products are exact at any slot width, so
    the slots only have to hold the columns.  Up to ``_TWO_POINT_PAIRS`` digit
    pairs (``short**2`` per product; 1 product for ``P`` and one per carry
    digit) every column is a slot of ``h(β)``, ``β = 2**(8*width)``.  Past it,
    slots of half the width give ``h(β)`` and ``h(-β)`` (``x(-β)`` is ``x(β)``
    less twice its odd slots): ``(h(β) + h(-β)) / 2`` holds the even columns and
    ``(h(β) - h(-β)) / (2*β)`` the odd ones, interleaved at the full width.
    Returns the columns' little-endian two's-complement slot bytes and their width.
    """
    count = len(xs) + len(ys) - (digits is None)
    width = _slot_width(bound)
    two_points = min(len(xs), len(ys)) ** 2 * (1 + len(digits or ())) > _TWO_POINT_PAIRS
    if two_points:
        width = (width + 1) // 2
        odd_slot = bytes(width) + b"\xff" * width  # every bit of the second of two slots
        mask_x, mask_y = _repeated(odd_slot, len(xs) // 2), _repeated(odd_slot, len(ys) // 2)
    spread_x, spread_y = _slots(xs, width, top), _slots(ys, width, top)
    operands = [(spread_x, spread_y)]  # P, then one carry product per digit
    operands += [(spread_x.translate(_CARRY_BYTES[d]), spread_y.translate(_INDICATOR_BYTES[d])) for d in digits or ()]
    at_plus, at_minus = [], []
    for left, right in operands:
        x, y = int.from_bytes(left, "little"), int.from_bytes(right, "little")
        at_plus.append(x * y)
        if two_points:  # an operand at -β is its value at β less twice its odd slots
            at_minus.append((x - ((x & mask_x) << 1)) * (y - ((y & mask_y) << 1)))
    plus, minus = at_plus[0], at_minus[0] if two_points else 0
    if digits is not None:
        carry_plus, carry_minus = sum(at_plus[1:]), sum(at_minus[1:])
        # z*(P - 10*C) + C at z = β and at z = -β
        plus = ((plus - 10 * carry_plus) << 8 * width) + carry_plus
        minus = carry_minus - ((minus - 10 * carry_minus) << 8 * width)
    if two_points:
        even = _unslot((plus + minus) >> 1, (count + 1) // 2, 2 * width)
        odd = _unslot((plus - minus) >> (8 * width + 1), count // 2, 2 * width)
        width *= 2
        raw = bytearray(count * width)
        for byte in range(width):
            raw[byte :: 2 * width] = even[byte::width]
            raw[width + byte :: 2 * width] = odd[byte::width]
        return raw, width
    return _unslot(plus, count, width), width


def _convolve(xs: Sequence[int], ys: Sequence[int], top: int) -> SignedDigitString:
    """``sum(xs[i]*ys[j] for i+j == k)`` for every ``k``, of values in ``0..top``, packed past the basecase."""
    if len(xs) * len(ys) <= _BASECASE_PAIRS:
        columns = [0] * (len(xs) + len(ys) - 1)
        for i, x in enumerate(xs):
            for k, y in enumerate(ys, i):
                columns[k] += x * y
        return SignedDigitString(tuple(columns))
    return _from_slots(*_packed_columns(xs, ys, top, 2 * top * top * min(len(xs), len(ys))))


def _wedge_columns(xs: tuple[int, ...], ys: tuple[int, ...], ends: Sequence[tuple[int, int]] = ()) -> SignedDigitString:
    """Wedge columns ``P[k-1] - 10*C[k-1] + C[k]`` for ``k`` in ``0..m+n-1``.

    ``C`` sums, per distinct non-zero digit ``d`` of ``ys``, the carries of
    ``xs`` against ``d`` times the places of ``d`` in ``ys``.  Packed sums are
    exact at any width, so slots only hold the columns: ``|col| <= 11*(min(m, n) + 1)``.
    The basecase adds each pair's residue and carry to their columns instead.
    With ``ends`` (plum's), column 0 is dropped and each ``(k, delta)`` adds ``delta`` to column ``k``.
    """
    if len(xs) * len(ys) <= _BASECASE_PAIRS:
        columns = [0] * (len(xs) + len(ys))
        for i, x in enumerate(xs):
            residue_of, carry_of = _CLUB10[x], _CARRY10[x]
            for k, y in enumerate(ys, i):
                columns[k] += carry_of[y]
                columns[k + 1] += residue_of[y]
        if ends:
            del columns[0]
            for k, delta in ends:
                columns[k] += delta
        return SignedDigitString(tuple(columns))
    present = bytes(ys)
    digits = [d for d in range(1, 10) if d in present]
    raw, width = _packed_columns(xs, ys, 9, 22 * (min(len(xs), len(ys)) + 1), digits)
    if ends:
        raw = bytearray(raw[width:])
        for k, delta in ends:
            slot = slice(k * width, (k + 1) * width or None)  # k = -1 runs to the end
            value = int.from_bytes(raw[slot], "little", signed=True) + delta
            raw[slot] = value.to_bytes(width, "little", signed=True)
    return _from_slots(raw, width)


def _plum_columns(xs: tuple[int, ...], ys: tuple[int, ...]) -> SignedDigitString:
    """Wedge columns one place lower, with the whole leading and split trailing products."""
    if len(xs) == len(ys) == 1:
        return SignedDigitString((xs[0] * ys[0],))
    x, y = xs[-1], ys[-1]
    ends = ((0, 10 * _CARRY10[xs[0]][ys[0]]), (-2, x * y // 10 - _CARRY10[x][y]), (-1, x * y % 10 - _CLUB10[x][y]))
    return _wedge_columns(xs, ys, ends)


def _cross_operands(a: DigitString, b: DigitString, seg_len: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Segments of both operands, the one with more segments first."""
    if seg_len == 1:  # the digits themselves, already checked by ``DigitString``
        sa, sb = a.digits, b.digits
    else:
        sa, sb = segment(a, seg_len).segments, segment(b, seg_len).segments
    return (sa, sb) if len(sa) >= len(sb) else (sb, sa)


def _columns(method: str, a: DigitString, b: DigitString, radix_power: int) -> SignedDigitString:
    """Signed columns of ``method`` (``cross`` in radix ``10**radix_power``), as the kernel built them."""
    if a.is_zero or b.is_zero:
        return SignedDigitString((0,))
    if method == "cross":
        return _convolve(*_cross_operands(a, b, radix_power), 10**radix_power - 1)
    if method == "plum":
        return _plum_columns(a.digits, b.digits)
    return _wedge_columns(a.digits, b.digits)


def _multiply(method: str, a: DigitString, b: DigitString, radix_power: int = 1) -> tuple[DigitString, MulTrace]:
    """The one path of every multiplication: columns, then ``normalize``, then the trace."""
    signed = _columns(method, a, b, radix_power)
    product = normalize(signed, radix_power)
    return product, MulTrace(method, a, b, radix_power, signed, product)


# ---------------------------------------------------------------------------
# Trace terms, built when ``MulTrace.columns`` or a division step's terms are
# read, from diagonals ``i + j == k`` of an operand grid, whose rows
# ``_diagonal_rows`` gives.  ``_layout_cells`` reads a whole trace, the parts
# ``_term_layout`` lists per column, as strided slices of one grid per kind, of
# values for ``MulTrace.columns`` or of text for ``trace.render_mul``, which so
# builds no term; ``_diagonal_terms`` reads a division step's one diagonal.


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


def _diagonal_rows(k: int, n: int, count: int, first: int = 0) -> range:
    """Rows ``i >= first`` of diagonal ``i + j == k`` of a grid of ``count`` rows by ``n`` columns ``j``."""
    start = k + 1 - n
    return range(start if start > first else first, k + 1 if k < count else count)


def _terms(parts: Iterable[tuple[str, int, range]], values: Iterable[int]) -> tuple[Term, ...]:
    """Terms of each ``(kind, diagonal, rows)`` part in turn, by ``tuple.__new__`` (``Term.__new__`` costs more)."""
    cells = iter(values)  # each part takes one per row, in row order
    fields = (zip(repeat(kind), rows, range(k - rows.start, k - rows.stop, -1), cells) for kind, k, rows in parts)
    return tuple(map(tuple.__new__, repeat(Term), chain.from_iterable(fields)))


def _layout_cells(
    xs: Sequence[int], ys: Sequence[int], layout: list, tables: dict | None, pair: Callable
) -> Iterator[tuple[list[tuple[str, int, range]], list]]:
    """Each column of ``layout``: its parts' ``(kind, diagonal, rows)``, and their cells in order.

    A kind's grid holds the rows its diagonals cross, row ``i`` at ``(i - first) * n``: ``itemgetter(*ys
    reversed)`` of ``tables[kind][xs[i]]`` (wedge: ``[xs[i]][xs[i+1]]``), or ``pair(x, y)`` of each pair.
    """
    n = len(ys)
    ys_reversed = ys[::-1]
    last = {kind: k for column in layout for kind, k in column}  # a kind's diagonals increase down the layout
    take = itemgetter(*ys_reversed) if n else None
    grids = {}
    for kind, k in {kind: k for column in reversed(layout) for kind, k in column}.items():
        count = len(xs) - (kind == "wedge")  # a wedge row is the window xs[i], xs[i+1]
        first, stop = _diagonal_rows(k, n, count).start, _diagonal_rows(last[kind], n, count).stop
        if tables is None:
            grid = [pair(x, y) for x in xs[first:stop] for y in ys_reversed]
        else:
            rows = map(tables[kind].__getitem__, xs[first:stop])
            if kind == "wedge":
                rows = map(getitem, rows, xs[first + 1 : stop + 1])
            rows = map(take, rows)  # a tuple per row, or one cell when n is 1
            grid = list(rows if n == 1 else chain.from_iterable(rows))
        grids[kind] = count, n - 1 - first * n, grid
    for column in layout:
        parts, cells = [], []
        for kind, k in column:
            count, base, grid = grids[kind]
            rows = _diagonal_rows(k, n, count)
            start = rows.start * (n + 1) - k + base  # row i's cell n - 1 - k + i: one slice of stride n + 1
            cells += grid[start : start + (n + 1) * len(rows) : n + 1]
            parts.append((kind, k, rows))
        yield parts, cells


def _diagonal_terms(
    kind: str, xs: Sequence[int], ys_reversed: Sequence[int], k: int, first: int = 0
) -> tuple[Term, ...]:
    """Terms of ``kind`` on rows ``i >= first`` of diagonal ``k`` alone, valued from ``_PAIR_TABLES``."""
    rows = _diagonal_rows(k, len(ys_reversed), len(xs) - (kind == "wedge"), first)
    start = len(ys_reversed) - 1 - k  # ys come reversed, so the rows' partners are one slice
    lefts, rights = xs[rows.start : rows.stop], ys_reversed[start + rows.start : start + rows.stop]
    if kind == "product":  # multiplied out, as products may pair segments
        return _terms([(kind, k, rows)], map(mul, lefts, rights))
    cells = map(_PAIR_TABLES[kind].__getitem__, lefts)
    if kind == "wedge":
        cells = map(getitem, cells, xs[rows.start + 1 : rows.stop + 1])
    return _terms([(kind, k, rows)], map(getitem, cells, rights))


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
