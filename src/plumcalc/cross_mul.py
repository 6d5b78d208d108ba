"""Long multiplication by cross product sums, plum products, and wedge products.

All three methods build the same kind of intermediate: a signed column
sequence whose value already equals the product, which :func:`normalize`
then resolves into canonical digits.  Each method also returns a
:class:`MulTrace`; the terms that went into every column are built from the
operands only when :attr:`MulTrace.columns` is first read.

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

The kernel computes columns without visiting digit pairs one by one.  With
``P[k] = sum(a[i]*b[j])`` and ``C[k] = sum(J(a[i] ♣ b[j]))`` over ``i+j == k``,
``a ♣ c == a*c - 10*J(a ♣ c)`` makes the residue sums ``P[k] - 10*C[k]``, so a
wedge column is ``P[k-1] - 10*C[k-1] + C[k]`` and a plum column is the wedge
column one place lower, with the leading and trailing products as fixed
corrections.  ``P`` is one convolution and ``C`` is one convolution per
distinct multiplier digit; each convolution is a single big-integer product
of operands packed one value per fixed-width byte slot (Kronecker
substitution), and every slot stays non-negative because no residue is packed.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .digit_core import _CARRY10, carry, clubsuit, wedge
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


@dataclass(frozen=True)
class MulTrace:
    """Record of one multiplication: signed columns and final digits.

    The per-column terms are rebuilt from the operands when :attr:`columns`
    is first read; their totals equal ``signed.columns``.
    """

    method: str
    a: DigitString
    b: DigitString
    radix_power: int
    signed: SignedDigitString
    product: DigitString

    @cached_property
    def columns(self) -> tuple[ColumnBreakdown, ...]:
        """Every column's terms, most significant column first."""
        return tuple(
            ColumnBreakdown(tuple(terms), sum(t.value for t in terms)) for terms in _column_terms(self)
        )

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

_NATIVE_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}

# ``_CARRY_BYTES[d]`` maps a digit byte x to J(x ♣ d); ``_INDICATOR_BYTES[d]``
# maps the byte d to 1 and every other byte to 0.  Both map 0 to 0 for d > 0,
# so they can be applied to already spread slots.
_CARRY_BYTES = tuple(bytes(_CARRY10[x][d] for x in range(10)) + bytes(246) for d in range(10))
_INDICATOR_BYTES = tuple(bytes(d) + b"\x01" + bytes(255 - d) for d in range(10))


def _slot_width(bound: int) -> int:
    """Bytes per packed slot for values up to ``bound``; 1, 2, 4 or 8 when they suffice."""
    need = max(1, (bound.bit_length() + 7) // 8)
    return next((w for w in (1, 2, 4, 8) if w >= need), need)


def _slots(values: Sequence[int], width: int) -> bytes | bytearray:
    """Kronecker layout: ``values[i]`` little-endian in bytes ``[i*width, (i+1)*width)``."""
    if max(values) > 255:
        return b"".join(v.to_bytes(width, "little") for v in values)
    spread = bytearray(len(values) * width)
    spread[::width] = bytes(values)
    return spread


def _unslot(packed: int, count: int, width: int) -> list[int]:
    """Inverse of :func:`_slots` for ``count`` non-negative slots of a packed product."""
    raw = packed.to_bytes(count * width, "little")
    if width in _NATIVE_FORMATS:
        return memoryview(raw).cast(_NATIVE_FORMATS[width]).tolist()
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def _convolve(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """``sum(xs[i]*ys[j] for i+j == k)`` for every ``k``, by one packed product."""
    width = _slot_width(max(xs) * max(ys) * min(len(xs), len(ys)))
    packed = int.from_bytes(_slots(xs, width), "little") * int.from_bytes(_slots(ys, width), "little")
    return _unslot(packed, len(xs) + len(ys) - 1, width)


def _carry_convolve(xs: tuple[int, ...], ys: tuple[int, ...]) -> list[int]:
    """``sum(J(xs[i] ♣ ys[j]) for i+j == k)`` for every ``k``, split by multiplier digit.

    For each distinct non-zero digit ``d`` of ``ys`` the carries of ``xs``
    against ``d`` are convolved with the positions where ``ys`` holds ``d``;
    the packed products are summed before one unpacking.
    """
    width = _slot_width(8 * min(len(xs), len(ys)))
    spread_x, spread_y = _slots(xs, width), _slots(ys, width)
    packed = 0
    for d in set(ys) - {0}:
        packed += int.from_bytes(spread_x.translate(_CARRY_BYTES[d]), "little") * int.from_bytes(
            spread_y.translate(_INDICATOR_BYTES[d]), "little"
        )
    return _unslot(packed, len(xs) + len(ys) - 1, width)


def _wedge_columns(xs: tuple[int, ...], ys: tuple[int, ...]) -> list[int]:
    """Wedge columns ``P[k-1] - 10*C[k-1] + C[k]`` for ``k`` in ``0..m+n-1``."""
    products, carries = _convolve(xs, ys), _carry_convolve(xs, ys)
    return [p - 10 * c + c_next for p, c, c_next in zip([0, *products], [0, *carries], [*carries, 0])]


def _plum_columns(xs: tuple[int, ...], ys: tuple[int, ...]) -> list[int]:
    """Wedge columns one place lower, with the whole leading and split trailing products."""
    if len(xs) == len(ys) == 1:
        return [xs[0] * ys[0]]
    columns = _wedge_columns(xs, ys)[1:]
    columns[0] += 10 * carry(xs[0], ys[0])
    trailing = xs[-1] * ys[-1]
    columns[-2] += trailing // 10 - carry(xs[-1], ys[-1])
    columns[-1] += trailing % 10 - clubsuit(xs[-1], ys[-1])
    return columns


def _cross_operands(a: DigitString, b: DigitString, seg_len: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Segments of both operands, the one with more segments first."""
    sa, sb = segment(a, seg_len).segments, segment(b, seg_len).segments
    return (sa, sb) if len(sa) >= len(sb) else (sb, sa)


def _finish(
    method: str, a: DigitString, b: DigitString, radix_power: int, columns: Iterable[int]
) -> tuple[DigitString, MulTrace]:
    """Normalize the signed columns and record the trace."""
    signed = SignedDigitString(tuple(columns))
    product = normalize(signed, radix_power)
    return product, MulTrace(method, a, b, radix_power, signed, product)


# ---------------------------------------------------------------------------
# Trace terms, generated when ``MulTrace.columns`` is read


def _term_operands(trace: MulTrace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two sequences the term indices of ``trace`` point into; empty when a factor is zero.

    Cross terms index the segments, longer operand first; wedge terms index
    the multiplicand padded with one zero on each end.
    """
    if trace.a.is_zero or trace.b.is_zero:
        return (), ()  # no terms, and a zero product's segment length is never checked
    if trace.method == "cross":
        return _cross_operands(trace.a, trace.b, trace.radix_power)
    if trace.method in ("wedge", "wedge_single"):
        return (0,) + trace.a.digits + (0,), trace.b.digits
    return trace.a.digits, trace.b.digits


def _column_terms(trace: MulTrace) -> Iterable[list[Term]]:
    """One term list per column of ``trace``, most significant first."""
    xs, ys = _term_operands(trace)
    if not xs:
        return [[]]
    if trace.method == "cross":
        return _cross_terms(xs, ys)
    if trace.method == "plum":
        return _plum_terms(xs, ys)
    return _wedge_terms(xs, ys)


def _cross_terms(xs: tuple[int, ...], ys: tuple[int, ...]) -> Iterator[list[Term]]:
    m, n = len(xs), len(ys)
    for k in range(m + n - 1):
        terms = []
        for i in range(max(0, k - n + 1), min(m, k + 1)):
            j = k - i
            terms.append(Term("product", i, j, xs[i] * ys[j]))
        yield terms


def _plum_terms(A: tuple[int, ...], B: tuple[int, ...]) -> Iterator[list[Term]]:
    m, n = len(A), len(B)
    k_last = m + n - 2
    if k_last == 0:
        yield [Term("product", 0, 0, A[0] * B[0])]
        return
    trailing = A[m - 1] * B[n - 1]
    for k in range(k_last + 1):
        terms = []
        if k == 0:
            terms.append(Term("product", 0, 0, A[0] * B[0]))
        else:
            for i in range(max(0, k - n + 1), min(m, k + 1)):
                j = k - i
                if (i, j) == (m - 1, n - 1):
                    continue
                terms.append(Term("residue", i, j, clubsuit(A[i], B[j])))
        for i in range(max(0, k + 2 - n), min(m, k + 2)):
            j = k + 1 - i
            if (i, j) == (m - 1, n - 1):
                continue
            terms.append(Term("carry", i, j, carry(A[i], B[j])))
        if k == k_last - 1:
            terms.append(Term("product_tens", m - 1, n - 1, trailing // 10))
        if k == k_last:
            terms.append(Term("product_ones", m - 1, n - 1, trailing % 10))
        yield terms


def _wedge_terms(padded: tuple[int, ...], B: tuple[int, ...]) -> Iterator[list[Term]]:
    m, n = len(padded) - 2, len(B)
    for k in range(m + n):
        terms = []
        for i in range(max(0, k - n + 1), min(m, k) + 1):
            j = k - i
            terms.append(Term("wedge", i, j, wedge(padded[i], padded[i + 1], B[j])))
        yield terms


# ---------------------------------------------------------------------------
# Public methods


def rapid_mul(a: DigitString, b: DigitString, seg_len: int = 1) -> tuple[DigitString, MulTrace]:
    """Plain rapid multiplication via cross product sums over segments.

    The operand with more segments plays the multiplicand, so the result has
    ``m + n - 1`` columns in radix ``10**seg_len`` whatever the argument order.
    """
    if a.is_zero or b.is_zero:
        return _finish("cross", a, b, seg_len, [0])
    return _finish("cross", a, b, seg_len, _convolve(*_cross_operands(a, b, seg_len)))


def plum_mul(a: DigitString, b: DigitString) -> tuple[DigitString, MulTrace]:
    """Multiplication by plum products: residues in place, carries shifted up.

    The leading column keeps ``a[0]*b[0]`` whole and the trailing column keeps
    the plain ones digit of the last product (its tens joining the column
    above), matching the worked column layouts; every other product appears as
    a residue term plus a carry term one column up.
    """
    if a.is_zero or b.is_zero:
        return _finish("plum", a, b, 1, [0])
    return _finish("plum", a, b, 1, _plum_columns(a.digits, b.digits))


def wedge_mul_single(a: DigitString, c: int) -> tuple[DigitString, MulTrace]:
    """Streaming multiplication by a single digit: one wedge term per column.

    The multiplicand gets one zero pad on each end; column ``i`` is the wedge
    product of the window ``(pad[i], pad[i+1])`` with ``c``, giving exactly
    ``len(a) + 1`` columns, each within [-6, 11].
    """
    if not 0 <= c <= 9:
        raise ValueError(f"multiplier must be a digit in 0..9, got {c}")
    b = DigitString((c,))
    if a.is_zero or c == 0:
        return _finish("wedge_single", a, b, 1, [0])
    return _finish("wedge_single", a, b, 1, _wedge_columns(a.digits, b.digits))


def wedge_mul(a: DigitString, b: DigitString) -> tuple[DigitString, MulTrace]:
    """General wedge multiplication.

    The first operand is the padded multiplicand; column ``k`` sums the wedge
    products of its windows with the multiplier digits along ``i + j == k``,
    for ``len(a) + len(b)`` columns in total.
    """
    if a.is_zero or b.is_zero:
        return _finish("wedge", a, b, 1, [0])
    return _finish("wedge", a, b, 1, _wedge_columns(a.digits, b.digits))


MUL_METHODS: dict[str, Callable[[DigitString, DigitString], tuple[DigitString, MulTrace]]] = {
    "cross": rapid_mul,
    "plum": plum_mul,
    "wedge": wedge_mul,
}
