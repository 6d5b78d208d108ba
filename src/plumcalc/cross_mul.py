"""Long multiplication by cross product sums, plum products, and wedge products.

All three methods build the same kind of intermediate: a signed column
sequence whose value already equals the product, which :func:`normalize`
then resolves into canonical digits.  Each method also returns a
:class:`MulTrace` recording every term that went into every column.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

from .digit_core import carry, clubsuit, wedge
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
    """Full record of one multiplication: columns, signed tuple, final digits."""

    method: str
    a: DigitString
    b: DigitString
    radix_power: int
    columns: tuple[ColumnBreakdown, ...]
    signed: SignedDigitString
    product: DigitString

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


def _assemble(
    method: str, a: DigitString, b: DigitString, radix_power: int, column_terms: Iterable[list[Term]]
) -> tuple[DigitString, MulTrace]:
    """Sum each column's terms, normalize the signed columns, and record the trace.

    ``column_terms`` gives one term list per column, most significant first.
    It is read one column at a time, so each list is summed while its terms
    are fresh and is dropped once its breakdown is built.
    """
    breakdowns = []
    totals = []
    for terms in column_terms:
        total = sum(t.value for t in terms)
        breakdowns.append(ColumnBreakdown(tuple(terms), total))
        totals.append(total)
    signed = SignedDigitString(tuple(totals))
    product = normalize(signed, radix_power)
    return product, MulTrace(method, a, b, radix_power, tuple(breakdowns), signed, product)


def _cross_terms(xs: tuple[int, ...], ys: tuple[int, ...]) -> Iterator[list[Term]]:
    m, n = len(xs), len(ys)
    for k in range(m + n - 1):
        terms = []
        for i in range(max(0, k - n + 1), min(m, k + 1)):
            j = k - i
            terms.append(Term("product", i, j, xs[i] * ys[j]))
        yield terms


def rapid_mul(a: DigitString, b: DigitString, seg_len: int = 1) -> tuple[DigitString, MulTrace]:
    """Plain rapid multiplication via cross product sums over segments.

    The operand with more segments plays the multiplicand, so the result has
    ``m + n - 1`` columns in radix ``10**seg_len`` whatever the argument order.
    """
    if a.is_zero or b.is_zero:
        return _assemble("cross", a, b, seg_len, [[]])
    sa, sb = segment(a, seg_len).segments, segment(b, seg_len).segments
    if len(sa) < len(sb):
        sa, sb = sb, sa
    return _assemble("cross", a, b, seg_len, _cross_terms(sa, sb))


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


def plum_mul(a: DigitString, b: DigitString) -> tuple[DigitString, MulTrace]:
    """Multiplication by plum products: residues in place, carries shifted up.

    The leading column keeps ``a[0]*b[0]`` whole and the trailing column keeps
    the plain ones digit of the last product (its tens joining the column
    above), matching the worked column layouts; every other product appears as
    a residue term plus a carry term one column up.
    """
    if a.is_zero or b.is_zero:
        return _assemble("plum", a, b, 1, [[]])
    return _assemble("plum", a, b, 1, _plum_terms(a.digits, b.digits))


def _wedge_terms(A: tuple[int, ...], B: tuple[int, ...]) -> Iterator[list[Term]]:
    m, n = len(A), len(B)
    padded = (0,) + A + (0,)
    for k in range(m + n):
        terms = []
        for i in range(max(0, k - n + 1), min(m, k) + 1):
            j = k - i
            terms.append(Term("wedge", i, j, wedge(padded[i], padded[i + 1], B[j])))
        yield terms


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
        return _assemble("wedge_single", a, b, 1, [[]])
    return _assemble("wedge_single", a, b, 1, _wedge_terms(a.digits, b.digits))


def wedge_mul(a: DigitString, b: DigitString) -> tuple[DigitString, MulTrace]:
    """General wedge multiplication.

    The first operand is the padded multiplicand; column ``k`` sums the wedge
    products of its windows with the multiplier digits along ``i + j == k``,
    for ``len(a) + len(b)`` columns in total.
    """
    if a.is_zero or b.is_zero:
        return _assemble("wedge", a, b, 1, [[]])
    return _assemble("wedge", a, b, 1, _wedge_terms(a.digits, b.digits))


MUL_METHODS: dict[str, Callable[[DigitString, DigitString], tuple[DigitString, MulTrace]]] = {
    "cross": rapid_mul,
    "plum": plum_mul,
    "wedge": wedge_mul,
}
