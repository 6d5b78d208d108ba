"""Independent schoolbook big-integer arithmetic used as ground truth.

This module deliberately shares no code with the residue/carry machinery in
the rest of the package, so agreement tests between the two are meaningful.
Numbers are kept as radix-10 limbs, least significant first, which keeps every
algorithm here small enough to audit by eye; performance is explicitly not a
goal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Sequence

__all__ = ["Nat", "o_add", "o_sub", "o_mul", "o_divmod", "o_cmp"]


@dataclass(frozen=True)
class Nat:
    """Non-negative integer as canonical radix-10 limbs, least significant first.

    Zero is the empty limb tuple.
    """

    limbs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.limbs and (min(self.limbs) < 0 or max(self.limbs) > 9):
            raise ValueError(f"limbs must lie in 0..9: {self.limbs}")
        if self.limbs and self.limbs[-1] == 0:
            raise ValueError(f"non-canonical high zero limb: {self.limbs}")

    @classmethod
    def from_int(cls, value: int) -> Nat:
        if value < 0:
            raise ValueError(f"Nat represents non-negative integers, got {value}")
        limbs = []
        while value:
            value, digit = divmod(value, 10)
            limbs.append(digit)
        return cls(tuple(limbs))

    @classmethod
    def from_digits(cls, digits: Iterable[int]) -> Nat:
        """Build from big-endian digits (leading zeros allowed)."""
        limbs = list(digits)
        limbs.reverse()
        while limbs and limbs[-1] == 0:
            limbs.pop()
        return cls(tuple(limbs))

    def to_int(self) -> int:
        value = 0
        for limb in reversed(self.limbs):
            value = value * 10 + limb
        return value

    def to_digits(self) -> tuple[int, ...]:
        """Big-endian digits; zero renders as (0,)."""
        if not self.limbs:
            return (0,)
        return tuple(reversed(self.limbs))

    @property
    def is_zero(self) -> bool:
        return not self.limbs

    def __str__(self) -> str:
        return "".join(str(d) for d in self.to_digits())


def _cmp_limbs(x: Sequence[int], y: Sequence[int]) -> int:
    if len(x) != len(y):
        return -1 if len(x) < len(y) else 1
    for i in range(len(x) - 1, -1, -1):
        if x[i] != y[i]:
            return -1 if x[i] < y[i] else 1
    return 0


def _sub_limbs(x: list[int], y: Sequence[int]) -> None:
    # in-place x -= y; caller guarantees x >= y
    borrow = 0
    for i in range(len(x)):
        digit = x[i] - borrow - (y[i] if i < len(y) else 0)
        if digit < 0:
            digit += 10
            borrow = 1
        else:
            borrow = 0
        x[i] = digit
    while x and x[-1] == 0:
        x.pop()


def o_cmp(x: Nat, y: Nat) -> int:
    """-1, 0 or 1 as x is less than, equal to, or greater than y."""
    return _cmp_limbs(x.limbs, y.limbs)


def o_add(x: Nat, y: Nat) -> Nat:
    out = []
    carry = 0
    for xd, yd in zip_longest(x.limbs, y.limbs, fillvalue=0):
        carry, digit = divmod(xd + yd + carry, 10)
        out.append(digit)
    if carry:
        out.append(carry)
    return Nat(tuple(out))


def o_sub(x: Nat, y: Nat) -> Nat:
    """Exact difference; raises on underflow."""
    if o_cmp(x, y) < 0:
        raise ValueError("subtraction underflow: minuend is smaller than subtrahend")
    out = list(x.limbs)
    _sub_limbs(out, y.limbs)
    return Nat(tuple(out))


def o_mul(x: Nat, y: Nat) -> Nat:
    """Schoolbook product: one partial row per limb of y, immediate carries."""
    if x.is_zero or y.is_zero:
        return Nat(())
    acc = [0] * (len(x.limbs) + len(y.limbs))
    for j, yd in enumerate(y.limbs):
        carry = 0
        for i, xd in enumerate(x.limbs):
            total = acc[i + j] + xd * yd + carry
            carry, acc[i + j] = divmod(total, 10)
        k = j + len(x.limbs)
        while carry:
            carry, digit = divmod(acc[k] + carry, 10)
            acc[k] = digit
            k += 1
    while acc and acc[-1] == 0:
        acc.pop()
    return Nat(tuple(acc))


def o_divmod(x: Nat, y: Nat) -> tuple[Nat, Nat]:
    """Digit-by-digit long division with compare-and-subtract digit search."""
    if y.is_zero:
        raise ZeroDivisionError("division by zero")
    if o_cmp(x, y) < 0:
        return Nat(()), x
    quotient_digits = []
    rem: list[int] = []
    for digit in reversed(x.limbs):
        rem.insert(0, digit)
        while rem and rem[-1] == 0:
            rem.pop()
        q_digit = 0
        while _cmp_limbs(rem, y.limbs) >= 0:
            _sub_limbs(rem, y.limbs)
            q_digit += 1
        quotient_digits.append(q_digit)
    quotient_digits.reverse()
    while quotient_digits and quotient_digits[-1] == 0:
        quotient_digits.pop()
    return Nat(tuple(quotient_digits)), Nat(tuple(rem))
