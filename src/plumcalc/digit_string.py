"""Decimal digit sequences, signed column sequences, and carry normalization.

A :class:`DigitString` is the canonical big-endian digit form of a
non-negative integer.  A :class:`SignedDigitString` is a positional column
sequence whose entries may be negative or exceed 9; it denotes
``sum(columns[i] * 10**(len-1-i))`` and is what the multiplication methods
produce before carries are resolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "DigitString",
    "SignedDigitString",
    "SegmentString",
    "parse",
    "segment",
    "normalize",
    "normalize_stats",
    "value_of",
]

_GROUP_SEPARATORS = " _"
_NUMERAL_BYTES = bytes.maketrans(bytes(range(10)), b"0123456789")


def _horner(values: Iterable[int], radix: int) -> int:
    """Value of ``values`` read most significant first as digits in ``radix``."""
    total = 0
    for v in values:
        total = total * radix + v
    return total


def _decimal_digits(value: int, count: int = 1) -> list[int]:
    """Decimal digits of ``value >= 0``, most significant first, zero-padded to ``count``."""
    digits = []
    while True:
        value, d = divmod(value, 10)
        digits.append(d)
        if not value:
            break
    digits.extend([0] * (count - len(digits)))
    digits.reverse()
    return digits


@dataclass(frozen=True)
class DigitString:
    """Canonical base-10 digits of a non-negative integer, most significant first."""

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.digits:
            raise ValueError("digit string must not be empty")
        if min(self.digits) < 0 or max(self.digits) > 9:
            raise ValueError(f"digits must lie in 0..9: {self.digits}")
        if len(self.digits) > 1 and self.digits[0] == 0:
            raise ValueError(f"leading zero in digit string: {self.digits}")

    @classmethod
    def from_int(cls, value: int) -> DigitString:
        if value < 0:
            raise ValueError(f"digit strings represent non-negative integers, got {value}")
        return cls(tuple(_decimal_digits(value)))

    def __int__(self) -> int:
        return _horner(self.digits, 10)

    def __str__(self) -> str:
        return bytes(self.digits).translate(_NUMERAL_BYTES).decode("ascii")

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.digits)

    def __getitem__(self, index: int) -> int:
        return self.digits[index]

    @property
    def is_zero(self) -> bool:
        return self.digits == (0,)


@dataclass(frozen=True)
class SignedDigitString:
    """Column sequence with weight ``10**(len-1-i)`` per column, carries unresolved."""

    columns: tuple[int, ...]

    def value(self) -> int:
        return _horner(self.columns, 10)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[int]:
        return iter(self.columns)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.columns) + ")"


@dataclass(frozen=True)
class SegmentString:
    """Digit string regrouped into fixed-length chunks, radix ``10**length``."""

    length: int
    segments: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"segment length must be positive, got {self.length}")
        bound = 10**self.length
        if self.segments and (min(self.segments) < 0 or max(self.segments) >= bound):
            raise ValueError(f"segments must lie in 0..{bound - 1}: {self.segments}")

    def __len__(self) -> int:
        return len(self.segments)

    def value(self) -> int:
        return _horner(self.segments, 10**self.length)


def parse(text: str) -> DigitString:
    """Parse a decimal numeral, allowing space/underscore grouping; canonicalize."""
    cleaned = text.strip()
    for sep in _GROUP_SEPARATORS:
        cleaned = cleaned.replace(sep, "")
    if not cleaned:
        raise ValueError(f"empty numeral: {text!r}")
    if not cleaned.isascii() or not cleaned.isdigit():
        raise ValueError(f"not a non-negative decimal numeral: {text!r}")
    return DigitString(tuple(map(int, cleaned.lstrip("0") or "0")))


def segment(ds: DigitString, length: int) -> SegmentString:
    """Regroup ``ds`` into chunks of ``length`` digits, left-padding with zeros."""
    if length < 1:
        raise ValueError(f"segment length must be positive, got {length}")
    digits = ds.digits
    if length == 1:
        return SegmentString(length=1, segments=digits)
    pad = (-len(digits)) % length
    padded = (0,) * pad + digits
    segments = tuple(_horner(padded[i : i + length], 10) for i in range(0, len(padded), length))
    return SegmentString(length=length, segments=segments)


def value_of(s: SignedDigitString | Iterable[int]) -> int:
    """Exact integer value of a signed column sequence (empty sum is 0)."""
    return _horner(s.columns if isinstance(s, SignedDigitString) else s, 10)


def normalize_stats(s: SignedDigitString, radix_power: int = 1) -> tuple[DigitString, int]:
    """Resolve carries in ``s`` (columns in radix ``10**radix_power``).

    Columns are processed least significant first; each column keeps its
    floored remainder modulo the radix and passes the floored quotient up, so
    negative columns borrow correctly.  Returns the canonical digit string and
    the number of columns that emitted a non-zero carry.
    """
    if radix_power < 1:
        raise ValueError(f"radix power must be positive, got {radix_power}")
    radix = 10**radix_power
    limbs: list[int] = []  # least significant first
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
    digits = tuple(_decimal_digits(carry) + limbs)
    # strip to canonical form
    first = next((i for i, d in enumerate(digits) if d), len(digits) - 1)
    return DigitString(digits[first:]), carries


def normalize(s: SignedDigitString, radix_power: int = 1) -> DigitString:
    """Value-preserving conversion of a signed column sequence to canonical digits."""
    return normalize_stats(s, radix_power)[0]
