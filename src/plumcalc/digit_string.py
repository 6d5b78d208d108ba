"""Decimal digit sequences, signed column sequences, and carry normalization.

A :class:`DigitString` is the canonical big-endian digit form of a
non-negative integer.  A :class:`SignedDigitString` is a positional column
sequence whose entries may be negative or exceed 9; it denotes
``sum(columns[i] * 10**(len-1-i))`` and is what the multiplication methods
produce before carries are resolved.

This module is the package's one radix-conversion layer, and no step of it is
quadratic in Python operations.  Signed columns in any radix (:func:`_horner`)
are evaluated in leaves of ``_LEAF`` values and the leaves joined pairwise by
cached powers ``radix**(_LEAF * 2**j)``.  A column kernel's two's-complement
slot bytes are read with no Python step per column (:func:`_plane_value`):
each byte plane as decimal numerals by ``int``.  A column tuple is never
packed.  :func:`normalize` reads a tuple, or up to ``_BLOCK`` slots, as one
value, and longer slots in blocks of ``_BLOCK`` from the least significant
end, passing the carry up by one division by ``10**_BLOCK`` per block.
Digits and ``int`` meet through decimal text
(:func:`_text_value`, :func:`_decimal_text`): blocks of at most ``_BLOCK``
digits go through ``int``/``str`` and are joined or split by cached powers
``10**(_BLOCK * 2**j)`` (divide-and-conquer radix conversion, Knuth, TAOCP
vol. 2, §4.4; Brent and Zimmermann, *Modern Computer Arithmetic*, §1.7).
``_BLOCK`` is below 640, the smallest limit ``sys.set_int_max_str_digits``
accepts, so numerals of any length convert under any limit.
"""

from __future__ import annotations

import builtins
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

__all__ = [
    "DigitString",
    "SignedDigitString",
    "SegmentString",
    "parse",
    "segment",
    "normalize",
    "normalize_stats",
]

_GROUP_SEPARATORS = " _"
_NUMERAL_BYTES = bytes.maketrans(bytes(range(10)), b"0123456789")
_DIGIT_BYTES = bytes.maketrans(b"0123456789", bytes(range(10)))
_DIGIT_VALUES = bytes(range(10))
_LEAF = 16  # values per Horner leaf: a leaf of decimal digits stays below 10**16
_BLOCK = 512  # digits per int/str call, below every int_max_str_digits limit
_BLOCK_LIMIT = 10**_BLOCK
# Radix-10 values read by one Horner loop, where other radixes split past _LEAF,
# so that short products' column tuples (5-35 columns on the CLI) stay one loop.
# _horner, us, one loop vs leaves of 16 (best of 9 interleaved runs, Python
# 3.11.7, 2 vCPUs): 1.57 vs 2.07 at 23 columns, 3.01 vs 4.51 at 47.
_DECIMAL_LOOP = 48
# bytes.translate tables: the hundreds, tens and ones digit of each byte value
# as ASCII, and the same of a two's-complement top byte offset by 0x80
_BYTE_PLACES = tuple(bytes(48 + b // place % 10 for b in range(256)) for place in (100, 10, 1))
_TOP_PLACES = tuple(table[128:] + table[:128] for table in _BYTE_PLACES)
_SLOT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}  # struct's code for a signed integer of each byte width


@lru_cache(maxsize=128)
def _power(radix: int, exponent: int) -> int:
    """``radix**exponent``, kept for the exponents ``leaf * 2**j`` that the joins and splits use."""
    return radix**exponent


def _split(length: int, leaf: int) -> int:
    """Largest ``leaf * 2**j`` below ``length > leaf``: the size of the low part of a split."""
    low = leaf
    while 2 * low < length:
        low *= 2
    return low


@lru_cache(maxsize=3 * _BLOCK)
def _packer(width: int, count: int) -> struct.Struct:
    """The little-endian layout of ``count`` signed integers of ``width`` bytes, one of ``_SLOT_CODES``."""
    return struct.Struct(f"<{count}{_SLOT_CODES[width]}")


@lru_cache(maxsize=_BLOCK)
def _repunit(count: int) -> int:
    """``int("1" * count)``."""
    return (10**count - 1) // 9


def _slot_width(bound: int) -> int:
    """Bytes per slot for values up to ``bound``: the narrowest width struct has a code for, else as many as needed."""
    need = (bound.bit_length() + 7) // 8
    return next((width for width in _SLOT_CODES if width >= need), need)


def _unpack(raw: bytes, width: int) -> tuple[int, ...]:
    """The values of ``raw``'s little-endian two's-complement ``width``-byte slots: the one decoder of slot bytes."""
    if width in _SLOT_CODES:
        return _packer(width, len(raw) // width).unpack(raw)
    return tuple(int.from_bytes(raw[i : i + width], "little", signed=True) for i in range(0, len(raw), width))


def _plane_value(raw: bytes, width: int) -> int:
    """Value of the radix-10 two's-complement slots of ``raw``, ``width`` bytes each, most significant first.

    Byte ``j`` of every slot forms plane ``j``, read as three numerals of its
    hundreds, tens and ones digits.  The top plane is read with its sign bit
    flipped, which adds ``2**(8*width - 1)`` to every slot, taken off again as
    ``int("1" * count)`` times that, unless it is all zero: then it is skipped
    and the planes below read unsigned.  Parts of ``_BLOCK * 2**j`` slots are
    joined by a cached power of 10, so ``int`` sees at most ``_BLOCK`` digits.
    """
    count = len(raw) // width
    if count > _BLOCK:
        low = _split(count, _BLOCK)
        cut = (count - low) * width
        return _plane_value(raw[:cut], width) * _power(10, low) + _plane_value(raw[cut:], width)
    top = raw[width - 1 :: width]
    signed = bool(top.lstrip(b"\0"))
    total = -_repunit(count) << 8 * width - 1 if signed else 0
    for j in range(width if signed else width - 1):  # least significant byte first
        plane, (hundreds, tens, units) = (top, _TOP_PLACES) if j == width - 1 else (raw[j::width], _BYTE_PLACES)
        value = 100 * int(plane.translate(hundreds)) + 10 * int(plane.translate(tens)) + int(plane.translate(units))
        total += value << 8 * j
    return total


def _horner(values: Sequence[int], radix: int) -> int:
    """Value of ``values`` (any sign) read most significant first as digits in ``radix``.

    Up to ``_LEAF`` values, and up to ``_DECIMAL_LOOP`` radix-10 values, are
    one Horner loop.  Longer sequences are split into a high part and a low part
    of ``_LEAF * 2**j`` values, joined by a cached power of ``radix``.
    """
    if len(values) <= _LEAF or radix == 10 and len(values) <= _DECIMAL_LOOP:
        total = 0
        for v in values:
            total = total * radix + v
        return total
    low = _split(len(values), _LEAF)
    return _horner(values[:-low], radix) * _power(radix, low) + _horner(values[-low:], radix)


def _text_value(text: str | bytes) -> int:
    """Value of a decimal numeral of any length, read in blocks of at most ``_BLOCK`` digits."""
    if len(text) <= _BLOCK:
        return int(text)
    low = _split(len(text), _BLOCK)
    return _text_value(text[:-low]) * _power(10, low) + _text_value(text[-low:])


def _decimal_text(value: int, count: int = 1) -> str:
    """Decimal numeral of ``value`` of any sign; a non-negative one is zero-padded to ``count`` digits.

    A value beyond ``10**_BLOCK`` is split by the largest cached
    ``10**(_BLOCK * 2**j)`` below it and each part converted in turn, so no
    call of ``str`` sees more than ``_BLOCK`` digits.
    """
    if abs(value) < _BLOCK_LIMIT:
        return str(value).zfill(count)
    if value < 0:
        return "-" + _decimal_text(-value)
    low = _BLOCK
    while value >= _power(10, 2 * low):
        low *= 2
    high, rest = builtins.divmod(value, _power(10, low))
    return _decimal_text(high, count - low) + _decimal_text(rest, low)


def _decimal_digits(value: int, count: int = 1) -> bytes:
    """Decimal digits of ``value >= 0`` as byte values, most significant first, zero-padded to ``count``."""
    text = str(value).zfill(count) if value < _BLOCK_LIMIT else _decimal_text(value, count)
    return text.encode("ascii").translate(_DIGIT_BYTES)


def _has_stray_digit(values: Sequence[int]) -> bool:
    """Whether ``values`` holds anything but the integers 0..9, or is an int, which ``bytes`` would read as zeros."""
    try:
        return isinstance(values, int) or bool(bytes(values).translate(None, _DIGIT_VALUES))
    except (TypeError, ValueError):  # a non-integer, or an integer outside 0..255
        return True


@dataclass(frozen=True)
class DigitString:
    """Canonical base-10 digits of a non-negative integer, most significant first."""

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.digits:
            raise ValueError("digit string must not be empty")
        if _has_stray_digit(self.digits):
            raise ValueError(f"digits must lie in 0..9: {self.digits}")
        if len(self.digits) > 1 and self.digits[0] == 0:
            raise ValueError(f"leading zero in digit string: {self.digits}")

    @classmethod
    def from_int(cls, value: int) -> DigitString:
        if value < 0:
            raise ValueError(f"digit strings represent non-negative integers, got {value}")
        return _valid_by_construction(tuple(_decimal_digits(value)))

    def __int__(self) -> int:
        return _text_value(bytes(self.digits).translate(_NUMERAL_BYTES))

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


def _valid_by_construction(digits: tuple[int, ...]) -> DigitString:
    """A :class:`DigitString` of ``digits`` that are valid as built, without ``__post_init__``'s check."""
    ds = object.__new__(DigitString)
    # as a frozen dataclass's __init__ stores it; writing to ds.__dict__ would
    # make each instance larger and slower to read
    object.__setattr__(ds, "digits", digits)
    return ds


@dataclass(frozen=True, init=False)
class SignedDigitString:
    """Column sequence with weight ``10**(len-1-i)`` per column, carries unresolved.

    An instance keeps the form it was built in, read by ``_horner`` or by byte
    planes: a tuple of columns, or a column kernel's ``_slots`` (slot bytes and
    width), from which ``columns`` is decoded when first read.
    """

    # held by an instance built from a tuple; one a column kernel built holds only its slots until this is read
    columns: tuple[int, ...] = cached_property(lambda self: _unpack(*self._slots))

    def __init__(self, columns: tuple[int, ...]) -> None:
        # stored straight into the instance dict: the generated __init__ of a
        # frozen dataclass pays one object.__setattr__ call per field
        self.__dict__["columns"] = columns

    def value(self) -> int:
        """The columns read in radix 10 (not a segment trace's product), kept for ``normalize`` and checks to share."""
        fields = self.__dict__
        if "_value" not in fields:
            slots = fields.get("_slots")
            fields["_value"] = _horner(self.columns, 10) if slots is None else _plane_value(*slots)
        return fields["_value"]

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[int]:
        return iter(self.columns)

    def __str__(self) -> str:
        return "(" + ",".join(map(_decimal_text, self.columns)) + ")"


def _from_slots(raw: bytes, width: int) -> SignedDigitString:
    """A :class:`SignedDigitString` holding only its packed form, the slots of ``raw``, ``width`` bytes each."""
    s = object.__new__(SignedDigitString)
    s.__dict__["_slots"] = raw, width
    return s


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
    return _valid_by_construction(tuple((cleaned.lstrip("0") or "0").encode("ascii").translate(_DIGIT_BYTES)))


def segment(ds: DigitString, length: int) -> SegmentString:
    """Regroup ``ds`` into chunks of ``length`` digits, left-padding with zeros."""
    if length < 1:
        raise ValueError(f"segment length must be positive, got {length}")
    digits = ds.digits
    padded = bytes((-len(digits)) % length) + bytes(digits)
    text = padded.translate(_NUMERAL_BYTES)
    segments = tuple(_text_value(text[i : i + length]) for i in range(0, len(text), length))
    return SegmentString(length=length, segments=segments)


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
        column += carry
        carry = column // radix
        limbs.append(column % radix)
        if carry:
            carries += 1
    if carry < 0:
        raise ValueError("signed digit string has negative total value")
    limbs.reverse()
    if radix_power == 1:
        digits = bytes(limbs)
    else:
        digits = b"".join(_decimal_digits(limb, radix_power) for limb in limbs)
    if carry:
        digits = _decimal_digits(carry) + digits
    return _valid_by_construction(tuple(digits.lstrip(b"\0") or b"\0")), carries


def normalize(s: SignedDigitString, radix_power: int = 1) -> DigitString:
    """Value-preserving conversion of a signed column sequence to canonical digits.

    Columns in radix ``10**radix_power`` take ``normalize_stats``' carry loop.
    Radix-10 columns built as a tuple, or up to ``_BLOCK`` slots, are read as
    one value by ``s.value()``: a tuple whole at any length (the basecase
    kernels make at most 257 columns).  Longer slots are read by byte planes in
    blocks of ``_BLOCK`` from the least significant end: a block's value plus
    the carry from the block below is split by ``10**_BLOCK`` into its digits
    and the carry passed up, so the work stays linear in the column count.
    """
    if radix_power != 1:
        return normalize_stats(s, radix_power)[0]
    slots = s.__dict__.get("_slots")  # None for an instance built from a tuple
    if slots is None or len(slots[0]) <= _BLOCK * slots[1]:
        total = s.value()  # one value, kept for a later check of the same columns
        if total < 0:
            raise ValueError("signed digit string has negative total value")
        return _valid_by_construction(tuple(_decimal_digits(total)))
    raw, width = slots
    size = _BLOCK * width  # bytes per block
    blocks = []  # least significant first
    carry = 0
    for end in range(len(raw), size, -size):
        carry, block = builtins.divmod(_plane_value(raw[end - size : end], width) + carry, _BLOCK_LIMIT)
        blocks.append(str(block).zfill(_BLOCK))
    total = _plane_value(raw[: len(raw) - size * len(blocks)], width) + carry
    if total < 0:
        raise ValueError("signed digit string has negative total value")
    blocks.append(_decimal_text(total))
    digits = "".join(reversed(blocks)).encode("ascii").translate(_DIGIT_BYTES)
    return _valid_by_construction(tuple(digits.lstrip(b"\0") or b"\0"))
