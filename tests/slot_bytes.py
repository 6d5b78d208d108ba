"""Signed columns in a column kernel's packed form: built from values, or changed in place.

A :class:`SignedDigitString` built from a tuple is never packed, so a test that
reads byte planes builds the packed form here.
"""

from __future__ import annotations

from typing import Sequence

from plumcalc.digit_string import SignedDigitString, _from_slots, _slot_width


def packed(values: Sequence[int]) -> SignedDigitString:
    """``values`` as little-endian two's-complement slots of the narrowest width that holds them, holding only those."""
    width = _slot_width(2 * max(map(abs, values)))
    return _from_slots(b"".join(v.to_bytes(width, "little", signed=True) for v in values), width)


def bumped(signed: SignedDigitString, k: int) -> SignedDigitString:
    """``signed`` with 1 added to column ``k``, in the form it was built in: its tuple or its slot bytes."""
    if "_slots" not in signed.__dict__:
        columns = list(signed.columns)
        columns[k] += 1
        return SignedDigitString(tuple(columns))
    raw, width = signed._slots
    raw = bytearray(raw)
    slot = slice(k * width, (k + 1) * width or None)  # k = -1 runs to the end
    raw[slot] = (int.from_bytes(raw[slot], "little", signed=True) + 1).to_bytes(width, "little", signed=True)
    return _from_slots(bytes(raw), width)
