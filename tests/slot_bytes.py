"""Signed columns changed in their packed form, so that a check reading the slot bytes reads the change."""

from __future__ import annotations

from plumcalc.digit_string import SignedDigitString, _from_slots


def bumped(signed: SignedDigitString, k: int) -> SignedDigitString:
    """``signed`` with 1 added to column ``k``, written into its little-endian two's-complement slot bytes."""
    raw, width = signed._slots
    raw = bytearray(raw)
    slot = slice(k * width, (k + 1) * width or None)  # k = -1 runs to the end
    raw[slot] = (int.from_bytes(raw[slot], "little", signed=True) + 1).to_bytes(width, "little", signed=True)
    return _from_slots(bytes(raw), width)
