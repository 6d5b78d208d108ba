"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from int_limits import int_digit_limit


def _numeral(length: int, alphabet: str, seed: int) -> int:
    rng = random.Random(seed)
    with int_digit_limit(0):
        return int("".join(rng.choice(alphabet) for _ in range(length)))


def numerals(max_digits: int):
    """Integers of up to ``max_digits`` digits, some drawn from runs of zeros and nines."""
    return st.builds(
        _numeral,
        st.integers(1, max_digits),
        st.sampled_from(("0123456789", "0123456789", "09", "9", "019")),
        st.integers(0, 2**32 - 1),
    )
