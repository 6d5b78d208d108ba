"""The interpreter's limit on int/str conversion, set for the length of a block."""

from __future__ import annotations

import contextlib
import sys


@contextlib.contextmanager
def int_digit_limit(limit: int):
    """Run the block under ``sys.set_int_max_str_digits(limit)`` (0 lifts it), then restore the old limit."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
