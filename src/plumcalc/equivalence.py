"""Differential checks: every method against the schoolbook oracle.

The sweeps are exhaustive on a small-operand box plus one-sided sweeps over
all four-digit values, then seeded random pairs up to 64 digits.  The default
box keeps an exhaustive all-pairs run affordable; the bound can be raised via
the ``limit`` arguments (``plumcalc verify --limit``; the acceptance suite
reads it from the ``PLUMCALC_EXHAUSTIVE_LIMIT`` environment variable).
"""

from __future__ import annotations

import hashlib
import random

from .cross_mul import MUL_METHODS, wedge_mul_single
from .digit_core import LawReport
from .digit_string import DigitString
from .oracle import Nat, o_divmod, o_mul
from . import plum_div

__all__ = [
    "verify_mul_equivalence",
    "verify_div_equivalence",
    "random_digit_string",
    "DEFAULT_EXHAUSTIVE_LIMIT",
    "ONE_SIDED_MULTIPLIERS",
    "ONE_SIDED_DIVISORS",
]

DEFAULT_EXHAUSTIVE_LIMIT = 256
ONE_SIDED_MULTIPLIERS = (1, 7, 99, 9999)
ONE_SIDED_DIVISORS = (1, 7, 99, 369, 3456)


def _seeded_rng(seed: int, *labels: int | str) -> random.Random:
    """Deterministic, platform-independent RNG split by hashing the labels."""
    key = ":".join([str(seed), *map(str, labels)]).encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


def _random_digits(rng: random.Random, length: int) -> DigitString:
    """Random digit string of exactly ``length`` digits, the leading one non-zero."""
    digits = [rng.randint(1, 9)] + [rng.randint(0, 9) for _ in range(length - 1)]
    return DigitString(tuple(digits))


def random_digit_string(rng: random.Random, max_digits: int, min_digits: int = 1) -> DigitString:
    """Uniform-length random digit string with a non-zero leading digit."""
    return _random_digits(rng, rng.randint(min_digits, max_digits))


def verify_mul_equivalence(
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    random_pairs: int = 1000,
    max_digits: int = 64,
    seed: int = 2024,
) -> list[LawReport]:
    """All multiplication methods agree with the oracle.

    Covers every pair below ``limit`` exhaustively (all methods, plus the
    single-digit streaming method against every digit multiplier), every value
    below 10**4 against a fixed multiplier set, and ``random_pairs`` seeded
    random pairs of up to ``max_digits`` digits.
    """
    reports = []

    box = _mul_box(limit)
    reports.append(box)
    reports.append(_mul_one_sided())
    reports.append(_mul_random(random_pairs, max_digits, seed))
    return reports


def _mul_check(violations: list, a: DigitString, b: DigitString) -> int:
    expected = str(o_mul(Nat.from_digits(a.digits), Nat.from_digits(b.digits)))
    expected_int = int(expected)
    for method in MUL_METHODS.values():
        product, trace = method(a, b)
        if str(product) != expected or trace.column_value() != expected_int:
            violations.append(((int(a), int(b)), expected_int, int(product)))
    return len(MUL_METHODS)


def _mul_single_check(violations: list, a: DigitString, c: int) -> int:
    product, _ = wedge_mul_single(a, c)
    expected = o_mul(Nat.from_digits(a.digits), Nat.from_int(c))
    if str(product) != str(expected):
        violations.append(((int(a), c), expected.to_int(), int(product)))
    return 1


def _mul_box(limit: int) -> LawReport:
    violations: list = []
    count = 0
    for av in range(limit):
        a = DigitString.from_int(av)
        for bv in range(limit):
            b = DigitString.from_int(bv)
            count += _mul_check(violations, a, b)
        for c in range(10):
            count += _mul_single_check(violations, a, c)
    return LawReport("mul-equiv-exhaustive", count, tuple(violations), f"all pairs below {limit}")


def _mul_one_sided() -> LawReport:
    violations: list = []
    count = 0
    multipliers = [DigitString.from_int(m) for m in ONE_SIDED_MULTIPLIERS]
    for av in range(10_000):
        a = DigitString.from_int(av)
        for b in multipliers:
            count += _mul_check(violations, a, b)
    return LawReport(
        "mul-equiv-one-sided",
        count,
        tuple(violations),
        f"all values below 10^4 times {ONE_SIDED_MULTIPLIERS}",
    )


def _mul_random(random_pairs: int, max_digits: int, seed: int) -> LawReport:
    violations: list = []
    count = 0
    for trial in range(random_pairs):
        rng = _seeded_rng(seed, "mul", trial)
        a = random_digit_string(rng, max_digits)
        b = random_digit_string(rng, max_digits)
        count += _mul_check(violations, a, b)
        count += _mul_single_check(violations, a, rng.randint(0, 9))
    return LawReport(
        "mul-equiv-random", count, tuple(violations), f"{random_pairs} pairs up to {max_digits} digits"
    )


def verify_div_equivalence(
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    random_pairs: int = 1000,
    max_digits: int = 64,
    seed: int = 2024,
) -> list[LawReport]:
    """Both division methods return the oracle's (q, r) and reconstruct b*q.

    Same coverage plan as the multiplication checks; every trace is also
    required to satisfy the partial-product reconstruction identity.
    """
    reports = [
        _div_box(limit),
        _div_one_sided(),
        _div_random(random_pairs, max_digits, seed),
    ]
    return reports


def _div_check(violations: list, a: DigitString, b: DigitString) -> int:
    expected_q, expected_r = o_divmod(Nat.from_digits(a.digits), Nat.from_digits(b.digits))
    eq, er = str(expected_q), str(expected_r)
    for method in plum_div.DIV_METHODS:
        q, r, trace = plum_div.divmod(a, b, method)
        if str(q) != eq or str(r) != er:
            violations.append(((int(a), int(b)), int(eq), int(q)))
        elif trace.pp_reconstruction() != int(b) * int(q):
            violations.append(((int(a), int(b)), int(b) * int(q), trace.pp_reconstruction()))
    return len(plum_div.DIV_METHODS)


def _div_box(limit: int) -> LawReport:
    violations: list = []
    count = 0
    for av in range(limit):
        a = DigitString.from_int(av)
        for bv in range(1, limit):
            count += _div_check(violations, a, DigitString.from_int(bv))
    return LawReport("div-equiv-exhaustive", count, tuple(violations), f"all pairs below {limit}")


def _div_one_sided() -> LawReport:
    violations: list = []
    count = 0
    divisors = [DigitString.from_int(d) for d in ONE_SIDED_DIVISORS]
    for av in range(10_000):
        a = DigitString.from_int(av)
        for b in divisors:
            count += _div_check(violations, a, b)
    return LawReport(
        "div-equiv-one-sided",
        count,
        tuple(violations),
        f"all dividends below 10^4 over divisors {ONE_SIDED_DIVISORS}",
    )


def _div_random(random_pairs: int, max_digits: int, seed: int) -> LawReport:
    violations: list = []
    count = 0
    for trial in range(random_pairs):
        rng = _seeded_rng(seed, "div", trial)
        a = random_digit_string(rng, max_digits)
        b = random_digit_string(rng, max(1, max_digits // 2))
        count += _div_check(violations, a, b)
    return LawReport(
        "div-equiv-random", count, tuple(violations), f"{random_pairs} pairs up to {max_digits} digits"
    )
