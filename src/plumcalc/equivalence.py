"""Differential checks: every method against the schoolbook oracle.

Each sweep is a stream of ``(check, x, y)`` cases fed to ``digit_core``'s
``_sweep``, the driver that also runs the digit laws: it sums the counts the
checks return and collects their violations into a :class:`LawReport`.  The
sweeps are exhaustive on a small-operand box, plus one-sided sweeps over all
four-digit values, then seeded random pairs up to 64 digits.  The default box
keeps an exhaustive all-pairs run affordable; the bound can be raised via the
``limit`` arguments (``plumcalc verify --limit``; the acceptance suite reads it
from the ``PLUMCALC_EXHAUSTIVE_LIMIT`` environment variable).
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterator

from .cross_mul import MUL_METHODS, wedge_mul_single
from .digit_core import LawReport, _sweep
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
    "RANDOM_MAX_DIGITS",
]

DEFAULT_EXHAUSTIVE_LIMIT = 256
ONE_SIDED_MULTIPLIERS = (1, 7, 99, 9999)
ONE_SIDED_DIVISORS = (1, 7, 99, 369, 3456)
RANDOM_MAX_DIGITS = 64  # longest random factor or dividend; random divisors get half

# One operand: its digit string, the oracle's number and its ``int``, each built once.
_Operand = tuple[DigitString, Nat, int]
# One sweep case: a check, then the two operands it is run on.
_Case = tuple[Callable[..., int], _Operand, "_Operand | int"]


def _seeded_rng(seed: int, *labels: int | str) -> random.Random:
    """Deterministic, platform-independent RNG split by hashing the labels."""
    key = ":".join([str(seed), *map(str, labels)]).encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


def _random_digits(rng: random.Random, length: int) -> DigitString:
    """Random digit string of exactly ``length`` digits, the leading one non-zero."""
    digits = [rng.randint(1, 9)] + [rng.randint(0, 9) for _ in range(length - 1)]
    return DigitString(tuple(digits))


def random_digit_string(rng: random.Random, max_digits: int) -> DigitString:
    """Uniform-length random digit string with a non-zero leading digit."""
    return _random_digits(rng, rng.randint(1, max_digits))


def _operand(v: int) -> _Operand:
    a = DigitString.from_int(v)
    return a, Nat.from_digits(a.digits), v


def _random_operand(rng: random.Random, max_digits: int) -> _Operand:
    a = random_digit_string(rng, max_digits)
    return a, Nat.from_digits(a.digits), int(a)


def _one_sided(check: Callable[..., int], others: tuple[int, ...]) -> Iterator[_Case]:
    """Every value below 10**4 against each of ``others``, built as it is needed."""
    fixed = [_operand(v) for v in others]
    for av in range(10_000):
        a = _operand(av)
        for b in fixed:
            yield check, a, b


def verify_mul_equivalence(
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    random_pairs: int = 1000,
    seed: int = 2024,
) -> list[LawReport]:
    """All multiplication methods agree with the oracle.

    Covers every pair below ``limit`` exhaustively (all methods, plus the
    single-digit streaming method against every digit multiplier), every value
    below 10**4 against a fixed multiplier set, and ``random_pairs`` seeded
    random pairs of up to ``RANDOM_MAX_DIGITS`` digits.
    """
    return [
        _sweep("mul-equiv-exhaustive", _mul_box(limit), f"all pairs below {limit}"),
        _sweep(
            "mul-equiv-one-sided",
            _one_sided(_mul_check, ONE_SIDED_MULTIPLIERS),
            f"all values below 10^4 times {ONE_SIDED_MULTIPLIERS}",
        ),
        _sweep(
            "mul-equiv-random",
            _mul_random(random_pairs, seed),
            f"{random_pairs} pairs up to {RANDOM_MAX_DIGITS} digits",
        ),
    ]


def _mul_check(violations: list, x: _Operand, y: _Operand) -> int:
    (a, a_nat, a_int), (b, b_nat, b_int) = x, y
    expected = o_mul(a_nat, b_nat)
    expected_digits, expected_int = expected.to_digits(), expected.to_int()
    for method in MUL_METHODS.values():
        product, trace = method(a, b)
        if product.digits != expected_digits or trace.column_value() != expected_int:
            violations.append(((a_int, b_int), expected_int, int(product)))
    return len(MUL_METHODS)


def _mul_single_check(violations: list, x: _Operand, c: int) -> int:
    a, a_nat, a_int = x
    product, _ = wedge_mul_single(a, c)
    expected = o_mul(a_nat, Nat.from_int(c))
    if product.digits != expected.to_digits():
        violations.append(((a_int, c), expected.to_int(), int(product)))
    return 1


def _mul_box(limit: int) -> Iterator[_Case]:
    values = [_operand(v) for v in range(limit)]
    for a in values:
        for b in values:
            yield _mul_check, a, b
        for c in range(10):
            yield _mul_single_check, a, c


def _mul_random(random_pairs: int, seed: int) -> Iterator[_Case]:
    for trial in range(random_pairs):
        rng = _seeded_rng(seed, "mul", trial)
        a = _random_operand(rng, RANDOM_MAX_DIGITS)
        b = _random_operand(rng, RANDOM_MAX_DIGITS)
        yield _mul_check, a, b
        yield _mul_single_check, a, rng.randint(0, 9)


def verify_div_equivalence(
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    random_pairs: int = 1000,
    seed: int = 2024,
) -> list[LawReport]:
    """Division returns the oracle's (q, r) and a trace that reconstructs b*q.

    Same coverage plan as the multiplication checks.  Plum and wedge division
    are one computation, so each case runs ``divmod`` once and counts one.
    """
    return [
        _sweep("div-equiv-exhaustive", _div_box(limit), f"all pairs below {limit}"),
        _sweep(
            "div-equiv-one-sided",
            _one_sided(_div_check, ONE_SIDED_DIVISORS),
            f"all dividends below 10^4 over divisors {ONE_SIDED_DIVISORS}",
        ),
        _sweep(
            "div-equiv-random",
            _div_random(random_pairs, seed),
            f"{random_pairs} pairs up to {RANDOM_MAX_DIGITS} digits",
        ),
    ]


def _div_check(violations: list, x: _Operand, y: _Operand) -> int:
    (a, a_nat, a_int), (b, b_nat, b_int) = x, y
    expected_q, expected_r = o_divmod(a_nat, b_nat)
    q, r, trace = plum_div.divmod(a, b)
    if q.digits != expected_q.to_digits():
        violations.append(((a_int, b_int), expected_q.to_int(), int(q)))
    elif r.digits != expected_r.to_digits():
        violations.append(((a_int, b_int), expected_r.to_int(), int(r)))
    elif trace.pp_reconstruction() != b_int * (a_int // b_int):  # b*q from the operands, not the trace
        violations.append(((a_int, b_int), b_int * (a_int // b_int), trace.pp_reconstruction()))
    return 1


def _div_box(limit: int) -> Iterator[_Case]:
    values = [_operand(v) for v in range(limit)]
    for a in values:
        for b in values[1:]:
            yield _div_check, a, b


def _div_random(random_pairs: int, seed: int) -> Iterator[_Case]:
    for trial in range(random_pairs):
        rng = _seeded_rng(seed, "div", trial)
        a = _random_operand(rng, RANDOM_MAX_DIGITS)
        b = _random_operand(rng, RANDOM_MAX_DIGITS // 2)
        yield _div_check, a, b
