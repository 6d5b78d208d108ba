"""Differential checks: every method against the schoolbook oracle.

Each sweep is a stream of ``(check, x, y)`` cases fed to ``digit_core``'s
``_sweep``, the driver that also runs the digit laws: it sums the counts the
checks return and collects their violations into a :class:`LawReport`.  The
sweeps are exhaustive on a small-operand box, plus one-sided sweeps over all
four-digit values, then seeded random pairs up to 64 digits.  The default box
keeps an exhaustive all-pairs run affordable; the bound can be raised via the
``limit`` arguments (``plumcalc verify --limit``; the acceptance suite reads it
from the ``PLUMCALC_EXHAUSTIVE_LIMIT`` environment variable).

A case hands its check the oracle's result, or ``None`` for the check to call
``o_mul`` or ``o_divmod``, as box and random cases do.  The one-sided sweeps
step each result from the last with the oracle's own ``o_add`` (a remainder
rolls over into the quotient when ``o_cmp`` finds it equal to the divisor), and
compute every ``_CHECKPOINT``-th afresh: a stepped result that differs from it
is a violation naming its operands, so a wrong step cannot drift unreported.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterator

from .cross_mul import MUL_METHODS, wedge_mul_single
from .digit_core import LawReport, _sweep
from .digit_string import DigitString
from .oracle import Nat, o_add, o_cmp, o_divmod, o_mul
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
_CHECKPOINT = 1000  # every this-many-th one-sided expectation is computed afresh, not stepped

# One operand: its digit string, the oracle's number (None for a stepped one-sided
# value) and its ``int``, each built once.
_Operand = tuple[DigitString, "Nat | None", int]
# One sweep case: a check and its two arguments, such as two operands and the oracle's result.
_Case = tuple[Callable[..., int], object, object]
_ONE = Nat((1,))


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


def _one_sided(
    check: Callable[..., int], others: tuple[int, ...], fresh: Callable, step: Callable
) -> Iterator[_Case]:
    """Every value below 10**4 against each of ``others``, with the oracle's result for each.

    A value's result is ``step(last, b)`` from the value before it, except at
    every ``_CHECKPOINT``-th value, which takes ``fresh(a, b)`` and reports a
    stepped result that differs from it.  Only a checkpoint builds its ``Nat``.
    """
    fixed = [_operand(v) for v in others]
    expected: list = [None] * len(fixed)
    for av in range(10_000):
        a = DigitString.from_int(av), None, av
        a_nat = None if av % _CHECKPOINT else Nat.from_int(av)
        for i, b in enumerate(fixed):
            stepped = step(expected[i], b[1]) if av else None
            if a_nat is None:
                expected[i] = stepped
            else:
                expected[i] = fresh(a_nat, b[1])
                if av:
                    yield _checkpoint_check, (av, b[2]), (expected[i], stepped)
            yield check, (a, b), expected[i]


def _checkpoint_check(violations: list, inputs: tuple[int, int], pair: tuple) -> int:
    """A stepped result against the oracle's fresh one; it counts nothing, as its case counts.

    Of a quotient and remainder, the first that differs is recorded, as in ``_div_check``.
    """
    fresh, stepped = pair
    if fresh != stepped:
        if isinstance(fresh, tuple):
            fresh, stepped = next((f, s) for f, s in zip(fresh, stepped) if f != s)
        violations.append((inputs, fresh.to_int(), stepped.to_int()))
    return 0


def _next_divmod(last: tuple[Nat, Nat], b: Nat) -> tuple[Nat, Nat]:
    """``o_divmod(a + 1, b)`` from ``last = o_divmod(a, b)``: the remainder gains one, or rolls over."""
    q, r = last
    r = o_add(r, _ONE)
    return (o_add(q, _ONE), Nat(())) if o_cmp(r, b) == 0 else (q, r)


def verify_mul_equivalence(
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    random_pairs: int = 1000,
    seed: int = 2024,
) -> list[LawReport]:
    """All multiplication methods agree with the oracle.

    Covers every pair below ``limit`` exhaustively (all methods, plus the
    single-digit streaming method against every digit multiplier), every value
    below 10**4 against a fixed multiplier set, and ``random_pairs`` seeded
    random pairs of up to ``RANDOM_MAX_DIGITS`` digits.  One-sided products are
    stepped by ``o_add``, with ``o_mul`` only at checkpoints.
    """
    return [
        _sweep("mul-equiv-exhaustive", _mul_box(limit), f"all pairs below {limit}"),
        _sweep(
            "mul-equiv-one-sided",
            _one_sided(_mul_check, ONE_SIDED_MULTIPLIERS, o_mul, o_add),
            f"all values below 10^4 times {ONE_SIDED_MULTIPLIERS}",
        ),
        _sweep(
            "mul-equiv-random",
            _mul_random(random_pairs, seed),
            f"{random_pairs} pairs up to {RANDOM_MAX_DIGITS} digits",
        ),
    ]


def _mul_check(violations: list, operands: tuple[_Operand, _Operand], expected: Nat | None) -> int:
    (a, a_nat, a_int), (b, b_nat, b_int) = operands
    if expected is None:
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
            yield _mul_check, (a, b), None
        for c in range(10):
            yield _mul_single_check, a, c


def _mul_random(random_pairs: int, seed: int) -> Iterator[_Case]:
    for trial in range(random_pairs):
        rng = _seeded_rng(seed, "mul", trial)
        a = _random_operand(rng, RANDOM_MAX_DIGITS)
        b = _random_operand(rng, RANDOM_MAX_DIGITS)
        yield _mul_check, (a, b), None
        yield _mul_single_check, a, rng.randint(0, 9)


def verify_div_equivalence(
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    random_pairs: int = 1000,
    seed: int = 2024,
) -> list[LawReport]:
    """Division returns the oracle's (q, r) and a trace that reconstructs b*q.

    Same coverage plan as the multiplication checks.  Plum and wedge division
    are one computation, so each case runs ``divmod`` once and counts one.
    One-sided results are stepped by ``o_add``, with ``o_divmod`` only at checkpoints.
    """
    return [
        _sweep("div-equiv-exhaustive", _div_box(limit), f"all pairs below {limit}"),
        _sweep(
            "div-equiv-one-sided",
            _one_sided(_div_check, ONE_SIDED_DIVISORS, o_divmod, _next_divmod),
            f"all dividends below 10^4 over divisors {ONE_SIDED_DIVISORS}",
        ),
        _sweep(
            "div-equiv-random",
            _div_random(random_pairs, seed),
            f"{random_pairs} pairs up to {RANDOM_MAX_DIGITS} digits",
        ),
    ]


def _div_check(violations: list, operands: tuple[_Operand, _Operand], expected: tuple[Nat, Nat] | None) -> int:
    (a, a_nat, a_int), (b, b_nat, b_int) = operands
    expected_q, expected_r = o_divmod(a_nat, b_nat) if expected is None else expected
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
            yield _div_check, (a, b), None


def _div_random(random_pairs: int, seed: int) -> Iterator[_Case]:
    for trial in range(random_pairs):
        rng = _seeded_rng(seed, "div", trial)
        a = _random_operand(rng, RANDOM_MAX_DIGITS)
        b = _random_operand(rng, RANDOM_MAX_DIGITS // 2)
        yield _div_check, (a, b), None
