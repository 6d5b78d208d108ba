"""Equivalence sweeps: a wrong method must show up as violations naming its operands."""

from __future__ import annotations

import collections
import dataclasses
import random

import pytest

from plumcalc import digit_string, equivalence, plum_div
from plumcalc.cross_mul import MUL_METHODS, plum_mul, rapid_mul, wedge_mul, wedge_mul_single
from plumcalc.digit_string import DigitString, SignedDigitString
from plumcalc.oracle import Nat


def test_broken_mul_method_fails_every_mul_sweep(monkeypatch):
    def broken(a, b):
        product, trace = plum_mul(a, b)
        return DigitString.from_int(int(product) + 1), trace

    monkeypatch.setitem(MUL_METHODS, "plum", broken)
    monkeypatch.setattr(equivalence, "ONE_SIDED_MULTIPLIERS", (7,))  # one multiplier keeps the 10^4 sweep short
    reports = equivalence.verify_mul_equivalence(limit=3, random_pairs=2, seed=7)
    assert [r.law for r in reports] == ["mul-equiv-exhaustive", "mul-equiv-one-sided", "mul-equiv-random"]
    assert [len(r.violations) for r in reports] == [9, 10_000, 2]
    # every method counts once per pair, and the single-digit method once per multiplier
    assert [r.domain_size for r in reports] == [57, 30_000, 8]
    for report in reports:
        assert not report.holds
        for (x, y), expected, actual in report.violations:
            assert (expected, actual) == (x * y, x * y + 1)
    assert {inputs for inputs, _, _ in reports[0].violations} == {(x, y) for x in range(3) for y in range(3)}


def test_broken_single_digit_method_fails_both_single_sweeps(monkeypatch):
    def one_too_high(a, c):
        product, trace = wedge_mul_single(a, c)
        return DigitString.from_int(int(product) + 1), trace

    monkeypatch.setattr(equivalence, "wedge_mul_single", one_too_high)
    monkeypatch.setattr(equivalence, "ONE_SIDED_MULTIPLIERS", (7,))  # one multiplier keeps the 10^4 sweep short
    exhaustive, one_sided, random_ = equivalence.verify_mul_equivalence(limit=3, random_pairs=2, seed=7)
    # the one-sided sweep runs no single-digit case
    assert (one_sided.holds, exhaustive.holds, random_.holds) == (True, False, False)
    assert list(exhaustive.violations) == [((a, c), a * c, a * c + 1) for a in range(3) for c in range(10)]
    assert len(random_.violations) == 2
    for (a, c), expected, actual in random_.violations:
        assert 0 <= c <= 9 and (expected, actual) == (a * c, a * c + 1)


def sweep_with_divmod(monkeypatch, tamper):
    """Every division sweep, with each ``divmod`` result passed through ``tamper``.

    Checks that each case is one ``divmod`` call and one violation naming its
    operands, and returns the violations.
    """
    divmod_ = plum_div.divmod
    calls = []

    def tampered(a, b, method="plum"):
        calls.append((int(a), int(b)))
        return tamper(*divmod_(a, b, method))

    monkeypatch.setattr(plum_div, "divmod", tampered)
    monkeypatch.setattr(equivalence, "ONE_SIDED_DIVISORS", (7,))  # one divisor keeps the 10^4 sweep short
    reports = equivalence.verify_div_equivalence(limit=3, random_pairs=2, seed=7)
    cases = [6, 10_000, 2]
    # plum and wedge division share one computation, so each case is one divmod call and one check
    assert len(calls) == sum(cases)
    assert [r.domain_size for r in reports] == cases
    assert [len(r.violations) for r in reports] == cases
    assert not any(report.holds for report in reports)
    assert [inputs for inputs, _, _ in reports[0].violations] == [(x, y) for x in range(3) for y in (1, 2)]
    violations = [violation for report in reports for violation in report.violations]
    assert [inputs for inputs, _, _ in violations] == calls
    return violations


def test_wrong_remainder_is_recorded_as_remainders(monkeypatch):
    violations = sweep_with_divmod(monkeypatch, lambda q, r, trace: (q, DigitString.from_int(int(r) + 1), trace))
    for (x, y), expected, actual in violations:
        assert (expected, actual) == (x % y, x % y + 1)


def test_wrong_quotient_is_recorded_as_quotients(monkeypatch):
    violations = sweep_with_divmod(monkeypatch, lambda q, r, trace: (DigitString.from_int(int(q) + 1), r, trace))
    for (x, y), expected, actual in violations:
        assert (expected, actual) == (x // y, x // y + 1)


def test_wrong_kernel_column_is_recorded_as_reconstructions(monkeypatch):
    def last_column_off_by_one(q, r, trace):
        columns = list(trace._columns) or [0]  # a zero quotient's trace has no column
        columns[-1] += 1
        return q, r, dataclasses.replace(trace, _columns=SignedDigitString(tuple(columns)))

    violations = sweep_with_divmod(monkeypatch, last_column_off_by_one)
    for (x, y), expected, actual in violations:
        assert (expected, actual) == (y * (x // y), y * (x // y) + 1)


def one_sided_reports(monkeypatch):
    """The one-sided reports of both sweeps, over one multiplier and one divisor, 7."""
    monkeypatch.setattr(equivalence, "ONE_SIDED_MULTIPLIERS", (7,))
    monkeypatch.setattr(equivalence, "ONE_SIDED_DIVISORS", (7,))
    mul = equivalence.verify_mul_equivalence(limit=2, random_pairs=1, seed=7)
    div = equivalence.verify_div_equivalence(limit=2, random_pairs=1, seed=7)
    assert [mul[1].law, div[1].law] == ["mul-equiv-one-sided", "div-equiv-one-sided"]
    return mul[1], div[1]


def test_a_wrong_step_is_reported_by_both_one_sided_sweeps(monkeypatch):
    o_add = equivalence.o_add
    monkeypatch.setattr(equivalence, "o_add", lambda x, y: o_add(o_add(x, y), Nat((1,))))
    mul, div = one_sided_reports(monkeypatch)
    assert [mul.domain_size, div.domain_size] == [30_000, 10_000]
    checkpoint = equivalence._CHECKPOINT
    for report, methods, true_values in (
        (mul, len(MUL_METHODS), lambda a: (7 * a,)),
        (div, 1, lambda a: (a // 7, a % 7)),
    ):
        # every value after the first is stepped wrong: named once by each method, or once by its checkpoint
        named = [(a, 7) for a in range(1, 10_000) for _ in range(methods if a % checkpoint else 1)]
        assert [inputs for inputs, _, _ in report.violations] == named
        for (a, _), expected, actual in report.violations:
            if a % checkpoint:
                # the method's result is right, so the stepped expectation is wrong
                assert actual in true_values(a)
            else:
                # the oracle's fresh product or quotient against the stepped one
                assert expected == true_values(a)[0] != actual


@pytest.mark.parametrize("checkpoint", [None, 2500, 1])
def test_one_sided_sweeps_call_the_oracle_only_at_checkpoints(monkeypatch, checkpoint):
    if checkpoint is not None:
        monkeypatch.setattr(equivalence, "_CHECKPOINT", checkpoint)
    sweep, o_mul, o_divmod = equivalence._sweep, equivalence.o_mul, equivalence.o_divmod
    calls = collections.Counter()
    law = []

    def sweep_named(name, cases, detail=""):
        law.append(name)
        return sweep(name, cases, detail)

    def counted(function, name):
        def call(x, y):
            calls[law[-1], name] += 1
            return function(x, y)

        return call

    monkeypatch.setattr(equivalence, "_sweep", sweep_named)
    monkeypatch.setattr(equivalence, "o_mul", counted(o_mul, "o_mul"))
    monkeypatch.setattr(equivalence, "o_divmod", counted(o_divmod, "o_divmod"))
    mul, div = one_sided_reports(monkeypatch)
    assert mul.holds and div.holds
    fresh = 10_000 // equivalence._CHECKPOINT
    assert calls["mul-equiv-one-sided", "o_mul"] == calls["div-equiv-one-sided", "o_divmod"] == fresh
    assert calls["mul-equiv-one-sided", "o_divmod"] == calls["div-equiv-one-sided", "o_mul"] == 0


# the values are written out, not read from ONE_SIDED_MULTIPLIERS, so a changed value fails here
@pytest.mark.parametrize("multiplier", [1, 7, 99, 9999])
def test_a_product_wrong_only_by_one_is_named_by_the_one_sided_sweep(monkeypatch, multiplier):
    def wrong_by_one(a, b):
        product, trace = plum_mul(a, b)
        return (DigitString.from_int(int(product) + 1) if int(b) == multiplier else product), trace

    monkeypatch.setitem(MUL_METHODS, "plum", wrong_by_one)
    # the box stops below 2 and the random pairs are long, so only the
    # one-sided multipliers reach most values times the multiplier
    report = equivalence.verify_mul_equivalence(limit=2, random_pairs=1, seed=7)[1]
    assert report.law == "mul-equiv-one-sided"
    assert list(report.violations) == [((a, multiplier), a * multiplier, a * multiplier + 1) for a in range(10_000)]


@pytest.mark.parametrize("divisor", [1, 7, 99, 369, 3456])
def test_a_quotient_wrong_only_by_one_is_named_by_the_one_sided_sweep(monkeypatch, divisor):
    divmod_ = plum_div.divmod

    def wrong_by_one(a, b, method="plum"):
        q, r, trace = divmod_(a, b, method)
        return (DigitString.from_int(int(q) + 1) if int(b) == divisor else q), r, trace

    monkeypatch.setattr(plum_div, "divmod", wrong_by_one)
    report = equivalence.verify_div_equivalence(limit=2, random_pairs=1, seed=7)[1]
    assert report.law == "div-equiv-one-sided"
    assert list(report.violations) == [((a, divisor), a // divisor, a // divisor + 1) for a in range(10_000)]


def _count_column_evaluations(monkeypatch) -> list[str]:
    """The name of every call of ``_horner`` and ``_plane_value``, the two readers of a column sequence's value."""
    calls = []
    for name in ("_horner", "_plane_value"):
        def counted(*args, real=getattr(digit_string, name), name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(digit_string, name, counted)
    return calls


def _digits(length: int, seed: int) -> DigitString:
    rng = random.Random(seed)
    return DigitString((rng.randint(1, 9),) + tuple(rng.randint(0, 9) for _ in range(length - 1)))


@pytest.mark.parametrize(
    "a, b, reader",
    [
        (DigitString.from_int(56789), DigitString.from_int(369), "_horner"),
        (_digits(200, 1), _digits(100, 2), "_plane_value"),
    ],
    ids=["basecase", "packed"],
)
def test_a_division_and_its_check_evaluate_the_chain_sum_once(monkeypatch, a, b, reader):
    calls = _count_column_evaluations(monkeypatch)
    q, r, trace = plum_div.divmod(a, b)  # the chain check inside divmod reads the kernel's columns once
    # the sweep's check still compares with b*q from the operands, not with anything the trace holds
    assert trace.pp_reconstruction() == int(b) * (int(a) // int(b))
    assert calls == [reader]


@pytest.mark.parametrize(
    "a, b, reader",
    [
        (DigitString.from_int(386), DigitString.from_int(47), "_horner"),
        (_digits(40, 3), _digits(40, 4), "_plane_value"),
    ],
    ids=["basecase", "packed"],
)
def test_a_product_and_its_column_check_evaluate_the_columns_once(monkeypatch, a, b, reader):
    calls = _count_column_evaluations(monkeypatch)
    for method in (plum_mul, wedge_mul, rapid_mul):
        calls.clear()
        product, trace = method(a, b)  # normalize reads the columns' value once
        assert trace.column_value() == int(a) * int(b) == int(product)
        assert calls == [reader], method.__name__
