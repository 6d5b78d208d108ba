"""Division: partial products, worked step values, reconstruction, oracle agreement."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from int_limits import int_digit_limit
from plumcalc import cross_mul, plum_div
from plumcalc.digit_string import DigitString, parse
from plumcalc.plum_div import div_decimal, pp0_plum, pp0_wedge, pp1
from slot_bytes import bumped
from strategies import numerals


def ds(value: int) -> DigitString:
    return DigitString.from_int(value)


def test_pp0_plum_worked_values():
    b = ds(369)
    assert pp0_plum(b, (), 1)[0] == 0
    assert pp0_plum(b, (1,), 2)[0] == -3
    assert pp0_plum(b, (1, 5), 3)[0] == 4
    assert pp0_plum(b, (1, 5, 3), 4)[0] == -4
    assert pp0_plum(b, (1, 5, 3), 5)[0] == -3


def test_pp0_wedge_worked_values():
    b = ds(697)
    assert pp0_wedge(b, (0,), 2)[0] == 0
    assert pp0_wedge(b, (0, 3), 3)[0] == -1
    assert pp0_wedge(b, (0, 3, 4), 4)[0] == 0
    assert pp0_wedge(b, (0, 3, 4, 8), 5)[0] == 6
    assert pp0_wedge(b, (0, 3, 4, 8), 6)[0] == -4


def test_pp0_wedge_without_leading_zero_digit():
    # same partial products, indexed from the first chosen digit
    b = ds(697)
    assert pp0_wedge(b, (3,), 2)[0] == -1
    assert pp0_wedge(b, (3, 4), 3)[0] == 0
    assert pp0_wedge(b, (3, 4, 8), 4)[0] == 6


def test_pp0_methods_agree_valuewise():
    for bv in (369, 697, 3456, 41, 5):
        b = ds(bv)
        for n in range(1, 9):
            for c1 in range(10):
                for c2 in range(10):
                    c = (c1, c2)[: max(0, n - 1)]
                    assert pp0_plum(b, c, n)[0] == pp0_wedge(b, c, n)[0]


def test_pp0_rejects_bad_step():
    with pytest.raises(ValueError):
        pp0_plum(ds(369), (), 0)
    with pytest.raises(ValueError):
        pp0_wedge(ds(369), (), -1)
    # quotient digits index the digit tables, where -1 would read the entry for 9
    for pp0 in (pp0_plum, pp0_wedge):
        for c in ((1, 10), (1, -1), (1.5,)):
            with pytest.raises(ValueError, match="quotient digits must lie in 0..9"):
                pp0(ds(369), c, 3)


def test_a_bare_int_is_rejected_as_digits():
    # ``bytes(n)`` is n zero bytes, so an int passed the digit check and failed later on ``len``
    with pytest.raises(ValueError, match=r"^digits must lie in 0\.\.9: 5$"):
        DigitString(5)
    with pytest.raises(ValueError, match=r"^quotient digits must lie in 0\.\.9, got 5$"):
        pp0_plum(parse("369"), 5, 1)
    with pytest.raises(ValueError, match=r"^quotient digits must lie in 0\.\.9, got 3$"):
        pp0_wedge(parse("369"), 3, 2)


def test_pp1_worked_values():
    assert pp1(ds(369), 5)[0] == 18
    assert pp1(ds(369), 1)[0] == 4
    assert pp1(ds(369), 3)[0] == 11
    assert pp1(ds(697), 3)[0] == 21
    assert pp1(ds(697), 4)[0] == 28
    assert pp1(ds(697), 8)[0] == 55
    assert pp1(ds(401), 0)[0] == 0
    assert pp1(ds(7), 6)[0] == 42
    with pytest.raises(ValueError):
        pp1(ds(369), 10)


# Per step of three worked divisions: the pp0 terms in the plum and in the
# wedge form, then the pp1 terms, as (kind, i, j, value).  Recorded from the
# per-term loops that built them before the term builders shared one
# diagonal rule, so that a change of kind, index or order shows.
PINNED_TERMS = {
    (56789, 369, "plum"): [
        ((), (), (("product", 0, 0, 3), ("carry", 1, 0, 1))),
        (
            (("residue", 1, 0, -4), ("carry", 2, 0, 1)),
            (("wedge", 1, 0, -3),),
            (("product", 0, 0, 15), ("carry", 1, 0, 3)),
        ),
        (
            (("residue", 1, 1, 0), ("residue", 2, 0, -1), ("carry", 2, 1, 5)),
            (("wedge", 1, 1, 5), ("wedge", 2, 0, -1)),
            (("product", 0, 0, 9), ("carry", 1, 0, 2)),
        ),
        (
            (("residue", 1, 2, -2), ("residue", 2, 1, -5), ("carry", 2, 2, 3)),
            (("wedge", 1, 2, 1), ("wedge", 2, 1, -5)),
            (),
        ),
        ((("residue", 2, 2, -3),), (("wedge", 2, 2, -3),), ()),
    ],
    (2728018, 3456, "plum"): [
        ((), (), (("product", 0, 0, 0), ("carry", 1, 0, 0))),
        (
            (("residue", 1, 0, 0), ("carry", 2, 0, 0)),
            (("wedge", 1, 0, 0),),
            (("product", 0, 0, 21), ("carry", 1, 0, 3)),
        ),
        (
            (("residue", 1, 1, -2), ("residue", 2, 0, 0), ("carry", 2, 1, 4), ("carry", 3, 0, 0)),
            (("wedge", 1, 1, 2), ("wedge", 2, 0, 0)),
            (("product", 0, 0, 24), ("carry", 1, 0, 3)),
        ),
        (
            (("residue", 1, 2, 2), ("residue", 2, 1, -5), ("residue", 3, 0, 0), ("carry", 2, 2, 4), ("carry", 3, 1, 4)),
            (("wedge", 1, 2, 6), ("wedge", 2, 1, -1), ("wedge", 3, 0, 0)),
            (("product", 0, 0, 27), ("carry", 1, 0, 4)),
        ),
        (
            (("residue", 1, 3, -4), ("residue", 2, 2, 0), ("residue", 3, 1, 2), ("carry", 2, 3, 5), ("carry", 3, 2, 5)),
            (("wedge", 1, 3, 1), ("wedge", 2, 2, 5), ("wedge", 3, 1, 2)),
            (),
        ),
        (
            (("residue", 2, 3, -5), ("residue", 3, 2, -2), ("carry", 3, 3, 6)),
            (("wedge", 2, 3, 1), ("wedge", 3, 2, -2)),
            (),
        ),
        ((("residue", 3, 3, -6),), (("wedge", 3, 3, -6),), ()),
    ],
    (242558, 697, "wedge"): [
        ((), (), (("product", 0, 0, 0), ("carry", 1, 0, 0))),
        (
            (("residue", 1, 0, 0), ("carry", 2, 0, 0)),
            (("wedge", 1, 0, 0),),
            (("product", 0, 0, 18), ("carry", 1, 0, 3)),
        ),
        (
            (("residue", 1, 1, -3), ("residue", 2, 0, 0), ("carry", 2, 1, 2)),
            (("wedge", 1, 1, -1), ("wedge", 2, 0, 0)),
            (("product", 0, 0, 24), ("carry", 1, 0, 4)),
        ),
        (
            (("residue", 1, 2, -4), ("residue", 2, 1, 1), ("carry", 2, 2, 3)),
            (("wedge", 1, 2, -1), ("wedge", 2, 1, 1)),
            (("product", 0, 0, 48), ("carry", 1, 0, 7)),
        ),
        (
            (("residue", 1, 3, 2), ("residue", 2, 2, -2), ("carry", 2, 3, 6)),
            (("wedge", 1, 3, 8), ("wedge", 2, 2, -2)),
            (),
        ),
        ((("residue", 2, 3, -4),), (("wedge", 2, 3, -4),), ()),
    ],
}


@pytest.mark.parametrize("a, b, method", list(PINNED_TERMS))
def test_division_terms_are_pinned(a, b, method):
    _, _, trace = plum_div.divmod(ds(a), ds(b), method)
    pinned = PINNED_TERMS[a, b, method]
    form = 1 if method == "wedge" else 0
    assert [(s.pp0_terms, s.pp1_terms) for s in trace.steps] == [(row[form], row[2]) for row in pinned]
    # both forms on the quotient prefixes, as a replay from the digits chosen so far calls them
    c = trace.quotient_digits
    for n, (plum_terms, wedge_terms, _) in enumerate(pinned, 1):
        assert pp0_plum(ds(b), c[: n - 1], n)[1] == plum_terms
        assert pp0_wedge(ds(b), c[: n - 1], n)[1] == wedge_terms


# Every field of every step but ``division``, as (index, digit, interim, pp0,
# after_pp0, quotient_digit, pp1, remainder); recorded while ``divmod`` still
# built the steps itself, so that building them on first read shows no change.
PINNED_STEPS = {
    (56789, 369, "plum"): [
        (1, 5, 5, 0, 5, 1, 4, 1),
        (2, 6, 16, -3, 19, 5, 18, 1),
        (3, 7, 17, 4, 13, 3, 11, 2),
        (4, 8, 28, -4, 32, None, None, 32),
        (5, 9, 329, -3, 332, None, None, 332),
    ],
    (2728018, 3456, "plum"): [
        (1, 2, 2, 0, 2, 0, 0, 2),
        (2, 7, 27, 0, 27, 7, 24, 3),
        (3, 2, 32, 2, 30, 8, 27, 3),
        (4, 8, 38, 5, 33, 9, 31, 2),
        (5, 0, 20, 8, 12, None, None, 12),
        (6, 1, 121, -1, 122, None, None, 122),
        (7, 8, 1228, -6, 1234, None, None, 1234),
    ],
    (242558, 697, "wedge"): [
        (1, 2, 2, 0, 2, 0, 0, 2),
        (2, 4, 24, 0, 24, 3, 21, 3),
        (3, 2, 32, -1, 33, 4, 28, 5),
        (4, 5, 55, 0, 55, 8, 55, 0),
        (5, 5, 5, 6, -1, None, None, -1),
        (6, 8, -2, -4, 2, None, None, 2),
    ],
    (99999, 7, "wedge"): [
        (1, 9, 9, 0, 9, 1, 7, 2),
        (2, 9, 29, 0, 29, 4, 28, 1),
        (3, 9, 19, 0, 19, 2, 14, 5),
        (4, 9, 59, 0, 59, 8, 56, 3),
        (5, 9, 39, 0, 39, 5, 35, 4),
    ],
}


@pytest.mark.parametrize("a, b, method", list(PINNED_STEPS))
def test_steps_are_built_on_first_read(a, b, method):
    q, _, trace = plum_div.divmod(ds(a), ds(b), method)
    assert "steps" not in trace.__dict__
    assert trace.pp_reconstruction() == b * int(q)
    assert "steps" not in trace.__dict__
    steps = trace.steps
    assert trace.__dict__["steps"] is steps and trace.steps is steps
    fields = [(s.index, s.digit, s.interim, s.pp0, s.after_pp0, s.quotient_digit, s.pp1, s.remainder) for s in steps]
    assert fields == PINNED_STEPS[a, b, method]
    assert all(s.division == (method, ds(b), trace.quotient_digits) for s in steps)


def test_divmod_worked_trace_56789_369():
    q, r, trace = plum_div.divmod(ds(56789), ds(369), "plum")
    assert (str(q), str(r)) == ("153", "332")
    assert [s.remainder for s in trace.steps] == [1, 1, 2, 32, 332]
    assert [s.pp0 for s in trace.steps] == [0, -3, 4, -4, -3]
    assert [s.pp1 for s in trace.steps] == [4, 18, 11, None, None]
    assert [s.interim for s in trace.steps] == [5, 16, 17, 28, 329]
    assert trace.quotient_digits == (1, 5, 3)


def test_divmod_worked_trace_2728018_3456():
    q, r, trace = plum_div.divmod(ds(2728018), ds(3456), "plum")
    assert (str(q), str(r)) == ("789", "1234")
    assert trace.quotient_digits == (0, 7, 8, 9)
    assert [s.pp1 for s in trace.steps] == [0, 24, 27, 31, None, None, None]
    assert [s.pp0 for s in trace.steps] == [0, 0, 2, 5, 8, -1, -6]
    assert [s.remainder for s in trace.steps] == [2, 3, 3, 2, 12, 122, 1234]


def test_divmod_worked_trace_242558_697_wedge():
    q, r, trace = plum_div.divmod(ds(242558), ds(697), "wedge")
    assert (str(q), str(r)) == ("348", "2")
    assert trace.quotient_digits == (0, 3, 4, 8)
    assert [s.pp0 for s in trace.steps] == [0, 0, -1, 0, 6, -4]
    assert [s.pp1 for s in trace.steps] == [0, 21, 28, 55, None, None]
    assert [s.remainder for s in trace.steps] == [2, 3, 5, 0, -1, 2]


def test_divmod_allows_transiently_negative_remainders():
    _, _, trace = plum_div.divmod(ds(242558), ds(697), "wedge")
    assert any(s.remainder < 0 for s in trace.steps)
    assert int(trace.remainder) >= 0


def test_divmod_small_dividend():
    for a, b in ((5, 369), (0, 7), (5, 7), (368, 369), (99, 3456)):
        for method in plum_div.DIV_METHODS:
            q, r, trace = plum_div.divmod(ds(a), ds(b), method)
            assert (str(q), str(r), trace.quotient_digits) == ("0", str(a), ())
            assert trace.steps == ()


def test_divmod_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        plum_div.divmod(ds(5), ds(0), "plum")
    with pytest.raises(ValueError):
        plum_div.divmod(ds(5), ds(3), "nope")


def test_divmod_does_not_call_the_oracle(monkeypatch):
    def unavailable(*args):
        raise AssertionError("division must not call o_divmod")

    monkeypatch.setattr("plumcalc.oracle.o_divmod", unavailable)
    monkeypatch.setattr(plum_div, "o_divmod", unavailable, raising=False)
    for method in plum_div.DIV_METHODS:
        q, r, trace = plum_div.divmod(ds(56789), ds(369), method)
        assert (str(q), str(r)) == ("153", "332")
        assert [s.remainder for s in trace.steps] == [1, 1, 2, 32, 332]


def test_divmod_builds_no_terms(monkeypatch):
    def unavailable(*args, **kwargs):
        raise AssertionError("divmod must not build terms")

    for name in ("pp0_plum", "pp0_wedge", "pp1", "_diagonal_terms"):
        monkeypatch.setattr(plum_div, name, unavailable)
    for method in plum_div.DIV_METHODS:
        _, _, trace = plum_div.divmod(ds(2728018), ds(3456), method)
        assert [s.pp1 for s in trace.steps] == [0, 24, 27, 31, None, None, None]


def test_divergence_error_names_method_and_operands(monkeypatch):
    real_columns = plum_div._wedge_columns
    outputs = []

    def off_by_one(xs, ys):
        # written into the slot bytes, which the chain check reads; whether the kernel packed them is recorded
        columns = real_columns(xs, ys)
        outputs.append("_slots" in columns.__dict__)
        return bumped(columns, 1)

    monkeypatch.setattr(plum_div, "_wedge_columns", off_by_one)
    for basecase in (cross_mul._BASECASE_PAIRS, 0):  # 56789 by 369 pair by pair, then packed
        monkeypatch.setattr(cross_mul, "_BASECASE_PAIRS", basecase)
        for method in plum_div.DIV_METHODS:
            with pytest.raises(RuntimeError, match=f"^{method} division of 56789 by 369: partial remainder chain diverged"):
                plum_div.divmod(ds(56789), ds(369), method)
    # operands and remainders far past the interpreter's int/str limit still give the message
    rng = random.Random(12)
    a = "".join(rng.choice("123456789") for _ in range(10**4))
    b = "".join(rng.choice("123456789") for _ in range(5 * 10**3))
    with pytest.raises(RuntimeError) as excinfo, int_digit_limit(4300):
        plum_div.divmod(parse(a), parse(b), "plum")
    assert outputs == [False, False, True, True, True]
    message = str(excinfo.value)
    assert message.startswith(f"plum division of {a} by {b}: partial remainder chain diverged: ")
    chain, remainder = message.rsplit(": ", 1)[1].split(" vs ")
    with int_digit_limit(0):
        assert int(remainder) == int(a) % int(b)
        assert int(chain) - int(remainder) == -(10 ** (10**4 - 2))  # column 1 weighs 10**(s-2)


def test_step_recurrence_holds():
    for a, b, method in ((56789, 369, "plum"), (2728018, 3456, "plum"), (242558, 697, "wedge")):
        _, _, trace = plum_div.divmod(ds(a), ds(b), method)
        prev = 0
        for step in trace.steps:
            assert step.interim == 10 * prev + step.digit
            assert step.after_pp0 == step.interim - step.pp0
            expected = step.after_pp0 - (step.pp1 or 0)
            assert step.remainder == expected
            assert step.pp0 == sum(t.value for t in step.pp0_terms)
            if step.pp1 is not None:
                assert step.pp1 == sum(t.value for t in step.pp1_terms)
            prev = step.remainder


def test_pp_reconstruction_identity():
    # one-digit divisors and zero quotients included
    cases = ((56789, 369), (2728018, 3456), (242558, 697), (5678900, 369), (99999, 7), (63, 9), (10**30 + 5, 3))
    with int_digit_limit(0):
        long_dividend = int("58" * 1000)
    for a, b in (*cases, (long_dividend, 7), (5, 7), (368, 369)):
        for method in ("plum", "wedge"):
            q, _, trace = plum_div.divmod(ds(a), ds(b), method)
            assert trace.pp_reconstruction() == b * int(q) == b * (a // b)
            assert "steps" not in trace.__dict__
            s = len(trace.steps)
            assert trace.pp_reconstruction() == sum((t.pp0 + (t.pp1 or 0)) * 10 ** (s - t.index) for t in trace.steps)


def test_divmod_agrees_exhaustively_small():
    # divmod never branches on the method: the wedge trace is the plum trace
    # retagged, which is why one equivalence check per case covers both
    for a in range(0, 160):
        for b in range(1, 60):
            traces = {}
            for method in ("plum", "wedge"):
                q, r, traces[method] = plum_div.divmod(ds(a), ds(b), method)
                assert (int(q), int(r)) == (a // b, a % b), (a, b, method)
            plum, wedge = traces["plum"], traces["wedge"]
            assert wedge == dataclasses.replace(plum, method="wedge"), (a, b)
            for name in ("_columns", "steps", "remainder"):
                assert getattr(wedge, name) == getattr(plum, name), (a, b, name)


@settings(max_examples=150, deadline=None)
@given(numerals(64), numerals(32).filter(bool), st.sampled_from(("plum", "wedge")))
def test_divmod_agrees_random_large(x, y, method):
    q, r, trace = plum_div.divmod(ds(x), ds(y), method)
    assert (int(q), int(r)) == (x // y, x % y)
    assert trace.pp_reconstruction() == y * (x // y)
    # canonical outputs, which pass the public check they were built without
    assert str(q) == str(x // y)
    assert str(r) == str(x % y)
    assert DigitString(q.digits) == q and DigitString(r.digits) == r


@settings(max_examples=40, deadline=None)
@given(numerals(2048), numerals(1024).filter(bool), st.sampled_from(plum_div.DIV_METHODS))
def test_divmod_agrees_at_scale(x, y, method):
    q, r, trace = plum_div.divmod(ds(x), ds(y), method)
    assert (int(q), int(r)) == divmod(x, y)
    assert trace.pp_reconstruction() == y * int(q)
    assert "steps" not in trace.__dict__
    if trace.steps:
        with int_digit_limit(0):
            assert len(trace.steps) == len(str(x))
        assert trace.steps[-1].remainder == int(r)
        prev = 0
        for step in trace.steps:
            assert step.interim == 10 * prev + step.digit
            assert step.remainder == step.after_pp0 - (step.pp1 or 0) == step.interim - step.pp0 - (step.pp1 or 0)
            prev = step.remainder
    else:
        assert q.is_zero


divisors = st.one_of(
    numerals(64).filter(bool),
    st.integers(1, 9),
    st.integers(0, 63).map(lambda k: 10**k),
)


@settings(max_examples=200, deadline=None)
@given(numerals(128), divisors, st.sampled_from(plum_div.DIV_METHODS))
def test_step_values_match_the_partial_product_functions(x, y, method):
    pp0_fn = plum_div._PP0[method]
    b = ds(y)
    _, _, trace = plum_div.divmod(ds(x), b, method)
    c = trace.quotient_digits
    for step in trace.steps:
        n = step.index
        assert step.pp0 == pp0_fn(b, c[: n - 1], n)[0] == sum(t.value for t in step.pp0_terms)
        if n <= len(c):
            assert step.pp1 == pp1(b, c[n - 1])[0] == sum(t.value for t in step.pp1_terms)
        else:
            assert step.pp1 is None and step.pp1_terms == ()


def test_division_terms_are_built_only_when_read():
    with int_digit_limit(0):
        x, y = int("7" * 2048), int("3" + "1" * 1023)
    for method in plum_div.DIV_METHODS:
        q, _, trace = plum_div.divmod(ds(x), ds(y), method)
        assert int(q) == x // y
        assert "steps" not in trace.__dict__
        assert all("pp0_terms" not in s.__dict__ and "pp1_terms" not in s.__dict__ for s in trace.steps)
        step = trace.steps[1]
        assert step.pp0_terms is step.pp0_terms
        assert "pp0_terms" in step.__dict__


def test_div_decimal_worked_example():
    text, remainder, _ = div_decimal(ds(56789), ds(369), 2)
    assert text == "153.89"
    assert str(remainder) == "359"


def test_div_decimal_zero_places_matches_divmod():
    text, remainder, _ = div_decimal(ds(56789), ds(369), 0)
    assert text == "153"
    assert str(remainder) == "332"


def test_div_decimal_small_quotient():
    text, remainder, _ = div_decimal(ds(1), ds(3), 3)
    assert text == "0.333"
    assert str(remainder) == "1"


def test_div_decimal_rejects_bad_arguments():
    with pytest.raises(ValueError):
        div_decimal(ds(1), ds(3), -1)
    with pytest.raises(ZeroDivisionError):
        div_decimal(ds(1), ds(0), 2)



def test_long_division_under_the_smallest_int_string_limit():
    # every conversion divmod makes reads or writes blocks of at most 512 digits
    rng = random.Random(5000)
    a = "7" + "".join(rng.choice("0123456789") for _ in range(4999))
    b = "4" + "".join(rng.choice("0123456789") for _ in range(2499))
    with int_digit_limit(0):
        expected_q, expected_r = divmod(int(a), int(b))
    for method in plum_div.DIV_METHODS:
        with int_digit_limit(640):
            q, r, trace = plum_div.divmod(parse(a), parse(b), method)
            chain = trace.pp_reconstruction()
            steps = trace.steps
        with int_digit_limit(0):
            assert (int(q), int(r)) == (expected_q, expected_r)
            assert chain == int(b) * expected_q
        assert len(trace.quotient_digits) == 2501 and steps[-1].remainder == expected_r
