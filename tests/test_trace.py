"""Trace rendering: content fidelity, determinism, ASCII fallback."""

from __future__ import annotations

import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from int_limits import int_digit_limit
from plumcalc import cli, cross_mul, plum_div
from plumcalc.cross_mul import (
    MUL_METHODS,
    MulTrace,
    Term,
    _term_layout,
    plum_mul,
    rapid_mul,
    wedge_mul,
    wedge_mul_single,
)
from plumcalc.digit_string import DigitString, _decimal_text, parse
from plumcalc.trace import _symbols, render_div, render_mul
from strategies import numerals


def ds(value: int) -> DigitString:
    return DigitString.from_int(value)


def test_render_mul_includes_tuple_and_product():
    _, trace = wedge_mul(ds(348), ds(697))
    rendered = render_mul(trace)
    text = str(rendered)
    assert "(2,4,2,5,6,-4)" in text
    assert "242556" in text


def test_render_mul_one_line_per_column():
    _, trace = wedge_mul_single(parse("35649758"), 9)
    rendered = render_mul(trace)
    col_lines = [line for line in rendered.lines if line.lstrip().startswith("col ")]
    assert len(col_lines) == 9


def test_render_mul_zero_operand():
    # a zero product has one column in radix 10, so no "(segments of ...)" suffix
    for (_, trace), header in [
        (plum_mul(ds(123), ds(0)), "123 × 0  [plum]"),
        (wedge_mul_single(ds(0), 7), "0 × 7  [wedge_single]"),
    ]:
        assert render_mul(trace).lines == (header, "  col 0: 0 = 0", "  columns: (0)", "  product: 0")


def test_render_mul_term_text():
    _, trace = plum_mul(ds(386), ds(47))
    text = str(render_mul(trace))
    assert "3×4=12" in text  # leading product kept whole
    assert "♣" in text
    assert "J(" in text


def test_render_mul_segmented():
    _, trace = rapid_mul(ds(2976), ds(2924), 2)
    text = str(render_mul(trace))
    assert "29×29=841" in text
    assert "(841,2900,1824)" in text


def test_render_mul_cross_with_shorter_first_operand():
    _, trace = rapid_mul(ds(12), ds(345))
    text = str(render_mul(trace))
    assert "3×1=3" in text  # internal orientation puts the longer operand first
    assert str(345 * 12) in text


def test_render_mul_ascii_only():
    _, trace = wedge_mul(ds(348), ds(697))
    text = str(render_mul(trace, ascii_only=True))
    assert text.isascii()
    assert "><" in text
    _, trace = plum_mul(ds(386), ds(47))
    text = str(render_mul(trace, ascii_only=True))
    assert text.isascii()
    assert "*~" in text


def test_render_mul_deterministic():
    _, t1 = wedge_mul(ds(348), ds(697))
    _, t2 = wedge_mul(ds(348), ds(697))
    assert str(render_mul(t1)) == str(render_mul(t2))


def _reference_term_text(term: Term, xs: tuple[int, ...], ys: tuple[int, ...], symbols: tuple[str, str, str]) -> str:
    club, bowtie, times = symbols
    x, y = xs[term.i], ys[term.j]
    if term.kind == "wedge":
        return f"{x}{xs[term.i + 1]}{bowtie}{y}={term.value}"
    if term.kind == "residue":
        return f"{x}{club}{y}={term.value}"
    if term.kind == "carry":
        return f"J({x}{club}{y})={term.value}"
    if term.kind == "product_ones":
        return f"ones({x}{times}{y})={term.value}"
    if term.kind == "product_tens":
        return f"tens({x}{times}{y})={term.value}"
    return f"{_decimal_text(x)}{times}{_decimal_text(y)}={_decimal_text(term.value)}"


def render_mul_reference(trace: MulTrace, ascii_only: bool = False) -> list[str]:
    """Lines of ``render_mul`` built term by term from ``trace.columns``, the way it once was."""
    symbols = _symbols(ascii_only)
    xs, ys, _ = _term_layout(trace)
    header = f"{trace.a} {symbols[2]} {trace.b}  [{trace.method}]"
    if trace.radix_power > 1:
        header += f" (segments of {trace.radix_power})"
    lines = [header]
    for k, column in enumerate(trace.columns):
        if column.terms:
            body = ", ".join(_reference_term_text(t, xs, ys, symbols) for t in column.terms)
        else:
            body = "0"
        lines.append(f"  col {k}: {body} = {_decimal_text(column.total)}")
    lines.append(f"  columns: {trace.signed}")
    lines.append(f"  product: {trace.product}")
    return lines


def _traces(a: DigitString, b: DigitString, segments=(2, 3, 7)) -> list[MulTrace]:
    """Every method's trace of ``a * b``, plus cross traces over the given segment lengths."""
    return [fn(a, b)[1] for fn in MUL_METHODS.values()] + [rapid_mul(a, b, s)[1] for s in segments]


def _assert_renders_like_reference(trace: MulTrace) -> None:
    for ascii_only in (False, True):
        assert list(render_mul(trace, ascii_only).lines) == render_mul_reference(trace, ascii_only), trace.method


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.just(0), numerals(60)), st.one_of(st.just(0), numerals(60)))
def test_render_mul_equals_the_term_by_term_reference(a, b):
    for trace in _traces(ds(a), ds(b)):
        _assert_renders_like_reference(trace)


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.just(0), numerals(60)))
def test_render_mul_single_digit_equals_the_reference(a):
    for c in range(10):
        _assert_renders_like_reference(wedge_mul_single(ds(a), c)[1])


def test_render_mul_long_operands_equal_the_reference():
    rng = random.Random(200)
    a, b = (parse(str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=199))) for _ in range(2))
    for trace in _traces(a, b, segments=()):
        _assert_renders_like_reference(trace)


# sha256 of every rendering below, taken from the term-by-term renderer
LADDER_RENDERINGS_SHA256 = "3f5f9b88ed6b61631fac7f1af44d2898371d34e42c6ed269e1a7466afb427a49"


def _short_cli_ladder() -> list[tuple[DigitString, DigitString]]:
    """Three operand pairs on each rung of the cli-short ladder, 4-24 by 2-12 digits."""
    rng = random.Random(7)
    pairs = []
    for a_len, b_len in zip(range(4, 25, 2), range(2, 13)):
        for _ in range(3):
            a, b = (parse(str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=n - 1))) for n in (a_len, b_len))
            pairs.append((a, b))
    return pairs


def test_renderings_over_the_short_cli_ladder_are_pinned():
    texts = []
    for a, b in _short_cli_ladder():
        for ascii_only in (False, True):
            texts += [str(render_mul(trace, ascii_only)) for trace in _traces(a, b, segments=(2,))]
            texts += [str(render_div(plum_div.divmod(a, b, m)[2], ascii_only)) for m in plum_div.DIV_METHODS]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == LADDER_RENDERINGS_SHA256


def test_render_mul_builds_no_terms(monkeypatch):
    def unavailable(*args, **kwargs):
        raise AssertionError("render_mul must not build terms")

    monkeypatch.setattr(cross_mul, "_terms", unavailable)  # the one builder of terms
    traces = _traces(ds(97531), ds(8642), segments=(2,)) + _traces(ds(0), ds(8642), segments=())
    traces.append(wedge_mul_single(ds(97531), 7)[1])
    for trace in traces:
        render_mul(trace)
        render_mul(trace, ascii_only=True)
        assert "columns" not in trace.__dict__, trace.method
    with pytest.raises(AssertionError, match="must not build terms"):
        traces[0].columns  # the patch is live: reading the terms builds them


def test_render_div_builds_no_terms(monkeypatch):
    def unavailable(*args, **kwargs):
        raise AssertionError("render_div must not build terms")

    for name in ("pp0_plum", "pp0_wedge", "pp1", "_diagonal_terms"):
        monkeypatch.setattr(plum_div, name, unavailable)
    monkeypatch.setattr(cross_mul, "_terms", unavailable)
    # a zero quotient, a quotient with a leading zero, and a one-digit divisor
    pairs = _short_cli_ladder() + [(ds(5), ds(369)), (ds(2728018), ds(3456)), (ds(987654321), ds(7))]
    traces = [plum_div.divmod(a, b, method)[2] for a, b in pairs for method in plum_div.DIV_METHODS]
    for trace in traces:
        render_div(trace)
        render_div(trace, ascii_only=True)
        for step in trace.steps:
            assert "pp0_terms" not in step.__dict__ and "pp1_terms" not in step.__dict__, (trace.method, step.index)
    with pytest.raises(AssertionError, match="must not build terms"):
        traces[0].steps[0].pp1_terms  # the patch is live: reading the terms builds them


def _value_rows(rendered) -> list[int]:
    # rows after the quotient and divisor/dividend lines hold one integer each
    return [int(line.strip()) for line in rendered.lines[2:]]


def test_render_div_worked_rows_plum():
    _, _, trace = plum_div.divmod(ds(56789), ds(369), "plum")
    rendered = render_div(trace)
    rows = _value_rows(rendered)
    subtrahends = [4, -3, 18, 4, 11, -4, -3]
    remainders = [1, 16, 19, 1, 17, 13, 2, 28, 32, 329, 332]
    assert [r for r in rows if r in subtrahends or rows.count(r)] == rows  # rows parse cleanly
    assert _pick_interleaved(rows, subtrahends)
    assert _pick_interleaved(rows, remainders)
    assert rows[-1] == 332
    assert rendered.lines[1] == "369 ) 56789"
    assert rendered.lines[0].strip() == "153"


def test_render_div_worked_rows_wedge():
    _, _, trace = plum_div.divmod(ds(242558), ds(697), "wedge")
    rendered = render_div(trace)
    rows = _value_rows(rendered)
    assert _pick_interleaved(rows, [21, -1, 28, 0, 55, 6, -4])
    assert rows[-1] == 2
    assert rendered.lines[0].strip() == "348"


def _pick_interleaved(rows: list[int], expected: list[int]) -> bool:
    """expected appears in rows in order (other rows may interleave)."""
    it = iter(rows)
    for want in expected:
        for got in it:
            if got == want:
                break
        else:
            return False
    return True


def test_render_div_round_trips_step_values():
    for a, b, method in ((56789, 369, "plum"), (2728018, 3456, "plum"), (242558, 697, "wedge")):
        _, _, trace = plum_div.divmod(ds(a), ds(b), method)
        rendered = render_div(trace)
        rows = _value_rows(rendered)
        expected: list[int] = []
        first = next(s.index for s in trace.steps if s.quotient_digit not in (None, 0))
        for step in trace.steps:
            if step.index < first:
                continue
            if step.index > first:
                expected.extend([step.interim, step.pp0, step.after_pp0])
            if step.pp1 is not None:
                expected.extend([step.pp1, step.remainder])
        assert rows == expected, (a, b, method)


def test_render_div_zero_quotient():
    _, _, trace = plum_div.divmod(ds(5), ds(369), "plum")
    rendered = render_div(trace)
    assert rendered.lines[0].strip() == "0"
    assert rendered.lines[1] == "369 ) 5"
    assert _value_rows(rendered) == [5]


def test_render_div_alignment_rule():
    # every row of step n ends under dividend digit n-1
    _, _, trace = plum_div.divmod(ds(56789), ds(369), "plum")
    rendered = render_div(trace)
    margin = len("369 ) ")
    line_idx = 2
    first = 1
    for step in trace.steps:
        row_values = []
        if step.index > first:
            row_values = [step.interim, step.pp0, step.after_pp0]
        if step.pp1 is not None:
            row_values += [step.pp1, step.remainder]
        for value in row_values:
            line = rendered.lines[line_idx]
            assert len(line) == margin + step.index, (line, step.index)
            assert line.strip() == str(value)
            line_idx += 1


def test_render_div_deterministic_and_ascii():
    _, _, t1 = plum_div.divmod(ds(242558), ds(697), "wedge")
    _, _, t2 = plum_div.divmod(ds(242558), ds(697), "wedge")
    assert str(render_div(t1)) == str(render_div(t2))
    assert str(render_div(t1, ascii_only=True)).isascii()
    assert str(render_div(t1)).isascii()  # tableau is ASCII already


def test_rendered_numbers_match_trace_fields():
    _, _, trace = plum_div.divmod(ds(98765432), ds(4321), "plum")
    rendered = render_div(trace)
    rendered_ints = [int(m) for line in rendered.lines[2:] for m in re.findall(r"-?\d+", line)]
    step_values = set()
    for step in trace.steps:
        step_values.update({step.interim, step.pp0, step.after_pp0, step.remainder})
        if step.pp1 is not None:
            step_values.add(step.pp1)
    assert set(rendered_ints) <= step_values


def test_render_div_past_the_int_string_limit():
    # 4400 over 4390 digits: 11 quotient digits, and partial remainders longer than the default limit
    rng = random.Random(4400)
    a = "9" + "".join(rng.choice("0123456789") for _ in range(4399))
    b = "1" + "".join(rng.choice("0123456789") for _ in range(4389))
    _, _, trace = plum_div.divmod(parse(a), parse(b), "plum")
    with int_digit_limit(4300):  # the interpreter's default
        rendered = render_div(trace)
    margin = len(f"{b} ) ")
    expected_lines = [rendered.lines[0], f"{b} ) {a}"]
    first = next(s.index for s in trace.steps if s.quotient_digit not in (None, 0))
    with int_digit_limit(0):
        for step in trace.steps[first - 1 :]:
            values = [step.interim, step.pp0, step.after_pp0] if step.index > first else []
            values += [step.pp1, step.remainder] if step.pp1 is not None else []
            expected_lines += [str(v).rjust(margin + step.index) for v in values]
        assert list(rendered.lines) == expected_lines
        assert int(rendered.lines[-1]) == int(a) % int(b)
    assert rendered.lines[0].strip() == str(trace.quotient)
    assert len(trace.quotient_digits) == 11


def test_cli_mul_trace_of_long_segments_past_the_int_string_limit(capsys):
    # two 700-digit segments per operand: segment values, products and column
    # totals are all longer than the smallest limit the interpreter allows
    rng = random.Random(1400)
    a, b = ("".join(rng.choice("123456789") for _ in range(1400)) for _ in range(2))
    argv = ["mul", a, b, "--method", "cross", "--segment", "700", "--trace"]
    with int_digit_limit(640):
        code = cli.main(argv)
    limited = capsys.readouterr()
    with int_digit_limit(0):
        assert cli.main(argv) == 0
    assert (code, limited.err) == (0, "")
    assert limited.out == capsys.readouterr().out
    with int_digit_limit(0):
        assert limited.out.endswith(f"  product: {int(a) * int(b)}\n")
