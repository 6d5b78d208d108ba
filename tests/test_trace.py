"""Trace rendering: content fidelity, determinism, ASCII fallback."""

from __future__ import annotations

import random
import re

from int_limits import int_digit_limit
from plumcalc import cli, plum_div
from plumcalc.cross_mul import plum_mul, rapid_mul, wedge_mul, wedge_mul_single
from plumcalc.digit_string import DigitString, parse
from plumcalc.trace import render_div, render_mul


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
    _, trace = plum_mul(ds(123), ds(0))
    rendered = render_mul(trace)
    col_lines = [line for line in rendered.lines if line.lstrip().startswith("col ")]
    assert len(col_lines) == 1
    assert col_lines[0].endswith("= 0")


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
