"""Plain-text rendering of multiplication and division traces.

Multiplication renders one line per column (its terms and total), then the
signed column tuple, then the final product.  Division renders the classic
vertical tableau: quotient line, ``divisor ) dividend`` line, then one value
per line, right-aligned so that every row of step ``n`` ends underneath
dividend digit ``n``.  Negative subtrahends carry a leading minus sign.

Rendering is deterministic: equal traces produce byte-identical text.  With
``ascii_only`` the wedge sign renders as ``><``, the plum product sign as
``*~``, and the multiplication sign as ``x``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cross_mul import MulTrace, Term, _term_operands
from .digit_string import _decimal_text
from .plum_div import DivisionTrace

__all__ = ["RenderedTrace", "render_mul", "render_div"]


@dataclass(frozen=True)
class RenderedTrace:
    method: str
    operands: tuple[str, str]
    lines: tuple[str, ...]

    def __str__(self) -> str:
        return "\n".join(self.lines)


def _symbols(ascii_only: bool) -> tuple[str, str, str]:
    if ascii_only:
        return "*~", "><", "x"
    return "♣", "⋈", "×"


def _mul_term_text(term: Term, xs: tuple[int, ...], ys: tuple[int, ...], symbols: tuple[str, str, str]) -> str:
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
    # only cross terms hold segments, whose values may be longer than the interpreter's int/str limit
    return f"{_decimal_text(x)}{times}{_decimal_text(y)}={_decimal_text(term.value)}"


def render_mul(trace: MulTrace, ascii_only: bool = False) -> RenderedTrace:
    """One line per column, then the signed column tuple, then the product."""
    symbols = _symbols(ascii_only)
    xs, ys = _term_operands(trace)
    header = f"{trace.a} {symbols[2]} {trace.b}  [{trace.method}]"
    if trace.radix_power > 1:
        header += f" (segments of {trace.radix_power})"
    lines = [header]
    for k, column in enumerate(trace.columns):
        if column.terms:
            body = ", ".join(_mul_term_text(t, xs, ys, symbols) for t in column.terms)
        else:
            body = "0"
        lines.append(f"  col {k}: {body} = {_decimal_text(column.total)}")
    lines.append(f"  columns: {trace.signed}")
    lines.append(f"  product: {trace.product}")
    return RenderedTrace(trace.method, (str(trace.a), str(trace.b)), tuple(lines))


def render_div(trace: DivisionTrace, ascii_only: bool = False) -> RenderedTrace:
    """Vertical division tableau with one value per line.

    Rows per step, in order: bring-down value, the pp0 subtrahend and the
    value after subtracting it, then the pp1 subtrahend and the new partial
    remainder.  The first displayed step starts directly under the dividend,
    so its bring-down row is omitted, as is its (always zero) pp0 row.
    """
    operands = (str(trace.dividend), str(trace.divisor))
    prefix = f"{trace.divisor} ) "
    margin = len(prefix)

    def at(value: int | str, step_index: int) -> str:
        text = value if isinstance(value, str) else _decimal_text(value)
        return text.rjust(margin + step_index + 1)  # ends under dividend digit step_index (0-based)

    lines: list[str] = []
    first_nonzero = next(
        (s.index for s in trace.steps if s.quotient_digit not in (None, 0)), None
    )
    if trace.quotient.is_zero or first_nonzero is None:
        lines.append(at("0", len(trace.dividend) - 1))
        lines.append(f"{prefix}{trace.dividend}")
        lines.append(at(str(trace.remainder), len(trace.dividend) - 1))
        return RenderedTrace(trace.method, operands, tuple(lines))

    quotient_row = [" "] * (margin + len(trace.dividend))
    for step in trace.steps:
        if step.quotient_digit is not None and step.index >= first_nonzero:
            quotient_row[margin + step.index - 1] = str(step.quotient_digit)
    lines.append("".join(quotient_row).rstrip())
    lines.append(f"{prefix}{trace.dividend}")

    for step in trace.steps:
        if step.index < first_nonzero:
            continue
        pos = step.index - 1
        if step.index > first_nonzero:
            lines.append(at(step.interim, pos))
            lines.append(at(step.pp0, pos))
            lines.append(at(step.after_pp0, pos))
        if step.pp1 is not None:
            lines.append(at(step.pp1, pos))
            lines.append(at(step.remainder, pos))
    return RenderedTrace(trace.method, operands, tuple(lines))
