"""Plain-text rendering of multiplication and division traces.

Multiplication renders one line per column (its terms and total), then the
signed column tuple, then the final product.  A column's term text is a strided
slice of one grid of pair texts per term kind, read by ``cross_mul._layout_cells``
as ``MulTrace.columns`` reads values, so no term is built.  Division renders the
classic vertical tableau: quotient line, ``divisor ) dividend`` line, then one
value per line, right-aligned so that every row of step ``n`` ends underneath
dividend digit ``n``.  Negative subtrahends carry a leading minus sign.

Rendering is deterministic: equal traces produce byte-identical text.  With
``ascii_only`` the wedge sign renders as ``><``, the plum product sign as
``*~``, and the multiplication sign as ``x``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .cross_mul import _PAIR_TABLES, MulTrace, _layout_cells, _term_layout
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


# One text format per term kind, filled with the pair's operands and its ``value``.
_FORMATS = {
    "product": "{0}{times}{1}={value}",
    "residue": "{0}{club}{1}={value}",
    "carry": "J({0}{club}{1})={value}",
    "product_tens": "tens({0}{times}{1})={value}",
    "product_ones": "ones({0}{times}{1})={value}",
    "wedge": "{0}{1}{bowtie}{2}={value}",
}


@cache
def _pair_texts(ascii_only: bool) -> dict[str, tuple]:
    """Text of each entry of ``cross_mul._PAIR_TABLES``, ``texts[kind][x][y]`` (wedge: ``[a][b][c]``).

    Built on first use, once per symbol set, and shared by every later render.
    """
    club, bowtie, times = _symbols(ascii_only)

    def texts(form: str, table: tuple | int, *operands: int) -> tuple | str:
        if isinstance(table, int):
            return form.format(*operands, value=table, club=club, bowtie=bowtie, times=times)
        return tuple(texts(form, row, *operands, x) for x, row in enumerate(table))

    return {kind: texts(form, _PAIR_TABLES[kind]) for kind, form in _FORMATS.items()}


def render_mul(trace: MulTrace, ascii_only: bool = False) -> RenderedTrace:
    """One line per column (its terms, from the operands, and its signed total), then the columns and the product."""
    times = _symbols(ascii_only)[2]
    lines = [f"{trace.a} {times} {trace.b}  [{trace.method}]"]
    texts = _pair_texts(ascii_only) if trace.radix_power == 1 else None
    if texts is None:
        lines[0] += f" (segments of {trace.radix_power})"

    def segment_text(x: int, y: int) -> str:  # no table holds segments, whose values may pass the int/str limit
        return _FORMATS["product"].format(_decimal_text(x), _decimal_text(y), value=_decimal_text(x * y), times=times)

    columns = _layout_cells(*_term_layout(trace), texts, segment_text)
    for k, ((_, cells), total) in enumerate(zip(columns, trace.signed.columns)):
        lines.append(f"  col {k}: {', '.join(cells) or '0'} = {_decimal_text(total)}")
    lines.append(f"  columns: {trace.signed}")
    lines.append(f"  product: {trace.product}")
    return RenderedTrace(trace.method, (str(trace.a), str(trace.b)), tuple(lines))


def render_div(trace: DivisionTrace, ascii_only: bool = False) -> RenderedTrace:
    """Vertical division tableau with one value per line.

    Rows per step, in order: bring-down value, the pp0 subtrahend and the
    value after subtracting it, then the pp1 subtrahend and the new partial
    remainder.  The first displayed step starts directly under the dividend,
    so its bring-down row is omitted, as is its (always zero) pp0 row.
    ``ascii_only`` changes nothing: the tableau holds no symbol.
    """
    operands = (str(trace.dividend), str(trace.divisor))
    prefix = f"{trace.divisor} ) "
    margin = len(prefix)

    def at(value: int | str, step_index: int) -> str:
        text = value if isinstance(value, str) else _decimal_text(value)
        return text.rjust(margin + step_index + 1)  # ends under dividend digit step_index (0-based)

    lines: list[str] = []
    if trace.quotient.is_zero:
        lines.append(at("0", len(trace.dividend) - 1))
        lines.append(f"{prefix}{trace.dividend}")
        lines.append(at(str(trace.remainder), len(trace.dividend) - 1))
        return RenderedTrace(trace.method, operands, tuple(lines))

    # the quotient ends under its last step; the step of a leading zero quotient digit is not shown
    last = len(trace.quotient_digits)
    first_nonzero = last - len(trace.quotient) + 1
    lines.append(at(str(trace.quotient), last - 1))
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
