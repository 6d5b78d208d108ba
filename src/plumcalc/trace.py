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
from functools import cache
from itertools import chain
from operator import getitem
from typing import Iterable

from .cross_mul import MulTrace, _column_layout, _diagonal, _term_operands
from .digit_core import _CARRY10, _CLUB10, _WEDGE10
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


@cache
def _pair_texts(ascii_only: bool) -> dict[str, tuple]:
    """Text of every digit pair of each term kind, ``texts[kind][x][y]``; wedge is ``[a][b][c]``.

    Built on first use, once per symbol set, and shared by every later render.
    """
    club, bowtie, times = _symbols(ascii_only)

    def table(text) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(text(x, y) for y in range(10)) for x in range(10))

    return {
        "product": table(lambda x, y: f"{x}{times}{y}={x * y}"),
        "residue": table(lambda x, y: f"{x}{club}{y}={_CLUB10[x][y]}"),
        "carry": table(lambda x, y: f"J({x}{club}{y})={_CARRY10[x][y]}"),
        "product_tens": table(lambda x, y: f"tens({x}{times}{y})={x * y // 10}"),
        "product_ones": table(lambda x, y: f"ones({x}{times}{y})={x * y % 10}"),
        "wedge": tuple(table(lambda b, c: f"{a}{b}{bowtie}{c}={_WEDGE10[a][b][c]}") for a in range(10)),
    }


def _diagonal_text(kind: str, xs: tuple, ys_reversed: tuple, k: int, texts: dict | None, times: str) -> Iterable[str]:
    """Text of the terms ``_diagonal_terms(kind, xs, ys_reversed[::-1], k)`` would build, in order.

    Without ``texts`` the pairs are segments, whose values may be past the int/str limit.
    """
    wedge = kind == "wedge"
    rows = _diagonal(k, len(xs) - wedge, len(ys_reversed))
    start = len(ys_reversed) - 1 - k
    lefts, rights = xs[rows.start : rows.stop], ys_reversed[start + rows.start : start + rows.stop]
    if texts is None:
        return (f"{_decimal_text(x)}{times}{_decimal_text(y)}={_decimal_text(x * y)}" for x, y in zip(lefts, rights))
    cells = map(texts[kind].__getitem__, lefts)
    if wedge:
        cells = map(getitem, cells, xs[rows.start + 1 : rows.stop + 1])
    return map(getitem, cells, rights)


def render_mul(trace: MulTrace, ascii_only: bool = False) -> RenderedTrace:
    """One line per column (its terms, from the operands, and its signed total), then the columns and the product."""
    symbols = _symbols(ascii_only)
    xs, ys = _term_operands(trace)
    ys_reversed = ys[::-1]
    texts = _pair_texts(ascii_only) if trace.radix_power == 1 else None
    header = f"{trace.a} {symbols[2]} {trace.b}  [{trace.method}]"
    if trace.radix_power > 1:
        header += f" (segments of {trace.radix_power})"
    lines = [header]
    for k, (parts, total) in enumerate(zip(_column_layout(trace), trace.signed.columns)):
        body = ", ".join(
            chain.from_iterable(_diagonal_text(kind, xs, ys_reversed, d, texts, symbols[2]) for kind, d in parts)
        )
        lines.append(f"  col {k}: {body or '0'} = {_decimal_text(total)}")
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
