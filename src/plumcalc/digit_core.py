"""Single-digit primitives of the plum-blossom calculus.

The plum-blossom product ``a ♣ b`` is the representative of ``a*b`` modulo 10
that lies in the window [-6, 3]: the ones digit of the product when that digit
is at most 3, otherwise the ones digit minus 10.  The matching carry ``J``
satisfies ``a*b == 10*J + (a ♣ b)``.  The wedge product ``(a,b) ⋈ c`` folds a
digit's residue together with its right neighbour's carry into one term:
``a ♣ c + J(b ♣ c)``.

``♣`` and ``J`` are each one closed formula, total on all integers; their
10x10 digit tables serve ``wedge`` and the column kernel in ``cross_mul``.

Everything in this module is a pure function of its arguments.  The law
verifiers at the bottom brute-force every identity over its full finite
domain and report violations instead of asserting.  Each law is a stream of
``(check, x, y)`` cases fed to one driver, ``_sweep``, which the equivalence
sweeps share: ``check(violations, x, y)`` appends what it finds and returns
how many domain elements the case counts.  A digit-law case compares an
``(expected, actual)`` pair on its inputs with ``_agree``, which counts one,
or with ``_also``, a further condition on inputs already counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterable, NamedTuple

__all__ = [
    "clubsuit",
    "carry",
    "carry_split",
    "carry_closed_form",
    "delta",
    "wedge",
    "wedge_table",
    "CarrySplit",
    "WedgeTable",
    "LawReport",
    "LAW_SUITES",
    "verify_laws",
    "WEDGE_SYMBOL",
    "CLUB_SYMBOL",
]

WEDGE_SYMBOL = "⋈"  # ⋈
CLUB_SYMBOL = "♣"  # ♣


def clubsuit(x: int, y: int) -> int:
    """Plum-blossom product of two integers, always in [-6, 3].

    Computed as ``((x*y + 6) mod 10) - 6`` with floored modulus, which agrees
    with the ones-digit rule on non-negative inputs and extends it totally to
    negative ones.
    """
    return ((x * y + 6) % 10) - 6


def carry(x: int, y: int) -> int:
    """The carry J with ``x*y == 10*carry(x, y) + clubsuit(x, y)``.

    Computed as ``(x*y + 6) // 10``, the floored quotient whose remainder
    gives ``clubsuit``, so the split is exact for every pair of integers.
    """
    return (x * y + 6) // 10


# Digit tables of both primitives, read by the column kernel's byte tables, and
# of the wedge product ``_WEDGE10[a][b][c]``, read by ``wedge`` and by the trace terms.
_CLUB10 = tuple(tuple(clubsuit(x, y) for y in range(10)) for x in range(10))
_CARRY10 = tuple(tuple(carry(x, y) for y in range(10)) for x in range(10))
_WEDGE10 = tuple(tuple(tuple(_CLUB10[a][c] + _CARRY10[b][c] for c in range(10)) for b in range(10)) for a in range(10))


class CarrySplit(NamedTuple):
    """Product decomposition ``x*y == 10*carry + residue`` with residue in [-6, 3]."""

    carry: int
    residue: int


def carry_split(x: int, y: int) -> CarrySplit:
    return CarrySplit(carry(x, y), clubsuit(x, y))


def _require_digit_1_9(name: str, value: int) -> None:
    if not 1 <= value <= 9:
        raise ValueError(f"{name} must be a digit in 1..9, got {value}")


def _require_digit(name: str, value: int) -> None:
    if not 0 <= value <= 9:
        raise ValueError(f"{name} must be a digit in 0..9, got {value}")


def carry_closed_form(a: int, b: int) -> int:
    """Closed form for ``carry(a, b)`` on digits 1..9.

    The four cases are tried in order on the ordered pair (smaller first);
    the first case reads "(a == 1 or b == 9) and b - a >= 3".
    """
    _require_digit_1_9("a", a)
    _require_digit_1_9("b", b)
    if a > b:
        a, b = b, a
    if (a == 1 or b == 9) and b - a >= 3:
        return a
    if b - a >= 5:
        return a
    if 3 <= a <= b <= 7 and b - a <= 1:
        return a - 2
    return a - 1


def delta(a: int, b: int) -> int:
    """Offset of the carry from ``min(a, b)``; always 0, -1 or -2 on digits 1..9."""
    _require_digit_1_9("a", a)
    _require_digit_1_9("b", b)
    return carry(a, b) - min(a, b)


def wedge(a: int, b: int, c: int) -> int:
    """Wedge product of the digit pair (a, b) with multiplier c.

    Equals ``clubsuit(a, c) + carry(b, c)`` and always lies in [-6, 11].
    """
    _require_digit("a", a)
    _require_digit("b", b)
    _require_digit("c", c)
    return _WEDGE10[a][b][c]


@dataclass(frozen=True)
class WedgeTable:
    """10x10 grid of wedge products for a fixed multiplier.

    ``cells[a][b]`` is the wedge product of the pair (a, b) with the
    multiplier, where a is the tens digit and b the ones digit.
    """

    multiplier: int
    cells: tuple[tuple[int, ...], ...]

    def cell(self, a: int, b: int) -> int:
        return self.cells[a][b]

    def as_text(self, ascii_only: bool = False) -> str:
        """Space-aligned table: header row, then 10 rows of 10 signed values."""
        symbol = "><" if ascii_only else WEDGE_SYMBOL
        lines = [f"{symbol}(c={self.multiplier})"]
        width = max(len(str(v)) for row in self.cells for v in row)
        for row in self.cells:
            lines.append(" ".join(f"{v:>{width}}" for v in row))
        return "\n".join(lines)

    def as_csv(self) -> str:
        """One ``a,b,value`` line per cell, preceded by a header line."""
        lines = ["a,b,value"]
        for a in range(10):
            for b in range(10):
                lines.append(f"{a},{b},{self.cells[a][b]}")
        return "\n".join(lines)


def wedge_table(c: int) -> WedgeTable:
    """Build the full wedge-product table for multiplier ``c`` in 1..9."""
    _require_digit_1_9("c", c)
    cells = tuple(tuple(wedge(a, b, c) for b in range(10)) for a in range(10))
    return WedgeTable(multiplier=c, cells=cells)


@dataclass(frozen=True)
class LawReport:
    """Result of brute-forcing one law over its full finite domain.

    ``violations`` holds (inputs, expected, actual) triples; the law holds on
    its stated domain exactly when the list is empty.  ``detail`` carries any
    value the verifier records beyond pass/fail (extrema, attainment sets).
    """

    law: str
    domain_size: int
    violations: tuple[tuple[tuple[int, ...], int, int], ...] = ()
    detail: str = ""

    @property
    def holds(self) -> bool:
        return not self.violations


def _sweep(law: str, cases: Iterable[tuple[Callable[..., int], Any, Any]], detail: str = "") -> LawReport:
    """Run every case ``(check, x, y)`` into one report.

    ``check(violations, x, y)`` appends the violations it finds and returns how
    many domain elements the case counts; the report's domain size is their sum.
    """
    violations: list = []
    count = 0
    for check, x, y in cases:
        count += check(violations, x, y)
    return LawReport(law, count, tuple(violations), detail)


def _agree(violations: list, inputs: tuple[int, ...], pair: tuple[int, int]) -> int:
    """One domain element, violated when ``pair``'s expected and actual values differ."""
    expected, actual = pair
    if expected != actual:
        violations.append((inputs, expected, actual))
    return 1


def _also(violations: list, inputs: tuple[int, ...], pair: tuple[int, int]) -> int:
    """A further condition on inputs already counted in the domain."""
    _agree(violations, inputs, pair)
    return 0


# --- clubsuit laws -----------------------------------------------------------


def _suite_clubsuit_laws() -> list[LawReport]:
    return [
        _sweep(
            "club-commutative",
            ((_agree, (a, b), (clubsuit(a, b), clubsuit(b, a))) for a, b in product(range(10), repeat=2)),
        ),
        _sweep(
            "club-associative",
            (
                (_agree, (a, b, c), (clubsuit(clubsuit(a, b), c), clubsuit(a, clubsuit(b, c))))
                for a, b, c in product(range(10), repeat=3)
            ),
        ),
        _sweep(
            "club-mixed-product",
            ((_agree, (a, b, c), (clubsuit(a * b, c), clubsuit(a, b * c))) for a, b, c in product(range(10), repeat=3)),
        ),
        _sweep(
            "club-shift-ten",
            (
                (_agree, (a, b), (clubsuit(a, b), clubsuit(x, y)))
                for a, b in product(range(10, 20), repeat=2)
                for x, y in ((a - 10, b), (a, b - 10), (a - 10, b - 10))
            ),
        ),
        _sweep(
            "club-even-shift-five",
            ((_agree, (a, b), (clubsuit(a, b), clubsuit(a, b - 5))) for a in range(0, 10, 2) for b in range(5, 10)),
        ),
        _sweep(
            "club-parity-shift-five",
            (
                (_agree, (a, b), (clubsuit(a, b), clubsuit(a - 5, b - 5)))
                for a, b in product(range(5, 10), repeat=2)
                if (a + b) % 2 == 1
            ),
        ),
    ]


# --- carry theorem -----------------------------------------------------------


def _suite_carry_theorem() -> list[LawReport]:
    deltas = {(a, b): delta(a, b) for a, b in product(range(1, 10), repeat=2)}
    cases = (
        case
        for (a, b), d in deltas.items()
        for case in (
            (_agree, (a, b), (carry(a, b), carry_closed_form(a, b))),
            (_also, (a, b), (min(0, max(-2, d)), d)),  # the nearest allowed delta
        )
    )
    return [_sweep("carry-closed-form", cases, f"delta values {sorted(set(deltas.values()))}")]


# --- wedge propositions ------------------------------------------------------

# Largest wedge product over multipliers other than 9; recorded once by brute
# force and pinned here as a regression constant.
WEDGE_MAX_EXCLUDING_NINE = 9


def _wedge_values(multipliers: range) -> dict[tuple[int, int, int], int]:
    """``wedge(a, b, c)`` for all digits ``a``, ``b`` and the given ``c``, keyed by ``(a, b, c)``."""
    return {(a, b, c): wedge(a, b, c) for a in range(10) for b in range(10) for c in multipliers}


def _law_wedge_bounds() -> LawReport:
    values = _wedge_values(range(10))
    lo_at = min(values, key=values.get)
    argmax = [abc for abc, v in values.items() if v == 11]
    cases = [
        case
        for abc, v in values.items()
        for case in (
            (_agree, abc, (1, int(-6 <= v <= 11))),
            (_also, abc, (int(abc == (7, 9, 9)), int(v == 11))),  # 11 is attained at (7, 9, 9) only
        )
    ]
    cases += [(_also, lo_at, (-6, values[lo_at])), (_also, (7, 8, 9), (10, values[7, 8, 9]))]  # -6 and 10 are attained
    return _sweep("wedge-bounds", cases, f"min {values[lo_at]}, max {max(values.values())}, max attained at {argmax}")


def _law_wedge_max_below_ten() -> LawReport:
    values = _wedge_values(range(9))
    hi_at = max(values, key=values.get)
    cases = [(_agree, abc, (1, int(v <= 9))) for abc, v in values.items()]
    cases.append((_agree, hi_at, (WEDGE_MAX_EXCLUDING_NINE, values[hi_at])))
    return _sweep("wedge-max-excluding-nine", cases, f"true maximum over c != 9 is {values[hi_at]}")


def _suite_wedge_props() -> list[LawReport]:
    return [
        _law_wedge_bounds(),
        _law_wedge_max_below_ten(),
        _sweep(
            "wedge-shift-a-five-even-c",
            (
                (_agree, (a, b, c), (wedge(a, b, c), wedge(a + 5, b, c)))
                for c in range(0, 10, 2)
                for a in range(5)
                for b in range(10)
            ),
        ),
        _sweep(
            "wedge-shift-b-five-even-c",
            (
                (_agree, (a, b, c), (wedge(a, b, c) + c // 2, wedge(a, b + 5, c)))
                for c in range(0, 10, 2)
                for a in range(10)
                for b in range(5)
            ),
        ),
        _sweep(
            "wedge-monotone-in-b",
            (
                (_agree, (a, b, c), (1, int(wedge(a, b, c) <= wedge(a, b + 1, c))))
                for a in range(10)
                for c in range(10)
                for b in range(9)
            ),
        ),
        _sweep(
            "wedge-step-in-a",
            (
                (_agree, (a, b, c), (1, int(wedge(a + 1, b, c) - wedge(a, b, c) in (c, c - 10))))
                for a in range(9)
                for b in range(10)
                for c in range(10)
            ),
        ),
    ]


# --- wedge theorems ----------------------------------------------------------


def _delta_ext(a: int, c: int) -> int:
    # delta() demands digits 1..9; the successor law needs a = 0 too, where
    # carry(0, c) = 0 and min = 0 give the natural extension.
    return carry(a, c) - min(a, c)


def _suite_wedge_theorems() -> list[LawReport]:
    return [
        _sweep(
            "wedge-diagonal-pair",
            (
                (_agree, (a, b), (tens + ones - (9 if ones > 3 else 0), wedge(a, a, b)))
                for a, b in product(range(1, 10), repeat=2)
                for tens, ones in [divmod(a * b, 10)]
            ),
        ),
        _sweep(
            "wedge-successor",
            (
                # no +10 exactly when a >= c agrees with the delta staying the same from a to a + 1
                (_agree, (a, b, c), (clubsuit(a + 1, c) + _delta_ext(b, c) + (0 if plain else 10), wedge(a, b, c)))
                for a in range(9)
                for c in range(1, 10)
                for plain in [(a >= c) == (_delta_ext(a + 1, c) == _delta_ext(a, c))]
                for b in range(c, 10)
            ),
        ),
    ]


# --- table patterns ----------------------------------------------------------


def _pattern_column_groups(law: str, c: int, groups: tuple[tuple[int, ...], ...]) -> LawReport:
    """All listed columns of each group in the table for ``c`` are pairwise equal (per row)."""
    cases = (
        (_agree, (a, b, c), (wedge(a, cols[0], c), wedge(a, b, c)))
        for cols in groups
        for a in range(10)
        for b in cols[1:]
    )
    return _sweep(law, cases)


def _pattern_shift(law: str, c: int, shift: tuple[int, int], step: int, wrap: int | None = None) -> LawReport:
    """Shifting ``(a, b)`` by ``shift`` (+3 in one digit) adds ``step`` to the wedge product.

    ``wrap`` pins a recorded exception: the source statement is known to fail
    exactly where the shifted digit is ``wrap`` (a residue wrap in a, a carry
    wrap in b), and the report only holds if reality matches that pinned
    characterization.
    """
    da, db = shift
    cases = (
        (_agree, (a, b, c), (int((a if da else b) != wrap), int(wedge(a + da, b + db, c) == wedge(a, b, c) + step)))
        for a in range(10 - da)
        for b in range(10 - db)
    )
    digit, cause = ("a", "residue") if da else ("b", "carry")
    detail = f"source statement fails exactly at {digit}={wrap} ({cause} wrap)" if wrap is not None else ""
    return _sweep(law, cases, detail)


def _pattern_c9_identity(law: str, a_digits: range, b_digits: range, offset: int) -> LawReport:
    cases = ((_agree, (a, b, 9), (b - a + offset, wedge(a, b, 9))) for a, b in product(a_digits, b_digits))
    return _sweep(law, cases)


def _suite_table_patterns() -> list[LawReport]:
    return [
        _pattern_column_groups("c1-column-groups", 1, ((0, 1, 2, 3), (4, 5, 6, 7, 8, 9))),
        _pattern_column_groups("c2-columns-0-1", 2, ((0, 1),)),
        _pattern_column_groups("c2-columns-2-6", 2, ((2, 3, 4, 5, 6),)),
        _pattern_column_groups("c2-columns-7-9", 2, ((7, 8, 9),)),
        _pattern_shift("c3-shift-b-plus-3", 3, (0, 3), 1),
        _pattern_shift("c3-shift-a-plus-3", 3, (3, 0), -1),
        _pattern_column_groups("c3-columns-around-3k", 3, ((2, 3, 4), (5, 6, 7), (8, 9))),
        _pattern_column_groups("c4-column-groups", 4, ((1, 2, 3), (4, 5), (6, 7, 8))),
        _sweep(
            "c5-rows-period-two",
            ((_agree, (a, b, 5), (wedge(a, b, 5), wedge(a + 2, b, 5))) for a in range(8) for b in range(10)),
        ),
        _pattern_shift("c6-shift-b-plus-3", 6, (0, 3), 2, wrap=4),
        _pattern_shift("c6-shift-a-plus-3", 6, (3, 0), -2, wrap=4),
        _pattern_column_groups("c6-column-pairs", 6, ((1, 2), (4, 5), (6, 7))),
        _pattern_shift("c7-shift-b-plus-3", 7, (0, 3), 2),
        _pattern_shift("c7-shift-a-plus-3", 7, (3, 0), 1),
        _pattern_column_groups("c7-columns-3k", 7, ((2, 3), (5, 6), (8, 9))),
        _pattern_column_groups("c8-column-pairs", 8, ((3, 4), (8, 9))),
        _pattern_column_groups("c9-columns-6-7", 9, ((6, 7),)),
        _pattern_c9_identity("c9-low-low", range(7), range(7), 0),
        _pattern_c9_identity("c9-low-high", range(7), range(7, 10), -1),
        _pattern_c9_identity("c9-high-high", range(7, 10), range(7, 10), 9),
    ]


_SUITE_RUNNERS = {
    "clubsuit-laws": _suite_clubsuit_laws,
    "carry-theorem": _suite_carry_theorem,
    "wedge-props": _suite_wedge_props,
    "wedge-theorems": _suite_wedge_theorems,
    "table-patterns": _suite_table_patterns,
}

LAW_SUITES = tuple(_SUITE_RUNNERS)


def verify_laws(suite: str = "all") -> list[LawReport]:
    """Brute-force one named law suite (or ``all``) and return its reports."""
    if suite != "all" and suite not in _SUITE_RUNNERS:
        raise ValueError(f"unknown law suite {suite!r}; expected one of {', '.join(LAW_SUITES)} or 'all'")
    names = LAW_SUITES if suite == "all" else (suite,)
    return [report for name in names for report in _SUITE_RUNNERS[name]()]
