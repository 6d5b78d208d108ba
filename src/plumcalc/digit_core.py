"""Single-digit primitives of the plum-blossom calculus.

The plum-blossom product ``a ♣ b`` is the representative of ``a*b`` modulo 10
that lies in the window [-6, 3]: the ones digit of the product when that digit
is at most 3, otherwise the ones digit minus 10.  The matching carry ``J``
satisfies ``a*b == 10*J + (a ♣ b)``.  The wedge product ``(a,b) ⋈ c`` folds a
digit's residue together with its right neighbour's carry into one term:
``a ♣ c + J(b ♣ c)``.

``♣`` and ``J`` are each one closed formula, total on all integers; their
10x10 digit tables serve ``wedge`` and the column kernel in ``cross_mul``.

Everything in this module is a pure function of its arguments; the law
verifiers at the bottom brute-force every identity over its full finite
domain and report violations instead of asserting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


# Digit tables of both primitives, read by ``wedge`` and by the column kernel's byte tables.
_CLUB10 = tuple(tuple(clubsuit(x, y) for y in range(10)) for x in range(10))
_CARRY10 = tuple(tuple(carry(x, y) for y in range(10)) for x in range(10))


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
    return _CLUB10[a][c] + _CARRY10[b][c]


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


class _Checker:
    """Collects violations while counting the domain actually swept."""

    def __init__(self, law: str) -> None:
        self.law = law
        self.count = 0
        self.violations: list[tuple[tuple[int, ...], int, int]] = []

    def check(self, inputs: tuple[int, ...], expected: int, actual: int) -> None:
        self.count += 1
        self.record(inputs, expected, actual)

    def record(self, inputs: tuple[int, ...], expected: int, actual: int) -> None:
        """A further condition on inputs already counted in the domain."""
        if expected != actual:
            self.violations.append((inputs, expected, actual))

    def report(self, detail: str = "") -> LawReport:
        return LawReport(self.law, self.count, tuple(self.violations), detail)


# --- clubsuit laws -----------------------------------------------------------


def _law_club_commutative() -> LawReport:
    ck = _Checker("club-commutative")
    for a in range(10):
        for b in range(10):
            ck.check((a, b), clubsuit(a, b), clubsuit(b, a))
    return ck.report()


def _law_club_associative() -> LawReport:
    ck = _Checker("club-associative")
    for a in range(10):
        for b in range(10):
            for c in range(10):
                ck.check(
                    (a, b, c),
                    clubsuit(clubsuit(a, b), c),
                    clubsuit(a, clubsuit(b, c)),
                )
    return ck.report()


def _law_club_mixed_product() -> LawReport:
    ck = _Checker("club-mixed-product")
    for a in range(10):
        for b in range(10):
            for c in range(10):
                ck.check((a, b, c), clubsuit(a * b, c), clubsuit(a, b * c))
    return ck.report()


def _law_club_shift_ten() -> LawReport:
    ck = _Checker("club-shift-ten")
    for a in range(10, 20):
        for b in range(10, 20):
            v = clubsuit(a, b)
            ck.check((a, b), v, clubsuit(a - 10, b))
            ck.check((a, b), v, clubsuit(a, b - 10))
            ck.check((a, b), v, clubsuit(a - 10, b - 10))
    return ck.report()


def _law_club_even_shift_five() -> LawReport:
    ck = _Checker("club-even-shift-five")
    for a in range(0, 10, 2):
        for b in range(5, 10):
            ck.check((a, b), clubsuit(a, b), clubsuit(a, b - 5))
    return ck.report()


def _law_club_parity_shift_five() -> LawReport:
    ck = _Checker("club-parity-shift-five")
    for a in range(5, 10):
        for b in range(5, 10):
            if (a + b) % 2 == 1:
                ck.check((a, b), clubsuit(a, b), clubsuit(a - 5, b - 5))
    return ck.report()


def _suite_clubsuit_laws() -> list[LawReport]:
    return [
        _law_club_commutative(),
        _law_club_associative(),
        _law_club_mixed_product(),
        _law_club_shift_ten(),
        _law_club_even_shift_five(),
        _law_club_parity_shift_five(),
    ]


# --- carry theorem -----------------------------------------------------------


def _suite_carry_theorem() -> list[LawReport]:
    ck = _Checker("carry-closed-form")
    deltas = set()
    for a in range(1, 10):
        for b in range(1, 10):
            ck.check((a, b), carry(a, b), carry_closed_form(a, b))
            d = delta(a, b)
            ck.record((a, b), min(0, max(-2, d)), d)  # the nearest allowed delta
            deltas.add(d)
    return [ck.report("delta values " + str(sorted(deltas)))]


# --- wedge propositions ------------------------------------------------------

# Largest wedge product over multipliers other than 9; recorded once by brute
# force and pinned here as a regression constant.
WEDGE_MAX_EXCLUDING_NINE = 9


def _wedge_values(multipliers: range) -> dict[tuple[int, int, int], int]:
    """``wedge(a, b, c)`` for all digits ``a``, ``b`` and the given ``c``, keyed by ``(a, b, c)``."""
    return {(a, b, c): wedge(a, b, c) for a in range(10) for b in range(10) for c in multipliers}


def _law_wedge_bounds() -> LawReport:
    ck = _Checker("wedge-bounds")
    values = _wedge_values(range(10))
    for abc, v in values.items():
        ck.check(abc, 1, 1 if -6 <= v <= 11 else 0)
        ck.record(abc, 1 if abc == (7, 9, 9) else 0, 1 if v == 11 else 0)  # 11 is attained at (7, 9, 9) only
    lo_at = min(values, key=values.get)
    ck.record(lo_at, -6, values[lo_at])  # -6 is attained
    ck.record((7, 8, 9), 10, values[7, 8, 9])
    argmax = [abc for abc, v in values.items() if v == 11]
    return ck.report(f"min {values[lo_at]}, max {max(values.values())}, max attained at {argmax}")


def _law_wedge_max_below_ten() -> LawReport:
    ck = _Checker("wedge-max-excluding-nine")
    values = _wedge_values(range(9))
    for abc, v in values.items():
        ck.check(abc, 1, 1 if v <= 9 else 0)
    hi_at = max(values, key=values.get)
    ck.check(hi_at, WEDGE_MAX_EXCLUDING_NINE, values[hi_at])
    return ck.report(f"true maximum over c != 9 is {values[hi_at]}")


def _law_wedge_shift_a_five() -> LawReport:
    ck = _Checker("wedge-shift-a-five-even-c")
    for c in range(0, 10, 2):
        for a in range(5):
            for b in range(10):
                ck.check((a, b, c), wedge(a, b, c), wedge(a + 5, b, c))
    return ck.report()


def _law_wedge_shift_b_five() -> LawReport:
    ck = _Checker("wedge-shift-b-five-even-c")
    for c in range(0, 10, 2):
        for a in range(10):
            for b in range(5):
                ck.check((a, b, c), wedge(a, b, c) + c // 2, wedge(a, b + 5, c))
    return ck.report()


def _law_wedge_monotone_b() -> LawReport:
    ck = _Checker("wedge-monotone-in-b")
    for a in range(10):
        for c in range(10):
            for b in range(9):
                ok = wedge(a, b, c) <= wedge(a, b + 1, c)
                ck.check((a, b, c), 1, 1 if ok else 0)
    return ck.report()


def _law_wedge_step_a() -> LawReport:
    ck = _Checker("wedge-step-in-a")
    for a in range(9):
        for b in range(10):
            for c in range(10):
                diff = wedge(a + 1, b, c) - wedge(a, b, c)
                ck.check((a, b, c), 1, 1 if diff in (c, c - 10) else 0)
    return ck.report()


def _suite_wedge_props() -> list[LawReport]:
    return [
        _law_wedge_bounds(),
        _law_wedge_max_below_ten(),
        _law_wedge_shift_a_five(),
        _law_wedge_shift_b_five(),
        _law_wedge_monotone_b(),
        _law_wedge_step_a(),
    ]


# --- wedge theorems ----------------------------------------------------------


def _law_wedge_diagonal() -> LawReport:
    ck = _Checker("wedge-diagonal-pair")
    for a in range(1, 10):
        for b in range(1, 10):
            tens, ones = divmod(a * b, 10)
            expected = tens + ones if ones <= 3 else tens + ones - 9
            ck.check((a, b), expected, wedge(a, a, b))
    return ck.report()


def _delta_ext(a: int, c: int) -> int:
    # delta() demands digits 1..9; the successor law needs a = 0 too, where
    # carry(0, c) = 0 and min = 0 give the natural extension.
    return carry(a, c) - min(a, c)


def _law_wedge_successor() -> LawReport:
    ck = _Checker("wedge-successor")
    for a in range(9):
        for c in range(1, 10):
            same = _delta_ext(a + 1, c) == _delta_ext(a, c)
            plain_case = (a >= c and same) or (a < c and not same)
            for b in range(c, 10):
                base = clubsuit(a + 1, c) + _delta_ext(b, c)
                expected = base if plain_case else base + 10
                ck.check((a, b, c), expected, wedge(a, b, c))
    return ck.report()


def _suite_wedge_theorems() -> list[LawReport]:
    return [_law_wedge_diagonal(), _law_wedge_successor()]


# --- table patterns ----------------------------------------------------------


def _column_group(ck: _Checker, c: int, cols: tuple[int, ...]) -> None:
    """All listed columns of the table for ``c`` are pairwise equal (per row)."""
    for a in range(10):
        first = wedge(a, cols[0], c)
        for b in cols[1:]:
            ck.check((a, b, c), first, wedge(a, b, c))


def _pattern_column_groups(law: str, c: int, groups: tuple[tuple[int, ...], ...]) -> LawReport:
    ck = _Checker(law)
    for cols in groups:
        _column_group(ck, c, cols)
    return ck.report()


def _pattern_shift_b(law: str, c: int, step: int, wrap: int | None = None) -> LawReport:
    # ``wrap`` pins a recorded exception column: the source statement is known
    # to fail exactly at b == wrap (a carry wrap), and the report only holds if
    # reality matches that pinned characterization.
    ck = _Checker(law)
    for a in range(10):
        for b in range(7):
            holds = wedge(a, b + 3, c) == wedge(a, b, c) + step
            ck.check((a, b, c), 0 if b == wrap else 1, 1 if holds else 0)
    detail = f"source statement fails exactly at b={wrap} (carry wrap)" if wrap is not None else ""
    return ck.report(detail)


def _pattern_shift_a(law: str, c: int, step: int, wrap: int | None = None) -> LawReport:
    ck = _Checker(law)
    for a in range(7):
        for b in range(10):
            holds = wedge(a + 3, b, c) == wedge(a, b, c) + step
            ck.check((a, b, c), 0 if a == wrap else 1, 1 if holds else 0)
    detail = f"source statement fails exactly at a={wrap} (residue wrap)" if wrap is not None else ""
    return ck.report(detail)


def _pattern_c5_rows() -> LawReport:
    ck = _Checker("c5-rows-period-two")
    for a in range(8):
        for b in range(10):
            ck.check((a, b, 5), wedge(a, b, 5), wedge(a + 2, b, 5))
    return ck.report()


def _pattern_c9_identity(law: str, amin: int, amax: int, bmin: int, bmax: int, offset: int) -> LawReport:
    ck = _Checker(law)
    for a in range(amin, amax + 1):
        for b in range(bmin, bmax + 1):
            ck.check((a, b, 9), b - a + offset, wedge(a, b, 9))
    return ck.report()


def _suite_table_patterns() -> list[LawReport]:
    reports = [
        _pattern_column_groups("c1-column-groups", 1, ((0, 1, 2, 3), (4, 5, 6, 7, 8, 9))),
        _pattern_column_groups("c2-columns-0-1", 2, ((0, 1),)),
        _pattern_column_groups("c2-columns-2-6", 2, ((2, 3, 4, 5, 6),)),
        _pattern_column_groups("c2-columns-7-9", 2, ((7, 8, 9),)),
        _pattern_shift_b("c3-shift-b-plus-3", 3, 1),
        _pattern_shift_a("c3-shift-a-plus-3", 3, -1),
        _pattern_column_groups("c3-columns-around-3k", 3, ((2, 3, 4), (5, 6, 7), (8, 9))),
        _pattern_column_groups("c4-column-groups", 4, ((1, 2, 3), (4, 5), (6, 7, 8))),
        _pattern_c5_rows(),
        _pattern_shift_b("c6-shift-b-plus-3", 6, 2, wrap=4),
        _pattern_shift_a("c6-shift-a-plus-3", 6, -2, wrap=4),
        _pattern_column_groups("c6-column-pairs", 6, ((1, 2), (4, 5), (6, 7))),
        _pattern_shift_b("c7-shift-b-plus-3", 7, 2),
        _pattern_shift_a("c7-shift-a-plus-3", 7, 1),
        _pattern_column_groups("c7-columns-3k", 7, ((2, 3), (5, 6), (8, 9))),
        _pattern_column_groups("c8-column-pairs", 8, ((3, 4), (8, 9))),
        _pattern_column_groups("c9-columns-6-7", 9, ((6, 7),)),
        _pattern_c9_identity("c9-low-low", 0, 6, 0, 6, 0),
        _pattern_c9_identity("c9-low-high", 0, 6, 7, 9, -1),
        _pattern_c9_identity("c9-high-high", 7, 9, 7, 9, 9),
    ]
    return reports


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
