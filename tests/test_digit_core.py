"""Single-digit primitives: fixed values, closed form, tables, and laws."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plumcalc import digit_core
from plumcalc.digit_core import (
    LAW_SUITES,
    WEDGE_MAX_EXCLUDING_NINE,
    LawReport,
    carry,
    carry_closed_form,
    carry_split,
    clubsuit,
    delta,
    verify_laws,
    wedge,
    wedge_table,
)

from frozen_tables import CLUB_UPPER, WEDGE_TABLES

digits = st.integers(min_value=0, max_value=9)
any_int = st.integers(min_value=-(10**9), max_value=10**9)


@pytest.mark.parametrize(
    "x, y, expected",
    [
        (3, 7, 1),
        (7, 7, -1),
        (5, 5, -5),
        (5, 8, 0),
        (0, 5, 0),
        (2, 7, -6),
    ],
)
def test_clubsuit_known_values(x, y, expected):
    assert clubsuit(x, y) == expected


def test_clubsuit_matches_reference_triangle():
    for a, row in CLUB_UPPER.items():
        for b, expected in zip(range(a, 10), row):
            assert clubsuit(a, b) == expected
            assert clubsuit(b, a) == expected


@given(any_int, any_int)
def test_clubsuit_is_mod_ten_representative(x, y):
    v = clubsuit(x, y)
    assert -6 <= v <= 3
    assert (v - x * y) % 10 == 0


@given(any_int, any_int)
def test_carry_decomposition(x, y):
    assert 10 * carry(x, y) + clubsuit(x, y) == x * y


@pytest.mark.parametrize("x, y, expected", [(5, 7, 4), (6, 8, 5), (0, 9, 0)])
def test_carry_known_values(x, y, expected):
    assert carry(x, y) == expected


def test_carry_split_invariant():
    for x in range(10):
        for y in range(10):
            split = carry_split(x, y)
            assert 10 * split.carry + split.residue == x * y
            assert -6 <= split.residue <= 3


@pytest.mark.parametrize("a, b, expected", [(3, 3, 1), (1, 9, 1), (8, 9, 7)])
def test_carry_closed_form_known_values(a, b, expected):
    assert carry_closed_form(a, b) == expected


def test_carry_closed_form_matches_carry_everywhere():
    for a in range(1, 10):
        for b in range(1, 10):
            assert carry_closed_form(a, b) == carry(a, b)


@pytest.mark.parametrize("bad", [0, 10, -1])
def test_carry_closed_form_rejects_non_digits(bad):
    with pytest.raises(ValueError):
        carry_closed_form(bad, 5)
    with pytest.raises(ValueError):
        carry_closed_form(5, bad)


@pytest.mark.parametrize("a, b, expected", [(5, 7, -1), (3, 3, -2), (1, 6, 0)])
def test_delta_known_values(a, b, expected):
    assert delta(a, b) == expected


def test_delta_range_and_domain():
    for a in range(1, 10):
        for b in range(1, 10):
            assert delta(a, b) in (0, -1, -2)
    with pytest.raises(ValueError):
        delta(0, 5)


@pytest.mark.parametrize(
    "a, b, c, expected",
    [(3, 5, 7, 5), (5, 9, 7, 1), (7, 4, 2, -5), (4, 6, 8, 7), (4, 6, 9, 2), (0, 0, 3, 0)],
)
def test_wedge_known_values(a, b, c, expected):
    assert wedge(a, b, c) == expected


@given(digits, digits, digits)
def test_wedge_definition_and_bounds(a, b, c):
    assert wedge(a, b, c) == clubsuit(a, c) + carry(b, c)
    assert -6 <= wedge(a, b, c) <= 11


def test_wedge_rejects_non_digits():
    with pytest.raises(ValueError):
        wedge(10, 0, 1)
    with pytest.raises(ValueError):
        wedge(0, -1, 1)
    with pytest.raises(ValueError):
        wedge(0, 0, 11)


def test_wedge_tables_match_reference_grids():
    for c, grid in WEDGE_TABLES.items():
        table = wedge_table(c)
        assert table.multiplier == c
        for a in range(10):
            for b in range(10):
                assert table.cell(a, b) == grid[a][b], (c, a, b)


def test_wedge_table_spot_values():
    assert wedge_table(2).cell(0, 2) == 1
    assert wedge_table(9).cell(7, 9) == 11
    assert wedge_table(9).cell(9, 9) == 9


def test_wedge_table_rejects_bad_multiplier():
    with pytest.raises(ValueError):
        wedge_table(0)
    with pytest.raises(ValueError):
        wedge_table(10)


def test_wedge_table_text_shape():
    text = wedge_table(2).as_text()
    lines = text.splitlines()
    assert lines[0].endswith("(c=2)")
    assert len(lines) == 11
    assert all(len(line.split()) == 10 for line in lines[1:])
    ascii_text = wedge_table(2).as_text(ascii_only=True)
    assert ascii_text.startswith("><(c=2)")
    assert ascii_text.isascii()


def test_wedge_table_csv_shape():
    rows = wedge_table(3).as_csv().splitlines()
    assert rows[0] == "a,b,value"
    assert len(rows) == 101
    assert rows[1] == "0,0,0"
    assert rows[-1] == f"9,9,{wedge(9, 9, 3)}"


# --- law suites ---------------------------------------------------------------


def test_clubsuit_suite_has_six_clean_reports():
    reports = verify_laws("clubsuit-laws")
    assert len(reports) == 6
    assert all(r.holds for r in reports), [r.law for r in reports if not r.holds]


def test_carry_theorem_suite():
    reports = verify_laws("carry-theorem")
    assert len(reports) == 1
    assert reports[0].domain_size == 81
    assert reports[0].holds


def test_wedge_props_suite():
    reports = verify_laws("wedge-props")
    assert all(r.holds for r in reports), [r.law for r in reports if not r.holds]
    by_name = {r.law: r for r in reports}
    assert "max attained at [(7, 9, 9)]" in by_name["wedge-bounds"].detail
    assert f"maximum over c != 9 is {WEDGE_MAX_EXCLUDING_NINE}" in by_name["wedge-max-excluding-nine"].detail


def _law_report(monkeypatch, name, patched, suite, law):
    """The report of ``law`` with the digit function ``name`` of ``digit_core`` replaced."""
    monkeypatch.setattr(digit_core, name, patched)
    return next(r for r in verify_laws(suite) if r.law == law)


def test_carry_theorem_violation_names_its_pair(monkeypatch):
    def patched(a, b):
        return -3 if (a, b) == (4, 6) else delta(a, b)

    report = _law_report(monkeypatch, "delta", patched, "carry-theorem", "carry-closed-form")
    assert report.domain_size == 81
    assert report.violations == (((4, 6), -2, -3),)


def test_wedge_bounds_violations_name_their_triples(monkeypatch):
    def second_maximum(a, b, c):
        return 11 if (a, b, c) == (2, 3, 4) else wedge(a, b, c)

    def no_minimum(a, b, c):
        return max(-5, wedge(a, b, c))

    report = _law_report(monkeypatch, "wedge", second_maximum, "wedge-props", "wedge-bounds")
    assert report.domain_size == 1000
    assert report.violations == (((2, 3, 4), 0, 1),)
    report = _law_report(monkeypatch, "wedge", no_minimum, "wedge-props", "wedge-bounds")
    ((abc, expected, actual),) = report.violations
    assert (expected, actual) == (-6, -5) and no_minimum(*abc) == -5


def test_wedge_max_excluding_nine_violation_names_its_triple(monkeypatch):
    def capped(a, b, c):
        return min(8, wedge(a, b, c))

    report = _law_report(monkeypatch, "wedge", capped, "wedge-props", "wedge-max-excluding-nine")
    assert report.domain_size == 901
    assert report.detail == "true maximum over c != 9 is 8"
    ((abc, expected, actual),) = report.violations
    assert (expected, actual) == (WEDGE_MAX_EXCLUDING_NINE, 8)
    assert len(abc) == 3 and abc[2] != 9 and capped(*abc) == 8


def test_wedge_theorems_suite():
    reports = verify_laws("wedge-theorems")
    assert len(reports) == 2
    assert all(r.holds for r in reports)


def test_table_patterns_suite_has_twenty_clean_reports():
    reports = verify_laws("table-patterns")
    assert len(reports) == 20
    assert all(r.holds for r in reports), [r.law for r in reports if not r.holds]


def test_c6_shift_statements_fail_exactly_at_wrap_points():
    # the source statements overreach: +3 shifts on the c=6 table break at the
    # single carry/residue wrap, e.g. (0,4) -> 3 but (0,7) -> 4
    assert wedge(0, 7, 6) != wedge(0, 4, 6) + 2
    assert wedge(7, 0, 6) != wedge(4, 0, 6) - 2
    for a in range(10):
        for b in range(7):
            holds = wedge(a, b + 3, 6) == wedge(a, b, 6) + 2
            assert holds == (b != 4), (a, b)
    for a in range(7):
        for b in range(10):
            holds = wedge(a + 3, b, 6) == wedge(a, b, 6) - 2
            assert holds == (a != 4), (a, b)
    by_name = {r.law: r for r in verify_laws("table-patterns")}
    assert "fails exactly at b=4" in by_name["c6-shift-b-plus-3"].detail
    assert "fails exactly at a=4" in by_name["c6-shift-a-plus-3"].detail


LAW_PINS = [
    ("club-commutative", 100, ""),
    ("club-associative", 1000, ""),
    ("club-mixed-product", 1000, ""),
    ("club-shift-ten", 300, ""),
    ("club-even-shift-five", 25, ""),
    ("club-parity-shift-five", 12, ""),
    ("carry-closed-form", 81, "delta values [-2, -1, 0]"),
    ("wedge-bounds", 1000, "min -6, max 11, max attained at [(7, 9, 9)]"),
    ("wedge-max-excluding-nine", 901, "true maximum over c != 9 is 9"),
    ("wedge-shift-a-five-even-c", 250, ""),
    ("wedge-shift-b-five-even-c", 250, ""),
    ("wedge-monotone-in-b", 900, ""),
    ("wedge-step-in-a", 900, ""),
    ("wedge-diagonal-pair", 81, ""),
    ("wedge-successor", 405, ""),
    ("c1-column-groups", 80, ""),
    ("c2-columns-0-1", 10, ""),
    ("c2-columns-2-6", 40, ""),
    ("c2-columns-7-9", 20, ""),
    ("c3-shift-b-plus-3", 70, ""),
    ("c3-shift-a-plus-3", 70, ""),
    ("c3-columns-around-3k", 50, ""),
    ("c4-column-groups", 50, ""),
    ("c5-rows-period-two", 80, ""),
    ("c6-shift-b-plus-3", 70, "source statement fails exactly at b=4 (carry wrap)"),
    ("c6-shift-a-plus-3", 70, "source statement fails exactly at a=4 (residue wrap)"),
    ("c6-column-pairs", 30, ""),
    ("c7-shift-b-plus-3", 70, ""),
    ("c7-shift-a-plus-3", 70, ""),
    ("c7-columns-3k", 30, ""),
    ("c8-column-pairs", 20, ""),
    ("c9-columns-6-7", 10, ""),
    ("c9-low-low", 49, ""),
    ("c9-low-high", 21, ""),
    ("c9-high-high", 9, ""),
]


def test_every_law_report_is_pinned():
    # the domain each law sweeps is part of its claim: a case dropped or
    # counted twice changes a size here even when every case holds
    assert [(r.law, r.domain_size, r.detail) for r in verify_laws("all")] == LAW_PINS


def test_verify_all_concatenates_every_suite():
    reports = verify_laws("all")
    assert len(reports) == sum(len(verify_laws(s)) for s in LAW_SUITES)
    assert all(r.holds for r in reports)


def test_a_report_over_an_empty_domain_does_not_hold():
    # every check has to be able to fail: one that checked nothing is no pass
    assert not LawReport("empty", 0).holds
    assert LawReport("one", 1).holds
    assert not LawReport("one", 1, (((1,), 2, 3),)).holds


def test_verify_laws_rejects_unknown_suite():
    with pytest.raises(ValueError):
        verify_laws("no-such-suite")
