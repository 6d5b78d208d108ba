"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criterion 6's exhaustive all-pairs domain is scaled by the
``PLUMCALC_EXHAUSTIVE_LIMIT`` environment variable (default 256, which keeps
the whole suite inside a minute; 10000 reproduces the full stated domain in
about 3.5 hours, projected from 40 s at 512 and 134 s at 1024 on one core, as
the exhaustive box grows as limit²).  ``PLUMCALC_RANDOM_PAIRS`` (default 1000)
sizes the random large-operand sweeps.  Run with ``pytest -s`` to see the
lines.
"""

from __future__ import annotations

import os
import random

from plumcalc import plum_div
from plumcalc.bench import metrics_to_csv, run_bench
from plumcalc.cli import main as cli_main
from plumcalc.cross_mul import plum_mul, rapid_mul, wedge_mul, wedge_mul_single
from plumcalc.digit_core import (
    WEDGE_MAX_EXCLUDING_NINE,
    verify_laws,
    wedge,
    wedge_table,
)
from plumcalc.digit_string import DigitString, SignedDigitString, normalize, parse
from plumcalc.equivalence import verify_div_equivalence, verify_mul_equivalence
from plumcalc.plum_div import DivisionTrace, div_decimal

from frozen_tables import WEDGE_TABLES

EXHAUSTIVE_LIMIT = int(os.environ.get("PLUMCALC_EXHAUSTIVE_LIMIT", "256"))
RANDOM_PAIRS = int(os.environ.get("PLUMCALC_RANDOM_PAIRS", "1000"))


def _report(number: int, name: str, failures: list[str], summary: str) -> None:
    ok = not failures
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {summary}")
    assert ok, f"criterion {number} ({name}): {failures}"


def ds(value: int) -> DigitString:
    return DigitString.from_int(value)


def _displayed_rows(trace: DivisionTrace) -> tuple[list[int], list[int]]:
    """Subtrahend and remainder rows in the vertical layout's order."""
    subtrahends: list[int] = []
    remainders: list[int] = []
    first = next((s.index for s in trace.steps if s.quotient_digit not in (None, 0)), None)
    if first is None:
        return [], [int(trace.remainder)]
    for step in trace.steps:
        if step.index < first:
            continue
        if step.index > first:
            remainders.append(step.interim)
            subtrahends.append(step.pp0)
            remainders.append(step.after_pp0)
        if step.pp1 is not None:
            subtrahends.append(step.pp1)
            remainders.append(step.remainder)
    # merge rows that coincide: after_pp0 is the step remainder when pp1 is absent
    merged: list[int] = []
    for value in remainders:
        merged.append(value)
    return subtrahends, merged


def test_criterion_1_worked_multiplications():
    failures = []
    cases = [
        ("cross 123x456", rapid_mul(ds(123), ds(456)), (4, 13, 28, 27, 18), "56088"),
        ("plum 386x47", plum_mul(ds(386), ds(47)), (17, 12, -6, 2), "18142"),
        ("plum 456x789", plum_mul(ds(456), ds(789)), (35, 9, 8, -2, 4), "359784"),
        ("wedge-single 35649758x9", wedge_mul_single(parse("35649758"), 9), (3, 2, 1, -2, 4, 7, 8, 2, 2), "320847822"),
        ("wedge 348x697", wedge_mul(ds(348), ds(697)), (2, 4, 2, 5, 6, -4), "242556"),
    ]
    for label, (product, trace), columns, expected in cases:
        if trace.signed.columns != columns:
            failures.append(f"{label}: columns {trace.signed.columns} != {columns}")
        if str(product) != expected:
            failures.append(f"{label}: product {product} != {expected}")
    seg_product, seg_trace = rapid_mul(ds(2976), ds(2924), 2)
    if str(seg_product) != "8701824":
        failures.append(f"segmented 2976x2924: {seg_product}")
    if seg_trace.column_value() != 2976 * 2924:
        failures.append("segmented 2976x2924: column value mismatch")
    _report(1, "worked multiplications", failures, "6 worked products with exact column tuples")


def test_criterion_2_worked_divisions():
    failures = []

    q, r, trace = plum_div.divmod(ds(56789), ds(369), "plum")
    if (str(q), str(r)) != ("153", "332"):
        failures.append(f"56789/369 -> {q} r {r}")
    if [s.remainder for s in trace.steps] != [1, 1, 2, 32, 332]:
        failures.append(f"56789/369 step remainders {[s.remainder for s in trace.steps]}")
    subs, rems = _displayed_rows(trace)
    if subs != [4, -3, 18, 4, 11, -4, -3]:
        failures.append(f"56789/369 subtrahends {subs}")
    if rems != [1, 16, 19, 1, 17, 13, 2, 28, 32, 329, 332]:
        failures.append(f"56789/369 remainder rows {rems}")

    q, r, _ = plum_div.divmod(ds(5678900), ds(369), "plum")
    if (str(q), str(r)) != ("15389", "359"):
        failures.append(f"5678900/369 -> {q} r {r}")
    text, rem, _ = div_decimal(ds(56789), ds(369), 2)
    if (text, str(rem)) != ("153.89", "359"):
        failures.append(f"div_decimal 56789/369 -> {text} r {rem}")

    q, r, _ = plum_div.divmod(ds(2728018), ds(3456), "plum")
    if (str(q), str(r)) != ("789", "1234"):
        failures.append(f"2728018/3456 -> {q} r {r}")

    q, r, trace = plum_div.divmod(ds(242558), ds(697), "wedge")
    if (str(q), str(r)) != ("348", "2"):
        failures.append(f"242558/697 -> {q} r {r}")
    subs, _ = _displayed_rows(trace)
    if subs != [21, -1, 28, 0, 55, 6, -4]:
        failures.append(f"242558/697 pp values {subs}")

    _report(2, "worked divisions", failures, "4 worked divisions with exact step values")


def test_criterion_2_decimal_cli(capsys):
    failures = []
    code = cli_main(["div", "56789", "369", "--decimals", "2"])
    out = capsys.readouterr().out
    if code != 0 or out != "153.89 r 359\n":
        failures.append(f"cli decimals output {out!r} code {code}")
    _report(2, "decimal rendering via CLI", failures, "--decimals 2 prints 153.89 r 359")


def test_criterion_3_theorem_suites():
    failures = []
    carry_reports = verify_laws("carry-theorem")
    if len(carry_reports) != 1 or not carry_reports[0].holds:
        failures.append("carry theorem has violations")
    club_reports = verify_laws("clubsuit-laws")
    if len(club_reports) != 6 or not all(r.holds for r in club_reports):
        failures.append("clubsuit laws have violations")
    wedge_reports = {r.law: r for r in verify_laws("wedge-props") + verify_laws("wedge-theorems")}
    for law in (
        "wedge-shift-a-five-even-c",
        "wedge-shift-b-five-even-c",
        "wedge-monotone-in-b",
        "wedge-step-in-a",
        "wedge-diagonal-pair",
        "wedge-successor",
    ):
        if not wedge_reports[law].holds:
            failures.append(f"{law} has violations")
    _report(3, "theorem brute force", failures, "carry theorem, 6 residue laws, 6 wedge laws, zero violations")


def test_criterion_4_tables_and_patterns():
    failures = []
    cells = 0
    for c, grid in WEDGE_TABLES.items():
        regenerated = wedge_table(c)
        for a in range(10):
            for b in range(10):
                cells += 1
                if regenerated.cell(a, b) != grid[a][b]:
                    failures.append(f"table c={c} cell ({a},{b}): {regenerated.cell(a, b)} != {grid[a][b]}")
    if cells != 900:
        failures.append(f"expected 900 cells, saw {cells}")
    reports = verify_laws("table-patterns")
    if len(reports) != 20:
        failures.append(f"expected 20 pattern reports, got {len(reports)}")
    for report in reports:
        if not report.holds:
            failures.append(f"pattern {report.law}: {report.violations[:3]}")
    amended = [r.law for r in reports if r.detail]
    _report(
        4,
        "tables and patterns",
        failures,
        f"900 cells match; 20 pattern statements verified "
        f"({len(reports) - len(amended)} exhaustive as stated, {amended} pinned to their recorded wrap-point exceptions)",
    )


def test_criterion_5_wedge_bounds():
    failures = []
    values = [wedge(a, b, c) for a in range(10) for b in range(10) for c in range(10)]
    if len(values) != 1000 or min(values) != -6 or max(values) != 11:
        failures.append(f"bounds over 1000 triples: min {min(values)}, max {max(values)}")
    max_excl_9 = max(wedge(a, b, c) for a in range(10) for b in range(10) for c in range(9))
    if max_excl_9 != WEDGE_MAX_EXCLUDING_NINE:
        failures.append(f"max over c != 9 drifted: {max_excl_9} != {WEDGE_MAX_EXCLUDING_NINE}")
    _report(
        5,
        "wedge bounds",
        failures,
        f"min -6, max 11 over 1000 triples; max over c != 9 computed as {max_excl_9} and pinned",
    )


def test_criterion_6_oracle_equivalence():
    failures = []
    reports = verify_mul_equivalence(limit=EXHAUSTIVE_LIMIT, random_pairs=RANDOM_PAIRS)
    reports += verify_div_equivalence(limit=EXHAUSTIVE_LIMIT, random_pairs=RANDOM_PAIRS)
    for report in reports:
        if not report.holds:
            failures.append(f"{report.law}: {report.violations[:3]}")
    total = sum(r.domain_size for r in reports)
    _report(
        6,
        "oracle equivalence",
        failures,
        f"{total} method-vs-oracle checks (exhaustive below {EXHAUSTIVE_LIMIT}, "
        f"one-sided sweeps below 10^4, {RANDOM_PAIRS} random pairs up to 64 digits)",
    )


def test_criterion_7_structural_invariants():
    failures = []

    # PP reconstruction on the worked divisions (criterion 6 re-checks it on
    # every sweep trace inside the equivalence suite)
    for a, b, method in (
        (56789, 369, "plum"),
        (5678900, 369, "plum"),
        (2728018, 3456, "plum"),
        (242558, 697, "wedge"),
    ):
        q, _, trace = plum_div.divmod(ds(a), ds(b), method)
        if trace.pp_reconstruction() != b * int(q):
            failures.append(f"reconstruction failed for {a}/{b} ({method})")

    rng = random.Random(90125)
    for _ in range(10_000):
        length = rng.randint(0, 20)
        columns = [rng.randint(56, 999)] + [rng.randint(-500, 500) for _ in range(length)]
        signed = SignedDigitString(tuple(columns))
        if int(normalize(signed)) != signed.value():
            failures.append(f"normalize changed value for {columns}")
            break

    for _ in range(1_000):
        length = rng.randint(1, 40)
        digits = [rng.randint(1, 9)] + [rng.randint(0, 9) for _ in range(length - 1)]
        _, trace = wedge_mul_single(DigitString(tuple(digits)), rng.randint(1, 9))
        if not all(-6 <= col <= 11 for col in trace.signed.columns):
            failures.append(f"wedge column out of range for {digits}")
            break

    _report(
        7,
        "structural invariants",
        failures,
        "PP reconstruction on worked traces, 10^4 normalize round trips, 10^3 wedge column range checks",
    )


def test_criterion_8_bench_determinism():
    failures = []
    config = dict(sizes=[4, 8, 16], trials=8, seed=1234)
    first = metrics_to_csv(run_bench(**config)).splitlines()
    second = metrics_to_csv(run_bench(**config)).splitlines()
    timed = {i for i, name in enumerate(first[0].split(",")) if name.endswith("_ns")}

    def untimed(row: str) -> list[str]:
        return [field for i, field in enumerate(row.split(",")) if i not in timed]

    if len(first) != len(second):
        failures.append("row count differs between runs")
    else:
        for row_a, row_b in zip(first, second):
            if untimed(row_a) != untimed(row_b):
                failures.append(f"rows differ beyond the *_ns timings: {row_a} vs {row_b}")
                break
    _report(8, "bench determinism", failures, "identical CSV apart from the *_ns timings across two same-seed runs")
