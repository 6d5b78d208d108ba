"""Bench harness: determinism, counting rules, product check."""

from __future__ import annotations

import gc
import re
import tracemalloc

import pytest

from plumcalc.bench import BENCH_METHODS, CSV_HEADER, BenchMetrics, metrics_to_csv, run_bench
from plumcalc.digit_string import DigitString
from plumcalc.equivalence import _random_digits, _seeded_rng
from slot_bytes import bumped


def untimed(metrics: list[BenchMetrics]) -> list[str]:
    """The CSV rows of ``metrics`` without the ``*_ns`` timing columns, the only ones that may vary."""
    rows = [row.split(",") for row in metrics_to_csv(metrics).splitlines()]
    kept = [i for i, name in enumerate(rows[0]) if not name.endswith("_ns")]
    return [",".join(row[i] for i in kept) for row in rows]


def test_run_bench_shape_and_order():
    metrics = run_bench(sizes=[8, 4], trials=3, seed=7, methods=["wedge", "plum"])
    assert [(m.method, m.size) for m in metrics] == [
        ("plum", 4),
        ("plum", 8),
        ("wedge", 4),
        ("wedge", 8),
    ]
    assert all(m.trials == 3 for m in metrics)


def test_same_seed_gives_identical_counts():
    a = run_bench(sizes=[4, 8], trials=4, seed=42)
    b = run_bench(sizes=[4, 8], trials=4, seed=42)
    strip = lambda ms: [(m.method, m.size, m.trials, m.mul_count, m.carry_count, m.max_abs_col, m.mean_abs_col) for m in ms]
    assert strip(a) == strip(b)


def test_different_seed_changes_operands():
    a = run_bench(sizes=[16], trials=4, seed=1, methods=["plum"])
    b = run_bench(sizes=[16], trials=4, seed=2, methods=["plum"])
    assert (a[0].carry_count, a[0].mean_abs_col) != (b[0].carry_count, b[0].mean_abs_col)


def test_schoolbook_count_single_digit():
    metrics = run_bench(sizes=[1], trials=1, seed=0)
    assert {m.method: m.mul_count for m in metrics} == {"cross": 1, "plum": 1, "wedge": 4, "wedge_single": 4}


def test_memory_does_not_grow_with_trials():
    def peak(trials):
        tracemalloc.start()
        try:
            run_bench(sizes=[8], trials=trials, seed=1, methods=["cross"])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # A full collection empties the interpreter's free lists, and refilling them
    # (up to 80 list objects, about 4.5 KB) takes tens of trials: inside a traced
    # run it would count as growth.  So collect, then refill the free lists with
    # as many trials of other operands (seed 2), so that a cache keyed on the
    # traced operands would still fill inside the traced runs.
    gc.collect()
    run_bench(sizes=[8], trials=400, seed=2, methods=["cross"])
    # keeping every column of every trial would add about 45 KB between these two
    assert peak(400) < peak(50) + 4096


def test_wedge_single_columns_within_bounds():
    metrics = run_bench(sizes=[8], trials=8, seed=3, methods=["wedge_single"])
    assert metrics[0].max_abs_col <= 11


def test_bench_rejects_bad_config():
    with pytest.raises(ValueError):
        run_bench(sizes=[4], trials=0, seed=0)
    with pytest.raises(ValueError):
        run_bench(sizes=[], trials=1, seed=0)
    with pytest.raises(ValueError):
        run_bench(sizes=[0], trials=1, seed=0)
    with pytest.raises(ValueError):
        run_bench(sizes=[4], trials=1, seed=0, methods=[])
    with pytest.raises(ValueError):
        run_bench(sizes=[4], trials=1, seed=0, methods=["fft"])


def test_product_check_aborts_on_mismatch(monkeypatch):
    from plumcalc import cross_mul

    plum_columns = cross_mul._plum_columns

    def one_too_high(xs, ys):
        return bumped(plum_columns(xs, ys), -1)

    monkeypatch.setattr(cross_mul, "_plum_columns", one_too_high)
    a, b = (int(_random_digits(_seeded_rng(0, "plum", 3, 0, side), 3)) for side in (0, 1))
    message = f"product mismatch for plum on {a} * {b}: got {a * b + 1}, expected {a * b}"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        run_bench(sizes=[3], trials=1, seed=0, methods=["plum"])


@pytest.mark.parametrize("wrong", ["normalize", "normalize_stats"])
def test_product_check_compares_normalize_with_normalize_stats(monkeypatch, wrong):
    # bench times normalize and counts carries with normalize_stats: both must give the product
    from plumcalc import bench

    right = getattr(bench, wrong)

    def one_too_high(signed):
        result = right(signed)
        product = result if wrong == "normalize" else result[0]
        off = DigitString.from_int(int(product) + 1)
        return off if wrong == "normalize" else (off, result[1])

    monkeypatch.setattr(bench, wrong, one_too_high)
    a, b = (int(_random_digits(_seeded_rng(0, "wedge", 4, 0, side), 4)) for side in (0, 1))
    message = f"product mismatch for wedge on {a} * {b}: got {a * b + 1}, expected {a * b}"
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        run_bench(sizes=[4], trials=1, seed=0, methods=["wedge"])


def test_every_method_at_1000_digits():
    # one trial each: past the 640-digit int/str limit that CI sets for this file
    metrics = run_bench(sizes=[1000], trials=1, seed=1)
    assert [(m.method, m.mul_count) for m in metrics] == [
        ("cross", 1_000_000),
        ("plum", 1_999_998),
        ("wedge", 2_002_000),
        ("wedge_single", 2002),
    ]


def test_bench_builds_no_trace_terms(monkeypatch):
    def unavailable(*args):
        raise AssertionError("bench must not build trace terms")

    monkeypatch.setattr("plumcalc.cross_mul._terms", unavailable)  # the one builder of terms
    metrics = run_bench(sizes=[1, 5], trials=2, seed=3)
    assert len(metrics) == 2 * len(BENCH_METHODS)


def test_csv_format():
    metrics = run_bench(sizes=[4], trials=2, seed=0, methods=["cross"])
    csv_text = metrics_to_csv(metrics)
    lines = csv_text.split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3 and lines[-1] == ""  # LF-terminated
    fields = lines[1].split(",")
    assert fields[0] == "cross"
    assert fields[1] == "4"
    assert len(fields) == 9
    assert CSV_HEADER.split(",")[-2:] == ["kernel_ns", "normalize_ns"]
    assert all(int(field) > 0 for field in fields[-2:])


def test_csv_deterministic_except_elapsed():
    a = run_bench(sizes=[2, 4], trials=3, seed=11)
    b = run_bench(sizes=[2, 4], trials=3, seed=11)
    assert untimed(a) == untimed(b)
    assert set(BENCH_METHODS) == {m.method for m in a}


def test_csv_counts_pinned():
    # counts of a fixed configuration; a change to the operand stream or to any
    # counting rule shows up here, which a same-run comparison cannot catch
    assert untimed(run_bench(sizes=[4, 8], trials=3, seed=11)) == [
        "method,size,trials,mul_count,carry_count,max_abs_col,mean_abs_col",
        "cross,4,3,48,16,121,40.476190",
        "cross,8,3,192,42,288,87.688889",
        "plum,4,3,90,13,21,7.047619",
        "plum,8,3,378,26,44,7.200000",
        "wedge,4,3,120,15,10,4.208333",
        "wedge,8,3,432,24,23,5.729167",
        "wedge_single,4,3,30,3,5,2.600000",
        "wedge_single,8,3,54,14,6,2.629630",
    ]
