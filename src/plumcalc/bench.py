"""Deterministic micro-benchmark harness for the multiplication methods.

Each trial runs the path every multiplication takes, the method's signed
columns (``cross_mul._columns``) and one ``normalize``, and builds no trace, so
counts follow from the method, the operand lengths and those columns: two runs
with the same seed and configuration emit identical metrics; only the
``*_ns`` wall times differ.  Both are taken on every trial: ``kernel_ns`` times
the column kernel and the ``SignedDigitString`` of its columns, and
``normalize_ns`` the ``normalize`` call that follows.  The carry count comes
from one ``normalize_stats`` call outside the timed region.  Every trial's
product is checked against Python's ``int`` product, and ``normalize_stats``'
digits against ``normalize``'s, before any metric for it is recorded — a
mismatch aborts the run.

Counting rules (fixed, documented here so the CSV is comparable across runs):
each residue or carry lookup counts as one single-digit multiplication, a kept
whole product counts as one, the trailing decimal split counts once for its
pair of terms, and a wedge term counts as two (it evaluates two digit
products).  An ``m``-digit by ``n``-digit product thus counts ``m*n`` for
cross, ``2*m*n - 2`` for plum (1 when ``m == n == 1``) and ``2*(m+1)*n`` for
wedge, whose padded multiplicand has ``m + 1`` windows (``n == 1`` for
wedge_single).  ``max_abs_col`` and ``mean_abs_col`` are taken over the signed
columns; ``carry_count`` is the number of columns that emit a non-zero carry
while they are normalized.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from .cross_mul import MUL_METHODS, _columns
from .digit_string import _decimal_text, normalize, normalize_stats
from .equivalence import _random_digits, _seeded_rng

__all__ = ["BenchMetrics", "run_bench", "metrics_to_csv", "BENCH_METHODS", "CSV_HEADER"]

CSV_HEADER = "method,size,trials,mul_count,carry_count,max_abs_col,mean_abs_col,kernel_ns,normalize_ns"


def _mul_count(method: str, m: int, n: int) -> int:
    """Single-digit multiplications of one ``m``-digit by ``n``-digit product, by the rules above."""
    if method == "cross":
        return m * n
    if method == "plum":
        return 2 * m * n - 2 if m * n > 1 else 1
    return 2 * (m + 1) * n


@dataclass(frozen=True)
class BenchMetrics:
    """Aggregated counts for one (method, size) cell of the run."""

    method: str
    size: int
    trials: int
    mul_count: int
    carry_count: int
    max_abs_col: int
    mean_abs_col: float
    kernel_ns: int
    normalize_ns: int


BENCH_METHODS = (*MUL_METHODS, "wedge_single")


def run_bench(
    sizes: Sequence[int],
    trials: int,
    seed: int,
    methods: Sequence[str] = BENCH_METHODS,
) -> list[BenchMetrics]:
    """Run every distinct (method, size) cell once, checking each trial's product against ``int`` before counting.

    Operands are drawn from a per-(size, trial) seeded generator, so the
    result set is independent of execution order.  Output rows are sorted by
    (method, size).
    """
    if not methods:
        raise ValueError("bench needs at least one method")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"sizes must be positive, got {sizes!r}")
    for method in methods:
        if method not in BENCH_METHODS:
            raise ValueError(f"unknown bench method {method!r}; expected subset of {BENCH_METHODS}")

    results = []
    for method in sorted(set(methods)):
        single = method == "wedge_single"
        for size in sorted(set(sizes)):
            carry_count = kernel_ns = normalize_ns = col_sum = col_max = col_count = 0
            for trial in range(trials):
                a = _random_digits(_seeded_rng(seed, method, size, trial, 0), size)
                b = _random_digits(_seeded_rng(seed, method, size, trial, 1), 1 if single else size)

                start = time.perf_counter_ns()
                signed = _columns(method, a, b, 1)
                middle = time.perf_counter_ns()
                product = normalize(signed)
                end = time.perf_counter_ns()
                kernel_ns += middle - start
                normalize_ns += end - middle

                stepped, carries = normalize_stats(signed)
                expected = int(a) * int(b)
                wrong = product if int(product) != expected else stepped if stepped != product else None
                if wrong is not None:
                    raise RuntimeError(
                        f"product mismatch for {method} on {a} * {b}: got {wrong}, expected {_decimal_text(expected)}"
                    )

                magnitudes = [abs(col) for col in signed.columns]
                col_sum += sum(magnitudes)
                col_max = max(col_max, *magnitudes)
                col_count += len(magnitudes)
                carry_count += carries
            mul_count = trials * _mul_count(method, size, 1 if single else size)
            mean_abs_col = col_sum / col_count
            results.append(
                BenchMetrics(method, size, trials, mul_count, carry_count, col_max, mean_abs_col, kernel_ns, normalize_ns)
            )
    return results


def metrics_to_csv(metrics: Sequence[BenchMetrics]) -> str:
    """CSV with LF line endings, one row per (method, size)."""
    lines = [CSV_HEADER]
    for m in metrics:
        lines.append(
            f"{m.method},{m.size},{m.trials},{m.mul_count},{m.carry_count},"
            f"{m.max_abs_col},{m.mean_abs_col:.6f},{m.kernel_ns},{m.normalize_ns}"
        )
    return "\n".join(lines) + "\n"
