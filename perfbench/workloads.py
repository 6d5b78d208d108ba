"""The benchmark's workloads: which public calls each one times, on what inputs.

A workload turns a seed into one *round*: a fixed list of operations.  A run
repeats the same round until its time is up, so every run of a workload with
a given seed times the same mix of calls, and every count the traced run
reports is a per-round total that must repeat exactly.  Operand sizes follow
fixed ladders and only the digits come from the seed, so the work per round
does not depend on the seed.

Each operation has three parts:

* ``run(span)`` makes the timed public call.  ``span(name, fn, *args)``
  calls ``fn``; in the traced run it also records the call as a span.
* ``check(result)`` compares the result with plain Python ``int``
  arithmetic, outside the timed region.  The oracle is not used: its cost
  would swamp the check.
* ``replay(span, result)`` runs only in the traced run, after the check.  It
  re-times the layers under the call on the same arguments (parse, kernel,
  ``normalize``, pp0/pp1, ``o_divmod``, rendering) and returns the round's
  count contributions.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import random
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

Span = Callable[..., Any]
Counts = dict[str, float]

MUL_METHOD_NAMES = ("cross", "plum", "wedge")
DIV_METHOD_NAMES = ("plum", "wedge")

# Counting rules of ``plumcalc/bench.py`` (single-digit multiplications per
# term kind).  They are fixed here so that the count gate does not move when
# that module changes.
MUL_WEIGHT = {
    "residue": 1,
    "carry": 1,
    "product": 1,
    "product_ones": 1,
    "product_tens": 0,
    "wedge": 2,
}

# Counts whose round value is a maximum rather than a sum.
MAX_COUNTS = ("cross_mul.max_abs_col",)


@dataclass(frozen=True)
class Op:
    """One timed operation of a round."""

    layer: str
    run: Callable[[Span], Any]
    check: Callable[[Any], bool]
    replay: Callable[[Span, Any], Counts]


def untraced(_name: str, fn: Callable, *args, **kwargs):
    """The ``span`` of an untraced run: calls ``fn`` and records nothing."""
    return fn(*args, **kwargs)


def load_program(modules: tuple[str, ...]) -> SimpleNamespace:
    """Import the named ``plumcalc`` modules afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "plumcalc" or m.startswith("plumcalc.")]:
        del sys.modules[name]
    gc.collect()
    return SimpleNamespace(**{m: importlib.import_module(f"plumcalc.{m}") for m in modules})


def numeral(rng: random.Random, length: int) -> str:
    """Random ``length``-digit decimal numeral with a non-zero leading digit."""
    return str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=length - 1))


def ladder(low: int, high: int, steps: int) -> list[int]:
    """``steps`` evenly spaced whole sizes from ``low`` to ``high`` inclusive."""
    return [low + (high - low) * k // (steps - 1) for k in range(steps)]


def to_digits(pc: SimpleNamespace, text: str):
    return pc.digit_string.DigitString(tuple(map(int, text)))


def mul_counts(pc: SimpleNamespace, trace) -> Counts:
    """Per-trace counts for the multiplication layer and ``normalize``."""
    terms = mul_count = abs_sum = max_abs = 0
    for column in trace.columns:
        terms += len(column.terms)
        mul_count += sum(MUL_WEIGHT[t.kind] for t in column.terms)
        abs_sum += abs(column.total)
        max_abs = max(max_abs, abs(column.total))
    return {
        "cross_mul.terms": terms,
        "cross_mul.mul_count": mul_count,
        "cross_mul.abs_col_sum": abs_sum,
        "cross_mul.columns": len(trace.columns),
        "cross_mul.max_abs_col": max_abs,
        "digit_string.carry_count": pc.digit_string.normalize_stats(trace.signed, trace.radix_power)[1],
    }


def div_counts(trace) -> Counts:
    return {
        "plum_div.steps": len(trace.steps),
        "plum_div.pp0_terms": sum(len(step.pp0_terms) for step in trace.steps),
    }


def merge_counts(total: Counts, part: Counts) -> None:
    for key, value in part.items():
        if key in MAX_COUNTS:
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


class Workload:
    name = ""
    why = ""
    operands = ""
    modules: tuple[str, ...] = ()
    # Percentile reported as ``latency_tail_ms``.  It is fixed per workload, so
    # that a run that fits one round more or less reports the same percentile,
    # and it leaves at least ten samples beyond it in a 30-second run.
    tail_percentile: float

    def round(self, pc: SimpleNamespace, seed: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self, pc: SimpleNamespace, ops: list[Op]) -> None:
        """One untimed call per method: the first operation of each layer."""
        seen = set()
        for op in ops:
            if op.layer not in seen:
                seen.add(op.layer)
                op.run(untraced)


class MulLong(Workload):
    name = "mul-long"
    why = (
        "Long products through every multiplication method, product only: the column kernel "
        "dominates, so kernel work (ROADMAP item 1) shows here first."
    )
    operands = "a, b: 192-320 digits (5-step ladder, a and b of equal length)"
    modules = ("cross_mul", "digit_string")
    # 15 operations a round and at least 7 rounds: p90 sits among the repeats
    # of the second-slowest operation, with 1.5 repeats of the round beyond it.
    tail_percentile = 90.0

    def round(self, pc, seed):
        rng = random.Random(f"{seed}:{self.name}")
        ops = []
        for size in ladder(192, 320, 5):
            a_text, b_text = numeral(rng, size), numeral(rng, size)
            expected = str(int(a_text) * int(b_text))
            a, b = to_digits(pc, a_text), to_digits(pc, b_text)
            for method in MUL_METHOD_NAMES:
                ops.append(self._op(pc, method, a, b, expected))
        return ops

    @staticmethod
    def _op(pc, method, a, b, expected) -> Op:
        fn = pc.cross_mul.MUL_METHODS[method]
        layer = f"cross_mul.{method}"

        def replay(span, result):
            trace = result[1]
            span("digit_string.normalize", pc.digit_string.normalize, trace.signed, trace.radix_power)
            return mul_counts(pc, trace)

        return Op(
            layer,
            lambda span: span(layer, fn, a, b),
            lambda result: str(result[0]) == expected,
            replay,
        )


class DivLong(Workload):
    name = "div-long"
    why = (
        "Long divisions through both division methods: pp0/pp1 and the oracle's quotient-digit "
        "choice dominate (ROADMAP item 2), and the multiplication kernel is never called."
    )
    operands = "dividend: 384-640 digits, divisor: 160-320 digits (5-step ladders)"
    modules = ("plum_div", "oracle", "digit_string")
    # 10 operations a round and 9 to 15 rounds: p90 would have fewer than ten
    # samples beyond it in the slower runs, p85 has 1.5 repeats of the round.
    tail_percentile = 85.0

    def round(self, pc, seed):
        rng = random.Random(f"{seed}:{self.name}")
        ops = []
        for s, t in zip(ladder(384, 640, 5), ladder(160, 320, 5)):
            a_text, b_text = numeral(rng, s), numeral(rng, t)
            q, r = divmod(int(a_text), int(b_text))
            expected = (str(q), str(r))
            a, b = to_digits(pc, a_text), to_digits(pc, b_text)
            for method in DIV_METHOD_NAMES:
                ops.append(self._op(pc, method, a, b, expected))
        return ops

    @staticmethod
    def _op(pc, method, a, b, expected) -> Op:
        plum_div = pc.plum_div
        layer = f"plum_div.{method}"
        pp0 = {"plum": plum_div.pp0_plum, "wedge": plum_div.pp0_wedge}[method]
        nat_a = pc.oracle.Nat.from_digits(a.digits)
        nat_b = pc.oracle.Nat.from_digits(b.digits)

        def replay(span, result):
            trace = result[2]
            c = trace.quotient_digits
            span("oracle.o_divmod", pc.oracle.o_divmod, nat_a, nat_b)
            pp0_values = span(
                "plum_div.pp0", lambda: [pp0(b, c[: s.index - 1], s.index)[0] for s in trace.steps]
            )
            pp1_values = span(
                "plum_div.pp1",
                lambda: [plum_div.pp1(b, s.quotient_digit)[0] for s in trace.steps if s.quotient_digit is not None],
            )
            if pp0_values != [s.pp0 for s in trace.steps] or pp1_values != [
                s.pp1 for s in trace.steps if s.pp1 is not None
            ]:
                raise RuntimeError(f"pp0/pp1 replay does not reproduce the {method} trace of {a} / {b}")
            return div_counts(trace)

        return Op(
            layer,
            lambda span: span(layer, plum_div.divmod, a, b, method),
            lambda result: (str(result[0]), str(result[1])) == expected,
            replay,
        )


class CliShort(Workload):
    name = "cli-short"
    why = (
        "Short in-process CLI calls, half of them with --trace for every method: fixed per-call "
        "cost (argparse rebuild, rendering) outweighs the kernel, so added per-call work shows."
    )
    operands = "a: 4-24 digits, b: 2-12 digits (11-step ladders); mul x3 methods, div x2, each with and without --trace"
    modules = ("cli", "cross_mul", "plum_div", "digit_string", "trace")
    # 110 calls a round and at least 7 rounds: p98.6 sits among the repeats of
    # the second-slowest call, with 1.5 repeats of the round beyond it.  (p99
    # falls near the edge between the two slowest calls and jumps between them.)
    tail_percentile = 98.6

    def round(self, pc, seed):
        rng = random.Random(f"{seed}:{self.name}")
        ops = []
        for a_len, b_len in zip(ladder(4, 24, 11), ladder(2, 12, 11)):
            a_text, b_text = numeral(rng, a_len), numeral(rng, b_len)
            a, b = int(a_text), int(b_text)
            for traced in (False, True):
                for method in MUL_METHOD_NAMES:
                    ops.append(self._op(pc, "mul", method, a_text, b_text, traced, str(a * b)))
                for method in DIV_METHOD_NAMES:
                    ops.append(self._op(pc, "div", method, a_text, b_text, traced, "%d r %d" % divmod(a, b)))
        return ops

    @staticmethod
    def _op(pc, command, method, a_text, b_text, traced, answer) -> Op:
        argv = [command, a_text, b_text, "--method", method] + (["--trace"] if traced else [])
        if command == "mul":
            expected_last = f"  product: {answer}" if traced else answer
        else:
            expected_last = answer

        def run(span):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = span("cli.main", pc.cli.main, argv)
            return code, out.getvalue()

        def check(result):
            code, text = result
            return code == 0 and text.endswith("\n") and text[:-1].split("\n")[-1] == expected_last

        def replay(span, result):
            a = span("digit_string.parse", pc.digit_string.parse, a_text)
            b = span("digit_string.parse", pc.digit_string.parse, b_text)
            if command == "mul":
                _, trace = span(f"cross_mul.{method}", pc.cross_mul.MUL_METHODS[method], a, b)
                counts = mul_counts(pc, trace)
                render = ("trace.render_mul", pc.trace.render_mul)
            else:
                _, _, trace = span(f"plum_div.{method}", pc.plum_div.divmod, a, b, method)
                counts = div_counts(trace)
                render = ("trace.render_div", pc.trace.render_div)
            if traced:
                rendered = span(*render, trace)
                counts["trace.bytes"] = len(str(rendered).encode())
            return counts

        return Op("cli.main", run, check, replay)


class VerifySweep(Workload):
    name = "verify-sweep"
    why = (
        "One `verify --suite all` sweep: the law suites plus both method-vs-oracle sweeps, whose "
        "fixed one-sided 10^4-value parts are the slowest path of the test suite."
    )
    operands = (
        "law suites over their full domains; equivalence: all pairs below 24, all values below 10^4 "
        "against the fixed one-sided sets, 16 seeded random pairs up to 64 digits"
    )
    modules = ("digit_core", "equivalence", "cross_mul", "plum_div", "oracle", "digit_string")
    LIMIT = 24
    RANDOM_PAIRS = 16
    # One sweep a round and one or two rounds a run: the slowest sweep.
    tail_percentile = 100.0

    def round(self, pc, seed):
        def run(span):
            kwargs = {"limit": self.LIMIT, "random_pairs": self.RANDOM_PAIRS, "seed": seed}
            return (
                span("digit_core.laws", pc.digit_core.verify_laws, "all"),
                span("equivalence.mul", pc.equivalence.verify_mul_equivalence, **kwargs),
                span("equivalence.div", pc.equivalence.verify_div_equivalence, **kwargs),
            )

        def check(result):
            return all(r.holds and r.domain_size > 0 for reports in result for r in reports)

        def replay(span, result):
            laws, mul, div = result
            return {
                "digit_core.laws.cases": sum(r.domain_size for r in laws),
                "equivalence.cases": sum(r.domain_size for r in mul + div),
                "equivalence.violations": sum(len(r.violations) for r in mul + div),
            }

        return [Op("verify.all", run, check, replay)]

    def warm_up(self, pc, ops):
        """The law suites once, plus each method and the oracle on small operands.

        A full sweep takes many seconds, so it is not repeated as a warm-up.
        """
        pc.digit_core.verify_laws("all")
        a, b = to_digits(pc, "97531"), to_digits(pc, "864")
        for method in MUL_METHOD_NAMES:
            pc.cross_mul.MUL_METHODS[method](a, b)
        for method in DIV_METHOD_NAMES:
            pc.plum_div.divmod(a, b, method)
        pc.oracle.o_mul(pc.oracle.Nat.from_digits(a.digits), pc.oracle.Nat.from_digits(b.digits))


WORKLOADS = {w.name: w for w in (MulLong(), DivLong(), CliShort(), VerifySweep())}
