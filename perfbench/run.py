"""Benchmark of plumcalc's public functions, timed from outside the package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mul-long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs single-threaded in its own process (``all`` starts one
process per workload, one after another).  The workloads and the reason for
each are in ``workloads.py``.  A run sets up (fresh import of the package,
operand generation from ``--seed``, one untimed warm-up call per method), then
repeats the workload's round of operations for as many whole rounds as fit in
``--seconds`` (at least one).  It sets up again after each round and reports
the median set-up time.  Every result is checked against plain ``int``
arithmetic outside the timed region.

Every timed operation of every round is one latency sample.  plumcalc's
calls compute and wait for nothing, so a call's time is the CPU time of the
process during it: wall time less the time the host gave this virtual machine's
CPU to other machines (steal time), which comes in bursts of milliseconds.  On
a shared host the CPU's speed also drifts by tens of percent within seconds,
and by more between runs minutes apart, with the load of other machines; the
same call then takes 100 ms in one second and 150 ms a few seconds later.  So
a fixed pure-Python reference loop is timed just before and just after every
timed call (and every set-up), and every ``PROBE_INTERVAL_S`` during it from a
``SIGALRM`` handler, whose time is taken out of the call's.  The call's time
is scaled by ``REFERENCE_MS`` over the loop's mean time: every time reported
is the time at the speed at which the reference loop takes ``REFERENCE_MS``.
A change to plumcalc does not touch the loop, so it moves the scaled times as
it moves its CPU time.  The context line also gives the unscaled wall-time
figures, wall time over CPU time and the loop's median time.

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``ops_per_s``
(samples over the sum of their times), ``latency_p50_ms`` and
``latency_tail_ms`` (the median and the workload's fixed tail percentile over
all samples; the context line names the percentile and counts the samples
beyond it) and ``peak_rss_mb``.  Failed operations over attempted ones is the
error rate, given by the result's ``failed`` and ``attempted`` and in the
context line.

``--trace 1`` measures half of the time untraced and half traced.  In the
traced half every public call is bracketed in a span, and after each checked
operation the layers below it are re-timed on the same arguments.  It reports
each layer's busy time per operation at reference speed (``<layer>.busy_ms``),
``cli.self_ms`` (``cli.main`` minus the re-timed parse, method and render
calls), the per-round counts, which repeat exactly for a fixed seed, and the
tracing overhead: the traced half's ``latency_p50_ms`` and wall time per
operation minus the untraced half's.  It also prints each layer's share of the
operation time.  Spans of calls longer than ``PROBE_INTERVAL_S`` include the
reference loops run during them, under 1% of their time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when no
operation failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from workloads import WORKLOADS, Op, Workload, load_program, merge_counts, untraced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Iterations of the reference loop, and its typical CPU time on the 2-vCPU
# Xeon VM (Python 3.11) on which the bounds in BENCHMARK.json were set.
REFERENCE_ITERATIONS = 3_000
REFERENCE_MS = 1.2
# A sweep of many seconds outlasts the host's speed spells, so the loops just
# before and after it do not tell its speed; loops every quarter second do, at
# under 1% of the call's time.
PROBE_INTERVAL_S = 0.25

# Spans reported as ``<name>.busy_ms``.
LAYER_SPANS = (
    "cli.main",
    "digit_string.parse",
    "digit_string.normalize",
    "cross_mul.cross",
    "cross_mul.plum",
    "cross_mul.wedge",
    "plum_div.plum",
    "plum_div.wedge",
    "plum_div.pp0",
    "plum_div.pp1",
    "oracle.o_divmod",
    "trace.render_mul",
    "trace.render_div",
    "equivalence.mul",
    "equivalence.div",
    "digit_core.laws",
)
# Spans that ``cli.main`` does its work through, re-timed on the same arguments.
CLI_CHILD_SPANS = (
    "digit_string.parse",
    "cross_mul.cross",
    "cross_mul.plum",
    "cross_mul.wedge",
    "plum_div.plum",
    "plum_div.wedge",
    "trace.render_mul",
    "trace.render_div",
)
COUNTS = (
    "cross_mul.terms",
    "cross_mul.mul_count",
    "cross_mul.max_abs_col",
    "cross_mul.mean_abs_col",
    "digit_string.carry_count",
    "plum_div.steps",
    "plum_div.pp0_terms",
    "trace.bytes",
    "equivalence.cases",
    "equivalence.violations",
    "digit_core.laws.cases",
)


def reference_ns() -> int:
    """CPU time of the fixed reference loop.

    It does the kinds of work plumcalc's kernels do (digit products split by
    ``divmod``, tuples appended to a list, now and then a big-integer step).
    The host's slow spells slow such work by about the same factor as
    plumcalc's calls; a loop of bare integer arithmetic tracks them less well.
    The collector is off during the loop, so that its work does not depend on
    how many objects the process holds.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = time.process_time_ns()
    columns = []
    big = 1
    for i in range(REFERENCE_ITERATIONS):
        a, b = i % 10, i * 7 % 10
        columns.append((a * b, divmod(a * b, 10)))
        if i % 100 == 0:
            big = big * 1_000_003 + i
    del columns, big
    elapsed = time.process_time_ns() - start
    if collecting:
        gc.enable()
    return elapsed


class SpeedProbe:
    """Times calls together with the reference loop around and during them."""

    def __init__(self) -> None:
        self.inside_ns: list[int] = []
        self.inside_wall_ns = 0
        signal.signal(signal.SIGALRM, self._probe)

    def _probe(self, _signum, _frame) -> None:
        began = time.perf_counter_ns()
        self.inside_ns.append(reference_ns())
        self.inside_wall_ns += time.perf_counter_ns() - began

    def time(self, fn: Callable[[], Any]) -> tuple[Any, int, int, float]:
        """``fn()``; its CPU and wall time without the loops run during it; the loops' mean time."""
        before = reference_ns()
        self.inside_ns, self.inside_wall_ns = [], 0
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        wall, cpu = time.perf_counter_ns(), time.process_time_ns()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        cpu = time.process_time_ns() - cpu - sum(self.inside_ns)
        wall = time.perf_counter_ns() - wall - self.inside_wall_ns
        return result, cpu, wall, statistics.fmean([before, *self.inside_ns, reference_ns()])


class Tracer:
    """Spans of the current operation, kept in memory as ``(name, start_ns, end_ns)``
    in process CPU time, and each span name's busy time so far at reference speed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int]] = []
        self.busy_ns: dict[str, float] = {}

    def span(self, name, fn, *args, **kwargs):
        start = time.process_time_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, start, time.process_time_ns()))

    def settle(self, scale: float) -> None:
        """Add the current operation's spans, scaled by ``scale``, to the busy times."""
        for name, start, end in self.spans:
            self.busy_ns[name] = self.busy_ns.get(name, 0) + (end - start) * scale
        self.spans.clear()


@dataclass
class Phase:
    """Samples of one measuring loop."""

    samples: int = 0
    total_ns: float = 0.0
    times_ns: list[float] = field(default_factory=list)  # at reference speed
    wall_ns: list[int] = field(default_factory=list)
    cpu_ns: int = 0
    loop_ns: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    wall_s: float = 0.0
    counts: dict[str, float] | None = None


def report_failure(what: str) -> None:
    print(f"perfbench: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def measure(
    ops: list[Op], seconds: float, probe: SpeedProbe, tracer: Tracer | None, after_round=None
) -> Phase:
    """Repeat the round of ``ops`` for as many whole rounds as fit in ``seconds``.

    The first round always runs; another starts only if a round as long as
    the last one still ends within ``seconds``.

    With a ``tracer`` every public call is a span, each checked operation is
    also replayed layer by layer, and every round's counts must equal the
    first round's.  ``after_round``, if given, is called after each round.
    """
    span = tracer.span if tracer else untraced
    phase = Phase()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        round_counts: dict[str, float] = {}
        for op in ops:
            phase.attempted += 1
            # Every call starts from the same collector state, as in a fresh process,
            # so the collections it triggers do not depend on the calls before it.
            gc.collect()
            try:
                result, latency, wall, loop_ns = probe.time(lambda: op.run(span))
            except Exception:
                report_failure(f"{op.layer} raised")
                phase.failed += 1
                continue
            scale = REFERENCE_MS * 1e6 / loop_ns
            phase.samples += 1
            phase.total_ns += latency * scale
            phase.times_ns.append(latency * scale)
            phase.wall_ns.append(wall)
            phase.cpu_ns += latency
            phase.loop_ns.append(loop_ns)
            try:
                ok = op.check(result)
                if ok and tracer:
                    merge_counts(round_counts, op.replay(span, result))
            except Exception:
                report_failure(f"checking {op.layer} raised")
                ok = False
            if not ok:
                print(f"perfbench: wrong result from {op.layer}", file=sys.stderr)
                phase.failed += 1
            if tracer:
                tracer.settle(scale)
            # Drop the result before the next call, so peak memory is that of one operation.
            del result
        phase.rounds += 1
        if after_round:
            after_round()
        if tracer:
            if phase.counts is None:
                phase.counts = round_counts
            elif round_counts != phase.counts:
                print("perfbench: counts differ between rounds of the same inputs", file=sys.stderr)
                phase.failed += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    phase.wall_s = time.perf_counter() - start
    return phase


def percentile(times_ns: list[float], p: float) -> tuple[float, int]:
    """Nearest-rank ``p``-th percentile in ms, and the number of samples beyond it."""
    ordered = sorted(times_ns)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1] / 1e6, len(ordered) - rank


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_times: list[float], phase: Phase, tail_p: float) -> tuple[dict, dict]:
    times = phase.times_ns
    tail_ms, beyond = percentile(times, tail_p)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric(len(times) / sum(times) * 1e9, "1/s"),
        "latency_p50_ms": metric(statistics.median(times) / 1e6, "ms"),
        "latency_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = phase.wall_ns
    context = {
        "tail_percentile": "max" if tail_p == 100 else f"p{tail_p:g}",
        "samples_beyond_tail": beyond,
        "reference_loop_ms": round(statistics.median(phase.loop_ns) / 1e6, 4),
        "wall_ops_per_s": round(len(wall) / sum(wall) * 1e9, 4),
        "wall_latency_p50_ms": round(statistics.median(wall) / 1e6, 4),
        "wall_latency_tail_ms": round(percentile(wall, tail_p)[0], 4),
        "wall_over_cpu": round(sum(wall) / phase.cpu_ns, 4),
    }
    if beyond < 10 and tail_p < 100:
        print(f"perfbench: only {beyond} samples beyond p{tail_p:g}", file=sys.stderr)
    return metrics, context


def per_layer(plain: Phase, traced: Phase, tracer: Tracer) -> tuple[dict, list[str]]:
    n = traced.samples
    busy = tracer.busy_ns
    metrics = {f"{name}.busy_ms": metric(busy.get(name, 0) / n / 1e6, "ms") for name in LAYER_SPANS}
    cli_self = 0
    if "cli.main" in busy:
        cli_self = busy["cli.main"] - sum(busy.get(name, 0) for name in CLI_CHILD_SPANS)
    metrics["cli.self_ms"] = metric(cli_self / n / 1e6, "ms")

    counts = dict(traced.counts or {})
    columns = counts.pop("cross_mul.columns", 0)
    abs_sum = counts.pop("cross_mul.abs_col_sum", 0)
    counts["cross_mul.mean_abs_col"] = abs_sum / columns if columns else 0.0
    for name in COUNTS:
        metrics[name] = metric(counts.get(name, 0), "value" if name.endswith("_col") else "count")

    p50_gap = statistics.median(traced.times_ns) - statistics.median(plain.times_ns)
    metrics["tracing.latency_p50_overhead_ms"] = metric(p50_gap / 1e6, "ms")
    wall_gap = traced.wall_s / traced.attempted - plain.wall_s / plain.attempted
    metrics["tracing.wall_overhead_ms"] = metric(wall_gap * 1e3, "ms")

    op_ns = traced.total_ns
    lines = [f"share of operation time per layer ({n} traced operations, {op_ns / n / 1e6:.3f} ms each):"]
    for name in LAYER_SPANS:
        if name in busy:
            lines.append(f"  {name:<24} {busy[name] / n / 1e6:10.3f} ms/op {100 * busy[name] / op_ns:7.2f}%")
    if "cli.main" in busy:
        lines.append(f"  {'cli.self':<24} {cli_self / n / 1e6:10.3f} ms/op {100 * cli_self / op_ns:7.2f}%")
    return metrics, lines


def set_up(workload: Workload, seed: int, probe: SpeedProbe) -> tuple[float, list[Op]]:
    """Fresh import, operand generation and warm-up; returns its time at reference speed and the round."""

    def run() -> list[Op]:
        pc = load_program(workload.modules)
        ops = workload.round(pc, seed)
        workload.warm_up(pc, ops)
        return ops

    ops, elapsed, _, loop_ns = probe.time(run)
    return elapsed * REFERENCE_MS * 1e6 / loop_ns / 1e9, ops


def run_one(args: argparse.Namespace) -> int:
    if not (SRC / "plumcalc" / "__init__.py").is_file():
        print(f"perfbench: no plumcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    probe = SpeedProbe()
    elapsed, ops = set_up(workload, args.seed, probe)
    setup_times = [elapsed]

    def set_up_again() -> None:
        # Set-up is repeated between rounds, so that its median spans the run
        # rather than the moment the run started.
        setup_times.append(set_up(workload, args.seed, probe)[0])

    context = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "operands": workload.operands,
        "ops_per_round": len(ops),
    }
    if args.trace:
        tracer = Tracer()
        phases = [measure(ops, args.seconds / 2, probe, None), measure(ops, args.seconds / 2, probe, tracer)]
    else:
        phases = [measure(ops, args.seconds, probe, None, after_round=set_up_again)]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if not all(p.times_ns for p in phases):
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    if args.trace:
        metrics, lines = per_layer(*phases, tracer)
        print("\n".join(lines))
    else:
        metrics, extra = end_to_end(setup_times, phases[0], workload.tail_percentile)
        context.update(extra, setup_runs=len(setup_times))
    context.update(
        samples=sum(p.samples for p in phases),
        rounds=sum(p.rounds for p in phases),
        error_rate=failed / attempted,
    )
    print("context " + json.dumps(context))
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Run every workload, each in its own process, and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    if worst > 1:
        return worst
    print(json.dumps(merged))
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
