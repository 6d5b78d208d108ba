"""Command-line front end.

Subcommands: ``club``, ``carry``, ``wedge``, ``table``, ``mul``, ``div``,
``verify``, ``bench``.  Numerals accept space/underscore grouping on input and
are always emitted ungrouped.  Exit codes: 0 success, 1 usage or parse error,
2 verification failure or arithmetic error (division by zero).  Output is
plain text with no styling, so NO_COLOR changes nothing.  ``mul --segment``
is at most ``MAX_SEGMENT``, ``div --decimals`` at most ``MAX_DECIMALS``,
``verify --limit`` at most ``MAX_LIMIT`` and each ``bench --sizes`` value at
most ``MAX_BENCH_SIZE``; larger values exit 1.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from . import bench as bench_mod
from . import plum_div
from .cross_mul import MUL_METHODS, rapid_mul
from .digit_core import LAW_SUITES, LawReport, carry, clubsuit, verify_laws, wedge, wedge_table
from .digit_string import DigitString, parse
from .equivalence import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    verify_div_equivalence,
    verify_mul_equivalence,
)
from .oracle import Nat, o_divmod, o_mul
from .trace import render_div, render_mul

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2

VERIFY_SUITES = LAW_SUITES + ("mul-equiv", "div-equiv", "all")

# each place is one more dividend digit, so one more held division step
MAX_DECIMALS = 100000
# segments and their radix 10**L are L digits long whatever the operands,
# so time and memory grow with L
MAX_SEGMENT = 100000
# the exhaustive sweeps check limit**2 pairs each, 10**8 at this bound (the
# one-sided sweeps' 10**4 range), from limit operands built up front
MAX_LIMIT = 10000
# a trial is one column-kernel call, its normalize and an int product check:
# one trial of each method at this bound takes about 12 s, plum and wedge
# 5-6 s each (CPython 3.11.7, 50 MB peak)
MAX_BENCH_SIZE = 100000


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> _Parser:
    """The parser every ``main`` call in the process shares.

    Parsing only reads it and returns a new namespace, so every default must
    be immutable: a list default would be one object handed to every call.
    """
    parser = _Parser(prog="plumcalc", description="Plum-blossom product and wedge product arithmetic")
    sub = parser.add_subparsers(dest="command", required=True)

    p_club = sub.add_parser("club", help="plum-blossom product of two integers")
    p_club.add_argument("a")
    p_club.add_argument("b")

    p_carry = sub.add_parser("carry", help="carry J of the plum decomposition of a*b")
    p_carry.add_argument("a")
    p_carry.add_argument("b")

    p_wedge = sub.add_parser("wedge", help="wedge product; first argument is the digit pair, e.g. 35 7")
    p_wedge.add_argument("ab")
    p_wedge.add_argument("c")

    p_table = sub.add_parser("table", help="print the 10x10 wedge table for a multiplier 1..9")
    p_table.add_argument("c", type=int)
    p_table.add_argument("--csv", action="store_true", help="emit a,b,value triples instead")
    p_table.add_argument("--ascii", action="store_true", help="ASCII-only output")

    p_mul = sub.add_parser("mul", help="multiply two numerals")
    p_mul.add_argument("a")
    p_mul.add_argument("b")
    p_mul.add_argument("--method", choices=(*MUL_METHODS, "oracle"), default="wedge")
    p_mul.add_argument("--segment", type=int, default=1, metavar="L", help="segment length for --method cross")
    p_mul.add_argument("--trace", action="store_true", help="print the column trace")
    p_mul.add_argument("--ascii", action="store_true", help="ASCII-only trace output")

    p_div = sub.add_parser("div", help="divide two numerals")
    p_div.add_argument("a")
    p_div.add_argument("b")
    p_div.add_argument("--method", choices=(*plum_div.DIV_METHODS, "oracle"), default="plum")
    p_div.add_argument("--decimals", type=int, default=0, metavar="D", help="decimal places in the quotient")
    p_div.add_argument("--trace", action="store_true", help="print the vertical tableau")
    p_div.add_argument("--ascii", action="store_true", help="ASCII-only trace output")

    p_verify = sub.add_parser("verify", help="brute-force the law suites")
    p_verify.add_argument("--suite", choices=VERIFY_SUITES, default="all")
    p_verify.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_EXHAUSTIVE_LIMIT,
        help="exhaustive all-pairs bound for the equivalence suites",
    )
    p_verify.add_argument("--random-pairs", type=int, default=200, help="random large-operand pairs per equivalence suite")

    p_bench = sub.add_parser("bench", help="run the deterministic micro-benchmark")
    p_bench.add_argument("--sizes", type=int, nargs="+", default=(4, 8, 16, 32))
    p_bench.add_argument("--trials", type=int, default=16)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--methods", nargs="+", choices=bench_mod.BENCH_METHODS, default=bench_mod.BENCH_METHODS)
    p_bench.add_argument("--csv", metavar="PATH", help="write CSV here instead of standard output")

    return parser


def _int_arg(text: str) -> int:
    return int(parse(text))


def _cmd_club(args: argparse.Namespace) -> int:
    print(clubsuit(_int_arg(args.a), _int_arg(args.b)))
    return EXIT_OK


def _cmd_carry(args: argparse.Namespace) -> int:
    # a carry of non-negative numerals is non-negative and may be operand-sized
    print(DigitString.from_int(carry(_int_arg(args.a), _int_arg(args.b))))
    return EXIT_OK


def _cmd_wedge(args: argparse.Namespace) -> int:
    pair = parse(args.ab)
    if len(pair) > 2:
        raise ValueError(f"wedge takes a one- or two-digit pair, got {args.ab!r}")
    digits = (0,) * (2 - len(pair)) + pair.digits
    c = _int_arg(args.c)
    if c > 9:
        raise ValueError(f"wedge multiplier must be a single digit, got {args.c!r}")
    print(wedge(digits[0], digits[1], c))
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    table = wedge_table(args.c)
    print(table.as_csv() if args.csv else table.as_text(ascii_only=args.ascii))
    return EXIT_OK


def _cmd_mul(args: argparse.Namespace) -> int:
    a, b = parse(args.a), parse(args.b)
    if args.method != "cross" and args.segment != 1:
        raise ValueError("--segment only applies to --method cross")
    if args.segment > MAX_SEGMENT:
        raise ValueError(f"--segment must be at most {MAX_SEGMENT}, got {args.segment}")
    if args.method == "oracle":
        if args.trace:
            raise ValueError("--trace is not available for --method oracle")
        print(o_mul(Nat.from_digits(a.digits), Nat.from_digits(b.digits)))
        return EXIT_OK
    if args.method == "cross":
        product, trace = rapid_mul(a, b, args.segment)
    else:
        product, trace = MUL_METHODS[args.method](a, b)
    if args.trace:
        print(render_mul(trace, ascii_only=args.ascii))
    else:
        print(product)
    return EXIT_OK


def _cmd_div(args: argparse.Namespace) -> int:
    a, b = parse(args.a), parse(args.b)
    if args.decimals < 0:
        raise ValueError(f"--decimals must be non-negative, got {args.decimals}")
    if args.decimals > MAX_DECIMALS:
        raise ValueError(f"--decimals must be at most {MAX_DECIMALS}, got {args.decimals}")
    if args.method == "oracle":
        if args.trace:
            raise ValueError("--trace is not available for --method oracle")
        scaled = plum_div._scale(a, args.decimals)
        q, r = o_divmod(Nat.from_digits(scaled.digits), Nat.from_digits(b.digits))
        print(f"{plum_div._point_text(str(q), args.decimals)} r {r}")
        return EXIT_OK
    text, remainder, trace = plum_div.div_decimal(a, b, args.decimals, args.method)
    if args.trace:
        print(render_div(trace, ascii_only=args.ascii))
    print(f"{text} r {remainder}")
    return EXIT_OK


def _print_reports(reports: list[LawReport]) -> bool:
    all_hold = True
    for report in reports:
        status = "PASS" if report.holds else "FAIL"
        suffix = f"  [{report.detail}]" if report.detail else ""
        print(f"{status} {report.law} ({report.domain_size} cases){suffix}")
        if not report.holds:
            all_hold = False
            for inputs, expected, actual in report.violations[:5]:
                print(f"     violation at {inputs}: expected {expected}, got {actual}")
    return all_hold


def _cmd_verify(args: argparse.Namespace) -> int:
    # smaller values leave a sweep with no cases, which would print PASS having checked nothing
    if args.limit < 2:
        raise ValueError(f"--limit must be at least 2, got {args.limit}")
    if args.limit > MAX_LIMIT:
        raise ValueError(f"--limit must be at most {MAX_LIMIT}, got {args.limit}")
    if args.random_pairs < 1:
        raise ValueError(f"--random-pairs must be at least 1, got {args.random_pairs}")
    reports: list[LawReport] = []
    if args.suite in LAW_SUITES or args.suite == "all":
        reports.extend(verify_laws(args.suite))
    if args.suite in ("mul-equiv", "all"):
        reports.extend(verify_mul_equivalence(limit=args.limit, random_pairs=args.random_pairs))
    if args.suite in ("div-equiv", "all"):
        reports.extend(verify_div_equivalence(limit=args.limit, random_pairs=args.random_pairs))
    ok = _print_reports(reports)
    print(f"{len(reports)} laws checked: {'all hold' if ok else 'VIOLATIONS FOUND'}")
    return EXIT_OK if ok else EXIT_FAILURE


def _cmd_bench(args: argparse.Namespace) -> int:
    if max(args.sizes) > MAX_BENCH_SIZE:
        raise ValueError(f"--sizes must be at most {MAX_BENCH_SIZE}, got {max(args.sizes)}")
    metrics = bench_mod.run_bench(args.sizes, args.trials, args.seed, args.methods)
    csv_text = bench_mod.metrics_to_csv(metrics)
    if args.csv:
        try:
            with open(args.csv, "w", newline="") as handle:
                handle.write(csv_text)
        except OSError as exc:
            raise ValueError(f"cannot write --csv {args.csv}: {exc.strerror or exc}") from exc
    else:
        print(csv_text, end="")
    return EXIT_OK


_COMMANDS = {
    "club": _cmd_club,
    "carry": _cmd_carry,
    "wedge": _cmd_wedge,
    "table": _cmd_table,
    "mul": _cmd_mul,
    "div": _cmd_div,
    "verify": _cmd_verify,
    "bench": _cmd_bench,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"plumcalc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ZeroDivisionError, RuntimeError) as exc:
        print(f"plumcalc: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
