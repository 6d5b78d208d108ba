"""Command-line front end.

Subcommands: ``club``, ``carry``, ``wedge``, ``table``, ``mul``, ``div``,
``verify``, ``bench``.  Numerals accept space/underscore grouping on input and
are always emitted ungrouped.  Exit codes: 0 success, 1 usage or parse error,
2 verification failure or arithmetic error (division by zero).  Output is
plain text with no styling, so NO_COLOR changes nothing.  ``mul --segment``
is 1 to ``MAX_SEGMENT``, ``div --decimals`` at most ``MAX_DECIMALS``,
``verify --limit`` at most ``MAX_LIMIT`` and each ``bench --sizes`` value at
most ``MAX_BENCH_SIZE``; other values exit 1.

``_COMMANDS`` describes the whole command line: each command's handler, help
line, positionals and options.  A plain command line (the command, its
positionals, and options by their full names as ``--opt value``,
``--opt=value`` or flags, in any order, the last repeat winning) is read from
the table directly.  Every other form, and all help, usage and usage errors,
go to an argparse parser built once from the same table, so they follow the
running interpreter's argparse: unique prefixes, ``--``, negative values,
``-h``/``--help`` anywhere, and edge forms such as ``-hx`` (an error on
Python 3.11, help on 3.13).  The table is a constant, so calls share it
unchanged.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, Sequence

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
# one trial of each method at this bound takes about 9 s, 8 s of it in the
# kernels, plum's and wedge's about 4 s each (CPython 3.11.7, 2 vCPUs, 58 MB
# peak, measured 2026-10-22)
MAX_BENCH_SIZE = 100000


def _int_arg(text: str) -> int:
    return int(parse(text))


def _cmd_club(args: SimpleNamespace) -> int:
    print(clubsuit(_int_arg(args.a), _int_arg(args.b)))
    return EXIT_OK


def _cmd_carry(args: SimpleNamespace) -> int:
    # a carry of non-negative numerals is non-negative and may be operand-sized
    print(DigitString.from_int(carry(_int_arg(args.a), _int_arg(args.b))))
    return EXIT_OK


def _cmd_wedge(args: SimpleNamespace) -> int:
    pair = parse(args.ab)
    if len(pair) > 2:
        raise ValueError(f"wedge takes a one- or two-digit pair, got {args.ab!r}")
    digits = (0,) * (2 - len(pair)) + pair.digits
    c = _int_arg(args.c)
    if c > 9:
        raise ValueError(f"wedge multiplier must be a single digit, got {args.c!r}")
    print(wedge(digits[0], digits[1], c))
    return EXIT_OK


def _cmd_table(args: SimpleNamespace) -> int:
    table = wedge_table(args.c)
    print(table.as_csv() if args.csv else table.as_text(ascii_only=args.ascii))
    return EXIT_OK


def _cmd_mul(args: SimpleNamespace) -> int:
    a, b = parse(args.a), parse(args.b)
    if args.method != "cross" and args.segment != 1:
        raise ValueError("--segment only applies to --method cross")
    if args.segment < 1:
        raise ValueError(f"--segment must be at least 1, got {args.segment}")
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


def _cmd_div(args: SimpleNamespace) -> int:
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


def _cmd_verify(args: SimpleNamespace) -> int:
    # smaller values leave a sweep with no cases, which would FAIL without saying why
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


def _cmd_bench(args: SimpleNamespace) -> int:
    if max(args.sizes) > MAX_BENCH_SIZE:
        raise ValueError(f"--sizes must be at most {MAX_BENCH_SIZE}, got {max(args.sizes)}")
    metrics = bench_mod.run_bench(args.sizes, args.trials, args.seed, args.methods)
    csv_text = bench_mod.metrics_to_csv(metrics)
    if args.csv is not None:
        try:
            with open(args.csv, "w", newline="") as handle:
                handle.write(csv_text)
        except OSError as exc:
            raise ValueError(f"cannot write --csv {args.csv}: {exc.strerror or exc}") from exc
    else:
        print(csv_text, end="")
    return EXIT_OK


class _Option(NamedTuple):
    """A ``--name`` option: a flag, or one value (with ``many``, one or more) read by ``type``."""

    help: str
    type: Callable[[str], Any] = str
    choices: tuple[str, ...] = ()
    default: Any = None
    flag: bool = False
    many: bool = False
    metavar: str = ""


class _Command(NamedTuple):
    run: Callable[[SimpleNamespace], int]
    help: str
    positionals: tuple[tuple[str, Callable[[str], Any]], ...] = ()
    options: dict[str, _Option] = {}


_PAIR = (("a", str), ("b", str))
_ASCII = _Option("ASCII-only trace output", flag=True)

# The one description of the command line: parsing, usage lines and help all
# read it, and nothing is built from it per call.
_COMMANDS = {
    "club": _Command(_cmd_club, "plum-blossom product of two integers", _PAIR),
    "carry": _Command(_cmd_carry, "carry J of the plum decomposition of a*b", _PAIR),
    "wedge": _Command(_cmd_wedge, "wedge product; first argument is the digit pair, e.g. 35 7", (("ab", str), ("c", str))),
    "table": _Command(
        _cmd_table,
        "print the 10x10 wedge table for a multiplier 1..9",
        (("c", int),),
        {"--csv": _Option("emit a,b,value triples instead", flag=True), "--ascii": _Option("ASCII-only output", flag=True)},
    ),
    "mul": _Command(
        _cmd_mul,
        "multiply two numerals",
        _PAIR,
        {
            "--method": _Option("multiplication method", choices=(*MUL_METHODS, "oracle"), default="wedge"),
            "--segment": _Option("segment length for --method cross", int, default=1, metavar="L"),
            "--trace": _Option("print the column trace", flag=True),
            "--ascii": _ASCII,
        },
    ),
    "div": _Command(
        _cmd_div,
        "divide two numerals",
        _PAIR,
        {
            "--method": _Option("division method", choices=(*plum_div.DIV_METHODS, "oracle"), default="plum"),
            "--decimals": _Option("decimal places in the quotient", int, default=0, metavar="D"),
            "--trace": _Option("print the vertical tableau", flag=True),
            "--ascii": _ASCII,
        },
    ),
    "verify": _Command(
        _cmd_verify,
        "brute-force the law suites",
        options={
            "--suite": _Option("law suite to check", choices=VERIFY_SUITES, default="all"),
            "--limit": _Option("exhaustive all-pairs bound for the equivalence suites", int, default=DEFAULT_EXHAUSTIVE_LIMIT),
            "--random-pairs": _Option("random large-operand pairs per equivalence suite", int, default=200),
        },
    ),
    "bench": _Command(
        _cmd_bench,
        "run the deterministic micro-benchmark",
        options={
            "--sizes": _Option("operand lengths in digits", int, default=(4, 8, 16, 32), many=True),
            "--trials": _Option("trials per method and size", int, default=16),
            "--seed": _Option("seed of the operand generator", int, default=0),
            "--methods": _Option("methods to run", choices=bench_mod.BENCH_METHODS, default=bench_mod.BENCH_METHODS, many=True),
            "--csv": _Option("write CSV here instead of standard output", metavar="PATH"),
        },
    ),
}
# each command's namespace before its arguments are read; every default is
# immutable, so one call cannot change the next one's
_DEFAULTS = {
    name: {option[2:].replace("-", "_"): False if spec.flag else spec.default for option, spec in command.options.items()}
    for name, command in _COMMANDS.items()
}


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace of a plain command line, or None to leave the line to argparse.

    A plain line is a command, then exactly its positionals and options by
    their full names, as ``--name value``, ``--name=value`` or a flag, in any
    order.  Any other token starting with ``-`` (a prefix, ``--``, ``-h``), a
    separate value starting with ``-``, ``=`` on a flag, a ``many`` option, a
    bad type or choice and a missing or extra positional are not plain.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = _COMMANDS[argv[0]]
    values = dict(_DEFAULTS[argv[0]], command=argv[0])
    texts: list[str] = []
    tokens = iter(argv[1:])
    try:
        for arg in tokens:
            if arg[:1] != "-":
                texts.append(arg)
                continue
            option, eq, value = arg.partition("=")
            spec = command.options.get(option)
            if spec is None or spec.many or spec.flag and eq:
                return None
            dest = option[2:].replace("-", "_")
            if spec.flag:
                values[dest] = True
                continue
            if not eq:
                value = next(tokens, "-")  # a missing value is left to argparse like a negative one
            if value[:1] == "-":
                return None
            values[dest] = spec.type(value)
            if spec.choices and values[dest] not in spec.choices:
                return None
        if len(texts) != len(command.positionals):
            return None
        for (dest, kind), text in zip(command.positionals, texts):
            values[dest] = kind(text)
    except ValueError:  # argparse names the bad value
        return None
    return SimpleNamespace(**values)


@functools.cache
def _parser() -> tuple[Any, dict[str, Any]]:
    """The argparse parser built from ``_COMMANDS``, and its subparsers by command.

    It reads every line that is not plain, and prints all help, usage and
    usage errors, so those follow the running interpreter's argparse.  It is
    built on first use and then shared; parsing only reads it.
    """
    import argparse

    parser = argparse.ArgumentParser(prog="plumcalc", description="Plum-blossom product and wedge product arithmetic")
    commands = parser.add_subparsers(title="commands", dest="command", required=True)
    subparsers = {}
    for name, command in _COMMANDS.items():
        sub = subparsers[name] = commands.add_parser(name, help=command.help, description=command.help)
        for dest, kind in command.positionals:
            sub.add_argument(dest, type=kind)
        for option, spec in command.options.items():
            if spec.flag:
                sub.add_argument(option, action="store_true", help=spec.help)
                continue
            default = " ".join(map(str, spec.default)) if isinstance(spec.default, tuple) else spec.default
            sub.add_argument(
                option,
                type=spec.type,
                choices=spec.choices or None,
                default=spec.default,
                nargs="+" if spec.many else None,
                metavar=spec.metavar or None,
                help=spec.help if default is None else f"{spec.help} (default: {default})",
            )
    return parser, subparsers


def _parse_args(argv: Sequence[str]) -> Any:
    """``argv`` read directly when plain, otherwise by argparse, which exits for help and usage errors."""
    args = _plain_args(argv)
    if args is None:
        parser, subparsers = _parser()
        args, extras = parser.parse_known_args(argv)
        if extras:  # reported with the command's own usage line
            subparsers[args.command].error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse printed help (code 0) or a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _COMMANDS[args.command].run(args)
    except ValueError as exc:
        print(f"plumcalc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ZeroDivisionError, RuntimeError) as exc:
        print(f"plumcalc: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
