"""Command-line front end.

Subcommands: ``club``, ``carry``, ``wedge``, ``table``, ``mul``, ``div``,
``verify``, ``bench``.  Numerals accept space/underscore grouping on input and
are always emitted ungrouped.  Exit codes: 0 success, 1 usage or parse error,
2 verification failure or arithmetic error (division by zero).  Output is
plain text with no styling, so NO_COLOR changes nothing.  ``mul --segment``
is at most ``MAX_SEGMENT``, ``div --decimals`` at most ``MAX_DECIMALS``,
``verify --limit`` at most ``MAX_LIMIT`` and each ``bench --sizes`` value at
most ``MAX_BENCH_SIZE``; larger values exit 1.

``_COMMANDS`` describes the whole command line: each command's handler, help
line, positionals and options.  One pass over ``argv`` reads it (``--opt
value``, ``--opt=value``, unique prefixes, ``--``, options anywhere with the
last repeat winning, ``-h`` or ``--help`` anywhere), and the usage and help
texts are written from it only when they are printed.  The table is a
constant, so calls share it unchanged.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, NoReturn, Sequence

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


def _cmd_bench(args: SimpleNamespace) -> int:
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
_HELP = ("-h", "--help")
# a token like this is a value (a negative number), not an option
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _Stop(Exception):
    """Parsing ends early for ``(command or None, message)``: a usage error, or help when the message is None."""


def _split_option(arg: str, command: str | None) -> tuple[str, str | None] | None:
    """``(option, value after '=' or None)`` for an option token, ``("", None)`` if unknown; None for a value.

    Long options may be abbreviated to any unique prefix, and ``-h`` may be
    repeated in one token (``-hh``).
    """
    if arg[:1] != "-" or arg == "-":
        return None
    if arg[1] != "-":
        if arg[1] == "h":
            return "-h", None if arg == "-h" else arg[3:] if arg[2] == "=" else arg[2:]
        return None if _NEGATIVE_NUMBER.match(arg) or " " in arg else ("", None)
    name, eq, value = arg.partition("=")
    options = _COMMANDS[command].options if command else {}
    if name not in options and name != "--help":
        matches = [option for option in ("--help", *options) if option.startswith(name)]
        if len(matches) > 1:
            raise _Stop(command, f"ambiguous option: {arg} could match {', '.join(matches)}")
        if not matches:
            return None if " " in arg else ("", None)
        name = matches[0]
    return name, value if eq else None


def _read(kind: Callable[[str], Any], text: str, argument: str, command: str, choices: tuple[str, ...] = ()) -> Any:
    try:
        value = kind(text)
    except ValueError:  # the message may be Python's own, such as the int/str digit limit
        raise _Stop(command, f"argument {argument}: invalid {kind.__name__} value: {text!r}") from None
    if choices and value not in choices:
        raise _Stop(command, f"argument {argument}: invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})")
    return value


def _parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """Read ``argv`` against ``_COMMANDS`` in one pass.

    Options come anywhere, as ``--name value`` or ``--name=value``, and the
    last of a repeat wins; ``--`` makes every later token a value; ``-h`` or
    ``--help`` anywhere asks for help.  Unknown options, extra positionals and
    missing ones are reported once the whole line is read, so help still wins.
    """
    extras: list[str] = []
    for start, arg in enumerate(argv):
        option = None if arg == "--" else _split_option(arg, None)
        if option is None:
            break
        if option[0] in _HELP:
            _help_or_error(None, *option, ())
        extras.append(arg)
    else:
        raise _Stop(None, "the following arguments are required: command")
    name = arg
    if name not in _COMMANDS:
        raise _Stop(None, f"argument command: invalid choice: {name!r} (choose from {', '.join(map(repr, _COMMANDS))})")
    command = _COMMANDS[name]
    values = dict(_DEFAULTS[name], command=name)
    given, after = 0, -1  # positionals read, and the index just past the last one
    values_only = False
    i, end = start + 1, len(argv)
    while i < end:
        arg = argv[i]
        i += 1
        if arg == "--" and not values_only:
            values_only = True
            if given == len(command.positionals) and after != i - 1:
                extras.append(arg)  # "--" belongs to a positional beside it, if there is one
            continue
        option = None if values_only else _split_option(arg, name)
        if option is None:
            if given < len(command.positionals):
                dest, kind = command.positionals[given]
                values[dest] = _read(kind, arg, dest, name)
                given, after = given + 1, i
            else:
                extras.append(arg)
            continue
        option, value = option
        if option in _HELP:
            _help_or_error(name, option, value, argv[i:])
        spec = command.options.get(option)
        if spec is None:
            extras.append(arg)
            continue
        dest = option[2:].replace("-", "_")
        if spec.flag:
            if value is not None:
                raise _Stop(name, f"argument {option}: ignored explicit argument {value!r}")
            values[dest] = True
            continue
        if value is None:
            stop, last = i, end if spec.many else min(i + 1, end)
            while stop < last and argv[stop] != "--" and _split_option(argv[stop], name) is None:
                stop += 1
            if stop == i:
                raise _Stop(name, f"argument {option}: expected {'at least one argument' if spec.many else 'one argument'}")
            texts, i = argv[i:stop], stop
        else:
            texts = [value]
        if spec.many:
            values[dest] = [_read(spec.type, text, option, name, spec.choices) for text in texts]
        else:
            values[dest] = _read(spec.type, texts[0], option, name, spec.choices)
    if given < len(command.positionals):
        missing = ", ".join(dest for dest, _ in command.positionals[given:])
        raise _Stop(name, f"the following arguments are required: {missing}")
    if extras:
        raise _Stop(name, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def _help_or_error(command: str | None, option: str, value: str | None, rest: Sequence[str]) -> NoReturn:
    """Stop for help, unless the help option carries a value: ``-hh`` is help, ``-hx`` and ``--help=x`` are errors."""
    if value is not None and (option != "-h" or not value or value.strip("h")):
        raise _Stop(command, f"argument -h/--help: ignored explicit argument {value!r}")
    for arg in rest:  # an ambiguous option anywhere before "--" is an error even after help
        if arg == "--":
            break
        _split_option(arg, command)
    raise _Stop(command, None)


def _option_form(option: str, spec: _Option) -> str:
    if spec.flag:
        return option
    name = spec.metavar or ("{" + ",".join(spec.choices) + "}" if spec.choices else option[2:].replace("-", "_").upper())
    return f"{option} {name} [{name} ...]" if spec.many else f"{option} {name}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: plumcalc [-h] {{{','.join(_COMMANDS)}}} ..."
    spec = _COMMANDS[command]
    words = ["[-h]", *(f"[{_option_form(option, o)}]" for option, o in spec.options.items()), *(p for p, _ in spec.positionals)]
    return f"usage: plumcalc {command} {' '.join(words)}"


def _rows(rows: list[tuple[str, str]]) -> str:
    """Two columns: the text from column 24, or below a name longer than 20."""
    text = ""
    for name, about in rows:
        text += (f"  {name:<22}{about}" if len(name) <= 20 else f"  {name}\n{'':24}{about}").rstrip() + "\n"
    return text


def _help(command: str | None) -> str:
    rows = [("-h, --help", "show this help message and exit")]
    if command is None:
        commands = _rows([(f"  {name}", spec.help) for name, spec in _COMMANDS.items()])
        return f"{_usage(None)}\n\nPlum-blossom product and wedge product arithmetic\n\ncommands:\n{commands}\noptions:\n{_rows(rows)}"
    spec = _COMMANDS[command]
    for option, o in spec.options.items():
        default = " ".join(map(str, o.default)) if isinstance(o.default, tuple) else o.default
        rows.append((_option_form(option, o), o.help if o.flag or default is None else f"{o.help} (default: {default})"))
    positionals = f"positional arguments:\n{_rows([(p, '') for p, _ in spec.positionals])}\n" if spec.positionals else ""
    return f"{_usage(command)}\n\n{spec.help}\n\n{positionals}options:\n{_rows(rows)}"


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except _Stop as stop:
        command, message = stop.args
        if message is None:
            print(_help(command), end="")
            return EXIT_OK
        print(_usage(command), file=sys.stderr)
        print(f"plumcalc{' ' + command if command else ''}: error: {message}", file=sys.stderr)
        return EXIT_USAGE
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
