"""Command-line interface: subcommands, exit codes, output determinism."""

from __future__ import annotations

import argparse
import functools
import random
import re
import shlex
import sys
from pathlib import Path

import pytest
from int_limits import int_digit_limit
from plumcalc import bench as bench_mod
from plumcalc import cli, cross_mul, equivalence, plum_div
from plumcalc.bench import BENCH_METHODS
from plumcalc.cli import MAX_BENCH_SIZE, MAX_DECIMALS, MAX_LIMIT, MAX_SEGMENT, VERIFY_SUITES, main
from plumcalc.cross_mul import MUL_METHODS, plum_mul
from plumcalc.digit_string import DigitString
from plumcalc.equivalence import DEFAULT_EXHAUSTIVE_LIMIT
from slot_bytes import bumped


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err



def test_readme_command_examples_print_their_annotated_results(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line.split("# ->") for line in block.splitlines() if "# ->" in line]
    assert len(examples) >= 4  # the block still holds its annotated examples
    for command, annotation in examples:
        program, *argv = shlex.split(command)
        expected = re.split(r"\s{2,}", annotation.strip())[0]  # a note follows the result after two spaces
        assert program == "plumcalc"
        assert run(capsys, *argv) == (0, expected + "\n", ""), command

def test_club(capsys):
    code, out, _ = run(capsys, "club", "3", "7")
    assert (code, out) == (0, "1\n")
    code, out, _ = run(capsys, "club", "7", "7")
    assert (code, out) == (0, "-1\n")


def test_carry(capsys):
    code, out, _ = run(capsys, "carry", "5", "7")
    assert (code, out) == (0, "4\n")


def test_carry_accepts_numerals_past_int_string_limit(capsys):
    code, out, _ = run(capsys, "carry", "9" * 5000, "3")
    assert (code, out) == (0, "3" + "0" * 4999 + "\n")


def test_wedge_two_digit_pair(capsys):
    code, out, _ = run(capsys, "wedge", "35", "7")
    assert (code, out) == (0, "5\n")
    code, out, _ = run(capsys, "wedge", "74", "2")
    assert (code, out) == (0, "-5\n")
    code, out, _ = run(capsys, "wedge", "5", "7")  # short pair means a=0
    assert code == 0 and out == f"{0 + 4}\n"


def test_wedge_rejects_long_pair(capsys):
    code, _, err = run(capsys, "wedge", "123", "7")
    assert code == 1 and "error" in err


def test_table_text_and_csv(capsys):
    code, out, _ = run(capsys, "table", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith("(c=2)") and len(lines) == 11
    code, csv_out, _ = run(capsys, "table", "9", "--csv")
    assert code == 0
    assert csv_out.splitlines()[0] == "a,b,value"
    assert "7,9,11" in csv_out


def test_table_rejects_zero(capsys):
    code, _, err = run(capsys, "table", "0")
    assert code == 1 and "error" in err


def test_mul_all_methods_agree(capsys):
    outputs = set()
    for method in ("cross", "plum", "wedge", "oracle"):
        code, out, _ = run(capsys, "mul", "348", "697", "--method", method)
        assert code == 0
        outputs.add(out)
    assert outputs == {"242556\n"}


def test_mul_default_and_grouped_input(capsys):
    code, out, _ = run(capsys, "mul", "35 649 758", "9")
    assert (code, out) == (0, "320847822\n")


def test_mul_segmented(capsys):
    code, out, _ = run(capsys, "mul", "2976", "2924", "--method", "cross", "--segment", "2")
    assert (code, out) == (0, "8701824\n")
    code, _, err = run(capsys, "mul", "12", "34", "--method", "plum", "--segment", "2")
    assert code == 1 and "segment" in err


def test_mul_segment_has_an_upper_bound(capsys):
    code, out, _ = run(capsys, "mul", "123", "456", "--method", "cross", "--segment", str(MAX_SEGMENT))
    assert (code, out) == (0, "56088\n")
    code, out, err = run(capsys, "mul", "123", "456", "--method", "cross", "--segment", str(MAX_SEGMENT + 1))
    assert (code, out) == (1, "")
    assert err == f"plumcalc: error: --segment must be at most {MAX_SEGMENT}, got {MAX_SEGMENT + 1}\n"


def test_mul_oracle_rejects_segment(capsys):
    code, out, err = run(capsys, "mul", "5", "3", "--method", "oracle", "--segment", "0")
    assert (code, out) == (1, "")
    assert "--segment only applies to --method cross" in err


def test_mul_trace(capsys):
    code, out, _ = run(capsys, "mul", "348", "697", "--method", "wedge", "--trace")
    assert code == 0
    assert "(2,4,2,5,6,-4)" in out
    assert "242556" in out
    code, out, _ = run(capsys, "mul", "348", "697", "--method", "wedge", "--trace", "--ascii")
    assert code == 0 and out.isascii()
    # a zero product keeps the segment length it was asked for, and only that
    for method, *options in [("cross",), ("plum",), ("wedge",), ("cross", "--segment", "3")]:
        code, out, _ = run(capsys, "mul", "0", "5", "--method", method, *options, "--trace")
        header = f"0 × 5  [{method}]" + (" (segments of 3)" if options else "")
        assert (code, out.splitlines()) == (0, [header, "  col 0: 0 = 0", "  columns: (0)", "  product: 0"])


def test_mul_rejects_negative(capsys):
    code, _, err = run(capsys, "mul", "-3", "4")
    assert code == 1 and "error" in err


def test_div_plain_and_decimal(capsys):
    code, out, _ = run(capsys, "div", "56789", "369")
    assert (code, out) == (0, "153 r 332\n")
    code, out, _ = run(capsys, "div", "56789", "369", "--decimals", "2")
    assert (code, out) == (0, "153.89 r 359\n")
    code, out, _ = run(capsys, "div", "242558", "697", "--method", "wedge")
    assert (code, out) == (0, "348 r 2\n")
    code, out, _ = run(capsys, "div", "56789", "369", "--method", "oracle")
    assert (code, out) == (0, "153 r 332\n")
    code, out, _ = run(capsys, "div", "56789", "369", "--method", "oracle", "--decimals", "2")
    assert (code, out) == (0, "153.89 r 359\n")


def test_div_decimals_has_an_upper_bound(capsys):
    code, out, _ = run(capsys, "div", "10", "3", "--decimals", str(MAX_DECIMALS))
    assert (code, out) == (0, "3." + "3" * MAX_DECIMALS + " r 1\n")
    for method in ("plum", "oracle"):
        code, out, err = run(capsys, "div", "10", "3", "--method", method, "--decimals", str(MAX_DECIMALS + 1))
        assert (code, out) == (1, "")
        assert f"--decimals must be at most {MAX_DECIMALS}, got {MAX_DECIMALS + 1}" in err


def test_mul_accepts_numerals_past_int_string_limit(capsys):
    code, out, _ = run(capsys, "mul", "9" * 5000, "3")
    assert (code, out) == (0, "2" + "9" * 4999 + "7\n")


def test_oracle_decimal_division_matches_plum_on_long_dividend(capsys):
    outputs = []
    for method in ("oracle", "plum"):
        code, out, _ = run(capsys, "div", "7" * 4000, "3", "--method", method, "--decimals", "400")
        assert code == 0
        outputs.append(out.splitlines()[-1])
    assert outputs[0] == outputs[1]
    whole, point = outputs[0].split(" r ")[0].split(".")
    assert whole.startswith("259259") and len(whole) == 4000 and len(point) == 400


def test_div_trace(capsys):
    code, out, _ = run(capsys, "div", "242558", "697", "--method", "wedge", "--trace")
    assert code == 0
    assert "697 ) 242558" in out
    assert out.rstrip().endswith("348 r 2")


def test_div_trace_past_the_int_string_limit(capsys):
    # 4400 over 4390 digits: the tableau's partial remainders have more digits than the default limit
    rng = random.Random(4400)
    a = "9" + "".join(rng.choice("0123456789") for _ in range(4399))
    b = "1" + "".join(rng.choice("0123456789") for _ in range(4389))
    with int_digit_limit(4300):
        code, out, err = run(capsys, "div", a, b, "--trace")
    assert (code, err) == (0, "")
    with int_digit_limit(0):
        q, r = divmod(int(a), int(b))
        assert out.endswith(f"\n{q} r {r}\n")
        assert out.splitlines()[-2].strip() == str(r)


def test_error_exits_pinned(capsys, monkeypatch):
    for argv, message in [
        (("wedge", "35", "10"), "wedge multiplier must be a single digit, got '10'"),
        (("mul", "5", "3", "--method", "oracle", "--trace"), "--trace is not available for --method oracle"),
        (("div", "5", "3", "--method", "oracle", "--trace"), "--trace is not available for --method oracle"),
        (("div", "5", "3", "--decimals", "-1"), "--decimals must be non-negative, got -1"),
    ]:
        assert run(capsys, *argv) == (1, "", f"plumcalc: error: {message}\n")

    wedge_columns = plum_div._wedge_columns

    def last_column_one_high(xs, ys):
        return bumped(wedge_columns(xs, ys), -1)  # the chain check reads the changed slot bytes

    monkeypatch.setattr(plum_div, "_wedge_columns", last_column_one_high)
    message = "plum division of 56789 by 369: partial remainder chain diverged: 331 vs 332"
    for basecase in (cross_mul._BASECASE_PAIRS, 0):
        monkeypatch.setattr(cross_mul, "_BASECASE_PAIRS", basecase)
        assert run(capsys, "div", "56789", "369") == (2, "", f"plumcalc: error: {message}\n")


def test_div_by_zero_exits_2(capsys):
    code, _, err = run(capsys, "div", "5", "0")
    assert code == 2 and err.strip()


def test_methods_agree_across_cli(capsys):
    results = set()
    for method in ("plum", "wedge", "oracle"):
        code, out, _ = run(capsys, "div", "2728018", "3456", "--method", method)
        assert code == 0
        results.add(out)
    assert results == {"789 r 1234\n"}


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "carry-theorem")
    assert code == 0
    assert "PASS carry-closed-form (81 cases)" in out
    assert "1 laws checked: all hold" in out


def test_verify_table_patterns_records_known_discrepancies(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "table-patterns")
    assert code == 0
    assert out.count("PASS") == 20  # one line per pattern statement
    assert "fails exactly at b=4" in out


def test_verify_equiv_suites_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "mul-equiv", "--limit", "40", "--random-pairs", "5")
    assert code == 0
    assert "mul-equiv-exhaustive" in out
    code, out, _ = run(capsys, "verify", "--suite", "div-equiv", "--limit", "30", "--random-pairs", "5")
    assert code == 0
    assert "div-equiv-one-sided" in out


def test_verify_exits_2_and_lists_violations(capsys, monkeypatch):
    def broken(a, b):
        product, trace = plum_mul(a, b)
        return DigitString.from_int(int(product) + 1), trace

    monkeypatch.setitem(MUL_METHODS, "plum", broken)
    monkeypatch.setattr(equivalence, "ONE_SIDED_MULTIPLIERS", (7,))  # one multiplier keeps the 10^4 sweep short
    code, out, err = run(capsys, "verify", "--suite", "mul-equiv", "--limit", "3", "--random-pairs", "1")
    assert (code, err) == (2, "")
    lines = out.splitlines()
    assert lines[-1] == "3 laws checked: VIOLATIONS FOUND"
    fails = [k for k, line in enumerate(lines) if line.startswith("FAIL ")]
    assert [lines[k].split()[1] for k in fails] == ["mul-equiv-exhaustive", "mul-equiv-one-sided", "mul-equiv-random"]
    # at most five of each report's violations are listed, under its FAIL line
    listed = [lines[start + 1 : end] for start, end in zip(fails, fails[1:] + [len(lines) - 1])]
    assert [len(below) for below in listed] == [5, 5, 1]
    assert all(line.startswith("     violation at (") for below in listed for line in below)
    assert listed[0][0] == "     violation at (0, 0): expected 0, got 1"


def test_verify_rejects_limit_below_2(capsys):
    for limit in ("-5", "0", "1"):
        code, out, err = run(capsys, "verify", "--suite", "div-equiv", "--limit", limit, "--random-pairs", "3")
        assert (code, out) == (1, "")
        assert f"--limit must be at least 2, got {limit}" in err


def test_verify_limit_has_an_upper_bound(capsys, monkeypatch):
    def unavailable(**kwargs):
        raise AssertionError("an out-of-range --limit must be rejected before any sweep")

    monkeypatch.setattr(cli, "verify_mul_equivalence", lambda limit, random_pairs: [])
    code, out, _ = run(capsys, "verify", "--suite", "mul-equiv", "--limit", str(MAX_LIMIT), "--random-pairs", "1")
    assert (code, out) == (0, "0 laws checked: all hold\n")
    monkeypatch.setattr(cli, "verify_mul_equivalence", unavailable)
    monkeypatch.setattr(cli, "verify_div_equivalence", unavailable)
    for suite in ("mul-equiv", "div-equiv", "all"):
        for limit in (MAX_LIMIT + 1, 100000000):
            code, out, err = run(capsys, "verify", "--suite", suite, "--limit", str(limit), "--random-pairs", "1")
            assert (code, out) == (1, "")
            assert err == f"plumcalc: error: --limit must be at most {MAX_LIMIT}, got {limit}\n"


def test_verify_rejects_random_pairs_below_1(capsys):
    for pairs in ("-3", "0"):
        code, out, err = run(capsys, "verify", "--suite", "mul-equiv", "--limit", "4", "--random-pairs", pairs)
        assert (code, out) == (1, "")
        assert f"--random-pairs must be at least 1, got {pairs}" in err


def test_usage_error_exits_1(capsys):
    code, _, _ = run(capsys, "mul", "123")
    assert code == 1
    code, _, _ = run(capsys, "nonsense")
    assert code == 1


def test_bench_csv_stdout_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "bench", "--sizes", "2", "4", "--trials", "2", "--seed", "5", "--methods", "plum")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("method,size,trials")
    assert len(lines) == 3

    target = tmp_path / "bench.csv"
    code, out, _ = run(capsys, "bench", "--sizes", "2", "--trials", "2", "--seed", "5", "--methods", "plum", "--csv", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("method,size,trials")


def test_bench_repeated_sizes_and_methods_print_each_row_once(capsys):
    code, out, _ = run(capsys, "bench", "--sizes", "4", "4", "--methods", "cross", "cross", "--trials", "1")
    assert code == 0
    assert [line.split(",")[:2] for line in out.splitlines()] == [["method", "size"], ["cross", "4"]]


def test_bench_csv_unwritable_path_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "bench.csv"
    code, out, err = run(capsys, "bench", "--sizes", "2", "--trials", "1", "--methods", "plum", "--csv", str(target))
    assert (code, out) == (1, "")
    assert err.startswith("plumcalc: error: ") and str(target) in err
    assert "Traceback" not in err


def test_cli_output_byte_identical(capsys):
    _, first, _ = run(capsys, "mul", "348", "697", "--trace")
    _, second, _ = run(capsys, "mul", "348", "697", "--trace")
    assert first == second


def test_parser_is_built_once(capsys):
    # nothing is built per call: a plain line runs only its reader and its
    # command, a line for argparse reuses the parser the first one built, and
    # neither usage nor help text is formatted unless it is printed
    run(capsys, "mul", "348", "697", "--meth", "plum")
    entered = set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == cli.__file__:
            entered.add(frame.f_code.co_name)

    sys.setprofile(record)
    try:
        outputs = [run(capsys, "mul", "348", "697", *form) for form in (["--method", "plum"], ["--meth", "plum"]) * 2]
    finally:
        sys.setprofile(None)
    assert outputs == [(0, "242556\n", "")] * 4
    assert entered == {"main", "_parse_args", "_plain_args", "_cmd_mul"}


def test_plain_lines_never_build_or_import_argparse(capsys, monkeypatch):
    def unavailable():
        raise AssertionError("a plain line built the argparse parser")

    monkeypatch.setattr(cli, "_parser", unavailable)
    monkeypatch.setitem(sys.modules, "argparse", None)  # importing argparse now raises ImportError
    a, b = "4711", "32"
    for command, methods, answer in (("mul", MUL_METHODS, "150752"), ("div", plum_div.DIV_METHODS, "147 r 7")):
        for method in methods:
            for trace in ([], ["--trace"]):
                expected = run(capsys, command, a, b, "--method", method, *trace)
                assert expected[0] == 0 and expected[1].endswith(answer + "\n") and expected[2] == ""
                shapes = [
                    [command, "--method", method, *trace, a, b],
                    [command, a, "--method", method, *trace, b],
                    [command, a, b, *trace, f"--method={method}"],
                    [command, *trace, a, f"--method={method}", b],
                ]
                for argv in shapes:
                    assert run(capsys, *argv) == expected, argv
                    assert vars(cli._parse_args(argv)) == vars(cli._parse_args([command, a, b, "--method", method, *trace]))


HELP_ARGVS = [["--help"]] + [[command, "--help"] for command in cli._COMMANDS]
USAGE_ERROR_ARGVS = [
    ["mul", "123"],
    ["nonsense"],
    ["mul", "123", "456", "--method", "bogus"],
    ["bench", "--methods"],
    ["table", "x"],
]


def test_parser_reuse_keeps_every_output(capsys):
    first = run(capsys, "mul", "348", "697", "--trace")
    passes = [[run(capsys, *argv) for argv in HELP_ARGVS + USAGE_ERROR_ARGVS] for _ in range(2)]
    assert passes[0] == passes[1]
    assert [code for code, _, _ in passes[0]] == [0] * len(HELP_ARGVS) + [1] * len(USAGE_ERROR_ARGVS)
    assert all(out for _, out, _ in passes[0][: len(HELP_ARGVS)])
    assert all(err.startswith("usage: plumcalc") for _, _, err in passes[0][len(HELP_ARGVS) :])
    assert run(capsys, "mul", "348", "697", "--trace") == first


def test_bench_sizes_have_an_upper_bound(capsys, monkeypatch):
    def unavailable(*args):
        raise AssertionError("an out-of-range --sizes must be rejected before any trial")

    monkeypatch.setattr(cli.bench_mod, "run_bench", lambda sizes, trials, seed, methods: [])
    code, _, err = run(capsys, "bench", "--sizes", str(MAX_BENCH_SIZE), "--trials", "1", "--methods", "cross")
    assert (code, err) == (0, "")
    monkeypatch.setattr(cli.bench_mod, "run_bench", unavailable)
    for sizes in ([MAX_BENCH_SIZE + 1], [4, 300000000], [300000000, MAX_BENCH_SIZE + 1, 8]):
        code, out, err = run(capsys, "bench", "--sizes", *map(str, sizes), "--trials", "1", "--methods", "cross")
        assert (code, out) == (1, "")
        assert err == f"plumcalc: error: --sizes must be at most {MAX_BENCH_SIZE}, got {max(sizes)}\n"


def test_bench_defaults_are_immutable(monkeypatch):
    seen = []
    monkeypatch.setattr(cli.bench_mod, "run_bench", lambda sizes, trials, seed, methods: seen.append((sizes, methods)) or [])
    for argv in (["bench"], ["bench", "--sizes", "2", "--methods", "plum"], ["bench"]):
        assert main(argv) == 0
    assert seen == [((4, 8, 16, 32), BENCH_METHODS), ([2], ["plum"]), ((4, 8, 16, 32), BENCH_METHODS)]
    assert isinstance(seen[0][0], tuple) and isinstance(seen[0][1], tuple)
    first = cli._parse_args(["bench"])
    first.sizes, first.trials = (2,), 1  # a handler changing its namespace leaves the next call's alone
    assert (cli._parse_args(["bench"]).sizes, cli._parse_args(["bench"]).trials) == ((4, 8, 16, 32), 16)


class _Parser(argparse.ArgumentParser):
    """The argparse grammar the command table replaced, kept as a reference: usage errors exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
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


def reference_outcome(argv):
    """The argparse reference's parsed values, or its exit code."""
    try:
        return vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code


def table_outcome(argv):
    """``cli``'s parsed values, or the exit code ``main`` gives when argparse exits."""
    try:
        return vars(cli._parse_args(argv))
    except SystemExit as exc:
        return 1 if exc.code else 0


DIFFERENTIAL_ARGVS = [
    ["club", "3", "7"],
    ["carry", "5", "7"],
    ["wedge", "35", "7"],
    ["table", "9"],
    ["mul", "12", "34"],
    ["div", "56789", "369"],
    ["verify"],
    ["bench"],
    ["mul", "12", "34", "--meth", "plum"],
    ["mul", "--method=plum", "--", "12", "34"],
    ["mul", "12", "34", "--method", "plum", "--method", "cross"],
    ["bench", "--sizes", "2", "--sizes", "3", "--trials", "1", "--methods", "plum"],
    ["verify", "--rand", "3", "--suite", "mul-equiv", "--limit", "2"],
    ["verify", "--rand", "3", "--suite", "mul-equiv", "--limit", "2", "--random-pairs", "-3"],
    ["mul", "12", "-h", "34"],
    ["bench", "--s", "4"],
    ["mul", "12", "34", "--trace=1"],
    ["mul", "12", "34", "--method"],
    ["mul", "12", "34", "56"],
    ["mul", "123"],
    ["bench", "--methods"],
    ["table", "x"],
    ["nonsense"],
    [],
    # each form on its own and together: prefixes, '=', '--', flags, negatives, repeats
    ["mul", "--trace", "--ascii", "12", "34", "--segment=3", "--method=cross"],
    ["div", "-1", "-2.5", "--decimals", "-7", "--method", "wedge", "--dec=4"],
    ["bench", "--sizes", "2", "3", "--methods", "plum", "wedge", "--csv", "out.csv", "--seed", "-1"],
    ["bench", "--sizes=4", "8"],
    ["bench", "--csv="],
    ["mul", "12", "34", "--help=x"],
    ["mul", "12", "34", "-hx"],
    ["mul", "12", "34", "-hh"],
    ["mul", "12", "34", "-x"],
    ["mul", "12", "--", "--method"],
    ["mul", "12", "34", "--method", "-h"],
    ["mul", "12", "34", "--method", "--"],
    ["bench", "-h", "--s"],
    ["bench", "--", "-h"],
    ["--he"],
    ["--x", "mul", "-h"],
    ["--x", "mul", "12", "34"],
    ["table", "3", "--c"],
    ["table", "3", "--csv", "--ascii", "--csv"],
    ["verify", "--suite", "bogus"],
    ["verify", "--limit", "1_0", "--random-pairs", " 5 "],
    ["wedge", "-", "7 8"],
    ["carry", "--x y", "3"],
    ["mul", "12", "34", "--method", "cross", "--segment", "-1_0"],
    ["mul", "12", "34", "--method", "cross", "--segment=-2"],
    ["bench", "--csv", "-x"],
    ["bench", "--trials", "-1", "--csv=x=y"],
    ["table", "3", "--ascii=", "--csv"],
    ["div", "12", "34", "--decimals", "2", "--trace", "--method=wedge", "--ascii"],
]


@pytest.mark.parametrize("argv", DIFFERENTIAL_ARGVS + HELP_ARGVS + USAGE_ERROR_ARGVS, ids=" ".join)
def test_table_parser_matches_the_argparse_reference(argv, capsys):
    expected = reference_outcome(argv)
    capsys.readouterr()
    assert table_outcome(argv) == expected


# every kind of token: values good and bad for each option, negative and
# option-like values, '=' forms, prefixes, '--' and help
FUZZ_VALUES = ["12", "0", "7", "1_0", " 5 ", "x", "", "-3", "-1_0", "-x", "-", "9" * 30, "plum", "cross", "all", "mul-equiv"]
FUZZ_TOKENS = FUZZ_VALUES + ["--method", "--trace=1", "--ascii", "--csv=", "--sizes", "--meth", "--s", "--", "-h", "--help", "-hh", "mul"]


def fuzz_argv(rng: random.Random) -> list[str]:
    """A command with random positionals and options from its table, then a few random tokens inserted."""
    name = rng.choice([*cli._COMMANDS, "nonsense"])
    command = cli._COMMANDS.get(name, cli._COMMANDS["mul"])
    words = [[rng.choice(FUZZ_VALUES)] for _ in command.positionals]
    for option in rng.sample(list(command.options), rng.randrange(len(command.options) + 1)):
        spec = command.options[option]
        value = rng.choice([*spec.choices, *FUZZ_VALUES] if rng.random() < 0.3 else spec.choices or FUZZ_VALUES[:4])
        words.append([option] if spec.flag else rng.choice([[option, value], [f"{option}={value}"]]))
    rng.shuffle(words)
    argv = [name] + [token for word in words for token in word]
    for _ in range(rng.choice((0, 0, 1, 2))):
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(FUZZ_TOKENS))
    return argv


def test_parser_matches_the_argparse_reference_at_random(capsys):
    rng = random.Random(28)
    plain = 0
    for _ in range(3000):
        argv = fuzz_argv(rng)
        expected = reference_outcome(argv)
        plain += cli._plain_args(argv) is not None
        assert table_outcome(argv) == expected, argv
        capsys.readouterr()
    assert plain >= 600  # the plain reader is checked on many lines, not only argparse against itself


def test_bench_empty_csv_path_is_a_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in (["bench", "--trials", "1", "--csv="], ["bench", "--sizes", "2", "--trials", "1", "--csv="]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("plumcalc: error: cannot write --csv : ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_mul_segment_below_1_is_a_usage_error(capsys):
    # the same message whatever the operands, before any method sees the segment
    for a in ("0", "5"):
        for segment in ("0", "-2"):
            for form in (["--segment", segment], [f"--segment={segment}"]):
                code, out, err = run(capsys, "mul", a, "5", "--method", "cross", *form)
                assert (code, out, err) == (1, "", f"plumcalc: error: --segment must be at least 1, got {segment}\n")


def test_huge_integer_option_is_a_usage_error(capsys):
    code, out, err = run(capsys, "mul", "12", "34", "--segment", "9" * 5000)
    assert (code, out) == (1, "")
    assert "invalid int value" in err and "Exceeds" not in err and "limit" not in err


def test_help_is_generated_from_the_table(capsys):
    def help_text(*argv):  # argparse wraps lines at the terminal width, so compare with spaces collapsed
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return " ".join(out.split()) + " "

    out = help_text("--help")
    for name, command in cli._COMMANDS.items():
        assert f" {name} " in out and command.help in out
    for name, command in cli._COMMANDS.items():
        out = help_text(name, "--help")
        assert command.help in out
        words = [positional for positional, _ in command.positionals]
        for option, spec in command.options.items():
            words += [option, spec.help, *spec.choices]
            defaults = spec.default if isinstance(spec.default, tuple) else (spec.default,)
            words += [str(default) for default in defaults if not spec.flag and default is not None]
        assert all(word in out for word in words), [word for word in words if word not in out]
