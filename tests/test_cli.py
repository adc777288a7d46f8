"""Expression language and the command-line surface."""

import csv
import hashlib
import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intervalfp
from intervalfp import (ExtInterval, Fp, FpKind, OpKind, PreRoundedWord, RoundingDirection,
                        oracle, value_cmp)
from intervalfp.cli import NEG, ExprSyntaxError, Lit, _cmd_flagdemo, eval_expr, main, parse, unparse
from intervalfp import BINARY64, ZeroMode, member, oracle_op, parse_format, parse_interval

ADD, SUB, MUL, DIV = OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV
# a descriptor field of more than six digits is refused by its length
_BEYOND = "beyond the limits of precision 4096 and exponents -262144:262144"


def lit(v):
    """The literal of the integer v, in canonical parts: v = sig * 2**exp2 *
    10**exp10 with sig free of factors 2 and 5."""
    if v == 0:
        return Lit(FpKind.ZERO)
    sig, exp2, exp10 = abs(v), 0, 0
    while sig % 2 == 0:
        sig, exp2 = sig // 2, exp2 + 1
    while sig % 5 == 0:
        sig, exp2, exp10 = sig // 5, exp2 - 1, exp10 + 1
    return Lit(FpKind.FINITE, v < 0, sig, exp2, exp10)


# -- parsing ---------------------------------------------------------------------


def test_parse_example_tree():
    assert parse("1/3 + 2*inf") == (lit(1), lit(3), DIV, lit(2), Lit(FpKind.INF), MUL, ADD)


def test_parse_signed_zero_literals():
    assert parse("(-0)/( +0)") == (Lit(FpKind.ZERO, True), Lit(FpKind.ZERO), DIV)
    # a bare 0 means +0, and 1-0 stays a subtraction
    assert parse("0") == (Lit(FpKind.ZERO),)
    assert parse("1-0") == (lit(1), Lit(FpKind.ZERO), SUB)


def test_parse_error_position_and_expectations():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 +")
    assert err.value.pos == 3
    assert err.value.expected
    with pytest.raises(ExprSyntaxError) as err:
        parse("(1 + 2")
    assert err.value.pos == 6
    assert ")" in err.value.expected
    with pytest.raises(ExprSyntaxError):
        parse("1 $ 2")
    with pytest.raises(ExprSyntaxError):
        parse("foo + 1")


def test_precedence_and_associativity():
    assert parse("1-2-3") == (lit(1), lit(2), SUB, lit(3), SUB)
    assert parse("2*3+4") == (lit(2), lit(3), MUL, lit(4), ADD)
    assert parse("2+3*4") == (lit(2), lit(3), lit(4), MUL, ADD)
    assert parse("2*(3+4)") == (lit(2), lit(3), lit(4), ADD, MUL)


def test_unary_minus_folds_into_literals():
    assert parse("-3") == (Lit(FpKind.FINITE, True, 3),)
    assert parse("-inf") == (Lit(FpKind.INF, True),)
    assert parse("--3") == (lit(3),)
    assert parse("-(1+2)") == (lit(1), lit(2), ADD, NEG)
    assert parse("-2*3") == (Lit(FpKind.FINITE, True, 1, 1), lit(3), MUL)


def test_hex_literals():
    assert parse("0x1.8p+1") == (Lit(FpKind.FINITE, False, 3),)


# (text, position, expected tokens) of malformed expressions
SYNTAX_ERRORS = [
    ("", 0, ("number", "inf", "nan", "(", "-")),
    (" ", 1, ("number", "inf", "nan", "(", "-")),
    (")", 0, ("number", "inf", "nan", "(", "-")),
    ("()", 1, ("number", "inf", "nan", "(", "-")),
    ("(1))", 3, ("+", "-", "*", "/", "end of input")),
    ("1 2", 2, ("+", "-", "*", "/", "end of input")),
    ("*1", 0, ("number", "inf", "nan", "(", "-")),
    ("1*", 2, ("number", "inf", "nan", "(", "-")),
    ("-", 1, ("number", "inf", "nan", "(", "-")),
    ("+", 1, ("number", "inf", "nan", "(", "-")),
    ("(", 1, ("number", "inf", "nan", "(", "-")),
    ("((1)", 4, (")",)),
    ("1 +", 3, ("number", "inf", "nan", "(", "-")),
    ("(1 + 2", 6, (")",)),
    ("foo + 1", 0, ("inf", "nan", "number")),
    ("1e", 1, ("+", "-", "*", "/", "end of input")),
    ("0x.p1", 2, ("number", "inf", "nan", "operator", "(")),
    (".e5", 0, ("number", "inf", "nan", "operator", "(")),
    ("-(1+)", 4, ("number", "inf", "nan", "(", "-")),
    ("1 $ 2", 2, ("number", "inf", "nan", "operator", "(")),
    ("1 + * 2", 4, ("number", "inf", "nan", "(", "-")),
    ("inf inf", 4, ("+", "-", "*", "/", "end of input")),
    ("nan(", 3, ("+", "-", "*", "/", "end of input")),
    ("(-)", 2, ("number", "inf", "nan", "(", "-")),
    ("1 - - ", 6, ("number", "inf", "nan", "(", "-")),
    ("2 / )", 4, ("number", "inf", "nan", "(", "-")),
    ("1 + foo", 4, ("inf", "nan", "number")),
    ("(1)(2)", 3, ("+", "-", "*", "/", "end of input")),
    ("(1 2", 3, (")",)),
    ("-(-(", 4, ("number", "inf", "nan", "(", "-")),
    ("1 ) 2", 2, ("+", "-", "*", "/", "end of input")),
    ("0x1p", 3, ("+", "-", "*", "/", "end of input")),
]


@pytest.mark.parametrize("text, pos, expected", SYNTAX_ERRORS)
def test_syntax_error_position_and_expected_tokens(text, pos, expected):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert (err.value.pos, err.value.expected) == (pos, expected)


@pytest.mark.parametrize(
    "text",
    [
        "1/3 + 2*inf",
        "(-0)/(+0)",
        "1 - 2 - 3",
        "-(1 + 2) * 4",
        "2 * (3 + 4) / (5 - 6)",
        "-0 - -0",
        "0.5 * inf - nan",
        "1.25e2 / 0x1.8p+1",
        "-inf",
        "--inf",
        "-(-0)",
        "-nan",
        "1e5000",
        "-1e5000",
        "1e-5000",
    ],
)
def test_unparse_round_trip(text):
    tree = parse(text)
    assert parse(unparse(tree)) == tree


# -- evaluation --------------------------------------------------------------------


def test_eval_examples(toy):
    assert str(eval_expr(parse("inf - inf"), toy, ZeroMode.FINITE)) == "(-inf, +inf)"
    assert str(eval_expr(parse("+0 / +0"), toy, ZeroMode.INFINITE)) == "(-inf, +inf)"
    assert str(eval_expr(parse("2 + 3"), toy, ZeroMode.FINITE)) == "[5, 5]"
    assert str(eval_expr(parse("1/0"), toy, ZeroMode.FINITE)) == "[14, +inf)"


def test_eval_single_op_matches_fp_interval_op(toy):
    from intervalfp import Fp, fp_interval_op

    cases = [
        ("2 * inf", Fp.from_exact(toy, 2), Fp.inf(toy), OpKind.MUL),
        ("-0 + 0", Fp.zero(toy, True), Fp.zero(toy), OpKind.ADD),
        ("1 / 3", Fp.from_exact(toy, 1), Fp.from_exact(toy, 3), OpKind.DIV),
        ("inf - inf", Fp.inf(toy), Fp.inf(toy), OpKind.SUB),
    ]
    for text, a, b, op in cases:
        for mode in ZeroMode:
            assert eval_expr(parse(text), toy, mode) == fp_interval_op(a, b, op, mode)


def test_eval_keeps_intermediate_width(toy):
    # (1/3)*3 is wider than [1,1]: the quotient's width must not collapse.
    # By hand, in p3e-2:3 (3 significand bits, so [1/2, 1) holds only
    # 0.5, 0.625, 0.75, 0.875):
    #   1/3 rounds outward to the quotient [5/16, 3/8] = [0.3125, 0.375];
    #   times the point 3 the exact set is [15/16, 9/8];
    #   its outward format hull is [7/8, 5/4] = [0.875, 1.25].
    # No operand is a zero or an infinity, so both zero modes agree.
    quotient = parse_interval("[0.3125, 0.375]", toy)
    want = parse_interval("[0.875, 1.25]", toy)
    assert oracle_op(quotient, parse_interval("[3, 3]", toy), OpKind.MUL, toy) == want
    for mode in ZeroMode:
        assert eval_expr(parse("1/3"), toy, mode) == quotient
        out = eval_expr(parse("(1/3) * 3"), toy, mode)
        assert out == want
        assert out != parse_interval("[1, 1]", toy)
        assert member(F(1), out)


def test_eval_literal_rounding_warns(toy):
    warnings = []
    out = eval_expr(parse("0.3"), toy, ZeroMode.FINITE, warn=warnings.append)
    assert out == parse_interval("[0.3125, 0.3125]", toy)
    assert len(warnings) == 1 and "0.3" in str(warnings[0])


def test_eval_nan_literal(toy):
    with pytest.raises(Exception):
        eval_expr(parse("nan + 1"), toy, ZeroMode.FINITE)
    assert eval_expr(parse("nan + 1"), toy, ZeroMode.INFINITE).is_empty


# -- the command-line surface ----------------------------------------------------------


def test_cmd_eval(capsys):
    assert main(["eval", "1/0", "--mode", "finite", "--format", "p3e-2:3"]) == 0
    assert capsys.readouterr().out.strip() == "[14, +inf)"
    assert main(["eval", "1/3", "--format", "p3e-2:3", "--round", "both"]) == 0
    out = capsys.readouterr().out
    assert "down: 0.3125" in out and "up: 0.375" in out


# one inexact literal, one overflow and one underflow: the interval on
# stdout and the warning on stderr, byte for byte
PINNED_WARNINGS = [
    (["--format", "p3e-2:3", "0.3"], "[0.3125, 0.3125]",
     "literal 0.3 is not representable in p3e-2:3; rounded to nearest = 0.3125"),
    (["--", "1e400"], "[0x1.fffffffffffffp+1023, +inf)",
     "literal 1e400 is not representable in b64; rounded to nearest = +inf"),
    (["--", "-1e-400"], "[-0x0.0000000000001p-1022, 0]",
     "literal -1e-400 is not representable in b64; rounded to nearest = -0"),
]


@pytest.mark.parametrize("args, out, warning", PINNED_WARNINGS, ids=["inexact", "over", "under"])
def test_eval_prints_the_warning_byte_for_byte(args, out, warning, capsys):
    assert main(["eval", *args]) == 0
    assert capsys.readouterr() == (f"{out}\n", f"warning: {warning}\n")


def test_repl_prints_the_warnings_byte_for_byte(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0.3\n:format b64\n1e400\n-1e-400\n"))
    assert main(["repl", "--format", "p3e-2:3"]) == 0
    want = "".join(f"warning: {warning}\n{out}\n" for _, out, warning in PINNED_WARNINGS)
    assert capsys.readouterr() == (want, "")


def test_python_m_runs_the_command_line():
    src = Path(intervalfp.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "intervalfp", "eval", "1+1"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout.strip()) == (0, "[2, 2]"), done.stderr


def test_python_m_check_runs_both_suites():
    src = Path(intervalfp.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "intervalfp", "check", "--format", "p3e-2:3",
                           "--mode", "infinite"], env=env, capture_output=True, text=True,
                          timeout=120)
    lines = done.stdout.splitlines()
    assert done.returncode == 0, done.stdout + done.stderr
    assert "oracle: p3e-2:3 infinite zeros: ok" in lines
    assert "conformance p3e-2:3: 24864 comparisons, ok" in lines


# What a fresh interpreter imports, then loads running one expression as
# `intervalfp eval` does; it prints the heavy modules each step added.
_FOOTPRINT = """
import sys
heavy = ("dataclasses", "inspect", "ast", "argparse", "gettext", "csv")
bare = set(sys.modules)
def added():
    return " ".join(m for m in heavy if m in sys.modules and m not in bare)
import intervalfp
print(added())
from intervalfp import BINARY64, ZeroMode
from intervalfp.cli import eval_expr, parse
print(str(eval_expr(parse("0.1 + 0.2"), BINARY64, ZeroMode.FINITE, warn=lambda m: None)))
print(added())
"""


def test_an_expression_loads_no_record_or_argument_machinery():
    """`import intervalfp` loads neither `dataclasses` nor what it brings
    (`inspect`, `ast`), and parsing, evaluating and printing an expression
    load no argument parser (`argparse`, `gettext`) and no `csv`."""
    src = Path(intervalfp.__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-S", "-c", _FOOTPRINT], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["", "[0x1.3333333333333p-2, 0x1.3333333333334p-2]", "", ""]


def test_cmd_eval_syntax_error(capsys):
    assert main(["eval", "1 +", "--format", "p3e-2:3"]) == 1
    assert "position 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, line",
    [
        (["eval", "-inf"], "(-inf, -0x1.fffffffffffffp+1023]"),
        (["eval", "-1+2"], "[1, 1]"),
        (["eval", "-(1)"], "[-1, -1]"),
        (["eval", "-1"], "[-1, -1]"),
        (["eval", "-1/3", "--format", "p3e-2:3"], "[-0.375, -0.3125]"),
        (["flagdemo", "-1.11|1", "--format", "p3e-2:3", "--exp", "3"],
         "recovered bounds: [-inf, -14]"),
        (["eval", "--1"], "[1, 1]"),
        (["eval", "--(1)", "--format", "p3e-2:3"], "[1, 1]"),
        (["eval", "--.5"], "[0.5, 0.5]"),
        (["eval", "--inf"], "[0x1.fffffffffffffp+1023, +inf)"),
        (["eval", "--nan", "--mode", "infinite"], "empty"),
        (["eval", "---1"], "[-1, -1]"),
    ],
)
def test_operand_may_start_with_minus(argv, line, capsys):
    assert main(argv) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_a_word_with_two_minus_signs_reaches_flagdemo(capsys):
    # the word, not argparse, refuses it: exit 1 rather than a usage error
    assert main(["flagdemo", "--1.11|1", "--format", "p3e-2:3"]) == 1
    assert "bad pre-rounded word '--1.11|1'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["eval", "--bogus"], ["eval", "-inf", "--bogus"],
                                  ["flagdemo", "--bogus", "1.011|11"]])
def test_unknown_long_option_is_still_a_usage_error(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["eval", "flagdemo"])
def test_short_help_still_prints_help(command, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, "-h"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: intervalfp {command}")


def test_flagdemo_help_example_runs(capsys):
    with pytest.raises(SystemExit):
        main(["flagdemo", "-h"])
    assert "e.g. 1.011|01 with --format p4e-3:3" in capsys.readouterr().out
    assert main(["flagdemo", "1.011|01", "--format", "p4e-3:3"]) == 0


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_cmd_check_refuses_an_empty_sample(samples, capsys):
    # a sample of no pairs would check nothing and report ok
    assert main(["check", "--format", "b64", "--samples", samples]) == 1
    assert capsys.readouterr().err == f"error: samples must be at least 1, not {samples}\n"


def test_cmd_check_passes(capsys):
    assert main(["check", "--format", "p2e0:0ns", "--mode", "finite"]) == 0
    out = capsys.readouterr().out
    assert "oracle" in out and "ok" in out


def test_cmd_check_infinite_mode(capsys):
    assert main(["check", "--format", "p2e0:0ns", "--mode", "infinite"]) == 0


def test_cmd_check_fails_on_oracle_mismatches_and_shows_twenty(capsys, monkeypatch):
    """An upper bound one step too high on every finite product fails the
    check: the oracle line counts the mismatches, and the first twenty
    follow it, indented, before the conformance suite's own lines."""
    interval_op = oracle.fp_interval_op

    def widened(a, b, op, mode):
        out = interval_op(a, b, op, mode)
        if op is MUL and not out.is_empty and out.hi.is_finite:
            return ExtInterval(out.fmt, out.lo, out.hi.next_up())
        return out

    monkeypatch.setattr(oracle, "fp_interval_op", widened)
    mismatches = oracle.exhaustive_compare(parse_format("p3e-2:3"), ZeroMode.FINITE)
    assert len(mismatches) > 20
    assert main(["check", "--format", "p3e-2:3", "--mode", "finite"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"oracle: p3e-2:3 finite zeros: {len(mismatches)} mismatches"
    assert lines[1:21] == [f"  {m}" for m in mismatches[:20]]
    assert lines[21] == "conformance p3e-2:3: 24864 comparisons, ok"


def test_cmd_check_refuses_unsampled_format(capsys):
    # too large to enumerate, and the sampler draws binary64 values only
    assert main(["check", "--format", "p24e-126:127", "--samples", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "oracle: skipped (p24e-126:127 is too large to enumerate)\n"
    assert captured.err.startswith("error: p24e-126:127 ")


def test_cmd_report_contains_all_identities(capsys):
    assert main(["report", "--format", "p3e-2:3"]) == 0
    out = capsys.readouterr().out
    from intervalfp import identity_catalog

    for rec in identity_catalog():
        assert rec.name in out


def test_cmd_report_csv(capsys):
    assert main(["report", "--format", "p3e-2:3", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 24  # header + 23 identities
    assert lines[0].startswith("name,")


def test_cmd_report_leaves_out_empty_operand_classes(capsys):
    # p2e0:0ns has no value in (0, 1), so "a * +inf (0 < a < 1)" has no row
    assert main(["report", "--format", "p2e0:0ns", "--csv"]) == 0
    names = {line.split(",")[0] for line in capsys.readouterr().out.strip().splitlines()[1:]}
    from intervalfp import identity_catalog

    assert {rec.name for rec in identity_catalog()} - names == {"a-mul-inf-lt1"}


def test_cmd_report_checks_each_record(capsys, monkeypatch):
    # a record restored to the old text [M, +inf) for +inf * +inf is wrong
    # where M < 1: on p2e-6:-6 the product of the tails reaches down to 0
    from intervalfp import semantics

    assert main(["report", "--format", "p2e-6:-6", "--csv"]) == 0
    capsys.readouterr()
    wrong = tuple(
        rec._replace(expr_text="[M, +inf)") if rec.name == "inf-mul-inf" else rec
        for rec in semantics.identity_catalog()
    )
    monkeypatch.setattr(semantics, "_CATALOG", wrong)
    assert main(["report", "--format", "p2e-6:-6", "--csv"]) == 1
    captured = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert [row["name"] for row in rows if row["holds"] != "yes"] == ["inf-mul-inf"]
    assert "inf-mul-inf" in captured.err
    assert main(["report", "--format", "p2e-6:-6"]) == 1
    assert " no\n" in capsys.readouterr().out


def test_cmd_flagdemo(capsys):
    assert main(["flagdemo", "1.011|11", "--format", "p4e-3:3"]) == 0
    out = capsys.readouterr().out
    assert "rounded-up" in out and "recovered bounds: [1.375, 1.5]" in out
    assert main(["flagdemo", "not-a-word"]) == 1


def test_cmd_flagdemo_toy_output_is_fixed(capsys):
    assert main(["flagdemo", "1.011|11", "--format", "p4e-3:3"]) == 0
    assert capsys.readouterr().out == (
        "word:     1.011|11   (exact value 47/32)\n"
        "rounded:  1.100   flag: rounded-up\n"
        "placed at 2^0 in p4e-3:3: 1.5\n"
        "recovered bounds: [1.375, 1.5]\n"
        "directed rounding of the exact value: [1.375, 1.5]\n"
    )


B64_WORD = "1." + "0" * 51 + "1|01"  # the 52 fraction bits binary64 keeps


@pytest.mark.parametrize(
    "argv, message",
    [
        # a word narrower than the format's significand (the default format
        # is binary64) would recover bounds of the wrong width
        (["flagdemo", "1.011|01"], "the word keeps 3 fraction bits, b64 52"),
        (["flagdemo", "1.011|01", "--format", "b64", "--exp", "-2000"], "keeps 3"),
        (["flagdemo", B64_WORD, "--format", "b64", "--exp", "-2000"], "outside b64's range"),
        # placed past the top exponent the word would be +inf with a flag
        # that no longer describes it
        (["flagdemo", B64_WORD, "--format", "b64", "--exp", "1030"], "-1022..1023"),
        (["flagdemo", "0.011|1", "--format", "p4e-3:3", "--exp", "-2"], "only at"),
    ],
)
def test_cmd_flagdemo_refuses_placements_the_format_cannot_make(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err and "recovered bounds" not in captured.out


def test_cmd_flagdemo_huge_exponent_is_refused_fast(capsys):
    start = time.perf_counter()
    assert main(["flagdemo", "1.011|11", "--format", "p4e-3:3", "--exp", "2000000000"]) == 1
    assert time.perf_counter() - start < 1.0
    assert "outside p4e-3:3's range -3..3" in capsys.readouterr().err


def test_a_zero_word_that_carries_into_b0_sits_only_at_e_min(capsys):
    # 0.11|1 rounds up to 1.00, but the word is a subnormal one: at 2^3 its
    # value 7 is exact in p3e-2:3, and no bracket of 8 describes it
    assert main(["flagdemo", "0.11|1", "--format", "p3e-2:3", "--exp", "3"]) == 1
    assert capsys.readouterr() == (
        "word:     0.11|1   (exact value 7/8)\nrounded:  1.00   flag: rounded-up\n",
        "error: a 0. word sits only at p3e-2:3's e_min -2\n")
    assert main(["flagdemo", "0.11|1", "--format", "p3e-2:3", "--exp", "-2"]) == 0
    assert "recovered bounds: [0.1875, 0.25]" in capsys.readouterr().out


def _run(command, *args):
    """(exit code, stdout, stderr) of command(*args)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = command(*args)
    return code, out.getvalue(), err.getvalue()


# Python's own words, which no error line of the command may show
_INTERNALS = ("Traceback", "Error", "Exception", "object", "NoneType", "__", "<", "int()",
              "invalid literal", "line ")


@st.composite
def _flagdemo_cases(draw):
    """(word, format, exponent): an optional '-', b0 of 0 or 1, 1-8 kept
    bits (the format's own count as often as not) and 1-6 dropped bits,
    at an exponent around the format's range or at +-10**30."""
    descriptor = draw(st.sampled_from(("p3e-2:3", "p3e-2:3ns", "p4e-3:3")))
    fmt = parse_format(descriptor)

    def bits(count):
        return "".join(draw(st.lists(st.sampled_from("01"), min_size=count, max_size=count)))

    kept = draw(st.one_of(st.just(fmt.precision - 1), st.integers(1, 8)))
    word = f"{draw(st.sampled_from(('', '-')))}{bits(1)}.{bits(kept)}|{bits(draw(st.integers(1, 6)))}"
    exp = draw(st.one_of(st.integers(fmt.e_min - 3, fmt.e_max + 3),
                         st.sampled_from((-10**30, 10**30))))
    return word, descriptor, exp


@settings(deadline=None, derandomize=True, max_examples=400)
@given(_flagdemo_cases())
def test_flagdemo_on_hostile_words_exits_cleanly_or_recovers_the_directed_rounding(case):
    """main returns 0 or 1 and never raises; exit 1 prints one error line
    in the command's words; exit 0 prints recovered bounds that equal, by
    value, the format's round-down and round-up of the word's exact value
    at its exponent."""
    word, descriptor, exp = case
    code, out, err = _run(main, ["flagdemo", word, "--format", descriptor, "--exp", str(exp)])
    if code == 1:
        (line,) = err.splitlines()
        assert line.startswith("error: ") and not any(s in line for s in _INTERNALS), line
        return
    assert code == 0 and err == ""
    fmt = parse_format(descriptor)
    recovered = out.splitlines()[3].removeprefix("recovered bounds: [").removesuffix("]")
    lo, hi = (Fp.from_text(fmt, text) for text in recovered.split(", "))
    q = PreRoundedWord.parse(word).value() * F(2) ** exp
    assert value_cmp(lo, fmt.round(q, RoundingDirection.TO_NEG_INF)) == 0, out
    assert value_cmp(hi, fmt.round(q, RoundingDirection.TO_POS_INF)) == 0, out


def _flagdemo_grid():
    """(format, exponent) places and words: every word of 2-6 kept and 1-3
    dropped bits, both signs and both values of b0, at every exponent of
    p3e-2:3 and p4e-3:3 and one past each end, and at binary64's e_min - 1,
    e_min, 0, e_max and e_max + 1."""
    places = [(fmt, e) for fmt in map(parse_format, ("p3e-2:3", "p4e-3:3"))
              for e in range(fmt.e_min - 1, fmt.e_max + 2)]
    places += [(BINARY64, e) for e in (-1023, -1022, 0, 1023, 1024)]
    words = [f"{sign}{b0}.{k:0{kept}b}|{d:0{dropped}b}"
             for sign, b0, kept, dropped in product(("", "-"), "01", range(2, 7), range(1, 4))
             for k, d in product(range(1 << kept), range(1 << dropped))]
    return places, words


# sha256 of flagdemo's exit codes, stdout and stderr over `_flagdemo_grid`: over
# every case, and over every case that `_zero_word_carry_off_e_min` does not select
_FLAGDEMO_GRID_SHA256 = "a38b3cabb74c682b48bd5950ed79719672b273df52066ef5206fd98d29138719"
_FLAGDEMO_GRID_KEPT_SHA256 = "b3860a7ffbd52d54fa1b1a737d1287424d6b006ca041dd71b142884b1de882ae"


def _zero_word_carry_off_e_min(fmt, exp, word):
    """A ``0.`` word of the format's width whose rounding carries into b0,
    at an exponent other than e_min, where a ``0.`` word is refused."""
    return exp != fmt.e_min and word.lstrip("-").startswith(f"0.{'1' * (fmt.precision - 1)}|1")


def test_flagdemo_output_over_a_word_grid_is_pinned():
    """The demo's text cannot move silently: 152,768 runs of the command
    behind `flagdemo`, which `main` calls once it has parsed the line,
    hashed in order.

    The full digest is taken with a ``0.`` word that carries into b0
    refused off e_min (`test_a_zero_word_that_carries_into_b0_sits_only_at_e_min`).
    Before that refusal the grid hashed to
    e2dd9e89b66884a424dc408f7259d5d45caf377b63d6257e00e71dd406b3b960,
    and only its 210 cases that `_zero_word_carry_off_e_min` selects
    moved: the other 152,558 hash to the second digest before and after."""
    places, words = _flagdemo_grid()
    digest, kept, moved = hashlib.sha256(), hashlib.sha256(), 0
    for fmt, exp in places:
        for word in words:
            code, out, err = _run(_cmd_flagdemo, SimpleNamespace(word=word, exp=exp), fmt,
                                  ZeroMode.FINITE, 0)
            record = f"{code}\n{out}{err}\0".encode()
            digest.update(record)
            if _zero_word_carry_off_e_min(fmt, exp, word):
                moved += 1
            else:
                kept.update(record)
    assert (len(places) * len(words), moved) == (152_768, 210)
    assert digest.hexdigest() == _FLAGDEMO_GRID_SHA256
    assert kept.hexdigest() == _FLAGDEMO_GRID_KEPT_SHA256


def test_cmd_repl(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO("1/3\n:round both\n1/3\n:format b64\n:mode infinite\n2/0\n:quit\n")
    )
    assert main(["repl", "--format", "p3e-2:3"]) == 0
    out = capsys.readouterr().out
    assert "[0.3125, 0.375]" in out
    assert "down: 0.3125" in out
    assert "up: nan" in out  # 2/0 with exact zeros is empty


DEEP = ["(" * 5000 + "1" + ")" * 5000, "+".join(["1"] * 5000)]


@pytest.mark.parametrize("text, want", zip(DEEP, ["[1, 1]", "[5000, 5000]"]), ids=["nesting", "sum"])
def test_eval_of_a_deep_expression(text, want, capsys):
    assert main(["eval", text]) == 0
    assert capsys.readouterr() == (want + "\n", "")


def test_repl_evaluates_deep_expressions_and_reads_on(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(DEEP + ["1+1"]) + "\n"))
    assert main(["repl", "--format", "p3e-2:3"]) == 0
    # in p3e-2:3 the running sum stops at 8 from below and overflows above
    assert capsys.readouterr().out.splitlines() == ["[1, 1]", "[8, +inf)", "[2, 2]"]


@pytest.mark.parametrize(
    "text, want",
    [
        ("*".join(["-1"] * 20000), "[1, 1]"),
        ("-(" * 4999 + "1+2" + ")" * 4999, "[-3, -3]"),
        ("-(" * 5000 + "1+2" + ")" * 5000, "[3, 3]"),
        ("1-(" * 5000 + "1" + ")" * 5000, "[1, 1]"),
    ],
    ids=["product", "odd-negations", "even-negations", "right-nested"],
)
def test_long_programs_evaluate_and_print(text, want):
    program = parse(text)
    assert str(eval_expr(program, BINARY64, ZeroMode.FINITE)) == want
    assert parse(unparse(program)) == program


@pytest.mark.parametrize(
    "command, message",
    [
        (":round sideways", "bad rounding 'sideways' (up, down, both or none)"),
        (":round", "bad command ':round' (:format F, :mode M, :round R, :quit)"),
        (":format", "bad command ':format' (:format F, :mode M, :round R, :quit)"),
        (":mode", "bad command ':mode' (:format F, :mode M, :round R, :quit)"),
        (":", "bad command ':' (:format F, :mode M, :round R, :quit)"),
        (":frob 1", "bad command ':frob 1' (:format F, :mode M, :round R, :quit)"),
        (":mode bogus", "bad zero mode 'bogus' (finite or infinite)"),
        (":format p3e-1000000000:3",
         "exponent of 10 digits is " + _BEYOND),
        (":round up down", "bad command ':round up down' (:format F, :mode M, :round R, :quit)"),
        (":format b64 p3e-2:3",
         "bad command ':format b64 p3e-2:3' (:format F, :mode M, :round R, :quit)"),
        (":mode infinite finite",
         "bad command ':mode infinite finite' (:format F, :mode M, :round R, :quit)"),
        (":quit now", "bad command ':quit now' (:format F, :mode M, :round R, :quit)"),
        # a line that does not parse is refused the same way
        ("1 +", "syntax error at position 3: expected number or inf or nan or ( or -"),
    ],
)
def test_repl_refuses_a_bad_setting_and_keeps_the_old_one(command, message, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{command}\n2/0\n"))
    assert main(["repl", "--format", "p3e-2:3"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"error: {message}", "[14, +inf)"]


def test_unknown_command_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["eval", "1", "--round", "sideways"])
    assert err.value.code == 2


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "settings.cfg"
    cfg.write_text("# defaults\nformat = p3e-2:3\nmode = infinite\nseed = 7\n")
    assert main(["--config", str(cfg), "eval", "2/0"]) == 0
    assert capsys.readouterr().out.strip() == "empty"
    # explicit flags override the file
    assert main(["--config", str(cfg), "eval", "2/0", "--mode", "finite"]) == 0
    assert capsys.readouterr().out.strip() == "[14, +inf)"


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("format p3e-2:3\n")
    assert main(["--config", str(bad), "eval", "1"]) == 1
    assert "key=value" in capsys.readouterr().err


def test_config_file_refuses_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("fromat = p3e-2:3\n")
    assert main(["--config", str(cfg), "eval", "1/3"]) == 1
    assert capsys.readouterr() == (
        "", f"error: {cfg}:1: unknown key 'fromat' (known keys: format, mode, seed)\n"
    )


def test_config_bad_seed_exits_cleanly(tmp_path, capsys):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = abc\n")
    assert main(["--config", str(cfg), "check", "--format", "p2e0:0ns"]) == 1
    assert capsys.readouterr().err == "error: bad seed 'abc'\n"


def test_bad_format_and_mode_exit_cleanly(tmp_path, capsys):
    assert main(["eval", "1", "--format", "q5"]) == 1
    assert capsys.readouterr().err == "error: bad format descriptor 'q5'\n"
    assert main(["check", "--format", "p3e-2:3", "--mode", "exact"]) == 1
    assert capsys.readouterr().err == "error: bad zero mode 'exact' (finite or infinite)\n"
    cfg = tmp_path / "mode.cfg"
    cfg.write_text("mode = sideways\n")
    assert main(["--config", str(cfg), "report"]) == 1
    assert capsys.readouterr().err == "error: bad zero mode 'sideways' (finite or infinite)\n"


def test_format_beyond_the_limits_exits_at_once(capsys):
    start = time.perf_counter()
    assert main(["eval", "0 - 0", "--format", "p3e-1000000000:3"]) == 1
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: exponent of 10 digits is {_BEYOND}\n"
    assert main(["eval", "1/3", "--format", "p1000000e0:0"]) == 1
    assert capsys.readouterr().err == f"error: precision of 7 digits is {_BEYOND}\n"
    assert main(["eval", "1/3", "--format", "p3e-262145:3"]) == 1
    assert capsys.readouterr().err == "error: exponent -262145 is outside the limit of -262144:262144\n"
    assert main(["report", "--format", "p4097e0:1"]) == 1
    assert capsys.readouterr().err == "error: precision 4097 is above the limit of 4096\n"
    assert main(["eval", "1/3", "--format", "p3e-" + "9" * 5000 + ":3"]) == 1
    assert capsys.readouterr().err == f"error: exponent of 5000 digits is {_BEYOND}\n"
    assert main(["eval", "1/3", "--format", "p237e-262142:262143"]) == 0
    assert capsys.readouterr().out.startswith("[0x1.5555555555555555")


@pytest.mark.parametrize(
    "literal, want",
    [
        ("1e5000", "[0x1.fffffffffffffp+1023, +inf)"),
        ("-1e5000", "(-inf, -0x1.fffffffffffffp+1023]"),
        ("1e-5000", "[0, 0x0.0000000000001p-1022]"),
    ],
)
def test_eval_huge_exponent_literals(literal, want, capsys):
    assert main(["eval", "--", literal]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == want
    warnings = out.err.strip().splitlines()
    assert len(warnings) == 1 and warnings[0].startswith("warning: literal ")
    assert len(warnings[0]) <= 120


_NINES = "9" * 5000  # an exponent past int()'s limit of 4,300 digits


@pytest.mark.parametrize(
    "literal, want",
    [
        (f"1e{_NINES}", "[0x1.fffffffffffffp+1023, +inf)"),
        (f"-1e{_NINES}", "(-inf, -0x1.fffffffffffffp+1023]"),
        (f"1e-{_NINES}", "[0, 0x0.0000000000001p-1022]"),
        (f"0x1p{_NINES}", "[0x1.fffffffffffffp+1023, +inf)"),
        (f"-0x1p-{_NINES}", "[-0x0.0000000000001p-1022, 0]"),
    ],
)
def test_eval_of_an_exponent_past_the_digit_limit(literal, want, capsys):
    """A 5,000-digit exponent gives what an 11-digit one gives, and the
    warning names the literal with its exponent in full."""
    like = literal.replace(_NINES, "9" * 11)
    assert main(["eval", "--", like]) == 0
    short = capsys.readouterr()
    assert main(["eval", "--", literal]) == 0
    got = capsys.readouterr()
    assert got.out == short.out == want + "\n"
    assert got.err == short.err.replace("9" * 11, _NINES)
