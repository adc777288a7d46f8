"""Literals from text to a float: the integer decoder, the one rounding
entry, the warning text, and bounded time on hostile exponents."""

import ast
import math
import random
import time
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalfp import (
    BINARY64,
    Fp,
    OpKind,
    RoundFlag,
    RoundingDirection,
    ZeroMode,
    interpret,
    parse_format,
    parse_interval,
    recover_bounds,
)
from intervalfp.interval import apply_op, negate
from intervalfp.cli import _TOKEN_RE, ExprSyntaxError, eval_expr, main, parse, unparse
from intervalfp.fpformat import NUMBER_PATTERN, decode_literal, exact_decimal, round_literal

TOY = parse_format("p3e-2:3")


def exact_value(text):
    """The exact rational of a literal, read independently of the decoder."""
    body = text.lstrip("+-")
    if body[:2].lower() == "0x":
        mant, _, exp = body[2:].lower().partition("p")
        whole, _, frac = mant.partition(".")
        q = F(int(whole + frac, 16), 16 ** len(frac)) * F(2) ** int(exp or 0)
    else:
        q = F(Decimal(body))
    return -q if text.startswith("-") else q


def old_short_decimal(q):
    """The warning's number before literals were carried as integers."""
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 17, MAX_EMAX, MIN_EMIN
        return str(Decimal(q.numerator) / Decimal(q.denominator))


def old_exact_decimal(q):
    """exact_decimal before factors of 5 were counted by squaring."""
    num, den = q.numerator, q.denominator
    twos = (den & -den).bit_length() - 1
    rest = den >> twos
    fives = 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    k = max(twos, fives)
    text = format(Decimal(abs(num) * 2 ** (k - twos) * 5 ** (k - fives)), "f")
    sign = "-" if num < 0 else ""
    if k == 0:
        return sign + text
    text = text.rjust(k + 1, "0")
    return f"{sign}{text[:-k]}.{text[-k:]}"


def host_nearest(text):
    """binary64 round-to-nearest of a literal by the host's correctly
    rounded parsers; overflow in float.fromhex means an infinity."""
    body = text.lstrip("-")
    if body[:2].lower() == "0x":
        try:
            x = float.fromhex(body)
        except OverflowError:
            x = math.inf
    else:
        x = float(body)
    return Fp.from_float(BINARY64, -x if text.startswith("-") else x)


def decimal_literals(seed, count):
    """1-40 significant digits, a point anywhere, exponents across +-330 and
    both signs: values from far below the least subnormal to far above M."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 40)
        digits = str(rng.randrange(10 ** (n - 1), 10**n))
        point = rng.randint(0, n)
        body = digits if point == n else f"{digits[:point]}.{digits[point:]}"
        yield f"{rng.choice(('', '-'))}{body}e{rng.randint(-330, 330)}"


def hex_literals(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        whole = f"{rng.getrandbits(rng.randint(1, 8)):x}"
        frac = f"{rng.getrandbits(4 * rng.randint(0, 18)):x}" if rng.random() < 0.8 else ""
        body = f"0x{whole}.{frac}" if frac else f"0x{whole}"
        yield f"{rng.choice(('', '-'))}{body}p{rng.randint(-1140, 1040)}"


# values at the edges: ties, the overflow threshold, the subnormal range
EDGE_LITERALS = [
    "9007199254740993", "9007199254740995", "0.1", "0.3", "1e23", "5e-324",
    "2.4703282292062327e-324", "2.4703282292062328e-324", "4.9406564584124654e-324",
    "2.2250738585072011e-308", "2.2250738585072014e-308", "1.7976931348623157e308",
    "1.7976931348623158e308", "1.7976931348623159e308", "-1.7976931348623159e308",
    "1e-400", "-1e-400", "1e400", "0x1.fffffffffffff8p1023", "0x1.fffffffffffff7p1023",
    "0x1p-1075", "0x1.0000000000001p-1075", "0x1p-1074", "0x0.00000000000008p-1022",
    "0x1.00000000000008p0", "0x1.00000000000018p0", "-0x1p-1080",
]


# -- the decoder -----------------------------------------------------------------


def test_decoder_parts_are_canonical():
    assert decode_literal("0x1.8p+1") == decode_literal("3") == (False, 3, 0, 0)
    assert decode_literal("-12.3400e5") == (True, 617, 1, 3)
    assert decode_literal("2.5") == decode_literal("0x1.4p1") == (False, 1, -2, 1)
    assert decode_literal("0.000") == decode_literal("0x0p99") == (False, 0, 0, 0)
    assert decode_literal("-0") == (True, 0, 0, 0)
    assert parse("0x1.8p+1") == parse("3.000") == parse("300e-2")
    for text in ("", "0x", "1e", ".", "1..2", "--1", "inf", "1_0"):
        with pytest.raises(ValueError):
            decode_literal(text)


def test_decoder_reads_digit_strings_past_the_int_limit():
    digits = "7" * 5000
    negative, sig, exp2, exp10 = decode_literal(f"{digits}e-5000")
    assert (negative, sig, exp2, exp10) == (False, int(Decimal(digits)), 0, -5000)
    nearest, flag = round_literal(BINARY64, negative, sig, exp2, exp10)
    assert nearest == host_nearest(f"{digits}e-5000") and flag is not RoundFlag.EXACT


# -- the one rounding entry, against the host and the exact rounder -----------------


def test_decimal_literals_round_like_the_host():
    texts = list(decimal_literals(20260, 4000)) + EDGE_LITERALS
    kinds = set()
    for text in texts:
        want = host_nearest(text)
        nearest, flag = round_literal(BINARY64, *decode_literal(text))
        assert nearest == want, text
        if want.is_finite:
            assert (flag is RoundFlag.EXACT) == (exact_value(text) == want.to_rational()), text
        kinds.add((want.kind, want.negative))
        for mode in ZeroMode:
            assert eval_expr(parse(text), BINARY64, mode) == interpret(want, mode), text
    # the stream reaches both infinities and both zeros
    assert len(kinds) == 6


def test_hex_literals_round_like_the_host():
    for text in list(hex_literals(20261, 4000)) + [t for t in EDGE_LITERALS if "x" in t]:
        want = host_nearest(text)
        nearest, flag = round_literal(BINARY64, *decode_literal(text))
        assert nearest == want, text
        if want.is_finite:
            assert (flag is RoundFlag.EXACT) == (exact_value(text) == want.to_rational()), text


@pytest.mark.parametrize(
    "descriptor", ["p2e0:0ns", "p3e-2:3", "p3e-2:3ns", "p4e-3:3", "p3e5:10", "p3e-10:-5", "p24e-126:127"]
)
def test_round_literal_matches_exact_rounding(descriptor):
    # exponents straddle both ends of the range, so the tails stand in for
    # far-out literals next to ones rounded from their exact ratio
    fmt = parse_format(descriptor)
    rng = random.Random(descriptor)
    span = range(fmt.e_min - fmt.precision - 12, fmt.e_max + 12)
    for _ in range(3000):
        negative, sig = rng.random() < 0.5, rng.randrange(1, 1 << rng.randint(1, 12)) | 1
        if sig % 5 == 0:
            sig += 2
        exp10 = rng.randint(-4, 4)
        exp2 = rng.choice(span) - sig.bit_length() - round(exp10 * 3.32)
        q = F(sig) * F(2) ** exp2 * F(10) ** exp10
        want = fmt.round(-q if negative else q, RoundingDirection.NEAREST)
        nearest, flag = round_literal(fmt, negative, sig, exp2, exp10)
        assert nearest == want, (negative, sig, exp2, exp10)
        assert (flag is RoundFlag.EXACT) == (want.is_finite and abs(want.to_rational()) == q)


# -- the warning ---------------------------------------------------------------------


def test_warning_text_matches_the_rational_formula_within_the_range():
    cases = [(BINARY64, t) for t in decimal_literals(20262, 1500)]
    cases += [(BINARY64, t) for t in hex_literals(20263, 500)]
    cases += [(BINARY64, t) for t in EDGE_LITERALS]
    rng = random.Random(20264)
    cases += [(TOY, f"{rng.randrange(1, 10**rng.randint(1, 6))}e{rng.randint(-4, 1)}")
              for _ in range(500)]
    checked = 0
    for fmt, text in cases:
        q = exact_value(text)
        if q == 0 or not F(2) ** (fmt.e_min - fmt.precision) <= abs(q) < F(2) ** (fmt.e_max + 1):
            continue
        warnings = []
        rounded = eval_expr(parse(text), fmt, ZeroMode.FINITE, warn=warnings.append)
        nearest = fmt.round(q, RoundingDirection.NEAREST)
        assert rounded == interpret(nearest, ZeroMode.FINITE)
        if nearest.is_finite and nearest.to_rational() == q:
            assert warnings == []
            continue
        want = (f"literal {old_short_decimal(q)} is not representable in "
                f"{fmt.descriptor()}; rounded to nearest = {nearest}")
        assert [str(w) for w in warnings] == [want], text
        checked += 1
    assert checked > 1500


def test_warning_text_is_built_only_when_printed(monkeypatch):
    """eval_expr hands its callback records and builds no text; str of each
    record is the sentence the command line prints."""
    import intervalfp.cli as cli_mod

    calls = []
    real_short, real_str = cli_mod.short_literal, Fp.__str__

    def short_spy(*args):
        calls.append("short_literal")
        return real_short(*args)

    def str_spy(self):
        calls.append("Fp.__str__")
        return real_str(self)

    monkeypatch.setattr(cli_mod, "short_literal", short_spy)
    monkeypatch.setattr(Fp, "__str__", str_spy)
    warnings = []
    eval_expr(parse("0.1 + 0.2 - 1e400 * -1e-400 / 0.3 + 0x1p-3 + 2.5"), BINARY64,
              ZeroMode.FINITE, warn=warnings.append)
    assert calls == []
    assert [str(w) for w in warnings] == [
        "literal 0.1 is not representable in b64; rounded to nearest = 0x1.999999999999ap-4",
        "literal 0.2 is not representable in b64; rounded to nearest = 0x1.999999999999ap-3",
        "literal 1e400 is not representable in b64; rounded to nearest = +inf",
        "literal -1e-400 is not representable in b64; rounded to nearest = -0",
        "literal 0.3 is not representable in b64; rounded to nearest = 0x1.3333333333333p-2",
    ]
    assert calls.count("short_literal") == 5  # the spies were live


BEYOND = ["1e400", "-1e400", "1e-400", "1e5000", "-1e-20000000"]


@pytest.mark.parametrize("fmt", [TOY, BINARY64], ids=["p3e-2:3", "b64"])
def test_the_record_gives_the_literal_bracket(fmt):
    """recover_bounds of a record's nearest value and flag is the format's
    round-down and round-up of the exact literal; beyond the range that is
    [M, +inf) or [0, m], mirrored for a negative literal."""
    rng = random.Random(20265)
    if fmt is BINARY64:
        texts = list(decimal_literals(20266, 600)) + list(hex_literals(20267, 200)) + EDGE_LITERALS
    else:
        texts = [f"{rng.choice(('', '-'))}{rng.randrange(1, 10**rng.randint(1, 5))}"
                 f"e{rng.randint(-6, 3)}" for _ in range(600)]
        texts += [f"{rng.choice(('', '-'))}0x{rng.getrandbits(rng.randint(1, 8)):x}"
                  f"p{rng.randint(-12, 8)}" for _ in range(200)]
    M, m = fmt.max_finite(), fmt.min_pos()
    tails = {False: {True: (M, Fp.inf(fmt)), False: (Fp.zero(fmt), m)},
             True: {True: (Fp.inf(fmt, True), -M), False: (-m, Fp.zero(fmt, True))}}
    records = beyond = 0
    for text in dict.fromkeys(texts + BEYOND):
        warnings = []
        eval_expr(parse(text), fmt, ZeroMode.FINITE, warn=warnings.append)
        negative, sig, exp2, exp10 = decode_literal(text)
        if not sig:
            assert warnings == [], text
            continue
        if abs(exp10) <= 10_000:
            q = exact_value(text)
            want = fmt.round_both(q)
            if want[0] == want[1]:
                assert warnings == [], text
                continue
            assert [w.nearest for w in warnings] == [fmt.round(q, RoundingDirection.NEAREST)]
        (w,) = warnings
        assert w.fmt is fmt and w.literal == parse(text)[0], text
        got = recover_bounds(w.nearest, w.flag)
        if abs(exp10) <= 10_000:
            assert got == want, text
        if text in BEYOND:
            assert got == tails[negative][exp10 > 0], text
            beyond += 1
        records += 1
    assert beyond == len(BEYOND) and records > 500


# -- hostile exponents -----------------------------------------------------------------


@pytest.mark.parametrize(
    "hostile, tame",
    [("1e20000000", "1e400"), ("-1e-20000000", "-1e-400"),
     ("0x1p200000000", "0x1p2000"), ("0x1p-200000000", "0x1p-2000")],
)
@pytest.mark.parametrize("mode", ["finite", "infinite"])
def test_hostile_literals_evaluate_in_bounded_time(hostile, tame, mode, capsys):
    start = time.perf_counter()
    assert main(["eval", "--mode", mode, "--", hostile]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr()
    assert elapsed < 1.0
    assert main(["eval", "--mode", mode, "--", tame]) == 0
    assert out.out == capsys.readouterr().out
    warnings = out.err.splitlines()
    tree = parse(hostile)
    assert len(warnings) == 1 and warnings[0].startswith(f"warning: literal {unparse(tree)} ")
    assert len(warnings[0]) <= 120
    assert parse(unparse(tree)) == tree


@pytest.mark.parametrize(
    "text",
    [f"{5**100}e20000000", f"-0.{2**100}e-20000000", f"0x{5**100:x}p-200000000",
     f"0x{3 * 5**90:x}.8p200000000", "1" * 5000 + "e-400"],
)
def test_unparse_stays_as_short_as_the_literal(text):
    start = time.perf_counter()
    tree = parse(text)
    out = unparse(tree)
    assert time.perf_counter() - start < 1.0
    assert len(out) <= len(text) + 4
    assert parse(out) == tree


@pytest.mark.parametrize(
    "text, position",
    [("1 $ 2", 2), ("x.", 1), ("é", 0), ("(1 +\t#", 5), ("2 . 3", 2)],
)
def test_lexer_reports_the_offending_character(text, position):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert err.value.pos == position
    assert err.value.expected == ("number", "inf", "nan", "operator", "(")


@pytest.mark.parametrize("text", ["1e20000000", "-1e-20000000", "0x1p200000000",
                                  "0x1p-200000000", "1e200000"])
def test_hostile_value_text_is_not_representable_in_bounded_time(text):
    for build in (lambda: Fp.from_text(BINARY64, text),
                  lambda: parse_interval(f"[{text}, {text}]", BINARY64)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="not representable") as info:
            build()
        assert time.perf_counter() - start < 1.0
        assert len(str(info.value)) <= 120


@pytest.mark.parametrize("text", ["1e" + "9" * 5000, "-1e-" + "9" * 5000, "0x1p" + "9" * 5000])
def test_text_with_an_exponent_past_the_digit_limit_is_not_representable(text):
    for build in (lambda: Fp.from_text(BINARY64, text),
                  lambda: parse_interval(f"[{text}, {text}]", BINARY64)):
        with pytest.raises(ValueError, match="9 is not representable in b64$"):
            build()


def test_exact_decimal_counts_fives_fast():
    start = time.perf_counter()
    text = exact_decimal(F(1, 10**50000))
    assert time.perf_counter() - start < 0.5
    assert text == "0." + "0" * 49999 + "1"
    rng = random.Random(20265)
    values = [F(1, 3), F(-7, 5**40), F(5**30, 2**70), F(0), F(-12345), F(1, 10**400),
              F(3, 2**1074), F(-(10**25) + 1, 5**7 * 2**3), F(2**80, 5**81)]
    values += [F(rng.randrange(-10**20, 10**20), 2 ** rng.randrange(80) * 5 ** rng.randrange(80))
               for _ in range(300)]
    for q in values:
        assert exact_decimal(q) == old_exact_decimal(q), q


# -- properties ---------------------------------------------------------------------------

numbers = st.from_regex(NUMBER_PATTERN, fullmatch=True)


def _leaf(text, negative):
    return f"-{text}" if negative else text


leaves = st.builds(_leaf, st.one_of(numbers, st.sampled_from(["inf", "nan", "0"])), st.booleans())
expressions = st.recursive(
    leaves,
    lambda sub: st.one_of(
        st.builds(lambda a, op, b: f"({a} {op} {b})", sub, st.sampled_from("+-*/"), sub),
        st.builds(lambda a: f"-({a})", sub),
    ),
    max_leaves=8,
)


@settings(deadline=None, derandomize=True)
@given(expressions)
def test_unparse_round_trips(text):
    tree = parse(text)
    assert parse(unparse(tree)) == tree


@settings(deadline=None, derandomize=True)
@given(numbers, st.booleans())
def test_every_lexed_number_evaluates(text, negative):
    assert _TOKEN_RE.findall(text) == [text]
    tree = parse(_leaf(text, negative))
    for fmt in (TOY, BINARY64):
        for mode in ZeroMode:
            eval_expr(tree, fmt, mode, warn=lambda message: None)



# An expression as a template with one "{}" per number leaf, and the leaves;
# inf and nan stay in the template, where Python reads them as names.
templates = st.recursive(
    st.one_of(numbers.map(lambda text: ("{}", (text,))), st.just(("{}", ("0",))),
              st.sampled_from(["inf", "nan"]).map(lambda name: (name, ()))),
    lambda sub: st.one_of(
        st.builds(lambda a, op, b: (f"{a[0]} {op} {b[0]}", a[1] + b[1]),
                  sub, st.sampled_from("+-*/"), sub),
        st.builds(lambda a: (f"({a[0]})", a[1]), sub),
        st.builds(lambda sign, a: (sign + a[0], a[1]), st.sampled_from(["-", "+", "--"]), sub),
    ),
    max_leaves=10,
)

_PYTHON_OPS = {ast.Add: OpKind.ADD, ast.Sub: OpKind.SUB, ast.Mult: OpKind.MUL, ast.Div: OpKind.DIV}


def python_grammar_eval(node, leaves, fmt, mode):
    """Evaluate the tree that Python's own parser builds, with the interval
    operations; each leaf is the one-literal expression it names.  Python
    agrees with the expression grammar on precedence, left associativity
    and unary minus binding tighter than * and /."""
    if isinstance(node, ast.Name):
        return eval_expr(parse(leaves.get(node.id, node.id)), fmt, mode)
    if isinstance(node, ast.UnaryOp):
        inner = python_grammar_eval(node.operand, leaves, fmt, mode)
        return negate(inner) if isinstance(node.op, ast.USub) else inner
    lhs = python_grammar_eval(node.left, leaves, fmt, mode)
    rhs = python_grammar_eval(node.right, leaves, fmt, mode)
    return apply_op(_PYTHON_OPS[type(node.op)], lhs, rhs)


def outcome(evaluate):
    """The result, or the type of the exception raised instead."""
    try:
        return evaluate()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(templates)
def test_parse_agrees_with_pythons_grammar(template):
    form, numbers_ = template
    text = form.format(*numbers_)
    names = [f"v{i}" for i in range(len(numbers_))]
    tree = ast.parse(form.format(*names), mode="eval").body
    leaves = dict(zip(names, numbers_))
    for fmt in (TOY, BINARY64):
        for mode in ZeroMode:
            want = outcome(lambda: python_grammar_eval(tree, leaves, fmt, mode))
            assert outcome(lambda: eval_expr(parse(text), fmt, mode)) == want, (text, fmt, mode)
