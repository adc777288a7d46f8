"""Command-line front end.

Grammar of the expression language (EBNF):

    expr    = term , { ("+" | "-") , term } ;
    term    = unary , { ("*" | "/") , unary } ;
    unary   = [ "+" | "-" ] , unary | atom ;
    atom    = NUMBER | "inf" | "nan" | "(" , expr , ")" ;
    NUMBER  = decimal or hex-float literal ;

`parse` returns a program in postfix order, and parsing, evaluation and
printing are each one loop, so an expression has no depth limit.  A unary
sign folds into a literal: ``-0`` is the negative-zero literal, a bare ``0``
means +0, and ``1-0`` stays a subtraction.  Literals map through the set
interpretation of the active format and zero mode, operators combine
intervals directly (intermediate results are never collapsed back to single
floats, which would silently drop width).

A literal stands for one float of the active format.  A literal the format
holds exactly is that float: hex-float literals spell binary values, so
they are exact whenever the format has their bits and their exponent.  Any
other literal rounds to nearest (ties to even) with a warning, so in
p3e-2:3 ``0.3`` is 0.3125 and the result need not contain the decimal
value.  A literal beyond the range gives what nearest rounding gives, at
any exponent: +-inf from M plus half an ulp up, +-0 from half the least
positive value down.  Literals are read as integers (`decode_literal`) and
rounded to nearest once (`round_literal`), so a huge exponent costs no more
than its digits.

A warning is a record, not text: `eval_expr` hands its callback a
`RoundedLiteral` holding the literal, its nearest value and the paper's
rounding flag, both from the format layer's one flag rule, from which
`recover_bounds` gives the literal's bracket with the one bracket builder
that the point kernel takes too.  `eval` and `repl` print ``warning: ``
and `str` of the record; the sentence is built only then.

Subcommands: ``eval`` an expression, ``check`` a format against the
independent oracle and the directed-rounding conformance suite, ``report``
the special-operand identity table (exit 1 if a record's interval is not the
one its text states), ``flagdemo`` the rounding-flag scheme on a word, whose
flag (ties up, the paper's table) and bracket come from that same rule and
builder, and a line-oriented ``repl``.
"""

from __future__ import annotations

import re
import sys
from collections import deque
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from .fpformat import (
    BINARY64,
    EnumerationLimitError,
    FloatFormat,
    Fp,
    FpKind,
    NUMBER_PATTERN,
    RoundFlag,
    RoundingDirection,
    _EXACT,
    decode_literal,
    literal_text,
    parse_format,
    recover_bounds,
    round_literal,
    short_literal,
)
from .interval import ExtInterval, OpKind, apply_op, negate
from .oracle import exhaustive_compare
from .roundflag import PreRoundedWord, rounded_str
from .semantics import ZeroMode, extract_bound, interpret
from .harness import DEFAULT_SEED, deviation_report, run_theorem_suite

# -- programs -------------------------------------------------------------------

# A program lists literals, NEG and operators in postfix order; literals are
# records, NamedTuples as everywhere in the package (see `fpformat`).


class Lit(NamedTuple):
    """A literal datum: its kind and sign as in `Fp`, and for FINITE the
    magnitude sig * 2**exp2 * 10**exp10 in the canonical parts of
    `decode_literal` (sig has no factor 2 or 5), so equal values give equal
    literals."""

    kind: FpKind
    negative: bool = False
    sig: int = 0
    exp2: int = 0
    exp10: int = 0


class RoundedLiteral(NamedTuple):
    """An inexact literal as `eval_expr` rounded it: the format, the
    literal, its nearest value and the rounding flag, which says on which
    side of nearest the literal lies; both come from the format layer's one
    flag rule, ties to even.  `recover_bounds(nearest, flag)`, which steps
    from nearest with the one bracket builder, is the bracket of adjacent
    format values around the literal ([M, +inf) or [0, m] beyond the range,
    mirrored for a negative literal), and `str` is the command line's
    warning sentence, built only when it is asked for."""

    fmt: FloatFormat
    literal: Lit
    nearest: Fp
    flag: RoundFlag

    def __str__(self) -> str:
        e = self.literal
        text = short_literal(self.fmt, e.negative, e.sig, e.exp2, e.exp10)
        return (f"literal {text} is not representable in "
                f"{self.fmt.descriptor()}; rounded to nearest = {self.nearest}")


NEG = "neg"  # a unary minus that does not fold into a literal

Program = tuple[Union[Lit, OpKind, str], ...]


class ExprSyntaxError(ValueError):
    """Parse failure with the offset and the tokens that would have fit."""

    def __init__(self, pos: int, expected: tuple[str, ...]):
        self.pos = pos
        self.expected = expected
        super().__init__(f"syntax error at position {pos}: expected {' or '.join(expected)}")


# -- lexer ----------------------------------------------------------------------

# One group per token: a number (fpformat's grammar, its named groups made
# non-capturing), a name or an operator.  Any other non-space character is
# consumed outside the group, so it comes out as an empty token.
_TOKEN_RE = re.compile(
    r"\s*(?:(" + re.sub(r"\?P<\w+>", "?:", NUMBER_PATTERN) + r"|[a-zA-Z_]\w*|[-+*/()])|\S)"
)
_BAD = ""
_END = None  # past the last token


def _tokenize(text: str) -> list[Optional[str]]:
    """The tokens of text in one pass, then _END; raises ExprSyntaxError at
    the first character that starts no token."""
    tokens = _TOKEN_RE.findall(text)
    if _BAD in tokens:
        raise ExprSyntaxError(
            _token_position(text, tokens.index(_BAD)), ("number", "inf", "nan", "operator", "(")
        )
    tokens.append(_END)
    return tokens


def _token_position(text: str, index: int) -> int:
    """Offset of token number index in text (len(text) for _END)."""
    for i, m in enumerate(_TOKEN_RE.finditer(text)):
        if i == index:
            return m.start(1) if m.start(1) >= 0 else m.end() - 1
    return len(text)


# -- parser -----------------------------------------------------------------------


_BINARY_OPS = {"+": OpKind.ADD, "-": OpKind.SUB, "*": OpKind.MUL, "/": OpKind.DIV}
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def parse(text: str) -> Program:
    """Parse an expression into a postfix program by operator precedence
    (Dijkstra's shunting yard), in one loop over the tokens; raises
    ExprSyntaxError with position and the expected-token set.  "(", unary
    minus and binary operators (as tokens) wait on `pending`; a unary minus
    applies once its operand is complete."""
    tokens = _tokenize(text)
    out: list = []
    pending: list = []
    depth = 0  # open parentheses on pending
    want_operand = True
    for i, tok in enumerate(tokens):
        if want_operand:
            if tok == "(":
                pending.append(tok)
                depth += 1
            elif tok == "-":
                pending.append(NEG)
            if tok in ("(", "+", "-"):
                continue
            if tok is _END or tok in ("*", "/", ")"):
                raise ExprSyntaxError(_token_position(text, i), ("number", "inf", "nan", "(", "-"))
            if tok[0].isdigit() or tok[0] == ".":
                negative, sig, exp2, exp10 = decode_literal(tok)
                out.append(Lit(FpKind.FINITE if sig else FpKind.ZERO, negative, sig, exp2, exp10))
            elif tok in ("inf", "nan"):
                out.append(Lit(FpKind(tok)))
            else:
                raise ExprSyntaxError(_token_position(text, i), ("inf", "nan", "number"))
            want_operand = False
        elif tok in _PREC:
            # pending operators of equal or higher precedence go first (left association)
            while pending and _PREC.get(pending[-1], 0) >= _PREC[tok]:
                out.append(_BINARY_OPS[pending.pop()])
            pending.append(tok)
            want_operand = True
            continue
        elif tok == ")" and depth:
            while (top := pending.pop()) != "(":
                out.append(_BINARY_OPS[top])
            depth -= 1
        elif tok is _END and not depth:
            break
        else:
            raise ExprSyntaxError(_token_position(text, i),
                                  (")",) if depth else ("+", "-", "*", "/", "end of input"))
        # an operand is complete: each unary minus in front of it flips the
        # sign of a literal, cancels a NEG, or else becomes one
        while pending and pending[-1] is NEG:
            pending.pop()
            top = out[-1]
            if top is NEG:
                out.pop()
            elif not isinstance(top, Lit):
                out.append(NEG)
            elif top.kind is not FpKind.NAN:  # NaN is unsigned, as in Fp
                out[-1] = Lit(top.kind, not top.negative, top.sig, top.exp2, top.exp10)
    out.extend(_BINARY_OPS[tok] for tok in reversed(pending))
    return tuple(out)


# -- printing -----------------------------------------------------------------------


_NEG_PREC, _ATOM_PREC = 3, 4  # a unary minus binds tighter than * and /


def unparse(program: Program) -> str:
    """Render a program as infix text that parses back to it, in one loop
    over a stack of (pieces, precedence) pairs.  An operand is wrapped in
    parentheses when its precedence is below its operator's, or equal on
    the right or under a unary minus.  Joining two operands moves the
    shorter deque of pieces into the longer, so any depth prints fast."""
    stack: list = []
    for item in program:
        if isinstance(item, Lit):
            if item.kind is FpKind.FINITE:
                text = literal_text(item.negative, item.sig, item.exp2, item.exp10)
            else:
                text = str(Fp(BINARY64, item.kind, item.negative))  # a special's text has no format
            stack.append((deque((text,)), _ATOM_PREC))
            continue
        rhs, rhs_prec = stack.pop()
        if item is NEG:  # an operator with no left operand
            (lhs, lhs_prec), prec, sep = (deque(), _ATOM_PREC), _NEG_PREC, "-"
        else:
            (lhs, lhs_prec), prec, sep = stack.pop(), _PREC[item.value], f" {item.value} "
        for pieces, wrap in ((lhs, lhs_prec < prec), (rhs, rhs_prec <= prec)):
            if wrap:
                pieces.appendleft("(")
                pieces.append(")")
        if len(lhs) < len(rhs):
            rhs.appendleft(sep)
            rhs.extendleft(reversed(lhs))
            lhs = rhs
        else:
            lhs.append(sep)
            lhs.extend(rhs)
        stack.append((lhs, prec))
    return "".join(stack[-1][0])


# -- evaluation ----------------------------------------------------------------------


def eval_expr(
    program: Program,
    fmt: FloatFormat,
    mode: ZeroMode,
    warn: Optional[Callable[[RoundedLiteral], None]] = None,
) -> ExtInterval:
    """Evaluate under the set semantics in one loop over a stack of
    intervals: a literal pushes its meaning, NEG negates the top, and an
    operator replaces the top two with its result.

    Literals that the format cannot hold exactly are rounded to nearest,
    and warn, when given, receives one `RoundedLiteral` per such literal,
    in program order.  A caller reads the nearest value, the flag and the
    bracket from it without parsing text; `str` of it is the sentence the
    command line prints, and no text is built unless someone asks."""
    stack: list = []
    for item in program:
        if isinstance(item, Lit):
            stack.append(interpret(_literal_fp(item, fmt, warn), mode))
        elif item is NEG:
            stack[-1] = negate(stack[-1])
        else:
            rhs = stack.pop()
            stack[-1] = apply_op(item, stack[-1], rhs)
    return stack[-1]


def _literal_fp(e: Lit, fmt: FloatFormat, warn) -> Fp:
    if e.kind is not FpKind.FINITE:
        return Fp(fmt, e.kind, e.negative)
    rounded, flag = round_literal(fmt, e.negative, e.sig, e.exp2, e.exp10)
    if flag is not _EXACT and warn is not None:
        warn(tuple.__new__(RoundedLiteral, (fmt, e, rounded, flag)))
    return rounded


# -- configuration ---------------------------------------------------------------------


_CONFIG_KEYS = ("format", "mode", "seed")
_ROUND_CHOICES = ("up", "down", "both")


def load_config(path: Optional[str]) -> dict[str, str]:
    """Plain key=value file with # comments; keys: format, mode, seed, no other."""
    if path is None:
        return {}
    settings = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                known = ", ".join(_CONFIG_KEYS)
                raise ValueError(f"{path}:{lineno}: unknown key {key!r} (known keys: {known})")
            settings[key] = value.strip()
    return settings


def _resolve(args, config: dict[str, str]) -> tuple[FloatFormat, ZeroMode, int]:
    """Format, zero mode and seed: the command line over the config file
    over the defaults.  A bad value raises ValueError naming it."""
    fmt_text = args.format or config.get("format", "b64")
    mode_text = getattr(args, "mode", None) or config.get("mode", "finite")
    seed = getattr(args, "seed", None)
    if seed is None:
        seed_text = config.get("seed", str(DEFAULT_SEED))
        try:
            seed = int(seed_text)
        except ValueError:
            raise ValueError(f"bad seed {seed_text!r}") from None
    return parse_format(fmt_text), ZeroMode(mode_text), seed


# -- subcommands -------------------------------------------------------------------------


def _print_result(result: ExtInterval, round_sel: Optional[str]) -> None:
    """The interval, or the directed bound(s) that round_sel selects."""
    if round_sel in ("down", "both"):
        print(f"down: {extract_bound(result, RoundingDirection.TO_NEG_INF)}")
    if round_sel in ("up", "both"):
        print(f"up: {extract_bound(result, RoundingDirection.TO_POS_INF)}")
    if round_sel is None:
        print(result)


def _cmd_eval(args, fmt: FloatFormat, mode: ZeroMode, _seed: int) -> int:
    try:
        result = eval_expr(parse(args.expr), fmt, mode,
                           warn=lambda m: print(f"warning: {m}", file=sys.stderr))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_result(result, args.round)
    return 0


def _cmd_check(args, fmt: FloatFormat, mode: ZeroMode, seed: int) -> int:
    failed = False
    try:
        mismatches = exhaustive_compare(fmt, mode)
        print(
            f"oracle: {fmt.descriptor()} {mode.value} zeros: "
            f"{'ok' if not mismatches else f'{len(mismatches)} mismatches'}"
        )
        for m in mismatches[:20]:
            print(f"  {m}")
        failed = failed or bool(mismatches)
    except EnumerationLimitError:
        print(f"oracle: skipped ({fmt.descriptor()} is too large to enumerate)")
    try:
        suite = run_theorem_suite(fmt, samples=args.samples, seed=seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(suite.summary())
    failed = failed or not suite.ok
    return 1 if failed else 0


def _cmd_report(args, fmt: FloatFormat, _mode: ZeroMode, _seed: int) -> int:
    rows = deviation_report(fmt)  # catalog identities of both zero modes
    header = ("name", "pattern", "group", "mode", "expected", "operands", "ieee",
              "interval", "classification", "holds")
    table = [
        (r.name, r.pattern, r.group, r.mode.value, r.expr, r.operands, r.ieee,
         r.interval, r.classification.value, "yes" if r.holds else "no")
        for r in rows
    ]
    if args.csv:
        import csv

        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(table)
    else:
        widths = [max(len(row[i]) for row in [header] + table) for i in range(len(header))]
        for row in [header] + table:
            print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    failed = [r.name for r in rows if not r.holds]
    if failed:
        print(f"error: the interval is not the expected one for {', '.join(failed)}",
              file=sys.stderr)
    return 1 if failed else 0


def _cmd_flagdemo(args, fmt: FloatFormat, _mode: ZeroMode, _seed: int) -> int:
    try:
        word = PreRoundedWord.parse(args.word)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rounded, flag = word.rounded()
    print(f"word:     {word}   (exact value {word.value()})")
    print(f"rounded:  {rounded_str(rounded)}   flag: {flag.value}")
    exponent = args.exp
    try:
        result, flag = word.place(fmt, exponent)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lo, hi = recover_bounds(result, flag)
    true_value = word.value() * Fraction(2) ** exponent
    down, up = fmt.round_both(true_value)
    print(f"placed at 2^{exponent} in {fmt.descriptor()}: {result}")
    print(f"recovered bounds: [{lo}, {hi}]")
    print(f"directed rounding of the exact value: [{down}, {up}]")
    return 0


def _cmd_repl(args, fmt: FloatFormat, mode: ZeroMode, _seed: int) -> int:
    round_sel = None
    interactive = sys.stdin.isatty()
    while True:
        if interactive:
            print(f"{fmt.descriptor()}:{mode.value}> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            return 0
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(":"):
            name, arg = (line[1:].split(maxsplit=1) + ["", ""])[:2]
            if name in ("q", "quit", "exit") and not arg:
                return 0
            try:
                if name not in ("format", "mode", "round") or len(arg.split()) != 1:
                    raise ValueError(f"bad command {line!r} (:format F, :mode M, :round R, :quit)")
                if name == "format":
                    fmt = parse_format(arg)
                elif name == "mode":
                    mode = ZeroMode(arg)
                elif arg in _ROUND_CHOICES + ("none",):
                    round_sel = None if arg == "none" else arg
                else:
                    raise ValueError(f"bad rounding {arg!r} ({', '.join(_ROUND_CHOICES)} or none)")
            except ValueError as exc:
                print(f"error: {exc}")
            continue
        try:
            result = eval_expr(parse(line), fmt, mode, warn=lambda m: print(f"warning: {m}"))
        except ValueError as exc:
            print(f"error: {exc}")
            continue
        _print_result(result, round_sel)


def _build_parser() -> argparse.ArgumentParser:
    # loaded here, so `parse`, `eval_expr` and `unparse` load no argument parser
    import argparse

    parser = argparse.ArgumentParser(
        prog="intervalfp",
        description="Total floating-point arithmetic over sets of reals.",
    )
    parser.add_argument("--config", help="key=value file with defaults (format, mode, seed)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an expression to an interval")
    p_eval.add_argument("expr")
    p_eval.add_argument("--format", help="format descriptor, e.g. b64 or p3e-2:3")
    p_eval.add_argument("--mode", help="zero mode: finite or infinite")
    p_eval.add_argument("--round", choices=_ROUND_CHOICES,
                        help="print the directed bound(s) instead of the interval")
    p_eval.set_defaults(func=_cmd_eval)

    p_check = sub.add_parser(
        "check", help="run the oracle comparison and the conformance suite"
    )
    p_check.add_argument("--format", help="format descriptor")
    p_check.add_argument("--mode", help="zero mode")
    p_check.add_argument("--seed", type=int, help="seed for sampled suites")
    p_check.add_argument("--samples", type=int, default=100_000,
                         help="pair count for non-enumerable formats")
    p_check.set_defaults(func=_cmd_check)

    p_report = sub.add_parser("report", help="emit and check the special-operand identity table")
    p_report.add_argument("--format", help="format descriptor")
    p_report.add_argument("--csv", action="store_true", help="machine-readable output")
    p_report.set_defaults(func=_cmd_report)

    p_flag = sub.add_parser("flagdemo", help="demonstrate the rounding-flag scheme")
    p_flag.add_argument("word", help="pre-rounded word, e.g. 1.011|01 with --format p4e-3:3")
    p_flag.add_argument("--format", help="format descriptor")
    p_flag.add_argument("--exp", type=int, default=0, help="binary exponent for placement")
    p_flag.set_defaults(func=_cmd_flagdemo)
    # argparse reads a word that starts with '-' as an option unless its
    # negative-number pattern matches; here a word that names no option is
    # the expression or the word when it has one leading '-' (-inf, -(1),
    # -1.11|1), or a run of them followed by a digit, '.', '(', inf or nan
    # (--1, ---1, --inf)
    for p in (p_eval, p_flag):
        p._negative_number_matcher = re.compile(r"-[^-]|-+(?:[\d.(]|inf|nan)")

    p_repl = sub.add_parser("repl", help="line-oriented read-eval loop")
    p_repl.add_argument("--format", help="format descriptor")
    p_repl.add_argument("--mode", help="zero mode")
    p_repl.set_defaults(func=_cmd_repl)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        fmt, mode, seed = _resolve(args, load_config(args.config))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return args.func(args, fmt, mode, seed)


if __name__ == "__main__":
    sys.exit(main())
