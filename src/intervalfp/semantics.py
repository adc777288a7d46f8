"""Set-valued meaning of floats and the total operations it induces.

Every float denotes a set of reals: a finite nonzero value is the point
set containing it, +inf is everything from the greatest finite value up,
-inf the mirror, and the zeros depend on the selected zero mode.  Under
this reading all four arithmetic operations are total: combinations that
IEEE 754 maps to NaN come out as honest (wide) intervals, and a directed
result is one bound of the operation's interval.  Comparing results with
IEEE 754 is the harness layer's job.

The identity catalog records the special-operand formulas this semantics
produces, parametric in the format constants m (least positive value) and
M (greatest finite value), so they can be instantiated and checked on any
format.  Each record's operation and operands are read from its pattern
(``+inf / -inf``, ``a * +inf (0 < a < 1)``): ``a`` is the free operand,
ranging over the class the parenthesised condition names, and every other
operand is the text of a float (`Fp.from_text`).  The expected interval is
read from the record's text alone: ``empty``, or ``[lo, hi]`` with a side at
an infinity written open, each finite side an expression over m, M and a in
integers, ``+ - * /``, unary minus, ``min``, ``rd`` and ``ru`` (round down /
up), evaluated in exact rationals and rounded outward once.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .fpformat import (
    DomainError,
    EnumerationLimitError,
    FloatFormat,
    Fp,
    RoundingDirection,
    _DOWN,
    _FINITE,
    _NAN,
    _UP,
    _ZERO,
)
from .interval import ExtInterval, OpKind, apply_op, point_op


class ZeroMode(Enum):
    """How the signed zeros are read as sets.

    FINITE: +0 means [0, m] and -0 means [-m, 0]; zeros are one ulp wide
    and NaN has no meaning.  INFINITE: both zeros mean the exact point
    [0, 0] and NaN means the empty set.
    """

    FINITE = "finite"
    INFINITE = "infinite"

    @classmethod
    def _missing_(cls, value):
        # ZeroMode(text) is the one parser of a zero-mode setting
        raise ValueError(f"bad zero mode {value!r} (finite or infinite)")


# -- interpretation ----------------------------------------------------------


def interpret(x: Fp, mode: ZeroMode) -> ExtInterval:
    """The set of reals a float stands for."""
    if x.kind is _FINITE:
        return tuple.__new__(ExtInterval, (x.fmt, x, x))
    return _special_meaning(x, mode)


@lru_cache(maxsize=None)
def _special_meaning(x: Fp, mode: ZeroMode) -> ExtInterval:
    """Meaning of a zero, an infinity or NaN; a negative one means the
    mirror image of its positive twin."""
    fmt = x.fmt
    if x.is_nan:
        if mode is ZeroMode.FINITE:
            raise DomainError("NaN has no set meaning with finite-width zeros")
        return ExtInterval.empty(fmt)
    if x.is_inf:
        meaning = ExtInterval(fmt, fmt.max_finite(), Fp.inf(fmt))
    elif mode is ZeroMode.INFINITE:
        return ExtInterval(fmt, Fp.zero(fmt), Fp.zero(fmt))  # both zeros: the exact point 0
    else:
        meaning = ExtInterval(fmt, Fp.zero(fmt), fmt.min_pos())
    return -meaning if x.negative else meaning


def represent(x: ExtInterval, mode: ZeroMode) -> Optional[Fp]:
    """The float whose interpretation is exactly this set, if one exists.

    Point sets of finite nonzero values map back to that value; the other
    candidates are the zeros and infinities.  In INFINITE mode the two
    zeros share one interpretation, and +0 is returned for it; the empty
    set maps to NaN."""
    fmt = x.fmt
    if x.is_empty:
        return Fp.nan(fmt) if mode is ZeroMode.INFINITE else None
    if x.is_point() and x.lo.kind is _FINITE:
        return x.lo
    for candidate in (Fp.zero(fmt), Fp.zero(fmt, True), Fp.inf(fmt), Fp.inf(fmt, True)):
        if interpret(candidate, mode) == x:
            return candidate
    return None


# -- total operations -----------------------------------------------------------


def fp_interval_op(a: Fp, b: Fp, op: OpKind, mode: ZeroMode) -> ExtInterval:
    """Interval result of a float operation; total for all non-NaN inputs,
    and total outright in INFINITE mode (NaN reads as the empty set).

    Two finite nonzero operands are points in either zero mode, so they go
    straight to `interval.point_op` without building their intervals: a
    format that binary64 holds (`FloatFormat.host`) to the host kernel,
    which returns the interval from one float op and the paper's flag, and
    any other format to the bound recipes on the exact core.  Zeros,
    infinities and NaN take their mode's meaning through `interpret`, and
    the two intervals go to `apply_op`, the interval operations' one entry."""
    if a.kind is _FINITE and b.kind is _FINITE:
        return point_op(op, a, b)
    return apply_op(op, interpret(a, mode), interpret(b, mode))


def extract_bound(result: ExtInterval, direction: RoundingDirection) -> Fp:
    """One bound of an interval as a float: the upper bound for TO_POS_INF,
    the lower for TO_NEG_INF.  Empty extracts as NaN.  A bound that is real
    zero carries sign +0, except an upper bound reached from negative
    values, which carries -0, mirroring the usual sign conventions."""
    fmt, lo, hi = result
    if direction is _UP:
        if lo is None:
            return Fp(fmt, _NAN)
        if hi.kind is _ZERO and lo.negative:
            return Fp(fmt, _ZERO, True)
        return hi
    if direction is _DOWN:
        return Fp(fmt, _NAN) if lo is None else lo
    raise ValueError("bound extraction is defined for the two directed roundings")


def fp_scalar_op(
    a: Fp, b: Fp, op: OpKind, direction: RoundingDirection, mode: ZeroMode
) -> Fp:
    """One bound of the operation's interval, as a float (see extract_bound)."""
    return extract_bound(fp_interval_op(a, b, op, mode), direction)


# -- value comparison --------------------------------------------------------------


def same_value(a: Fp, b: Fp) -> bool:
    """Numeric equality: zeros compare equal regardless of sign, NaN equals
    NaN.  Values of two formats raise ValueError, as `value_cmp` does; within
    one format equal fields are equal values (the encoding is canonical), so
    only the two zeros differ in fields and not in value."""
    if a.fmt is not b.fmt and a.fmt != b.fmt:
        raise ValueError("operands use different formats")
    if a == b:
        return True
    kind = a.kind
    return kind is b.kind and (kind is _ZERO or kind is _NAN)


# -- identity catalog ----------------------------------------------------------------

# Operand classes, keyed by the condition a pattern gives in parentheses:
# the class's name, its predicate and its representative value, which lies
# in the class.
_CLASSES = {
    "finite positive a": ("pos", lambda q: q > 0, Fraction(2)),
    "0 < a < 1": ("pos<1", lambda q: 0 < q < 1, Fraction(1, 2)),
    "a >= 1": ("pos>=1", lambda q: q >= 1, Fraction(2)),
    "finite nonzero a": ("nonzero", lambda q: q != 0, Fraction(2)),
}

# keyed by the name of the `ast` operator class
_ARITH = {"Add": operator.add, "Sub": operator.sub, "Mult": operator.mul, "Div": operator.truediv}


class IdentityRecord(NamedTuple):
    """One special-operand identity: an operand pattern, the zero mode it
    lives in, and the expected interval as a format-parametric text.

    The text is ``empty`` or ``[lo, hi]``, with a side at an infinity
    written open: ``(-inf`` or ``+inf)``.  A finite side is an expression
    over m (least positive value), M (greatest finite value) and the free
    operand a, using integers, ``+ - * /``, unary minus, ``min``, and
    ``rd`` / ``ru`` (round down / up in the format)."""

    name: str
    pattern: str
    mode: ZeroMode
    group: str  # "redefined" | "formerly-nan" | "exact-zeros"
    expr_text: str

    @property
    def op(self) -> OpKind:
        """The operation: the pattern's second token."""
        return OpKind(self.pattern.split()[1])

    @property
    def operand_class(self) -> Optional[str]:
        """Name of the class the free operand ranges over, read from the
        pattern's condition; None for fixed patterns."""
        cls = self._class()
        return None if cls is None else cls[0]

    def _class(self):
        condition = self.pattern.partition("(")[2].rstrip(")")
        return _CLASSES[condition] if condition else None

    def expected(self, fmt: FloatFormat, a: Optional[Fp] = None) -> ExtInterval:
        """The text's interval in fmt with a as the free operand: each side
        is evaluated in exact rationals and rounded outward once.  Only the
        format constants and `FloatFormat.round` are used, never an
        interval operation, so the record is evidence independent of the
        bound recipes."""
        if self.expr_text == "empty":
            return ExtInterval.empty(fmt)
        names = {
            "m": fmt.min_pos().to_rational(),
            "M": fmt.max_finite().to_rational(),
            "a": None if a is None else a.to_rational(),
            "inf": math.inf,
            "min": min,
            "rd": lambda q: _ext_value(fmt.round(q, _DOWN)),
            "ru": lambda q: _ext_value(fmt.round(q, _UP)),
        }
        import ast  # only the catalog's formulas are parsed, so only here

        lo, hi = ast.parse(self.expr_text[1:-1], mode="eval").body.elts
        return ExtInterval(
            fmt, _outward(fmt, _exact(lo, names), _DOWN), _outward(fmt, _exact(hi, names), _UP)
        )

    def make_operands(self, fmt: FloatFormat, a: Optional[Fp]) -> tuple[Fp, Fp]:
        """The pattern's two operands in fmt, with a as the free operand."""
        lhs, _, rhs = self.pattern.split()[:3]
        return tuple(a if tok == "a" else Fp.from_text(fmt, tok) for tok in (lhs, rhs))

    def operand_candidates(self, fmt: FloatFormat) -> list[Optional[Fp]]:
        """Concrete choices for the free operand; [None] for fixed patterns.

        Enumerable formats yield every matching finite value; larger ones a
        fixed representative spread, including the values where division
        formulas change character (a near m*M)."""
        cls = self._class()
        if cls is None:
            return [None]
        pred = cls[1]
        try:
            values = [v for v in fmt.enumerate() if v.kind is _FINITE and pred(v.to_rational())]
        except EnumerationLimitError:
            m = fmt.min_pos().to_rational()
            big = fmt.max_finite().to_rational()
            probes = [
                m,
                Fraction(1, 2),
                Fraction(1),
                Fraction(2),
                m * big / 2,
                m * big,
                m * big * 2,
                big / 2,
                big,
            ]
            values = []
            for q in probes + [-q for q in probes]:
                if not pred(q):
                    continue
                try:
                    values.append(Fp.from_exact(fmt, q))
                except ValueError:
                    pass
        return values


def _ext_value(x: Fp) -> Fraction | float:
    """A rounded value: an exact rational, or a float infinity used as a
    symbol where the rounding overflowed."""
    return (-math.inf if x.negative else math.inf) if x.is_inf else x.to_rational()


def _outward(fmt: FloatFormat, v: Fraction | float, direction: RoundingDirection) -> Fp:
    return Fp.inf(fmt, negative=v < 0) if isinstance(v, float) else fmt.round(v, direction)


def _exact(node: ast.AST, names: dict) -> Fraction | float:
    """Value of one side of a record's text, walked node by node."""
    import ast  # the patterns below name its classes; see `IdentityRecord.expected`

    match node:
        case ast.Constant(value=int(n)):
            return Fraction(n)
        case ast.Name(id=name):
            return names[name]
        case ast.UnaryOp(op=ast.USub(), operand=x):
            return -_exact(x, names)
        case ast.UnaryOp(op=ast.UAdd(), operand=x):
            return _exact(x, names)
        case ast.BinOp(left=x, op=op, right=y) if type(op).__name__ in _ARITH:
            return _ARITH[type(op).__name__](_exact(x, names), _exact(y, names))
        case ast.Call(func=ast.Name(id=name), args=args, keywords=[]):
            return names[name](*(_exact(x, names) for x in args))
    raise ValueError(f"unsupported catalog syntax: {ast.unparse(node)}")


def _build_catalog() -> tuple[IdentityRecord, ...]:
    F, I = ZeroMode.FINITE, ZeroMode.INFINITE
    records = [
        # --- operations IEEE defines whose meaning is re-derived ---
        ("inf-mul-inf", "+inf * +inf", F, "redefined", "[rd(M*M), +inf)"),
        ("inf-mul-neginf", "+inf * -inf", F, "redefined", "(-inf, -rd(M*M)]"),
        ("a-mul-inf-ge1", "a * +inf (a >= 1)", F, "redefined", "[M, +inf)"),
        ("a-mul-inf-lt1", "a * +inf (0 < a < 1)", F, "redefined", "[rd(a*M), +inf)"),
        ("inf-add-inf", "+inf + +inf", F, "redefined", "[M, +inf)"),
        ("a-add-inf", "a + +inf (finite nonzero a)", F, "redefined",
         "[min(rd(a+M), M), +inf)"),
        ("poszero-add-poszero", "+0 + +0", F, "redefined", "[0, ru(2*m)]"),
        ("poszero-add-negzero", "+0 + -0", F, "redefined", "[-m, m]"),
        ("a-div-inf", "a / +inf (finite positive a)", F, "redefined", "[0, ru(a/M)]"),
        ("inf-div-a", "+inf / a (finite positive a)", F, "redefined",
         "[min(M, rd(M/a)), +inf)"),
        ("inf-div-poszero", "+inf / +0", F, "redefined", "[rd(M/m), +inf)"),
        ("a-div-poszero", "a / +0 (finite positive a)", F, "redefined", "[rd(a/m), +inf)"),
        # --- operations IEEE leaves undefined (NaN) ---
        ("zero-mul-inf", "+0 * +inf", F, "formerly-nan", "[0, +inf)"),
        ("inf-div-inf", "+inf / +inf", F, "formerly-nan", "[0, +inf)"),
        ("inf-div-neginf", "+inf / -inf", F, "formerly-nan", "(-inf, 0]"),
        ("neginf-div-neginf", "-inf / -inf", F, "formerly-nan", "[0, +inf)"),
        # Note: the divisor set [0, m] admits the witness y = 0 with x = 0,
        # so the relational solution set is the whole line (the same witness
        # that makes [0,0]/[0,0] the whole line in exact-zero mode); the
        # quotients alone would only cover [0, +inf).
        ("poszero-div-poszero", "+0 / +0", F, "formerly-nan", "(-inf, +inf)"),
        ("inf-sub-inf", "+inf - +inf", F, "formerly-nan", "(-inf, +inf)"),
        # --- the zero-involving formulas under exact (point) zeros ---
        ("poszero-add-poszero-exact", "+0 + +0", I, "exact-zeros", "[0, 0]"),
        ("poszero-add-negzero-exact", "+0 + -0", I, "exact-zeros", "[0, 0]"),
        ("inf-div-poszero-exact", "+inf / +0", I, "exact-zeros", "empty"),
        ("a-div-poszero-exact", "a / +0 (finite positive a)", I, "exact-zeros", "empty"),
        ("zero-mul-inf-exact", "+0 * +inf", I, "exact-zeros", "[0, 0]"),
    ]
    return tuple(IdentityRecord(*record) for record in records)


_CATALOG = _build_catalog()


def identity_catalog() -> tuple[IdentityRecord, ...]:
    """All 23 special-operand identities (12 redefined, 6 formerly NaN,
    5 exact-zero-mode variants)."""
    return _CATALOG


def representative_operand(rec: IdentityRecord, fmt: FloatFormat) -> Optional[Fp]:
    """A single representative free operand for report rows: 1/2 for the
    below-one branch, 2 otherwise, falling back to the first value of the
    class the format offers.  None for fixed patterns, and for a class with
    no member in the format."""
    cls = rec._class()
    if cls is None:
        return None
    try:
        return Fp.from_exact(fmt, cls[2])
    except ValueError:
        candidates = rec.operand_candidates(fmt)
        return candidates[0] if candidates else None
