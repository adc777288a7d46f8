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
(``+inf / -inf``, ``a * +inf (0 < a < 1)``): ``a`` is the free operand and
every other operand is the text of a float (`Fp.from_text`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .fpformat import (
    DomainError,
    EnumerationLimitError,
    FloatFormat,
    Fp,
    FpKind,
    RoundingDirection,
    _FINITE,
    value_cmp,
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
    if x.kind is FpKind.FINITE:
        return ExtInterval.unchecked(x, x)
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
        meaning = ExtInterval.make(fmt.max_finite(), Fp.inf(fmt))
    elif mode is ZeroMode.INFINITE:
        return ExtInterval.point(Fp.zero(fmt))  # both zeros: the exact point 0
    else:
        meaning = ExtInterval.make(Fp.zero(fmt), fmt.min_pos())
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
    if x.is_point() and x.lo.kind is FpKind.FINITE:
        return x.lo
    for candidate in (
        Fp.zero(fmt),
        Fp.zero(fmt, negative=True),
        Fp.inf(fmt),
        Fp.inf(fmt, negative=True),
    ):
        if interpret(candidate, mode) == x:
            return candidate
    return None


# -- total operations -----------------------------------------------------------


def fp_interval_op(a: Fp, b: Fp, op: OpKind, mode: ZeroMode) -> ExtInterval:
    """Interval result of a float operation; total for all non-NaN inputs,
    and total outright in INFINITE mode (NaN reads as the empty set).

    Two finite nonzero operands are points in either zero mode, so they go
    straight to `interval.point_op` without building their intervals; for
    binary64 that is the host-float path, whose fallbacks to the exact core
    `point_op` lists.  Zeros, infinities and NaN take their mode's meaning
    through `interpret` and go through `apply_op`."""
    if a.kind is _FINITE and b.kind is _FINITE:
        return point_op(op, a, b)
    return apply_op(op, interpret(a, mode), interpret(b, mode))


def extract_bound(result: ExtInterval, direction: RoundingDirection) -> Fp:
    """One bound of an interval as a float: the upper bound for TO_POS_INF,
    the lower for TO_NEG_INF.  Empty extracts as NaN.  A bound that is real
    zero carries sign +0, except an upper bound reached from negative
    values, which carries -0, mirroring the usual sign conventions."""
    if direction not in (RoundingDirection.TO_POS_INF, RoundingDirection.TO_NEG_INF):
        raise ValueError("bound extraction is defined for the two directed roundings")
    if result.is_empty:
        return Fp.nan(result.fmt)
    if direction is RoundingDirection.TO_POS_INF:
        bound = result.hi
        if bound.is_zero and result.lo.negative:
            return Fp.zero(result.fmt, negative=True)
        return bound
    return result.lo


def fp_scalar_op(
    a: Fp, b: Fp, op: OpKind, direction: RoundingDirection, mode: ZeroMode
) -> Fp:
    """One bound of the operation's interval, as a float (see extract_bound)."""
    return extract_bound(fp_interval_op(a, b, op, mode), direction)


# -- value comparison --------------------------------------------------------------


def same_value(a: Fp, b: Fp) -> bool:
    """Numeric equality: zeros compare equal regardless of sign, NaN equals NaN."""
    if a.is_nan or b.is_nan:
        return a.is_nan and b.is_nan
    return value_cmp(a, b) == 0


# -- identity catalog ----------------------------------------------------------------

# Operand classes a record may quantify over: each class's predicate and
# its representative value, which lies in the class.
_CLASSES = {
    "pos": (lambda q: q > 0, Fraction(2)),
    "pos<1": (lambda q: 0 < q < 1, Fraction(1, 2)),
    "pos>=1": (lambda q: q >= 1, Fraction(2)),
    "nonzero": (lambda q: q != 0, Fraction(2)),
}


@dataclass(frozen=True)
class IdentityRecord:
    """One special-operand identity: an operand pattern, the zero mode it
    lives in, and the expected interval as a format-parametric expression
    (rd/ru denote rounding down/up in the active format)."""

    name: str
    pattern: str
    mode: ZeroMode
    group: str  # "redefined" | "formerly-nan" | "exact-zeros"
    operand_class: Optional[str]
    expr_text: str
    expected: Callable[[FloatFormat, Optional[Fp]], ExtInterval]

    @property
    def op(self) -> OpKind:
        """The operation: the pattern's second token."""
        return OpKind(self.pattern.split()[1])

    def make_operands(self, fmt: FloatFormat, a: Optional[Fp]) -> tuple[Fp, Fp]:
        """The pattern's two operands in fmt, with a as the free operand."""
        lhs, _, rhs = self.pattern.split()[:3]
        return tuple(a if tok == "a" else Fp.from_text(fmt, tok) for tok in (lhs, rhs))

    def operand_candidates(self, fmt: FloatFormat) -> list[Optional[Fp]]:
        """Concrete choices for the free operand; [None] for fixed patterns.

        Enumerable formats yield every matching finite value; larger ones a
        fixed representative spread, including the values where division
        formulas change character (a near m*M)."""
        if self.operand_class is None:
            return [None]
        pred = _CLASSES[self.operand_class][0]
        try:
            values = [
                v for v in fmt.enumerate() if v.kind is FpKind.FINITE and pred(v.to_rational())
            ]
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


def _rd(fmt: FloatFormat, q: Fraction) -> Fp:
    return fmt.round(q, RoundingDirection.TO_NEG_INF)


def _ru(fmt: FloatFormat, q: Fraction) -> Fp:
    return fmt.round(q, RoundingDirection.TO_POS_INF)


def _m(fmt: FloatFormat) -> Fraction:
    return fmt.min_pos().to_rational()


def _M(fmt: FloatFormat) -> Fraction:
    return fmt.max_finite().to_rational()


def _up_from(fmt, lo: Fp) -> ExtInterval:
    return ExtInterval.make(lo, Fp.inf(fmt))


def _min_fp(a: Fp, b: Fp) -> Fp:
    return a if value_cmp(a, b) <= 0 else b


def _pos_inf_meaning(fmt: FloatFormat, _a=None) -> ExtInterval:
    return ExtInterval.make(fmt.max_finite(), Fp.inf(fmt))


def _neg_inf_meaning(fmt: FloatFormat, _a=None) -> ExtInterval:
    return ExtInterval.make(Fp.inf(fmt, negative=True), -fmt.max_finite())


def _nonneg_halfline(fmt: FloatFormat, _a=None) -> ExtInterval:
    return ExtInterval.make(Fp.zero(fmt), Fp.inf(fmt))


def _nonpos_halfline(fmt: FloatFormat, _a=None) -> ExtInterval:
    return ExtInterval.make(Fp.inf(fmt, negative=True), Fp.zero(fmt))


def _zero_point(fmt: FloatFormat, _a=None) -> ExtInterval:
    return ExtInterval.point(Fp.zero(fmt))


def _empty(fmt: FloatFormat, _a=None) -> ExtInterval:
    return ExtInterval.empty(fmt)


def _full(fmt: FloatFormat, _a=None) -> ExtInterval:
    return ExtInterval.full_line(fmt)


def _build_catalog() -> tuple[IdentityRecord, ...]:
    F, I = ZeroMode.FINITE, ZeroMode.INFINITE
    records = [
        # --- operations IEEE defines whose meaning is re-derived ---
        IdentityRecord(
            "inf-mul-inf", "+inf * +inf", F, "redefined", None,
            "[M, +inf)",
            _pos_inf_meaning,
        ),
        IdentityRecord(
            "inf-mul-neginf", "+inf * -inf", F, "redefined", None,
            "(-inf, -M]",
            _neg_inf_meaning,
        ),
        IdentityRecord(
            "a-mul-inf-ge1", "a * +inf (a >= 1)", F, "redefined", "pos>=1",
            "[M, +inf)",
            _pos_inf_meaning,
        ),
        IdentityRecord(
            "a-mul-inf-lt1", "a * +inf (0 < a < 1)", F, "redefined", "pos<1",
            "[rd(a*M), +inf)",
            lambda fmt, a: _up_from(fmt, _rd(fmt, a.to_rational() * _M(fmt))),
        ),
        IdentityRecord(
            "inf-add-inf", "+inf + +inf", F, "redefined", None,
            "[M, +inf)",
            _pos_inf_meaning,
        ),
        IdentityRecord(
            "a-add-inf", "a + +inf (finite nonzero a)", F, "redefined", "nonzero",
            "[min(rd(a+M), M), +inf)",
            lambda fmt, a: _up_from(
                fmt, _min_fp(_rd(fmt, a.to_rational() + _M(fmt)), fmt.max_finite())
            ),
        ),
        IdentityRecord(
            "poszero-add-poszero", "+0 + +0", F, "redefined", None,
            "[0, ru(2m)]",
            lambda fmt, _a: ExtInterval.make(Fp.zero(fmt), _ru(fmt, 2 * _m(fmt))),
        ),
        IdentityRecord(
            "poszero-add-negzero", "+0 + -0", F, "redefined", None,
            "[-m, m]",
            lambda fmt, _a: ExtInterval.make(-fmt.min_pos(), fmt.min_pos()),
        ),
        IdentityRecord(
            "a-div-inf", "a / +inf (finite positive a)", F, "redefined", "pos",
            "[0, ru(a/M)]",
            lambda fmt, a: ExtInterval.make(
                Fp.zero(fmt), _ru(fmt, a.to_rational() / _M(fmt))
            ),
        ),
        IdentityRecord(
            "inf-div-a", "+inf / a (finite positive a)", F, "redefined", "pos",
            "[min(M, rd(M/a)), +inf)",
            lambda fmt, a: _up_from(
                fmt, _min_fp(fmt.max_finite(), _rd(fmt, _M(fmt) / a.to_rational()))
            ),
        ),
        IdentityRecord(
            "inf-div-poszero", "+inf / +0", F, "redefined", None,
            "[rd(M/m), +inf) = [M, +inf)",
            lambda fmt, _a: _up_from(fmt, _rd(fmt, _M(fmt) / _m(fmt))),
        ),
        IdentityRecord(
            "a-div-poszero", "a / +0 (finite positive a)", F, "redefined", "pos",
            "[rd(a/m), +inf)",
            lambda fmt, a: _up_from(fmt, _rd(fmt, a.to_rational() / _m(fmt))),
        ),
        # --- operations IEEE leaves undefined (NaN) ---
        IdentityRecord(
            "zero-mul-inf", "+0 * +inf", F, "formerly-nan", None,
            "[0, +inf)",
            _nonneg_halfline,
        ),
        IdentityRecord(
            "inf-div-inf", "+inf / +inf", F, "formerly-nan", None,
            "[0, +inf)",
            _nonneg_halfline,
        ),
        IdentityRecord(
            "inf-div-neginf", "+inf / -inf", F, "formerly-nan", None,
            "(-inf, 0]",
            _nonpos_halfline,
        ),
        IdentityRecord(
            "neginf-div-neginf", "-inf / -inf", F, "formerly-nan", None,
            "[0, +inf)",
            _nonneg_halfline,
        ),
        # Note: the divisor set [0, m] admits the witness y = 0 with x = 0,
        # so the relational solution set is the whole line (the same witness
        # that makes [0,0]/[0,0] the whole line in exact-zero mode); the
        # quotients alone would only cover [0, +inf).
        IdentityRecord(
            "poszero-div-poszero", "+0 / +0", F, "formerly-nan", None,
            "(-inf, +inf)",
            _full,
        ),
        IdentityRecord(
            "inf-sub-inf", "+inf - +inf", F, "formerly-nan", None,
            "(-inf, +inf)",
            _full,
        ),
        # --- the zero-involving formulas under exact (point) zeros ---
        IdentityRecord(
            "poszero-add-poszero-exact", "+0 + +0", I, "exact-zeros", None,
            "[0, 0]",
            _zero_point,
        ),
        IdentityRecord(
            "poszero-add-negzero-exact", "+0 + -0", I, "exact-zeros", None,
            "[0, 0]",
            _zero_point,
        ),
        IdentityRecord(
            "inf-div-poszero-exact", "+inf / +0", I, "exact-zeros", None,
            "empty",
            _empty,
        ),
        IdentityRecord(
            "a-div-poszero-exact", "a / +0 (finite positive a)", I,
            "exact-zeros", "pos",
            "empty",
            _empty,
        ),
        IdentityRecord(
            "zero-mul-inf-exact", "+0 * +inf", I, "exact-zeros", None,
            "[0, 0]",
            _zero_point,
        ),
    ]
    return tuple(records)


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
    if rec.operand_class is None:
        return None
    try:
        return Fp.from_exact(fmt, _CLASSES[rec.operand_class][1])
    except ValueError:
        candidates = rec.operand_candidates(fmt)
        return candidates[0] if candidates else None
