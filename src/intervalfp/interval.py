"""Closed connected sets of reals with format bounds.

An interval is either empty or a pair of bounds drawn from one float
format, where an infinite bound means the set is unbounded on that side.
Bounds that are real zero are stored as +0: the sign of zero carries no
set-theoretic meaning inside an interval.

The four arithmetic operations are total.  Each one computes the exact
bounds of the relational solution set (for division: all z with y*z = x)
in extended rational arithmetic and then takes the format hull, rounding
the lower bound down and the upper bound up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Union

from .fpformat import FloatFormat, Fp, RoundingDirection, value_cmp

# Extended rational: an exact Fraction or one of the float infinities,
# which are used purely as symbols (never mixed into Fraction arithmetic).
ExtReal = Union[Fraction, float]

NEG_INF: float = -math.inf
POS_INF: float = math.inf


class OpKind(Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


def _is_infinite(v: ExtReal) -> bool:
    return isinstance(v, float)


@dataclass(frozen=True)
class ExtInterval:
    """Empty, or the reals between two format bounds (closed where finite)."""

    fmt: FloatFormat
    lo: Optional[Fp] = None
    hi: Optional[Fp] = None

    @staticmethod
    def empty(fmt: FloatFormat) -> "ExtInterval":
        return ExtInterval(fmt)

    @staticmethod
    def make(lo: Fp, hi: Fp) -> "ExtInterval":
        """Build a non-empty interval, normalising zero bounds to +0."""
        if lo.fmt is not hi.fmt and lo.fmt != hi.fmt:
            raise ValueError("mismatched bound formats")
        if lo.is_nan or hi.is_nan:
            raise ValueError("NaN cannot be an interval bound")
        if (lo.is_inf and not lo.negative) or (hi.is_inf and hi.negative):
            raise ValueError("bounds leave no reals in the set")
        if lo is hi:  # point interval from a single finite object
            if lo.is_zero:
                lo = hi = Fp.zero(lo.fmt)
            return ExtInterval(lo.fmt, lo, hi)
        if lo.is_zero:
            lo = Fp.zero(lo.fmt)
        if hi.is_zero:
            hi = Fp.zero(hi.fmt)
        if value_cmp(lo, hi) > 0:
            raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")
        return ExtInterval(lo.fmt, lo, hi)

    @staticmethod
    def point(x: Fp) -> "ExtInterval":
        """The singleton set of a finite value."""
        if not x.is_finite:
            raise ValueError(f"{x} is not finite")
        return ExtInterval.make(x, x)

    @staticmethod
    def full_line(fmt: FloatFormat) -> "ExtInterval":
        return ExtInterval(fmt, Fp.inf(fmt, negative=True), Fp.inf(fmt))

    # -- views -------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.lo is None

    @property
    def lo_ext(self) -> ExtReal:
        """Lower bound as an exact rational, or -inf when unbounded."""
        if self.lo.is_inf:
            return NEG_INF
        return self.lo.to_rational()

    @property
    def hi_ext(self) -> ExtReal:
        if self.hi.is_inf:
            return POS_INF
        return self.hi.to_rational()

    def is_point(self) -> bool:
        return not self.is_empty and self.lo == self.hi and self.lo.is_finite

    def contains_zero(self) -> bool:
        return not self.is_empty and self.lo_ext <= 0 <= self.hi_ext

    # -- operators -----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return negate(self)

    # -- text form -------------------------------------------------------------

    def __str__(self):
        if self.is_empty:
            return "empty"
        if self.lo.is_inf:
            left = "(-inf"
        else:
            left = "[" + _bound_str(self.lo)
        if self.hi.is_inf:
            right = "+inf)"
        else:
            right = _bound_str(self.hi) + "]"
        return f"{left}, {right}"

    def __repr__(self):
        return f"ExtInterval({str(self)!r}, {self.fmt.descriptor()!r})"


def _bound_str(x: Fp) -> str:
    return "0" if x.is_zero else str(x)


# -- hull ---------------------------------------------------------------------


def hull(lo: ExtReal, hi: ExtReal, fmt: FloatFormat) -> ExtInterval:
    """Least format interval containing [lo, hi]: the lower bound is rounded
    down and the upper bound up, so bounds beyond the finite range become
    infinite (unbounded) sides."""
    if _is_infinite(lo):
        lo_fp = Fp.inf(fmt, negative=True)
    elif _is_infinite(hi):
        lo_fp = fmt.round(lo, RoundingDirection.TO_NEG_INF)
    else:
        if lo > hi:
            raise ValueError(f"hull of reversed bounds {lo} > {hi}")
        if lo == hi:  # point: one bracket serves both directions
            lo_fp, hi_fp = fmt.round_both(lo)
            return ExtInterval.make(lo_fp, hi_fp)
        lo_fp = fmt.round(lo, RoundingDirection.TO_NEG_INF)
    if _is_infinite(hi):
        hi_fp = Fp.inf(fmt)
    else:
        hi_fp = fmt.round(hi, RoundingDirection.TO_POS_INF)
    return ExtInterval.make(lo_fp, hi_fp)


# -- bound-level arithmetic -----------------------------------------------------
# The special products 0*inf -> 0 and x/inf -> 0 make the corner recipes
# below reproduce the exact solution-set bounds; this is checked exhaustively
# against the independent oracle on enumerable formats.


def _add_bound(a: ExtReal, b: ExtReal) -> ExtReal:
    if _is_infinite(a):
        return a
    if _is_infinite(b):
        return b
    return a + b


def _mul_bound(a: ExtReal, b: ExtReal) -> ExtReal:
    if a == 0 or b == 0:
        return Fraction(0)
    if _is_infinite(a) or _is_infinite(b):
        return POS_INF if (a > 0) == (b > 0) else NEG_INF
    return a * b


def _div_bound(a: ExtReal, b: ExtReal) -> ExtReal:
    if _is_infinite(b):
        return Fraction(0)
    if _is_infinite(a):
        return POS_INF if (a > 0) == (b > 0) else NEG_INF
    return a / b


def _check_pair(x: ExtInterval, y: ExtInterval):
    if x.fmt is not y.fmt and x.fmt != y.fmt:
        raise ValueError("operands use different formats")


# -- the four operations -----------------------------------------------------------


def add(x: ExtInterval, y: ExtInterval) -> ExtInterval:
    """Hull of the exact sum set."""
    _check_pair(x, y)
    if x.is_empty or y.is_empty:
        return ExtInterval.empty(x.fmt)
    return hull(_add_bound(x.lo_ext, y.lo_ext), _add_bound(x.hi_ext, y.hi_ext), x.fmt)


def negate(x: ExtInterval) -> ExtInterval:
    """Exact mirror image; no rounding is involved."""
    if x.is_empty:
        return x
    return ExtInterval.make(-x.hi, -x.lo)


def sub(x: ExtInterval, y: ExtInterval) -> ExtInterval:
    """Hull of the set of z with y + z = x, which is the difference set."""
    return add(x, negate(y))


def mul(x: ExtInterval, y: ExtInterval) -> ExtInterval:
    """Hull of the exact product set via the four corner products."""
    _check_pair(x, y)
    if x.is_empty or y.is_empty:
        return ExtInterval.empty(x.fmt)
    xl, yl = x.lo_ext, y.lo_ext
    if x.lo is x.hi and y.lo is y.hi:  # point operands share one corner
        p = _mul_bound(xl, yl)
        return hull(p, p, x.fmt)
    xh, yh = x.hi_ext, y.hi_ext
    corners = [_mul_bound(a, b) for a in (xl, xh) for b in (yl, yh)]
    return hull(min(corners), max(corners), x.fmt)


def div(x: ExtInterval, y: ExtInterval) -> ExtInterval:
    """Hull of the relational quotient set {z | y * z = x}.

    With zero outside the divisor this is ordinary corner division.  When
    both operands contain zero, z is arbitrary (witness x = y = 0).  A
    nonzero dividend with divisor exactly [0,0] has no solutions at all.
    Otherwise the solutions form one or two half-lines whose hull may be
    the full line."""
    _check_pair(x, y)
    if x.is_empty or y.is_empty:
        return ExtInterval.empty(x.fmt)
    xl, xh = x.lo_ext, x.hi_ext
    yl, yh = y.lo_ext, y.hi_ext
    if not yl <= 0 <= yh:
        if x.lo is x.hi and y.lo is y.hi:
            q = _div_bound(xl, yl)
            return hull(q, q, x.fmt)
        corners = [_div_bound(a, b) for a in (xl, xh) for b in (yl, yh)]
        return hull(min(corners), max(corners), x.fmt)
    if xl <= 0 <= xh:
        return ExtInterval.full_line(x.fmt)
    if yl == 0 == yh:
        return ExtInterval.empty(x.fmt)
    los, his = [], []
    x_positive = xl > 0
    if yh > 0:
        # divisors arbitrarily close to zero from above
        if x_positive:
            los.append(_div_bound(xl, yh))
            his.append(POS_INF)
        else:
            los.append(NEG_INF)
            his.append(_div_bound(xh, yh))
    if yl < 0:
        if x_positive:
            los.append(NEG_INF)
            his.append(_div_bound(xl, yl))
        else:
            los.append(_div_bound(xh, yl))
            his.append(POS_INF)
    return hull(min(los), max(his), x.fmt)


_OPS = {OpKind.ADD: add, OpKind.SUB: sub, OpKind.MUL: mul, OpKind.DIV: div}


def apply_op(op: OpKind, x: ExtInterval, y: ExtInterval) -> ExtInterval:
    return _OPS[op](x, y)


# -- predicates -----------------------------------------------------------------------


def member(q: Fraction, x: ExtInterval) -> bool:
    """Does the rational q lie in the set x denotes?"""
    if x.is_empty:
        return False
    lo_ok = _is_infinite(x.lo_ext) or x.lo_ext <= q
    hi_ok = _is_infinite(x.hi_ext) or q <= x.hi_ext
    return lo_ok and hi_ok


def subset(x: ExtInterval, y: ExtInterval) -> bool:
    """Set containment; the empty interval is a subset of everything."""
    _check_pair(x, y)
    if x.is_empty:
        return True
    if y.is_empty:
        return False
    return y.lo_ext <= x.lo_ext and x.hi_ext <= y.hi_ext


# -- text form --------------------------------------------------------------------------


def parse_interval(text: str, fmt: FloatFormat) -> ExtInterval:
    """Parse interval syntax: ``[a, b]``, ``[a, inf)``, ``(-inf, b]``,
    ``(-inf, inf)`` or ``empty``; endpoints are read by `Fp.from_text`, so
    they must be representable in the format."""
    t = text.strip()
    if t == "empty":
        return ExtInterval.empty(fmt)
    if len(t) < 2 or t[0] not in "[(" or t[-1] not in "])":
        raise ValueError(f"bad interval syntax {text!r}")
    body = t[1:-1]
    if body.count(",") != 1:
        raise ValueError(f"bad interval syntax {text!r}")
    lo_txt, hi_txt = body.split(",")
    return ExtInterval.make(Fp.from_text(fmt, lo_txt), Fp.from_text(fmt, hi_txt))
