"""Closed connected sets of reals with format bounds.

An interval is either empty or a pair of bounds drawn from one float
format, where an infinite bound means the set is unbounded on that side.
Bounds that are real zero are stored as +0: the sign of zero carries no
set-theoretic meaning inside an interval.  The class calls of
`ExtInterval` and `Fp` are the checked ways to build an interval and a
bound; the operations build their results and bounds directly, by
`tuple.__new__` and the format layer's builder (`fpformat._build`).

The four arithmetic operations are total, and `apply_op` is their one
entry: the operators of `ExtInterval` are its spelling.  It checks that the
operands share a format, passes an empty operand through and sends two
host-format points to `point_op`.  Every other pair takes its recipe, which
computes the exact bounds of the relational solution set (for division:
all z with y*z = x) on plain integers and then takes the format hull,
rounding the lower bound down and the upper bound up.  An exact bound is a
pair (num, den) of ints: the rational num/den, unreduced, when den > 0, and
the infinity signed like num when den == 0 (the infinity flag).  The
format layer's one rounding core, `fpformat._enclose`, encloses a pair by
truncation toward zero and one integer step away from it, building only
the sides asked for; the recipes round nothing of their own, and no
operation builds a Fraction.  The core's flag, which side is nearest, is
for literals and `FloatFormat`'s entries; the interval operations keep
sides, not nearest values.  `hull`, `lo_ext`, `hi_ext`, `member` and
`subset` keep the Fraction view for callers outside the operations.

Point operands share one corner, and in every format binary64 holds
(`FloatFormat.host`: binary64, binary32, every small format) `point_op`
decides it as the paper's hardware would: one host float op, rounded once
more to the format, gives the nearest value and the flag (`fpformat._round_cut`),
and the format layer's bracket builder (`fpformat._bracket`) the other side.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import frexp, inf, ldexp
from typing import NamedTuple, Optional, Union

from .fpformat import (FloatFormat, Fp, _DOWN, _FINITE, _INF, _ROUNDED_UP, _UP, _ZERO, _Validated,
                       _bracket, _build, _enclose, _round_cut, value_cmp)

# Extended rational of the Fraction view: an exact Fraction or one of the
# float infinities, which are used purely as symbols.
ExtReal = Union[Fraction, float]

NEG_INF: float = -inf
POS_INF: float = inf


class OpKind(Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


# module names for the members `apply_op` and `point_op` test (see `fpformat._FINITE`)
_ADD, _SUB, _MUL, _DIV = OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV


def _operator(op: OpKind):
    """The `ExtInterval` operator for op: `apply_op` when the other operand
    is an interval too, and otherwise NotImplemented, which Python turns
    into a TypeError."""
    def method(x, y):
        return apply_op(op, x, y) if isinstance(y, ExtInterval) else NotImplemented
    return method


class _ExtIntervalFields(NamedTuple):
    fmt: FloatFormat
    lo: Optional[Fp] = None
    hi: Optional[Fp] = None


class ExtInterval(_Validated, _ExtIntervalFields):
    """Empty, or the reals between two format bounds (closed where finite).

    An immutable, unordered value like `Fp`: the tuple underneath compares
    and hashes the three fields, the operators below are interval
    arithmetic, not the tuple's, and `_make` and `_replace` are refused.

    ``ExtInterval(fmt)`` is empty; ``ExtInterval(fmt, lo, hi)`` holds bounds
    of fmt, neither NaN, with lo <= hi, no +inf below or -inf above, zero
    bounds as +0 and equal bounds as one object, and refuses others.  The
    operations build results that hold the same by `tuple.__new__`."""

    __slots__ = ()

    def __new__(cls, fmt: FloatFormat, lo: Optional[Fp] = None, hi: Optional[Fp] = None):
        if lo is None and hi is None:
            return tuple.__new__(cls, (fmt, None, None))
        if lo is None or hi is None:
            raise ValueError("an interval has two bounds or none")
        if lo.fmt is not fmt and lo.fmt != fmt or hi.fmt is not fmt and hi.fmt != fmt:
            raise ValueError("mismatched bound formats")
        if lo.is_nan or hi.is_nan:
            raise ValueError("NaN cannot be an interval bound")
        if (lo.is_inf and not lo.negative) or (hi.is_inf and hi.negative):
            raise ValueError("bounds leave no reals in the set")
        if lo is not hi:
            order = value_cmp(lo, hi)
            if order > 0:
                raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")
            if order == 0:  # one finite value, or two zeros
                lo = hi
        if lo.kind is _ZERO and lo.negative:  # a zero bound is stored as +0
            lo = _build((fmt, _ZERO, False, 0, 0))
        if hi.kind is _ZERO and hi.negative:  # with a zero lo, the point 0
            hi = lo if lo.kind is _ZERO else _build((fmt, _ZERO, False, 0, 0))
        return tuple.__new__(cls, (fmt, lo, hi))

    @staticmethod
    def empty(fmt: FloatFormat) -> "ExtInterval":
        return tuple.__new__(ExtInterval, (fmt, None, None))

    @staticmethod
    def make(lo: Fp, hi: Fp) -> "ExtInterval":
        """The class call with lo's format (a name the benchmark times)."""
        return ExtInterval(lo.fmt, lo, hi)

    @staticmethod
    def full_line(fmt: FloatFormat) -> "ExtInterval":
        return tuple.__new__(ExtInterval, (fmt, _build((fmt, _INF, True, 0, 0)),
                                           _build((fmt, _INF, False, 0, 0))))

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
        return self.lo is not None and self.lo is self.hi

    def contains_zero(self) -> bool:
        # zero bounds are stored as +0, so the sign bits decide
        return (
            not self.is_empty
            and (self.lo.negative or self.lo.kind is _ZERO)
            and not self.hi.negative
        )

    # -- operators -----------------------------------------------------------

    __add__, __sub__ = _operator(_ADD), _operator(_SUB)
    __mul__, __truediv__ = _operator(_MUL), _operator(_DIV)

    def __neg__(self):
        return negate(self)

    # -- text form -------------------------------------------------------------

    def __str__(self):
        if self.is_empty:
            return "empty"
        left = "(-inf" if self.lo.is_inf else "[" + _bound_str(self.lo)
        right = "+inf)" if self.hi.is_inf else _bound_str(self.hi) + "]"
        return f"{left}, {right}"

    def __repr__(self):
        return f"ExtInterval({str(self)!r}, {self.fmt.descriptor()!r})"


def _bound_str(x: Fp) -> str:
    return "0" if x.is_zero else str(x)


# -- exact bounds and their hull ---------------------------------------------------
# An exact bound of the operations is an integer pair (num, den): the
# rational num/den when den > 0, unreduced, and the infinity with the sign
# of num when den == 0.  The special products 0*inf -> 0 and x/inf -> 0 make
# the corner recipes below reproduce the exact solution-set bounds; this is
# checked exhaustively against the independent oracle on enumerable formats.

Bound = tuple[int, int]

_ZERO_BOUND: Bound = (0, 1)
_MINUS_INF: Bound = (-1, 0)
_PLUS_INF: Bound = (1, 0)


def _bound(x: Fp) -> Bound:
    """Exact value of an interval bound, read from its significand and
    exponent; a format value's denominator is a power of two."""
    fmt, kind, negative, c, e = x
    if kind is _FINITE:
        s = e - fmt.precision + 1
        c = -c if negative else c
        return (c << s, 1) if s >= 0 else (c, 1 << -s)
    if kind is _ZERO:
        return _ZERO_BOUND
    return _MINUS_INF if negative else _PLUS_INF


def _add_bound(a: Bound, b: Bound) -> Bound:
    """a + b of two format values; an infinity absorbs the other operand
    (lower bounds are never +inf and upper bounds never -inf, so the two
    infinities never meet)."""
    an, ad = a
    bn, bd = b
    if ad == 0:
        return a
    if bd == 0:
        return b
    # power-of-two denominators: shift the numerator of the coarser one
    if ad >= bd:
        return an + (bn << (ad.bit_length() - bd.bit_length())), ad
    return (an << (bd.bit_length() - ad.bit_length())) + bn, bd


def _signed_inf(a: int, b: int) -> Bound:
    return _PLUS_INF if (a > 0) == (b > 0) else _MINUS_INF


def _mul_bound(a: Bound, b: Bound) -> Bound:
    an, ad = a
    bn, bd = b
    if an == 0 or bn == 0:
        return _ZERO_BOUND
    if ad == 0 or bd == 0:
        return _signed_inf(an, bn)
    return an * bn, ad * bd


def _div_bound(a: Bound, b: Bound) -> Bound:
    """a / b for a nonzero divisor b."""
    an, ad = a
    bn, bd = b
    if bd == 0:
        return _ZERO_BOUND
    if ad == 0:
        return _signed_inf(an, bn)
    if bn < 0:
        return -an * bd, -ad * bn
    return an * bd, ad * bn


def _less(a: Bound, b: Bound) -> bool:
    """a < b: cross-multiplied when both are finite, by sign otherwise."""
    an, ad = a
    bn, bd = b
    if ad and bd:
        return an * bd < bn * ad
    if ad:
        return bn > 0
    if bd:
        return an < 0
    return an < bn


def _round_corners(f, xl: Bound, xh: Bound, yl: Bound, yh: Bound, fmt: FloatFormat) -> ExtInterval:
    """Least format interval containing f(a, b) for every end a of [xl, xh]
    and b of [yl, yh]; a point (xl is xh) has one end."""
    corners = [f(a, b) for a in ((xl,) if xl is xh else (xl, xh))
               for b in ((yl,) if yl is yh else (yl, yh))]
    low = high = corners[0]
    for b in corners[1:]:
        if _less(b, low):
            low = b
        elif _less(high, b):
            high = b
    return _round_out(low, high, fmt)


def _round_point(p: Bound, fmt: FloatFormat) -> ExtInterval:
    """Least format interval containing the finite value p: both sides of
    the rounding core, one object when p is exact, zero sides +0."""
    lo, hi, _ = _enclose(fmt, *p)
    return tuple.__new__(ExtInterval, (fmt, lo, hi))


def _round_out(lo: Bound, hi: Bound, fmt: FloatFormat) -> ExtInterval:
    """Least format interval containing [lo, hi]: the lower bound is rounded
    down and the upper bound up, so bounds beyond the finite range become
    infinite (unbounded) sides; an infinite bound stays infinite.  Only the
    kept side of each enclosure is built, and one exact value (the zero of
    a product with a zero point) is one object."""
    if lo == hi:
        return _round_point(lo, fmt)
    lo_fp = _build((fmt, _INF, True, 0, 0)) if lo[1] == 0 else _enclose(fmt, *lo, _DOWN)[0]
    hi_fp = _build((fmt, _INF, False, 0, 0)) if hi[1] == 0 else _enclose(fmt, *hi, _UP)[1]
    return tuple.__new__(ExtInterval, (fmt, lo_fp, hi_fp))


def hull(lo: ExtReal, hi: ExtReal, fmt: FloatFormat) -> ExtInterval:
    """`_round_out` of rational bounds: an infinite lo means -inf and an
    infinite hi +inf."""
    lo_inf, hi_inf = isinstance(lo, float), isinstance(hi, float)
    if not lo_inf and not hi_inf and lo > hi:
        raise ValueError(f"hull of reversed bounds {lo} > {hi}")
    return _round_out(
        _MINUS_INF if lo_inf else (lo.numerator, lo.denominator),
        _PLUS_INF if hi_inf else (hi.numerator, hi.denominator),
        fmt,
    )


# -- point operands ------------------------------------------------------------------


def point_op(op: OpKind, a: Fp, b: Fp) -> ExtInterval:
    """Hull of a op b for finite a and b of one format (b nonzero for
    division): the exact result as a point (lo is hi), or both sides of its
    rounding bracket.  A format binary64 does not hold (`FloatFormat.host`)
    takes the bound recipes.  Every other is decided as the paper's hardware
    would: one host float op gives r, binary64's nearest a op b (only
    `harness._native_mode` leaves round-to-nearest, around its own float
    ops), rounded once more to the format.  The format layer's flag rule
    (`fpformat._round_cut`, ties to even) rounds dropped bits and gives the
    flag, and a op b lies in r's gap of the format, as host rounding is
    monotone and the format's values are host floats; with none dropped, an
    integer comparison of |a op b| with |r| gives it, or says r is exact.
    The bracket is the format layer's (`fpformat._bracket`), one step from
    the nearest value even where the cut r is the other side, so every host
    format takes binary64's steps and the small formats' exhaustive suites
    check them.  Binary64's own overflow and underflow read as an r beyond
    M or below the least ulp."""
    fmt, _, na, ca, ea = a
    b_fmt, _, nb, cb, eb = b
    if fmt is not b_fmt and fmt != b_fmt:
        raise ValueError("operands use different formats")
    p, e_min, e_max, subnormals, host = fmt  # one unpacking, cheaper than four reads by name
    if not host:
        return apply_op(op, tuple.__new__(ExtInterval, (fmt, a, a)),
                        tuple.__new__(ExtInterval, (fmt, b, b)))
    if op is _SUB:
        nb = not nb
    # an operand on the host is c * 2**(e + s), and a zero has c = 0
    s = 1 - p
    xa, xb = ldexp(-ca if na else ca, ea + s), ldexp(-cb if nb else cb, eb + s)
    is_sum = op is _ADD or op is _SUB
    r = xa + xb if is_sum else xa * xb if op is _MUL else xa / xb
    negative = r < 0
    mag = abs(r)
    if 0.0 < mag < inf:  # r = c * 2**(e - 52), read as `Fp.from_float` reads it
        m, e = frexp(mag)
        c, e = int(m * 9007199254740992.0), e - 1  # m * 2**53 is exact
    elif r:  # binary64 overflowed: a op b lies beyond M
        c, e = 1, e_max + 1
    elif is_sum or not (ca and cb):  # exact for a sum (subnormals) or a zero operand
        zero = _build((fmt, _ZERO, False, 0, 0))
        return tuple.__new__(ExtInterval, (fmt, zero, zero))
    else:  # binary64 underflowed: a op b lies below the least value's ulp
        c, e, negative = 1, e_min - 53, na != nb
    if e > e_max:  # beyond M, where the infinity, one unit on, is nearest
        c, e, rest, unit = (1 << p) - 1, e_max, 1, 1
    else:  # cut r at the binade's ulp, or below e_min the subnormal ulp or the least normal
        drop = 53 - p
        if e < e_min:
            drop += e_min - e if subnormals else e_min - e + p - 1
            e = e_min
        rest = 0
        if drop:
            unit = 1 << drop
            rest = c & (unit - 1)
            c >>= drop
    if rest:  # the flag rule rounds r to nearest, ties to even
        c, e, flag = _round_cut(fmt, c, e, rest, unit, True)
        away = flag is _ROUNDED_UP
    else:  # r is nearest, and |a op b| against |r|, on integers, gives its flag
        if is_sum:  # at the least of the three exponents
            low = min(ea, eb, e)
            exact = abs(((-ca if na else ca) << (ea - low)) + ((-cb if nb else cb) << (eb - low)))
            rounded, shift = c, low - e
        elif op is _MUL:
            exact, rounded, shift = ca * cb, c, ea + eb + s - e
        else:
            exact, rounded, shift = ca, c * cb, ea - eb - e - s
        if shift >= 0:
            exact <<= shift
        else:
            rounded <<= -shift
        if exact == rounded:
            near = _build((fmt, _FINITE, negative, c, e))
            return tuple.__new__(ExtInterval, (fmt, near, near))
        away = exact < rounded
    lo, hi = _bracket(fmt, negative, c, e, away, False)
    return tuple.__new__(ExtInterval, (fmt, lo, hi))


# -- the one entry ---------------------------------------------------------------
# `apply_op` is the operations' one entry, and the operators of `ExtInterval`
# are its spelling.  Point operands (lo is hi, as `semantics.interpret` builds
# them) share one corner and go through `point_op`.


def apply_op(op: OpKind, x: ExtInterval, y: ExtInterval) -> ExtInterval:
    """Hull of the exact solution set of x op y for intervals of one format:
    the sums, the z with y + z = x, the products, or the z with y * z = x.
    Empty when either operand is; the format is checked first."""
    fmt, xlo, xhi = x
    yfmt, ylo, yhi = y
    if fmt is not yfmt and fmt != yfmt:
        raise ValueError("operands use different formats")
    if xlo is None or ylo is None:
        return ExtInterval.empty(fmt)
    if xlo is xhi and ylo is yhi and fmt.host and (op is not _DIV or ylo.kind is not _ZERO):
        return point_op(op, xlo, ylo)
    # a point's bounds are one object, and so are its exact ends
    xl, yl = _bound(xlo), _bound(ylo)
    xh, yh = xl if xhi is xlo else _bound(xhi), yl if yhi is ylo else _bound(yhi)
    if op is _ADD:
        return _round_out(_add_bound(xl, yl), _add_bound(xh, yh), fmt)
    if op is _SUB:  # [x.lo - y.hi, x.hi - y.lo]
        return _round_out(_add_bound(xl, (-yh[0], yh[1])), _add_bound(xh, (-yl[0], yl[1])), fmt)
    if op is _MUL:
        return _round_corners(_mul_bound, xl, xh, yl, yh, fmt)
    return _quotient(xl, xh, yl, yh, fmt)


def _quotient(xl: Bound, xh: Bound, yl: Bound, yh: Bound, fmt: FloatFormat) -> ExtInterval:
    """Hull of the relational quotient set {z | y * z = x} of non-empty
    operands with exact bounds [xl, xh] and [yl, yh].

    With zero outside the divisor this is ordinary corner division.  When
    both operands contain zero, z is arbitrary (witness x = y = 0).  A
    nonzero dividend with divisor exactly [0,0] has no solutions at all.
    Otherwise a divisor on both sides of zero gives the full line, and a
    divisor with zero as one end gives one half-line."""
    # a bound's sign is the sign of its numerator
    if not yl[0] <= 0 <= yh[0]:
        return _round_corners(_div_bound, xl, xh, yl, yh, fmt)
    if xl[0] <= 0 <= xh[0] or yl[0] < 0 < yh[0]:
        return ExtInterval.full_line(fmt)
    if yl[0] == 0 == yh[0]:
        return ExtInterval.empty(fmt)
    # one half-line: the dividend's end nearest zero over the divisor's
    # nonzero end, opening upward when the operands share a sign (taken from
    # the operands, as that quotient is 0 for an infinite divisor end)
    x_positive = xl[0] > 0
    y_end = yh if yh[0] else yl
    end = _div_bound(xl if x_positive else xh, y_end)
    if x_positive == (y_end[0] > 0):
        return _round_out(end, _PLUS_INF, fmt)
    return _round_out(_MINUS_INF, end, fmt)


def negate(x: ExtInterval) -> ExtInterval:
    """Exact mirror image; no rounding is involved.  The one operation that
    flips signs, so it keeps a zero bound at +0 itself."""
    fmt, lo, hi = x
    if lo is None:
        return x
    if lo is hi:
        p = lo if lo.kind is _ZERO else -lo
        return tuple.__new__(ExtInterval, (fmt, p, p))
    return tuple.__new__(ExtInterval, (fmt, hi if hi.kind is _ZERO else -hi,
                                       lo if lo.kind is _ZERO else -lo))


# -- predicates -----------------------------------------------------------------------


def member(q: Fraction, x: ExtInterval) -> bool:
    """Does the rational q lie in the set x denotes?"""
    if x.is_empty:
        return False
    return (x.lo.is_inf or x.lo_ext <= q) and (x.hi.is_inf or q <= x.hi_ext)


def subset(x: ExtInterval, y: ExtInterval) -> bool:
    """Set containment; the empty interval is a subset of everything."""
    if x.fmt is not y.fmt and x.fmt != y.fmt:
        raise ValueError("operands use different formats")
    if x.is_empty:
        return True
    if y.is_empty:
        return False
    return y.lo_ext <= x.lo_ext and x.hi_ext <= y.hi_ext


# -- text form --------------------------------------------------------------------------


def parse_interval(text: str, fmt: FloatFormat) -> ExtInterval:
    """Parse interval syntax: ``[a, b]``, ``[a, inf)``, ``(-inf, b]``,
    ``(-inf, inf)`` or ``empty``; endpoints are read by `Fp.from_text`, so
    they must be representable in the format.  ``(`` and ``)`` go only
    beside an infinity, ``[`` and ``]`` only beside a finite bound."""
    t = text.strip()
    if t == "empty":
        return ExtInterval.empty(fmt)
    if len(t) < 2 or t[0] not in "[(" or t[-1] not in "])":
        raise ValueError(f"bad interval syntax {text!r}")
    body = t[1:-1]
    if body.count(",") != 1:
        raise ValueError(f"bad interval syntax {text!r}")
    lo, hi = (Fp.from_text(fmt, part) for part in body.split(","))
    want = ("(" if lo.is_inf else "[", ")" if hi.is_inf else "]")
    for side, got, need in zip(("lower", "upper"), (t[0], t[-1]), want):
        if got != need:
            raise ValueError(f"bad interval syntax {text!r}: the {side} bound takes {need!r}")
    return ExtInterval(fmt, lo, hi)
