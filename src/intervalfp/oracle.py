"""Brute-force reference semantics, independent of the interval module.

This path computes the full relational solution set of each operation by
sign-split case analysis (a set may have two components, e.g. dividing by
a straddling interval), then hulls it into the format.  It shares none of
the bound recipes in interval.py; with the implementation it shares the
construction of values and results (`Fp`, `ExtInterval`), and nothing of
rounding or meanings.  It states each value's meaning from the paper and
checks `interpret` against it as it checks `fp_interval_op`, and it rounds
from the definition (`round_scaled`), as `harness.ieee_reference` does.
Every value is an integer multiple of its format's least step 2**k, so a
meaning is a `RealSet` of ints in units of 2**k: a sum is an int at that
scale, a product one at 2**2k and a quotient a `Fraction` at scale 1.
`exhaustive_compare` keeps a table of hulls for the length of one call, so
each distinct exact set is rounded once per run, however many pairs share it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .fpformat import FloatFormat, Fp, FpKind
from .interval import ExtInterval, OpKind
from .semantics import ZeroMode, fp_interval_op, interpret

Endpoint = Union[int, Fraction, float]  # float only as one of the two infinities

_NEG = -math.inf
_POS = math.inf
# module names for the enum members read on every pair (a member read
# through its class costs a lookup each time)
_FINITE, _ZERO, _INF, _NAN = FpKind.FINITE, FpKind.ZERO, FpKind.INF, FpKind.NAN
_ADD, _SUB, _MUL, _DIV = OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV


def _inf(v: Endpoint) -> bool:
    return isinstance(v, float)


class RealSet(NamedTuple):
    """A finite union of closed intervals over the extended reals, kept
    canonical: components disjoint, non-touching, in ascending order.  An
    endpoint v stands for the real v * 2**scale, so a set carries its unit."""

    parts: tuple[tuple[Endpoint, Endpoint], ...]
    scale: int = 0

    @staticmethod
    def full() -> "RealSet":
        return RealSet(((_NEG, _POS),))

    @staticmethod
    def interval(lo: Endpoint, hi: Endpoint, scale: int = 0) -> "RealSet":
        if not _inf(lo) and not _inf(hi) and lo > hi:
            raise ValueError(f"reversed endpoints {lo} > {hi}")
        return RealSet(((lo, hi),), scale)

    @staticmethod
    def union(pieces, scale: int = 0) -> "RealSet":
        """Normalise a collection of (lo, hi) pieces."""
        merged: list[tuple[Endpoint, Endpoint]] = []
        for lo, hi in sorted(pieces):  # by lo, then hi
            if merged and lo <= merged[-1][1]:
                last_lo, last_hi = merged[-1]
                merged[-1] = (last_lo, max(last_hi, hi))
            else:
                merged.append((lo, hi))
        return RealSet(tuple(merged), scale)

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, q: Fraction) -> bool:
        """Whether the real q lies in the set."""
        q = q / Fraction(2) ** self.scale
        return any((_inf(lo) or lo <= q) and (_inf(hi) or q <= hi) for lo, hi in self.parts)

    def __str__(self):
        unit = Fraction(2) ** self.scale
        real = [[v if _inf(v) else v * unit for v in part] for part in self.parts]
        return " u ".join(f"[{lo}, {hi}]" for lo, hi in real) or "{}"


# -- exact solution sets ------------------------------------------------------


def exact_relational_set(x: RealSet, y: RealSet, op: OpKind) -> RealSet:
    """Solution set of the operation's defining relation over single-interval
    operands: for division that is every z with y*z = x, including what the
    zero divisors contribute.  A sum keeps the unit the operands share, a
    product's scale is the sum of theirs and a quotient's the difference."""
    (x_parts, x_scale), (y_parts, y_scale) = x, y
    if len(x_parts) > 1 or len(y_parts) > 1:
        raise ValueError("operands must be single intervals")
    if op is _MUL:
        scale = x_scale + y_scale
    elif op is _DIV:
        scale = x_scale - y_scale
    elif x_scale != y_scale:
        raise ValueError(f"operands in units of 2**{x_scale} and 2**{y_scale}")
    else:
        scale = x_scale
    if not x_parts or not y_parts:
        return RealSet((), scale)
    (xl, xh), = x_parts
    (yl, yh), = y_parts
    if op is _ADD or op is _SUB:
        if op is _SUB:
            yl, yh = -yh, -yl
        # an infinite end of either operand leaves that side unbounded
        lo = _NEG if isinstance(xl, float) or isinstance(yl, float) else xl + yl
        hi = _POS if isinstance(xh, float) or isinstance(yh, float) else xh + yh
        return RealSet(((lo, hi),), scale)
    if op is _MUL:
        if xl == xh and yl == yh:  # two points: their one product
            p = _prod(xl, yl)
            return RealSet(((p, p),), scale)
        return RealSet.union(_mul_pieces(xl, xh, yl, yh), scale)
    return RealSet.union(_div_pieces(xl, xh, yl, yh), scale)


def _prod(a: Endpoint, b: Endpoint) -> Endpoint:
    # only called on sign-pure factors (a point is one), where a zero factor
    # pins the product
    if a == 0 or b == 0:
        return 0
    if isinstance(a, float) or isinstance(b, float):
        return _POS if (a > 0) == (b > 0) else _NEG
    return a * b


def _signed(lo: Endpoint, hi: Endpoint) -> list:
    """The nonpositive and the nonnegative piece of [lo, hi] that exist,
    each with whether it is the nonpositive one."""
    nonpositive = [(lo, min(hi, 0), True)] if lo <= 0 else []
    return nonpositive + ([(max(lo, 0), hi, False)] if hi >= 0 else [])


def _mul_pieces(xl, xh, yl, yh) -> list:
    """Image of multiplication, as the union over sign-pure sub-boxes where
    the product is monotone: the least corner takes each factor's upper end
    where the other factor is nonpositive, else its lower end, and the
    greatest corner the other ends."""
    return [(_prod(ah if b_neg else al, bh if a_neg else bl),
             _prod(al if b_neg else ah, bl if a_neg else bh))
            for al, ah, a_neg in _signed(xl, xh) for bl, bh, b_neg in _signed(yl, yh)]


def _quot(a: Endpoint, b: Endpoint) -> Endpoint:
    # b is a positive divisor bound; finite dividends over an unbounded
    # divisor range approach zero
    if isinstance(b, float):
        return 0
    if isinstance(a, float):
        return _POS if a > 0 else _NEG
    return Fraction(a, b)


def _div_by_positive(xl, xh, yl, yh) -> Optional[tuple[Endpoint, Endpoint]]:
    """Closure of { x/y : x in X, y in Y, y > 0 }, or None when Y has no
    positive part.  Divisors reach down to max(yl, 0), exclusive when that
    is zero, which is what sends quotients to an infinity."""
    if yh <= 0:
        return None
    if xl == xh and yl == yh:  # a point over a positive point: one quotient
        q = _quot(xl, yl) if xl else 0
        return q, q
    open_at_zero = yl <= 0
    hi = (_POS if open_at_zero else _quot(xh, yl)) if xh > 0 else _quot(xh, yh) if xh < 0 else 0
    lo = (_NEG if open_at_zero else _quot(xl, yl)) if xl < 0 else _quot(xl, yh) if xl > 0 else 0
    return lo, hi


def _div_pieces(xl, xh, yl, yh) -> list:
    if yl <= 0 <= yh and xl <= 0 <= xh:
        # witness y = 0, x = 0 admits every z
        return [(_NEG, _POS)]
    # over the negative divisors, x / y is (-x) / (-y)
    pieces = _div_by_positive(xl, xh, yl, yh), _div_by_positive(-xh, -xl, -yh, -yl)
    return [piece for piece in pieces if piece]


# -- values, meanings and rounding in units of the least step -----------------


def least_step(fmt: FloatFormat) -> int:
    """k such that every value of the format is an integer multiple of 2**k."""
    return fmt.e_min - fmt.precision + 1


def units(x: Fp) -> Endpoint:
    """A datum other than NaN in units of 2**least_step; an infinity as itself."""
    fmt, kind, negative, c, e = x
    if kind is _INF:
        return _NEG if negative else _POS
    v = c << (e - fmt.e_min) if kind is _FINITE else 0
    return -v if negative else v


def _meaning(x: Fp, mode: ZeroMode) -> RealSet:
    """The set of reals a datum stands for, from the paper: a finite value
    is its point, +inf is [M, +inf) and -inf its mirror.  With finite-width
    zeros +0 is [0, m] and -0 its mirror; with infinite-width zeros both are
    the point 0 and NaN is the empty set."""
    fmt, kind, negative = x.fmt, x.kind, x.negative
    k = least_step(fmt)
    if kind is _NAN:
        if mode is ZeroMode.FINITE:
            raise ValueError("NaN has no meaning with finite-width zeros")
        return RealSet((), k)
    if kind is _FINITE or (kind is _ZERO and mode is ZeroMode.INFINITE):
        return RealSet(((units(x), units(x)),), k)
    if kind is _INF:
        lo, hi = ((1 << fmt.precision) - 1) << (fmt.e_max - fmt.e_min), _POS
    else:
        lo, hi = 0, 1 if fmt.subnormals else 1 << (fmt.precision - 1)
    return RealSet(((-hi, -lo) if negative else (lo, hi),), k)


def _to_real_set(x: ExtInterval) -> RealSet:
    """An interval as a `RealSet` in units of 2**least_step."""
    k = least_step(x.fmt)
    return RealSet((), k) if x.is_empty else RealSet.interval(units(x.lo), units(x.hi), k)


def round_scaled(v: Union[int, Fraction], s: int, fmt: FloatFormat, up: Optional[bool]) -> Fp:
    """v * 2**s rounded down to the format, up when `up`, or to nearest when
    `up` is None.  A side of |v| * 2**s is the floor (or ceiling) over the
    ulp of its binade: with the subnormal step, or zero below m without
    subnormals, a carry into the next binade, and saturation to M or an
    infinity.  Nearest compares with the sides' midpoint, an infinity
    standing at 2**(e_max + 1) (so overflow starts at M + ulp/2); a tie goes
    to the even significand, a zero or an infinity counting as even.  0
    gives +0, and a value that rounds to zero keeps its sign."""
    n, d = v.numerator, v.denominator
    if n == 0:
        return Fp(fmt, _ZERO)
    negative, n = n < 0, abs(n)
    if up is not None:
        return _side(n, d, s, fmt, up != negative, negative)
    lo, hi = _side(n, d, s, fmt, False, negative), _side(n, d, s, fmt, True, negative)
    top = 1 << (fmt.e_max - fmt.e_min + fmt.precision)  # 2**(e_max + 1) in units
    mid = abs(units(lo)) + (top if hi.kind is _INF else abs(units(hi)))
    shift = s - least_step(fmt) + 1  # compare 2 * n/d * 2**s with mid * 2**k
    twice, mid = (n << shift, mid * d) if shift >= 0 else (n, mid * d << -shift)
    if twice == mid:
        return hi if lo.c & 1 else lo  # a zero has c = 0
    return lo if twice < mid else hi


def _side(n: int, d: int, s: int, fmt: FloatFormat, away: bool, negative: bool) -> Fp:
    """n/d * 2**s (n, d > 0) rounded toward zero, or away from zero when
    `away`, as a datum of the given sign."""
    p, e_min, e_max = fmt.precision, fmt.e_min, fmt.e_max
    t = n.bit_length() - d.bit_length()  # floor(log2(n/d)) is t or t - 1
    if (n < d << t) if t >= 0 else (n << -t < d):
        t -= 1
    e = t + s
    if e > e_max:
        return Fp(fmt, _INF, negative) if away else Fp(fmt, _FINITE, negative, (1 << p) - 1, e_max)
    if e < e_min and not fmt.subnormals:
        return Fp(fmt, _FINITE, negative, 1 << (p - 1), e_min) if away else Fp(fmt, _ZERO, negative)
    e = max(e, e_min)
    shift = s - e + p - 1  # the ulp of the binade is 2**(e - p + 1)
    c, r = divmod(n << shift, d) if shift >= 0 else divmod(n, d << -shift)
    if away and r:
        c += 1
        if c >> p:  # carried into the next binade, or past M into the infinity
            c, e = c >> 1, e + 1
            if e > e_max:
                return Fp(fmt, _INF, negative)
    return Fp(fmt, _FINITE, negative, c, e) if c else Fp(fmt, _ZERO, negative)


# -- hulled comparison against the implementation -----------------------------------


def oracle_op(x: Union[RealSet, ExtInterval], y: Union[RealSet, ExtInterval], op: OpKind,
              fmt: FloatFormat, hulls: Optional[dict] = None) -> ExtInterval:
    """Format hull of the exact relational set; the reference for tightness.
    Each operand is a `RealSet`, or an `ExtInterval` that is converted here.
    `hulls`, when given, is the caller's table of hulls in this format, keyed
    by the set's least and greatest endpoint and its scale (all the hull
    reads of the set), or by its one value and scale for a point: a set
    whose key is there is not rounded again."""
    if isinstance(x, ExtInterval):
        x = _to_real_set(x)
    if isinstance(y, ExtInterval):
        y = _to_real_set(y)
    parts, scale = exact_relational_set(x, y, op)
    if not parts:
        return ExtInterval.empty(fmt)
    lo, hi = parts[0][0], parts[-1][1]
    if hulls is None:
        return _hull(lo, hi, scale, fmt)
    # one value in the key hashes a point quotient's Fraction once, not twice
    key = (lo, scale) if lo is hi or lo == hi else (lo, hi, scale)
    hull = hulls.get(key)
    if hull is None:
        hull = hulls[key] = _hull(lo, hi, scale, fmt)
    return hull


def _hull(lo: Endpoint, hi: Endpoint, s: int, fmt: FloatFormat) -> ExtInterval:
    """[lo * 2**s, hi * 2**s] rounded outward to the format."""
    lo_fp = Fp(fmt, _INF, True) if isinstance(lo, float) else round_scaled(lo, s, fmt, False)
    hi_fp = Fp(fmt, _INF) if isinstance(hi, float) else round_scaled(hi, s, fmt, True)
    return ExtInterval.make(lo_fp, hi_fp)


class Mismatch(NamedTuple):
    fmt: FloatFormat
    op: OpKind
    a: Fp
    b: Fp
    mode: ZeroMode
    got: ExtInterval
    expected: ExtInterval

    def __str__(self):
        return (f"{self.fmt.descriptor()} {self.op.value} {self.a} {self.b} "
                f"{self.mode.value} {self.got} {self.expected}")


class MeaningMismatch(NamedTuple):
    """A value whose `interpret` set is not the meaning the oracle states."""

    fmt: FloatFormat
    value: Fp
    mode: ZeroMode
    got: RealSet
    expected: RealSet

    def __str__(self):
        return (f"{self.fmt.descriptor()} meaning of {self.value} {self.mode.value}: "
                f"interpret {self.got}, oracle {self.expected}")


def exhaustive_compare(fmt: FloatFormat, mode: ZeroMode) -> list[Union[MeaningMismatch, Mismatch]]:
    """Compare each value's `interpret` set with the oracle's meaning, then
    the implementation with the oracle over every ordered pair of values
    (NaN included in infinite-zero mode, where it means the empty set) and
    all four operations.  An empty report is the tightness contract.  The
    meanings are built once, before the pairs, and so is a table of hulls
    that `oracle_op` fills: each distinct exact set is rounded once per
    call, and both are dropped on return."""
    values = list(fmt.enumerate())
    if mode is ZeroMode.INFINITE:
        values.append(Fp.nan(fmt))
    report, table, hulls = [], [], {}
    for v in values:
        own, got = _meaning(v, mode), _to_real_set(interpret(v, mode))
        if got != own:
            report.append(MeaningMismatch(fmt, v, mode, got, own))
        table.append((v, own))
    for op in OpKind:
        for a, sa in table:
            for b, sb in table:
                got = fp_interval_op(a, b, op, mode)
                expected = oracle_op(sa, sb, op, fmt, hulls)
                if got != expected:
                    report.append(Mismatch(fmt, op, a, b, mode, got, expected))
    return report
