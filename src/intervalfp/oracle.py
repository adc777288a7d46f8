"""Brute-force reference semantics, independent of the interval module.

This path computes the full relational solution set of each operation by
sign-split case analysis in exact rational arithmetic (a set may have two
components, e.g. dividing by a straddling interval), then hulls it into
the format.  It deliberately shares none of the bound recipes in
interval.py: agreement between the two routes over entire enumerated
formats is the tightness evidence the test suites rest on.  `oracle_op`
takes `RealSet` or `ExtInterval` operands; `exhaustive_compare` builds each
value's meaning and its `RealSet` once per run, not once per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .fpformat import FloatFormat, Fp, RoundingDirection
from .interval import ExtInterval, OpKind
from .semantics import ZeroMode, fp_interval_op, interpret

Endpoint = Union[Fraction, float]  # float only as one of the two infinities

_NEG = -math.inf
_POS = math.inf


def _inf(v: Endpoint) -> bool:
    return isinstance(v, float)


@dataclass(frozen=True)
class RealSet:
    """A finite union of closed intervals over the extended reals, kept
    canonical: components disjoint, non-touching, in ascending order."""

    parts: tuple[tuple[Endpoint, Endpoint], ...]

    @staticmethod
    def empty() -> "RealSet":
        return RealSet(())

    @staticmethod
    def full() -> "RealSet":
        return RealSet(((_NEG, _POS),))

    @staticmethod
    def interval(lo: Endpoint, hi: Endpoint) -> "RealSet":
        if not _inf(lo) and not _inf(hi) and lo > hi:
            raise ValueError(f"reversed endpoints {lo} > {hi}")
        return RealSet(((lo, hi),))

    @staticmethod
    def union(pieces) -> "RealSet":
        """Normalise a collection of (lo, hi) pieces."""
        items = sorted(pieces, key=lambda p: (p[0], p[1]))
        merged: list[tuple[Endpoint, Endpoint]] = []
        for lo, hi in items:
            if merged and lo <= merged[-1][1]:
                last_lo, last_hi = merged[-1]
                merged[-1] = (last_lo, max(last_hi, hi))
            else:
                merged.append((lo, hi))
        return RealSet(tuple(merged))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, q: Fraction) -> bool:
        return any((_inf(lo) or lo <= q) and (_inf(hi) or q <= hi) for lo, hi in self.parts)

    def bounds(self) -> tuple[Endpoint, Endpoint]:
        if self.is_empty:
            raise ValueError("empty set has no bounds")
        return self.parts[0][0], self.parts[-1][1]

    def __str__(self):
        if self.is_empty:
            return "{}"
        return " u ".join(f"[{lo}, {hi}]" for lo, hi in self.parts)


# -- exact solution sets ------------------------------------------------------


def exact_relational_set(x: RealSet, y: RealSet, op: OpKind) -> RealSet:
    """Solution set of the operation's defining relation over single-interval
    operands: for division that is every z with y*z = x, including what the
    zero divisors contribute."""
    for s in (x, y):
        if len(s.parts) > 1:
            raise ValueError("operands must be single intervals")
    if x.is_empty or y.is_empty:
        return RealSet.empty()
    (xl, xh), (yl, yh) = x.parts[0], y.parts[0]
    if op is OpKind.ADD:
        return RealSet.interval(_sum_lo(xl, yl), _sum_hi(xh, yh))
    if op is OpKind.SUB:
        return RealSet.interval(_sum_lo(xl, -yh), _sum_hi(xh, -yl))
    if op is OpKind.MUL:
        return _mul_set(xl, xh, yl, yh)
    return _div_set(xl, xh, yl, yh)


def _sum_lo(a: Endpoint, b: Endpoint) -> Endpoint:
    if _inf(a) or _inf(b):
        return _NEG
    return a + b


def _sum_hi(a: Endpoint, b: Endpoint) -> Endpoint:
    if _inf(a) or _inf(b):
        return _POS
    return a + b


def _prod(a: Endpoint, b: Endpoint) -> Endpoint:
    # only called on sign-pure factors, where a zero factor pins the product
    if a == 0 or b == 0:
        return Fraction(0)
    if _inf(a) or _inf(b):
        return _POS if (a > 0) == (b > 0) else _NEG
    return a * b


def _mul_set(xl, xh, yl, yh) -> RealSet:
    """Image of multiplication, as the union over sign-pure sub-boxes where
    the product is monotone and attains its bounds at the stated corners."""
    x_parts = []
    if xl <= 0:
        x_parts.append((xl, min(xh, Fraction(0)), True))  # nonpositive piece
    if xh >= 0:
        x_parts.append((max(xl, Fraction(0)), xh, False))
    y_parts = []
    if yl <= 0:
        y_parts.append((yl, min(yh, Fraction(0)), True))
    if yh >= 0:
        y_parts.append((max(yl, Fraction(0)), yh, False))
    pieces = []
    for al, ah, a_neg in x_parts:
        for bl, bh, b_neg in y_parts:
            if a_neg and b_neg:
                pieces.append((_prod(ah, bh), _prod(al, bl)))
            elif a_neg:
                pieces.append((_prod(al, bh), _prod(ah, bl)))
            elif b_neg:
                pieces.append((_prod(ah, bl), _prod(al, bh)))
            else:
                pieces.append((_prod(al, bl), _prod(ah, bh)))
    return RealSet.union(pieces)


def _quot(a: Endpoint, b: Endpoint) -> Endpoint:
    # b is a positive divisor bound; finite dividends over an unbounded
    # divisor range approach zero
    if _inf(b):
        return Fraction(0)
    if _inf(a):
        return _POS if a > 0 else _NEG
    return a / b


def _div_by_positive(xl, xh, yl, yh) -> Optional[tuple[Endpoint, Endpoint]]:
    """Closure of { x/y : x in X, y in Y, y > 0 }, or None when Y has no
    positive part.  Divisors reach down to max(yl, 0), exclusive when that
    is zero, which is what sends quotients to an infinity."""
    if yh <= 0:
        return None
    open_at_zero = yl <= 0
    y_low = Fraction(0) if open_at_zero else yl
    if xh > 0:
        hi = _POS if open_at_zero else _quot(xh, y_low)
    elif xh == 0:
        hi = Fraction(0)
    else:
        hi = _quot(xh, yh)
    if xl < 0:
        lo = _NEG if open_at_zero else _quot(xl, y_low)
    elif xl == 0:
        lo = Fraction(0)
    else:
        lo = _quot(xl, yh)
    return lo, hi


def _div_set(xl, xh, yl, yh) -> RealSet:
    if yl <= 0 <= yh and xl <= 0 <= xh:
        # witness y = 0, x = 0 admits every z
        return RealSet.full()
    pieces = []
    pos = _div_by_positive(xl, xh, yl, yh)
    if pos is not None:
        pieces.append(pos)
    neg = _div_by_positive(xl, xh, -yh, -yl)
    if neg is not None:
        lo, hi = neg
        pieces.append((-hi, -lo))
    if not pieces:
        return RealSet.empty()
    return RealSet.union(pieces)


# -- hulled comparison against the implementation -----------------------------------


def _to_real_set(x: ExtInterval) -> RealSet:
    if x.is_empty:
        return RealSet.empty()
    return RealSet.interval(x.lo_ext, x.hi_ext)


def oracle_op(x: Union[RealSet, ExtInterval], y: Union[RealSet, ExtInterval], op: OpKind,
              fmt: FloatFormat) -> ExtInterval:
    """Format hull of the exact relational set; the reference for tightness.
    Each operand is a `RealSet`, or an `ExtInterval` that is converted here."""
    x = _to_real_set(x) if isinstance(x, ExtInterval) else x
    y = _to_real_set(y) if isinstance(y, ExtInterval) else y
    solution = exact_relational_set(x, y, op)
    if solution.is_empty:
        return ExtInterval.empty(fmt)
    lo, hi = solution.bounds()
    lo_fp = Fp.inf(fmt, negative=True) if _inf(lo) else fmt.round(lo, RoundingDirection.TO_NEG_INF)
    hi_fp = Fp.inf(fmt) if _inf(hi) else fmt.round(hi, RoundingDirection.TO_POS_INF)
    return ExtInterval.make(lo_fp, hi_fp)


@dataclass(frozen=True)
class Mismatch:
    fmt: FloatFormat
    op: OpKind
    a: Fp
    b: Fp
    mode: ZeroMode
    got: ExtInterval
    expected: ExtInterval

    def __str__(self):
        return (
            f"{self.fmt.descriptor()} {self.op.value} {self.a} {self.b} "
            f"{self.mode.value} {self.got} {self.expected}"
        )


def exhaustive_compare(fmt: FloatFormat, mode: ZeroMode) -> list[Mismatch]:
    """Compare the interval implementation against the oracle over every
    ordered pair of format values (NaN included in infinite-zero mode,
    where it means the empty set) and all four operations.  An empty
    report is the tightness contract.  Each value's meaning and its
    `RealSet` are built once, before the pairs, and dropped on return."""
    values = list(fmt.enumerate())
    if mode is ZeroMode.INFINITE:
        values.append(Fp.nan(fmt))
    table = [(v, _to_real_set(interpret(v, mode))) for v in values]
    report = []
    for op in OpKind:
        for a, sa in table:
            for b, sb in table:
                got = fp_interval_op(a, b, op, mode)
                expected = oracle_op(sa, sb, op, fmt)
                if got != expected:
                    report.append(Mismatch(fmt, op, a, b, mode, got, expected))
    return report
