"""Parametric binary floating-point formats with exact rational rounding.

A format is described by its precision (significand bits including the
hidden bit), an exponent range, and a subnormal toggle.  Values are kept
in an exact canonical encoding with one sign bit on every datum except NaN,
so every finite number converts to a `fractions.Fraction` without loss.

Rounding follows the reading of the paper: a rational lies in one bracket
of adjacent format values, and every rounding direction selects one side of
that bracket.  The bracket, and the side round-to-nearest takes, are decided
by integer division and remainder comparison only.  Tiny formats can be
enumerated exhaustively, which is what the verification suites rely on;
binary64 is just another instance of the same machinery.

Literal text is read as integers, a sign, a significand and powers of two
and ten (`decode_literal`), and rounded in one bracket (`round_literal`).
A literal beyond the range is replaced by a power of two in the same
bracket before any power is built, so hostile exponents cost only their
digits.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Union

RationalLike = Union[Fraction, int]

# Formats with more values than this refuse to enumerate.
ENUMERATION_LIMIT = 1 << 24


class DomainError(ValueError):
    """An operation was applied to a value outside its domain (NaN, wrong infinity)."""


class EnumerationLimitError(ValueError):
    """The format has too many values to enumerate exhaustively."""


class RoundingDirection(Enum):
    TO_NEG_INF = "down"
    TO_POS_INF = "up"
    TO_ZERO = "zero"
    NEAREST = "nearest"


class FpKind(Enum):
    """What a datum is; its sign is `Fp.negative`, never part of the kind."""

    FINITE = "finite"  # finite and nonzero
    ZERO = "zero"
    INF = "inf"
    NAN = "nan"


# An Enum member read through its class costs about 0.1 us on CPython 3.11,
# so the per-op paths read this module name instead.
_FINITE = FpKind.FINITE


@dataclass(frozen=True)
class FloatFormat:
    """A binary float format: precision bits, exponent range, subnormal toggle."""

    precision: int
    e_min: int
    e_max: int
    subnormals: bool = True

    def __post_init__(self):
        if self.precision < 2:
            raise ValueError("precision must be at least 2")
        if self.e_min > self.e_max:
            raise ValueError("e_min must not exceed e_max")

    # -- derived constants -------------------------------------------------

    def value_count(self) -> int:
        """Number of distinct values: finites, two zeros, two infinities (no NaN)."""
        per_exp = 1 << (self.precision - 1)
        n_pos = (self.e_max - self.e_min + 1) * per_exp
        if self.subnormals:
            n_pos += per_exp - 1
        return 2 * n_pos + 4

    def max_finite(self) -> "Fp":
        """Greatest finite value of the format."""
        return _max_finite(self)

    def min_pos(self) -> "Fp":
        """Least value strictly greater than zero (subnormal when enabled)."""
        return _min_pos(self)

    # -- rounding ----------------------------------------------------------

    def round(self, q: RationalLike, direction: RoundingDirection) -> "Fp":
        """Round an exact rational to the format: one side of the bracket
        of adjacent format values around q.

        Down takes the lower side, up the upper, toward zero the side nearer
        zero, and nearest the closer side with ties to the even significand.
        Total: overflow saturates to the greatest finite value or to an
        infinity depending on direction, and an exact zero comes out as +0
        (a negative value collapsing to zero yields -0)."""
        lo, hi, near_hi = _bracket(self, q.numerator, q.denominator)
        if direction is RoundingDirection.TO_NEG_INF:
            return lo
        if direction is RoundingDirection.TO_POS_INF:
            return hi
        if direction is RoundingDirection.TO_ZERO:
            return hi if q.numerator < 0 else lo
        return hi if near_hi else lo

    def round_both(self, q: RationalLike) -> tuple["Fp", "Fp"]:
        """(round down, round up): both sides of the one bracket."""
        lo, hi, _ = _bracket(self, q.numerator, q.denominator)
        return lo, hi

    # -- enumeration ---------------------------------------------------------

    def enumerate(self) -> list["Fp"]:
        """All values in ascending order: -inf, negatives, -0, +0, positives, +inf.

        NaN is excluded.  Refuses formats beyond ENUMERATION_LIMIT values."""
        if self.value_count() > ENUMERATION_LIMIT:
            raise EnumerationLimitError(
                f"{self.descriptor()} has {self.value_count()} values; "
                f"limit is {ENUMERATION_LIMIT}"
            )
        half = 1 << (self.precision - 1)
        pos = []
        if self.subnormals:
            pos.extend(Fp(self, FpKind.FINITE, False, c, self.e_min) for c in range(1, half))
        for e in range(self.e_min, self.e_max + 1):
            pos.extend(Fp(self, FpKind.FINITE, False, c, e) for c in range(half, 2 * half))
        neg = [-x for x in reversed(pos)]
        return (
            [Fp.inf(self, negative=True)]
            + neg
            + [Fp.zero(self, negative=True), Fp.zero(self)]
            + pos
            + [Fp.inf(self)]
        )

    # -- text form -----------------------------------------------------------

    def descriptor(self) -> str:
        if self == BINARY64:
            return "b64"
        text = f"p{self.precision}e{self.e_min}:{self.e_max}"
        return text if self.subnormals else text + "ns"

    def __repr__(self):
        return f"FloatFormat({self.descriptor()!r})"


_FORMAT_RE = re.compile(r"^p(\d+)e(-?\d+):(-?\d+)(ns)?$")


def parse_format(text: str) -> FloatFormat:
    """Parse a format descriptor: ``b64`` or ``p<P>e<EMIN>:<EMAX>[ns]``."""
    text = text.strip()
    if text == "b64":
        return BINARY64
    m = _FORMAT_RE.match(text)
    if not m:
        raise ValueError(f"bad format descriptor {text!r}")
    return FloatFormat(int(m.group(1)), int(m.group(2)), int(m.group(3)), m.group(4) is None)


@dataclass(frozen=True, slots=True)
class Fp:
    """One datum of a format: a finite nonzero value, a zero, an infinity,
    or NaN.

    `negative` is the one sign bit of every datum, zeros and infinities
    included; NaN is unsigned (`negative` is False).  Finite nonzero values
    satisfy ``value = (-1)**negative * c * 2**(e - p + 1)`` with the
    canonical constraint that c has exactly p bits (normal) or e is the
    minimum exponent and c has fewer (subnormal).  Each representable real
    has exactly one encoding, so dataclass equality is value identity, with
    +0 and -0 distinct.
    """

    fmt: FloatFormat
    kind: FpKind
    negative: bool = False
    c: int = 0
    e: int = 0

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(fmt: FloatFormat, negative: bool = False) -> "Fp":
        return Fp(fmt, FpKind.ZERO, negative)

    @staticmethod
    def inf(fmt: FloatFormat, negative: bool = False) -> "Fp":
        return Fp(fmt, FpKind.INF, negative)

    @staticmethod
    def nan(fmt: FloatFormat) -> "Fp":
        return Fp(fmt, FpKind.NAN)

    @staticmethod
    def from_exact(fmt: FloatFormat, q: RationalLike) -> "Fp":
        """Encode a rational that is exactly representable (a bracket with
        one side); raise otherwise."""
        lo, hi, _ = _bracket(fmt, q.numerator, q.denominator)
        if lo is not hi:
            raise ValueError(
                f"{short_decimal(q.numerator, q.denominator)} is not representable in "
                f"{fmt.descriptor()}"
            )
        return lo

    @staticmethod
    def from_float(fmt: FloatFormat, x: float) -> "Fp":
        """Encode a host float (exact for binary64)."""
        if fmt is BINARY64 or fmt == BINARY64:
            return _fp_from_bits64(fmt, _f64_bits(x))
        if math.isnan(x):
            return Fp.nan(fmt)
        if math.isinf(x):
            return Fp.inf(fmt, negative=x < 0)
        if x == 0.0:
            return Fp.zero(fmt, negative=math.copysign(1.0, x) < 0)
        return Fp.from_exact(fmt, Fraction(*x.as_integer_ratio()))

    @staticmethod
    def from_text(fmt: FloatFormat, text: str) -> "Fp":
        """The inverse of str: an optional sign, then ``inf``, ``nan``, or a
        decimal or hex-float literal the format holds exactly.  A zero keeps
        its sign and NaN is unsigned; inexact or malformed text raises
        ValueError."""
        negative, body = _split_sign(text)
        if body == "inf":
            return Fp.inf(fmt, negative)
        if body == "nan":
            return Fp.nan(fmt)
        parts = decode_literal(text)
        nearest, exact = round_literal(fmt, *parts)
        if not exact:
            raise ValueError(
                f"{short_literal(fmt, *parts)} is not representable in {fmt.descriptor()}"
            )
        return nearest

    # -- predicates ------------------------------------------------------------

    @property
    def is_nan(self) -> bool:
        return self.kind is FpKind.NAN

    @property
    def is_inf(self) -> bool:
        return self.kind is FpKind.INF

    @property
    def is_zero(self) -> bool:
        return self.kind is FpKind.ZERO

    @property
    def is_finite(self) -> bool:
        return self.kind is FpKind.FINITE or self.kind is FpKind.ZERO

    # -- conversions -------------------------------------------------------------

    def to_rational(self) -> Fraction:
        """Exact value of a finite datum (both zeros give 0)."""
        if self.kind is not FpKind.FINITE:
            if self.is_zero:
                return Fraction(0)
            raise DomainError(f"{self} has no rational value")
        s = self.e - self.fmt.precision + 1
        mag = Fraction(self.c << s) if s >= 0 else Fraction(self.c, 1 << -s)
        return -mag if self.negative else mag

    def to_float(self) -> float:
        """Host-float value (exact when the format fits in binary64)."""
        k = self.kind
        if k is _FINITE:
            mag = math.ldexp(self.c, self.e - self.fmt.precision + 1)
        elif k is FpKind.ZERO:
            mag = 0.0
        elif k is FpKind.INF:
            mag = math.inf
        else:
            return math.nan
        return -mag if self.negative else mag

    # -- neighbours ----------------------------------------------------------------

    def next_up(self) -> "Fp":
        """Successor in the value order, with -0 immediately below +0.

        next_up(M) is +inf and next_up(-inf) is -M; NaN and +inf have no
        successor."""
        k = self.kind
        if k is FpKind.NAN or (k is FpKind.INF and not self.negative):
            raise DomainError(f"next_up undefined for {self}")
        if self.negative:
            if k is FpKind.INF:
                return -self.fmt.max_finite()
            if k is FpKind.ZERO:
                return Fp.zero(self.fmt)
            return self.toward_zero()
        if k is FpKind.ZERO:
            return self.fmt.min_pos()
        return self.away_from_zero()

    def next_down(self) -> "Fp":
        """Predecessor in the same order: the mirror -next_up(-x).  NaN and
        -inf have no predecessor."""
        if self.is_nan or (self.is_inf and self.negative):
            raise DomainError(f"next_down undefined for {self}")
        return -(-self).next_up()

    def away_from_zero(self) -> "Fp":
        """The neighbour of a finite nonzero value one unit further from
        zero, with its sign: past M comes the infinity."""
        fmt = self.fmt
        c, e = self.c + 1, self.e
        if c == 1 << fmt.precision:
            c, e = 1 << (fmt.precision - 1), e + 1
            if e > fmt.e_max:
                return Fp.inf(fmt, self.negative)
        return Fp(fmt, _FINITE, self.negative, c, e)

    def toward_zero(self) -> "Fp":
        """The neighbour of a finite nonzero value one unit nearer zero,
        with its sign: below the least positive value comes the zero."""
        fmt = self.fmt
        half = 1 << (fmt.precision - 1)
        c, e = self.c - 1, self.e
        if c >= half:
            return Fp(fmt, _FINITE, self.negative, c, e)
        if e > fmt.e_min:
            return Fp(fmt, _FINITE, self.negative, 2 * half - 1, e - 1)
        if fmt.subnormals and c >= 1:
            return Fp(fmt, _FINITE, self.negative, c, e)
        return Fp.zero(fmt, self.negative)

    # -- arithmetic-free helpers ------------------------------------------------------

    def __neg__(self) -> "Fp":
        """Flip the sign bit; NaN is unsigned and negates to itself."""
        if self.kind is FpKind.NAN:
            return self
        return Fp(self.fmt, self.kind, not self.negative, self.c, self.e)

    # -- text form ----------------------------------------------------------------------

    def decimal_str(self) -> str:
        """Exact decimal expansion of a finite value (may be long)."""
        return exact_decimal(self.to_rational())

    def hex_str(self) -> str:
        """C-style hex float; subnormals print with a leading 0 digit."""
        if self.kind is not FpKind.FINITE:
            raise DomainError(f"{self} has no hex form")
        fmt = self.fmt
        half = 1 << (fmt.precision - 1)
        lead, frac, e = (1, self.c - half, self.e) if self.c >= half else (0, self.c, self.e)
        fracbits = fmt.precision - 1
        nibbles = (fracbits + 3) // 4
        fracint = frac << (4 * nibbles - fracbits)
        sign = "-" if self.negative else ""
        body = f"0x{lead:d}"
        if nibbles:
            body += f".{fracint:0{nibbles}x}"
        return f"{sign}{body}p{e:+d}"

    def __str__(self):
        k = self.kind
        if k is FpKind.NAN:
            return "nan"
        if k is FpKind.INF:
            return "-inf" if self.negative else "+inf"
        if k is FpKind.ZERO:
            return "-0" if self.negative else "+0"
        # the exact decimal when it has at most 20 characters, else hex
        s = self.e - self.fmt.precision + 1
        if self.negative + _decimal_length_floor(self.c, s) <= 20:
            dec = self.decimal_str()
            if len(dec) <= 20:
                return dec
        return self.hex_str()

    def __repr__(self):
        return f"Fp({str(self)!r}, {self.fmt.descriptor()!r})"


BINARY64 = FloatFormat(precision=53, e_min=-1022, e_max=1023, subnormals=True)


@lru_cache(maxsize=None)
def _max_finite(fmt: FloatFormat) -> Fp:
    return Fp(fmt, FpKind.FINITE, False, (1 << fmt.precision) - 1, fmt.e_max)


@lru_cache(maxsize=None)
def _min_pos(fmt: FloatFormat) -> Fp:
    if fmt.subnormals:
        return Fp(fmt, FpKind.FINITE, False, 1, fmt.e_min)
    return Fp(fmt, FpKind.FINITE, False, 1 << (fmt.precision - 1), fmt.e_min)


# -- value-order comparison ------------------------------------------------------


def _value_key(x: Fp) -> tuple[int, int, int]:
    """Integer sort key ordering values of one format (zeros tie): the
    canonical encoding is value-monotone in (e, c), mirrored by the sign."""
    k = x.kind
    if k is FpKind.ZERO:
        return (0, 0, 0)
    if k is FpKind.NAN:
        raise DomainError("NaN is unordered")
    s = -1 if x.negative else 1
    if k is FpKind.INF:
        return (2 * s, 0, 0)
    return (s, s * x.e, s * x.c)


def value_cmp(a: Fp, b: Fp) -> int:
    """Three-way compare by real value; zeros compare equal, NaN is an error."""
    ka, kb = _value_key(a), _value_key(b)
    return (ka > kb) - (ka < kb)


# -- binary64 bit bridge -----------------------------------------------------------


def _f64_bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def _fp_from_bits64(fmt: FloatFormat, bits: int) -> Fp:
    """Decode an IEEE binary64 bit pattern straight into the canonical
    encoding (no rational bracketing)."""
    neg = bool(bits >> 63)
    biased = (bits >> 52) & 0x7FF
    trailing = bits & ((1 << 52) - 1)
    if biased == 0x7FF:
        if trailing:
            return Fp.nan(fmt)
        return Fp.inf(fmt, negative=neg)
    if biased == 0:
        if trailing == 0:
            return Fp.zero(fmt, negative=neg)
        return Fp(fmt, FpKind.FINITE, neg, trailing, fmt.e_min)
    return Fp(fmt, _FINITE, neg, trailing | (1 << 52), biased - 1023)


# -- the rounding bracket ----------------------------------------------------------


def _fp_from_mag(fmt: FloatFormat, negative: bool, c: int, scale: int) -> Fp:
    """Nonzero Fp of magnitude c * 2**scale; c may carry one bit past the
    precision (normalised here) and must already be format-aligned."""
    if c == 1 << fmt.precision:
        c >>= 1
        scale += 1
    e = scale + fmt.precision - 1
    if e > fmt.e_max:
        return Fp.inf(fmt, negative)
    return Fp(fmt, FpKind.FINITE, negative, c, e)


def _bracket(fmt: FloatFormat, num: int, den: int) -> tuple[Fp, Fp, bool]:
    """The rounding bracket of the rational num/den (den > 0): adjacent
    format values lo <= q <= hi, and whether round-to-nearest takes hi.

    lo is hi exactly when q is representable (0 gives +0).  Beyond the
    finite range one side is an infinity; a value that rounds to zero keeps
    its sign.  Nearest compares the remainder of q against half a step of
    the bracket, so the threshold for overflow is M plus half an ulp, and a
    tie goes to the side with the even significand, where a zero or an
    infinity counts as even (without subnormals the step from zero to the
    least normal is one unit, so zero is the even side)."""
    if num == 0:
        zero = Fp.zero(fmt)
        return zero, zero, False
    negative = num < 0
    if negative:
        num = -num
    p = fmt.precision
    # e = floor(log2(num/den))
    e = num.bit_length() - den.bit_length()
    if e >= 0:
        if num < (den << e):
            e -= 1
    elif (num << -e) < den:
        e -= 1
    if e > fmt.e_max:
        small = Fp(fmt, FpKind.FINITE, negative, (1 << p) - 1, fmt.e_max)
        big, near_big = Fp.inf(fmt, negative), True
    else:
        no_subnormal = e < fmt.e_min and not fmt.subnormals
        # the step between the bracket's sides is 2**scale
        scale = fmt.e_min if no_subnormal else max(e, fmt.e_min) - (p - 1)
        if scale >= 0:
            step = den << scale
            c, rem = divmod(num, step)
        else:
            step = den
            c, rem = divmod(num << -scale, den)
        small = _fp_from_mag(fmt, negative, c, scale) if c else Fp.zero(fmt, negative)
        if rem == 0:
            return small, small, False
        if no_subnormal:
            big = Fp(fmt, FpKind.FINITE, negative, 1 << (p - 1), fmt.e_min)
        else:
            big = _fp_from_mag(fmt, negative, c + 1, scale)
        twice = 2 * rem
        near_big = twice > step or (twice == step and c & 1 == 1)
    if negative:
        return big, small, not near_big
    return small, big, near_big


# -- literals -----------------------------------------------------------------------

# The grammar of a number: a hex-float or a decimal literal, unsigned; a
# decimal has a digit before or right after its point.  The expression
# lexer uses the same pattern, so both read the same texts.
NUMBER_PATTERN = (
    r"0[xX](?P<hex>[0-9a-fA-F]+)(?:\.(?P<hexfrac>[0-9a-fA-F]*))?(?:[pP](?P<exp2>[+-]?\d+))?"
    r"|(?=\.?\d)(?P<int>\d*)(?:\.(?P<frac>\d*))?(?:[eE](?P<exp10>[+-]?\d+))?"
)
_NUMBER_RE = re.compile(NUMBER_PATTERN)

# str -> int stops at the interpreter's digit limit (4300 by default);
# Decimal converts longer digit strings without one
_INT_STR_DIGITS = 4300

# 3321928094 / 10**9 < log2(10) < 3321928095 / 10**9
_LOG2_10_BELOW, _LOG2_10_ABOVE, _LOG2_10_DEN = 3321928094, 3321928095, 10**9


def _split_sign(text: str) -> tuple[bool, str]:
    """(negative, the text after an optional leading sign)."""
    text = text.strip()
    if text[:1] in ("+", "-"):
        return text[0] == "-", text[1:]
    return False, text


def _int(digits: str) -> int:
    """int of a decimal digit string of any length."""
    return int(Decimal(digits)) if len(digits) > _INT_STR_DIGITS else int(digits)


def _strip_fives(n: int) -> tuple[int, int]:
    """(m, k) with n = m * 5**k and m not divisible by 5 (n != 0).  Divides
    by 5, 5**2, 5**4, ... while they divide, then greedily by the same
    powers going down, so k costs O(log k) divisions, not k."""
    powers = []
    p = 5
    while True:
        q, r = divmod(n, p)
        if r:
            break
        n = q
        powers.append(p)
        p *= p
    k = (1 << len(powers)) - 1
    for i in range(len(powers) - 1, -1, -1):
        q, r = divmod(n, powers[i])
        if not r:
            n = q
            k += 1 << i
    return n, k


def decode_literal(text: str) -> tuple[bool, int, int, int]:
    """Read an optionally signed decimal or hex-float literal as integers
    (negative, sig, exp2, exp10), its value being
    ``(-1)**negative * sig * 2**exp2 * 10**exp10``; any other text raises
    ValueError.

    The parts are canonical: sig has no factor 2 or 5 (zero is sig 0 with
    both exponents 0), so equal values give equal parts.  No power is
    built, so a huge exponent costs only the digits that spell it."""
    negative, body = _split_sign(text)
    m = _NUMBER_RE.fullmatch(body)
    if m is None:
        raise ValueError(f"bad literal {body!r}")
    hex_int, hex_frac, exp2_text, int_digits, frac, exp10_text = m.groups()
    if hex_int is not None:
        hex_frac = hex_frac or ""
        sig = int(hex_int + hex_frac, 16)
        exp2 = (_int(exp2_text) if exp2_text else 0) - 4 * len(hex_frac)
        exp10 = 0
    else:
        frac = frac or ""
        digits = int_digits + frac
        sig_digits = digits.rstrip("0")
        sig = _int(sig_digits) if sig_digits else 0
        exp2 = 0
        exp10 = (_int(exp10_text) if exp10_text else 0) - len(frac) + len(digits) - len(sig_digits)
    if sig == 0:
        return negative, 0, 0, 0
    twos = (sig & -sig).bit_length() - 1
    sig, exp2 = sig >> twos, exp2 + twos
    if sig % 5 == 0:
        sig, fives = _strip_fives(sig)
        exp2, exp10 = exp2 - fives, exp10 + fives
    return negative, sig, exp2, exp10


def _literal_ratio(fmt: FloatFormat, sig: int, exp2: int, exp10: int) -> tuple[int, int, bool]:
    """(num, den, beyond) for the magnitude v = sig * 2**exp2 * 10**exp10
    (sig > 0): num/den = v, or, when v lies beyond the format's range, a
    power of two in the same rounding bracket, with beyond set.

    log2(v) is bounded first, from the bit length of sig and rational
    bounds on log2(10), so no power is built for a v far out of range.  At
    or above 2**(e_max + 1) the bracket is (M, +inf) and nearest takes the
    infinity; below 2**(e_min - p) it is (0, the least positive value) and
    nearest takes the zero.  2**(e_max + 1) and 2**(e_min - p - 1) stand in
    for the two tails."""
    top = sig.bit_length() + exp2  # log2(sig * 2**exp2) lies in [top - 1, top)
    # exp10 * log2(10) lies in [ten_lo, ten_hi]
    if exp10 >= 0:
        ten_lo = exp10 * _LOG2_10_BELOW // _LOG2_10_DEN
        ten_hi = -(-exp10 * _LOG2_10_ABOVE // _LOG2_10_DEN)
    else:
        ten_lo = exp10 * _LOG2_10_ABOVE // _LOG2_10_DEN
        ten_hi = -(-exp10 * _LOG2_10_BELOW // _LOG2_10_DEN)
    if top - 1 + ten_lo > fmt.e_max:
        tail = fmt.e_max + 1
    elif top + ten_hi <= fmt.e_min - fmt.precision:
        tail = fmt.e_min - fmt.precision - 1
    else:
        tail = None
    if tail is not None:
        return (1 << tail, 1, True) if tail >= 0 else (1, 1 << -tail, True)
    num, den = sig, 1
    if exp10 >= 0:
        num *= 10**exp10
    else:
        den = 10**-exp10
    if exp2 >= 0:
        num <<= exp2
    else:
        den <<= -exp2
    return num, den, False


def round_literal(
    fmt: FloatFormat, negative: bool, sig: int, exp2: int, exp10: int
) -> tuple[Fp, bool]:
    """(nearest, exact): the literal ``(-1)**negative * sig * 2**exp2 *
    10**exp10`` rounded to nearest in the format, and whether it is
    representable.  A zero keeps its sign; a literal beyond the range gives
    what nearest rounding gives, an infinity or a zero.  One `_bracket`
    call, whatever the exponents."""
    if sig == 0:
        return Fp.zero(fmt, negative), True
    num, den, _ = _literal_ratio(fmt, sig, exp2, exp10)
    lo, hi, near_hi = _bracket(fmt, -num if negative else num, den)
    return (hi if near_hi else lo), lo is hi


def literal_text(negative: bool, sig: int, exp2: int, exp10: int) -> str:
    """Literal text that `decode_literal` reads back to the same parts.

    Decimal, with 2**exp2 or 5**-exp2 folded into its digits, while |exp2|
    is at most 64 or at most exp10; otherwise hex-float, with 5**exp10
    folded into its significand.  Either way the folded power is no larger
    than the text the parts came from implies, so 1e20000000 and
    0x1p200000000 print as short as they read."""
    sign = "-" if negative else ""
    if exp10 < 0 or abs(exp2) <= max(exp10, 64):
        digits, exp = (sig << exp2, exp10) if exp2 >= 0 else (sig * 5**-exp2, exp10 + exp2)
        text = format(Decimal(digits), "f")  # str(int) stops at the digit limit
        return f"{sign}{text}e{exp}" if exp else sign + text
    return f"{sign}0x{sig * 5**exp10:x}p{exp2 + exp10:+d}"


def short_literal(fmt: FloatFormat, negative: bool, sig: int, exp2: int, exp10: int) -> str:
    """The literal's value as text of bounded length: `short_decimal`
    within the format's range, and the literal's own text beyond it."""
    num, den, beyond = _literal_ratio(fmt, sig, exp2, exp10)
    if beyond:
        return literal_text(negative, sig, exp2, exp10)
    return short_decimal(-num if negative else num, den)


def _decimal_length_floor(c: int, s: int) -> int:
    """A lower bound on the length of the exact decimal of c * 2**s (c > 0),
    without sign: the digits of the integer part implied by its bit length,
    then a point and one digit per factor of 2 left in the denominator once
    c is odd."""
    t = (c & -c).bit_length() - 1
    c, s = c >> t, s + t
    int_bits = c.bit_length() + s
    # 30102/100000 < log10(2), so this never overestimates the digit count
    int_digits = (int_bits - 1) * 30102 // 100000 + 1 if int_bits > 0 else 1
    return int_digits + (1 - s if s < 0 else 0)


# a 17-digit context without exponent limits; only its flags ever change
_DECIMAL17 = Context(prec=17, Emax=MAX_EMAX, Emin=MIN_EMIN)


def short_decimal(num: int, den: int) -> str:
    """Decimal text of num/den (den > 0) in bounded length at any
    magnitude: exact up to 17 significant digits, rounded beyond, so 1e5000
    and 1e-5000 print in exponent form."""
    return str(_DECIMAL17.divide(Decimal(num), Decimal(den)))


def exact_decimal(q: Fraction) -> str:
    """Exact decimal of a rational whose denominator has no prime factor
    but 2 and 5 (every float and every literal); other rationals print as
    num/den."""
    num, den = q.numerator, q.denominator
    twos = (den & -den).bit_length() - 1
    rest, fives = _strip_fives(den >> twos)
    if rest != 1:
        return f"{num}/{den}"
    k = max(twos, fives)
    digits = abs(num) * 2 ** (k - twos) * 5 ** (k - fives)  # |q| * 10**k
    sign = "-" if num < 0 else ""
    # Decimal formats any number of digits; str(int) stops at the
    # interpreter's digit limit
    text = format(Decimal(digits), "f")
    if k == 0:
        return sign + text
    text = text.rjust(k + 1, "0")
    return f"{sign}{text[:-k]}.{text[-k:]}"
