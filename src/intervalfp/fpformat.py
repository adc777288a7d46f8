"""Parametric binary floating-point formats with exact rational rounding.

A format is described by its precision (significand bits including the
hidden bit), an exponent range, and a subnormal toggle.  Values are kept
in an exact canonical encoding with one sign bit on every datum except NaN,
so every finite number converts to a `fractions.Fraction` without loss.

Rounding follows the paper's reading: the effect of rounding is one bound
of the result's interval.  A magnitude cut at an ulp is a truncated
significand c at exponent e plus a remainder, and the bracket of adjacent
format values around it is c and the value one unit further from zero.
Each piece of that is stated once, on integers:
- the step to a neighbour (`_away`, `_toward`), with its carry, its borrow
  and the infinity past e_max;
- the paper's flag and the nearest value it names (`_round_cut`): the
  side away from zero (rounded up), the side toward it (not up), or both
  (exact); its tie rule is an argument, to even for the library and the
  host kernel, up for the paper's word table (`roundflag`);
- the value at (c, e) (`_side`), and the bracket from one known side
  (`_bracket`).
The one core (`_enclose`) cuts a rational and takes the flag or the side
asked for, or the bracket; nearest and each directed rounding is one side,
and only that side is built.  The interval layer's host kernel takes the
bracket from its nearest value, and `recover_bounds`, the hardware's view,
takes it from a nearest value and its flag.  Tiny formats can be
enumerated exhaustively, which is what the verification suites rely on;
binary64 is just another instance of the same machinery.

Literal text is read as integers, a sign, a significand and powers of two
and ten (`decode_literal`), and rounded to nearest once (`round_literal`).
A literal beyond the range is replaced by a power of two in the same
bracket before any power is built, so hostile exponents cost only their
digits.

Every record of the package is a NamedTuple: immutable, compared and
hashed by value, and cheap to build (a suite's running tally,
`harness.SuiteResult`, is the one mutable class).  A record built only
through its class (`FloatFormat`, `Fp`, `interval.ExtInterval`,
`roundflag.PreRoundedWord`) subclasses `_Validated` and a NamedTuple of
its fields, in that order; `_Validated` refuses the tuple's ordering and
arithmetic, and the `_make` and `_replace` that would skip the class.
`FloatFormat`, `ExtInterval` and `PreRoundedWord` check their fields in
`__new__`; `Fp`, the kernel's builder, checks none.
"""

from __future__ import annotations

import math
import re
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional, Union

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


class RoundFlag(Enum):
    """How rounding to nearest changed the magnitude: up, not up (down,
    toward zero), or not at all."""

    ROUNDED_UP = "rounded-up"
    NOT_ROUNDED_UP = "not-rounded-up"
    EXACT = "exact"


# An Enum member read through its class costs about 0.1 us on CPython 3.11,
# so the code reads these module names instead.
_FINITE, _ZERO, _INF, _NAN = FpKind.FINITE, FpKind.ZERO, FpKind.INF, FpKind.NAN
_ROUNDED_UP, _NOT_ROUNDED_UP, _EXACT = RoundFlag.ROUNDED_UP, RoundFlag.NOT_ROUNDED_UP, RoundFlag.EXACT
_DOWN, _UP = RoundingDirection.TO_NEG_INF, RoundingDirection.TO_POS_INF
_TO_ZERO, _NEAREST = RoundingDirection.TO_ZERO, RoundingDirection.NEAREST


def _unsupported(self, other):
    """An operator the tuple underneath would otherwise apply (<, +, *)."""
    return NotImplemented


def _refused(*args, **kwargs):
    """A namedtuple helper (`_make`, `_replace`) that would skip the class's
    constructor."""
    raise TypeError("a value is built by calling its class, not by _make or _replace")


class _Validated:
    """Mixin, listed ahead of a NamedTuple of fields, for a record built
    only through its class: the tuple's ordering, concatenation and
    repetition, `_make` and `_replace` are refused.  A subclass may define
    its own operators over these.  `FloatFormat`, `ExtInterval` and
    `PreRoundedWord` check their fields in `__new__`; `Fp` does not."""

    __slots__ = ()
    __lt__ = __le__ = __gt__ = __ge__ = __add__ = __mul__ = __rmul__ = _unsupported
    _make = _replace = _refused


class _FloatFormatFields(NamedTuple):
    precision: int
    e_min: int
    e_max: int
    subnormals: bool
    host: bool


class FloatFormat(_Validated, _FloatFormatFields):
    """A binary float format: precision bits, exponent range, subnormal toggle.

    `host`, derived, says whether binary64 holds every value of the format
    (p <= 53, no ulp below 2**-1074, no binade above 2**1023), as it holds
    binary32's and every small format's but not binary128's."""

    __slots__ = ()

    def __new__(cls, precision: int, e_min: int, e_max: int, subnormals: bool = True):
        if precision < 2:
            raise ValueError("precision must be at least 2")
        if e_min > e_max:
            raise ValueError("e_min must not exceed e_max")
        host = precision <= 53 and e_min - precision >= -1075 and e_max <= 1023
        return tuple.__new__(cls, (precision, e_min, e_max, subnormals, host))

    def __getnewargs__(self):
        """Copies and pickles pass the four given fields; `host` is derived again."""
        return tuple(self[:4])

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
        return Fp(self, _FINITE, False, (1 << self.precision) - 1, self.e_max)

    def min_pos(self) -> "Fp":
        """Least value strictly greater than zero (subnormal when enabled)."""
        return Fp(self, _FINITE, False, *_away(self, 0, self.e_min))

    # -- rounding ----------------------------------------------------------

    def round_flagged(self, q: RationalLike) -> tuple["Fp", RoundFlag]:
        """(nearest, flag): q rounded to nearest with ties to the even
        significand, and the paper's flag, which says whether nearest is
        the side of the bracket away from zero.  Only nearest is built; a
        value that rounds to zero keeps its sign.  q is a Fraction or an
        int; a float, or any other number without an exact numerator and
        denominator, raises TypeError here, in `round`, `round_both` and
        `Fp.from_exact`."""
        lo, hi, flag = _enclose(self, *_ratio(q), _NEAREST, True)
        return (hi if lo is None else lo), flag

    def round(self, q: RationalLike, direction: RoundingDirection) -> "Fp":
        """Round an exact rational to the format: the one side of the
        bracket around q that the direction names, and only that side is
        built.

        Down takes the lower side, up the upper, toward zero the side
        nearer zero and nearest the side `round_flagged` names.  Total:
        overflow saturates to the greatest finite value or to an infinity
        depending on direction, and an exact zero comes out as +0 (a
        negative value collapsing to zero yields -0)."""
        lo, hi, _ = _enclose(self, *_ratio(q), direction, True)
        return hi if lo is None else lo

    def round_both(self, q: RationalLike) -> tuple["Fp", "Fp"]:
        """(round down, round up): both sides of the one bracket, one
        object when q is exact; a zero side of a negative q is -0."""
        lo, hi, _ = _enclose(self, *_ratio(q), None, True)
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
            pos.extend(Fp(self, _FINITE, False, c, self.e_min) for c in range(1, half))
        for e in range(self.e_min, self.e_max + 1):
            pos.extend(Fp(self, _FINITE, False, c, e) for c in range(half, 2 * half))
        neg = [-x for x in reversed(pos)]
        return [Fp(self, _INF, True), *neg, Fp(self, _ZERO, True), Fp(self, _ZERO), *pos,
                Fp(self, _INF)]

    # -- text form -----------------------------------------------------------

    def descriptor(self) -> str:
        if self == BINARY64:
            return "b64"
        text = f"p{self.precision}e{self.e_min}:{self.e_max}"
        return text if self.subnormals else text + "ns"

    def __repr__(self):
        return f"FloatFormat({self.descriptor()!r})"


_FORMAT_RE = re.compile(r"^p(\d+)e(-?\d+):(-?\d+)(ns)?$")
# An exact bound near the least positive value is an integer of about
# |e_min| + precision bits, so a descriptor is held to these limits to keep
# every operation fast; binary256 (p237e-262142:262143) is inside them.
MAX_PRECISION = 4096
MAX_EXPONENT = 1 << 18


def parse_format(text: str) -> FloatFormat:
    """Parse a format descriptor: ``b64`` or ``p<P>e<EMIN>:<EMAX>[ns]``,
    with P at most MAX_PRECISION and |EMIN|, |EMAX| at most MAX_EXPONENT.
    The descriptor of binary64's fields gives the object `BINARY64`."""
    text = text.strip()
    if text == "b64":
        return BINARY64
    m = _FORMAT_RE.match(text)
    if not m:
        raise ValueError(f"bad format descriptor {text!r}")
    for name, g in zip(("precision", "exponent", "exponent"), m.group(1, 2, 3)):
        # a field with more digits than any limit has is refused unread, as int()
        # of a digit string stops at 4,300 digits
        if len(g.lstrip("-")) > len(str(MAX_EXPONENT)):
            raise ValueError(f"{name} of {len(g.lstrip('-'))} digits is beyond the limits of precision "
                             f"{MAX_PRECISION} and exponents -{MAX_EXPONENT}:{MAX_EXPONENT}")
    precision, e_min, e_max = (int(g) for g in m.group(1, 2, 3))
    if precision > MAX_PRECISION:
        raise ValueError(f"precision {precision} is above the limit of {MAX_PRECISION}")
    for e in (e_min, e_max):
        if abs(e) > MAX_EXPONENT:
            raise ValueError(f"exponent {e} is outside the limit of -{MAX_EXPONENT}:{MAX_EXPONENT}")
    fmt = FloatFormat(precision, e_min, e_max, m.group(4) is None)
    return BINARY64 if fmt == BINARY64 else fmt


class _FpFields(NamedTuple):
    fmt: FloatFormat
    kind: FpKind
    negative: bool = False
    c: int = 0
    e: int = 0


class Fp(_Validated, _FpFields):
    """One datum of a format: a finite nonzero value, a zero, an infinity,
    or NaN.

    `negative` is the one sign bit of every datum, zeros and infinities
    included; NaN is unsigned (`negative` is False).  Finite nonzero values
    satisfy ``value = (-1)**negative * c * 2**(e - p + 1)`` with the
    canonical constraint that c has exactly p bits (normal) or e is the
    minimum exponent and c has fewer (subnormal).  Each representable real
    has exactly one encoding, so equality of the five fields, which the
    tuple underneath compares and hashes, is value identity, with +0 and -0
    distinct.  A value is immutable and unordered, and the tuple's
    concatenation and repetition, `_make` and `_replace` do not apply to it.
    """

    __slots__ = ()

    def __init__(self, fmt, kind, negative=False, c=0, e=0):
        """Every Fp is built through here; the benchmark's object counter and `built` wrap it."""

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(fmt: FloatFormat, negative: bool = False) -> "Fp":
        return Fp(fmt, _ZERO, negative)

    @staticmethod
    def inf(fmt: FloatFormat, negative: bool = False) -> "Fp":
        return Fp(fmt, _INF, negative)

    @staticmethod
    def nan(fmt: FloatFormat) -> "Fp":
        return Fp(fmt, _NAN)

    @staticmethod
    def from_exact(fmt: FloatFormat, q: RationalLike) -> "Fp":
        """Encode a rational that is exactly representable (its bracket is
        one value, lo is hi); raise otherwise."""
        num, den = _ratio(q)
        lo, hi, _ = _enclose(fmt, num, den, _TO_ZERO, True)
        if lo is not hi:
            raise ValueError(f"{short_decimal(num, den)} is not representable in {fmt.descriptor()}")
        return lo

    @staticmethod
    def from_float(fmt: FloatFormat, x: float) -> "Fp":
        """Encode a host float (exact for binary64, read through frexp)."""
        mag = abs(x)
        if not 0.0 < mag < math.inf:
            if mag == 0.0:
                return Fp(fmt, _ZERO, math.copysign(1.0, x) < 0)
            return Fp(fmt, _INF, x < 0) if mag == math.inf else Fp(fmt, _NAN)
        if fmt is not BINARY64 and fmt != BINARY64:
            return Fp.from_exact(fmt, Fraction(*x.as_integer_ratio()))
        m, e = math.frexp(mag)  # mag = m * 2**e with 1/2 <= m < 1
        c, e = int(m * 9007199254740992.0), e - 1  # m * 2**53 is exact
        if e < -1022:  # subnormal: the same value at the least exponent
            c, e = c >> (-1022 - e), -1022
        return Fp(fmt, _FINITE, x < 0, c, e)

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
        nearest, flag = round_literal(fmt, *parts)
        if flag is not _EXACT:
            raise ValueError(
                f"{short_literal(fmt, *parts)} is not representable in {fmt.descriptor()}"
            )
        return nearest

    # -- predicates ------------------------------------------------------------

    @property
    def is_nan(self) -> bool:
        return self.kind is _NAN

    @property
    def is_inf(self) -> bool:
        return self.kind is _INF

    @property
    def is_zero(self) -> bool:
        return self.kind is _ZERO

    @property
    def is_finite(self) -> bool:
        return self.kind is _FINITE or self.kind is _ZERO

    # -- conversions -------------------------------------------------------------

    def to_rational(self) -> Fraction:
        """Exact value of a finite datum (both zeros give 0)."""
        fmt, kind, negative, c, e = self
        if kind is not _FINITE:
            if kind is _ZERO:
                return Fraction(0)
            raise DomainError(f"{self} has no rational value")
        s = e - fmt.precision + 1
        c = -c if negative else c
        return Fraction(c << s) if s >= 0 else Fraction(c, 1 << -s)

    def to_float(self) -> float:
        """Host-float value (exact when the format fits in binary64)."""
        fmt, kind, negative, c, e = self
        if kind is _NAN:
            return math.nan
        # a zero has c = 0
        mag = math.inf if kind is _INF else math.ldexp(c, e - fmt.precision + 1)
        return -mag if negative else mag

    # -- neighbours ----------------------------------------------------------------

    def next_up(self) -> "Fp":
        """Successor in the value order, with -0 immediately below +0.

        next_up(M) is +inf and next_up(-inf) is -M; NaN and +inf have no
        successor.  It is the upper side of the bracket around a value just
        above self: one step away from zero from +0 or a positive value,
        toward zero from a negative one (`recover_bounds`)."""
        k = self.kind
        if k is _NAN or (k is _INF and not self.negative):
            raise DomainError(f"next_up undefined for {self}")
        if k is _ZERO and self.negative:
            return Fp.zero(self.fmt)
        return recover_bounds(self, _ROUNDED_UP if self.negative else _NOT_ROUNDED_UP)[1]

    def next_down(self) -> "Fp":
        """Predecessor in the same order: the mirror -next_up(-x).  NaN and
        -inf have no predecessor."""
        if self.is_nan or (self.is_inf and self.negative):
            raise DomainError(f"next_down undefined for {self}")
        return -(-self).next_up()

    # -- arithmetic-free helpers ------------------------------------------------------

    def __neg__(self) -> "Fp":
        """Flip the sign bit; NaN is unsigned and negates to itself."""
        fmt, kind, negative, c, e = self
        if kind is _NAN:
            return self
        return Fp(fmt, kind, not negative, c, e)

    # -- text form ----------------------------------------------------------------------

    def decimal_str(self) -> str:
        """Exact decimal expansion of a finite value (may be long)."""
        return exact_decimal(self.to_rational())

    def hex_str(self) -> str:
        """C-style hex float; subnormals print with a leading 0 digit."""
        if self.kind is not _FINITE:
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
        if k is _NAN:
            return "nan"
        if k is _INF:
            return "-inf" if self.negative else "+inf"
        if k is _ZERO:
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


# -- value-order comparison ------------------------------------------------------


def _value_key(x: Fp) -> tuple[int, int, int]:
    """Integer sort key ordering values of one format (zeros tie): the
    canonical encoding is value-monotone in (e, c), mirrored by the sign."""
    k = x.kind
    if k is _ZERO:
        return (0, 0, 0)
    if k is _NAN:
        raise DomainError("NaN is unordered")
    s = -1 if x.negative else 1
    if k is _INF:
        return (2 * s, 0, 0)
    return (s, s * x.e, s * x.c)


def value_cmp(a: Fp, b: Fp) -> int:
    """Three-way compare by real value; zeros compare equal, NaN is an error.
    The key is read from the encoding, so a and b must share a format:
    values of two formats raise ValueError."""
    if a.fmt is not b.fmt and a.fmt != b.fmt:
        raise ValueError("operands use different formats")
    ka, kb = _value_key(a), _value_key(b)
    return (ka > kb) - (ka < kb)


# -- the cut, the flag and the bracket, and the one rounding of a rational ----------


def _ratio(q: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of a Fraction or an int; a float, or any
    other number without them, raises TypeError."""
    try:
        return q.numerator, q.denominator
    except AttributeError:
        raise TypeError(f"expected a Fraction or an int, not {type(q).__name__} {q!r}") from None


def _away(fmt: FloatFormat, c: int, e: int) -> tuple[int, int]:
    """(c, e) of the value one unit further from zero than significand c
    at exponent e, where c = 0 at e_min is a zero: at 2**p the carry into
    the binade above, where e past e_max stands for the infinity, and from
    a zero without subnormals the least normal."""
    if not c and not fmt.subnormals:
        return 1 << (fmt.precision - 1), e
    c += 1
    return (c >> 1, e + 1) if c >> fmt.precision else (c, e)


def _toward(fmt: FloatFormat, c: int, e: int) -> tuple[int, int]:
    """(c, e) of the value one unit nearer zero than the nonzero c at e, or
    than the infinity as `_away` writes it: below 2**(p - 1) the borrow
    from the binade below, and below the least positive value c = 0, the
    zero."""
    c -= 1
    if c >> (fmt.precision - 1) or e == fmt.e_min and fmt.subnormals:
        return c, e
    return ((1 << fmt.precision) - 1, e - 1) if e > fmt.e_min else (0, e)


def _side(fmt: FloatFormat, negative: bool, c: int, e: int, signed_zero: bool) -> Fp:
    """The value at significand c and exponent e, as the steps write it:
    the infinity past e_max, and a zero when c is 0, +0 or with
    `signed_zero` signed by `negative`."""
    if e > fmt.e_max:
        return Fp(fmt, _INF, negative)
    return Fp(fmt, _FINITE, negative, c, e) if c else Fp(fmt, _ZERO, negative and signed_zero)


def _round_cut(fmt: FloatFormat, c: int, e: int, rest: int, unit: int,
               ties_even: bool) -> tuple[int, int, RoundFlag]:
    """(c, e, flag): the magnitude c + rest/unit units at exponent e, cut
    after c (0 <= rest, 0 < unit), rounded to nearest, and the paper's flag,
    the one flag rule of the package.  With no rest the value is c and
    EXACT.  Otherwise it is ROUNDED_UP, one unit on (`_away`), past half a
    unit, and at half with `ties_even` when c is odd (a zero counts as even,
    M as odd) or without it always, the paper's table; NOT_ROUNDED_UP keeps
    c."""
    if not rest:
        return c, e, _EXACT
    twice = rest << 1
    if twice > unit or twice == unit and (c & 1 == 1 or not ties_even):
        c, e = _away(fmt, c, e)
        return c, e, _ROUNDED_UP
    return c, e, _NOT_ROUNDED_UP


def _bracket(fmt: FloatFormat, negative: bool, c: int, e: int, away: bool,
             signed_zero: bool) -> tuple[Fp, Fp]:
    """(lo, hi): the two adjacent values around a value strictly between
    them, from the one side (c, e) that is known: the side away from zero
    with `away`, else the side toward it, and one step (`_toward`, `_away`)
    to the other.  The sides are written as `_side` writes them, the one
    away from zero the infinity past e_max and the one toward it a zero
    when c is 0; the kernel's hot path builds them here, without a call
    per side."""
    if away:
        c_far, e_far = c, e
        c, e = _toward(fmt, c, e)
    else:
        c_far, e_far = _away(fmt, c, e)
    near = Fp(fmt, _FINITE, negative, c, e) if c else Fp(fmt, _ZERO, negative and signed_zero)
    if e_far > fmt.e_max:
        far = Fp(fmt, _INF, negative)
    else:
        far = Fp(fmt, _FINITE, negative, c_far, e_far)
    return (far, near) if negative else (near, far)


def _enclose(fmt: FloatFormat, num: int, den: int, side: Optional[RoundingDirection] = None,
             signed_zero: bool = False) -> tuple[Optional[Fp], Optional[Fp], Optional[RoundFlag]]:
    """(lo, hi, flag): the least format interval around num/den (den > 0)
    and, when `side` is NEAREST, the paper's rounding flag of its nearest
    value.  Every rounding of a rational to a format is read from here.

    The magnitude is truncated toward zero at the ulp of its binade, found
    from floor(log2) by one divmod.  With no remainder the value is exact:
    one object is both sides, and the flag is EXACT.  Otherwise the side
    away from zero is one unit on (`_away`, `_bracket`).  Asked for
    nearest, the flag rule (`_round_cut`, ties to even) says which side it
    is: ROUNDED_UP flags the side away from zero, NOT_ROUNDED_UP the side
    toward it; asked for anything else, an inexact value's flag is None.
    Two regimes set their sides apart: beyond M they are M and the
    infinity, which is nearest; without subnormals, below the least normal
    they are 0 and the least normal, which is nearest only past half of
    itself.

    `side` names the one side to build, by rounding direction (nearest is
    the side the flag names), and the other side is None; with no side both
    are built.  A zero side is +0, or with `signed_zero` signed like
    num/den, and 0 itself is +0."""
    if not num:
        zero = Fp(fmt, _ZERO)
        return zero, zero, _EXACT
    negative = num < 0
    if negative:
        num = -num
    p, e_min, e_max = fmt.precision, fmt.e_min, fmt.e_max
    e = num.bit_length() - den.bit_length()  # floor(log2(num/den)) is e or e - 1
    if (num < den << e) if e >= 0 else (num << -e < den):
        e -= 1
    if e > e_max:  # M, a whole unit or more below the value, and one unit on the infinity
        c, e, r, unit = (1 << p) - 1, e_max, 1, 1
    else:
        if e >= e_min:
            shift = p - 1 - e  # the ulp of the binade is 2**-shift
        else:  # the subnormal ulp, or without subnormals the least normal (c is 0)
            shift = p - 1 - e_min if fmt.subnormals else -e_min
            e = e_min
        unit = den if shift >= 0 else den << -shift  # one ulp, on the shifted num's scale
        c, r = divmod(num << shift if shift >= 0 else num, unit)
        if not r:
            x = Fp(fmt, _FINITE, negative, c, e)
            return x, x, _EXACT
    if side is None:
        lo, hi = _bracket(fmt, negative, c, e, False, signed_zero)
        return lo, hi, None
    if side is _NEAREST:
        c, e, flag = _round_cut(fmt, c, e, r, unit, True)
        away = flag is _ROUNDED_UP
    else:
        away, flag = side is not _TO_ZERO and (side is _UP) is not negative, None
        if away:
            c, e = _away(fmt, c, e)
    x = _side(fmt, negative, c, e, signed_zero)
    # the upper side of a positive value is the one away from zero
    return (None, x, flag) if away is not negative else (x, None, flag)


def recover_bounds(nearest: Fp, flag: RoundFlag) -> tuple[Fp, Fp]:
    """(round down, round up) from a result rounded to nearest and its flag.

    The exact value lies between the result and its neighbour toward zero
    when the magnitude was rounded up, away from zero when it was not
    (`_bracket`), and the result's sign decides which of the two is the
    lower bound.  A side with no neighbour (toward zero from a zero, past
    an infinity) keeps the result alone, as a saturated bound."""
    fmt, kind, negative, c, e = nearest
    if kind is _NAN:
        raise DomainError("cannot recover bounds around NaN")
    if flag is _EXACT:
        return nearest, nearest
    away = flag is _ROUNDED_UP
    if kind is not _FINITE:  # a zero is c = 0 at e_min, an infinity as `_away` writes it
        if (kind is _ZERO) is away:
            return nearest, nearest
        c, e = (0, fmt.e_min) if kind is _ZERO else (1 << (fmt.precision - 1), fmt.e_max + 1)
    return _bracket(fmt, negative, c, e, away, True)


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
) -> tuple[Fp, RoundFlag]:
    """(nearest, flag): the literal ``(-1)**negative * sig * 2**exp2 *
    10**exp10`` rounded to nearest in the format, and the paper's flag, as
    `round_flagged` gives them, so `recover_bounds` of the pair is the
    bracket around the literal.  Only nearest is built.  A zero keeps its
    sign; a literal beyond the range gives what nearest rounding gives, an
    infinity or a zero, flagged as the tail it lies in.  One rounding,
    whatever the exponents."""
    if sig == 0:
        return Fp.zero(fmt, negative), _EXACT
    num, den, _ = _literal_ratio(fmt, sig, exp2, exp10)
    lo, hi, flag = _enclose(fmt, -num if negative else num, den, _NEAREST, True)
    return (hi if lo is None else lo), flag


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
        # str(int) stops at the digit limit, for the digits and an exponent alike
        text = format(Decimal(digits), "f")
        return f"{sign}{text}e{Decimal(exp):f}" if exp else sign + text
    return f"{sign}0x{sig * 5**exp10:x}p{Decimal(exp2 + exp10):+f}"


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
