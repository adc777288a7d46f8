"""The paper's rounding flag on a significand word.

A pre-rounded significand word ``b0.b1 b2 ... bW``, held as an integer,
is cut after bit r.  Rounding it to r fraction bits while latching one
flag -- did the word round up, truncate, or come out exact -- is enough to
rebuild both directed-rounding bounds from the single rounded result: the
true value lies between it and its neighbour on the side the flag names.
The library reads the bracket and the flag from one rounding core on
integers (`fpformat._enclose`); `recover_bounds`, there too, is the
hardware's view of that pair, the bracket rebuilt from nearest and its
flag.  This module is the word-level demonstration, on masks and shifts.

The up/truncate rule is a pure table on (b_r, b_{r+1}): the word rounds up
exactly when the first discarded bit is set, i.e. ties round up.  That tie
rule intentionally differs from the to-nearest-even rule of
`FloatFormat.round_flagged`; recover_bounds only needs the direction, not
the tie rule.  The exact state (all discarded bits zero, the usual
sticky-bit OR) is an extension the table cannot express but bound recovery
requires, since an exact result must not be widened.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

# recover_bounds is the word demo's last step, re-exported for its callers
from .fpformat import FloatFormat, Fp, RoundFlag, _FINITE, _Validated, recover_bounds, short_decimal

_WORD_RE = re.compile(r"^(-)?([01])\.([01]+)\|([01]+)$")


class _PreRoundedWordFields(NamedTuple):
    negative: bool
    sig: int  # the bits b0..bW
    width: int  # W
    r: int  # index of the last retained fraction bit


class PreRoundedWord(_Validated, _PreRoundedWordFields):
    """A signed binary word b0.b1...bW with the retain/discard cut after bit r."""

    __slots__ = ()

    def __new__(cls, negative: bool, sig: int, width: int, r: int):
        if r < 1:
            raise ValueError("need at least one retained fraction bit")
        if width < r + 1:
            raise ValueError("need at least one discarded bit")
        if not 0 <= sig >> width <= 1:
            raise ValueError("the word must be b0.b1...bW with b0 a 0 or a 1")
        return tuple.__new__(cls, (negative, sig, width, r))

    @staticmethod
    def parse(text: str) -> "PreRoundedWord":
        """Parse the ``1.011|01`` literal form (the bar marks the cut)."""
        m = _WORD_RE.match(text.strip())
        if not m:
            raise ValueError(f"bad pre-rounded word {text!r}")
        neg, b0, kept, dropped = m.groups()
        width = len(kept) + len(dropped)
        return PreRoundedWord(neg is not None, int(b0 + kept + dropped, 2), width, len(kept))

    def magnitude(self) -> Fraction:
        """Exact unsigned value of the full word."""
        return Fraction(self.sig, 1 << self.width)

    def value(self) -> Fraction:
        mag = self.magnitude()
        return -mag if self.negative else mag

    def __str__(self):
        sign = "-" if self.negative else ""
        bits = format(self.sig, f"0{self.width + 1}b")
        return f"{sign}{bits[0]}.{bits[1 : self.r + 1]}|{bits[self.r + 1 :]}"


class RoundedWord(NamedTuple):
    """Result of flagged rounding: the word b0.b1...br and the flag.  A carry
    out of b0 means the significand overflowed one binary place and the
    caller owns the exponent adjustment."""

    negative: bool
    sig: int  # the bits b0..br, plus the carry above them
    r: int
    flag: RoundFlag

    @property
    def carry(self) -> bool:
        return self.sig >> (self.r + 1) != 0

    def magnitude(self) -> Fraction:
        return Fraction(self.sig, 1 << self.r)

    def value(self) -> Fraction:
        mag = self.magnitude()
        return -mag if self.negative else mag

    def __str__(self):
        sign = "-" if self.negative else ""
        bits = format(self.sig & ((2 << self.r) - 1), f"0{self.r + 1}b")
        word = f"{sign}{bits[0]}.{bits[1:]}"
        return word + " +carry" if self.carry else word


def compute_flag(word: PreRoundedWord) -> RoundFlag:
    """Flag for the magnitude word: exact when nothing set is discarded,
    otherwise up or not per the first discarded bit."""
    discarded = word.width - word.r
    if word.sig & ((1 << discarded) - 1) == 0:
        return RoundFlag.EXACT
    first = word.sig >> (discarded - 1) & 1
    return RoundFlag.ROUNDED_UP if first else RoundFlag.NOT_ROUNDED_UP


def apply_flagged_round(word: PreRoundedWord) -> RoundedWord:
    """Round the word at the cut: increment one unit in the last retained
    place when the flag says up, truncate otherwise."""
    flag = compute_flag(word)
    sig = word.sig >> (word.width - word.r)
    if flag is RoundFlag.ROUNDED_UP:
        sig += 1
    return RoundedWord(word.negative, sig, word.r, flag)


def attach_exponent(rounded: RoundedWord, exponent: int, fmt: FloatFormat) -> Fp:
    """Place a rounded-word significand at a binary exponent in a format.

    The word must be one the format produces: it keeps precision - 1
    fraction bits, and a ``1.`` word sits at an exponent in e_min..e_max, a
    ``0.`` word (subnormal) only at e_min.  Any other placement raises
    ValueError, as does a nonzero ``0.`` word in a format without
    subnormals.  A carry moves the significand to the next exponent, and a
    carry past the top exponent saturates to infinity; a zero keeps the
    word's sign."""
    kept = rounded.r
    if kept != fmt.precision - 1:
        raise ValueError(
            f"the word keeps {kept} fraction bits, {fmt.descriptor()} {fmt.precision - 1}"
        )
    sig, negative = rounded.sig, rounded.negative
    if sig >> kept:
        if not fmt.e_min <= exponent <= fmt.e_max:
            raise ValueError(
                f"exponent {exponent} is outside {fmt.descriptor()}'s range "
                f"{fmt.e_min}..{fmt.e_max}"
            )
    elif exponent != fmt.e_min:
        raise ValueError(f"a 0. word sits only at {fmt.descriptor()}'s e_min {fmt.e_min}")
    elif sig == 0:
        return Fp.zero(fmt, negative)
    elif not fmt.subnormals:
        s = exponent - kept  # the value is sig * 2**s
        value = short_decimal((-sig if negative else sig) << max(s, 0), 1 << max(-s, 0))
        raise ValueError(f"{value} is not representable in {fmt.descriptor()}")
    if rounded.carry:
        sig, exponent = sig >> 1, exponent + 1
        if exponent > fmt.e_max:
            return Fp.inf(fmt, negative)
    return Fp(fmt, _FINITE, negative, sig, exponent)
