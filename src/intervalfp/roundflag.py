"""The paper's rounding flag on a significand word.

A pre-rounded significand word ``b0.b1 b2 ... bW``, held as an integer,
is cut after bit r.  Rounding it to r fraction bits while latching one
flag -- did the word round up, truncate, or come out exact -- is enough to
rebuild both directed-rounding bounds from the single rounded result: the
true value lies between it and its neighbour on the side the flag names.

This module holds only the word's text: `PreRoundedWord` parses, prints
and values a word and checks where a format can place it.  The arithmetic
is the library's own, on integers in `fpformat`: the kept bits b0..br are
the truncated significand, the dropped bits the remainder, and the one
flag rule (`fpformat._round_cut`) gives the nearest value and the flag,
with the carry out of b0 of the library's step away from zero, and
`fpformat._side` writes that value, the infinity past e_max.
`recover_bounds`, re-exported here, rebuilds the bracket from them with
the library's bracket builder.

The word rounds up exactly when its first discarded bit is set, the
paper's table on (b_r, b_{r+1}): ties round up.  That tie rule, an
argument of the flag rule, intentionally differs from the to-nearest-even
rule of `FloatFormat.round_flagged`; recover_bounds only needs the
direction, not the tie rule.  The exact state (all discarded bits zero,
the usual sticky-bit OR) is an extension the table cannot express but
bound recovery requires, since an exact result must not be widened.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

# recover_bounds is the word demo's last step, re-exported for its callers
from .fpformat import (FloatFormat, Fp, RoundFlag, _round_cut, _side, _Validated, recover_bounds,
                       short_decimal)

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

    def value(self) -> Fraction:
        """Exact value of the full word."""
        mag = Fraction(self.sig, 1 << self.width)
        return -mag if self.negative else mag

    def __str__(self):
        sign = "-" if self.negative else ""
        bits = format(self.sig, f"0{self.width + 1}b")
        return f"{sign}{bits[0]}.{bits[1 : self.r + 1]}|{bits[self.r + 1 :]}"

    def _cut(self, fmt: FloatFormat, exponent: int) -> tuple[Fp, RoundFlag]:
        k = self.width - self.r  # the dropped bits
        c, e, flag = _round_cut(fmt, self.sig >> k, exponent, self.sig & ((1 << k) - 1), 1 << k,
                                False)
        return _side(fmt, self.negative, c, e, True), flag

    def rounded(self) -> tuple[Fp, RoundFlag]:
        """(the word rounded at its cut, the flag) in the word's own format:
        r fraction bits at 2**0, a ``0.`` word subnormal, and the binade
        above for a carry out of b0 (`rounded_str` prints it)."""
        return self._cut(FloatFormat(self.r + 1, 0, 1), 0)

    def place(self, fmt: FloatFormat, exponent: int) -> tuple[Fp, RoundFlag]:
        """(nearest, flag): the word at 2**exponent in the format, rounded
        at its cut as `rounded` rounds it.

        The word must be one the format produces: it keeps precision - 1
        fraction bits, and a ``1.`` word sits at an exponent in
        e_min..e_max, a ``0.`` word (subnormal) only at e_min.  Without
        subnormals a ``0.`` word places only where it rounds to zero or
        carries into b0.  Any other placement raises ValueError.  A carry
        moves the significand to the next exponent, a carry past the top
        exponent saturates to infinity, and a zero keeps the word's sign."""
        r, name = self.r, fmt.descriptor()
        if r != fmt.precision - 1:
            raise ValueError(f"the word keeps {r} fraction bits, {name} {fmt.precision - 1}")
        if self.sig >> self.width:
            if not fmt.e_min <= exponent <= fmt.e_max:
                raise ValueError(
                    f"exponent {exponent} is outside {name}'s range {fmt.e_min}..{fmt.e_max}")
        elif exponent != fmt.e_min:
            raise ValueError(f"a 0. word sits only at {name}'s e_min {fmt.e_min}")
        elif not fmt.subnormals:
            c = self.rounded()[0].c
            if 0 < c < 1 << r:  # the rounded word is 0.b1...br, not zero
                s = exponent - r  # its value is c * 2**s
                value = short_decimal((-c if self.negative else c) << max(s, 0), 1 << max(-s, 0))
                raise ValueError(f"{value} is not representable in {name}")
        return self._cut(fmt, exponent)


def rounded_str(x: Fp) -> str:
    """A value of a word's own format (`PreRoundedWord.rounded`) as the word
    ``b0.b1...br``; a carry out of b0 keeps b0..br, all 0, and adds
    ``+carry``."""
    carry = x.e > 0
    bits = format(0 if carry else x.c, f"0{x.fmt.precision}b")
    word = f"{'-' if x.negative else ''}{bits[0]}.{bits[1:]}"
    return word + " +carry" if carry else word
