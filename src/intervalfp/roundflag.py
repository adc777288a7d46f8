"""The paper's rounding flag on a significand word.

A pre-rounded significand word ``b0.b1 b2 ... bW`` is cut after bit r (the
retained width).  Rounding it to r fraction bits while latching one flag --
did the word round up, truncate, or come out exact -- is enough to rebuild
both directed-rounding bounds from the single rounded result afterwards:
the true value lies between the rounded value and its neighbour on the
side the flag names.  The library rounds the same way: `RoundFlag` and
`recover_bounds`, which builds every bracket in the package from a nearest
result and its flag, live in `fpformat`, and this module is the word-level
demonstration of them.

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
from dataclasses import dataclass
from fractions import Fraction

# recover_bounds is the word demo's last step, re-exported for its callers
from .fpformat import FloatFormat, Fp, RoundFlag, recover_bounds

_WORD_RE = re.compile(r"^(-)?([01])\.([01]+)\|([01]+)$")


@dataclass(frozen=True)
class PreRoundedWord:
    """A signed binary word b0.b1...bW with the retain/discard cut after bit r."""

    negative: bool
    bits: tuple[int, ...]  # b0..bW
    r: int  # index of the last retained fraction bit

    def __post_init__(self):
        if not self.bits or any(b not in (0, 1) for b in self.bits):
            raise ValueError("bits must be a nonempty 0/1 sequence")
        if self.r < 1:
            raise ValueError("need at least one retained fraction bit")
        if len(self.bits) < self.r + 2:
            raise ValueError("need at least one discarded bit")

    @staticmethod
    def parse(text: str) -> "PreRoundedWord":
        """Parse the ``1.011|01`` literal form (the bar marks the cut)."""
        m = _WORD_RE.match(text.strip())
        if not m:
            raise ValueError(f"bad pre-rounded word {text!r}")
        neg, b0, kept, dropped = m.groups()
        bits = (int(b0),) + tuple(int(c) for c in kept + dropped)
        return PreRoundedWord(neg is not None, bits, len(kept))

    def magnitude(self) -> Fraction:
        """Exact unsigned value of the full word."""
        w = len(self.bits) - 1
        return Fraction(int("".join(map(str, self.bits)), 2), 1 << w)

    def value(self) -> Fraction:
        mag = self.magnitude()
        return -mag if self.negative else mag

    def __str__(self):
        sign = "-" if self.negative else ""
        kept = "".join(map(str, self.bits[1 : self.r + 1]))
        dropped = "".join(map(str, self.bits[self.r + 1 :]))
        return f"{sign}{self.bits[0]}.{kept}|{dropped}"


@dataclass(frozen=True)
class RoundedWord:
    """Result of flagged rounding: the retained bits, a carry out of b0, and
    the flag.  A carry means the significand overflowed one binary place and
    the caller owns the exponent adjustment."""

    negative: bool
    bits: tuple[int, ...]  # b0..br after rounding
    carry: bool
    flag: RoundFlag

    def magnitude(self) -> Fraction:
        r = len(self.bits) - 1
        n = int("".join(map(str, self.bits)), 2)
        if self.carry:
            n += 1 << (r + 1)
        return Fraction(n, 1 << r)

    def value(self) -> Fraction:
        mag = self.magnitude()
        return -mag if self.negative else mag

    def __str__(self):
        sign = "-" if self.negative else ""
        kept = "".join(map(str, self.bits[1:]))
        word = f"{sign}{self.bits[0]}.{kept}"
        return word + " +carry" if self.carry else word


def compute_flag(word: PreRoundedWord) -> RoundFlag:
    """Flag for the magnitude word: exact when nothing set is discarded,
    otherwise up or not per the first discarded bit."""
    dropped = word.bits[word.r + 1 :]
    if not any(dropped):
        return RoundFlag.EXACT
    return RoundFlag.ROUNDED_UP if dropped[0] else RoundFlag.NOT_ROUNDED_UP


def apply_flagged_round(word: PreRoundedWord) -> RoundedWord:
    """Round the word at the cut: increment one unit in the last retained
    place when the flag says up, truncate otherwise."""
    flag = compute_flag(word)
    kept = word.bits[: word.r + 1]
    n = int("".join(map(str, kept)), 2)
    carry = False
    if flag is RoundFlag.ROUNDED_UP:
        n += 1
        if n >> (word.r + 1):
            carry = True
            n &= (1 << (word.r + 1)) - 1
    bits = tuple((n >> (word.r - i)) & 1 for i in range(word.r + 1))
    return RoundedWord(word.negative, bits, carry, flag)


def attach_exponent(rounded: RoundedWord, exponent: int, fmt: FloatFormat) -> Fp:
    """Place a rounded-word significand at a binary exponent in a format.

    The word must be one the format produces: it keeps precision - 1
    fraction bits, and a ``1.`` word sits at an exponent in e_min..e_max, a
    ``0.`` word (subnormal) only at e_min.  Any other placement raises
    ValueError, before any power of two is built.  A carry past the top
    exponent saturates to infinity."""
    kept = len(rounded.bits) - 1
    if kept != fmt.precision - 1:
        raise ValueError(
            f"the word keeps {kept} fraction bits, {fmt.descriptor()} {fmt.precision - 1}"
        )
    if rounded.bits[0] or rounded.carry:
        if not fmt.e_min <= exponent <= fmt.e_max:
            raise ValueError(
                f"exponent {exponent} is outside {fmt.descriptor()}'s range "
                f"{fmt.e_min}..{fmt.e_max}"
            )
    elif exponent != fmt.e_min:
        raise ValueError(f"a 0. word sits only at {fmt.descriptor()}'s e_min {fmt.e_min}")
    mag = rounded.magnitude() * Fraction(2) ** exponent
    if mag == 0:
        return Fp.zero(fmt, negative=rounded.negative)
    if mag > fmt.max_finite().to_rational():
        return Fp.inf(fmt, negative=rounded.negative)
    value = -mag if rounded.negative else mag
    return Fp.from_exact(fmt, value)
