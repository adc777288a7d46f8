"""Pre-rounded words the test modules share, and the word demo's recovery
check over them.

`all_words` yields every word a format places: precision - 1 kept bits, a
``1.`` word at each exponent of the range and a ``0.`` word at e_min.
`recovery_mismatches` runs the demo's chain on each, the word placed with
its flag (`PreRoundedWord.place`) and the bracket recovered from them
(`recover_bounds`), and lists the words whose bracket is not the format's
round-down and round-up of the word's exact value.  Each directed side is
read from `FloatFormat.round`, which builds one side and no bracket, so a
fault of the bracket builder shows here.
"""

from fractions import Fraction as F

from intervalfp import PreRoundedWord, RoundingDirection, recover_bounds
from intervalfp.semantics import same_value


def all_words(fmt, max_discarded):
    """Every pre-rounded word the format can produce: full-precision
    retained bits (r = precision - 1), up to max_discarded dropped bits.
    Leading-zero words align only at the bottom exponent (subnormals)."""
    r = fmt.precision - 1
    for negative in (False, True):
        for b0 in (1, 0):
            for kept in range(1 << r):
                for k in range(1, max_discarded + 1):
                    for dropped in range(1 << k):
                        sig = (((b0 << r) | kept) << k) | dropped
                        w = PreRoundedWord(negative, sig, r + k, r)
                        exponents = (
                            range(fmt.e_min, fmt.e_max + 1) if b0 else (fmt.e_min,)
                        )
                        for e in exponents:
                            yield w, e


def recovery_mismatches(fmt, max_discarded):
    """(checked, [(word, e, recovered, directed)]) over `all_words`, with
    zero signs compared by value: the scheme keeps the word's sign bit on
    a zero result where the rounder pins exact zero to +0."""
    checked, found = 0, []
    for w, e in all_words(fmt, max_discarded):
        lo, hi = recover_bounds(*w.place(fmt, e))
        true_value = w.value() * F(2) ** e
        want = (fmt.round(true_value, RoundingDirection.TO_NEG_INF),
                fmt.round(true_value, RoundingDirection.TO_POS_INF))
        if not (same_value(lo, want[0]) and same_value(hi, want[1])):
            found.append((w, e, (lo, hi), want))
        checked += 1
    return checked, found
