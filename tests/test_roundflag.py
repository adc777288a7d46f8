"""Rounding-flag scheme: the up/truncate table and bound recovery."""

from fractions import Fraction as F

import pytest

from intervalfp import (
    DomainError,
    Fp,
    PreRoundedWord,
    RoundFlag,
    RoundingDirection,
    apply_flagged_round,
    compute_flag,
    parse_format,
    recover_bounds,
)
from intervalfp.roundflag import attach_exponent
from intervalfp.semantics import same_value

RD = RoundingDirection


def word(text):
    return PreRoundedWord.parse(text)


# -- flag table ----------------------------------------------------------------


@pytest.mark.parametrize(
    "b_r, b_r1, rounds_up",
    [(0, 0, False), (0, 1, True), (1, 0, False), (1, 1, True)],
)
def test_flag_table_rows(b_r, b_r1, rounds_up):
    # with and without extra set bits after the first discarded one
    for tail in ("", "0", "1", "01"):
        w = word(f"1.0{b_r}|{b_r1}{tail}")
        flag = compute_flag(w)
        assert (flag is RoundFlag.ROUNDED_UP) == rounds_up
        if not rounds_up and not int(f"0{tail}" or "0"):
            expected_exact = b_r1 == 0 and not any(int(c) for c in tail)
            assert (flag is RoundFlag.EXACT) == expected_exact


def test_flag_examples():
    assert compute_flag(word("1.011|11")) is RoundFlag.ROUNDED_UP
    assert compute_flag(word("1.010|001")) is RoundFlag.NOT_ROUNDED_UP
    assert compute_flag(word("1.010|00")) is RoundFlag.EXACT


def test_ties_round_up_not_to_even():
    # exactly halfway, retained word even: the table still rounds up
    w = word("1.010|10")
    assert compute_flag(w) is RoundFlag.ROUNDED_UP
    assert apply_flagged_round(w).magnitude() == F(11, 8)


def test_apply_flagged_round_examples():
    r = apply_flagged_round(word("1.011|11"))
    assert (str(r), r.flag) == ("1.100", RoundFlag.ROUNDED_UP)
    r = apply_flagged_round(word("1.010|10"))
    assert (str(r), r.flag) == ("1.011", RoundFlag.ROUNDED_UP)
    r = apply_flagged_round(word("1.010|00"))
    assert (str(r), r.flag) == ("1.010", RoundFlag.EXACT)
    r = apply_flagged_round(word("1.111|01"))
    assert (str(r), r.flag) == ("1.111", RoundFlag.NOT_ROUNDED_UP)


def test_carry_out_reported():
    r = apply_flagged_round(word("1.111|1"))
    assert r.carry and r.magnitude() == 2
    r = apply_flagged_round(word("-1.111|1"))
    assert r.carry and r.value() == -2


def test_word_validation():
    with pytest.raises(ValueError):
        word("1.|01")  # no retained fraction bit
    with pytest.raises(ValueError):
        word("1.01|")  # nothing discarded
    with pytest.raises(ValueError):
        word("2.01|0")
    for fields in [(False, 0b101, 2, 0), (False, 0b101, 2, 2), (False, 0b1001, 2, 1)]:
        with pytest.raises(ValueError):
            PreRoundedWord(*fields)
    # the checks cannot be skipped, and a word is not a sequence to order or add
    w = word("1.01|1")
    with pytest.raises(TypeError):
        PreRoundedWord._make((False, 0b101, 2, 0))
    with pytest.raises(TypeError):
        w._replace(r=0)
    for combine in (lambda: w < w, lambda: w + w, lambda: w * 2):
        with pytest.raises(TypeError):
            combine()


def test_word_value_round_trip():
    w = word("-1.011|01")
    assert w.value() == -F(0b101101, 32)
    assert PreRoundedWord.parse(str(w)) == w


# -- bound recovery -------------------------------------------------------------


def test_recover_bounds_examples(toy):
    x = Fp.from_exact(toy, F(3, 8))
    assert recover_bounds(x, RoundFlag.ROUNDED_UP) == (Fp.from_exact(toy, F(5, 16)), x)
    assert recover_bounds(x, RoundFlag.EXACT) == (x, x)
    y = Fp.from_exact(toy, F(5, 16))
    assert recover_bounds(y, RoundFlag.NOT_ROUNDED_UP) == (y, x)


def test_recover_bounds_negative_swaps_sides(toy):
    x = Fp.from_exact(toy, -F(3, 8))
    lo, hi = recover_bounds(x, RoundFlag.ROUNDED_UP)
    assert (lo, hi) == (x, Fp.from_exact(toy, -F(5, 16)))
    lo, hi = recover_bounds(Fp.from_exact(toy, -F(5, 16)), RoundFlag.NOT_ROUNDED_UP)
    assert (lo, hi) == (x, Fp.from_exact(toy, -F(5, 16)))


def test_recover_bounds_saturated(toy):
    M = toy.max_finite()
    assert recover_bounds(Fp.inf(toy), RoundFlag.ROUNDED_UP) == (M, Fp.inf(toy))
    assert recover_bounds(Fp.inf(toy, negative=True), RoundFlag.ROUNDED_UP) == (
        Fp.inf(toy, negative=True),
        -M,
    )


@pytest.mark.parametrize("descriptor, least", [("p3e-2:3", F(1, 16)), ("p3e-2:3ns", F(1, 4))])
def test_recover_bounds_around_zero(descriptor, least):
    # a value that rounded down to a zero lies between it and the least
    # value of its sign, subnormal or, without subnormals, normal
    fmt = parse_format(descriptor)
    zero, minus_zero = Fp.zero(fmt), Fp.zero(fmt, negative=True)
    lo, hi = recover_bounds(zero, RoundFlag.NOT_ROUNDED_UP)
    assert lo == zero and hi.to_rational() == least
    lo, hi = recover_bounds(minus_zero, RoundFlag.NOT_ROUNDED_UP)
    assert lo.to_rational() == -least and lo.negative and hi == minus_zero


def test_recover_bounds_refuses_nan(toy):
    for flag in RoundFlag:
        with pytest.raises(DomainError):
            recover_bounds(Fp.nan(toy), flag)


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


def test_recovery_equals_directed_rounding_exhaustive(toy):
    checked = 0
    for w, e in all_words(toy, 4):
        rounded = apply_flagged_round(w)
        nearest = attach_exponent(rounded, e, toy)
        lo, hi = recover_bounds(nearest, rounded.flag)
        true_value = w.value() * F(2) ** e
        want_lo = toy.round(true_value, RD.TO_NEG_INF)
        want_hi = toy.round(true_value, RD.TO_POS_INF)
        # zero signs compare by value: the scheme keeps the word's sign bit
        # on a zero result where the rounder pins exact zero to +0
        assert same_value(lo, want_lo), (w, e, lo, want_lo)
        assert same_value(hi, want_hi), (w, e, hi, want_hi)
        checked += 1
    assert checked == 1680  # 2 signs x 4 kept x 30 discard patterns x 7 placements


def test_flag_faithfulness(toy):
    for w, e in all_words(toy, 3):
        rounded = apply_flagged_round(w)
        exact = w.magnitude()
        got = rounded.magnitude()
        if rounded.flag is RoundFlag.EXACT:
            assert got == exact
        elif rounded.flag is RoundFlag.ROUNDED_UP:
            assert got > exact
        else:
            assert got < exact


def test_attach_exponent_enforces_its_placement(toy):
    one = apply_flagged_round(word("1.01|1"))
    zero_lead = apply_flagged_round(word("0.01|0"))
    assert attach_exponent(one, toy.e_max, toy) == Fp.from_exact(toy, F(12))
    assert attach_exponent(zero_lead, toy.e_min, toy) == Fp.from_exact(toy, F(1, 16))
    carried = apply_flagged_round(word("1.11|1"))
    assert attach_exponent(carried, toy.e_max, toy) == Fp.inf(toy)  # saturates
    with pytest.raises(ValueError, match="keeps 3 fraction bits"):
        attach_exponent(apply_flagged_round(word("1.011|1")), 0, toy)
    for e in (toy.e_min - 1, toy.e_max + 1, -(10**12), 10**12):
        with pytest.raises(ValueError, match="outside"):
            attach_exponent(one, e, toy)
    with pytest.raises(ValueError, match="only at"):
        attach_exponent(zero_lead, toy.e_min + 1, toy)


@pytest.mark.parametrize("descriptor", ["p3e-2:3", "p3e-2:3ns", "p4e-3:3"])
def test_attach_exponent_places_every_word_as_its_value(descriptor):
    # placing the significand agrees with rounding the word's exact value:
    # a zero keeps the word's sign, a carry past e_max saturates, and a 0.
    # word that is not zero has no place in a format without subnormals
    fmt = parse_format(descriptor)
    M = fmt.max_finite().to_rational()
    placed = refused = 0
    for w, e in all_words(fmt, 4):
        rounded = apply_flagged_round(w)
        mag = rounded.magnitude() * F(2) ** e
        try:
            if mag == 0:
                want = Fp.zero(fmt, rounded.negative)
            elif mag > M:
                want = Fp.inf(fmt, rounded.negative)
            else:
                want = Fp.from_exact(fmt, -mag if rounded.negative else mag)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                attach_exponent(rounded, e, fmt)
            assert str(info.value) == str(exc), (w, e)
            refused += 1
            continue
        assert attach_exponent(rounded, e, fmt) == want, (w, e)
        placed += 1
    assert refused == (0 if fmt.subnormals else 180) and placed > 1000
