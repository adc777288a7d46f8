"""Rounding-flag scheme: the up/truncate table and bound recovery.

The word demo has no arithmetic of its own: a word's rounding and its
placement in a format are the library's flag rule and neighbour step, and
its bracket is `recover_bounds`.  These tests pin the paper's table on
words, then the chain from a placed word to its bracket."""

from fractions import Fraction as F

import pytest

from intervalfp import (
    DomainError,
    Fp,
    PreRoundedWord,
    RoundFlag,
    parse_format,
    recover_bounds,
)
from intervalfp.roundflag import rounded_str

from words import all_words, recovery_mismatches


def word(text):
    return PreRoundedWord.parse(text)


def flag(text):
    return word(text).rounded()[1]


# -- flag table ----------------------------------------------------------------


@pytest.mark.parametrize(
    "b_r, b_r1, rounds_up",
    [(0, 0, False), (0, 1, True), (1, 0, False), (1, 1, True)],
)
def test_flag_table_rows(b_r, b_r1, rounds_up):
    # with and without extra set bits after the first discarded one
    for tail in ("", "0", "1", "01"):
        got = flag(f"1.0{b_r}|{b_r1}{tail}")
        assert (got is RoundFlag.ROUNDED_UP) == rounds_up
        if not rounds_up and not int(f"0{tail}" or "0"):
            expected_exact = b_r1 == 0 and not any(int(c) for c in tail)
            assert (got is RoundFlag.EXACT) == expected_exact


def test_flag_examples():
    assert flag("1.011|11") is RoundFlag.ROUNDED_UP
    assert flag("1.010|001") is RoundFlag.NOT_ROUNDED_UP
    assert flag("1.010|00") is RoundFlag.EXACT


def test_ties_round_up_not_to_even():
    # exactly halfway, retained word even: the table still rounds up
    x, got = word("1.010|10").rounded()
    assert got is RoundFlag.ROUNDED_UP
    assert x.to_rational() == F(11, 8)


def test_apply_flagged_round_examples():
    # the word rounded at its cut, as the demo prints it
    for text, want in [("1.011|11", ("1.100", RoundFlag.ROUNDED_UP)),
                       ("1.010|10", ("1.011", RoundFlag.ROUNDED_UP)),
                       ("1.010|00", ("1.010", RoundFlag.EXACT)),
                       ("1.111|01", ("1.111", RoundFlag.NOT_ROUNDED_UP)),
                       ("-0.000|01", ("-0.000", RoundFlag.NOT_ROUNDED_UP)),
                       ("0.111|1", ("1.000", RoundFlag.ROUNDED_UP))]:
        x, got = word(text).rounded()
        assert (rounded_str(x), got) == want, text


def test_carry_out_reported():
    x, _ = word("1.111|1").rounded()
    assert rounded_str(x) == "0.000 +carry" and x.to_rational() == 2
    x, _ = word("-1.111|1").rounded()
    assert rounded_str(x) == "-0.000 +carry" and x.to_rational() == -2


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


def test_recovery_equals_directed_rounding_exhaustive(toy):
    checked, found = recovery_mismatches(toy, 4)
    assert found == []
    assert checked == 1680  # 2 signs x 4 kept x 30 discard patterns x 7 placements


def test_flag_faithfulness(toy):
    for w, _ in all_words(toy, 3):
        x, got = w.rounded()
        exact, rounded = abs(w.value()), abs(x.to_rational())
        if got is RoundFlag.EXACT:
            assert rounded == exact
        elif got is RoundFlag.ROUNDED_UP:
            assert rounded > exact
        else:
            assert rounded < exact


def test_attach_exponent_enforces_its_placement(toy):
    def placed(text, e):
        return word(text).place(toy, e)[0]

    assert placed("1.01|1", toy.e_max) == Fp.from_exact(toy, F(12))
    assert placed("0.01|0", toy.e_min) == Fp.from_exact(toy, F(1, 16))
    assert placed("1.11|1", toy.e_max) == Fp.inf(toy)  # a carry past e_max saturates
    assert placed("0.11|1", toy.e_min) == Fp.from_exact(toy, F(1, 4))  # carries into b0
    with pytest.raises(ValueError, match="keeps 3 fraction bits"):
        placed("1.011|1", 0)
    for e in (toy.e_min - 1, toy.e_max + 1, -(10**12), 10**12):
        with pytest.raises(ValueError, match="outside"):
            placed("1.01|1", e)
    # a 0. word sits at e_min, also where its rounding carries into b0
    for text in ("0.01|0", "0.11|1"):
        for e in (toy.e_min + 1, toy.e_max, toy.e_max + 1):
            with pytest.raises(ValueError, match="only at"):
                placed(text, e)


@pytest.mark.parametrize("descriptor", ["p3e-2:3", "p3e-2:3ns", "p4e-3:3"])
def test_attach_exponent_places_every_word_as_its_value(descriptor):
    # placing the significand agrees with rounding the word's exact value:
    # a zero keeps the word's sign, a carry past e_max saturates, and a 0.
    # word that is not zero has no place in a format without subnormals
    fmt = parse_format(descriptor)
    M = fmt.max_finite().to_rational()
    placed = refused = 0
    for w, e in all_words(fmt, 4):
        rounded, _ = w.rounded()
        negative = w.negative
        mag = abs(rounded.to_rational()) * F(2) ** e
        try:
            if mag == 0:
                want = Fp.zero(fmt, negative)
            elif mag > M:
                want = Fp.inf(fmt, negative)
            else:
                want = Fp.from_exact(fmt, -mag if negative else mag)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                w.place(fmt, e)
            assert str(info.value) == str(exc), (w, e)
            refused += 1
            continue
        assert w.place(fmt, e)[0] == want, (w, e)
        placed += 1
    assert refused == (0 if fmt.subnormals else 180) and placed > 1000
