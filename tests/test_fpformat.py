"""Format layer: encoding, neighbours, directed rounding, enumeration."""

import copy
import math
import operator
import pickle
import random
import struct
from fractions import Fraction as F

import pytest

from intervalfp import (
    BINARY64,
    DomainError,
    EnumerationLimitError,
    FloatFormat,
    Fp,
    FpKind,
    RoundFlag,
    RoundingDirection,
    parse_format,
    recover_bounds,
    value_cmp,
)

from formats import CATALOG_FORMATS

RD = RoundingDirection


def _is_even(v):
    return v.is_zero or v.is_inf or v.c % 2 == 0


def brute_round(fmt, q, direction):
    """Reference rounder: scan the full enumeration.  Independent of the
    arithmetic in FloatFormat.round, and so the one reference here for
    nearest that does not read the rounding core.

    A zero result carries the sign of q.  Nearest overflows from M plus half
    an ulp on, and a tie goes to the even significand (a zero counts as even
    and wins over the least normal of a format without subnormals)."""
    values = [v for v in fmt.enumerate() if v.is_finite and not (v.is_zero and v.negative)]
    below = [v for v in values if v.to_rational() <= q]
    above = [v for v in values if v.to_rational() >= q]
    lo = max(below, key=Fp.to_rational) if below else Fp.inf(fmt, negative=True)
    hi = min(above, key=Fp.to_rational) if above else Fp.inf(fmt)
    M = fmt.max_finite().to_rational()
    half_ulp = (M - fmt.max_finite().next_down().to_rational()) / 2
    if direction is RD.TO_NEG_INF:
        got = lo
    elif direction is RD.TO_POS_INF:
        got = hi
    elif direction is RD.TO_ZERO:
        got = hi if q < 0 else lo
    elif abs(q) >= M + half_ulp:
        got = Fp.inf(fmt, negative=q < 0)
    elif lo.is_inf or hi.is_inf:
        got = hi if lo.is_inf else lo
    else:
        d_lo, d_hi = q - lo.to_rational(), hi.to_rational() - q
        if d_lo != d_hi:
            got = lo if d_lo < d_hi else hi
        elif _is_even(lo) and _is_even(hi):
            got = lo if abs(lo.to_rational()) < abs(hi.to_rational()) else hi
        else:
            got = lo if _is_even(lo) else hi
    return Fp.zero(fmt, negative=q < 0) if got.is_zero else got


# -- constants and enumeration ------------------------------------------------


def test_max_finite_examples(toy, tiny):
    assert toy.max_finite().to_rational() == 14
    assert tiny.max_finite().to_rational() == F(3, 2)
    assert BINARY64.max_finite().hex_str() == "0x1.fffffffffffffp+1023"
    assert BINARY64.max_finite().to_rational() == (2**53 - 1) * F(2) ** 971


def test_min_pos_examples(toy):
    assert toy.min_pos().to_rational() == F(1, 16)
    assert parse_format("p3e-2:3ns").min_pos().to_rational() == F(1, 4)
    assert BINARY64.min_pos().to_rational() == F(1, 2**1074)


def test_enumerate_tiny(tiny):
    assert [str(v) for v in tiny.enumerate()] == [
        "-inf", "-1.5", "-1", "-0", "+0", "1", "1.5", "+inf",
    ]


def test_enumerate_count_and_order(toy):
    values = toy.enumerate()
    assert len(values) == 58 == toy.value_count()
    # ascending in value, with the zeros adjacent
    for a, b in zip(values, values[1:]):
        assert value_cmp(a, b) <= 0
    assert sum(1 for v in values if v.is_zero) == 2


def test_enumerate_adjacency_contract(toy, toy4, tiny):
    for fmt in (toy, toy4, tiny):
        values = fmt.enumerate()
        for a, b in zip(values, values[1:]):
            assert a.next_up() == b
            assert b.next_down() == a


def test_enumeration_symmetric_under_negation(toy):
    values = toy.enumerate()
    assert [-v for v in reversed(values)] == values


def test_enumeration_guard():
    with pytest.raises(EnumerationLimitError):
        BINARY64.enumerate()


def test_format_validation():
    with pytest.raises(ValueError):
        FloatFormat(1, 0, 0)
    with pytest.raises(ValueError):
        FloatFormat(3, 2, 1)


def test_a_format_is_a_value_built_through_its_checks(toy):
    assert FloatFormat(3, -2, 3) == toy and hash(FloatFormat(3, -2, 3)) == hash(toy)
    assert FloatFormat(3, -2, 3, subnormals=False) != toy
    assert copy.deepcopy(BINARY64) == BINARY64 and pickle.loads(pickle.dumps(toy)) == toy
    with pytest.raises(TypeError):
        FloatFormat._make((1, 0, 0, True, True))
    with pytest.raises(TypeError):
        toy._replace(precision=1)
    for combine in (lambda: toy < BINARY64, lambda: toy + toy, lambda: toy * 2):
        with pytest.raises(TypeError):
            combine()


# -- neighbours ------------------------------------------------------------------


def test_next_up_examples(toy):
    M = toy.max_finite()
    assert M.next_up() == Fp.inf(toy)
    assert Fp.zero(toy).next_up() == toy.min_pos()
    assert Fp.from_exact(toy, F(1, 4)).next_up() == Fp.from_exact(toy, F(5, 16))


def test_next_down_examples(toy):
    assert (-toy.max_finite()).next_down() == Fp.inf(toy, negative=True)
    assert Fp.from_exact(toy, F(3, 8)).next_down() == Fp.from_exact(toy, F(5, 16))
    one = Fp.from_exact(toy, 1)
    assert one.next_up().next_down() == one


def test_neighbours_undefined(toy):
    with pytest.raises(DomainError):
        Fp.inf(toy).next_up()
    with pytest.raises(DomainError):
        Fp.inf(toy, negative=True).next_down()
    with pytest.raises(DomainError):
        Fp.nan(toy).next_up()
    with pytest.raises(DomainError):
        Fp.nan(toy).next_down()


def test_neighbours_away_from_and_toward_zero_keep_the_sign(toy):
    M, m = toy.max_finite(), toy.min_pos()
    assert (-M).next_down() == Fp.inf(toy, negative=True)
    assert M.next_up() == Fp.inf(toy)
    assert (-m).next_up() == Fp.zero(toy, negative=True)
    half = Fp.from_exact(toy, F(-1, 2))  # a binade's bottom: the step halves
    assert half.next_up() == Fp.from_exact(toy, F(-7, 16))
    assert half.next_down() == Fp.from_exact(toy, F(-5, 8))


def test_neighbours_without_subnormals():
    fmt = parse_format("p3e-2:3ns")
    min_normal = fmt.min_pos()
    assert min_normal.next_down() == Fp.zero(fmt)
    assert Fp.zero(fmt).next_up() == min_normal


# -- rounding ---------------------------------------------------------------------


def test_round_third_examples(toy):
    assert toy.round(F(1, 3), RD.TO_POS_INF).to_rational() == F(3, 8)
    assert toy.round(F(1, 3), RD.TO_NEG_INF).to_rational() == F(5, 16)


def test_round_saturation(toy):
    assert toy.round(F(32), RD.TO_NEG_INF) == toy.max_finite()
    assert toy.round(F(32), RD.TO_POS_INF) == Fp.inf(toy)
    assert toy.round(F(-32), RD.TO_POS_INF) == -toy.max_finite()
    assert toy.round(F(-32), RD.TO_NEG_INF) == Fp.inf(toy, negative=True)


def test_round_zero_signs(toy):
    tiny_pos = F(1, 1000)
    assert toy.round(F(0), RD.TO_NEG_INF) == Fp.zero(toy)
    assert toy.round(tiny_pos, RD.TO_ZERO) == Fp.zero(toy)
    assert toy.round(-tiny_pos, RD.TO_ZERO) == Fp.zero(toy, negative=True)
    assert toy.round(-tiny_pos, RD.TO_POS_INF) == Fp.zero(toy, negative=True)
    assert toy.round(tiny_pos, RD.TO_NEG_INF) == Fp.zero(toy)


def test_round_nearest_ties_to_even(toy):
    # 0.34375 sits exactly between 0.3125 (c=5) and 0.375 (c=6): even wins
    assert toy.round(F(11, 32), RD.NEAREST).to_rational() == F(3, 8)
    # halfway between 0 and the smallest subnormal: even (zero) wins
    assert toy.round(F(1, 32), RD.NEAREST) == Fp.zero(toy)


def test_round_nearest_overflow_threshold(toy):
    # threshold is M + half an ulp = 15
    assert toy.round(F(15) - F(1, 1000), RD.NEAREST) == toy.max_finite()
    assert toy.round(F(15), RD.NEAREST) == Fp.inf(toy)


def test_round_against_brute_force():
    # the catalog formats: M < 1, m > 1, with and without subnormals
    for fmt in map(parse_format, CATALOG_FORMATS):
        finite = [v.to_rational() for v in fmt.enumerate() if v.is_finite]
        M = fmt.max_finite().to_rational()
        half_ulp = (M - fmt.max_finite().next_down().to_rational()) / 2
        eps = half_ulp / 64
        half_normal = F(2) ** fmt.e_min / 2
        probes = set()
        for a, b in zip(finite, finite[1:]):
            # the tie (a + b) / 2 and a point on each side of it
            probes.update((a, (a + b) / 2, a + (b - a) / 7, b - (b - a) / 7, b))
        for t in (M + half_ulp, M + half_ulp - eps, M + half_ulp + eps, M + 3,
                  # without subnormals, where nearest leaves zero for the least normal
                  half_normal, half_normal * F(63, 64), half_normal * F(65, 64)):
            probes.update((t, -t))  # the overflow threshold of nearest
        for q in probes:
            for rd in RD:
                assert fmt.round(q, rd) == brute_round(fmt, q, rd), (fmt, q, rd)
            # one nearest rounding and its flag; an infinity counts as larger
            nearest, flag = fmt.round_flagged(q)
            assert nearest == brute_round(fmt, q, RD.NEAREST), (fmt, q)
            exact = nearest.is_finite and nearest.to_rational() == q
            larger = nearest.is_inf or abs(nearest.to_rational()) > abs(q)
            assert (flag is RoundFlag.EXACT) == exact, (fmt, q, flag)
            assert (flag is RoundFlag.ROUNDED_UP) == larger, (fmt, q, flag)


def test_round_trip_every_value_every_direction(toy):
    for v in toy.enumerate():
        if not v.is_finite:
            continue
        for rd in RD:
            got = toy.round(v.to_rational(), rd)
            assert got.to_rational() == v.to_rational()


def test_directed_bracketing_and_adjacency(toy):
    rng = random.Random(9)
    for _ in range(500):
        q = F(rng.randint(-4000, 4000), rng.randint(1, 997))
        lo = toy.round(q, RD.TO_NEG_INF)
        hi = toy.round(q, RD.TO_POS_INF)
        if lo.is_inf or hi.is_inf:
            continue
        assert lo.to_rational() <= q <= hi.to_rational()
        if lo.to_rational() != hi.to_rational():
            assert lo.next_up().to_rational() == hi.to_rational()


def test_round_monotone(toy):
    rng = random.Random(10)
    qs = sorted(F(rng.randint(-3000, 3000), rng.randint(1, 499)) for _ in range(300))
    for rd in (RD.TO_NEG_INF, RD.TO_POS_INF, RD.TO_ZERO, RD.NEAREST):
        rounded = [toy.round(q, rd) for q in qs]
        for a, b in zip(rounded, rounded[1:]):
            assert value_cmp(a, b) <= 0


def test_round_negation_symmetry(toy):
    rng = random.Random(11)
    for _ in range(300):
        q = F(rng.randint(-3000, 3000), rng.randint(1, 499))
        down_neg = toy.round(-q, RD.TO_NEG_INF)
        up_pos = toy.round(q, RD.TO_POS_INF)
        assert down_neg == -up_pos


def test_binary64_nearest_matches_host_division():
    # CPython rounds int / int correctly to nearest, ties to even, and
    # raises OverflowError from M plus half an ulp on
    rng = random.Random(14)
    M = BINARY64.max_finite().to_rational()
    half_ulp = F(2) ** 970
    m = BINARY64.min_pos().to_rational()
    qs = [F(rng.getrandbits(rng.randint(1, 200)) + 1, rng.getrandbits(rng.randint(1, 200)) + 1)
          * F(2) ** rng.randint(-1100, 1000) for _ in range(2000)]
    for _ in range(300):  # exact ties between neighbours, normal and subnormal
        x = Fp.from_float(BINARY64, rng.choice((1.0, 1e-310, 3e300)) * rng.random())
        qs.append((x.to_rational() + x.next_up().to_rational()) / 2)
    qs += [M + half_ulp, M + half_ulp - m, M + half_ulp + m, m / 2, m * 3 / 2, m / 3,
           2 * M, F(1, 3), F(0)]
    for q in qs + [-q for q in qs]:
        got = BINARY64.round(q, RD.NEAREST).to_float()
        try:
            want = float(q)
        except OverflowError:
            want = -math.inf if q < 0 else math.inf
        assert got == want and math.copysign(1, got) == math.copysign(1, want), q


def test_round_both_matches_directed(toy):
    rng = random.Random(12)
    for _ in range(300):
        q = F(rng.randint(-4000, 4000), rng.randint(1, 997))
        assert toy.round_both(q) == (
            toy.round(q, RD.TO_NEG_INF),
            toy.round(q, RD.TO_POS_INF),
        )


def _exact_results(fmt):
    """The exact result of every op on every pair of finite values of a toy
    format, or on a seeded stream of binary64 pairs."""
    if fmt is BINARY64:
        from intervalfp.harness import binary64_pairs

        pairs = [(a.to_rational(), b.to_rational())
                 for a, b in binary64_pairs(1500, 10, finite_only=True)]
    else:
        finite = [v.to_rational() for v in fmt.enumerate() if v.is_finite]
        pairs = [(a, b) for a in finite for b in finite]
    for a, b in pairs:
        yield from (a + b, a - b, a * b)
        if b:
            yield a / b


@pytest.mark.parametrize("descriptor", ["p3e-2:3", "b64"])
def test_round_is_nearest_or_one_side_of_round_both(descriptor):
    fmt = parse_format(descriptor)
    for q in _exact_results(fmt):
        lo, hi = fmt.round_both(q)
        nearest = fmt.round(q, RD.NEAREST)
        assert nearest == fmt.round_flagged(q)[0] and nearest in (lo, hi), q
        assert fmt.round(q, RD.TO_NEG_INF) == lo, q
        assert fmt.round(q, RD.TO_POS_INF) == hi, q
        assert fmt.round(q, RD.TO_ZERO) == (hi if q < 0 else lo), q


@pytest.mark.parametrize("descriptor", ["p3e-2:3", "b64"])
def test_directed_rounding_builds_no_neighbour_it_drops(descriptor, built):
    # `round` builds the one value it returns and nothing else (a -0 is
    # built as -0, not negated from a +0), `round_flagged` its nearest
    # value and `round_both` its two sides, one object when q is exact.
    # `_round_out` builds the two bounds it returns and nothing else: the
    # infinity and the one side of q it keeps
    from intervalfp.interval import _MINUS_INF, _PLUS_INF, _round_out

    fmt = parse_format(descriptor)
    for q in _exact_results(fmt):
        for rd in RD:
            built.clear()
            got = fmt.round(q, rd)
            assert len(built) == 1 and built[0] is got, (q, rd, built)
        built.clear()
        nearest = fmt.round_flagged(q)[0]
        assert len(built) == 1 and built[0] is nearest, (q, built)
        built.clear()
        lo, hi = fmt.round_both(q)
        assert len(built) == 2 - (lo is hi), (q, built)
        assert all(any(x is y for y in built) for x in (lo, hi)), (q, built)
        bound = (q.numerator, q.denominator)
        for upper in (False, True):
            built.clear()
            out = _round_out(*((_MINUS_INF, bound) if upper else (bound, _PLUS_INF)), fmt)
            assert len(built) == 2 and built[0] is not built[1], (q, upper)
            assert all(x is out.lo or x is out.hi for x in built), (q, upper)
            side = out.hi if upper else out.lo
            assert value_cmp(side, (lo, hi)[upper]) == 0, (q, upper)


def _same_fields(x, y):
    """x and y are one datum, field for field: a -0 differs from a +0."""
    return x.kind is y.kind and x.negative == y.negative and x.c == y.c and x.e == y.e


@pytest.mark.parametrize("descriptor", [*CATALOG_FORMATS, "b64"])
def test_the_flag_recovers_the_bracket(descriptor):
    """The paper's claim: the nearest value and its rounding flag give both
    directed roundings.  `recover_bounds` steps from nearest to its
    neighbour, and `round_both` reads both sides from the rounding core, so
    the two paths agree field for field, signed zeros included, on every
    exact +, -, * and / result (a seeded stream for binary64)."""
    fmt = parse_format(descriptor)
    zeros = 0
    for q in _exact_results(fmt):
        got, want = recover_bounds(*fmt.round_flagged(q)), fmt.round_both(q)
        assert all(map(_same_fields, got, want)), (q, got, want)
        zeros += any(x.is_zero and x.negative for x in want)
    assert zeros or fmt is BINARY64, "no negative q rounds to -0"


def test_a_side_with_no_neighbour_saturates(toy):
    """A zero rounded up has no neighbour toward zero, and an infinity not
    rounded up none past itself: both bounds are the value, in either sign."""
    for negative in (False, True):
        for x, flag in ((Fp.zero(toy, negative), RoundFlag.ROUNDED_UP),
                        (Fp.inf(toy, negative), RoundFlag.NOT_ROUNDED_UP)):
            lo, hi = recover_bounds(x, flag)
            assert lo is x and hi is x


# -- conversions and text -----------------------------------------------------------


def test_negation_round_trips(toy, tiny):
    for fmt in (toy, tiny):
        for v in fmt.enumerate():
            assert -(-v) == v
            assert -v != v and (-v).negative != v.negative
            assert value_cmp(-v, Fp.zero(fmt)) == -value_cmp(v, Fp.zero(fmt))
        nan = Fp.nan(fmt)
        assert (-nan).is_nan and -nan == nan and not (-nan).negative


def test_to_rational_examples(toy):
    assert Fp.from_exact(toy, F(1, 16)).to_rational() == F(1, 16)
    assert Fp.zero(toy, negative=True).to_rational() == 0
    assert toy.max_finite().to_rational() == 14
    with pytest.raises(DomainError):
        Fp.inf(toy).to_rational()


def test_to_rational_is_the_signed_significand_times_its_scale():
    # value = (-1)**negative * c * 2**(e - p + 1); every value of p2e2:4ns
    # has a scale e - p + 1 >= 0, and the binary64 ends below have one < 0
    values = [v for d in ("p3e-2:3", "p2e2:4ns") for v in parse_format(d).enumerate()
              if v.is_finite]
    for x in (5e-324, 2.0**-1022, 1.7976931348623157e308):
        values += [Fp.from_float(BINARY64, x), Fp.from_float(BINARY64, -x)]
    for v in values:
        expected = F(-1) ** int(v.negative) * v.c * F(2) ** (v.e - v.fmt.precision + 1)
        got = v.to_rational()
        assert type(got) is F and got == expected, v


def test_from_exact_rejects_unrepresentable(toy):
    with pytest.raises(ValueError):
        Fp.from_exact(toy, F(1, 3))
    with pytest.raises(ValueError):
        Fp.from_exact(toy, F(15))


@pytest.mark.parametrize("q", [0.75, 1e300, float("nan"), "3/4", complex(1, 0)],
                         ids=["float", "huge float", "nan", "str", "complex"])
def test_rounding_refuses_a_value_that_is_not_a_rational(toy, q):
    entries = [toy.round_flagged, lambda q: toy.round(q, RD.NEAREST),
               lambda q: toy.round(q, RD.TO_ZERO), toy.round_both, lambda q: Fp.from_exact(toy, q)]
    for entry in entries:
        with pytest.raises(TypeError, match="expected a Fraction or an int, not "):
            entry(q)
    # a float reaches the exact rounding through from_float
    assert Fp.from_float(toy, 0.75) == Fp.from_exact(toy, F(3, 4)) == toy.round_flagged(F(3, 4))[0]


def test_float_bridge_binary64():
    rng = random.Random(13)
    for _ in range(2000):
        bits = rng.getrandbits(64)
        x = struct.unpack("<d", struct.pack("<Q", bits))[0]
        fp = Fp.from_float(BINARY64, x)
        if math.isnan(x):
            assert fp.is_nan
        else:
            assert fp.to_float() == x
            assert math.copysign(1.0, fp.to_float()) == math.copysign(1.0, x)


def _bits_decoder(bits):
    """Reference binary64 decoder: the IEEE fields straight into the
    canonical encoding, as `Fp.from_float` decoded them through struct."""
    neg = bool(bits >> 63)
    biased, trailing = (bits >> 52) & 0x7FF, bits & ((1 << 52) - 1)
    if biased == 0x7FF:
        return Fp.inf(BINARY64, neg) if trailing == 0 else Fp.nan(BINARY64)
    if biased == 0:
        if trailing == 0:
            return Fp.zero(BINARY64, neg)
        return Fp(BINARY64, FpKind.FINITE, neg, trailing, -1022)
    return Fp(BINARY64, FpKind.FINITE, neg, trailing | (1 << 52), biased - 1023)


def test_from_float_binary64_matches_the_bit_fields():
    magnitudes = (0.0, math.inf, math.nan, 5e-324, math.nextafter(2.0**-1022, 0.0),
                  2.0**-1022, 1.7976931348623157e308)
    rng = random.Random(12)
    all_bits = [struct.unpack("<Q", struct.pack("<d", math.copysign(m, s)))[0]
                for m in magnitudes for s in (1.0, -1.0)]
    all_bits += [rng.getrandbits(64) for _ in range(10000)]
    for bits in all_bits:
        x = struct.unpack("<d", struct.pack("<Q", bits))[0]
        assert Fp.from_float(BINARY64, x) == _bits_decoder(bits), hex(bits)


# -- value semantics -----------------------------------------------------------------


def test_fp_is_an_immutable_unordered_value(toy):
    x, y = Fp.from_exact(toy, F(1, 2)), Fp.from_exact(toy, 3)
    for field in ("fmt", "kind", "negative", "c", "e", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, field, y)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(x, y)
    # a value, not a sequence: the tuple's + and * do not apply
    for combine in (lambda: x + y, lambda: x * 2, lambda: 2 * x):
        with pytest.raises(TypeError):
            combine()
    assert Fp.zero(toy) != Fp.zero(toy, negative=True)
    assert repr(x) == "Fp('0.5', 'p3e-2:3')"
    assert repr(Fp.inf(BINARY64, negative=True)) == "Fp('-inf', 'b64')"


def test_fp_refuses_the_namedtuple_helpers(toy):
    # _make and _replace would build an Fp past the class call's checks
    x = Fp.from_exact(toy, 3)
    with pytest.raises(TypeError):
        Fp._make(tuple(x))
    with pytest.raises(TypeError):
        x._replace(negative=True)
    # iteration and unpacking stay: the op paths read the five fields at once
    fmt, kind, negative, c, e = x
    assert (fmt, kind, negative, c, e) == tuple(x) == (toy, FpKind.FINITE, False, 6, 1)


def test_the_class_call_refuses_a_finite_value_off_its_encoding(toy):
    # significand 0; c of p + 1 bits, e past e_max, or both (which str would
    # print as 1152); a subnormal c above e_min; e below e_min; a negative
    # or a float c
    for c, e in ((0, 1), (8, 3), (6, 4), (9, 9), (2, 0), (6, -3), (-6, 1), (6.0, 1)):
        with pytest.raises(ValueError):
            Fp(toy, FpKind.FINITE, False, c, e)
    # the least subnormal is an encoding with subnormals and none without
    assert Fp(toy, FpKind.FINITE, True, 1, -2) == -toy.min_pos()
    with pytest.raises(ValueError):
        Fp(parse_format("p3e-2:3ns"), FpKind.FINITE, False, 2, -2)


def test_the_class_call_refuses_a_signed_nan_and_a_special_with_fields(toy):
    # a signed NaN would print as nan and be unequal to Fp.nan
    nosub = parse_format("p3e-2:3ns")
    for fmt, kind, negative, c, e in ((toy, FpKind.NAN, True, 0, 0), (toy, FpKind.NAN, False, 0, 1),
                                      (toy, FpKind.ZERO, False, 0, -2), (nosub, FpKind.ZERO, True, 4, 0),
                                      (nosub, FpKind.INF, False, 4, 0), (toy, FpKind.INF, True, 7, 4)):
        with pytest.raises(ValueError):
            Fp(fmt, kind, negative, c, e)
    assert Fp(toy, FpKind.NAN) == Fp.nan(toy) and Fp(nosub, FpKind.INF, True) == Fp.inf(nosub, True)


def test_the_class_call_refuses_fields_of_the_wrong_type(toy):
    for args in (("p3e-2:3", FpKind.ZERO), (toy, "zero"), (toy, FpKind.ZERO, 0),
                 (toy, FpKind.INF, None), (tuple(toy), FpKind.FINITE, False, 6, 1)):
        with pytest.raises(TypeError):
            Fp(*args)


@pytest.mark.parametrize("descriptor, x", [
    ("p3e-2:3", 0.5), ("p3e-2:3", -14.0), ("p3e-2:3", 0.0625), ("p3e-2:3", 0.0),
    ("b64", 0.1), ("b64", -1.7976931348623157e308), ("b64", 5e-324), ("b64", 2.0**-1022),
])
def test_equal_values_from_every_path_are_equal_and_hash_alike(descriptor, x):
    fmt = parse_format(descriptor)
    paths = [Fp.from_float(fmt, x), Fp.from_text(fmt, x.hex()), fmt.round_flagged(F(x))[0],
             Fp.from_float(fmt, x).next_up().next_down()]
    assert all(v == paths[0] for v in paths), paths
    assert len({hash(v) for v in paths}) == 1, paths


def test_descriptor_round_trip(toy, toy4, tiny):
    for fmt in (toy, toy4, tiny, BINARY64):
        assert parse_format(fmt.descriptor()) == fmt
    assert BINARY64.descriptor() == "b64"
    with pytest.raises(ValueError):
        parse_format("q5")


_BEYOND = "beyond the limits of precision 4096 and exponents -262144:262144"


@pytest.mark.parametrize("descriptor, limit", [
    ("p4096e0:1", None),
    ("p4097e0:1", "precision 4097 is above the limit of 4096"),
    ("p3e-262144:3", None),
    ("p3e-262145:3", "exponent -262145 is outside the limit of -262144:262144"),
    ("p3e0:262144", None),
    ("p3e0:262145", "exponent 262145 is outside the limit of -262144:262144"),
    ("p3e-262144:262144ns", None),
    ("p3e262145:262146", "exponent 262145 is outside the limit of -262144:262144"),
    ("p237e-262142:262143", None),  # binary256
    # a field beyond int()'s 4,300 digits is refused by its length
    pytest.param("p3e-" + "9" * 5000 + ":3", "exponent of 5000 digits is " + _BEYOND,
                 id="e_min-5000-digits"),
    pytest.param("p" + "9" * 5000 + "e0:1", "precision of 5000 digits is " + _BEYOND,
                 id="precision-5000-digits"),
    pytest.param("p3e0:" + "9" * 30, "exponent of 30 digits is " + _BEYOND, id="e_max-30-digits"),
])
def test_parse_format_limits(descriptor, limit):
    """Exact bounds near min_pos are integers of about |e_min| + p bits, so
    a descriptor outside these limits is refused before any work."""
    if limit is None:
        assert parse_format(descriptor).descriptor() == descriptor
    else:
        with pytest.raises(ValueError, match=f"^{limit}$"):
            parse_format(descriptor)


def test_value_strings(toy):
    assert str(toy.max_finite()) == "14"
    assert str(Fp.from_exact(toy, F(1, 16))) == "0.0625"
    assert str(Fp.zero(toy)) == "+0"
    assert str(Fp.zero(toy, negative=True)) == "-0"
    assert str(Fp.inf(toy)) == "+inf"
    assert str(Fp.inf(toy, negative=True)) == "-inf"
    assert str(Fp.nan(toy)) == "nan"
    assert Fp.from_exact(toy, 3).hex_str() == "0x1.8p+1"


def test_hex_literals_parse_back(toy):
    for v in toy.enumerate():
        if v.kind is not FpKind.FINITE:
            continue
        assert Fp.from_text(toy, v.hex_str()) == v
        assert Fp.from_text(toy, v.decimal_str()) == v


def test_binary64_prints_hex_when_decimal_is_long():
    assert str(BINARY64.max_finite()) == "0x1.fffffffffffffp+1023"
    assert str(Fp.from_exact(BINARY64, F(1, 2))) == "0.5"


def test_from_text_inverts_str(toy, tiny):
    from intervalfp.harness import adversarial_binary64

    cases = [(fmt, v) for fmt in (tiny, toy) for v in fmt.enumerate()]
    cases += [(BINARY64, v) for v in adversarial_binary64()]
    for fmt, v in cases:
        assert Fp.from_text(fmt, str(v)) == v  # equality tells the zero signs apart
    for text in ("nan", "+nan", "-nan"):
        assert Fp.from_text(toy, text).is_nan
    assert Fp.from_text(toy, "inf") == Fp.inf(toy)
    # the hex spelling the expression lexer also accepts
    assert Fp.from_text(toy, "0X1.8P+1") == Fp.from_exact(toy, 3)


def test_from_text_rejects_inexact_and_malformed(toy):
    inexact = ["0.3", "15", "-15", "0x1.1p+0", "1e-5"]
    malformed = ["", "+", "-", "--1", "+-inf", "1..2", "0x", "0x1.8p", "3/4", "1_0", "1e",
                 "infinity", "nan1", "- 1"]
    for text in inexact + malformed:
        with pytest.raises(ValueError):
            Fp.from_text(toy, text)


def test_str_is_short_decimal_else_hex(toy, toy4):
    from intervalfp.harness import adversarial_binary64

    def b64(x):
        return Fp.from_float(BINARY64, x)

    # exact decimals of exactly 20 and exactly 21 characters
    edge = {20: [b64(2.0**64), b64(-(2.0**63)), b64(2.0**-18), b64(-(2.0**-17)), b64(3 * 2.0**-18)],
            21: [b64(2.0**67), b64(-(2.0**64)), b64(2.0**-19), b64(-(2.0**-18))]}
    for length, values in edge.items():
        assert all(len(v.decimal_str()) == length for v in values), length
    cases = [v for fmt in (toy, toy4) for v in fmt.enumerate() if v.kind is FpKind.FINITE]
    cases += [v for v in adversarial_binary64() if v.kind is FpKind.FINITE]
    for v in cases + edge[20] + edge[21]:
        dec = v.decimal_str()
        assert str(v) == (dec if len(dec) <= 20 else v.hex_str()), v.hex_str()


def test_unrepresentable_error_is_bounded():
    from intervalfp import parse_interval

    for build in (lambda: Fp.from_text(BINARY64, "1e5000"),
                  lambda: parse_interval("[1e5000, inf)", BINARY64),
                  lambda: Fp.from_text(BINARY64, "-1e-5000")):
        with pytest.raises(ValueError, match="not representable") as info:
            build()
        assert len(str(info.value)) <= 120
