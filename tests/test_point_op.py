"""The point kernel against the exact core, the oracle and the FPU, and
the exact core against `round_both`.

`interval.point_op` decides the point ops of every format that binary64
holds (`FloatFormat.host`) on host floats: the binary64 result r, rounded
once more to the format, plus the exact sign of its error.  Its binary64
hard cases are built here on purpose: exact results, ties and values one
unit either side, exact cancellation, results around M + half an ulp and
around 2**-1022, operands at 2**1022 +- one ulp, subnormal operands, and
the adversarial block.  The small host formats are checked on every pair,
binary32 and the wider host formats on seeded samples.  A format binary64
does not hold encloses the exact result in the format layer's one rounding
core, `fpformat._enclose`, which `interval` imports.
"""

import math
import random
import struct
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalfp import (BINARY64, Fp, FpKind, OpKind, RoundingDirection, ZeroMode, fpformat,
                        interval, oracle_op, parse_format)
from intervalfp.harness import adversarial_binary64, ieee_reference_native, native_rounding_available
from intervalfp.fpformat import FloatFormat, RoundFlag
from intervalfp.interval import _round_point, apply_op, point_op
from intervalfp.semantics import fp_interval_op, interpret, same_value

from formats import CATALOG_FORMATS, HOST_FORMATS

M = sys.float_info.max
TINY = 2.0**-1022  # least normal
SUB = 5e-324  # least subnormal
EXACT = {
    OpKind.ADD: lambda p, q: p + q,
    OpKind.SUB: lambda p, q: p - q,
    OpKind.MUL: lambda p, q: p * q,
    OpKind.DIV: lambda p, q: p / q,
}


def _signed(rng, x):
    return -x if rng.random() < 0.5 else x


def _clustered(rng, lo=-64, hi=64):
    """A random full-precision value with binary exponent in [lo, hi]."""
    mant = rng.getrandbits(52) | (1 << 52)
    return _signed(rng, math.ldexp(mant, rng.randint(lo, hi) - 52))


def _odd(rng, bits):
    """A random odd integer of exactly `bits` bits."""
    return rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1


def _around(x, units=2):
    """x and its neighbours up to `units` steps either side."""
    out, lo, hi = [x], x, x
    for _ in range(units):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _solve_pairs(rng, op, target, count):
    """Pairs whose result lies within a few units of target: a random a,
    then b and its neighbours around the b that sends a to target."""
    out = []
    for _ in range(count):
        if op is OpKind.ADD or op is OpKind.SUB:
            a = target * rng.uniform(0.25, 0.75)
            b0 = target - a if op is OpKind.ADD else a - target
        elif op is OpKind.MUL:
            a = math.ldexp(1 + rng.random(), rng.randint(0, 8))
            b0 = target / a
        else:
            a = math.ldexp(1 + rng.random(), rng.randint(-8, 0))
            b0 = a / target
        out += [(a, b) for b in _around(b0) if math.isfinite(b) and b != 0]
    return out


def _sum_pairs(rng, n):
    """Addends: exact sums, ties and one unit either side, cancellation,
    sums around 2**-1022 and operands at 2**1022 +- one ulp."""
    out = []
    for _ in range(n):
        a = _clustered(rng)
        u = math.ulp(a)
        half = u / 2
        out += [(a, _signed(rng, b)) for b in (half, *_around(half, 1), 1.5 * u, 3 * u)]
        out += [(a, -b) for b in _around(a, 1)]  # cancellation and near it
        out.append((a, _clustered(rng, -60, 60)))
        # same binade: a 54-bit sum ends in a tie when its last bit is set
        e = math.frexp(a)[1]
        out.append((a, math.copysign(math.ldexp(1 + rng.random(), e - 1), a)))
        k, j = rng.randrange(1, 1 << 20), rng.randrange(1, 1 << 20)
        out.append((TINY + k * SUB, -(j * SUB)))  # sums around 2**-1022
        big = rng.choice(_around(2.0**1022, 1))
        out.append((_signed(rng, big), rng.choice((_clustered(rng, 1000, 1021), _clustered(rng)))))
        out.append((_signed(rng, rng.randrange(1, 1 << 52) * SUB), _clustered(rng, -1030, -1000)))
    return out


def _product_pairs(rng, n):
    """Factors: exact products, ties, and products a tiny remainder either
    side of a tie or of a format value."""
    out = []
    for _ in range(n):
        s, t = rng.randint(-40, 40), rng.randint(-40, 40)
        out.append((math.ldexp(_odd(rng, 26), s), math.ldexp(_odd(rng, 26), t)))  # exact
        out.append((math.ldexp(_odd(rng, 27), s), math.ldexp(_odd(rng, 28), t)))  # tie or near
        u, v = rng.randrange(1, 1 << 20), rng.randrange(1, 1 << 20)
        a = 1 + u * 2.0**-52
        for b in (1 + v * 2.0**-52, 1 - v * 2.0**-53, 2 - v * 2.0**-52, 1.5 + v * 2.0**-52):
            out.append((_signed(rng, math.ldexp(a, s)), _signed(rng, math.ldexp(b, t))))
        out.append((_clustered(rng), _clustered(rng)))
        out.append((_signed(rng, rng.randrange(1, 1 << 52) * SUB), _clustered(rng, 900, 1023)))
    return out


def _quotient_pairs(rng, n):
    """Dividends and divisors: exact quotients and one unit either side."""
    out = []
    for _ in range(n):
        b = math.ldexp(_odd(rng, 40), rng.randint(-80, 0))
        a = b * _odd(rng, 12)  # exact
        out += [(x, _signed(rng, b)) for x in _around(a, 1)]
        out.append((_clustered(rng), _clustered(rng)))
        out.append((_signed(rng, rng.randrange(1, 1 << 52) * SUB), _clustered(rng, -60, 0)))
        out.append((_clustered(rng, 900, 1023), _signed(rng, rng.randrange(1, 1 << 52) * SUB)))
    return out


def _boundary_pairs(rng, op):
    """Results around M + half an ulp and around 2**-1022."""
    targets = (M, M + math.ulp(M) / 2, TINY, TINY - SUB / 2)
    return [p for t in targets for s in (1, -1) for p in _solve_pairs(rng, op, s * t, 12)]


def hard_pairs(op, seed=8):
    rng = random.Random(seed * 10 + list(OpKind).index(op))
    if op in (OpKind.ADD, OpKind.SUB):
        pairs = _sum_pairs(rng, 320)
    elif op is OpKind.MUL:
        pairs = _product_pairs(rng, 540)
    else:
        pairs = _quotient_pairs(rng, 800)
    pairs += _boundary_pairs(rng, op)
    block = [x for x in adversarial_binary64() if not x.is_inf]
    fps = [(Fp.from_float(BINARY64, a), Fp.from_float(BINARY64, b)) for a, b in pairs]
    return fps + [(a, b) for a in block for b in block]


@pytest.mark.parametrize("op", list(OpKind), ids=lambda op: op.name.lower())
def test_point_op_equals_exact_core_oracle_and_fpu(op, monkeypatch):
    native = native_rounding_available()
    seen = dict.fromkeys(("host", "exact", "tie", "subnormal", "overflow", "underflow"), 0)
    checked = 0
    # a pair that point_op rounds without the exact core's `_enclose` is
    # decided on the host
    calls = []
    enclose = interval._enclose
    monkeypatch.setattr(interval, "_enclose", lambda *args: calls.append(args) or enclose(*args))
    for a, b in hard_pairs(op):
        if op is OpKind.DIV and b.is_zero:
            continue
        before = len(calls)
        got = point_op(op, a, b)
        seen["host"] += len(calls) == before
        q = EXACT[op](a.to_rational(), b.to_rational())
        assert got == _round_point((q.numerator, q.denominator), BINARY64), (a, op, b)
        x, y = interpret(a, ZeroMode.INFINITE), interpret(b, ZeroMode.INFINITE)
        assert got == oracle_op(x, y, op, BINARY64), (a, op, b)
        # an exact result is one object, as a point interval is
        assert (got.lo is got.hi) == (got.lo.is_finite and got.lo.to_rational() == q)
        if native:
            down = ieee_reference_native(a, b, op, RoundingDirection.TO_NEG_INF)
            up = ieee_reference_native(a, b, op, RoundingDirection.TO_POS_INF)
            assert same_value(got.lo, down) and same_value(got.hi, up), (a, op, b, got)
        checked += 1
        seen["subnormal"] += any(v.kind is FpKind.FINITE and v.c >> 52 == 0 for v in (a, b))
        seen["overflow"] += abs(q) > F(M)
        seen["underflow"] += 0 < abs(q) < F(TINY)
        seen["exact"] += got.lo is got.hi
        if got.lo.is_finite and got.hi.is_finite:
            seen["tie"] += 2 * q == got.lo.to_rational() + got.hi.to_rational()
    # the host kernel decides every pair, and the generators reach the cases
    # they are built for; a quotient of normal range is never a tie
    assert checked > 5000 and seen["host"] == checked, seen
    cases = [case for case in seen if not (op is OpKind.DIV and case == "tie")]
    assert min(seen[case] for case in cases) >= 20, seen


@pytest.mark.parametrize("op", list(OpKind), ids=lambda op: op.name.lower())
def test_host_nearest_and_flag_equal_the_exact_core(op):
    # the host kernel decides every pair: its interval is the exact core's,
    # a point exactly when nearest rounding is exact, and otherwise holds
    # the nearest value on the side the flag names (a zero stored as +0)
    pairs = 0
    for a, b in hard_pairs(op):
        if op is OpKind.DIV and b.is_zero:
            continue
        pairs += 1
        q = EXACT[op](a.to_rational(), b.to_rational())
        got = point_op(op, a, b)
        assert got == _round_point((q.numerator, q.denominator), BINARY64), (a, op, b)
        nearest, flag = BINARY64.round_flagged(q)
        assert (got.lo is got.hi) == (flag is RoundFlag.EXACT), (a, op, b)
        if flag is not RoundFlag.EXACT:
            # a magnitude rounded up lies beyond q, away from zero
            upper = (flag is RoundFlag.ROUNDED_UP) != nearest.negative
            side = got.hi if upper else got.lo
            assert side == (Fp.zero(BINARY64) if nearest.is_zero else nearest), (a, op, b)
    assert pairs > 5000


@pytest.mark.parametrize("op", [OpKind.MUL, OpKind.DIV], ids=["mul", "div"])
def test_products_and_quotients_fall_back_only_below_the_normal_range(op):
    # an overflow is decided on the host: the exact result is finite, so
    # the infinity nearest rounding gives was rounded up and the interval
    # runs from M to it; below the normal range the host's subnormal or
    # zero gives the exact core's bracket
    overflowed = underflowed = 0
    for a, b in hard_pairs(op):
        if b.is_zero:
            continue
        q = EXACT[op](a.to_rational(), b.to_rational())
        got = point_op(op, a, b)
        nearest, flag = BINARY64.round_flagged(q)
        if 0 < abs(q) < F(TINY):
            assert got == _round_point((q.numerator, q.denominator), BINARY64), (a, op, b)
            underflowed += 1
        elif nearest.is_inf:
            assert flag is RoundFlag.ROUNDED_UP, (a, op, b)
            big = Fp.from_float(BINARY64, -M if q < 0 else M)
            bounds = (nearest, big) if q < 0 else (big, nearest)
            assert got == interval.ExtInterval(BINARY64, *bounds), (a, op, b)
            overflowed += 1
    assert overflowed >= 20 and underflowed >= 20


def _recorded_calls(monkeypatch, names=()):
    """The list that records each nearest rounding (the rounding core asked
    for its nearest side, in either module, or a `FloatFormat` entry),
    `recover_bounds`, `Fp`'s neighbour methods, `Fp.from_float`, the
    checking and normalising builds of `ExtInterval` (the class call and
    `make`) and the interval module's functions in `names`."""
    calls = []

    def recorded(name, f):
        return lambda *args: calls.append(name) or f(*args)

    def nearest_recorded(core):
        def spy(fmt, num, den, side=None, signed_zero=False):
            if side is RoundingDirection.NEAREST:
                calls.append("nearest")
            return core(fmt, num, den, side, signed_zero)
        return spy

    for owner in (fpformat, interval):
        monkeypatch.setattr(owner, "_enclose", nearest_recorded(owner._enclose))
    for name in ("round", "round_both", "round_flagged"):
        monkeypatch.setattr(FloatFormat, name, recorded(name, getattr(FloatFormat, name)))
    for owner, name in ((fpformat, "recover_bounds"), *((interval, name) for name in names)):
        monkeypatch.setattr(owner, name, recorded(name, getattr(owner, name)))
    for owner, name in ((Fp, "from_float"), (interval.ExtInterval, "make"),
                        (interval.ExtInterval, "__new__")):
        monkeypatch.setattr(owner, name, staticmethod(recorded(name, getattr(owner, name))))
    for name in ("next_up", "next_down"):
        monkeypatch.setattr(Fp, name, recorded(name, getattr(Fp, name)))
    return calls


def _builds_only_its_bounds(got, built, cached=()):
    """built holds each bound of got not in cached once, and nothing else."""
    bounds = () if got.is_empty else (got.lo,) if got.lo is got.hi else (got.lo, got.hi)
    fresh = [x for x in bounds if not any(x is y for y in cached)]
    return len(built) == len(fresh) and all(any(x is y for y in built) for x in fresh)


@pytest.mark.parametrize("op", list(OpKind), ids=lambda op: op.name.lower())
def test_binary64_point_op_builds_only_its_bounds(op, built, monkeypatch):
    # the kernel reads r's fields inline and steps them for the neighbour:
    # every Fp it builds is a bound of its result, one for a point, and
    # neither the exact core nor a decoded r and `recover_bounds` is used
    pairs = [(a, b) for a, b in hard_pairs(op) if not (op is OpKind.DIV and b.is_zero)]
    # the only bounds it may return without building them
    cached = (BINARY64.max_finite(), BINARY64.min_pos())
    calls = _recorded_calls(monkeypatch, ("_enclose",))
    for a, b in pairs:
        built.clear()
        got = point_op(op, a, b)
        assert _builds_only_its_bounds(got, built, cached), (a, op, b, built)
    assert calls == []


@pytest.mark.parametrize("descriptor", CATALOG_FORMATS)
def test_the_exact_core_builds_only_its_bounds(descriptor, built, monkeypatch):
    """Every Fp that a point op (on the host kernel) or a wide bound (on the
    exact core) builds is a bound of its result, and nearest rounding,
    `recover_bounds`, `Fp`'s neighbour methods and `ExtInterval`'s checking
    builds are never called: over every pair of meanings in both zero
    modes, and seeded wide intervals."""
    fmt = parse_format(descriptor)
    rng = random.Random(23)
    values = fmt.enumerate()
    operands = []
    for mode in ZeroMode:
        meanings = [interpret(v, mode) for v in values]
        operands.append([(x, y) for x in meanings for y in meanings])
    wide = [interval.ExtInterval.make(*sorted(rng.sample(values, 2), key=Fp.to_float))
            for _ in range(400)]
    operands.append(list(zip(wide[::2], wide[1::2])))
    calls = _recorded_calls(monkeypatch)
    for pairs in operands:
        for op in OpKind:
            for x, y in pairs:
                built.clear()
                got = apply_op(op, x, y)
                assert _builds_only_its_bounds(got, built), (x, op, y, built)
    assert calls == []


def _sample(fmt, rng, n):
    """n seeded finite nonzero values of fmt, subnormals and the extremes
    of the exponent range included."""
    out = []
    for _ in range(n):
        c = rng.randrange(1, 1 << fmt.precision)
        e = rng.choice((fmt.e_min, fmt.e_max, rng.randint(fmt.e_min, fmt.e_max)))
        if c >> (fmt.precision - 1) == 0:  # a significand of fewer than p bits
            c, e = (c, fmt.e_min) if fmt.subnormals else (c | 1 << (fmt.precision - 1), e)
        out.append(Fp(fmt, FpKind.FINITE, rng.random() < 0.5, c, e))
    return out


@pytest.mark.parametrize("descriptor", [*CATALOG_FORMATS, "binary32 sample"])
def test_the_enclosure_is_round_both(descriptor):
    """`_enclose` of every exact +, -, * and / result is `round_both`'s
    bracket with zeros as +0, one object exactly when the result is exact,
    and each side asked for alone is that side.  Only a nearest call reads
    the remainder for the flag: it gives `round_flagged`'s flag and builds
    the side the flag names, and an inexact value asked for a directed side
    or both sides has no flag (None); an exact one is EXACT however asked."""
    if descriptor == "binary32 sample":
        fmt = parse_format("p24e-126:127")
        values = _sample(fmt, random.Random(32), 150)
    else:
        fmt = parse_format(descriptor)
        values = [v for v in fmt.enumerate() if v.is_finite]
    exact = inexact = 0
    for a in values:
        for b in values:
            for op in OpKind:
                if op is OpKind.DIV and b.is_zero:
                    continue
                q = EXACT[op](a.to_rational(), b.to_rational())
                n, d = q.numerator, q.denominator
                lo, hi, flag = interval._enclose(fmt, n, d)
                assert (fmt, lo, hi) == interval.ExtInterval(fmt, *fmt.round_both(q)), (a, op, b)
                nearest = interval._enclose(fmt, n, d, RoundingDirection.NEAREST)
                assert nearest[2] is fmt.round_flagged(q)[1], (a, op, b)
                alone = (interval._enclose(fmt, n, d, RoundingDirection.TO_NEG_INF),
                         interval._enclose(fmt, n, d, RoundingDirection.TO_POS_INF))
                if lo is hi:
                    exact += 1
                    assert flag is nearest[2] is RoundFlag.EXACT, (a, op, b)
                    assert all(side[0] is side[1] == lo and side[2] is flag
                               for side in alone), (a, op, b)
                else:
                    inexact += 1
                    assert flag is None, (a, op, b)
                    assert alone == ((lo, None, None), (None, hi, None)), (a, op, b)
                    # a magnitude rounded up is the side away from zero
                    upper = (nearest[2] is RoundFlag.ROUNDED_UP) != (q < 0)
                    assert nearest[:2] == ((None, hi) if upper else (lo, None)), (a, op, b)
    assert exact and inexact


def _host_decides(op, a, b):
    """point_op of a and b, and the interval op of their points, call the
    exact core's rounding not once and give the exact result's hull."""
    fmt = a.fmt
    calls = []
    core = interval._enclose
    interval._enclose = lambda *args: calls.append(args) or core(*args)
    try:
        x, y = interpret(a, ZeroMode.INFINITE), interpret(b, ZeroMode.INFINITE)
        results = point_op(op, a, b), apply_op(op, x, y)
    finally:
        interval._enclose = core
    assert not calls, (a, op, b)
    q = EXACT[op](a.to_rational(), b.to_rational())
    for got in results:
        assert got == _round_point((q.numerator, q.denominator), fmt), (a, op, b)
        # an exact result is one object, as a point interval is
        assert (got.lo is got.hi) == (got.lo.is_finite and got.lo.to_rational() == q), (a, op, b)


_FINITE64 = (
    st.integers(0, 2**64 - 1)
    .map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
    .filter(math.isfinite)
)


def test_no_binary64_point_op_reaches_the_exact_core():
    # hard_pairs ends with the finite adversarial block, both zeros included
    for op in OpKind:
        for a, b in hard_pairs(op):
            if not (op is OpKind.DIV and b.is_zero):
                _host_decides(op, a, b)

    @settings(deadline=None, derandomize=True, max_examples=1000)
    @given(st.sampled_from(list(OpKind)), _FINITE64, _FINITE64)
    def bit_patterns(op, x, y):
        if not (op is OpKind.DIV and y == 0):
            _host_decides(op, Fp.from_float(BINARY64, x), Fp.from_float(BINARY64, y))

    bit_patterns()


@pytest.mark.parametrize("descriptor", HOST_FORMATS)
def test_no_host_point_op_reaches_the_exact_core(descriptor):
    """Every pair of a small host format, and of 100 seeded binary32 values
    and both zeros, is decided by the kernel alone, through `point_op` and
    through `apply_op`, as the exact result's enclosure."""
    fmt = parse_format(descriptor)
    if fmt.value_count() > 1000:
        values = _sample(fmt, random.Random(24), 100) + [Fp.zero(fmt), Fp.zero(fmt, True)]
    else:
        values = [v for v in fmt.enumerate() if v.is_finite]
    assert fmt.host
    for a in values:
        for b in values:
            for op in OpKind:
                if not (op is OpKind.DIV and b.is_zero):
                    _host_decides(op, a, b)


@pytest.mark.parametrize("descriptor, host", [
    ("b64", True), ("p24e-126:127", True), *((d, True) for d in CATALOG_FORMATS),
    ("p25e-10:10", True), ("p26e-10:10", True), ("p24e-600:600", True),
    ("p53e-1022:1023ns", True), ("p2e-1073:-1073", True), ("p53e-1021:1023", True),
    ("p54e-10:10", False), ("p113e-16382:16383", False), ("p24e-1052:10", False),
    ("p24e0:1024", False), ("p53e-1023:1023", False),
])
def test_host_is_whether_binary64_holds_every_value(descriptor, host):
    """A format is a host format when every value is a binary64 value: at
    most 53 bits, no ulp below 2**-1074 and no binade above 2**1023."""
    fmt = parse_format(descriptor)
    assert fmt.host is host
    if host:  # M and the least positive value are host floats
        for x in (fmt.max_finite(), fmt.min_pos()):
            assert Fp.from_float(fmt, x.to_float()) == x


def _binary64_in(fmt, pairs):
    """The binary64 pairs of nonzero values that fmt holds, moved into fmt."""
    def moved(x):
        fits = x.kind is FpKind.FINITE and (x.c >> 52 or fmt.subnormals)
        return Fp(fmt, FpKind.FINITE, x.negative, x.c, x.e) if fits else None
    return [(a2, b2) for a2, b2 in (map(moved, pair) for pair in pairs) if a2 and b2]


@pytest.mark.parametrize("descriptor", ["p30e-20:20", "p26e-10:10", "p24e-600:600",
                                        "p53e-1022:1023ns", "p60e-20:20", "p113e-16382:16383"])
def test_point_ops_of_wide_formats_are_the_exact_results_enclosure(descriptor):
    """`fp_interval_op` of point pairs is `_round_point` of the exact
    result: on the kernel in the host formats beyond binary32's precision or
    range and in binary64 without subnormals (on `hard_pairs`), and on the
    bound recipes in p60 and binary128, which binary64 does not hold."""
    fmt = parse_format(descriptor)
    values = _sample(fmt, random.Random(30), 80)
    pairs = [(a, b) for a in values[:40] for b in values[40:]]
    if fmt.precision == 53:
        pairs += _binary64_in(fmt, [pair for op in OpKind for pair in hard_pairs(op)[::4]])
    core, calls = interval._enclose, []
    for a, b in pairs:
        for op in OpKind:
            q = EXACT[op](a.to_rational(), b.to_rational())
            interval._enclose = lambda *args: calls.append(args) or core(*args)
            try:
                got = fp_interval_op(a, b, op, ZeroMode.FINITE)
            finally:
                interval._enclose = core
            want = _round_point((q.numerator, q.denominator), fmt)
            assert got == want and (got.lo is got.hi) == (want.lo is want.hi), (a, op, b)
    # the kernel decides host formats without the exact core
    assert (calls == []) is fmt.host and len(pairs) >= 1600


def test_point_op_rejects_mixed_formats(toy):
    with pytest.raises(ValueError, match="different formats"):
        point_op(OpKind.ADD, Fp.from_float(BINARY64, 1.0), Fp.from_float(toy, 1.0))



def test_point_op_decides_binary64_by_a_field_before_comparing_formats(toy):
    """The kernel is chosen by the derived field `host`: a format of another
    precision never reaches FloatFormat.__eq__, a binary64 built field by
    field still takes the host path, and its descriptor parses to BINARY64
    itself."""
    from intervalfp import FloatFormat, parse_format

    calls = []
    eq = FloatFormat.__eq__

    def counted(a, b):
        calls.append((a, b))
        return eq(a, b)

    one, two = Fp.from_float(toy, 1.0), Fp.from_float(toy, 2.0)
    fields = FloatFormat(53, -1022, 1023)
    x = Fp(fields, FpKind.FINITE, False, 1 << 52, 0)
    try:
        FloatFormat.__eq__ = counted
        got = point_op(OpKind.ADD, one, one)
        assert calls == []
        host = point_op(OpKind.MUL, x, x)
    finally:
        FloatFormat.__eq__ = eq
    assert got == interval.ExtInterval(toy, two, two)
    assert host == interval.ExtInterval(fields, x, x)
    assert fields is not BINARY64 and parse_format("p53e-1022:1023") is BINARY64
