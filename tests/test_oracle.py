"""The independent reference path: exact solution sets and tightness."""

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest

from intervalfp import (
    BINARY64,
    ExtInterval,
    Fp,
    FpKind,
    OpKind,
    RealSet,
    RoundingDirection,
    ZeroMode,
    exact_relational_set,
    exhaustive_compare,
    oracle_op,
    parse_format,
    parse_interval,
    run_theorem_suite,
)
from intervalfp import fpformat
from intervalfp import interval as iv_mod
from intervalfp import oracle
from intervalfp import semantics
from intervalfp.oracle import (_NEG, _POS, MeaningMismatch, Mismatch, _to_real_set, least_step,
                               round_scaled)

from formats import CATALOG_FORMATS
from words import recovery_mismatches


def rs(lo, hi):
    return RealSet.interval(lo, hi)


# -- exact relational sets ---------------------------------------------------


def test_division_by_straddling_interval_splits():
    out = exact_relational_set(rs(F(1), F(1)), rs(F(-1), F(1)), OpKind.DIV)
    assert out.parts == ((_NEG, F(-1)), (F(1), _POS))


def test_zero_by_zero_is_everything():
    out = exact_relational_set(rs(F(0), F(0)), rs(F(0), F(0)), OpKind.DIV)
    assert out == RealSet.full()


def test_nonzero_by_point_zero_is_empty():
    out = exact_relational_set(rs(F(2), F(2)), rs(F(0), F(0)), OpKind.DIV)
    assert out.is_empty


def test_add_example():
    out = exact_relational_set(rs(F(2), F(3)), rs(F(4), F(5)), OpKind.ADD)
    assert out == rs(F(6), F(8))


def test_mul_with_straddles():
    out = exact_relational_set(rs(F(-2), F(3)), rs(F(-4), F(5)), OpKind.MUL)
    assert out == rs(F(-12), F(15))
    out = exact_relational_set(rs(F(0), F(0)), rs(_NEG, _POS), OpKind.MUL)
    assert out == rs(F(0), F(0))


def test_unbounded_sets():
    out = exact_relational_set(rs(F(14), _POS), rs(F(14), _POS), OpKind.SUB)
    assert out == RealSet.full()
    out = exact_relational_set(rs(F(14), _POS), rs(F(14), _POS), OpKind.DIV)
    assert out == rs(F(0), _POS)


def test_realset_normalisation():
    merged = RealSet.union([(F(1), F(2)), (F(2), F(3)), (F(5), F(6))])
    assert merged.parts == ((F(1), F(3)), (F(5), F(6)))
    assert merged.contains(F(2)) and not merged.contains(F(4))


def test_scaled_sets_carry_their_unit():
    """Endpoints in units of 2**scale: sums keep the unit and refuse to mix
    two, products add scales, quotients subtract them, and the set reads
    as exact reals."""
    a, b = RealSet.interval(3, 5, -2), RealSet.interval(1, 2, -2)  # [3/4, 5/4], [1/4, 1/2]
    assert exact_relational_set(a, b, OpKind.SUB) == RealSet.interval(1, 4, -2)
    assert exact_relational_set(a, b, OpKind.MUL) == RealSet.interval(3, 10, -4)
    assert exact_relational_set(a, b, OpKind.DIV) == RealSet.interval(F(3, 2), 5, 0)
    with pytest.raises(ValueError, match="units"):
        exact_relational_set(a, rs(F(1), F(2)), OpKind.ADD)
    assert str(a) == "[3/4, 5/4]" and a.contains(F(1)) and not a.contains(F(3))


def test_relational_set_rejects_multipart():
    two_part = RealSet.union([(F(0), F(1)), (F(3), F(4))])
    with pytest.raises(ValueError):
        exact_relational_set(two_part, rs(F(1), F(2)), OpKind.ADD)


# -- oracle_op -----------------------------------------------------------------


def test_oracle_op_examples(toy):
    inf_iv = parse_interval("[14, inf)", toy)
    assert str(oracle_op(inf_iv, inf_iv, OpKind.SUB, toy)) == "(-inf, +inf)"
    one = parse_interval("[1, 1]", toy)
    three = parse_interval("[3, 3]", toy)
    assert str(oracle_op(one, three, OpKind.DIV, toy)) == "[0.3125, 0.375]"
    pz = parse_interval("[0, 0.0625]", toy)
    nz = parse_interval("[-0.0625, 0]", toy)
    assert str(oracle_op(pz, nz, OpKind.ADD, toy)) == "[-0.0625, 0.0625]"


def test_union_result_hulls_to_full_line(toy):
    one = parse_interval("[1, 1]", toy)
    straddle = parse_interval("[-1, 1]", toy)
    assert oracle_op(one, straddle, OpKind.DIV, toy) == ExtInterval.full_line(toy)


def test_oracle_op_takes_real_sets_and_intervals_alike(toy):
    """Every op on every ordered pair of meanings, in both zero modes: a
    `RealSet` operand gives what its `ExtInterval` gives."""
    from intervalfp import interpret

    for mode in ZeroMode:
        values = list(toy.enumerate())
        if mode is ZeroMode.INFINITE:
            values.append(Fp.nan(toy))
        meanings = [interpret(v, mode) for v in values]
        sets = [_to_real_set(x) for x in meanings]
        for op in OpKind:
            for x, sx in zip(meanings, sets):
                for y, sy in zip(meanings, sets):
                    assert oracle_op(sx, sy, op, toy) == oracle_op(x, y, op, toy), (x, y, op, mode)


# -- oracle self-consistency by dense sampling -----------------------------------


def _image_samples(xl, xh, yl, yh, op, rng):
    """Dense direct evaluation of the operation over sampled operand points."""
    def points(lo, hi):
        out = []
        lo_f = F(-20) if lo == _NEG else lo
        hi_f = F(20) if hi == _POS else hi
        if lo_f > hi_f:
            lo_f, hi_f = hi_f, lo_f
        out += [lo_f, hi_f, (lo_f + hi_f) / 2]
        for _ in range(6):
            t = F(rng.randint(0, 7), 7)
            out.append(lo_f + (hi_f - lo_f) * t)
        if lo_f <= 0 <= hi_f:
            out.append(F(0))
        return out

    results = []
    for x in points(xl, xh):
        for y in points(yl, yh):
            if op is OpKind.ADD:
                results.append(x + y)
            elif op is OpKind.SUB:
                results.append(x - y)
            elif op is OpKind.MUL:
                results.append(x * y)
            elif y != 0:
                results.append(x / y)
    return results


def test_exact_sets_contain_dense_samples():
    rng = random.Random(31)
    for _ in range(200):
        xl = F(rng.randint(-40, 40), rng.randint(1, 9))
        xh = xl + F(rng.randint(0, 40), rng.randint(1, 9))
        yl = F(rng.randint(-40, 40), rng.randint(1, 9))
        yh = yl + F(rng.randint(0, 40), rng.randint(1, 9))
        for op in OpKind:
            out = exact_relational_set(rs(xl, xh), rs(yl, yh), op)
            for v in _image_samples(xl, xh, yl, yh, op, rng):
                assert out.contains(v), (xl, xh, yl, yh, op, v)


def test_exact_sets_tight_for_bounded_images():
    # for add/sub/mul on bounded operands the set equals the sampled hull
    rng = random.Random(32)
    for _ in range(120):
        xl = F(rng.randint(-30, 30), rng.randint(1, 5))
        xh = xl + F(rng.randint(0, 30), rng.randint(1, 5))
        yl = F(rng.randint(-30, 30), rng.randint(1, 5))
        yh = yl + F(rng.randint(0, 30), rng.randint(1, 5))
        for op in (OpKind.ADD, OpKind.SUB, OpKind.MUL):
            out = exact_relational_set(rs(xl, xh), rs(yl, yh), op)
            corners = _image_samples(xl, xh, yl, yh, op, rng)
            assert out == rs(min(corners), max(corners)), (xl, xh, yl, yh, op)


# -- tightness against the implementation --------------------------------------------


def test_exhaustive_compare_toy_clean(toy):
    for mode in (ZeroMode.FINITE, ZeroMode.INFINITE):
        assert exhaustive_compare(toy, mode) == []


@pytest.mark.parametrize("descriptor", ["p2e0:0ns", "p3e-2:3ns"])
def test_exhaustive_compare_clean_without_subnormals(descriptor):
    """Formats whose zeros are as wide as the least normal value."""
    fmt = parse_format(descriptor)
    for mode in ZeroMode:
        assert exhaustive_compare(fmt, mode) == [], mode


def test_exhaustive_compare_builds_each_meaning_once(toy, monkeypatch):
    """One oracle_op and one fp_interval_op per ordered pair and op, through
    the module names, and per value one oracle meaning and one `interpret`
    set to check it against, built before the pairs."""
    calls = {}

    def counted(name):
        original = getattr(oracle, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(oracle, name, wrapper)

    for name in ("oracle_op", "fp_interval_op", "interpret", "_meaning", "_to_real_set"):
        counted(name)
    for mode in ZeroMode:
        calls.clear()
        assert exhaustive_compare(toy, mode) == []
        n = toy.value_count() + (1 if mode is ZeroMode.INFINITE else 0)
        assert calls == {"oracle_op": 4 * n * n, "fp_interval_op": 4 * n * n,
                         "interpret": n, "_meaning": n, "_to_real_set": n}, mode


def test_each_distinct_exact_set_is_rounded_once_per_call(toy4, monkeypatch):
    """The hull table rounds each distinct exact set's ends once, and lives
    for one call: a second call rounds as much again."""
    calls = []
    round_scaled = oracle.round_scaled
    monkeypatch.setattr(oracle, "round_scaled", lambda *args: calls.append(args)
                        or round_scaled(*args))
    meanings = [oracle._meaning(v, ZeroMode.FINITE) for v in toy4.enumerate()]
    distinct = {exact_relational_set(x, y, op) for op in OpKind for x in meanings
                for y in meanings}
    counts = []
    for _ in range(2):
        calls.clear()
        assert exhaustive_compare(toy4, ZeroMode.FINITE) == []
        counts.append(len(calls))
    assert 0 < counts[0] == counts[1] <= 2 * len(distinct) < 4 * len(meanings) ** 2


def test_exhaustive_compare_all_interval_pairs_tiny(tiny):
    """Beyond value interpretations: every interval over the tiny format."""
    values = tiny.enumerate()
    intervals = [ExtInterval.empty(tiny)]
    for i, lo in enumerate(values):
        for hi in values[i:]:
            try:
                intervals.append(ExtInterval.make(lo, hi))
            except ValueError:
                pass
    seen = set()
    intervals = [x for x in intervals if not (x in seen or seen.add(x))]
    for x in intervals:
        for y in intervals:
            for op in OpKind:
                assert iv_mod.apply_op(op, x, y) == oracle_op(x, y, op, tiny)


def test_binary64_ops_match_oracle():
    """The integer core against the Fraction oracle on binary64, a format too
    large to enumerate: the adversarial block in both zero modes and a seeded
    bit-uniform stream.  Results are built without validation, so their
    well-formedness is checked here: a result is empty, or `ExtInterval.make`
    accepts its bounds and returns it unchanged (make turns -0 into +0)."""
    from intervalfp import BINARY64, fp_interval_op, interpret
    from intervalfp.harness import adversarial_binary64, binary64_pairs

    fixed = adversarial_binary64()
    cases = [(a, b, mode) for mode in ZeroMode for a in fixed for b in fixed]
    # the stream starts with the adversarial block; keep the 1,000 pairs after it
    stream = list(binary64_pairs(len(fixed) ** 2 + 1000, 41))[len(fixed) ** 2:]
    cases += [(a, b, ZeroMode.FINITE) for a, b in stream]
    for a, b, mode in cases:
        x, y = interpret(a, mode), interpret(b, mode)
        for op in OpKind:
            got = fp_interval_op(a, b, op, mode)
            empty = got == ExtInterval.empty(BINARY64)
            assert empty or ExtInterval.make(got.lo, got.hi) == got, (a, op, b, mode, got)
            assert got == oracle_op(x, y, op, BINARY64), (a, op, b, mode, got)


def test_mutation_is_detected(toy, monkeypatch):
    """A deliberately corrupted multiplication bound must produce mismatches;
    this proves the comparator can fail."""
    import intervalfp.interval as interval_mod

    original = interval_mod._mul_bound

    def corrupted(a, b):
        # bounds are (num, den) pairs; den == 0 marks an infinity
        if (a[0] == 0 and b[1] == 0) or (b[0] == 0 and a[1] == 0):
            return (1, 16)  # 0 * inf -> m instead of 0
        return original(a, b)

    monkeypatch.setattr(interval_mod, "_mul_bound", corrupted)
    report = exhaustive_compare(toy, ZeroMode.FINITE)
    assert report
    assert all(m.op is OpKind.MUL for m in report)


# -- rounding from the definition ---------------------------------------------------


def _bisection(fmt, q, direction):
    """q rounded by bisection over the format's ascending finite values,
    with the infinities beyond +-M; a nonzero q that rounds to zero gives
    the zero of its sign.  Nearest takes the nearer side, where an infinity
    stands at 2**(e_max + 1), and breaks a tie toward the side that is an
    even multiple of the gap between the two."""
    finite = [v for v in fmt.enumerate() if v.is_finite and not (v.is_zero and v.negative)]
    reals = [v.to_rational() for v in finite]
    i, j = bisect_right(reals, q) - 1, bisect_left(reals, q)
    below = finite[i] if i >= 0 else Fp.inf(fmt, True)
    above = finite[j] if j < len(finite) else Fp.inf(fmt)
    top = F(2) ** (fmt.e_max + 1)
    lo, hi = (-top if x.is_inf and x.negative else top if x.is_inf else x.to_rational()
              for x in (below, above))
    if direction is RoundingDirection.TO_NEG_INF:
        out = below
    elif direction is RoundingDirection.TO_POS_INF:
        out = above
    elif direction is RoundingDirection.TO_ZERO:
        out = below if q >= 0 else above
    elif lo == hi or 2 * q != lo + hi:
        out = below if 2 * q <= lo + hi else above
    else:
        out = below if (lo / (hi - lo)) % 2 == 0 else above
    return Fp.zero(fmt, q < 0) if out.is_zero else out


def _probe_points(fmt):
    """Every value, the midpoint and quarter points between neighbours, the
    points between 0 and m, M + ulp/2 and beyond, and their negatives."""
    finite = sorted({v.to_rational() for v in fmt.enumerate() if v.is_finite})
    points = set(finite)
    for a, b in zip(finite, finite[1:]):
        points.update(a + (b - a) * j / 4 for j in (1, 2, 3))
    big, m = finite[-1], finite[finite.index(0) + 1]
    ulp = F(2) ** (fmt.e_max - fmt.precision + 1)
    top = F(2) ** (fmt.e_max + 1)
    points.update([big + ulp / 4, big + ulp / 2, big + 3 * ulp / 4, top, top + ulp, 3 * top,
                   m / 1024, m / 4, m / 2, 3 * m / 4])
    return sorted(points | {-q for q in points})


@pytest.mark.parametrize("descriptor", CATALOG_FORMATS)
def test_rounding_against_bisection(descriptor):
    """round_scaled against bisection over enumerate(), in all four
    directions, with each point as a Fraction at scale 0 and, where it is
    one, as an int at scale k - 2; fpformat's rounder agrees too."""
    fmt = parse_format(descriptor)
    k = least_step(fmt)
    ulp = F(2) ** (fmt.e_max - fmt.precision + 1)
    assert round_scaled(fmt.max_finite().to_rational() + ulp / 2, 0, fmt, None) == Fp.inf(fmt)
    for q in _probe_points(fmt):
        forms = [(q, 0)]
        scaled = q * F(2) ** (2 - k)
        if scaled.denominator == 1:
            forms.append((int(scaled), k - 2))
        for direction in RoundingDirection:
            want = _bisection(fmt, q, direction)
            assert fmt.round(q, direction) == want, (descriptor, q, direction)
            up = {RoundingDirection.TO_NEG_INF: False, RoundingDirection.TO_POS_INF: True,
                  RoundingDirection.TO_ZERO: q < 0, RoundingDirection.NEAREST: None}[direction]
            for v, s in forms:
                got = round_scaled(v, s, fmt, up)
                assert got == want, (descriptor, q, s, direction, got, want)


# -- the suites catch what they check ---------------------------------------------------


def _patch_step(monkeypatch, name, mutant):
    """Put mutant in place of `fpformat.<name>`, a neighbour step or the
    bracket builder, in every module that holds the name: the steps live
    in fpformat alone, and `interval` imports the bracket builder."""
    for owner in (fpformat, iv_mod):
        if name in vars(owner):
            monkeypatch.setattr(owner, name, mutant)


def _skip_a_neighbour(monkeypatch):
    """Mutation (a), as below: the step away from zero, on a carry into the
    next binade, lands on half + 1 instead of half."""
    original = fpformat._away

    def carrying(fmt, c, e):
        c, e_next = original(fmt, c, e)
        return (c + 1 if e_next > e else c), e_next

    _patch_step(monkeypatch, "_away", carrying)


def _corrupt_zero_times_inf(monkeypatch):
    """The corrupted `_mul_bound` of test_mutation_is_detected: 0 * inf is m."""
    original = iv_mod._mul_bound

    def corrupted(a, b):
        if (a[0] == 0 and b[1] == 0) or (b[0] == 0 and a[1] == 0):
            return (1, 16)
        return original(a, b)

    monkeypatch.setattr(iv_mod, "_mul_bound", corrupted)


@pytest.mark.parametrize("mutate", [_skip_a_neighbour, _corrupt_zero_times_inf])
def test_the_hull_table_changes_no_verdict(toy, monkeypatch, mutate):
    """Under a mutation, exhaustive_compare reports what a loop over every
    pair with an `oracle_op` that keeps no table reports, line for line."""
    mutate(monkeypatch)
    for mode in ZeroMode:
        values = list(toy.enumerate()) + ([Fp.nan(toy)] if mode is ZeroMode.INFINITE else [])
        want = []
        for op in OpKind:
            for a in values:
                for b in values:
                    got = semantics.fp_interval_op(a, b, op, mode)
                    expected = oracle_op(oracle._meaning(a, mode), oracle._meaning(b, mode),
                                         op, toy)
                    if got != expected:
                        want.append(str(Mismatch(toy, op, a, b, mode, got, expected)))
        got = [str(m) for m in exhaustive_compare(toy, mode)]
        assert got == want and want, mode


def test_a_wrong_neighbour_is_caught_by_the_suites(toy, monkeypatch):
    """Mutation (a): when the step away from zero carries at 2**p, it
    lands on half + 1 instead of half, so a bound just above a power of two
    skips a value.  Both suites see it, the compare as operation mismatches
    only."""
    _skip_a_neighbour(monkeypatch)
    counts = {}
    for mode in ZeroMode:
        report = exhaustive_compare(toy, mode)
        assert all(isinstance(m, Mismatch) for m in report), mode
        counts[mode] = len(report)
    assert counts == {ZeroMode.FINITE: 1816, ZeroMode.INFINITE: 1784}
    assert len(run_theorem_suite(toy).mismatches) == 2352


_TOWARD, _AWAY, _BRACKET = fpformat._toward, fpformat._away, fpformat._bracket


def _borrow_at_e_min(fmt, c, e):
    """The step toward zero borrows from below e_min too, onto 2**p - 1 at
    e_min - 1, where it should stay subnormal or reach zero."""
    half = 1 << (fmt.precision - 1)
    if e == fmt.e_min and c - 1 < half:
        return 2 * half - 1, e - 1
    return _TOWARD(fmt, c, e)


def _borrow_too_far(fmt, c, e):
    """A borrow from the binade below lands on 2**p - 2, not 2**p - 1."""
    c_next, e_next = _TOWARD(fmt, c, e)
    return (c_next - 1 if e_next < e else c_next), e_next


def _carry_early(fmt, c, e):
    """A carry into the top binade, e_max, is read as past it: the
    infinity."""
    c_next, e_next = _AWAY(fmt, c, e)
    return c_next, (e_next + 1 if e < e_next == fmt.e_max else e_next)


def _negative_sides_swapped(fmt, negative, c, e, away, signed_zero):
    """The bracket builder orders a negative value's sides as a positive
    value's: the side toward zero comes out as the lower bound."""
    lo, hi = _BRACKET(fmt, negative, c, e, away, signed_zero)
    return (hi, lo) if negative else (lo, hi)


@pytest.mark.parametrize("name, mutant, counts, demo", [
    ("_toward", _borrow_at_e_min, (456, 456), 120),
    ("_toward", _borrow_too_far, (1616, 1616), 180),
    ("_away", _carry_early, (272, 264), 30),
    ("_bracket", _negative_sides_swapped, (3788, 3788), 728),
], ids=["borrow-at-e-min", "borrow-to-2p-2", "carry-early", "bracket-sides-swapped"])
def test_a_wrong_step_is_caught_by_the_compare(toy, monkeypatch, name, mutant, counts, demo):
    """The mutants of the neighbour steps and of the bracket builder, each
    in place of its function, against the exhaustive compare in both zero
    modes and the word demo's exhaustive recovery check (the 1,680 words
    of `test_recovery_equals_directed_rounding_exhaustive`).  The point
    kernel of a small format takes binary64's steps and bracket, and the
    demo takes the same bracket from `recover_bounds`, so a wrong bracket
    fails both.  (An underflow to 2m stays binary64's own: a small
    format's ops never underflow on the host, and
    `test_point_op.hard_pairs` catches it.)"""
    _patch_step(monkeypatch, name, mutant)
    got = tuple(len(exhaustive_compare(toy, mode)) for mode in (ZeroMode.FINITE, ZeroMode.INFINITE))
    checked, found = recovery_mismatches(toy, 4)
    assert (got, len(found), checked) == (counts, demo, 1680)


@pytest.mark.parametrize("name, mutant, count", [
    ("_toward", _borrow_at_e_min, 45),
    ("_toward", _borrow_too_far, 680),
    ("_away", _carry_early, 72),
], ids=["borrow-at-e-min", "borrow-to-2p-2", "carry-early"])
def test_a_wrong_step_is_caught_by_the_binary64_suite(monkeypatch, name, mutant, count):
    """The same mutants against binary64's sampled suite, as `check --format
    b64 --samples 2000` runs it: the fixed block of the sample holds the
    sum (2**1023 - 2**970) + 2**900, whose upward rounding carries into the
    top binade."""
    _patch_step(monkeypatch, name, mutant)
    assert len(run_theorem_suite(BINARY64, samples=2000).mismatches) == count


def test_a_widened_zero_is_caught_by_the_suites(toy, monkeypatch):
    """Mutation (b): the finite-mode zeros mean one value more than [0, m]
    (mirrored); the compare names both zeros and both sets."""
    original = semantics._special_meaning

    def widened(x, mode):
        if x.is_zero and mode is ZeroMode.FINITE:
            zero = ExtInterval.make(Fp.zero(toy), toy.min_pos().next_up())
            return -zero if x.negative else zero
        return original(x, mode)

    monkeypatch.setattr(semantics, "_special_meaning", widened)
    report = exhaustive_compare(toy, ZeroMode.FINITE)
    meanings = [m for m in report if isinstance(m, MeaningMismatch)]
    assert {m.value for m in meanings} == {Fp.zero(toy), Fp.zero(toy, True)}
    assert len(report) > len(meanings)
    assert str(meanings[0]) == "p3e-2:3 meaning of -0 finite: interpret [-1/8, 0], oracle [-1/16, 0]"
