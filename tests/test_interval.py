"""Interval layer: hull, the four total operations through `apply_op` and the
operators that spell it, predicates, syntax."""

import copy
import operator
import pickle
import random
from fractions import Fraction as F

import pytest

from intervalfp import BINARY64, Fp, OpKind, ZeroMode, interpret, parse_format, parse_interval
from intervalfp.interval import (ExtInterval, NEG_INF, POS_INF, apply_op, hull, member, negate,
                                 subset)


def iv(text, fmt):
    return parse_interval(text, fmt)


def point(x):
    """The point interval of a finite value, through the checked class call."""
    return ExtInterval(x.fmt, x, x)


def rand_interval(rng, fmt, values=None):
    """Random interval over the format's values, occasionally empty."""
    if values is None:
        values = fmt.enumerate()
    if rng.random() < 0.05:
        return ExtInterval.empty(fmt)
    while True:
        a, b = rng.choice(values), rng.choice(values)
        for lo, hi in ((a, b), (b, a)):
            try:
                return ExtInterval.make(lo, hi)
            except ValueError:
                continue


# -- construction and hull -------------------------------------------------------


def test_hull_examples(toy):
    assert str(hull(F(1, 3), F(1, 3), toy)) == "[0.3125, 0.375]"
    assert str(hull(NEG_INF, F(5), toy)) == "(-inf, 5]"
    assert str(hull(F(15), F(20), toy)) == "[14, +inf)"


def test_hull_is_least_containing_interval(toy):
    x = hull(F(1, 3), F(2, 3), toy)
    assert member(F(1, 3), x) and member(F(2, 3), x)
    # shrinking either bound would lose containment
    assert not member(F(1, 3), ExtInterval.make(x.lo.next_up(), x.hi))
    assert not member(F(2, 3), ExtInterval.make(x.lo, x.hi.next_down()))


def test_bound_normalisation(toy):
    x = ExtInterval.make(Fp.zero(toy, negative=True), Fp.from_exact(toy, 1))
    assert x.lo == Fp.zero(toy)
    assert x == ExtInterval.make(Fp.zero(toy), Fp.from_exact(toy, 1))


def test_make_rejects_malformed(toy, toy4):
    with pytest.raises(ValueError):
        ExtInterval.make(Fp.from_exact(toy, 2), Fp.from_exact(toy, 1))
    with pytest.raises(ValueError, match="mismatched bound formats"):
        ExtInterval.make(Fp.from_exact(toy, 1), Fp.from_exact(toy4, 2))
    with pytest.raises(ValueError):
        ExtInterval.make(Fp.inf(toy), Fp.inf(toy))
    with pytest.raises(ValueError):
        ExtInterval.make(Fp.nan(toy), Fp.from_exact(toy, 1))


def test_the_class_call_refuses_bounds_that_form_no_set(toy, toy4):
    """The class call is the checked entry: it refuses a NaN bound, reversed
    bounds, +inf below or -inf above, one missing bound and a bound of
    another format, so no operation ever computes on them."""
    one, two = Fp.from_exact(toy, 1), Fp.from_exact(toy, 2)
    refused = {
        "NaN cannot be an interval bound": [(Fp.nan(toy), one), (one, Fp.nan(toy))],
        "exceeds upper bound": [(two, one)],
        "bounds leave no reals": [(Fp.inf(toy), Fp.inf(toy)), (-two, Fp.inf(toy, True))],
        "two bounds or none": [(one,), (None, one)],
        "mismatched bound formats": [(Fp.from_exact(toy4, 1), Fp.from_exact(toy4, 2)),
                                     (one, Fp.from_exact(toy4, 2))],
    }
    for message, cases in refused.items():
        for bounds in cases:
            with pytest.raises(ValueError, match=message):
                ExtInterval(toy, *bounds)
    assert ExtInterval(toy) == ExtInterval.empty(toy) and ExtInterval(toy).is_empty


def test_copied_and_pickled_intervals_keep_their_points(toy):
    """A copy or a pickle goes through the class call, so a point stays one
    object (lo is hi) and two equal bounds given apart become one."""
    one = Fp.from_exact(toy, 1)
    apart = ExtInterval(toy, one, Fp.from_exact(toy, 1))
    assert apart.lo is apart.hi and apart.is_point()
    for x in (point(one), apart, iv("[0, 0]", toy), iv("[1, 2]", toy), ExtInterval.empty(toy)):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and y.is_point() == x.is_point(), (x, y)


@pytest.mark.parametrize("descriptor", ["p3e-2:3", "p2e0:0ns"])
def test_every_result_is_what_the_class_call_builds(descriptor):
    """The operations build their results past the class call, so each
    result, and its mirror by `negate`, must be what the class call builds
    from its fields: no -0 bound, and a point exactly when lo is hi.  Over
    every pair of meanings, the four ops and both zero modes."""
    fmt = parse_format(descriptor)
    for mode in ZeroMode:
        values = fmt.enumerate() + ([Fp.nan(fmt)] if mode is ZeroMode.INFINITE else [])
        meanings = [interpret(v, mode) for v in values]
        results = [apply_op(op, x, y) for x in meanings for y in meanings for op in OpKind]
        for r in meanings + results + [negate(r) for r in results]:
            assert r == ExtInterval(*r), r
            if not r.is_empty:
                assert not (r.lo.is_zero and r.lo.negative or r.hi.is_zero and r.hi.negative), r
                assert (r.lo is r.hi) == (r.lo == r.hi), r


def test_ext_interval_is_an_immutable_unordered_value(toy):
    x = iv("[1, 2]", BINARY64)
    for field in ("fmt", "lo", "hi", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, field, None)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(x, x)
    with pytest.raises(TypeError):
        2 * x
    # the operators take intervals only, not a number or a float value
    for other in (2, Fp.from_exact(BINARY64, 2)):
        for spelled in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                spelled(x, other)
    # + and * are interval arithmetic, not the tuple's
    assert x + x == iv("[2, 4]", BINARY64) and x * x == iv("[1, 4]", BINARY64)
    assert repr(x) == "ExtInterval('[1, 2]', 'b64')"
    assert repr(ExtInterval.empty(toy)) == "ExtInterval('empty', 'p3e-2:3')"


def test_ext_interval_refuses_the_namedtuple_helpers(toy):
    # _make and _replace would build an interval around the class call's checks
    x = iv("[1, 2]", toy)
    with pytest.raises(TypeError):
        ExtInterval._make(tuple(x))
    with pytest.raises(TypeError):
        x._replace(hi=x.lo)
    fmt, lo, hi = x
    assert fmt is toy and (lo, hi) == (x.lo, x.hi) and tuple(x) == (toy, lo, hi)


def test_equal_intervals_from_every_path_are_equal_and_hash_alike(toy):
    one, two = Fp.from_exact(toy, 1), Fp.from_exact(toy, 2)
    half = iv("[0.5, 1]", toy)
    paths = [iv("[1, 2]", toy), ExtInterval.make(one, two), ExtInterval(toy, one, two),
             half + half, hull(F(1), F(2), toy)]
    assert all(x == paths[0] for x in paths), paths
    assert len({hash(x) for x in paths}) == 1, paths
    zero_lo = [iv("[0, 1]", toy), ExtInterval.make(Fp.zero(toy, negative=True), one)]
    assert zero_lo[0] == zero_lo[1] and hash(zero_lo[0]) == hash(zero_lo[1])
    assert ExtInterval.empty(toy) == ExtInterval.empty(toy) != zero_lo[0]


def test_zero_bounds_given_as_two_objects_make_one_zero_point(toy):
    # a point interval has one bound object (lo is hi), which is what sends
    # two points to point_op; the point 0 is a +0 whatever the signs given
    for lo_negative in (False, True):
        for hi_negative in (False, True):
            x = ExtInterval(toy, Fp.zero(toy, lo_negative), Fp.zero(toy, hi_negative))
            assert x.lo is x.hi and not x.lo.negative and x == iv("[0, 0]", toy), x
            for y in (x + x, x - x, x * x):
                assert y.lo is y.hi and y == x, y
    one = Fp.from_exact(toy, 1)
    x = ExtInterval(toy, Fp.zero(toy, True), one)
    assert x.lo is not x.hi and not x.lo.negative and x == iv("[0, 1]", toy)
    x = ExtInterval(toy, -one, Fp.zero(toy, True))
    assert x.lo is not x.hi and not x.hi.negative and x == iv("[-1, 0]", toy)
    assert x.contains_zero()


# -- the paper-derived operation examples -------------------------------------------


def test_add_examples(toy):
    assert str(iv("[0, 0.0625]", toy) + iv("[0, 0.0625]", toy)) == "[0, 0.125]"
    assert str(iv("[14, inf)", toy) + iv("[14, inf)", toy)) == "[14, +inf)"
    assert str(iv("[-2, -2]", toy) + iv("[14, inf)", toy)) == "[12, +inf)"


def test_sub_examples(toy):
    assert str(iv("[14, inf)", toy) - iv("[14, inf)", toy)) == "(-inf, +inf)"
    assert str(iv("[3, 3]", toy) - iv("[1, 1]", toy)) == "[2, 2]"
    assert (
        str(iv("[0, 0.0625]", toy) - iv("[0, 0.0625]", toy)) == "[-0.0625, 0.0625]"
    )


def test_mul_examples(toy):
    assert str(iv("[0, 0.0625]", toy) * iv("[14, inf)", toy)) == "[0, +inf)"
    assert str(iv("[14, inf)", toy) * iv("[14, inf)", toy)) == "[14, +inf)"
    assert str(iv("[0.5, 0.5]", toy) * iv("[14, inf)", toy)) == "[7, +inf)"


def test_div_examples(toy):
    assert str(iv("[1, 1]", toy) / iv("[-1, 1]", toy)) == "(-inf, +inf)"
    assert str(iv("[14, inf)", toy) / iv("[0, 0.0625]", toy)) == "[14, +inf)"
    assert str(iv("[0.5, 0.5]", toy) / iv("[0, 0.0625]", toy)) == "[8, +inf)"
    assert str(iv("[14, inf)", toy) / iv("[14, inf)", toy)) == "[0, +inf)"


def test_div_zero_cases(toy):
    zero = iv("[0, 0]", toy)
    assert (iv("[2, 2]", toy) / zero).is_empty
    assert str(zero / zero) == "(-inf, +inf)"
    assert str(iv("[-1, 2]", toy) / iv("[-1, 1]", toy)) == "(-inf, +inf)"
    # one-sided zero divisor: half line
    assert str(iv("[1, 1]", toy) / iv("[0, 2]", toy)) == "[0.5, +inf)"
    assert str(iv("[1, 1]", toy) / iv("[-2, 0]", toy)) == "(-inf, -0.5]"
    assert str(iv("[-1, -1]", toy) / iv("[0, 2]", toy)) == "(-inf, -0.5]"


def test_div_by_a_divisor_with_zero_as_one_end(toy):
    assert str(iv("[-2, -1]", toy) / iv("[-2, 0]", toy)) == "[0.5, +inf)"
    # an infinite divisor end gives the quotient 0; the operands' signs
    # still decide which way the half-line opens
    assert str(iv("[1, 2]", toy) / iv("[0, inf)", toy)) == "[0, +inf)"
    assert str(iv("[-2, -1]", toy) / iv("[0, inf)", toy)) == "(-inf, 0]"
    assert str(iv("[1, 2]", toy) / iv("(-inf, 0]", toy)) == "(-inf, 0]"
    assert str(iv("[-2, -1]", toy) / iv("(-inf, 0]", toy)) == "[0, +inf)"
    assert str(iv("[1, 2]", toy) / iv("(-inf, inf)", toy)) == "(-inf, +inf)"


def test_empty_propagation(toy):
    e = ExtInterval.empty(toy)
    x = iv("[1, 2]", toy)
    for op in OpKind:
        assert apply_op(op, e, x).is_empty
        assert apply_op(op, x, e).is_empty
        assert apply_op(op, e, e).is_empty


# -- predicates -------------------------------------------------------------------------


def test_member_examples(toy):
    assert member(F(0), iv("[0, 0.0625]", toy))
    assert not member(F(-1), iv("[0, inf)", toy))
    assert member(F(10) ** 100, iv("[14, inf)", toy))
    assert not member(F(1), ExtInterval.empty(toy))


def test_operands_of_two_formats_are_refused(toy, toy4):
    """Every op and `subset` check the format before the empty test, so no
    pair of formats passes, not even two empty sets."""
    def kinds(fmt):
        return [point(Fp.from_exact(fmt, 1)), iv("[1, 2]", fmt), iv("[0, 0]", fmt),
                ExtInterval.empty(fmt)]

    for x in kinds(toy):
        for y in kinds(toy4) + kinds(BINARY64):
            for a, b in ((x, y), (y, x)):
                for op in OpKind:
                    with pytest.raises(ValueError, match="operands use different formats"):
                        apply_op(op, a, b)
                with pytest.raises(ValueError, match="operands use different formats"):
                    subset(a, b)
    # an equal format built apart is the same format
    same = parse_format(toy.descriptor())
    assert same is not toy
    assert apply_op(OpKind.ADD, iv("[1, 2]", toy), iv("[1, 1]", same)) == iv("[2, 3]", toy)


def test_apply_op_sends_points_and_only_points_to_point_op(toy, monkeypatch):
    """Two point operands reach `point_op` once and an exact result comes
    back as a point (lo is hi); a zero point divisor and wide operands take
    the bound recipes and never reach it."""
    import intervalfp.interval as interval_mod

    calls = []
    real = interval_mod.point_op

    def spy(op, a, b):
        calls.append((op, a, b))
        return real(op, a, b)

    monkeypatch.setattr(interval_mod, "point_op", spy)
    zero, one, two = (point(Fp.from_exact(toy, v)) for v in (0, 1, 2))
    for op in OpKind:
        for x, y in ((one, two), (zero, two), (two, two)):
            calls.clear()
            got = apply_op(op, x, y)
            assert calls == [(op, x.lo, y.lo)], (op, x, y)
            assert got.lo is got.hi and got == real(op, x.lo, y.lo), (op, x, y)
    calls.clear()
    wide = iv("[1, 2]", toy)
    for op in OpKind:
        for x, y in ((wide, two), (two, wide), (wide, wide)):
            apply_op(op, x, y)
    assert apply_op(OpKind.DIV, one, zero) == ExtInterval.empty(toy)
    assert apply_op(OpKind.DIV, zero, zero) == ExtInterval.full_line(toy)
    assert calls == []


def test_equal_bounds_from_outside_input_make_a_point(toy, monkeypatch):
    """make returns one object for equal bounds, so a point read from text
    reaches `point_op` and its exact result comes back as a point."""
    import intervalfp.interval as interval_mod

    calls = []
    real = interval_mod.point_op

    def spy(op, a, b):
        calls.append(op)
        return real(op, a, b)

    monkeypatch.setattr(interval_mod, "point_op", spy)
    one, two = iv("[1, 1]", toy), iv("[2, 2]", toy)
    assert one.lo is one.hi and two.lo is two.hi
    got = one + two
    assert calls == [OpKind.ADD]
    assert got == iv("[3, 3]", toy) and got.lo is got.hi
    a, b = Fp.from_exact(toy, F(3, 2)), Fp.from_exact(toy, F(3, 2))
    for x in (iv("[-0, 0]", toy), ExtInterval.make(a, b)):
        assert x.lo is x.hi, x
    assert a is not b
    wide = iv("[1, 2]", toy)
    assert wide.lo is not wide.hi


def test_subset_examples(toy):
    assert subset(iv("[1, 2]", toy), iv("[0, 3]", toy))
    assert subset(ExtInterval.empty(toy), ExtInterval.empty(toy))
    assert subset(iv("[14, inf)", toy), iv("[0, inf)", toy))
    assert not subset(iv("[0, 3]", toy), iv("[1, 2]", toy))
    assert subset(ExtInterval.empty(toy), iv("[1, 1]", toy))
    assert not subset(iv("[1, 1]", toy), ExtInterval.empty(toy))


def test_contains_zero_agrees_with_rational_bounds(toy):
    values = toy.enumerate()
    intervals = [ExtInterval.empty(toy)]
    for lo in values:
        for hi in values:
            try:
                intervals.append(ExtInterval.make(lo, hi))  # both zero signs as bounds
            except ValueError:
                pass
    for x in intervals:
        assert x.contains_zero() == (not x.is_empty and x.lo_ext <= 0 <= x.hi_ext), x


# -- algebraic properties (seeded random) ----------------------------------------------


def test_commutativity(toy):
    rng = random.Random(20)
    values = toy.enumerate()
    for _ in range(400):
        x, y = rand_interval(rng, toy, values), rand_interval(rng, toy, values)
        assert x + y == y + x
        assert x * y == y * x


def test_negation_symmetry(toy):
    rng = random.Random(21)
    values = toy.enumerate()
    for _ in range(400):
        x, y = rand_interval(rng, toy, values), rand_interval(rng, toy, values)
        assert negate(x + y) == negate(x) + negate(y)
        assert negate(x) * negate(y) == x * y
        assert negate(x) / y == negate(x / y)


def test_sub_is_add_of_the_mirror_without_negate(toy, monkeypatch):
    """x - y equals x + (-y), but subtraction never builds the interval -y."""
    import intervalfp.interval as interval_mod

    rng = random.Random(22)
    values = toy.enumerate()
    points = [point(v) for v in values if v.is_finite]
    pairs = [(rand_interval(rng, toy, values), rand_interval(rng, toy, values))
             for _ in range(600)]
    pairs += [(x, y) for x in points[::3] for y in points[::3]]
    pairs += [(x, rand_interval(rng, toy, values)) for x in points]
    pairs += [(rand_interval(rng, toy, values), y) for y in points]
    expected = [x + negate(y) for x, y in pairs]

    def refused(*args):
        raise AssertionError("subtraction built -y")

    monkeypatch.setattr(interval_mod, "negate", refused)
    for (x, y), want in zip(pairs, expected):
        got = x - y
        assert got == want, (x, y)
        assert (got.lo is got.hi) == (want.lo is want.hi), (x, y)


def test_point_interval_consistency(toy):
    finite = [v for v in toy.enumerate() if v.is_finite and not v.is_zero]
    for a in finite:
        for b in finite:
            pa, pb = point(a), point(b)
            qa, qb = a.to_rational(), b.to_rational()
            for op, real in (
                (OpKind.ADD, qa + qb),
                (OpKind.SUB, qa - qb),
                (OpKind.MUL, qa * qb),
                (OpKind.DIV, qa / qb),
            ):
                try:
                    expected = Fp.from_exact(toy, real)
                except ValueError:
                    continue  # not exactly representable
                got = apply_op(op, pa, pb)
                assert got == point(expected), (a, b, op)


def test_binary64_point_ops_build_no_fraction(monkeypatch):
    """The operation path works on integers alone and validates nothing it
    built itself: no Fraction and no `ExtInterval.make` call."""
    from intervalfp import BINARY64, FpKind, ZeroMode, fp_interval_op
    from intervalfp.harness import binary64_pairs

    pairs = [(a, b) for a, b in binary64_pairs(2000, 7, finite_only=True)
             if a.kind is FpKind.FINITE and b.kind is FpKind.FINITE][-250:]
    assert len(pairs) == 250 and all(a.fmt is BINARY64 for a, _ in pairs)
    counts = {"fraction": 0, "make": 0}
    new_fraction, make = F.__new__, ExtInterval.make

    def counting_fraction(cls, *args, **kwargs):
        counts["fraction"] += 1
        return new_fraction(cls, *args, **kwargs)

    def counting_make(lo, hi):
        counts["make"] += 1
        return make(lo, hi)

    monkeypatch.setattr(F, "__new__", counting_fraction)
    monkeypatch.setattr(ExtInterval, "make", staticmethod(counting_make))
    for a, b in pairs:
        for op in OpKind:
            fp_interval_op(a, b, op, ZeroMode.FINITE)
    assert counts == {"fraction": 0, "make": 0}
    F(1, 3)  # the counter itself works
    assert counts["fraction"] == 1


def _sample_points(x, rng):
    """Membership probes: endpoints, a midpoint, near-zero, near the format
    extremes, plus a couple of random rationals clipped into the set."""
    if x.is_empty:
        return []
    lo, hi = x.lo_ext, x.hi_ext
    candidates = []
    if isinstance(lo, F):
        candidates += [lo, lo + 1]
    if isinstance(hi, F):
        candidates += [hi, hi - 1]
    if isinstance(lo, F) and isinstance(hi, F):
        candidates.append((lo + hi) / 2)
    candidates += [F(0), F(1, 16), F(-1, 16), F(14), F(-14), F(100), F(-100),
                   F(rng.randint(-50, 50), rng.randint(1, 7))]
    return [q for q in candidates if member(q, x)]


def test_soundness_by_sampling(toy):
    rng = random.Random(22)
    values = toy.enumerate()
    for _ in range(400):
        x, y = rand_interval(rng, toy, values), rand_interval(rng, toy, values)
        xs, ys = _sample_points(x, rng), _sample_points(y, rng)
        for op in OpKind:
            result = apply_op(op, x, y)
            for qx in xs:
                for qy in ys:
                    if op is OpKind.DIV and qy == 0:
                        continue
                    real = {
                        OpKind.ADD: qx + qy,
                        OpKind.SUB: qx - qy,
                        OpKind.MUL: qx * qy,
                        OpKind.DIV: qx / qy if qy else None,
                    }[op]
                    assert member(real, result), (x, y, op, qx, qy)


def test_inclusion_monotonicity(toy):
    rng = random.Random(23)
    values = toy.enumerate()
    for _ in range(400):
        outer_x = rand_interval(rng, toy, values)
        outer_y = rand_interval(rng, toy, values)
        inner_x = _shrink(outer_x, rng)
        inner_y = _shrink(outer_y, rng)
        for op in OpKind:
            small = apply_op(op, inner_x, inner_y)
            big = apply_op(op, outer_x, outer_y)
            assert subset(small, big), (inner_x, inner_y, outer_x, outer_y, op)


def _shrink(x, rng):
    """A random subinterval (possibly empty)."""
    if x.is_empty or rng.random() < 0.1:
        return ExtInterval.empty(x.fmt)
    lo, hi = x.lo, x.hi
    for _ in range(rng.randint(0, 2)):
        nxt = lo.next_up()
        try:
            if ExtInterval.make(nxt, hi) and subset(ExtInterval.make(nxt, hi), x):
                lo = nxt
        except ValueError:
            break
    for _ in range(rng.randint(0, 2)):
        nxt = hi.next_down()
        try:
            candidate = ExtInterval.make(lo, nxt)
        except ValueError:
            break
        hi = nxt
    return ExtInterval.make(lo, hi)


# -- text syntax --------------------------------------------------------------------------


def test_parse_print_round_trip(toy):
    rng = random.Random(24)
    values = toy.enumerate()
    for _ in range(300):
        x = rand_interval(rng, toy, values)
        assert parse_interval(str(x), toy) == x


def test_parse_variants(toy):
    assert parse_interval("empty", toy).is_empty
    assert parse_interval("(-inf, inf)", toy) == ExtInterval.full_line(toy)
    assert parse_interval("[0x1.8p+1, inf)", toy) == parse_interval("[3, +inf)", toy)
    assert parse_interval("[-0, 0]", toy) == point(Fp.zero(toy))
    with pytest.raises(ValueError):
        parse_interval("[2, 1]", toy)
    with pytest.raises(ValueError):
        parse_interval("[1; 2]", toy)


@pytest.mark.parametrize(
    "text, side",
    [("(1, 2)", "lower"), ("(1, 2]", "lower"), ("[1, 2)", "upper"), ("(0, inf]", "lower"),
     ("[0, inf]", "upper"), ("[-inf, 2]", "lower"), ("(-inf, +inf]", "upper")],
)
def test_parse_refuses_a_bracket_that_disagrees_with_its_bound(toy, text, side):
    """An open bracket only beside an infinity, a closed one only beside a
    finite bound: (1, 2) is an open set, which no format interval is."""
    with pytest.raises(ValueError, match=f"the {side} bound takes"):
        parse_interval(text, toy)
