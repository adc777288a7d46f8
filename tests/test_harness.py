"""Differential harness: IEEE reference rules, conformance suite, report."""

import hashlib
import operator
from fractions import Fraction as F

import pytest

from intervalfp import (
    BINARY64,
    Classification,
    ExtInterval,
    FloatFormat,
    Fp,
    OpKind,
    RoundingDirection,
    SuiteResult,
    ZeroMode,
    backend_agreement,
    classify_vs_ieee,
    deviation_report,
    fp_interval_op,
    identity_catalog,
    ieee_reference,
    ieee_reference_native,
    native_rounding_available,
    parse_format,
    represent,
    run_theorem_suite,
    totality_fuzz,
)
from intervalfp import harness
from intervalfp.harness import binary64_pairs
from intervalfp.semantics import representative_operand

RD = RoundingDirection
UP, DOWN = RD.TO_POS_INF, RD.TO_NEG_INF


# -- the IEEE reference ----------------------------------------------------------


def test_invalid_operations_give_nan(toy):
    z, inf = Fp.zero(toy), Fp.inf(toy)
    for d in (UP, DOWN, RD.NEAREST, RD.TO_ZERO):
        assert ieee_reference(z, inf, OpKind.MUL, d).is_nan
        assert ieee_reference(inf, z, OpKind.MUL, d).is_nan
        assert ieee_reference(inf, inf, OpKind.SUB, d).is_nan
        assert ieee_reference(inf, inf, OpKind.DIV, d).is_nan
        assert ieee_reference(z, z, OpKind.DIV, d).is_nan
        assert ieee_reference(inf, -inf, OpKind.ADD, d).is_nan


def test_division_by_zero_signs(toy):
    one, z, nz = Fp.from_exact(toy, 1), Fp.zero(toy), Fp.zero(toy, negative=True)
    assert ieee_reference(one, z, OpKind.DIV, UP) == Fp.inf(toy)
    assert ieee_reference(one, nz, OpKind.DIV, UP) == Fp.inf(toy, negative=True)
    assert ieee_reference(-one, z, OpKind.DIV, UP) == Fp.inf(toy, negative=True)
    assert ieee_reference(Fp.inf(toy), z, OpKind.DIV, UP) == Fp.inf(toy)


def test_exact_zero_sum_signs(toy):
    z, nz = Fp.zero(toy), Fp.zero(toy, negative=True)
    one = Fp.from_exact(toy, 1)
    # like signs keep the sign in every direction
    assert ieee_reference(z, z, OpKind.ADD, DOWN) == z
    assert ieee_reference(nz, nz, OpKind.ADD, UP) == nz
    # opposite signs and cancellation: +0 except rounding down
    assert ieee_reference(z, nz, OpKind.ADD, UP) == z
    assert ieee_reference(z, nz, OpKind.ADD, DOWN) == nz
    assert ieee_reference(one, -one, OpKind.ADD, RD.NEAREST) == z
    assert ieee_reference(one, one, OpKind.SUB, DOWN) == nz


def test_directed_rounding_of_quotient(toy):
    one, three = Fp.from_exact(toy, 1), Fp.from_exact(toy, 3)
    assert ieee_reference(one, three, OpKind.DIV, UP).to_rational() == F(3, 8)
    assert ieee_reference(one, three, OpKind.DIV, DOWN).to_rational() == F(5, 16)


def test_overflow_stays_finite_when_directed_inward(toy):
    M = toy.max_finite()
    two = Fp.from_exact(toy, 2)
    assert ieee_reference(M, two, OpKind.MUL, DOWN) == M
    assert ieee_reference(M, two, OpKind.MUL, UP) == Fp.inf(toy)
    assert ieee_reference(-M, two, OpKind.MUL, UP) == -M


def test_operands_of_two_formats_are_refused(toy, toy4):
    one, other = Fp.from_exact(toy, 1), Fp.from_exact(toy4, 1)
    for op in OpKind:
        for a, b in ((one, other), (other, one), (Fp.nan(toy), Fp.inf(toy4))):
            with pytest.raises(ValueError, match="operands use different formats"):
                ieee_reference(a, b, op, UP)


def test_nan_propagates(toy):
    nan = Fp.nan(toy)
    for op in OpKind:
        assert ieee_reference(nan, Fp.from_exact(toy, 1), op, UP).is_nan
        assert ieee_reference(Fp.inf(toy), nan, op, DOWN).is_nan


# sha256 over ieee_reference's fields on every ordered pair of p3e-2:3
# values and NaN, every op and direction, recorded while the reference still
# applied the standard's rules once per direction
_TOY_REFERENCE_DIGEST = "ed106d6fe696c0ecd5b08a207fa98fda8b4bc666b71cff67f5241f4467417198"


def test_reference_results_are_pinned(toy):
    values = list(toy.enumerate()) + [Fp.nan(toy)]
    digest = hashlib.sha256()
    for op in OpKind:
        for a in values:
            for b in values:
                for direction in RD:
                    _, kind, negative, c, e = ieee_reference(a, b, op, direction)
                    digest.update(f"{kind.name} {negative:d} {c} {e}\n".encode())
    assert digest.hexdigest() == _TOY_REFERENCE_DIGEST


# -- conformance suites ------------------------------------------------------------


def test_theorem_suite_exhaustive_toy(toy, monkeypatch):
    calls = []
    interval_op = harness.fp_interval_op
    monkeypatch.setattr(
        harness, "fp_interval_op", lambda *args: calls.append(args) or interval_op(*args)
    )
    result = run_theorem_suite(toy)
    # +, - and * over all 56 * 56 finite pairs, / without the zero divisors
    assert result.ok and result.checked == 3 * 56 * 56 * 2 + 56 * 54 * 2 == 24_864
    # one interval per pair and op serves both directed bounds
    assert len(calls) == result.checked // 2


def test_theorem_suite_takes_both_directions_from_one_value(toy, monkeypatch):
    """The suite's directed results are ieee_reference's, signed zeros
    included, on every finite pair and op it checks."""
    seen = []
    compare = harness.same_value
    monkeypatch.setattr(harness, "same_value", lambda ieee, bound: seen.append(ieee)
                        or compare(ieee, bound))
    assert run_theorem_suite(toy).ok
    finites = [v for v in toy.enumerate() if v.is_finite]
    want = [ieee_reference(a, b, op, direction)
            for op in OpKind for a in finites for b in finites
            if not (op is OpKind.DIV and b.is_zero) for direction in (DOWN, UP)]
    assert len(want) == 24_864
    assert seen == want  # Fp equality tells -0 from +0


def test_sampled_theorem_suite_rounds_every_value(monkeypatch):
    """With binary64 samples no table is kept: each directed comparison
    whose exact result is nonzero rounds once."""
    calls = []
    round_scaled = harness.round_scaled
    monkeypatch.setattr(harness, "round_scaled", lambda *args: calls.append(args)
                        or round_scaled(*args))
    n = sum(not v.is_inf for v in harness.adversarial_binary64()) ** 2 + 100  # past the fixed block
    result = run_theorem_suite(BINARY64, samples=n)
    assert result.ok
    exact = {OpKind.ADD: operator.add, OpKind.SUB: operator.sub, OpKind.MUL: operator.mul,
             OpKind.DIV: operator.truediv}
    nonzero = sum(exact[op](a.to_rational(), b.to_rational()) != 0
                  for op in OpKind
                  for a, b in binary64_pairs(n, harness.DEFAULT_SEED, finite_only=True)
                  if not (op is OpKind.DIV and b.is_zero))
    assert 0 < len(calls) == 2 * nonzero < result.checked


def test_theorem_suite_reports_a_widened_bound(toy, monkeypatch):
    """An upper bound one ulp too high on every finite product is a
    mismatch against the upward IEEE result, reported case by case."""
    interval_op = harness.fp_interval_op

    def widened(a, b, op, mode):
        out = interval_op(a, b, op, mode)
        if op is OpKind.MUL and out.hi.is_finite:
            return ExtInterval(out.fmt, out.lo, out.hi.next_up())
        return out

    monkeypatch.setattr(harness, "fp_interval_op", widened)
    result = run_theorem_suite(toy)
    assert isinstance(result, SuiteResult) and not result.ok
    finites = [v for v in toy.enumerate() if v.is_finite]
    widened_products = [
        (a, b) for a in finites for b in finites
        if interval_op(a, b, OpKind.MUL, ZeroMode.INFINITE).hi.is_finite
    ]
    assert [(c.a, c.b) for c in result.mismatches] == widened_products
    for case in result.mismatches:
        assert case.op is OpKind.MUL and case.direction is UP
        exact_hi = interval_op(case.a, case.b, OpKind.MUL, ZeroMode.INFINITE).hi
        assert case.interval_bound == exact_hi.next_up()
    lines = result.summary().splitlines()
    assert lines[0] == (
        f"conformance p3e-2:3: 24864 comparisons, {len(widened_products)} mismatches"
    )
    assert lines[1] == f"  {result.mismatches[0]}" and lines[1].endswith(" mismatch")


def test_theorem_suite_refuses_unsampled_format():
    # too large to enumerate, and the sampler draws binary64 values only
    with pytest.raises(ValueError, match="p24e-126:127"):
        run_theorem_suite(parse_format("p24e-126:127"), samples=20)


def test_theorem_suite_random_binary64():
    result = run_theorem_suite(BINARY64, samples=2000, seed=5)
    assert result.ok
    assert result.checked > 0


def test_sampling_is_deterministic():
    n = len(harness.adversarial_binary64()) ** 2 + 16  # past the fixed block, into the seeded draws
    a = list(binary64_pairs(n, 99))
    b = list(binary64_pairs(n, 99))
    assert a == b
    c = list(binary64_pairs(n, 100))
    assert a != c


# -- deviation report / classification thresholds -----------------------------------


def test_report_covers_catalog(toy):
    rows = deviation_report(toy)
    assert len(rows) == 23
    by_name = {r.name: r for r in rows}
    # each row's interval is the catalog formula at the row's operand
    for fmt in (toy, BINARY64):
        for rec, row in zip(identity_catalog(), deviation_report(fmt), strict=True):
            assert row.name == rec.name
            assert row.interval == str(rec.expected(fmt, representative_operand(rec, fmt)))
            assert row.holds
    assert by_name["inf-sub-inf"].ieee == "nan"
    assert by_name["inf-sub-inf"].interval == "(-inf, +inf)"
    assert by_name["inf-sub-inf"].classification is Classification.NEWLY_DEFINED
    assert by_name["a-mul-inf-lt1"].classification is Classification.DEVIATES
    assert by_name["a-mul-inf-ge1"].classification is Classification.CONFORMS


def test_report_operands_follow_pattern(toy):
    # the operands column is the pattern's first three tokens, with a
    # replaced by the representative operand
    for fmt in (toy, BINARY64):
        for rec, row in zip(identity_catalog(), deviation_report(fmt), strict=True):
            a = representative_operand(rec, fmt)
            tokens = rec.pattern.split()[:3]
            assert row.operands == " ".join(str(a) if t == "a" else t for t in tokens)


def test_report_operands_without_enumeration(toy, toy4, monkeypatch):
    calls = []
    enumerate_values = FloatFormat.enumerate

    def counting(fmt):
        calls.append(fmt)
        return enumerate_values(fmt)

    for fmt in (toy, toy4):
        monkeypatch.setattr(FloatFormat, "enumerate", counting)
        rows = deviation_report(fmt)
        monkeypatch.setattr(FloatFormat, "enumerate", enumerate_values)
        assert calls == []
        # the rows hold the operand a scan over the format picks: 1/2 below
        # one, 2 otherwise
        for rec, row in zip(identity_catalog(), rows, strict=True):
            if rec.operand_class is None:
                continue
            want = F(1, 2) if rec.operand_class == "pos<1" else F(2)
            (a,) = [v for v in rec.operand_candidates(fmt) if v.to_rational() == want]
            x, y = rec.make_operands(fmt, a)
            assert row.operands == f"{x} {rec.op.value} {y}"


def _finite_positives(fmt):
    return [v for v in fmt.enumerate() if v.is_finite and not v.is_zero and not v.negative]


def test_mul_inf_conforms_iff_at_least_one(toy, toy4):
    for fmt in (toy, toy4):
        inf = Fp.inf(fmt)
        for a in _finite_positives(fmt):
            cls = classify_vs_ieee(a, inf, OpKind.MUL, ZeroMode.FINITE)
            want = (
                Classification.CONFORMS
                if a.to_rational() >= 1
                else Classification.DEVIATES
            )
            assert cls is want, a


def test_add_inf_conforms_iff_nonnegative(toy):
    inf = Fp.inf(toy)
    for a in toy.enumerate():
        if not a.is_finite or a.is_zero:
            continue
        cls = classify_vs_ieee(a, inf, OpKind.ADD, ZeroMode.FINITE)
        want = (
            Classification.CONFORMS
            if a.to_rational() > 0
            else Classification.DEVIATES
        )
        assert cls is want, a


def test_div_by_inf_threshold(toy):
    # a / +inf means [0, ru(a/M)], which is the meaning of +0 exactly when
    # a <= m*M; beyond that the result is wider than +0 and deviates
    inf = Fp.inf(toy)
    boundary = toy.min_pos().to_rational() * toy.max_finite().to_rational()
    for a in _finite_positives(toy):
        cls = classify_vs_ieee(a, inf, OpKind.DIV, ZeroMode.FINITE)
        want = (
            Classification.CONFORMS
            if a.to_rational() <= boundary
            else Classification.DEVIATES
        )
        assert cls is want, a


def test_inf_div_a_conforms_iff_at_most_one(toy):
    inf = Fp.inf(toy)
    for a in _finite_positives(toy):
        cls = classify_vs_ieee(inf, a, OpKind.DIV, ZeroMode.FINITE)
        want = (
            Classification.CONFORMS
            if a.to_rational() <= 1
            else Classification.DEVIATES
        )
        assert cls is want, a


def test_div_by_zero_threshold(toy):
    z = Fp.zero(toy)
    boundary = toy.min_pos().to_rational() * toy.max_finite().to_rational()
    for a in _finite_positives(toy):
        cls = classify_vs_ieee(a, z, OpKind.DIV, ZeroMode.FINITE)
        want = (
            Classification.CONFORMS
            if a.to_rational() >= boundary
            else Classification.DEVIATES
        )
        assert cls is want, a


def test_finite_operands_conform_in_infinite_mode(toy, toy4):
    """Either conformance test counts: -14 + -14 in p3e-2:3 is (-inf, -14],
    the meaning of -inf, but IEEE rounds it up to -14, so only its bounds
    match the directed IEEE results.  Every pair of finite operands
    conforms, as the theorem suite says, zero divisors aside; with
    finite-width zeros only a zero operand, a one-ulp set, can deviate."""
    m = Fp.from_exact(toy, -14)
    result = fp_interval_op(m, m, OpKind.ADD, ZeroMode.INFINITE)
    assert str(result) == "(-inf, -14]"
    assert represent(result, ZeroMode.INFINITE) == Fp.inf(toy, negative=True)
    assert ieee_reference(m, m, OpKind.ADD, DOWN) == Fp.inf(toy, negative=True)
    assert ieee_reference(m, m, OpKind.ADD, UP) == m
    assert classify_vs_ieee(m, m, OpKind.ADD, ZeroMode.INFINITE) is Classification.CONFORMS
    for fmt in (toy, toy4):
        finites = [v for v in fmt.enumerate() if v.is_finite]
        for mode in ZeroMode:
            deviating = [(a, op, b) for op in OpKind for a in finites for b in finites
                         if not (op is OpKind.DIV and b.is_zero)
                         and classify_vs_ieee(a, b, op, mode) is not Classification.CONFORMS]
            if mode is ZeroMode.INFINITE:
                assert deviating == [], fmt
            else:
                assert deviating and all(a.is_zero or b.is_zero for a, _, b in deviating), fmt


def test_formerly_nan_patterns_all_newly_defined(toy):
    inf, ninf, z = Fp.inf(toy), Fp.inf(toy, negative=True), Fp.zero(toy)
    cases = [
        (z, inf, OpKind.MUL),
        (inf, inf, OpKind.DIV),
        (inf, ninf, OpKind.DIV),
        (ninf, ninf, OpKind.DIV),
        (z, z, OpKind.DIV),
        (inf, inf, OpKind.SUB),
    ]
    for a, b, op in cases:
        assert classify_vs_ieee(a, b, op, ZeroMode.FINITE) is Classification.NEWLY_DEFINED


# -- native backend and fuzzing -------------------------------------------------------


@pytest.mark.skipif(not native_rounding_available(), reason="no rounding-mode access")
def test_backend_agreement_sample():
    n = len(harness.adversarial_binary64()) ** 2 + 16  # past the fixed block, into the seeded draws
    result = backend_agreement(pairs_per_combo=n, seed=7)
    assert result.ok
    assert result.checked == n * 16  # 4 ops x 4 directions


@pytest.mark.skipif(not native_rounding_available(), reason="no rounding-mode access")
def test_backend_agreement_reports_a_disagreement(monkeypatch):
    native = harness.ieee_reference_native

    def off_by_one_ulp(a, b, op, direction):
        r = native(a, b, op, direction)
        return r.next_up() if op is OpKind.DIV and direction is UP and r.is_finite else r

    monkeypatch.setattr(harness, "ieee_reference_native", off_by_one_ulp)
    result = backend_agreement(pairs_per_combo=50, seed=7)
    assert not result.ok and result.checked == 50 * 16
    assert all(" / " in m and "[up]" in m for m in result.mismatches)
    assert result.summary().splitlines()[1] == f"  {result.mismatches[0]}"


def test_backend_agreement_without_native_rounding(monkeypatch):
    monkeypatch.setattr(harness, "native_rounding_available", lambda: False)
    result = backend_agreement(pairs_per_combo=50, seed=7)
    assert result.ok and result.checked == 0
    assert result.summary() == (
        "backend agreement b64: 0 comparisons, ok\n"
        "  note: no verified native rounding-mode access on this platform"
    )


@pytest.mark.skipif(not native_rounding_available(), reason="no rounding-mode access")
def test_native_backend_directed_results():
    one = Fp.from_float(BINARY64, 1.0)
    three = Fp.from_float(BINARY64, 3.0)
    up = ieee_reference_native(one, three, OpKind.DIV, UP)
    down = ieee_reference_native(one, three, OpKind.DIV, DOWN)
    assert up == BINARY64.round(F(1, 3), UP)
    assert down == BINARY64.round(F(1, 3), DOWN)
    assert up != down


def test_totality_fuzz_sample():
    result = totality_fuzz(pairs_per_op=800, seed=3)
    assert result.ok
    assert result.checked == 4 * 800


def _no_product(fmt):
    raise ArithmeticError("no product")


@pytest.mark.parametrize("fault, problem", [
    (lambda fmt: tuple.__new__(ExtInterval, (fmt, Fp.zero(fmt, negative=True), Fp.inf(fmt))),
     "malformed"),
    (lambda fmt: tuple.__new__(ExtInterval, (fmt, Fp.inf(fmt, negative=True),
                                             Fp.zero(fmt, negative=True))), "malformed"),
    (ExtInterval.empty, "empty result"),
    (_no_product, "raised ArithmeticError('no product')"),
])
def test_totality_fuzz_reports_a_bad_result(fault, problem, monkeypatch):
    """A -0 bound (built past the `ExtInterval` class call, which would
    turn it into +0), an empty result and an exception are each reported
    for every product, and nothing else is."""
    interval_op = harness.fp_interval_op

    def faulty(a, b, op, mode):
        return fault(a.fmt) if op is OpKind.MUL else interval_op(a, b, op, mode)

    monkeypatch.setattr(harness, "fp_interval_op", faulty)
    result = totality_fuzz(pairs_per_op=30, seed=3)
    assert not result.ok and result.checked == 4 * 30
    assert len(result.mismatches) == 30
    assert all(" * " in m and f": {problem}" in m for m in result.mismatches)
    assert result.summary().startswith("totality fuzz b64: 120 comparisons, 30 mismatches\n")
