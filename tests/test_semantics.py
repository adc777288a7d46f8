"""Set interpretation of floats, total operations, identity catalog."""

from fractions import Fraction as F

import pytest

from intervalfp import (
    BINARY64,
    Classification,
    DomainError,
    ExtInterval,
    FloatFormat,
    Fp,
    OpKind,
    RoundingDirection,
    ZeroMode,
    classify_vs_ieee,
    fp_interval_op,
    fp_scalar_op,
    identity_catalog,
    interpret,
    parse_format,
    parse_interval,
    represent,
    value_cmp,
)
from intervalfp.semantics import same_value

from formats import CATALOG_FORMATS

RD = RoundingDirection
FIN, INF = ZeroMode.FINITE, ZeroMode.INFINITE


def iv(text, fmt):
    return parse_interval(text, fmt)


# -- interpret / represent ------------------------------------------------------


def test_interpret_examples(toy):
    assert str(interpret(Fp.inf(toy), FIN)) == "[14, +inf)"
    assert str(interpret(Fp.inf(toy), INF)) == "[14, +inf)"
    assert str(interpret(Fp.inf(toy, negative=True), FIN)) == "(-inf, -14]"
    assert str(interpret(Fp.zero(toy, negative=True), FIN)) == "[-0.0625, 0]"
    assert str(interpret(Fp.zero(toy), FIN)) == "[0, 0.0625]"
    assert str(interpret(Fp.zero(toy, negative=True), INF)) == "[0, 0]"
    assert str(interpret(Fp.from_exact(toy, 3), FIN)) == "[3, 3]"


def test_interpret_nan(toy):
    with pytest.raises(DomainError):
        interpret(Fp.nan(toy), FIN)
    assert interpret(Fp.nan(toy), INF).is_empty


def test_represent_examples(toy):
    assert represent(iv("[14, inf)", toy), FIN) == Fp.inf(toy)
    assert represent(iv("[0, 0.0625]", toy), FIN) == Fp.zero(toy)
    assert represent(iv("[0, inf)", toy), FIN) is None
    assert represent(iv("[-0.0625, 0]", toy), FIN) == Fp.zero(toy, negative=True)
    assert represent(iv("[3, 3]", toy), FIN) == Fp.from_exact(toy, 3)
    assert represent(ExtInterval.empty(toy), INF) == Fp.nan(toy)
    assert represent(ExtInterval.empty(toy), FIN) is None
    assert represent(iv("[0, 0]", toy), INF) == Fp.zero(toy)
    assert represent(iv("[0, 0]", toy), FIN) is None


def test_represent_interpret_round_trip(toy):
    for v in toy.enumerate():
        assert represent(interpret(v, FIN), FIN) == v
    for v in toy.enumerate():
        got = represent(interpret(v, INF), INF)
        if v == Fp.zero(toy, negative=True):
            # both zeros mean [0,0] here; the canonical zero comes back
            assert got == Fp.zero(toy)
        else:
            assert got == v
    assert represent(interpret(Fp.nan(toy), INF), INF) == Fp.nan(toy)


# -- fp_interval_op -----------------------------------------------------------------


def test_fp_interval_op_examples(toy):
    z, inf = Fp.zero(toy), Fp.inf(toy)
    two = Fp.from_exact(toy, 2)
    assert str(fp_interval_op(z, inf, OpKind.MUL, FIN)) == "[0, +inf)"
    assert str(fp_interval_op(z, z, OpKind.DIV, INF)) == "(-inf, +inf)"
    assert fp_interval_op(two, z, OpKind.DIV, INF).is_empty
    assert str(fp_interval_op(inf, -inf, OpKind.DIV, FIN)) == "(-inf, 0]"
    # the relational meaning of dividing the two wide zeros is the full
    # line (the zero-divisor witness), not just the nonnegative quotients
    assert str(fp_interval_op(z, z, OpKind.DIV, FIN)) == "(-inf, +inf)"


def test_fp_interval_op_nan_empty_propagation(toy):
    nan = Fp.nan(toy)
    for b in toy.enumerate():
        for op in OpKind:
            assert fp_interval_op(nan, b, op, INF).is_empty
            assert fp_interval_op(b, nan, op, INF).is_empty


def test_mode_agreement_without_zeros(toy):
    nonzero = [v for v in toy.enumerate() if not v.is_zero]
    for a in nonzero:
        for b in nonzero:
            for op in OpKind:
                assert fp_interval_op(a, b, op, FIN) == fp_interval_op(a, b, op, INF)


def test_finite_mode_never_empty_or_error(toy):
    values = toy.enumerate()
    for a in values:
        for b in values:
            for op in OpKind:
                out = fp_interval_op(a, b, op, FIN)
                assert not out.is_empty


# -- fp_scalar_op ----------------------------------------------------------------------


def test_fp_scalar_examples(toy):
    one, three = Fp.from_exact(toy, 1), Fp.from_exact(toy, 3)
    assert fp_scalar_op(one, three, OpKind.DIV, RD.TO_POS_INF, FIN).to_rational() == F(3, 8)
    assert fp_scalar_op(one, three, OpKind.DIV, RD.TO_NEG_INF, FIN).to_rational() == F(5, 16)
    inf = Fp.inf(toy)
    assert fp_scalar_op(inf, inf, OpKind.SUB, RD.TO_POS_INF, FIN) == inf
    assert fp_scalar_op(inf, inf, OpKind.SUB, RD.TO_NEG_INF, FIN) == -inf
    two = Fp.from_exact(toy, 2)
    assert fp_scalar_op(two, Fp.zero(toy), OpKind.DIV, RD.TO_POS_INF, INF).is_nan


def test_fp_scalar_rejects_other_directions(toy):
    one = Fp.from_exact(toy, 1)
    with pytest.raises(ValueError):
        fp_scalar_op(one, one, OpKind.ADD, RD.NEAREST, FIN)
    with pytest.raises(ValueError):
        fp_scalar_op(one, one, OpKind.ADD, RD.TO_ZERO, FIN)


def test_scalar_zero_signs(toy):
    inf, ninf = Fp.inf(toy), Fp.inf(toy, negative=True)
    # upper bound of (-inf, 0] extracts as -0
    assert fp_scalar_op(inf, ninf, OpKind.DIV, RD.TO_POS_INF, FIN) == Fp.zero(
        toy, negative=True
    )
    # lower bound of [0, +inf) extracts as +0
    assert fp_scalar_op(inf, inf, OpKind.DIV, RD.TO_NEG_INF, FIN) == Fp.zero(toy)


# -- value comparison --------------------------------------------------------------


def test_values_of_two_formats_are_refused_by_the_comparisons(toy, toy4):
    """value_cmp and same_value read the encoding, which depends on the
    format: 1 in p3e-2:3 and 1 in p4e-3:3 are refused, not compared by
    their fields, while a format built again field by field is the same
    format."""
    one3, one4 = Fp.from_exact(toy, 1), Fp.from_exact(toy4, 1)
    for compare in (value_cmp, same_value):
        with pytest.raises(ValueError, match="operands use different formats"):
            compare(one3, one4)
    again = Fp.from_exact(FloatFormat(3, -2, 3), 1)
    assert again.fmt is not toy and value_cmp(one3, again) == 0 and same_value(one3, again)


def test_same_value_is_equality_by_value(toy):
    """Field equality first, then the two zeros: the same answer as the
    three-way value compare on every pair, NaN equal only to NaN."""
    values = list(toy.enumerate()) + [Fp.nan(toy)]
    for a in values:
        for b in values:
            if a.is_nan or b.is_nan:
                want = a.is_nan and b.is_nan
            else:
                want = value_cmp(a, b) == 0
            assert same_value(a, b) is want, (a, b)


# -- identity catalog --------------------------------------------------------------------


def test_catalog_shape():
    cat = identity_catalog()
    assert len(cat) == 23
    groups = {}
    for rec in cat:
        groups[rec.group] = groups.get(rec.group, 0) + 1
    assert groups == {"redefined": 12, "formerly-nan": 6, "exact-zeros": 5}
    assert len({rec.name for rec in cat}) == 23
    assert all(rec.mode is INF for rec in cat if rec.group == "exact-zeros")
    assert {rec.operand_class for rec in cat} == {None, "pos", "pos<1", "pos>=1", "nonzero"}


def _shapes(fmt):
    m, M = fmt.min_pos().to_rational(), fmt.max_finite().to_rational()
    cases = {"M < 1": M < 1, "m > 1": m > 1, "m*M < 1": m * M < 1, "m*M > 1": m * M > 1,
             "p = 2": fmt.precision == 2, "subnormals": fmt.subnormals,
             "no subnormals": not fmt.subnormals}
    return {case for case, holds in cases.items() if holds}


@pytest.mark.parametrize("fmt_name", CATALOG_FORMATS)
def test_catalog_identities_exhaustive_on_toys(fmt_name):
    covered = set().union(*(_shapes(parse_format(name)) for name in CATALOG_FORMATS))
    assert covered == {"M < 1", "m > 1", "m*M < 1", "m*M > 1", "p = 2", "subnormals",
                       "no subnormals"}
    fmt = parse_format(fmt_name)
    for rec in identity_catalog():
        for a in rec.operand_candidates(fmt):
            x, y = rec.make_operands(fmt, a)
            got = fp_interval_op(x, y, rec.op, rec.mode)
            assert got == rec.expected(fmt, a), (rec.name, a)


def test_catalog_named_examples(toy):
    by_name = {rec.name: rec for rec in identity_catalog()}
    a = Fp.from_exact(toy, 2)
    rec = by_name["inf-div-a"]
    assert str(rec.expected(toy, a)) == "[7, +inf)"
    rec = by_name["a-div-inf"]
    assert str(rec.expected(toy, a)) == "[0, 0.1875]"
    rec = by_name["neginf-div-neginf"]
    assert str(rec.expected(toy, None)) == "[0, +inf)"
    # m > 1: M/m rounds down to 6 while M is 24
    assert str(by_name["inf-div-poszero"].expected(parse_format("p2e2:4ns"))) == (
        "[6, +inf)"
    )
    # M < 1: the product of two tails [M, +inf) reaches down to M*M, which
    # rounds down to 0
    tiny_range = parse_format("p2e-6:-6")
    assert str(by_name["inf-mul-inf"].expected(tiny_range)) == "[0, +inf)"
    assert str(by_name["inf-mul-neginf"].expected(tiny_range)) == "(-inf, 0]"


def test_catalog_on_binary64_expressible_operands():
    for rec in identity_catalog():
        for a in rec.operand_candidates(BINARY64)[:6]:
            x, y = rec.make_operands(BINARY64, a)
            got = fp_interval_op(x, y, rec.op, rec.mode)
            assert got == rec.expected(BINARY64, a), (rec.name, a)


# -- classification ------------------------------------------------------------------------


def test_classify_examples(toy):
    one, three = Fp.from_exact(toy, 1), Fp.from_exact(toy, 3)
    half, two = Fp.from_exact(toy, F(1, 2)), Fp.from_exact(toy, 2)
    inf = Fp.inf(toy)
    assert classify_vs_ieee(one, three, OpKind.DIV, FIN) is Classification.CONFORMS
    assert classify_vs_ieee(half, inf, OpKind.MUL, FIN) is Classification.DEVIATES
    assert classify_vs_ieee(inf, inf, OpKind.SUB, FIN) is Classification.NEWLY_DEFINED
    assert classify_vs_ieee(two, inf, OpKind.MUL, FIN) is Classification.CONFORMS
    assert classify_vs_ieee(inf, inf, OpKind.MUL, FIN) is Classification.CONFORMS
