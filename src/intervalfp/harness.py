"""Differential testing against IEEE 754 behaviour.

The reference semantics (ieee_reference) follows the standard's rules in
exact arithmetic: NaN for the classically invalid combinations, signed
zeros per the sign rules, and every direction through the oracle's
rounding from the definition (`oracle.round_scaled`) on operands in units
of the format's least step.  So it shares the construction of values with
the implementation, and nothing of its rounding or meanings.  For binary64 an
optional native backend drives the actual FPU through fesetround, so the
softfloat rules can be diffed against hardware.

Classification against IEEE 754 lives here too, next to the reference it
needs: an interval result conforms, deviates, or is newly defined where
IEEE yields NaN.

Three suites report through one `SuiteResult` (name, comparisons checked,
mismatches, notes).  The conformance suite checks the headline property:
for finite operands, the directed-rounding IEEE result equals the matching
bound of the operation's interval.  Zeros take part as exact points and
results are compared by numeric value, since an interval bound carries no
zero sign.  The reference states each of the standard's rules once: the
NaN, infinity and zero operands first, then the exact finite arithmetic,
whose one value serves both directed results; over an enumerable format
each distinct value is rounded once per run.  Backend agreement diffs the
softfloat reference against the host FPU, and the totality fuzz checks
that every operation returns a well-formed, non-empty interval.
"""

from __future__ import annotations

import ctypes
import math
import random
import struct
from contextlib import contextmanager
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from itertools import product
from typing import Iterator, NamedTuple, Optional

from .fpformat import (
    BINARY64,
    EnumerationLimitError,
    FloatFormat,
    Fp,
    RoundingDirection,
    _DOWN,
    _FINITE,
    _NEAREST,
    _TO_ZERO,
    _UP,
    _ZERO,
)
from .interval import _ADD, _DIV, _MUL, _SUB, ExtInterval, OpKind
from .oracle import least_step, round_scaled, units
from .semantics import (
    ZeroMode,
    extract_bound,
    fp_interval_op,
    fp_scalar_op,
    identity_catalog,
    represent,
    representative_operand,
    same_value,
)

DEFAULT_SEED = 271828


# -- IEEE 754 reference (softfloat) -------------------------------------------------


def ieee_reference(a: Fp, b: Fp, op: OpKind, direction: RoundingDirection) -> Fp:
    """The IEEE 754 result of a op b under a rounding direction: the special
    cases by the standard's rules, else the exact result in units of the
    format's least step, rounded by the oracle.  NaN is an ordinary value."""
    v, s = _exact_or_special(a, b, op)
    if isinstance(v, Fp):  # a special case: the results down and otherwise
        return v if direction is _DOWN else s
    if direction is _NEAREST:
        return round_scaled(v, s, a.fmt, None)
    up = v < 0 if direction is _TO_ZERO else direction is _UP
    return round_scaled(v, s, a.fmt, up)


def _exact_or_special(a: Fp, b: Fp, op: OpKind) -> tuple:
    """a op b before rounding, by the standard's rules: in a special case
    two `Fp`s, the result when rounding down and in every other direction,
    else (v, s) for the exact nonzero result v * 2**s, v an int or a
    `Fraction`.  The rules for a NaN, an infinity or a zero operand come
    first; what they leave is exact arithmetic on the operands' units, where
    a sum's cancellation, opposite zeros included, is +0, or -0 when
    rounding down."""
    fmt = a.fmt
    if fmt is not b.fmt and fmt != b.fmt:
        raise ValueError("operands use different formats")
    if a.kind is not _FINITE or b.kind is not _FINITE:
        if op is _SUB:
            op, b = _ADD, -b
        sign = a.negative != b.negative
        if a.is_nan or b.is_nan:
            return _both(Fp.nan(fmt))
        if op is _MUL:
            if a.is_inf or b.is_inf:
                return _both(Fp.nan(fmt) if a.is_zero or b.is_zero else Fp.inf(fmt, sign))
            return _both(Fp.zero(fmt, sign))
        if op is _DIV:
            if (a.is_inf and b.is_inf) or (a.is_zero and b.is_zero):
                return _both(Fp.nan(fmt))
            return _both(Fp.inf(fmt, sign) if a.is_inf or b.is_zero else Fp.zero(fmt, sign))
        if a.is_inf or b.is_inf:
            return _both(Fp.nan(fmt) if a.is_inf and b.is_inf and sign else a if a.is_inf else b)
        if a.is_zero and b.is_zero and not sign:
            return _both(a)
    if op is _MUL:
        return units(a) * units(b), 2 * least_step(fmt)
    if op is _DIV:
        return Fraction(units(a), units(b)), 0
    v = units(a) + units(b) if op is _ADD else units(a) - units(b)
    return (v, least_step(fmt)) if v else (Fp(fmt, _ZERO, True), Fp(fmt, _ZERO))


def _both(x: Fp) -> tuple[Fp, Fp]:
    return x, x


# -- native backend (binary64 via the host FPU) ---------------------------------------

# fesetround constants differ per architecture; candidates are verified
# semantically before use, never assumed.
_FE_CANDIDATES = (
    {_NEAREST: 0x0, _DOWN: 0x400, _UP: 0x800, _TO_ZERO: 0xC00},  # x86 family
    {_NEAREST: 0x0, _UP: 0x400000, _DOWN: 0x800000, _TO_ZERO: 0xC00000},  # arm64
)
_LIB_NAMES = ("libm.so.6", "libm.so", "libc.so.6", "libSystem.B.dylib")


@lru_cache(maxsize=None)
def _native_rounding() -> Optional[tuple[ctypes.CDLL, dict]]:
    """(library, verified fesetround constants), or None if unavailable."""
    lib = None
    for name in _LIB_NAMES:
        try:
            cand = ctypes.CDLL(name)
            cand.fesetround
            cand.fegetround
            lib = cand
            break
        except (OSError, AttributeError):
            continue
    if lib is None:
        return None
    one, three = float(1.0), float(3.0)
    want_dn = round_scaled(Fraction(1, 3), 0, BINARY64, False).to_float()
    want_up = round_scaled(Fraction(1, 3), 0, BINARY64, True).to_float()
    for consts in _FE_CANDIDATES:
        old = lib.fegetround()
        try:
            if lib.fesetround(consts[_DOWN]) != 0:
                continue
            got_dn = one / three
            if lib.fesetround(consts[_UP]) != 0:
                continue
            got_up = one / three
        finally:
            lib.fesetround(old)
        if got_dn == want_dn and got_up == want_up:
            return lib, consts
    return None


@contextmanager
def _native_mode(direction: RoundingDirection):
    lib, consts = _native_rounding()
    old = lib.fegetround()
    lib.fesetround(consts[direction])
    try:
        yield
    finally:
        lib.fesetround(old)


def native_rounding_available() -> bool:
    """True when the host FPU rounding mode can be driven and verified."""
    return _native_rounding() is not None


def ieee_reference_native(a: Fp, b: Fp, op: OpKind, direction: RoundingDirection) -> Fp:
    """IEEE result for binary64 computed by the host FPU under fesetround.

    Division by zero is synthesised (Python refuses it) but is rounding-mode
    independent, so the hardware is still exercised everywhere it matters."""
    if a.fmt != BINARY64 or b.fmt != BINARY64:
        raise ValueError("native backend is binary64 only")
    if not native_rounding_available():
        raise RuntimeError("no verified native rounding access on this platform")
    xa, xb = a.to_float(), b.to_float()
    if math.isnan(xa) or math.isnan(xb):
        return Fp.nan(BINARY64)
    with _native_mode(direction):
        if op is OpKind.ADD:
            r = xa + xb
        elif op is OpKind.SUB:
            r = xa - xb
        elif op is OpKind.MUL:
            r = xa * xb
        elif xb == 0.0:
            if xa == 0.0:
                r = math.nan
            else:
                neg = (math.copysign(1.0, xa) < 0) != (math.copysign(1.0, xb) < 0)
                r = -math.inf if neg else math.inf
        else:
            r = xa / xb
    return Fp.from_float(BINARY64, r)


# -- operand sampling ------------------------------------------------------------------


def adversarial_binary64() -> list[Fp]:
    """Fixed stress operands: zeros, subnormal and normal boundaries, units,
    powers of two, extremes, infinities, and the greatest value below the
    top binade, which 2**900 added to it carries into."""
    specials = [0.0, 5e-324, 2.0**-1022 - 5e-324, 2.0**-1022, 1.0, 2.0, 0.5,
                2.0**52, 2.0**-52, 2.0**900, 2.0**1023 - 2.0**970, 1.7976931348623157e308,
                math.inf]
    out = []
    for v in specials:
        out.append(Fp.from_float(BINARY64, v))
        out.append(Fp.from_float(BINARY64, -v))
    return out


def sample_binary64(rng: random.Random, finite_only: bool = False) -> Fp:
    """Bit-uniform binary64 sample (never NaN); stresses exponent extremes."""
    while True:
        bits = rng.getrandbits(64)
        x = struct.unpack("<d", struct.pack("<Q", bits))[0]
        if math.isnan(x):
            continue
        if finite_only and math.isinf(x):
            continue
        return Fp.from_float(BINARY64, x)


def binary64_pairs(n: int, seed: int, finite_only: bool = False) -> Iterator[tuple[Fp, Fp]]:
    """Deterministic operand-pair stream: the adversarial cross product
    first (counted against n), then bit-uniform samples."""
    rng = random.Random(seed)
    count = 0
    fixed = adversarial_binary64()
    if finite_only:
        fixed = [v for v in fixed if not v.is_inf]
    for a in fixed:
        for b in fixed:
            if count >= n:
                return
            yield a, b
            count += 1
    while count < n:
        yield sample_binary64(rng, finite_only), sample_binary64(rng, finite_only)
        count += 1


# -- conformance suite ------------------------------------------------------------------


class DiffCase(NamedTuple):
    a: Fp
    b: Fp
    op: OpKind
    direction: RoundingDirection
    ieee_result: Fp
    interval_bound: Fp

    def __str__(self):
        return (
            f"{self.a} {self.op.value} {self.b} [{self.direction.value}] "
            f"ieee={self.ieee_result} interval={self.interval_bound} mismatch"
        )


class SuiteResult:
    """What one suite found: comparisons made, the failing cases (printed
    with `str`), and notes on what was covered or why nothing was.  The
    suite fills it as it runs."""

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.mismatches: list = []
        self.notes: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.mismatches)} mismatches"
        lines = [f"{self.name}: {self.checked} comparisons, {status}"]
        lines += [f"  {c}" for c in self.mismatches[:20]]
        lines += [f"  note: {n}" for n in self.notes]
        return "\n".join(lines)


_DIRECTED = (_DOWN, _UP)


def run_theorem_suite(
    fmt: FloatFormat, samples: int = 100_000, seed: int = DEFAULT_SEED
) -> SuiteResult:
    """Check that each directed IEEE result equals the matching interval
    bound: over every finite operand pair for enumerable formats, or for
    binary64 over the first `samples` finite pairs of `binary64_pairs`,
    the fixed stress pairs and then seeded random ones.  Any other
    format too large to enumerate raises ValueError (the sampler draws
    binary64 values only), and so does samples < 1 on binary64; an
    enumerable format ignores samples.  Division skips zero divisors, the
    one case the claim excludes.  Each pair's exact IEEE value is computed
    once, by the reference's rules for a zero operand and then its one
    exact arithmetic, and serves both directions; over an enumerable format
    the two directed results are kept per distinct value for the length of
    the run, so each is rounded once.  A sample keeps no such table, since
    nearly all of its values are distinct."""
    result = SuiteResult(f"conformance {fmt.descriptor()}")
    try:
        finites = [v for v in fmt.enumerate() if v.is_finite]
        pairs = partial(product, finites, finites)
        result.notes.append(f"exhaustive over {len(finites)} finite values")
        rounded: Optional[dict] = {}
    except EnumerationLimitError:
        if fmt != BINARY64:
            raise ValueError(
                f"{fmt.descriptor()} is too large to enumerate, and only binary64 "
                "can be sampled"
            ) from None
        if samples < 1:
            raise ValueError(f"samples must be at least 1, not {samples}")
        # the same seeded stream again for each op, so no pair is held
        pairs = partial(binary64_pairs, samples, seed, finite_only=True)
        result.notes.append(f"{samples} pairs, fixed stress pairs first, then random with seed {seed}")
        rounded = None
    for op in OpKind:
        skip_zero_divisors = op is _DIV
        for a, b in pairs():
            if skip_zero_divisors and b.kind is _ZERO:
                continue
            interval = fp_interval_op(a, b, op, ZeroMode.INFINITE)
            v, s = results = _exact_or_special(a, b, op)
            if not isinstance(v, Fp):
                # keyed by integers: hashing a quotient's Fraction costs more
                key = v.numerator, v.denominator, s
                results = None if rounded is None else rounded.get(key)
                if results is None:
                    results = round_scaled(v, s, fmt, False), round_scaled(v, s, fmt, True)
                    if rounded is not None:
                        rounded[key] = results
            for direction, ieee in zip(_DIRECTED, results):
                bound = extract_bound(interval, direction)
                if not same_value(ieee, bound):
                    result.mismatches.append(DiffCase(a, b, op, direction, ieee, bound))
            result.checked += 2
    return result


# -- classification and deviation report ------------------------------------------------


class Classification(Enum):
    CONFORMS = "conforms"
    DEVIATES = "deviates"
    NEWLY_DEFINED = "newly-defined"


def classify_vs_ieee(a: Fp, b: Fp, op: OpKind, mode: ZeroMode) -> Classification:
    """How the interval result relates to the IEEE 754 result.

    NEWLY_DEFINED: IEEE yields NaN but the set semantics yields a set.
    CONFORMS: the results agree, either as the single float representing
    the result set (wide results such as the meaning of +inf) or bound by
    bound against the two directed IEEE results, so with exact zeros
    (infinite mode) two finite operands always conform, as the theorem
    suite checks.  DEVIATES otherwise."""
    r_dn, r_up = (ieee_reference(a, b, op, direction) for direction in _DIRECTED)
    if r_dn.is_nan:
        return Classification.NEWLY_DEFINED
    single = represent(fp_interval_op(a, b, op, mode), mode)
    if single is not None and same_value(single, r_dn) and same_value(single, r_up):
        return Classification.CONFORMS
    if all(same_value(fp_scalar_op(a, b, op, direction, mode), ieee)
           for direction, ieee in zip(_DIRECTED, (r_dn, r_up))):
        return Classification.CONFORMS
    return Classification.DEVIATES


class ReportRow(NamedTuple):
    name: str
    pattern: str
    group: str
    mode: ZeroMode
    expr: str
    operands: str
    ieee: str
    interval: str
    classification: Classification
    holds: bool  # the interval equals the record's expected text


def deviation_report(fmt: FloatFormat) -> list[ReportRow]:
    """One row per catalog identity: representative operands, the IEEE
    result, the interval result, how the two relate, and whether the
    interval is the one the record's text states.  An identity whose
    operand class has no member in the format has no row."""
    rows = []
    for rec in identity_catalog():
        a = representative_operand(rec, fmt)
        if a is None and rec.operand_class is not None:
            continue
        x, y = rec.make_operands(fmt, a)
        ieee = ieee_reference(x, y, rec.op, RoundingDirection.NEAREST)
        interval_result = fp_interval_op(x, y, rec.op, rec.mode)
        cls = classify_vs_ieee(x, y, rec.op, rec.mode)
        rows.append(
            ReportRow(
                rec.name,
                rec.pattern,
                rec.group,
                rec.mode,
                rec.expr_text,
                f"{x} {rec.op.value} {y}",
                str(ieee),
                str(interval_result),
                cls,
                interval_result == rec.expected(fmt, a),
            )
        )
    return rows


# -- backend agreement and totality fuzzing ----------------------------------------------


def backend_agreement(
    pairs_per_combo: int = 1_000_000, seed: int = DEFAULT_SEED
) -> SuiteResult:
    """Diff the softfloat IEEE reference against the host FPU over seeded
    random binary64 pairs for every op and every rounding direction; each
    disagreement is a mismatch.  Where no verified rounding-mode access
    exists, nothing is checked and a note says why."""
    result = SuiteResult("backend agreement b64")
    if not native_rounding_available():
        result.notes.append("no verified native rounding-mode access on this platform")
        return result
    for direction in RoundingDirection:
        for op in OpKind:
            for a, b in binary64_pairs(pairs_per_combo, seed):
                soft = ieee_reference(a, b, op, direction)
                native = ieee_reference_native(a, b, op, direction)
                result.checked += 1
                if soft != native:
                    result.mismatches.append(
                        f"{a} {op.value} {b} [{direction.value}] soft={soft} native={native}"
                    )
    return result


def totality_fuzz(pairs_per_op: int = 1_000_000, seed: int = DEFAULT_SEED) -> SuiteResult:
    """Throw random non-NaN binary64 pairs at every operation in finite-zero
    mode and verify the result is always a well-formed interval: no
    exception, never empty, and bounds that the `ExtInterval` class call
    accepts as they are (so no NaN, no misplaced infinity, no -0, lo <= hi).
    Each failure is a mismatch."""
    result = SuiteResult("totality fuzz b64")
    for op in OpKind:
        for a, b in binary64_pairs(pairs_per_op, seed + ord(op.value)):
            result.checked += 1
            try:
                out = fp_interval_op(a, b, op, ZeroMode.FINITE)
            except Exception as exc:  # totality means this must not happen
                result.mismatches.append(f"{a} {op.value} {b}: raised {exc!r}")
                continue
            if out.is_empty:
                result.mismatches.append(f"{a} {op.value} {b}: empty result")
                continue
            try:
                well_formed = ExtInterval(*out) == out
            except ValueError:
                well_formed = False
            if not well_formed:
                result.mismatches.append(f"{a} {op.value} {b}: malformed {out}")
    return result
