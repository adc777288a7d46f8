"""The three benchmark workloads, their seeded inputs and correctness gates.

All workloads are closed loops with one caller in one thread: the next item
starts only after the previous one returned.  The program receives only the
generated ``Fp`` values and expression strings; every input is drawn here
from the seed, so changes to the program's own samplers cannot change a
workload.

b64_ops
    binary64 ``(a, b, op)`` items through ``semantics.fp_interval_op`` in
    finite-zero mode.  The bulk library path, dominated by point x point
    operands; its bit-uniform share has huge exponent gaps, which drive the
    size of the exact rationals and so the latency tail.
expr_eval
    Expression strings run the way ``intervalfp eval`` runs them, in process:
    ``cli.parse`` -> ``cli.eval_expr`` -> ``str``.  The only workload where
    parsing, literal rounding, printing and the wide and straddling-divisor
    branches of ``interval`` dominate.
verify_tiny
    What ``intervalfp check`` does on enumerable formats: the exhaustive
    oracle comparison and the theorem suite.  The only workload where
    ``oracle`` and the softfloat IEEE reference do the work; it uses no
    binary64 at all.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
import time
from array import array
from dataclasses import dataclass, field
from typing import Optional

from intervalfp import cli, fpformat, harness, oracle, roundflag, semantics
from intervalfp.fpformat import BINARY64, FloatFormat, Fp, FpKind, RoundingDirection, parse_format
from intervalfp.interval import ExtInterval, OpKind
from intervalfp.semantics import ZeroMode

from tracer import installed, percentile

FINITE = ZeroMode.FINITE
OPS = tuple(OpKind)
DOWN, UP = RoundingDirection.TO_NEG_INF, RoundingDirection.TO_POS_INF


# -- operand classes -----------------------------------------------------------


def operand_class(op: OpKind, x: ExtInterval, y: ExtInterval) -> str:
    """Which branch family of the interval operations an operand pair takes."""
    if op is OpKind.DIV and y.contains_zero():
        return "straddle_div"
    if x.is_point() and y.is_point():
        return "point_point"
    return "wide"


@dataclass
class Mix:
    """Exact operand-class counts over a fixed set of operations."""

    total: int = 0
    counts: dict = field(default_factory=lambda: dict.fromkeys(
        ("point_point", "wide", "straddle_div", "zero_operand", "exp_gap_gt_64"), 0))

    def add(self, op: OpKind, x: ExtInterval, y: ExtInterval) -> None:
        self.total += 1
        self.counts[operand_class(op, x, y)] += 1
        if x.contains_zero() or y.contains_zero():
            self.counts["zero_operand"] += 1
        if (x.is_point() and y.is_point() and x.lo.kind is FpKind.FINITE
                and y.lo.kind is FpKind.FINITE and abs(x.lo.e - y.lo.e) > 64):
            self.counts["exp_gap_gt_64"] += 1

    def shares(self) -> dict:
        out = {f"mix.{k}_share": v / self.total if self.total else 0.0
               for k, v in self.counts.items()}
        out["mix.operations"] = self.total
        return out


def ieee_directed(a: Fp, b: Fp, op: OpKind, direction: RoundingDirection) -> Fp:
    """IEEE directed result from the host FPU, or softfloat where the host
    rounding mode cannot be driven."""
    if harness.native_rounding_available():
        return harness.ieee_reference_native(a, b, op, direction)
    return harness.ieee_reference(a, b, op, direction)


# -- b64_ops ---------------------------------------------------------------------


def _f64(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_M = 1.7976931348623157e308
_MIN_SUB = 5e-324
_M_TIMES_m = _M * _MIN_SUB  # exact: 2**-50 - 2**-103
B64_SPECIALS = tuple(
    s * v
    for v in (0.0, math.inf, _MIN_SUB, 2.0**-1022, _M, _M_TIMES_m,
              math.nextafter(_M_TIMES_m, 0.0), math.nextafter(_M_TIMES_m, 1.0))
    for s in (1.0, -1.0)
)


class B64Ops:
    """binary64 operand pool: 60% clustered (|binary exponent| <= 64),
    25% bit-uniform finite, 15% special class; the four ops in equal shares."""

    name = "b64_ops"
    rate_name, latency_name = "ops_per_s", "op"

    def __init__(self, chunk: int = 2000, pool: int = 20000):
        self.chunk = chunk
        self.pool = pool

    def items(self, seed: int) -> list:
        rng = random.Random(seed)
        return [(self._operand(rng), self._operand(rng), OPS[rng.randrange(4)])
                for _ in range(self.pool)]

    @staticmethod
    def _operand(rng: random.Random) -> Fp:
        r = rng.random()
        if r < 0.60:
            mant = rng.getrandbits(52) | (1 << 52)
            x = math.ldexp(mant, rng.randint(-64, 64) - 52)
            x = -x if rng.random() < 0.5 else x
        elif r < 0.85:
            x = math.inf
            while not math.isfinite(x):
                x = _f64(rng.getrandbits(64))
        else:
            x = rng.choice(B64_SPECIALS)
        return Fp.from_float(BINARY64, x)

    def start_chunk(self) -> None:
        pass

    def end_chunk(self) -> int:
        return 0

    def call(self, item):
        a, b, op = item
        return semantics.fp_interval_op(a, b, op, FINITE)

    @staticmethod
    def text(result) -> str:
        return str(result)

    def check(self, item, result, mix: Optional[Mix]) -> Optional[str]:
        a, b, op = item
        x, y = semantics.interpret(a, FINITE), semantics.interpret(b, FINITE)
        if mix is not None:
            mix.add(op, x, y)
        if isinstance(result, Exception):
            return f"{a!r} {op.value} {b!r}: raised {result!r}"
        expected = oracle.oracle_op(x, y, op, BINARY64)
        if result != expected:
            return f"{a!r} {op.value} {b!r}: got {result}, oracle {expected}"
        if a.kind is FpKind.FINITE and b.kind is FpKind.FINITE:
            for direction, bound in ((DOWN, result.lo), (UP, result.hi)):
                ref = ieee_directed(a, b, op, direction)
                if not semantics.same_value(ref, bound):
                    return (f"{a!r} {op.value} {b!r}: {direction.value} bound {bound}, "
                            f"IEEE {ref}")
        return None


# -- expr_eval ---------------------------------------------------------------------

# Out-of-range literals that evaluate today.  1e5000 is left out: it raises
# in cli._decimal_of (Python's 4300-digit limit), and the benchmark's
# workloads hold only items on which no operation fails.
OUT_OF_RANGE = ("1e400", "1e-400")
OUT_OF_RANGE_EVERY = 1000  # the fixed 1-in-1000 share of leaves


class ExprEval:
    """Seeded corpus of fully parenthesised expressions of depth 1-6."""

    name = "expr_eval"
    rate_name, latency_name = "expr_per_s", "expr"

    def __init__(self, chunk: int = 200, pool: int = 2000):
        self.chunk = chunk
        self.pool = pool
        self.warnings: list[str] = []

    def items(self, seed: int) -> list:
        rng = random.Random(seed)
        leaves = [0]
        out = []
        for _ in range(self.pool):
            tree = self._tree(rng, rng.randint(1, 6), leaves, root=True)
            out.append((_render(tree), tree))
        return out

    def _tree(self, rng, depth, leaves, root=False):
        if depth == 0 or (not root and rng.random() < 0.3):
            return self._leaf(rng, leaves)
        op = OPS[rng.randrange(4)]
        return (op, self._tree(rng, depth - 1, leaves), self._tree(rng, depth - 1, leaves))

    @staticmethod
    def _leaf(rng, leaves) -> str:
        leaves[0] += 1
        sign = "-" if rng.random() < 0.3 else ""
        if leaves[0] % OUT_OF_RANGE_EVERY == 0:
            return sign + OUT_OF_RANGE[(leaves[0] // OUT_OF_RANGE_EVERY) % len(OUT_OF_RANGE)]
        r = rng.random()
        if r < 0.10:
            return sign + rng.choice(("0", "inf"))
        if r < 0.25:
            mant = rng.getrandbits(52) | (1 << 52)
            return sign + math.ldexp(mant, rng.randint(-40, 40) - 52).hex()
        if r < 0.60:
            return f"{sign}{rng.randrange(100)}.{rng.randrange(1, 1000):03d}"
        digits = rng.randint(1, 17)
        return f"{sign}{rng.randrange(10 ** (digits - 1), 10 ** digits)}e{rng.randint(-40, 20)}"

    def start_chunk(self) -> None:
        self.warnings.clear()

    def end_chunk(self) -> int:
        return len(self.warnings)

    def call(self, item):
        result = cli.eval_expr(cli.parse(item[0]), BINARY64, FINITE, warn=self.warnings.append)
        return result, str(result)

    @staticmethod
    def text(result) -> str:
        return result[1]

    def check(self, item, result, mix: Optional[Mix]) -> Optional[str]:
        text, tree = item
        expected = _oracle_eval(tree, mix)
        if isinstance(result, Exception):
            return f"{text}: raised {result!r}"
        if result[0] != expected:
            return f"{text}: got {result[1]}, oracle {expected}"
        return None


def _render(tree) -> str:
    if isinstance(tree, str):
        return tree
    op, lhs, rhs = tree
    return f"({_render(lhs)} {op.value} {_render(rhs)})"


def _leaf_float(text: str) -> float:
    """A literal's round-to-nearest binary64 value, via the host parser."""
    body = text.lstrip("-")
    x = float.fromhex(body) if body.startswith("0x") else float(body)
    return -x if text.startswith("-") else x


def _oracle_eval(tree, mix: Optional[Mix]) -> ExtInterval:
    """The same tree with oracle_op at every inner node, on the leaf meanings."""
    if isinstance(tree, str):
        return semantics.interpret(Fp.from_float(BINARY64, _leaf_float(tree)), FINITE)
    op, lhs, rhs = tree
    x, y = _oracle_eval(lhs, mix), _oracle_eval(rhs, mix)
    if mix is not None:
        mix.add(op, x, y)
    return oracle.oracle_op(x, y, op, BINARY64)


# -- the timed loop ----------------------------------------------------------------


@dataclass
class StreamRun:
    """Outcome of running a workload's seeded pool of items."""

    items: int = 0
    passes: int = 0
    loop_ns: int = 0
    chunk_rates: list = field(default_factory=list)
    latency_ns: array = field(default_factory=lambda: array("q"))
    failures: list = field(default_factory=list)
    failed: int = 0
    warnings: int = 0
    pool_warnings: int = 0
    mix: Mix = field(default_factory=Mix)
    digest: str = ""

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(problem)


def _line(workload, result) -> str:
    return repr(result) if isinstance(result, Exception) else workload.text(result)


def run_stream(workload, seed: int, seconds: float = 0.0, passes: Optional[int] = None,
               tracer=None, patches=(), gate: bool = True) -> StreamRun:
    """Pass over the workload's seeded pool of items, chunk by chunk, until
    `seconds` of timed loop have passed and one pass is complete, or for
    exactly `passes` passes.

    The pool is generated, and the first pass gated and digested, outside the
    timed loop; every later pass must return the first pass's results.  The
    pool, the first-pass results and the latency store (the latest time of
    each pool item) are all sized by the pool, so the benchmark's memory and
    its work outside the loop, apart from one comparison per item, do not
    grow with the program's speed.  The tracer's patches are installed only
    around the timed loop."""
    pool = workload.items(seed)
    n = len(pool)
    out = StreamRun(latency_ns=array("q", bytes(8 * n)))
    lat = out.latency_ns
    first: list = []
    clock = time.perf_counter_ns
    call = workload.call
    while not (out.items >= n and (out.items >= passes * n if passes is not None
                                   else out.loop_ns >= seconds * 1e9)):
        pos = out.items % n
        chunk = pool[pos:pos + workload.chunk]
        results = []
        workload.start_chunk()
        with installed(patches):
            t0 = clock()
            for i, item in enumerate(chunk, pos):
                if tracer is not None:
                    tracer.item = i
                s = clock()
                try:
                    r = call(item)
                except Exception as exc:  # an item that raises is counted, not fatal
                    r = exc
                lat[i] = clock() - s
                results.append(r)
            t1 = clock()
        warnings = workload.end_chunk()
        out.warnings += warnings
        out.loop_ns += t1 - t0
        out.chunk_rates.append(len(chunk) / ((t1 - t0) / 1e9))
        if out.items < n:
            out.pool_warnings += warnings
            first += results
        else:
            for i, r in enumerate(results, pos):
                e = first[i]
                if not (r == e or (isinstance(r, Exception) and repr(r) == repr(e))):
                    out.fail(f"item {i}, pass {out.items // n + 1}: {_line(workload, r)}, "
                             f"first pass {_line(workload, e)}")
        out.items += len(chunk)
    out.passes = out.items // n
    digest = hashlib.sha256()
    for item, r in zip(pool, first):
        digest.update((_line(workload, r) + "\n").encode())
        if gate:
            problem = workload.check(item, r, out.mix)
            if problem is not None:
                out.fail(problem)
    out.digest = digest.hexdigest()
    return out


# -- verify_tiny -------------------------------------------------------------------


class VerifyTiny:
    """Exhaustive oracle comparison on the compare formats in both zero
    modes, then the theorem suite on the theorem format."""

    name = "verify_tiny"

    def __init__(self, compare=("p3e-2:3", "p4e-3:3"), theorem="p4e-3:3"):
        self.compare = tuple(parse_format(f) for f in compare)
        self.theorem = parse_format(theorem)

    @staticmethod
    def compare_count(fmt: FloatFormat, mode: ZeroMode) -> int:
        n = fmt.value_count() + (1 if mode is ZeroMode.INFINITE else 0)
        return len(OPS) * n * n

    def theorem_count(self) -> int:
        finites = self.theorem.value_count() - 2
        # two directions, four ops, division skips the two zero divisors
        return 2 * (len(OPS) * finites * finites - 2 * finites)

    def comparisons(self) -> int:
        return self.oracle_calls() + self.theorem_count()

    def oracle_calls(self) -> int:
        return sum(self.compare_count(f, m) for f in self.compare for m in ZeroMode)

    def verdict(self) -> dict:
        """One full verdict: phase times, mismatches and the suite result."""
        phases, failures, problems = [], [], []

        def timed(name, fn, *args):
            t0 = time.perf_counter_ns()
            out = fn(*args)
            phases.append((name, time.perf_counter_ns() - t0))
            return out

        for fmt in self.compare:
            for mode in ZeroMode:
                name = f"compare {fmt.descriptor()} {mode.value}"
                mismatches = timed(name, oracle.exhaustive_compare, fmt, mode)
                problems.append((name, [str(m) for m in mismatches]))
        name = f"theorem {self.theorem.descriptor()}"
        suite = timed(name, harness.run_theorem_suite, self.theorem)
        problems.append((name, [str(c) for c in suite.mismatches]))
        for name, found in problems:
            failures += [f"{name}: {p}" for p in found]
        if suite.checked != self.theorem_count():
            failures.append(f"theorem suite checked {suite.checked}, "
                            f"expected {self.theorem_count()}")
        digest = hashlib.sha256()
        for name, found in problems:
            digest.update(f"{name}: {found}\n".encode())
        digest.update(suite.summary().encode())
        return {"total_ns": sum(p[1] for p in phases), "phases": phases,
                "failures": failures, "digest": digest.hexdigest()}

    def mix(self) -> Mix:
        mix = Mix()
        for fmt in self.compare:
            for mode in ZeroMode:
                values = list(fmt.enumerate())
                if mode is ZeroMode.INFINITE:
                    values.append(Fp.nan(fmt))
                meanings = [semantics.interpret(v, mode) for v in values]
                for op in OPS:
                    for x in meanings:
                        for y in meanings:
                            mix.add(op, x, y)
        return mix


WORKLOADS = {w.name: w for w in (B64Ops, ExprEval, VerifyTiny)}


# -- probes on b64 operands ------------------------------------------------------------


def native_probe(items) -> tuple[Optional[float], int]:
    """p50 us of one directed ieee_reference_native call on finite pairs."""
    if not harness.native_rounding_available():
        return None, 0
    clock = time.perf_counter_ns
    lat = array("q")
    for a, b, op in items:
        if a.kind is FpKind.FINITE and b.kind is FpKind.FINITE:
            for direction in (DOWN, UP):
                s = clock()
                harness.ieee_reference_native(a, b, op, direction)
                lat.append(clock() - s)
    return (percentile(lat, 50) / 1000.0 if lat else None), len(lat)


def recover_bounds_probe(items) -> tuple[Optional[float], int, list]:
    """p50 us of roundflag.recover_bounds on the nearest results of finite
    pairs, each checked against the two directed roundings."""
    clock = time.perf_counter_ns
    lat, failures = array("q"), []
    for a, b, op in items:
        if a.kind is not FpKind.FINITE or b.kind is not FpKind.FINITE:
            continue
        qa, qb = a.to_rational(), b.to_rational()
        q = {OpKind.ADD: qa + qb, OpKind.SUB: qa - qb,
             OpKind.MUL: qa * qb, OpKind.DIV: qa / qb}[op]
        nearest = BINARY64.round(q, RoundingDirection.NEAREST)
        near_q = nearest.to_rational() if nearest.is_finite else None
        if near_q == q:
            flag = roundflag.RoundFlag.EXACT
        elif near_q is None or abs(near_q) > abs(q):
            flag = roundflag.RoundFlag.ROUNDED_UP
        else:
            flag = roundflag.RoundFlag.NOT_ROUNDED_UP
        s = clock()
        lo, hi = roundflag.recover_bounds(nearest, flag)
        lat.append(clock() - s)
        want_lo, want_hi = BINARY64.round(q, DOWN), BINARY64.round(q, UP)
        if fpformat.value_cmp(lo, want_lo) or fpformat.value_cmp(hi, want_hi):
            failures.append(f"recover_bounds {a!r} {op.value} {b!r}: [{lo}, {hi}], "
                            f"directed [{want_lo}, {want_hi}]")
    return (percentile(lat, 50) / 1000.0 if lat else None), len(lat), failures
