"""Which public functions the traced run wraps, and the per-layer metrics
computed from the spans.

bench/README.md lists, for each per-layer metric, the end-to-end metric it
should move and the workload it should move it on.
"""

from __future__ import annotations

from intervalfp import cli, fpformat, harness, interval, oracle, semantics

from tracer import Tracer, percentile, plain
from workloads import operand_class


def _round_bits(args) -> int:
    q = args[1]
    return q.numerator.bit_length() + q.denominator.bit_length()


def _apply_tags(args):
    op, x, y = args
    return op.name.lower(), operand_class(op, x, y)


def _op_tag(args):
    return (args[2].name.lower(),)


def _compare_tag(args):
    fmt, mode = args
    return (f"{fmt.descriptor()}.{mode.value}",)


# (span name, the places the workloads look it up, tag, value)
SPANS = (
    ("fpformat.round", ((fpformat.FloatFormat, "round"),), None, _round_bits),
    ("fpformat.round_both", ((fpformat.FloatFormat, "round_both"),), None, _round_bits),
    ("fpformat.str", ((fpformat.Fp, "__str__"),), None, None),
    ("interval.hull", ((interval, "hull"),), None, None),
    ("interval.make", ((interval.ExtInterval, "make"),), None, None),
    ("interval.negate", ((interval, "negate"),), None, None),
    ("interval.apply_op", ((semantics, "apply_op"), (cli, "apply_op")), _apply_tags, None),
    ("semantics.interpret", ((semantics, "interpret"), (cli, "interpret"), (oracle, "interpret")),
     None, None),
    ("semantics.fp_interval_op", ((semantics, "fp_interval_op"), (oracle, "fp_interval_op")),
     _op_tag, None),
    ("semantics.fp_scalar_op", ((harness, "fp_scalar_op"),), None, None),
    ("harness.ieee_reference", ((harness, "ieee_reference"),), None, None),
    ("harness.run_theorem_suite", ((harness, "run_theorem_suite"),), None, None),
    ("oracle.exhaustive_compare", ((oracle, "exhaustive_compare"),), _compare_tag, None),
    ("oracle.oracle_op", ((oracle, "oracle_op"),), None, None),
    ("cli.parse", ((cli, "parse"),), None, None),
    ("cli.eval_expr", ((cli, "eval_expr"),), None, None),
    # str(result) as `intervalfp eval` prints it
    ("cli.format", ((interval.ExtInterval, "__str__"),), None, None),
)
COUNTERS = (("fpformat.fp_objects", fpformat.Fp, "__init__"),)


def patches(tracer: Tracer) -> tuple[list, list]:
    """(owner, attribute, wrapper) triples for every place a traced name is
    looked up, and the places that no longer exist."""
    out, missing = [], []
    for name, places, tag, value in SPANS:
        for owner, attr in places:
            if attr not in vars(owner):
                missing.append(f"{owner.__name__}.{attr}")
                continue
            out.append((owner, attr, tracer.span(name, plain(owner, attr), tag, value)))
    for name, owner, attr in COUNTERS:
        out.append((owner, attr, tracer.counter(name, plain(owner, attr))))
    return out, missing


# Per-layer metrics every workload reports: (name, unit, better).  Calls are
# counted over one traced pass of the seeded pool (one verdict for
# verify_tiny), so they repeat exactly for a seed; times are p50 over every
# traced call.
PER_LAYER = (
    ("fpformat.round.calls", "count", "lower"),
    ("fpformat.round.self_us", "us", "lower"),
    ("fpformat.round_both.calls", "count", "lower"),
    ("fpformat.round_both.self_us", "us", "lower"),
    ("fpformat.round.input_bits_p50", "bits", "lower"),
    ("fpformat.round.input_bits_p99", "bits", "lower"),
    ("fpformat.fp_objects_per_item", "count/item", "lower"),
    ("fpformat.str.calls", "count", "lower"),
    ("interval.point_point_us", "us", "lower"),
    ("interval.wide_us", "us", "lower"),
    ("interval.straddle_div_us", "us", "lower"),
    ("interval.apply_op.add_us", "us", "lower"),
    ("interval.apply_op.sub_us", "us", "lower"),
    ("interval.apply_op.mul_us", "us", "lower"),
    ("interval.apply_op.div_us", "us", "lower"),
    ("interval.hull.calls", "count", "lower"),
    ("interval.hull.self_us", "us", "lower"),
    ("interval.make.calls", "count", "lower"),
    ("interval.make.self_us", "us", "lower"),
    ("interval.negate.calls", "count", "lower"),
    ("semantics.interpret.calls", "count", "lower"),
    ("semantics.interpret.self_us", "us", "lower"),
    ("semantics.fp_interval_op.calls", "count", "lower"),
    ("semantics.fp_scalar_op.calls", "count", "lower"),
    ("harness.ieee_reference.calls", "count", "lower"),
    ("oracle.oracle_op.calls", "count", "lower"),
    ("cli.parse.calls", "count", "lower"),
    ("cli.eval_expr.calls", "count", "lower"),
    ("cli.warnings.count", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def per_layer(tr: Tracer, counted_items: int, warnings: int, overhead: float) -> tuple[dict, dict]:
    """(metrics every workload reports, workload-specific extras)."""
    def p50(series, name):
        value = tr.p50_us(series, name)
        return 0.0 if value is None else value

    bits = list(tr.values.get("fpformat.round", ())) + list(tr.values.get("fpformat.round_both", ()))
    m = {}
    for name in ("fpformat.round", "fpformat.round_both", "fpformat.str", "interval.hull",
                 "interval.make", "interval.negate", "semantics.interpret",
                 "semantics.fp_interval_op", "semantics.fp_scalar_op", "harness.ieee_reference",
                 "oracle.oracle_op", "cli.parse", "cli.eval_expr"):
        m[f"{name}.calls"] = tr.calls(name)
    for name in ("fpformat.round", "fpformat.round_both", "interval.hull", "interval.make",
                 "semantics.interpret"):
        m[f"{name}.self_us"] = p50(tr.self_ns, name)
    m["fpformat.round.input_bits_p50"] = percentile(bits, 50) if bits else 0
    m["fpformat.round.input_bits_p99"] = percentile(bits, 99) if bits else 0
    m["fpformat.fp_objects_per_item"] = tr.calls("fpformat.fp_objects") / max(counted_items, 1)
    for cls in ("point_point", "wide", "straddle_div"):
        m[f"interval.{cls}_us"] = p50(tr.incl_ns, f"interval.apply_op:{cls}")
    for op in ("add", "sub", "mul", "div"):
        m[f"interval.apply_op.{op}_us"] = p50(tr.incl_ns, f"interval.apply_op:{op}")
    m["cli.warnings.count"] = warnings
    m["trace.overhead_ratio"] = overhead

    extra = {}
    for name in ("fpformat.str", "semantics.fp_scalar_op", "harness.ieee_reference",
                 "oracle.oracle_op", "cli.parse", "cli.eval_expr", "cli.format"):
        value = tr.p50_us(tr.self_ns, name)
        if value is not None:
            extra[f"{name}.self_us"] = value
    for op in ("add", "sub", "mul", "div"):
        value = tr.p50_us(tr.incl_ns, f"semantics.fp_interval_op:{op}")
        if value is not None:
            extra[f"semantics.fp_interval_op.{op}_us"] = value
    for key, data in tr.incl_ns.items():
        if key == "harness.run_theorem_suite" or key.startswith("oracle.exhaustive_compare:"):
            extra[f"{key.replace(':', '.', 1)}.s"] = sum(data) / 1e9
    return m, extra
