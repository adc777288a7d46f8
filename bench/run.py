"""Benchmark of intervalfp: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload b64_ops --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``;
bytecode and span files go to ``.bench_build/``, so ``src/`` is left
untouched.  With ``--trace 0`` the run measures the end-to-end metrics with
tracing off; with ``--trace 1`` it runs the same inputs untraced and then
traced, and reports the per-layer metrics.  Human-readable detail (the
environment, the per-workload metrics, the operand mix, the result digest,
failing items) comes first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

# End-to-end metrics every workload reports: (name, unit).
END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("peak_rss_mb", "MB"))

SETUP_SPAWNS = 7
# What a fresh `intervalfp` process does before its first result on the
# workload's format.
SETUP_CODE = {
    "b64_ops": (
        "from intervalfp import BINARY64, Fp, OpKind, ZeroMode, fp_interval_op,"
        " native_rounding_available\n"
        "native_rounding_available()\n"
        "fp_interval_op(Fp.from_float(BINARY64, 0.1), Fp.from_float(BINARY64, 3.0),"
        " OpKind.DIV, ZeroMode.FINITE)\n"
    ),
    "expr_eval": (
        "from intervalfp import BINARY64, ZeroMode, cli, native_rounding_available\n"
        "native_rounding_available()\n"
        "str(cli.eval_expr(cli.parse('0.1 + 0.2'), BINARY64, ZeroMode.FINITE,"
        " warn=lambda m: None))\n"
    ),
    "verify_tiny": (
        "from intervalfp import OpKind, ZeroMode, fp_interval_op, native_rounding_available,"
        " parse_format\n"
        "native_rounding_available()\n"
        "f = parse_format('p4e-3:3')\n"
        "fp_interval_op(f.max_finite(), f.min_pos(), OpKind.DIV, ZeroMode.FINITE)\n"
    ),
}


def setup_seconds(workload: str, spawns: int) -> float:
    """Median wall time of fresh interpreters doing the workload's first
    call.  One unmeasured spawn first fills the bytecode cache, as an
    installed package would have it."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(BUILD / "pycache"))
    cmd = [sys.executable, "-c", SETUP_CODE[workload]]
    # No timeout: with one, subprocess polls for the exit in steps of up
    # to 50 ms, which would quantise the measurement.
    subprocess.run(cmd, env=env, check=True)
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return median(times)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_trace(tracer, missing: list) -> list:
    """Problems with a traced pass: traced names that no longer exist, and
    recorded spans that do not lie inside their parent span."""
    from tracer import nesting_violations

    problems = [f"traced name no longer exists: {m}" for m in missing]
    checked, bad = nesting_violations(tracer.records)
    if bad:
        problems.append(f"{bad} of {checked} checked spans lie outside their parent span")
    return problems


def stream_end_to_end(wl, seed, seconds, spawns):
    from tracer import percentile
    from workloads import run_stream

    setup = setup_seconds(wl.name, spawns)
    run = run_stream(wl, seed, seconds)
    rss = peak_rss_mb()  # before the percentile sorts below allocate
    rate = median(run.chunk_rates)
    u = wl.latency_name
    report = {
        wl.rate_name: rate,
        f"{u}_p50_us": percentile(run.latency_ns, 50) / 1000.0,
        f"{u}_p99_us": percentile(run.latency_ns, 99) / 1000.0,
        "latency_samples": len(run.latency_ns),
        "setup_s": setup,
        "peak_rss_mb": rss,
        "error_rate": run.failed / run.items,
        "timed_loop_s": run.loop_ns / 1e9,
        "passes": run.passes,
        "warnings": run.warnings,
        "digest": run.digest,
        "digest_items": wl.pool,
        **run.mix.shares(),
    }
    metrics = {"setup_s": setup, "items_per_s": rate, "peak_rss_mb": rss}
    return report, metrics, run.items, run.failed, run.failures


def stream_traced(wl, seed, seconds):
    import layers
    from tracer import Tracer
    from workloads import B64Ops, native_probe, recover_bounds_probe, run_stream

    untraced = run_stream(wl, seed, seconds, gate=False)
    tracer = Tracer()
    patch_list, missing = layers.patches(tracer)
    traced = run_stream(wl, seed, passes=1, tracer=tracer, patches=patch_list)
    problems = check_trace(tracer, missing)
    if traced.digest != untraced.digest:
        problems.append("traced results differ from untraced results")
    overhead = median(untraced.chunk_rates) / median(traced.chunk_rates)
    metrics, extra = layers.per_layer(tracer, wl.pool, traced.pool_warnings, overhead)
    if isinstance(wl, B64Ops):
        items = wl.items(seed)[:2000]
        extra["harness.ieee_reference_native.us"], extra["native_probe_calls"] = native_probe(items)
        p50, n, probe_failures = recover_bounds_probe(items)
        extra["roundflag.recover_bounds.us"], extra["recover_bounds_probe_calls"] = p50, n
        problems += probe_failures
    BUILD.mkdir(exist_ok=True)
    tracer.write(BUILD / f"spans-{wl.name}.jsonl")
    report = {"trace.missing_names": missing, "traced_items": traced.items,
              "digest": traced.digest, **extra, **traced.mix.shares()}
    return report, metrics, traced.items, traced.failed + len(problems), traced.failures + problems


def verify_end_to_end(wl, seconds, spawns):
    setup = setup_seconds(wl.name, spawns)
    verdicts = [wl.verdict()]
    while sum(v["total_ns"] for v in verdicts) < seconds * 1e9:
        verdicts.append(wl.verdict())
    verify_s = median(v["total_ns"] for v in verdicts) / 1e9
    failures = [f for v in verdicts for f in v["failures"]]
    attempted = wl.comparisons() * len(verdicts)
    report = {
        "verify_s": verify_s,
        "verdicts": len(verdicts),
        "comparisons_per_verdict": wl.comparisons(),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb(),
        "error_rate": len(failures) / attempted,
        "phases_s": {name: ns / 1e9 for name, ns in verdicts[0]["phases"]},
        "digest": verdicts[0]["digest"],
        "digests_agree": len({v["digest"] for v in verdicts}) == 1,
        **wl.mix().shares(),
    }
    if not report["digests_agree"]:
        failures.append("verdicts differ between repetitions")
    metrics = {"setup_s": setup, "items_per_s": wl.comparisons() / verify_s,
               "peak_rss_mb": report["peak_rss_mb"]}
    return report, metrics, attempted, len(failures), failures


def verify_traced(wl):
    import layers
    from tracer import Tracer, installed

    untraced = wl.verdict()
    tracer = Tracer()
    patch_list, missing = layers.patches(tracer)
    with installed(patch_list):
        traced = wl.verdict()
    failures = untraced["failures"] + traced["failures"] + check_trace(tracer, missing)
    if traced["digest"] != untraced["digest"]:
        failures.append("traced verdict differs from untraced verdict")
    if tracer.calls("oracle.oracle_op") != wl.oracle_calls():
        failures.append(f"oracle_op ran {tracer.calls('oracle.oracle_op')} times, "
                        f"expected {wl.oracle_calls()}")
    overhead = traced["total_ns"] / untraced["total_ns"]
    metrics, extra = layers.per_layer(tracer, wl.comparisons(), 0, overhead)
    BUILD.mkdir(exist_ok=True)
    tracer.write(BUILD / f"spans-{wl.name}.jsonl")
    report = {"trace.missing_names": missing, "digest": traced["digest"], **extra}
    return report, metrics, wl.comparisons(), len(failures), failures


def known_defects() -> dict:
    """Hostile literals the workloads leave out, evaluated once, untimed."""
    from intervalfp import BINARY64, ZeroMode, cli

    out = {}
    for text in ("1e5000",):
        try:
            out[text] = str(cli.eval_expr(cli.parse(text), BINARY64, ZeroMode.FINITE,
                                          warn=lambda m: None))
        except ValueError as exc:
            out[text] = f"raises {type(exc).__name__}: {str(exc)[:80]}"
    return out


def run(wl, seed: int, seconds: float, trace: bool, spawns: int = SETUP_SPAWNS):
    """Run one workload; returns (detail, result), where result is the
    object the last line of output holds."""
    from intervalfp import harness
    import layers

    env = {"python": platform.python_version(),
           "native_rounding_available": harness.native_rounding_available(),
           "nproc": os.cpu_count(), "seed": seed, "seconds": seconds,
           "trace": int(trace), "src_lines": src_lines()}
    if wl.name == "verify_tiny":
        out = verify_traced(wl) if trace else verify_end_to_end(wl, seconds, spawns)
    elif trace:
        out = stream_traced(wl, seed, seconds)
    else:
        out = stream_end_to_end(wl, seed, seconds, spawns)
    report, values, attempted, failed, failures = out
    if wl.name == "expr_eval":
        report["known_defects"] = known_defects()
    units = {n: u for n, u, _ in layers.PER_LAYER} if trace else dict(END_TO_END)
    detail = {"workload": wl.name, "env": env, "report": report, "failures": failures[:20]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("b64_ops", "expr_eval", "verify_tiny"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "intervalfp" / "__init__.py").is_file():
        print(f"error: no intervalfp sources under {SRC}", file=sys.stderr)
        return 2
    BUILD.mkdir(exist_ok=True)
    sys.pycache_prefix = str(BUILD / "pycache")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    detail, result = run(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
