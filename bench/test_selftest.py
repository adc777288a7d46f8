"""Self-test of the benchmark at tiny size.

Each workload must emit every named metric with its unit, traced and
untraced, and the correctness gates must flag an injected wrong result.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from intervalfp import cli, oracle, semantics  # noqa: E402
from intervalfp.interval import ExtInterval  # noqa: E402
from tracer import nesting_violations  # noqa: E402
from workloads import B64Ops, ExprEval, VerifyTiny, run_stream  # noqa: E402


def tiny(name):
    return {
        "b64_ops": lambda: B64Ops(chunk=30, pool=100),
        "expr_eval": lambda: ExprEval(chunk=10, pool=20),
        "verify_tiny": lambda: VerifyTiny(compare=("p2e0:0ns",), theorem="p2e0:0ns"),
    }[name]()


def widened(fn):
    """Stand-in that widens the upper bound of every finite result by an ulp."""
    def wrong(*args):
        r = fn(*args)
        if r.is_empty or r.hi.is_inf:
            return r
        return ExtInterval.make(r.lo, r.hi.next_up())
    return wrong


@pytest.mark.parametrize("name", ["b64_ops", "expr_eval", "verify_tiny"])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_with_its_unit(name, trace):
    detail, result = run.run(tiny(name), seed=7, seconds=0, trace=trace, spawns=1)
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = ({n: u for n, u, _ in layers.PER_LAYER} if trace else dict(run.END_TO_END))
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert detail["report"].get("trace.missing_names", []) == []
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    json.dumps(detail)


def test_same_seed_same_digest_and_mix():
    a, _ = run.run(tiny("b64_ops"), seed=3, seconds=0, trace=False, spawns=1)
    b, _ = run.run(tiny("b64_ops"), seed=3, seconds=0, trace=False, spawns=1)
    keys = [k for k in a["report"] if k == "digest" or k.startswith("mix.")]
    assert keys and all(a["report"][k] == b["report"][k] for k in keys)


@pytest.mark.parametrize("name, owner, attr", [
    ("b64_ops", semantics, "fp_interval_op"),
    ("expr_eval", cli, "apply_op"),
    ("verify_tiny", oracle, "fp_interval_op"),
])
def test_gate_flags_a_widened_bound(monkeypatch, name, owner, attr):
    monkeypatch.setattr(owner, attr, widened(getattr(owner, attr)))
    detail, result = run.run(tiny(name), seed=7, seconds=0, trace=False, spawns=1)
    assert not result["correct"]
    assert result["failed"] > 0
    assert detail["failures"]


def test_later_pass_must_repeat_the_first(monkeypatch):
    wl = tiny("b64_ops")
    calls = [0]
    honest = semantics.fp_interval_op
    wrong_later = widened(honest)

    def drifting(*args):
        calls[0] += 1
        return (honest if calls[0] <= wl.pool else wrong_later)(*args)

    monkeypatch.setattr(semantics, "fp_interval_op", drifting)
    out = run_stream(wl, seed=7, passes=3)
    assert out.passes == 3 and out.items == 3 * wl.pool
    assert len(out.latency_ns) == wl.pool
    assert out.failed > 0 and "pass 2" in out.failures[0]


def test_nesting_check_flags_a_span_outside_its_parent():
    good = [(2, "child", 15, 20, 1, 0), (1, "parent", 10, 30, 0, 0)]
    assert nesting_violations(good) == (1, 0)
    bad = [(2, "child", 15, 35, 1, 0), (1, "parent", 10, 30, 0, 0)]
    assert nesting_violations(bad) == (1, 1)
