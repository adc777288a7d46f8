"""In-memory span tracer installed around the public functions of intervalfp.

The tracer replaces module and class attributes with wrappers for the length
of a traced pass and restores them afterwards; nothing under ``src/`` is
edited.  ``from ... import`` binds a copy of a name in the importing module,
so every name is wrapped at each place it is looked up (for example
``semantics.apply_op`` as well as ``interval.apply_op``).

Each span closes with its name, start, end, parent span and item id.  Self
time is the span's duration minus the time its child spans cover.  Per-name
calls, self and inclusive times are kept for every span; full span records
are kept for the first RECORD_LIMIT spans, checked for nesting by
``nesting_violations`` and written out at the end.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Optional


def percentile(data, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    s = sorted(data)
    return s[min(len(s) - 1, int(pct / 100.0 * len(s)))]


RECORD_LIMIT = 50_000  # full span records kept for writing out


class Tracer:
    def __init__(self):
        self.item = 0
        self.stack: list[list[int]] = []  # open spans: [id, child_ns]
        self.next_id = 1
        self.self_ns: dict[str, array] = defaultdict(lambda: array("q"))
        self.incl_ns: dict[str, array] = defaultdict(lambda: array("q"))
        self.values: dict[str, array] = defaultdict(lambda: array("q"))
        self.counts: dict[str, int] = defaultdict(int)
        self.records: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn: Callable, tag: Optional[Callable] = None,
             value: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span.  tag(args) gives the sub-series (``name:tag``)
        the call's inclusive time also joins; value(args) records one integer
        per call."""
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [self.next_id, 0]
            self.next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(name, frame, start, end, tag(args) if tag else None,
                            value(args) if value else None)

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so that only its calls are counted (no span)."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _close(self, name, frame, start, end, tag, value):
        dur = end - start
        span_id, child_ns = frame
        self.self_ns[name].append(dur - child_ns)
        self.incl_ns[name].append(dur)
        if tag is not None:
            for t in tag:
                self.incl_ns[f"{name}:{t}"].append(dur)
        self.counts[name] += 1
        if value is not None:
            self.values[name].append(value)
        parent_id = 0
        if self.stack:
            parent = self.stack[-1]
            parent_id = parent[0]
            parent[1] += dur
        if len(self.records) < RECORD_LIMIT:
            self.records.append((span_id, name, start, end, parent_id, self.item))

    # -- results --------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.counts.get(name, 0)

    def p50_us(self, series: dict, name: str) -> Optional[float]:
        data = series.get(name)
        if not data:
            return None
        return percentile(data, 50) / 1000.0

    def write(self, path) -> None:
        """Write the kept span records as JSON lines."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, item in self.records:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "item": item}))
                fh.write("\n")


def nesting_violations(records) -> tuple[int, int]:
    """(spans checked, spans that do not lie inside their parent) over span
    records (id, name, start, end, parent, item).  A span whose parent was
    not recorded is not checked."""
    spans = {r[0]: r for r in records}
    checked = bad = 0
    for _, _, start, end, parent_id, _ in records:
        parent = spans.get(parent_id)
        if parent is None:
            continue
        checked += 1
        if start < parent[2] or end > parent[3]:
            bad += 1
    return checked, bad


@contextmanager
def installed(patches):
    """Apply (owner, attribute, replacement) patches; restore on exit.

    Owners are modules or classes.  A replacement for a staticmethod is
    re-wrapped as one."""
    saved = []
    try:
        for owner, attr, replacement in patches:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if isinstance(original, staticmethod):
                replacement = staticmethod(replacement)
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def plain(owner, attr):
    """The function behind an attribute, unwrapping a staticmethod."""
    value = owner.__dict__[attr]
    return value.__func__ if isinstance(value, staticmethod) else value
