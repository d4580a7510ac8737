"""Calls into the package's layers, with outcome counters and optional spans.

Every call the benchmark makes into a public function of `simplex_sections`
goes through `Recorder.call`, named `<module>.<function>`.  Counters (calls,
errors and the per-op check outcomes the workloads add) are kept in both
modes, because `failed` needs them.  Spans are kept only when tracing: each
holds its name, op id, parent span, start and end, and the time covered by
its children, so self time is duration minus child time.  Spans stay in
memory until `write_spans` is called at exit.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

_clock = time.perf_counter


class Recorder:
    def __init__(self, trace: bool):
        self.trace = trace
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.spans: list[list] = []  # [name, op_id, parent, start, end, child_s]
        self._stack: list[int] = []
        self.op_id = -1
        self.op_failures: list[str] = []  # checks missed and calls raised in this op
        self.last_raised: BaseException | None = None

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.op_failures = []

    def count(self, name: str, counter: str, amount: int = 1) -> None:
        self.counts[name, counter] += amount

    def miss(self, name: str) -> None:
        """A result checked for layer function `name` missed its tolerance."""
        self.counts[name, "miss"] += 1
        self.op_failures.append(name)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one call into layer function `name`."""
        self.counts[name, "calls"] += 1
        try:
            if not self.trace:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        except Exception as exc:
            self.counts[name, "errors"] += 1
            self.op_failures.append(f"{name}:{type(exc).__name__}")
            self.last_raised = exc
            raise

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_seconds(self, lo: int, hi: int) -> dict[str, float]:
        """Self time per span name, over spans[lo:hi]."""
        out: dict[str, float] = defaultdict(float)
        for name, _, _, start, end, child_s in self.spans[lo:hi]:
            out[name] += (end - start) - child_s
        return dict(out)

    def write_spans(self, path) -> None:
        keys = ("name", "op", "parent", "start", "end", "child_s")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


class _Span:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec: Recorder, name: str):
        self.rec = rec
        self.name = name

    def __enter__(self):
        rec = self.rec
        parent = rec._stack[-1] if rec._stack else -1
        self.index = len(rec.spans)
        rec.spans.append([self.name, rec.op_id, parent, _clock(), 0.0, 0.0])
        rec._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        rec = self.rec
        span = rec.spans[self.index]
        span[4] = _clock()
        rec._stack.pop()
        if span[2] >= 0:
            rec.spans[span[2]][5] += span[4] - span[3]
        return False
