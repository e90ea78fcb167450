"""Spans recorded by the benchmark around its own calls into stimpairs.

A span is (id, parent, op, name, start, end, attrs).  Names are
"<layer>.<callee>", so the layer is the text before the first dot; the root
span of each op is named "bench.op".  Spans stay in memory and are written
out once, when the traced run ends.  Nothing in the library is wrapped.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_op = 0

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "op": None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        if rec["parent"] is None:
            rec["op"] = self._next_op
            self._next_op += 1
        else:
            rec["op"] = self.spans[rec["parent"]]["op"]
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec["attrs"]
        except BaseException as exc:
            rec["attrs"]["error"] = f"{type(exc).__name__}: {exc}"
            if not hasattr(exc, "bench_span"):
                exc.bench_span = name  # innermost span: the layer that raised
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path, extra: dict) -> None:
        doc = dict(extra, spans=self.spans, self_s_by_layer=layer_self_times(self.spans))
        with open(path, "w") as fh:
            json.dump(doc, fh)


class NullTracer:
    """Tracing off: every span is one shared no-op context."""

    enabled = False
    _null = nullcontext({})

    def span(self, name: str, **attrs):
        return self._null


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct children cover (children never overlap)."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"].split(".", 1)[0]] += own[s["id"]]
    return dict(out)

