"""In-memory spans for the layer replay.

Spans are recorded from the benchmark's own code, around the calls into
each layer's public functions; nothing inside ``repro`` is instrumented.
They stay in memory and are written out once, when the traced child ends.
"""

from __future__ import annotations

import time
from typing import Any, Callable


class SpanRecorder:
    """Collects ``{id, name, layer, parent, trace_id, start, end, ...}`` rows."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []

    def add(
        self,
        name: str,
        layer: str,
        parent: int | None,
        trace_id: Any,
        start: float,
        end: float | None,
    ) -> dict[str, Any]:
        """File one span row; its id is its position in :attr:`spans`."""
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": parent,
            "trace_id": trace_id,
            "start": start,
            "end": end,
        }
        self.spans.append(span)
        return span

    def open(self, name: str, layer: str, parent: int | None = None) -> int:
        """Start a span now; returns its id (close it with :meth:`close`)."""
        return self.add(name, layer, parent, None, time.perf_counter(), None)["id"]

    def close(self, span_id: int, **counts: Any) -> None:
        """End a span now and attach its counts."""
        span = self.spans[span_id]
        span["end"] = time.perf_counter()
        span.update(counts)

    def call(
        self,
        name: str,
        layer: str,
        parent: int | None,
        trace_id: Any,
        fn: Callable[..., Any],
        *args: Any,
    ) -> tuple[Any, dict[str, Any]]:
        """Time one ``fn(*args)``; returns its result and the span row.

        ``trace_id`` is the snapshot time the call worked on (or the list
        of snapshot times a batch call released) — the id spans of one
        snapshot share across layers.  The caller may add counts to the
        returned row afterwards, outside the timed interval.
        """
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        return result, self.add(name, layer, parent, trace_id, start, end)


def duration(span: dict[str, Any]) -> float:
    """Seconds between a span's start and end."""
    return span["end"] - span["start"]


def self_time(span: dict[str, Any], spans: list[dict[str, Any]]) -> float:
    """A span's duration minus the part its child spans cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once.
    """
    intervals = sorted(
        (max(child["start"], span["start"]), min(child["end"], span["end"]))
        for child in spans
        if child["parent"] == span["id"]
    )
    covered = 0.0
    cursor = span["start"]
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            covered += end - start
            cursor = end
    return duration(span) - covered


def layer_summary(
    spans: list[dict[str, Any]], layer: str, slowest: int = 5
) -> dict[str, Any]:
    """Call count, busy seconds and the slowest calls of one layer.

    The layer's root span (``parent is None``) brackets the whole replay
    loop; its self time is the harness's own bookkeeping between calls,
    reported as ``harness_s`` and never counted as the layer's work.
    """
    calls = [s for s in spans if s["layer"] == layer and s["parent"] is not None]
    roots = [s for s in spans if s["layer"] == layer and s["parent"] is None]
    ranked = sorted(calls, key=duration, reverse=True)[:slowest]
    return {
        "calls": len(calls),
        "busy_s": sum(duration(s) for s in calls),
        "harness_s": sum(self_time(root, spans) for root in roots),
        "slowest": [
            {"name": s["name"], "trace_id": s["trace_id"], "ms": duration(s) * 1e3}
            for s in ranked
        ],
    }
