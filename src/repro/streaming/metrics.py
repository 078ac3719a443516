"""Latency / throughput metrics (Section 7's performance measures).

The paper reports, per configuration, the *average response time per
snapshot* (latency, ms) and the *number of snapshots processed per second*
(throughput, tps).  :class:`LatencyThroughputMeter` collects per-snapshot
timings — either raw wall-clock (single process) or the cluster cost
model's distributed estimates — and produces those two numbers.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from statistics import mean


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Uses the same linear-interpolation-between-closest-ranks definition
    NumPy defaults to, over a plain iterable.  Returns 0.0 for an empty
    input.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100]: {q}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * (q / 100.0)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclass(frozen=True, slots=True)
class SnapshotTiming:
    """Timing of one processed snapshot."""

    time: int
    latency_seconds: float
    bottleneck_seconds: float
    locations: int = 0
    patterns_emitted: int = 0


@dataclass(slots=True)
class LatencyThroughputMeter:
    """Aggregates per-snapshot timings into the paper's two metrics."""

    timings: list[SnapshotTiming] = field(default_factory=list)

    def record(self, timing: SnapshotTiming) -> None:
        """Append one snapshot's timing."""
        self.timings.append(timing)

    @property
    def snapshots(self) -> int:
        """Number of snapshots recorded."""
        return len(self.timings)

    def average_latency_ms(self) -> float:
        """Mean per-snapshot response time in milliseconds."""
        if not self.timings:
            return 0.0
        return 1000.0 * mean(t.latency_seconds for t in self.timings)

    def percentile_latency_ms(self, q: float) -> float:
        """The ``q``-th percentile per-snapshot response time (ms)."""
        return 1000.0 * percentile(
            (t.latency_seconds for t in self.timings), q
        )

    def p50_latency_ms(self) -> float:
        """Median per-snapshot response time in milliseconds."""
        return self.percentile_latency_ms(50.0)

    def p95_latency_ms(self) -> float:
        """95th-percentile per-snapshot response time in milliseconds."""
        return self.percentile_latency_ms(95.0)

    def p99_latency_ms(self) -> float:
        """99th-percentile per-snapshot response time in milliseconds."""
        return self.percentile_latency_ms(99.0)

    def throughput_tps(self) -> float:
        """Snapshots per second sustained by the pipeline bottleneck."""
        if not self.timings:
            return 0.0
        total = sum(t.bottleneck_seconds for t in self.timings)
        if total <= 0:
            return float("inf")
        return len(self.timings) / total

    def total_patterns(self) -> int:
        """Total fresh patterns across all snapshots."""
        return sum(t.patterns_emitted for t in self.timings)

    def summary(self) -> dict[str, float]:
        """The metrics as a flat dict (for reports)."""
        return {
            "snapshots": float(self.snapshots),
            "avg_latency_ms": self.average_latency_ms(),
            "p50_latency_ms": self.p50_latency_ms(),
            "p95_latency_ms": self.p95_latency_ms(),
            "p99_latency_ms": self.p99_latency_ms(),
            "throughput_tps": self.throughput_tps(),
            "patterns": float(self.total_patterns()),
        }

    def snapshot_state(self) -> dict:
        """The timing log as plain tuples."""
        return {
            "timings": [
                (
                    t.time,
                    t.latency_seconds,
                    t.bottleneck_seconds,
                    t.locations,
                    t.patterns_emitted,
                )
                for t in self.timings
            ]
        }

    def restore_state(self, payload: dict) -> None:
        """Adopt a payload produced by :meth:`snapshot_state`."""
        self.timings = [
            SnapshotTiming(
                time=time,
                latency_seconds=latency,
                bottleneck_seconds=bottleneck,
                locations=locations,
                patterns_emitted=patterns,
            )
            for time, latency, bottleneck, locations, patterns in payload[
                "timings"
            ]
        ]

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting: size of the timing log."""
        return {"timings": len(self.timings)}
