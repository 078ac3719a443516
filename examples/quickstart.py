"""Quickstart: detect co-movement patterns on a small synthetic stream.

Three groups of objects travel together (with occasional dropouts) among
background traffic; a streaming session finds every CP(M, K, L, G)
pattern in real time, emitting typed events as snapshots complete.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import random

from repro import (
    PatternConfirmed,
    PatternConstraints,
    StreamRecord,
    open_session,
)


def make_stream(
    n_groups: int = 3,
    group_size: int = 5,
    n_background: int = 10,
    horizon: int = 20,
    seed: int = 7,
) -> list[StreamRecord]:
    """Groups moving along parallel lanes + random background walkers."""
    rng = random.Random(seed)
    records: list[StreamRecord] = []
    last_report: dict[int, int] = {}

    def emit(oid: int, x: float, y: float, t: int) -> None:
        records.append(StreamRecord(oid, x, y, t, last_report.get(oid)))
        last_report[oid] = t

    for t in range(1, horizon + 1):
        for g in range(n_groups):
            # Each group drives its own lane at its own speed.
            cx, cy = 5.0 * t * (1 + 0.1 * g), 50.0 * g
            for i in range(group_size):
                oid = g * group_size + i
                if rng.random() < 0.1:  # occasional missed report
                    continue
                emit(oid, cx + rng.uniform(-0.5, 0.5), cy + rng.uniform(-0.5, 0.5), t)
        for b in range(n_background):
            oid = 1000 + b
            emit(oid, rng.uniform(0, 150), rng.uniform(0, 150), t)
    return records


def main() -> None:
    constraints = PatternConstraints(m=3, k=6, l=2, g=2)
    print(f"Detecting CP(M={constraints.m}, K={constraints.k}, "
          f"L={constraints.l}, G={constraints.g}) patterns...\n")

    with open_session(
        epsilon=2.0,        # DBSCAN / range-join distance threshold
        cell_width=8.0,     # GR-index grid cell width (lg)
        min_pts=3,          # DBSCAN density
        constraints=constraints,
        enumerator="fba",   # "baseline", "fba" or "vba"
    ) as session:
        for record in make_stream():
            for event in session.feed(record):
                if isinstance(event, PatternConfirmed):
                    print(f"  t={event.time:>3}  new pattern {event.pattern}")
        for event in session.finish():
            if isinstance(event, PatternConfirmed):
                print(f"  flush  new pattern {event.pattern}")

    result = session.result()
    print(f"\n{len(result.patterns)} distinct patterns; "
          f"{result.snapshots} snapshots processed; "
          f"avg latency {result.avg_latency_ms:.2f} ms; "
          f"throughput {result.throughput_tps:.0f} snapshots/s; "
          f"events: {result.events}")


if __name__ == "__main__":
    main()
