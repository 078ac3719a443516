"""Batch ingestion: columnar RecordBatch feeding vs per-point feeding.

The same synthetic workload is detected twice — once record-at-a-time
through ``session.feed`` and once through the columnar batch data plane
(``RecordBatch`` chunks into ``session.feed_batch``) — demonstrating
that the two paths emit the identical typed-event stream while the
batched path sustains a far higher ingest throughput.  Also shows the
loader-side constructors (``TrajectoryDataset.to_batch`` /
``batches``) and ``feed_many``'s auto-packing.

Run:  python examples/batch_ingestion.py
"""

from __future__ import annotations

import time

from repro import PatternConstraints, RecordBatch, open_session
from repro.core.config import ICPEConfig
from repro.data.taxi import TaxiConfig, generate_taxi


def make_config(dataset) -> ICPEConfig:
    """Table-3 style parameters resolved against the dataset extent."""
    return ICPEConfig(
        epsilon=dataset.resolve_percentage(0.06),
        cell_width=dataset.resolve_percentage(1.6),
        min_pts=5,
        constraints=PatternConstraints(m=5, k=8, l=2, g=2),
    )


def run_per_point(dataset) -> tuple[list, float]:
    """Feed every record individually (the compatibility path)."""
    with open_session(make_config(dataset)) as session:
        started = time.perf_counter()
        events = [e for record in dataset.records for e in session.feed(record)]
        events += session.finish()
        elapsed = time.perf_counter() - started
    return events, elapsed


def run_batched(dataset, batch_size: int = 1024) -> tuple[list, float]:
    """Feed the identical stream as columnar batches."""
    with open_session(make_config(dataset)) as session:
        started = time.perf_counter()
        events = []
        for batch in dataset.batches(batch_size):  # zero-copy column views
            events += session.feed_batch(batch)
        events += session.finish()
        elapsed = time.perf_counter() - started
    return events, elapsed


def main() -> None:
    dataset = generate_taxi(
        TaxiConfig(
            n_objects=240, horizon=30, seed=11,
            group_fraction=0.4, group_size=(6, 10),
        )
    )
    n = len(dataset.records)
    print(f"workload: {n} records, {len(dataset.times)} snapshots\n")

    point_events, point_s = run_per_point(dataset)
    batch_events, batch_s = run_batched(dataset)

    print(f"per-point feed : {point_s:.3f}s  ({n / point_s:,.0f} records/s)")
    print(f"batched feed   : {batch_s:.3f}s  ({n / batch_s:,.0f} records/s)")
    print(f"speedup        : {point_s / batch_s:.2f}x")
    print(f"event streams identical: {point_events == batch_events} "
          f"({len(batch_events)} events)\n")

    # feed_many auto-packs plain iterables into the session's batch size.
    with open_session(make_config(dataset), batch_size=512) as session:
        auto_events = session.feed_many(iter(dataset.records))
        auto_events += session.finish()
    print(f"feed_many auto-packing identical: {auto_events == batch_events}")

    # Batches are first-class values: slice, convert, repack.
    packed = dataset.to_batch()
    head = packed[:5]
    print(f"\nfirst {len(head)} rows of the packed workload "
          f"({packed.oids.dtype} / {packed.xs.dtype} columns):")
    for record in head.to_records():
        print(f"  oid={record.oid:<4} t={record.time:<3} "
              f"({record.x:8.1f}, {record.y:8.1f}) last={record.last_time}")
    rechunked = sum(1 for _ in RecordBatch.pack(iter(packed), 777))
    print(f"repacked into {rechunked} chunks of <= 777 records")


if __name__ == "__main__":
    main()
