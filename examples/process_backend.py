"""The shared-nothing process backend and its pickled exchanges.

The same workload is detected twice — once on the default serial
backend, once on a pool of worker processes (``backend="process"``) —
demonstrating that the typed-event streams are identical while the
keyed exchanges cross each worker's command pipe by pickle.  Then a distributed-shape synthetic
workload (GIL-releasing CPU kernel + per-subtask exchange stall; see
``repro.bench.process_workload``) shows what the pool actually buys:
the stalls of different subtasks overlap across workers, which is the
scaling-out effect of the paper's Fig. 14 measured on one machine.

Run:  python examples/process_backend.py
"""

from __future__ import annotations

from repro import PatternConstraints, open_session
from repro.bench.process_workload import run_process_sweep
from repro.core.config import ICPEConfig
from repro.data.taxi import TaxiConfig, generate_taxi


def make_config(dataset, **overrides) -> ICPEConfig:
    """Table-3 style parameters resolved against the dataset extent."""
    settings = dict(
        epsilon=dataset.resolve_percentage(0.08),
        cell_width=dataset.resolve_percentage(1.6),
        min_pts=3,
        constraints=PatternConstraints(m=3, k=5, l=2, g=2),
    )
    settings.update(overrides)
    return ICPEConfig(**settings)


def run_session(dataset, **overrides) -> list:
    """Full typed-event stream of one session over the dataset."""
    with open_session(make_config(dataset, **overrides)) as session:
        events = session.feed_many(dataset.records)
        events += session.finish()
    return events


def main() -> None:
    dataset = generate_taxi(TaxiConfig(n_objects=80, horizon=24, seed=7))
    print(f"workload: {len(dataset.records)} records, "
          f"{len(dataset.times)} snapshots\n")

    # Same pipeline, shared-nothing workers: every worker process
    # rebuilds its own operators from a picklable GraphSpec, and the
    # columnar envelopes cross its command pipe pickled.
    serial_events = run_session(dataset)
    process_events = run_session(
        dataset, backend="process", parallel_workers=2
    )
    patterns = sum(1 for e in serial_events if e.kind == "pattern")
    print(f"serial  : {len(serial_events)} events ({patterns} patterns)")
    print(f"process : {len(process_events)} events")
    print(f"event streams identical: {serial_events == process_events}\n")

    # What the pool buys: a workload whose per-subtask work has a
    # distributed stage's shape (CPU kernel + exchange stall).  The
    # process pool overlaps the stalls — even on a single core.
    print("distributed-shape workload, 2 stages x 8 subtasks:")
    for point in run_process_sweep(
        parallelism=8,
        batches=3,
        elements_per_batch=16,
        cpu_iterations=500,
        stall_seconds=0.01,
        process_workers=(1, 4),
    ):
        busy = sum(point.stage_busy_seconds.values())
        print(f"  {point.backend:8s} workers={point.workers}  "
              f"wall={point.wall_seconds:6.3f}s  "
              f"speedup={point.speedup_vs_serial:5.2f}x  "
              f"(subtask busy {busy:.3f}s)")
    print("\nidentical output digests across all rows "
          "(run_process_sweep verifies)")


if __name__ == "__main__":
    main()
