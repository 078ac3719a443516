"""Observability: the telemetry registry, spans and exporters, end to end.

One synthetic workload is detected with the observability subsystem
fully enabled:

* the per-session :class:`repro.SessionTelemetry` hub maintains the
  metric catalogue (record/pattern counters, per-stage span counters,
  latency histograms, watermark-lag and shed-rate gauges) in a
  :class:`repro.MetricsRegistry`;
* a JSONL time series keyed by watermark lands in ``metrics_out``
  (one full registry row every ``metrics_every`` watermarks);
* every operator invocation on the dataflow becomes a span row in
  ``trace_out`` — the identical span stream whichever execution
  backend runs the job;
* the finish-time console summary and a Prometheus text snapshot are
  printed from the same registry.

Also demonstrated: automatic periodic checkpointing with bounded
retention (``checkpoint_every_records`` + ``checkpoint_keep_last``)
riding the same session — a checkpoint every 500 records saves more
than two, and the sweep keeps only the last two on disk.

Run:  python examples/observability.py
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from repro import ObservabilityOptions, PatternConstraints, open_session
from repro.core.config import ICPEConfig
from repro.data.brinkhoff import BrinkhoffConfig, generate_brinkhoff


def make_config(dataset) -> ICPEConfig:
    """Table-3 style parameters resolved against the dataset extent."""
    return ICPEConfig(
        epsilon=dataset.resolve_percentage(0.06),
        cell_width=dataset.resolve_percentage(1.6),
        min_pts=3,
        constraints=PatternConstraints(m=3, k=4, l=2, g=2),
        checkpoint_every_records=500,
    )


def main() -> None:
    dataset = generate_brinkhoff(
        BrinkhoffConfig(n_objects=80, horizon=40, seed=11)
    )
    workdir = Path(tempfile.mkdtemp(prefix="repro-observability-"))
    metrics_path = workdir / "metrics.jsonl"
    trace_path = workdir / "trace.jsonl"

    with open_session(
        make_config(dataset),
        observability=ObservabilityOptions(
            metrics_out=metrics_path,
            metrics_every=5,
            trace_out=trace_path,
            console=True,  # summary table printed at finish()
        ),
        checkpoint_dir=workdir / "checkpoints",
        checkpoint_keep_last=2,
    ) as session:
        for batch in dataset.batches(1024):
            session.feed_batch(batch)
        session.finish()

    telemetry = session.telemetry
    registry = telemetry.registry

    print("\n--- programmatic registry access ---")
    ingested = registry.get("repro_records_ingested_total")
    print(f"records ingested : {ingested.value:.0f}")
    for stage in ("allocate", "query", "cluster", "enumerate"):
        spans = registry.get("repro_stage_spans_total", {"stage": stage})
        busy = registry.get(
            "repro_stage_busy_seconds_total", {"stage": stage}
        )
        print(
            f"stage {stage:<10}: {spans.value:5.0f} spans, "
            f"{busy.value * 1000:8.2f} ms busy"
        )
    latency = registry.get("repro_snapshot_latency_ms")
    print(
        f"snapshot latency : p50={latency.percentile(50):.2f} ms "
        f"p99={latency.percentile(99):.2f} ms over {latency.count} snapshots"
    )

    print("\n--- Prometheus text snapshot (first 12 lines) ---")
    for line in telemetry.prometheus().splitlines()[:12]:
        print(line)

    rows = [
        json.loads(line) for line in metrics_path.read_text().splitlines()
    ]
    print(f"\n--- JSONL time series: {len(rows)} rows in {metrics_path} ---")
    print(
        "final row watermark:", rows[-1]["watermark"],
        "counters:", len(rows[-1]["counters"]),
    )

    spans = trace_path.read_text().splitlines()
    print(f"trace: {len(spans)} spans in {trace_path}")
    print("first span:", spans[0])

    saved = session.auto_checkpoints
    kept = sorted(p.name for p in (workdir / "checkpoints").iterdir())
    print(f"auto-checkpoints saved: {len(saved)}, kept: {kept}")
    assert len(saved) > 2, "the cadence should save more than two"
    assert kept == sorted(p.name for p in saved[-2:]), "keep_last=2 must prune"


if __name__ == "__main__":
    main()
