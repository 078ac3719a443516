"""Batch-ingestion equivalence: ``feed_batch`` vs per-point ``feed``.

The acceptance contract of the columnar data plane (PR 5): chunked
ingestion must be pattern-set- and event-sequence-identical to per-point
feeding across the full backend x clustering-kernel x enumeration-kernel
2x2x2 grid, including out-of-order streams whose reordering windows
straddle batch boundaries, ``WatermarkAdvanced`` ordering, and
``feed_many`` auto-packing against per-point ``feed``.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.config import ICPEConfig
from repro.data.taxi import TaxiConfig, generate_taxi
from repro.model.batch import RecordBatch
from repro.model.constraints import PatternConstraints
from repro.session import ListSink, Session, open_session
from repro.session.events import PatternConfirmed, WatermarkAdvanced
from repro.streaming.shuffle import bounded_shuffle

CONSTRAINTS = PatternConstraints(m=3, k=5, l=2, g=2)
MAX_DELAY = 3

GRID = sorted(
    itertools.product(
        ("serial", "process"), ("python", "numpy"), ("python", "numpy")
    )
)


@pytest.fixture(scope="module")
def workload():
    """Scaled Fig. 12/13 workload, shuffled within the bounded delay so
    reordering windows straddle every batch boundary the tests pick."""
    dataset = generate_taxi(
        TaxiConfig(
            n_objects=48,
            horizon=16,
            seed=41,
            group_fraction=0.6,
            group_size=(6, 10),
        )
    )
    records = list(
        bounded_shuffle(dataset.records, MAX_DELAY, rng=random.Random(97))
    )
    return dataset, records


def _config(dataset, backend="serial", clustering="python", enum="python"):
    return ICPEConfig(
        epsilon=dataset.resolve_percentage(0.06),
        cell_width=dataset.resolve_percentage(1.6),
        min_pts=3,
        constraints=CONSTRAINTS,
        max_delay=MAX_DELAY,
        backend=backend,
        parallel_workers=2 if backend == "process" else None,
        clustering_kernel=clustering,
        enumeration_kernel=enum,
    )


def _events_per_point(config, records):
    with Session(config) as session:
        events = [e for r in records for e in session.feed(r)]
        events.extend(session.finish())
    return events, session


def _events_batched(config, records, batch_size):
    with Session(config) as session:
        events = []
        for batch in RecordBatch.pack(iter(records), batch_size):
            events.extend(session.feed_batch(batch))
        events.extend(session.finish())
    return events, session


def _signature(patterns):
    return {(p.objects, p.times.times) for p in patterns}


@pytest.mark.parametrize("backend,clustering,enum", GRID)
def test_grid_feed_batch_matches_feed_event_for_event(
    workload, backend, clustering, enum
):
    dataset, records = workload
    expected, s_point = _events_per_point(
        _config(dataset, backend, clustering, enum), records
    )
    got, s_batch = _events_batched(
        _config(dataset, backend, clustering, enum), records, batch_size=97
    )
    assert got == expected
    assert _signature(s_batch.patterns) == _signature(s_point.patterns)
    assert s_batch.patterns, "the dense workload must produce patterns"


def test_watermarks_interleave_identically(workload):
    """``WatermarkAdvanced`` events keep their position *between* the
    pattern events of their snapshot, not just their relative order."""
    dataset, records = workload
    expected, _ = _events_per_point(_config(dataset), records)
    got, _ = _events_batched(_config(dataset), records, batch_size=64)
    assert got == expected
    watermarks = [e for e in got if isinstance(e, WatermarkAdvanced)]
    assert [w.time for w in watermarks] == sorted(w.time for w in watermarks)
    # Every pattern precedes the watermark of its own snapshot time.
    last_watermark = -1
    for event in got:
        if isinstance(event, WatermarkAdvanced):
            last_watermark = event.time
        elif isinstance(event, PatternConfirmed):
            assert event.time > last_watermark


@pytest.mark.parametrize("batch_size", (1, 13, 10_000))
def test_batch_size_does_not_change_events(workload, batch_size):
    dataset, records = workload
    expected, _ = _events_per_point(_config(dataset), records)
    got, _ = _events_batched(_config(dataset), records, batch_size)
    assert got == expected


def test_feed_many_auto_packs_and_accepts_batches(workload):
    dataset, records = workload
    expected, _ = _events_per_point(_config(dataset), records)
    with Session(_config(dataset), batch_size=50) as session:
        events = session.feed_many(iter(records))
        events.extend(session.finish())
    assert events == expected
    with Session(_config(dataset)) as session:
        events = session.feed_many(RecordBatch.from_records(records))
        events.extend(session.finish())
    assert events == expected


def _confirmed(events):
    return [e.pattern for e in events if isinstance(e, PatternConfirmed)]


def test_feed_many_patterns_match_per_point_feed(workload):
    dataset, records = workload
    with open_session(_config(dataset)) as point:
        patterns_point = [p for r in records for p in _confirmed(point.feed(r))]
        patterns_point.extend(_confirmed(point.finish()))
    with open_session(_config(dataset)) as packed:
        patterns_packed = _confirmed(packed.feed_many(records))
        patterns_packed.extend(_confirmed(packed.finish()))
    assert _signature(patterns_packed) == _signature(patterns_point)
    assert len(patterns_packed) == len(patterns_point)


def test_zero_sink_sessions_still_count_events(workload):
    dataset, records = workload
    with Session(_config(dataset)) as session:
        session.feed_many(records)
        session.finish()
        counts = session.result().events
    assert counts.get("pattern", 0) > 0
    assert counts.get("watermark", 0) > 0
    # A subscribed sink sees the identical stream the counts describe.
    sink = ListSink()
    with Session(_config(dataset), sinks=[sink]) as session:
        session.feed_many(records)
        session.finish()
    assert len(sink.events) == sum(session.result().events.values())
    assert session.result().events == counts


class TestBatchSizeKnob:
    def test_open_session_plumbs_batch_size(self):
        session = open_session(
            epsilon=1.0,
            cell_width=3.0,
            min_pts=2,
            constraints=PatternConstraints(m=2, k=2, l=1, g=1),
            batch_size=9,
        )
        assert session.batch_size == 9
        session.close()

    def test_non_positive_batch_size_rejected(self):
        config = ICPEConfig(
            epsilon=1.0,
            cell_width=3.0,
            min_pts=2,
            constraints=PatternConstraints(m=2, k=2, l=1, g=1),
        )
        with pytest.raises(ValueError, match="batch_size"):
            open_session(config, batch_size=0)
        with Session(config) as session:
            # Explicit 0 is an error, not "use the default" (and not the
            # CLI's per-point convention).
            with pytest.raises(ValueError, match="batch_size"):
                session.feed_many([], batch_size=0)
        with pytest.raises(ValueError, match="batch_size"):
            Session(config, batch_size=-1)


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_columnar_snapshot_enters_the_graph_as_one_envelope(workload, backend):
    """A ``SnapshotBatch`` is one element of the first stage's unit of
    work on both backends; the object form is converted to one, in the
    same row order."""
    from unittest import mock

    import repro.core.icpe as icpe
    from repro.core.icpe import ICPEPipeline
    from repro.model.batch import SnapshotBatch
    from repro.model.snapshot import Snapshot

    units = []
    real = icpe.execute_unit

    def spy(runtimes, elements, ctx, backend):
        units.append(list(elements))
        return real(runtimes, elements, ctx, backend)

    dataset, _ = workload
    pipeline = ICPEPipeline(_config(dataset, backend))
    batch = SnapshotBatch.from_rows(1, [1, 2, 3], [0.0, 1.0, 2.0], [0.0] * 3)
    try:
        with mock.patch.object(icpe, "execute_unit", spy):
            pipeline.process_snapshot(batch)
            pipeline.process_snapshot(
                Snapshot.from_points(2, batch.points())
            )
    finally:
        pipeline.close()
    assert units[0] == [batch]
    [converted] = units[1]
    assert isinstance(converted, SnapshotBatch)
    assert (converted.time, converted.points()) == (2, batch.points())
