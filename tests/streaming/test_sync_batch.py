"""Batch-path time synchronisation: ``feed_batch`` vs per-point ``feed``.

The batch data plane's contract is that chunking a stream into
:class:`~repro.model.batch.RecordBatch` pieces — at *any* boundary,
including ones that split an out-of-order reordering window — changes
nothing about the emitted snapshot stream.  These tests drive both paths
over identical streams (randomized bounded reorderings included) and
compare the materialised snapshots one for one.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import link_last_times
from repro.model.batch import RecordBatch, SnapshotBatch
from repro.model.records import StreamRecord
from repro.streaming.shuffle import bounded_shuffle
from repro.streaming.sync import TimeSyncOperator


def make_records(report_times: dict[int, list[int]]) -> list[StreamRecord]:
    """Records from per-trajectory report-time lists, chained."""
    records = []
    for oid, times in report_times.items():
        for t in times:
            records.append(
                StreamRecord(oid=oid, x=float(t), y=float(oid), time=t)
            )
    return link_last_times(records)


def random_stream(rng: random.Random, max_delay: int) -> list[StreamRecord]:
    """A chained multi-trajectory stream under a bounded reordering."""
    report_times = {
        oid: sorted(rng.sample(range(1, 15), rng.randint(1, 10)))
        for oid in range(1, rng.randint(2, 7))
    }
    records = make_records(report_times)
    return list(bounded_shuffle(records, max_delay, rng=rng))


def point_path(records, max_delay):
    """Ground truth: per-point feeds, then flush."""
    sync = TimeSyncOperator(max_delay=max_delay)
    out = []
    for record in records:
        out.extend(sync.feed(record))
    out.extend(sync.flush())
    return [s.to_snapshot() for s in out]


def batch_path(records, max_delay, batch_size):
    """Same stream chunked into batches of ``batch_size``, then flush."""
    sync = TimeSyncOperator(max_delay=max_delay)
    out = []
    for batch in RecordBatch.pack(iter(records), batch_size):
        out.extend(sync.feed_batch(batch))
    out.extend(sync.flush())
    return [s.to_snapshot() for s in out]


class TestBatchEquivalence:
    def test_single_row_batches_equal_feed(self):
        records = make_records({1: [1, 2, 3], 2: [1, 3], 3: [2]})
        assert batch_path(records, 0, 1) == point_path(records, 0)

    def test_whole_stream_in_one_batch(self):
        records = make_records({1: [1, 2, 3, 5], 2: [2, 4, 5]})
        assert batch_path(records, 0, len(records)) == point_path(records, 0)

    def test_emits_columnar_snapshots(self):
        """``feed``, ``feed_batch`` and ``flush`` all emit columnar
        snapshots."""
        records = make_records({1: [1, 2, 3], 2: [1, 2, 3]})
        sync = TimeSyncOperator(max_delay=0)
        out = sync.feed_batch(RecordBatch.from_records(records[:4]))
        assert [s.time for s in out] == [1]
        fed = sync.feed(records[4])
        assert [s.time for s in fed] == [2]
        flushed = sync.flush()
        assert [s.time for s in flushed] == [3]
        for s in out + fed + flushed:
            assert isinstance(s, SnapshotBatch)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(0, 4),
        st.integers(1, 9),
    )
    def test_randomized_interleavings_straddling_boundaries(
        self, seed, max_delay, batch_size
    ):
        """Property: any bounded reordering, chunked at any batch size,
        yields the identical snapshot stream as per-point feeding —
        batch boundaries land inside reordering windows by design."""
        rng = random.Random(seed)
        records = random_stream(rng, max_delay)
        expected = point_path(records, max_delay)
        assert batch_path(records, max_delay, batch_size) == expected

    def test_mixed_feed_and_feed_batch(self):
        records = make_records({1: [1, 2, 3, 4], 2: [1, 2, 3, 4]})
        expected = point_path(records, 0)
        sync = TimeSyncOperator(max_delay=0)
        out = []
        for record in records[:3]:
            out.extend(sync.feed(record))
        out.extend(sync.feed_batch(RecordBatch.from_records(records[3:6])))
        for record in records[6:]:
            out.extend(sync.feed(record))
        out.extend(sync.flush())
        assert [s.to_snapshot() for s in out] == expected


class TestBatchContract:
    def test_empty_batch_is_a_no_op(self):
        sync = TimeSyncOperator(max_delay=0)
        assert sync.feed_batch(RecordBatch.from_records([])) == []

    def test_stale_batch_rejected(self):
        sync = TimeSyncOperator(max_delay=0)
        sync.feed_batch(
            RecordBatch.from_records(
                make_records({1: [1, 2], 2: [1, 2]})
            )
        )
        with pytest.raises(ValueError, match="max_delay"):
            sync.feed_batch(
                RecordBatch.from_records([StreamRecord(3, 0.0, 0.0, time=1)])
            )

    def test_same_time_re_reports_take_latest_like_feed(self):
        first = StreamRecord(1, 1.0, 1.0, time=1)
        resend = StreamRecord(1, 9.0, 9.0, time=1)
        closer = StreamRecord(2, 0.0, 0.0, time=3)
        expected = point_path([first, resend, closer], 1)
        got = batch_path([first, resend, closer], 1, 3)
        assert got == expected

    def test_blocked_chain_defers_across_batches(self):
        """A record whose predecessor rides a *later* batch keeps its
        snapshot unemitted until the chain closes."""
        r1 = StreamRecord(1, 0.0, 0.0, time=1)
        r2 = StreamRecord(1, 0.0, 0.0, time=2, last_time=1)
        r3 = StreamRecord(1, 0.0, 0.0, time=3, last_time=2)
        probe = StreamRecord(2, 0.0, 0.0, time=6)
        sync = TimeSyncOperator(max_delay=2)
        # r3 and the watermark-advancing probe first: t=3 must wait on
        # the missing r2 even though the watermark alone would pass it.
        out = sync.feed_batch(RecordBatch.from_records([r1, r3, probe]))
        assert [s.time for s in out] == [1]
        out = sync.feed_batch(RecordBatch.from_records([r2]))
        assert [s.time for s in out] == [2, 3]
