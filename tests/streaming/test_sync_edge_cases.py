"""TimeSyncOperator edge cases beyond the main property test."""

import pytest

from repro.model.records import StreamRecord
from repro.streaming.sync import TimeSyncOperator


class TestDuplicateDelivery:
    def test_duplicate_record_is_idempotent(self):
        """At-least-once delivery: the duplicate lands in the same snapshot
        slot (overwrite semantics)."""
        sync = TimeSyncOperator(max_delay=1)
        record = StreamRecord(1, 2.0, 3.0, time=1, last_time=None)
        duplicate = StreamRecord(1, 2.0, 3.0, time=1, last_time=None)
        sync.feed(record)
        sync.feed(duplicate)
        [snapshot] = [s.to_snapshot() for s in sync.flush()]
        assert len(snapshot) == 1
        assert snapshot.locations[1].x == 2.0

    def test_conflicting_resend_takes_latest(self):
        sync = TimeSyncOperator(max_delay=1)
        sync.feed(StreamRecord(1, 2.0, 3.0, time=1, last_time=None))
        sync.feed(StreamRecord(1, 9.0, 9.0, time=1, last_time=None))
        [snapshot] = [s.to_snapshot() for s in sync.flush()]
        assert snapshot.locations[1].x == 9.0


class TestEmissionGuard:
    def test_feeding_before_emitted_snapshot_rejected(self):
        sync = TimeSyncOperator(max_delay=0)
        sync.feed(StreamRecord(1, 0, 0, time=1, last_time=None))
        emitted = sync.feed(StreamRecord(1, 0, 0, time=5, last_time=1))
        assert [s.time for s in emitted] == [1]
        with pytest.raises(ValueError, match="after snapshot"):
            sync.feed(StreamRecord(2, 0, 0, time=1, last_time=None))

    def test_flush_then_feed_rejected_for_old_times(self):
        sync = TimeSyncOperator(max_delay=0)
        sync.feed(StreamRecord(1, 0, 0, time=3, last_time=None))
        sync.flush()
        with pytest.raises(ValueError):
            sync.feed(StreamRecord(2, 0, 0, time=2, last_time=None))


class TestSparseTrajectories:
    def test_interleaved_sparse_reporters(self):
        """Two objects reporting on disjoint time grids assemble correctly."""
        sync = TimeSyncOperator(max_delay=4)
        records = [
            StreamRecord(1, 0, 0, time=1, last_time=None),
            StreamRecord(2, 0, 0, time=2, last_time=None),
            StreamRecord(1, 0, 0, time=3, last_time=1),
            StreamRecord(2, 0, 0, time=4, last_time=2),
        ]
        emitted = []
        for record in records:
            emitted.extend(sync.feed(record))
        emitted.extend(sync.flush())
        emitted = [s.to_snapshot() for s in emitted]
        assert [(s.time, tuple(sorted(s.oids()))) for s in emitted] == [
            (1, (1,)), (2, (2,)), (3, (1,)), (4, (2,)),
        ]

    def test_single_record_stream(self):
        sync = TimeSyncOperator(max_delay=10)
        assert sync.feed(StreamRecord(5, 1, 1, time=7, last_time=None)) == []
        [snapshot] = [s.to_snapshot() for s in sync.flush()]
        assert snapshot.time == 7 and 5 in snapshot
