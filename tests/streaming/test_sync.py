"""Time-synchronisation operator tests (Section 4's "last time" chains)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import link_last_times
from repro.model.records import StreamRecord
from repro.streaming.shuffle import bounded_shuffle
from repro.streaming.sync import TimeSyncOperator


def make_records(report_times: dict[int, list[int]]) -> list[StreamRecord]:
    """Records from per-trajectory report-time lists, chained."""
    records = []
    for oid, times in report_times.items():
        for t in times:
            records.append(StreamRecord(oid=oid, x=float(t), y=0.0, time=t))
    return link_last_times(records)


class TestInOrderStream:
    def test_snapshots_assembled(self):
        records = make_records({1: [1, 2, 3], 2: [1, 3]})
        sync = TimeSyncOperator(max_delay=0)
        emitted = []
        for record in records:
            emitted.extend(sync.feed(record))
        emitted.extend(sync.flush())
        emitted = [s.to_snapshot() for s in emitted]
        assert [s.time for s in emitted] == [1, 2, 3]
        assert sorted(emitted[0].oids()) == [1, 2]
        assert sorted(emitted[1].oids()) == [1]
        assert sorted(emitted[2].oids()) == [1, 2]

    def test_paper_wait_example(self):
        """r3 carries last_time=2: the system must wait for r2; r5 carries
        last_time=3: no r4 exists, so no waiting for time 4 (Section 4)."""
        sync = TimeSyncOperator(max_delay=2)
        r1 = StreamRecord(1, 0, 0, time=1, last_time=None)
        r2 = StreamRecord(1, 0, 0, time=2, last_time=1)
        r3 = StreamRecord(1, 0, 0, time=3, last_time=2)
        r5 = StreamRecord(1, 0, 0, time=5, last_time=3)
        # r3 before r2: nothing can be emitted for t in {2, 3} yet.
        out = sync.feed(r1)
        out += sync.feed(r3)
        assert all(s.time < 2 for s in out)
        out2 = sync.feed(r2)
        out2 += sync.feed(r5)
        emitted_times = [s.time for s in out + out2] + [
            s.time for s in sync.flush()
        ]
        # Snapshot 4 never existed; order is ascending and complete.
        assert emitted_times == [1, 2, 3, 5]


class TestOutOfOrder:
    def test_rejects_late_record_beyond_delay(self):
        sync = TimeSyncOperator(max_delay=0)
        sync.feed(StreamRecord(1, 0, 0, time=1))
        sync.feed(StreamRecord(1, 0, 0, time=2, last_time=1))
        sync.feed(StreamRecord(2, 0, 0, time=3))
        with pytest.raises(ValueError, match="max_delay"):
            sync.feed(StreamRecord(3, 0, 0, time=1))

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            TimeSyncOperator(max_delay=-1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 4))
    def test_reordered_stream_reassembled_exactly(self, seed, max_delay):
        """Property: under any bounded reordering, the emitted snapshots
        equal the ground truth and come out in ascending time order."""
        rng = random.Random(seed)
        report_times = {
            oid: sorted(
                rng.sample(range(1, 15), rng.randint(1, 10))
            )
            for oid in range(rng.randint(1, 6))
        }
        records = make_records(report_times)
        shuffled = list(
            bounded_shuffle(records, max_delay, random.Random(seed + 1))
        )
        sync = TimeSyncOperator(max_delay=max_delay)
        emitted = []
        for record in shuffled:
            emitted.extend(sync.feed(record))
        emitted.extend(sync.flush())
        emitted = [s.to_snapshot() for s in emitted]
        times = [s.time for s in emitted]
        assert times == sorted(times)
        # Ground truth: group records by time.
        expected: dict[int, set[int]] = {}
        for oid, ts in report_times.items():
            for t in ts:
                expected.setdefault(t, set()).add(oid)
        got = {s.time: set(s.oids()) for s in emitted}
        assert got == expected


class TestFlush:
    def test_flush_emits_pending(self):
        sync = TimeSyncOperator(max_delay=5)
        sync.feed(StreamRecord(1, 0, 0, time=1))
        assert sync.flush()[0].time == 1

    def test_flush_idempotent_after_empty(self):
        sync = TimeSyncOperator()
        assert sync.flush() == []
