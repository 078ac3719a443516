"""Pickle + shared-memory round-trips of the columnar batch types.

The process backend ships batches across worker boundaries two ways:
non-empty ``SnapshotBatch`` envelopes go through the ``to_shm`` /
``from_shm`` flat codec over a shared segment, everything else (plain
elements, partition envelopes, empty batches) rides the command pipe's
pickle path.  Both transports must be semantically lossless — including the
``NO_LAST_TIME`` sentinel and the last-wins oid dedup, which happen
*before* either codec sees the batch.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.batch import NO_LAST_TIME, RecordBatch, SnapshotBatch

oid_lists = st.lists(st.integers(0, 50), min_size=0, max_size=25)
coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def record_batches():
    return oid_lists.flatmap(
        lambda oids: st.tuples(
            st.just(oids),
            st.lists(coords, min_size=len(oids), max_size=len(oids)),
            st.lists(coords, min_size=len(oids), max_size=len(oids)),
            st.lists(
                st.integers(0, 1000), min_size=len(oids), max_size=len(oids)
            ),
            st.lists(
                st.one_of(st.none(), st.integers(0, 1000)),
                min_size=len(oids),
                max_size=len(oids),
            ),
        )
    ).map(lambda cols: RecordBatch.from_columns(*cols))


def snapshot_batches():
    return st.tuples(st.integers(0, 1000), oid_lists).flatmap(
        lambda seed: st.tuples(
            st.just(seed[0]),
            st.just(seed[1]),
            st.lists(coords, min_size=len(seed[1]), max_size=len(seed[1])),
            st.lists(coords, min_size=len(seed[1]), max_size=len(seed[1])),
        )
    ).map(lambda args: SnapshotBatch.from_rows(*args))


def assert_record_batches_equal(left: RecordBatch, right: RecordBatch):
    assert len(left) == len(right)
    assert left.to_records() == right.to_records()


def assert_snapshot_batches_equal(left: SnapshotBatch, right: SnapshotBatch):
    assert left.time == right.time
    assert left.points() == right.points()


class TestPickleRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(record_batches())
    def test_record_batch(self, batch):
        clone = pickle.loads(pickle.dumps(batch))
        assert_record_batches_equal(batch, clone)

    @settings(max_examples=60, deadline=None)
    @given(snapshot_batches())
    def test_snapshot_batch(self, batch):
        clone = pickle.loads(pickle.dumps(batch))
        assert_snapshot_batches_equal(batch, clone)

    def test_last_time_sentinel_survives(self):
        batch = RecordBatch.from_columns(
            [1, 2], [0.0, 1.0], [0.0, 1.0], [5, 6], [None, 5]
        )
        clone = pickle.loads(pickle.dumps(batch))
        assert int(clone.last_times[0]) == NO_LAST_TIME
        assert clone[0].last_time is None
        assert clone[1].last_time == 5


class TestShmRoundTrip:
    """The flat codec over a plain bytearray (buffer-protocol stand-in
    for a ``multiprocessing.shared_memory`` segment)."""

    @settings(max_examples=60, deadline=None)
    @given(record_batches())
    def test_record_batch(self, batch):
        buffer = bytearray(batch.shm_nbytes())
        meta = batch.to_shm(buffer)
        assert meta["kind"] == "record" and meta["n"] == len(batch)
        assert_record_batches_equal(batch, RecordBatch.from_shm(buffer, meta))

    @settings(max_examples=60, deadline=None)
    @given(snapshot_batches())
    def test_snapshot_batch(self, batch):
        buffer = bytearray(batch.shm_nbytes())
        meta = batch.to_shm(buffer)
        assert meta["kind"] == "snapshot" and meta["time"] == batch.time
        assert_snapshot_batches_equal(
            batch, SnapshotBatch.from_shm(buffer, meta)
        )

    def test_empty_batches(self):
        record = RecordBatch.from_columns([], [], [], [])
        snapshot = SnapshotBatch.from_rows(9, [], [], [])
        for batch, cls in ((record, RecordBatch), (snapshot, SnapshotBatch)):
            assert batch.shm_nbytes() == 0
            buffer = bytearray(8)  # non-empty buffer, zero-byte write
            clone = cls.from_shm(buffer, batch.to_shm(buffer))
            assert len(clone) == 0

    def test_offset_must_be_aligned(self):
        batch = SnapshotBatch.from_rows(1, [1], [0.0], [0.0])
        with pytest.raises(ValueError, match="8-byte aligned"):
            batch.to_shm(bytearray(batch.shm_nbytes() + 4), offset=4)

    def test_nonzero_offset(self):
        batch = SnapshotBatch.from_rows(2, [4, 5], [1.0, 2.0], [3.0, 4.0])
        buffer = bytearray(16 + batch.shm_nbytes())
        meta = batch.to_shm(buffer, offset=16)
        assert meta["offset"] == 16
        assert_snapshot_batches_equal(
            batch, SnapshotBatch.from_shm(buffer, meta)
        )

    def test_reader_views_are_read_only(self):
        batch = SnapshotBatch.from_rows(3, [1, 2], [0.5, 1.5], [2.5, 3.5])
        buffer = bytearray(batch.shm_nbytes())
        clone = SnapshotBatch.from_shm(buffer, batch.to_shm(buffer))
        with pytest.raises(ValueError, match="read-only"):
            clone.oids[0] = 99

    def test_wrong_descriptor_kind_rejected(self):
        batch = SnapshotBatch.from_rows(1, [1], [0.0], [0.0])
        buffer = bytearray(batch.shm_nbytes())
        meta = batch.to_shm(buffer)
        with pytest.raises(ValueError, match="descriptor"):
            RecordBatch.from_shm(buffer, meta)

    def test_dedup_happens_before_codec(self):
        """Last-wins oid dedup is a construction-time invariant, so what
        crosses the segment is already the deduped column set."""
        batch = SnapshotBatch.from_rows(
            5, [1, 2, 1], [0.0, 1.0, 9.0], [0.0, 1.0, 9.0]
        )
        assert batch.points() == [(1, 9.0, 9.0), (2, 1.0, 1.0)]
        buffer = bytearray(batch.shm_nbytes())
        clone = SnapshotBatch.from_shm(buffer, batch.to_shm(buffer))
        assert clone.points() == [(1, 9.0, 9.0), (2, 1.0, 1.0)]
