"""Pickle round-trips of the columnar batch types.

The process backend ships every element across the worker boundary by
pickling it through the command pipe: ``SnapshotBatch`` sub-envelopes
cut by the keyed exchange, partition envelopes and plain elements alike.
The round trip must be semantically lossless — including the
``NO_LAST_TIME`` sentinel and the last-wins oid dedup, which happen
*before* the batch is pickled.
"""

import multiprocessing
import pickle
from multiprocessing.reduction import ForkingPickler

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
    @given(snapshot_batches(), st.data())
    def test_snapshot_batch(self, batch, data):
        """A whole batch, and the shape that crosses the pipe: a keyed
        exchange's ``select`` of some rows, in routed order."""
        clone = pickle.loads(pickle.dumps(batch))
        assert_snapshot_batches_equal(batch, clone)
        indices = data.draw(
            st.lists(st.integers(0, len(batch) - 1), unique=True)
            if len(batch)
            else st.just([])
        )
        sub = batch.select(indices)
        clone = pickle.loads(pickle.dumps(sub))
        assert_snapshot_batches_equal(sub, clone)
        assert clone.points() == [batch.points()[i] for i in indices]

    def test_last_time_sentinel_survives(self):
        batch = RecordBatch.from_columns(
            [1, 2], [0.0, 1.0], [0.0, 1.0], [5, 6], [None, 5]
        )
        clone = pickle.loads(pickle.dumps(batch))
        assert int(clone.last_times[0]) == NO_LAST_TIME
        assert clone[0].last_time is None
        assert clone[1].last_time == 5

    def test_empty_batches(self):
        record = RecordBatch.from_columns([], [], [], [])
        snapshot = SnapshotBatch.from_rows(9, [], [], [])
        assert len(pickle.loads(pickle.dumps(record))) == 0
        clone = pickle.loads(pickle.dumps(snapshot))
        assert (clone.time, len(clone)) == (9, 0)

    def test_dedup_happens_before_pickling(self):
        """Last-wins oid dedup is a construction-time invariant, so what
        crosses the pipe is already the deduped column set."""
        batch = SnapshotBatch.from_rows(
            5, [1, 2, 1], [0.0, 1.0, 9.0], [0.0, 1.0, 9.0]
        )
        assert batch.points() == [(1, 9.0, 9.0), (2, 1.0, 1.0)]
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.points() == [(1, 9.0, 9.0), (2, 1.0, 1.0)]

    def test_column_dtypes_survive(self):
        record = RecordBatch.from_columns([1], [0.5], [1.5], [3], [None])
        clone = pickle.loads(pickle.dumps(record))
        for name in ("oids", "xs", "ys", "times", "last_times"):
            assert getattr(clone, name).dtype == getattr(record, name).dtype
        snapshot = SnapshotBatch.from_rows(3, [1], [0.5], [1.5])
        clone = pickle.loads(pickle.dumps(snapshot))
        for name in ("oids", "xs", "ys"):
            assert getattr(clone, name).dtype == getattr(snapshot, name).dtype

    def test_clone_owns_its_columns(self):
        """The receiving side gets its own arrays: writing one never
        reaches the sender's batch."""
        batch = SnapshotBatch.from_rows(3, [1, 2], [0.5, 1.5], [2.5, 3.5])
        clone = pickle.loads(pickle.dumps(batch))
        clone.oids[0] = 99
        clone.xs[1] = -1.0
        assert batch.points() == [(1, 0.5, 2.5), (2, 1.5, 3.5)]


class TestPipeTransport:
    """What a worker's command pipe does to an element: pickle it with
    ``ForkingPickler`` and unpickle it on the other end."""

    def test_sub_envelope_carries_only_its_rows(self):
        """A keyed exchange's one-row ``select`` pickles to a small
        fraction of the whole envelope, so a subtask's bucket costs its
        own rows, not the snapshot's."""
        n = 2_000
        batch = SnapshotBatch.from_rows(
            1, list(range(n)), [float(i) for i in range(n)], [0.0] * n
        )
        whole = len(ForkingPickler.dumps(batch))
        one_row = len(ForkingPickler.dumps(batch.select([7])))
        assert whole > n * 24
        assert one_row < whole // 50

    def test_record_batch_slice_carries_only_its_rows(self):
        """Slices are zero-copy views; pickling one sends the view's
        rows only."""
        n = 2_000
        batch = RecordBatch.from_columns(
            list(range(n)), [0.0] * n, [0.0] * n, [1] * n
        )
        part = pickle.loads(ForkingPickler.dumps(batch[10:20]))
        assert part.to_records() == batch[10:20].to_records()
        assert len(ForkingPickler.dumps(batch[10:20])) < len(
            ForkingPickler.dumps(batch)
        ) // 50

    @settings(max_examples=30, deadline=None)
    @given(snapshot_batches())
    def test_forking_pickler_round_trip(self, batch):
        clone = pickle.loads(ForkingPickler.dumps(batch))
        assert_snapshot_batches_equal(batch, clone)

    def test_round_trip_through_a_pipe(self):
        snapshot = SnapshotBatch.from_rows(
            4, [3, 1, 2], [0.0, 1.0, 2.0], [3.0, 4.0, 5.0]
        )
        record = RecordBatch.from_columns(
            [1, 2], [0.0, 1.0], [0.0, 1.0], [5, 6], [None, 5]
        )
        sent = [
            ("plain", 1),
            snapshot,
            snapshot.select([2, 0]),
            SnapshotBatch.from_rows(4, [], [], []),
            record,
        ]
        receiver, sender = multiprocessing.Pipe(duplex=False)
        try:
            sender.send(sent)
            received = receiver.recv()
        finally:
            receiver.close()
            sender.close()
        assert received[0] == ("plain", 1)
        assert_snapshot_batches_equal(snapshot, received[1])
        assert received[2].points() == [(2, 2.0, 5.0), (3, 0.0, 3.0)]
        assert (received[3].time, len(received[3])) == (4, 0)
        assert_record_batches_equal(record, received[4])
