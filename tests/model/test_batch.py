"""Columnar batch types: RecordBatch and SnapshotBatch (PR 5)."""

import numpy as np
import pytest

from repro.model.batch import NO_LAST_TIME, RecordBatch, SnapshotBatch
from repro.model.records import StreamRecord
from repro.model.snapshot import Snapshot

RECORDS = [
    StreamRecord(oid=3, x=1.0, y=2.0, time=1, last_time=None),
    StreamRecord(oid=1, x=0.5, y=0.25, time=1, last_time=None),
    StreamRecord(oid=3, x=1.5, y=2.5, time=2, last_time=1),
    StreamRecord(oid=1, x=0.75, y=0.5, time=3, last_time=1),
]


class TestRecordBatchConstruction:
    def test_from_records_roundtrip(self):
        batch = RecordBatch.from_records(RECORDS)
        assert len(batch) == 4
        assert batch.to_records() == RECORDS

    def test_from_columns_with_none_last_times(self):
        batch = RecordBatch.from_columns(
            [1, 2], [0.0, 1.0], [0.0, 1.0], [5, 6], [None, 5]
        )
        assert batch[0].last_time is None
        assert batch[1].last_time == 5

    def test_from_columns_without_last_times(self):
        batch = RecordBatch.from_columns([1], [0.0], [0.0], [5])
        assert batch[0].last_time is None

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            RecordBatch([1], [0.0, 1.0], [0.0], [1], [NO_LAST_TIME])

    def test_pack_chunks_with_remainder(self):
        chunks = list(RecordBatch.pack(iter(RECORDS), 3))
        assert [len(c) for c in chunks] == [3, 1]
        assert [r for c in chunks for r in c.to_records()] == RECORDS

    def test_pack_rejects_non_positive_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            list(RecordBatch.pack(RECORDS, 0))


class TestRecordBatchViews:
    def test_slice_returns_batch(self):
        batch = RecordBatch.from_records(RECORDS)
        view = batch[1:3]
        assert isinstance(view, RecordBatch)
        assert view.to_records() == RECORDS[1:3]

    def test_slice_is_zero_copy_on_numpy_backing(self):
        batch = RecordBatch.from_records(RECORDS)
        view = batch[1:3]
        # A NumPy slice is a view over the parent buffer, not a copy.
        assert view.oids.base is batch.oids

    def test_int_index_and_iter_box_records(self):
        batch = RecordBatch.from_records(RECORDS)
        assert batch[2] == RECORDS[2]
        assert list(batch) == RECORDS

    def test_min_max_time(self):
        batch = RecordBatch.from_records(RECORDS)
        assert batch.min_time() == 1
        assert batch.max_time() == 3

    def test_min_time_of_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            RecordBatch.from_records([]).min_time()

    def test_repr_names_backing(self):
        assert "n=4" in repr(RecordBatch.from_records(RECORDS))


class TestSnapshotBatch:
    def test_points_match_snapshot_points(self):
        snapshot = Snapshot.from_points(
            7, [(3, 1.0, 2.0), (1, 0.5, 0.25)]
        )
        batch = SnapshotBatch.from_snapshot(snapshot)
        assert batch.time == 7
        assert batch.points() == snapshot.points()
        assert len(batch) == len(snapshot)

    def test_duplicate_oids_collapse_last_wins_first_position(self):
        # Mirrors dict-update semantics: oid 5 keeps its first position
        # but takes its latest coordinates.
        batch = SnapshotBatch.from_rows(
            3, [5, 9, 5], [1.0, 2.0, 7.0], [1.0, 2.0, 7.0]
        )
        assert batch.points() == [(5, 7.0, 7.0), (9, 2.0, 2.0)]

    def test_to_snapshot_roundtrip(self):
        batch = SnapshotBatch.from_rows(4, [2, 8], [1.0, 3.0], [2.0, 4.0])
        snapshot = batch.to_snapshot()
        assert snapshot.time == 4
        assert snapshot.points() == batch.points()

    def test_select_preserves_row_order(self):
        batch = SnapshotBatch.from_rows(
            1, [4, 6, 8], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]
        )
        sub = batch.select([2, 0])
        assert sub.points() == [(8, 2.0, 2.0), (4, 0.0, 0.0)]
        assert sub.time == 1

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            SnapshotBatch(1, [1, 2], [0.0], [0.0, 1.0])


RECORD_DTYPES = ("int64", "float64", "float64", "int64", "int64")


def record_columns(batch):
    return (batch.oids, batch.xs, batch.ys, batch.times, batch.last_times)


class TestColumnsAreArrays:
    """Whatever the input sequences, batches hold int64 / float64 arrays."""

    LISTS = ([3, 1], [1, 0.5], [2, 0.25], [1, 1], [NO_LAST_TIME, 7])

    def assert_record_batch(self, batch, expected):
        for column, dtype, want in zip(
            record_columns(batch), RECORD_DTYPES, record_columns(expected)
        ):
            assert isinstance(column, np.ndarray)
            assert column.dtype == np.dtype(dtype)
            assert np.array_equal(column, want)
        assert batch.to_records() == expected.to_records()

    def test_record_batch_from_lists_equals_array_built(self):
        arrays = RecordBatch(
            *(
                np.array(values, dtype=dtype)
                for values, dtype in zip(self.LISTS, RECORD_DTYPES)
            )
        )
        self.assert_record_batch(RecordBatch(*self.LISTS), arrays)
        oids, xs, ys, times, lasts = self.LISTS
        from_columns = RecordBatch.from_columns(
            oids, xs, ys, times, [None, 7]
        )
        self.assert_record_batch(from_columns, arrays)
        self.assert_record_batch(
            RecordBatch.from_columns(
                oids, xs, ys, times, [NO_LAST_TIME, 7]
            ),
            arrays,
        )

    def test_right_dtype_arrays_are_not_copied(self):
        columns = [
            np.array(values, dtype=dtype)
            for values, dtype in zip(self.LISTS, RECORD_DTYPES)
        ]
        batch = RecordBatch(*columns)
        assert all(
            got is given for got, given in zip(record_columns(batch), columns)
        )
        snapshot = SnapshotBatch(1, *columns[:3])
        assert snapshot.oids is columns[0] and snapshot.xs is columns[1]

    def test_snapshot_batch_from_lists_equals_array_built(self):
        oids, xs, ys = [5, 9, 5], [1, 2.0, 7.0], [1.0, 2, 7]
        arrays = SnapshotBatch(
            3,
            np.array(oids, dtype=np.int64),
            np.array(xs, dtype=np.float64),
            np.array(ys, dtype=np.float64),
        )
        for batch in (
            SnapshotBatch(3, oids, xs, ys),
            SnapshotBatch.from_rows(3, oids, xs, ys),
        ):
            for column, dtype, want in zip(
                (batch.oids, batch.xs, batch.ys),
                ("int64", "float64", "float64"),
                (arrays.oids, arrays.xs, arrays.ys),
            ):
                assert isinstance(column, np.ndarray)
                assert column.dtype == np.dtype(dtype)
                assert np.array_equal(column, want)
            assert batch.points() == arrays.points() == [
                (5, 7.0, 7.0),
                (9, 2.0, 2.0),
            ]
