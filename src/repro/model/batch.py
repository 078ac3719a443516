"""Columnar record batches: the batch-ingestion data plane.

The streaming surface of PRs 1-4 moved GPS fixes one
:class:`~repro.model.records.StreamRecord` at a time — every record a
boxed dataclass walked through ``Session.feed()``, the synchronisation
operator and the keyed exchanges, so Python object churn dominated
end-to-end ingest cost once the clustering and enumeration kernels were
vectorized.  This module holds the columnar types that replace that
record-at-a-time plane:

* :class:`RecordBatch` — a batch of ``(oid, x, y, time, last_time)``
  *columns* (int64 / float64 NumPy arrays) with zero-copy slicing,
  ``from_records`` / ``to_records`` converters, CSV-row and dataset
  constructors, and ``pack()`` chunking for auto-batching iterables.
* :class:`SnapshotBatch` — one complete snapshot in columnar form
  (``(oid, x, y)`` at a single time), the envelope the synchronisation
  operator emits on the batch path and the keyed exchanges route whole
  (one envelope per destination partition per batch).  It quacks like
  :class:`~repro.model.snapshot.Snapshot` where the pipeline needs it
  (``time``, ``len``, ``points()``) and hands its columns directly to
  the vectorized clustering kernel, so the hot path never materialises
  per-point objects.
* :class:`PartitionBatch` — one snapshot's id-based partitions (Lemma 3)
  as sorted anchors plus sorted packed ``anchor << 32 | oid`` keys, the
  envelope the kernel clustering stage emits and the numpy enumeration
  kernel consumes, so no Python set is built per anchor.  Partition
  envelopes exist only on the numpy kernels' path.

The record and snapshot types also carry a flat *shared-memory codec*
(``shm_nbytes`` / ``to_shm`` / ``from_shm``): the columns of a batch are
written contiguously into any writable buffer — a
``multiprocessing.shared_memory`` segment in production, a plain
``bytearray`` in tests — and reconstructed on the reader side as
zero-copy NumPy views over that buffer.  This is the transport the
``process`` execution backend uses to ship keyed-exchange envelopes
between worker processes without pickling the column data.
"""

from __future__ import annotations

from math import isfinite
from typing import Iterable, Iterator, Sequence

import numpy as _np

from repro.model.records import Location, StreamRecord
from repro.model.snapshot import Snapshot

#: Sentinel encoding ``last_time is None`` in the int64 ``last_times``
#: column.  int64-min cannot collide with any discretized time a stream
#: produces.
NO_LAST_TIME = -(2**63)


def _non_finite_error(record: StreamRecord) -> ValueError:
    """The refusal of a record with a NaN or infinite coordinate."""
    return ValueError(
        f"non-finite coordinate in record (oid={record.oid}, "
        f"time={record.time}): x={float(record.x)!r}, y={float(record.y)!r}; "
        "every x and y must be a finite number"
    )


def require_finite_record(record: StreamRecord) -> None:
    """Refuse one record holding a NaN or infinite coordinate.

    The per-point twin of :meth:`RecordBatch.require_finite`, with the
    same error.
    """
    if not (isfinite(record.x) and isfinite(record.y)):
        raise _non_finite_error(record)


def _write_shm_columns(buffer, offset: int, columns) -> int:
    """Copy int64/float64 columns contiguously into a writable buffer.

    Returns the offset one past the last byte written.  All batch
    columns are 8-byte dtypes, so keeping ``offset`` 8-aligned keeps
    every column naturally aligned.
    """
    if offset % 8:
        raise ValueError(f"shm offset must be 8-byte aligned, got {offset}")
    for column in columns:
        view = _np.frombuffer(
            buffer, dtype=column.dtype, count=len(column), offset=offset
        )
        view[:] = column
        offset += column.nbytes
    return offset


def _read_shm_columns(buffer, offset: int, dtypes, count: int):
    """Zero-copy read of ``count``-row columns written by the writer above.

    The views alias the buffer (nothing is copied) and are marked
    read-only — batches are immutable by contract, and a reader must
    never scribble on a shared segment another process owns.
    """
    views = []
    for dtype in dtypes:
        view = _np.frombuffer(buffer, dtype=dtype, count=count, offset=offset)
        view.flags.writeable = False
        views.append(view)
        offset += view.nbytes
    return views


class RecordBatch:
    """A columnar batch of stream records: five parallel columns.

    Columns are ``oids`` (int64), ``xs`` / ``ys`` (float64), ``times``
    (int64) and ``last_times`` (int64, with :data:`NO_LAST_TIME` standing
    in for ``None``), and slicing returns zero-copy views.  Batches are
    treated as immutable by every consumer.

    Build one with :meth:`from_records`, :meth:`from_columns`,
    :meth:`from_csv_rows` or the ``repro.data`` loaders
    (:meth:`~repro.data.dataset.TrajectoryDataset.to_batch`).
    """

    __slots__ = ("oids", "xs", "ys", "times", "last_times")

    def __init__(self, oids, xs, ys, times, last_times):
        """Wrap five equal-length columns as int64 / float64 arrays.

        ``np.asarray`` does not copy a column that already is an array
        of its dtype; any other sequence is converted once.
        """
        n = len(oids)
        if not (len(xs) == len(ys) == len(times) == len(last_times) == n):
            raise ValueError(
                "RecordBatch columns must have equal lengths, got "
                f"{(len(oids), len(xs), len(ys), len(times), len(last_times))}"
            )
        self.oids = _np.asarray(oids, dtype=_np.int64)
        self.xs = _np.asarray(xs, dtype=_np.float64)
        self.ys = _np.asarray(ys, dtype=_np.float64)
        self.times = _np.asarray(times, dtype=_np.int64)
        self.last_times = _np.asarray(last_times, dtype=_np.int64)

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_columns(
        cls,
        oids: Sequence[int],
        xs: Sequence[float],
        ys: Sequence[float],
        times: Sequence[int],
        last_times: Sequence[int | None] | None = None,
    ) -> "RecordBatch":
        """Build from column sequences (``last_times`` entries may be
        ``None``; a missing column means "no record has a predecessor")."""
        if last_times is None:
            lasts = _np.full(len(oids), NO_LAST_TIME, dtype=_np.int64)
        else:
            lasts = [
                NO_LAST_TIME if value is None else int(value)
                for value in last_times
            ]
        return cls(oids, xs, ys, times, lasts)

    @classmethod
    def from_records(
        cls, records: Iterable[StreamRecord]
    ) -> "RecordBatch":
        """Pack an iterable of :class:`StreamRecord` into one batch."""
        oids: list[int] = []
        xs: list[float] = []
        ys: list[float] = []
        times: list[int] = []
        lasts: list[int] = []
        for r in records:
            oids.append(r.oid)
            xs.append(r.x)
            ys.append(r.y)
            times.append(r.time)
            lasts.append(NO_LAST_TIME if r.last_time is None else r.last_time)
        return cls(oids, xs, ys, times, lasts)

    @classmethod
    def from_csv_rows(
        cls, rows: Iterable[Sequence[str]]
    ) -> "RecordBatch":
        """Build from CSV value rows ``(oid, x, y, time, last_time)``.

        The shape :meth:`~repro.data.dataset.TrajectoryDataset.save_csv`
        writes: ``last_time`` is the empty string (or missing) for a
        trajectory's first report.
        """
        oids: list[int] = []
        xs: list[float] = []
        ys: list[float] = []
        times: list[int] = []
        lasts: list[int | None] = []
        for row in rows:
            oids.append(int(row[0]))
            xs.append(float(row[1]))
            ys.append(float(row[2]))
            times.append(int(row[3]))
            raw_last = row[4] if len(row) > 4 else ""
            lasts.append(int(raw_last) if raw_last not in ("", None) else None)
        return cls.from_columns(oids, xs, ys, times, lasts)

    @classmethod
    def pack(
        cls, records: Iterable[StreamRecord], batch_size: int
    ) -> Iterator["RecordBatch"]:
        """Chunk an iterable of records into batches of ``batch_size``.

        The auto-batching primitive behind ``Session.feed_many``: the
        final batch holds the remainder and may be shorter.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        chunk: list[StreamRecord] = []
        for record in records:
            chunk.append(record)
            if len(chunk) >= batch_size:
                yield cls.from_records(chunk)
                chunk = []
        if chunk:
            yield cls.from_records(chunk)

    # -------------------------------------------------------------- converters

    def to_records(self) -> list[StreamRecord]:
        """Materialise the batch back into :class:`StreamRecord` objects."""
        return [self.record_at(i) for i in range(len(self))]

    def record_at(self, index: int) -> StreamRecord:
        """The record at one row index, boxed."""
        last = int(self.last_times[index])
        return StreamRecord(
            oid=int(self.oids[index]),
            x=float(self.xs[index]),
            y=float(self.ys[index]),
            time=int(self.times[index]),
            last_time=None if last == NO_LAST_TIME else last,
        )

    # ------------------------------------------------------------------ views

    def __len__(self) -> int:
        return len(self.oids)

    def __getitem__(self, index):
        """Row access: an ``int`` boxes one record, a ``slice`` returns a
        batch over zero-copy column views."""
        if isinstance(index, slice):
            return RecordBatch(
                self.oids[index],
                self.xs[index],
                self.ys[index],
                self.times[index],
                self.last_times[index],
            )
        return self.record_at(int(index))

    def __iter__(self) -> Iterator[StreamRecord]:
        """Iterate boxed records (a convenience, not the hot path)."""
        for i in range(len(self)):
            yield self.record_at(i)

    def __repr__(self) -> str:
        return f"RecordBatch(n={len(self)})"

    def min_time(self) -> int:
        """Smallest record time in the batch (batch must be non-empty)."""
        if not len(self):
            raise ValueError("min_time() of an empty batch")
        return int(self.times.min())

    def max_time(self) -> int:
        """Largest record time in the batch (batch must be non-empty)."""
        if not len(self):
            raise ValueError("max_time() of an empty batch")
        return int(self.times.max())

    def require_finite(self) -> None:
        """Refuse a batch holding a NaN or infinite coordinate.

        One vectorised check; the error names the first offending
        record's ``(oid, time)``.
        """
        bad = ~(_np.isfinite(self.xs) & _np.isfinite(self.ys))
        if bad.any():
            raise _non_finite_error(self.record_at(int(bad.argmax())))

    # ------------------------------------------------------ shared-memory codec

    #: Column dtypes in shm layout order (five 8-byte columns per row).
    _SHM_DTYPES = ("int64", "float64", "float64", "int64", "int64")

    def shm_nbytes(self) -> int:
        """Bytes :meth:`to_shm` writes: five 8-byte columns per row."""
        return 8 * len(self._SHM_DTYPES) * len(self)

    def to_shm(self, buffer, offset: int = 0) -> dict:
        """Write the columns contiguously into a writable buffer.

        Returns the layout descriptor :meth:`from_shm` needs (row count
        and offset).  The buffer is anything exposing the writable
        buffer protocol — a ``multiprocessing.shared_memory`` segment's
        ``buf`` in production, a ``bytearray`` in tests — and must hold
        at least ``offset + shm_nbytes()`` bytes.
        """
        _write_shm_columns(
            buffer,
            offset,
            (self.oids, self.xs, self.ys, self.times, self.last_times),
        )
        return {"kind": "record", "n": len(self), "offset": offset}

    @classmethod
    def from_shm(cls, buffer, meta: dict) -> "RecordBatch":
        """Rebuild a batch over a buffer written by :meth:`to_shm`.

        The columns are zero-copy read-only NumPy views aliasing the
        buffer — the reader must keep the underlying segment mapped for
        as long as the batch (or anything derived from its columns by
        reference) is alive.
        """
        if meta.get("kind") != "record":
            raise ValueError(f"not a RecordBatch shm descriptor: {meta!r}")
        columns = _read_shm_columns(
            buffer,
            int(meta["offset"]),
            [_np.dtype(name) for name in cls._SHM_DTYPES],
            int(meta["n"]),
        )
        return cls(*columns)


def _dedup_last_wins(oids, xs, ys):
    """Collapse duplicate oids: first-occurrence order, last-wins values.

    Reproduces dict-update semantics of :class:`Snapshot.locations`
    (``d[oid] = loc`` keeps the original position, takes the new value),
    so the columnar snapshot is indistinguishable from the object one.
    One plain sort decides whether any oid repeats; only then does a
    stable argsort find the first-occurrence positions and the
    last-occurrence values.
    """
    ranked = _np.sort(oids)
    repeats = ranked[1:] == ranked[:-1]
    if not repeats.any():
        return oids, xs, ys
    order = _np.argsort(oids, kind="stable")
    first = order[_np.concatenate(([True], ~repeats))]
    last = order[_np.concatenate((~repeats, [True]))]
    keep = last[_np.argsort(first)]
    return oids[keep], xs[keep], ys[keep]


class SnapshotBatch:
    """One complete snapshot as ``(oid, x, y)`` columns at a fixed time.

    The columnar counterpart of :class:`~repro.model.snapshot.Snapshot`:
    the synchronisation operator emits these on the batch path, the
    keyed exchanges split them into one sub-batch per destination
    subtask, and the vectorized clustering kernel consumes the columns
    directly.  Oids are distinct (duplicates collapse last-wins at
    construction, matching ``Snapshot``'s dict semantics), so ``len``
    agrees with the object form.
    """

    __slots__ = ("time", "oids", "xs", "ys")

    def __init__(self, time: int, oids, xs, ys, *, _deduped: bool = False):
        """Wrap columns at ``time`` as int64 / float64 arrays (not copied
        when they already are); collapses duplicate oids unless the
        caller guarantees distinctness (internal ``_deduped`` fast path).
        """
        if not (len(oids) == len(xs) == len(ys)):
            raise ValueError(
                "SnapshotBatch columns must have equal lengths, got "
                f"{(len(oids), len(xs), len(ys))}"
            )
        oids = _np.asarray(oids, dtype=_np.int64)
        xs = _np.asarray(xs, dtype=_np.float64)
        ys = _np.asarray(ys, dtype=_np.float64)
        if not _deduped:
            oids, xs, ys = _dedup_last_wins(oids, xs, ys)
        self.time = int(time)
        self.oids = oids
        self.xs = xs
        self.ys = ys

    @classmethod
    def from_rows(
        cls,
        time: int,
        oids: Sequence[int],
        xs: Sequence[float],
        ys: Sequence[float],
    ) -> "SnapshotBatch":
        """Build from row-ordered columns (duplicate oids collapse
        last-wins, preserving first-occurrence order)."""
        return cls(time, oids, xs, ys)

    @classmethod
    def from_snapshot(cls, snapshot: Snapshot) -> "SnapshotBatch":
        """Columnar view of an object snapshot (oids already distinct)."""
        oids = list(snapshot.locations)
        xs = [snapshot.locations[oid].x for oid in oids]
        ys = [snapshot.locations[oid].y for oid in oids]
        return cls(snapshot.time, oids, xs, ys, _deduped=True)

    def __len__(self) -> int:
        return len(self.oids)

    def __repr__(self) -> str:
        return f"SnapshotBatch(time={self.time}, n={len(self)})"

    def rows(self) -> Iterator[tuple[int, float, float]]:
        """Iterate ``(oid, x, y)`` row tuples (the range-join element
        shape) — the generic unrolling path for row-oriented operators."""
        return zip(self.oids.tolist(), self.xs.tolist(), self.ys.tolist())

    #: The rows as the keyed exchange routes them: all of them.
    route_rows = rows

    def points(self) -> list[tuple[int, float, float]]:
        """``(oid, x, y)`` triples, exactly :meth:`Snapshot.points`."""
        return list(self.rows())

    def select(self, indices: Sequence[int]) -> "SnapshotBatch":
        """Sub-batch of the given row indices (keyed-exchange splitting).

        Row order follows ``indices``; oids stay distinct, so the dedup
        pass is skipped.
        """
        idx = _np.asarray(indices, dtype=_np.int64)
        return SnapshotBatch(
            self.time, self.oids[idx], self.xs[idx], self.ys[idx], _deduped=True
        )

    # ------------------------------------------------------ shared-memory codec

    #: Column dtypes in shm layout order (three 8-byte columns per row).
    _SHM_DTYPES = ("int64", "float64", "float64")

    def shm_nbytes(self) -> int:
        """Bytes :meth:`to_shm` writes: three 8-byte columns per row."""
        return 8 * len(self._SHM_DTYPES) * len(self)

    def to_shm(self, buffer, offset: int = 0) -> dict:
        """Write ``(oids, xs, ys)`` contiguously into a writable buffer.

        Returns the layout descriptor :meth:`from_shm` needs (snapshot
        time, row count, offset) — the small picklable token the process
        backend ships through its command pipe while the column data
        crosses via the shared segment.
        """
        _write_shm_columns(buffer, offset, (self.oids, self.xs, self.ys))
        return {
            "kind": "snapshot",
            "time": self.time,
            "n": len(self),
            "offset": offset,
        }

    @classmethod
    def from_shm(cls, buffer, meta: dict) -> "SnapshotBatch":
        """Rebuild a snapshot batch over a buffer written by :meth:`to_shm`.

        Zero-copy: the columns are read-only NumPy views aliasing the
        buffer, so the reader must keep the segment mapped while the
        batch is alive.  Oids were distinct when the writer serialized
        the batch, so the dedup pass is skipped.
        """
        if meta.get("kind") != "snapshot":
            raise ValueError(f"not a SnapshotBatch shm descriptor: {meta!r}")
        columns = _read_shm_columns(
            buffer,
            int(meta["offset"]),
            [_np.dtype(name) for name in cls._SHM_DTYPES],
            int(meta["n"]),
        )
        return cls(int(meta["time"]), *columns, _deduped=True)

    def to_snapshot(self) -> Snapshot:
        """Materialise the object form (tests, object-path interop)."""
        snapshot = Snapshot(self.time)
        for oid, x, y in self.rows():
            snapshot.add(oid, Location(x, y))
        return snapshot


def packable_ids(ids) -> bool:
    """Whether every id of an int64 array fits a packed partition key.

    Keys hold ``anchor << 32 | oid`` in int64, so every id must lie in
    ``[0, 2**31)``.
    """
    return not ids.size or (int(ids.min()) >= 0 and int(ids.max()) < 1 << 31)


class PartitionBatch:
    """One snapshot's id-based partitions (Lemma 3) as two sorted arrays.

    The columnar counterpart of the ``(time, anchor, members)`` partition
    records: ``anchors`` holds every record's anchor, ascending (cluster
    maxima included — their record has no members), and ``keys`` holds
    one ``anchor << 32 | oid`` int64 per (anchor, member) pair,
    ascending, so each anchor's members are one contiguous run.  The
    kernel clustering stage emits one per snapshot, the keyed exchange
    splits it by anchor with :meth:`select`, and the numpy enumeration
    kernel consumes the keys as they are; row-oriented consumers unroll
    :meth:`rows`, which yields exactly the records.  ``len`` is the
    record count.
    """

    __slots__ = ("time", "anchors", "keys")

    def __init__(self, time: int, anchors, keys):
        """Wrap sorted ``anchors`` and sorted packed ``keys`` at ``time``."""
        self.time = int(time)
        self.anchors = anchors
        self.keys = keys

    @classmethod
    def from_pairs(cls, time: int, pairs) -> "PartitionBatch":
        """Pack ``(anchor, members)`` pairs: the one partition-key packing.

        Anchors come out ascending and distinct.  Ids outside
        ``[0, 2**31)`` among anchors with members, or members, are
        refused (:func:`packable_ids`).
        """
        anchors: list[int] = []
        owners: list[int] = []
        sizes: list[int] = []
        members: list[int] = []
        for anchor, group in pairs:
            anchors.append(anchor)
            if group:
                owners.append(anchor)
                sizes.append(len(group))
                members.extend(group)
        oids = _np.array(members, dtype=_np.int64)
        owners_array = _np.array(owners, dtype=_np.int64)
        if not (packable_ids(owners_array) and packable_ids(oids)):
            raise ValueError(
                "trajectory ids must fit 31 bits for the numpy enumeration "
                "kernel's packed keys; use enumeration_kernel='python' for "
                "this workload"
            )
        keys = _np.sort(
            (_np.repeat(owners_array, sizes) << _np.int64(32)) | oids
        )
        return cls(time, _np.unique(_np.array(anchors, dtype=_np.int64)), keys)

    def __len__(self) -> int:
        return len(self.anchors)

    def __repr__(self) -> str:
        return (
            f"PartitionBatch(time={self.time}, records={len(self)}, "
            f"keys={len(self.keys)})"
        )

    def __reduce__(self):
        return (PartitionBatch, (self.time, self.anchors, self.keys))

    def _runs(self) -> Iterator[tuple[int, list[int]]]:
        """``(anchor, members)`` per record, members ascending, as lists."""
        owners = self.keys >> _np.int64(32)
        lo = _np.searchsorted(owners, self.anchors, side="left").tolist()
        hi = _np.searchsorted(owners, self.anchors, side="right").tolist()
        members = (self.keys & _np.int64(0xFFFFFFFF)).tolist()
        for anchor, start, stop in zip(self.anchors.tolist(), lo, hi):
            yield anchor, members[start:stop]

    def rows(self) -> Iterator[tuple[int, int, frozenset[int]]]:
        """The ``(time, anchor, members)`` records, anchors ascending."""
        time = self.time
        for anchor, members in self._runs():
            yield time, anchor, frozenset(members)

    def route_rows(self) -> Iterator[tuple[int, int, None]]:
        """The records as the keyed exchange routes them, by anchor.

        Like :meth:`rows` without building member sets: the enumerate
        stage keys on ``record[1]``, the anchor, alone.
        """
        time = self.time
        return ((time, anchor, None) for anchor in self.anchors.tolist())

    def member_runs(self) -> list[tuple[int, tuple[int, ...]]]:
        """``(anchor, sorted members)`` of every record that has members."""
        return [
            (anchor, tuple(members)) for anchor, members in self._runs() if members
        ]

    def select(self, indices: Sequence[int]) -> "PartitionBatch":
        """Sub-batch of the given records (keyed-exchange splitting).

        ``indices`` are ascending record positions; both arrays stay
        sorted.
        """
        picked = _np.zeros(len(self.anchors), dtype=bool)
        picked[_np.asarray(indices, dtype=_np.int64)] = True
        owner = _np.searchsorted(self.anchors, self.keys >> _np.int64(32))
        return PartitionBatch(
            self.time, self.anchors[picked], self.keys[picked[owner]]
        )


#: Columnar envelopes: the keyed exchange splits them with ``select``,
#: element counts count their rows, and operators receive them through
#: ``process_batch``.
ENVELOPES = (SnapshotBatch, PartitionBatch)
