"""Columnar record batches: the batch-ingestion data plane.

The streaming surface of PRs 1-4 moved GPS fixes one
:class:`~repro.model.records.StreamRecord` at a time — every record a
boxed dataclass walked through ``Session.feed()``, the synchronisation
operator and the keyed exchanges, so Python object churn dominated
end-to-end ingest cost once the clustering and enumeration kernels were
vectorized.  This module holds the columnar types that replace that
record-at-a-time plane:

* :class:`RecordBatch` — a batch of ``(oid, x, y, time, last_time)``
  *columns* (NumPy arrays when the optional dependency is available,
  plain lists otherwise) with zero-copy slicing on the array backing,
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

NumPy stays optional: both types degrade to list-backed columns with
identical semantics, and every consumer treats the backing as an
implementation detail.

Both types also carry a flat *shared-memory codec* (``shm_nbytes`` /
``to_shm`` / ``from_shm``): the columns of an array-backed batch are
written contiguously into any writable buffer — a
``multiprocessing.shared_memory`` segment in production, a plain
``bytearray`` in tests — and reconstructed on the reader side as
zero-copy NumPy views over that buffer.  This is the transport the
``process`` execution backend uses to ship keyed-exchange envelopes
between worker processes without pickling the column data; list-backed
batches have no flat layout and take the pickle fallback instead.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.model.records import Location, StreamRecord
from repro.model.snapshot import Snapshot

try:  # pragma: no cover - exercised only on numpy-less hosts
    import numpy as _np
except ModuleNotFoundError:  # pragma: no cover
    _np = None

#: Sentinel encoding ``last_time is None`` in the int64 array backing.
#: int64-min cannot collide with any discretized time a stream produces.
NO_LAST_TIME = -(2**63)


def _batch_numpy_available() -> bool:
    """Whether batches use the NumPy array backing in this process."""
    return _np is not None


def _require_numpy_backing(batch, operation: str) -> None:
    """Shared-memory codec precondition: flat array columns.

    List-backed batches have no contiguous layout to copy; callers route
    them through the pickle fallback instead (the process backend does
    exactly that in its keyed exchange).
    """
    if _np is None or batch.backing != "numpy":
        raise ValueError(
            f"{operation} requires the NumPy array backing; this batch is "
            f"list-backed — use pickle for list-backed batches"
        )


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

    Columns are ``oids`` (int), ``xs`` / ``ys`` (float), ``times`` (int)
    and ``last_times`` (int, with :data:`NO_LAST_TIME` standing in for
    ``None``).  With NumPy available the columns are contiguous
    ``int64`` / ``float64`` arrays and slicing returns zero-copy views;
    without it they are plain lists and slicing copies.  Batches are
    treated as immutable by every consumer.

    Build one with :meth:`from_records`, :meth:`from_columns`,
    :meth:`from_csv_rows` or the ``repro.data`` loaders
    (:meth:`~repro.data.dataset.TrajectoryDataset.to_batch`).
    """

    __slots__ = ("oids", "xs", "ys", "times", "last_times")

    def __init__(self, oids, xs, ys, times, last_times):
        """Wrap five equal-length columns (validated; not copied)."""
        n = len(oids)
        if not (len(xs) == len(ys) == len(times) == len(last_times) == n):
            raise ValueError(
                "RecordBatch columns must have equal lengths, got "
                f"{(len(oids), len(xs), len(ys), len(times), len(last_times))}"
            )
        self.oids = oids
        self.xs = xs
        self.ys = ys
        self.times = times
        self.last_times = last_times

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
        n = len(oids)
        if last_times is None:
            lasts: list[int] = [NO_LAST_TIME] * n
        else:
            lasts = [
                NO_LAST_TIME if value is None else int(value)
                for value in last_times
            ]
        if _np is not None:
            return cls(
                _np.asarray(oids, dtype=_np.int64),
                _np.asarray(xs, dtype=_np.float64),
                _np.asarray(ys, dtype=_np.float64),
                _np.asarray(times, dtype=_np.int64),
                _np.asarray(lasts, dtype=_np.int64),
            )
        return cls(
            [int(v) for v in oids],
            [float(v) for v in xs],
            [float(v) for v in ys],
            [int(v) for v in times],
            lasts,
        )

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
        if _np is not None:
            return cls(
                _np.array(oids, dtype=_np.int64),
                _np.array(xs, dtype=_np.float64),
                _np.array(ys, dtype=_np.float64),
                _np.array(times, dtype=_np.int64),
                _np.array(lasts, dtype=_np.int64),
            )
        return cls(oids, xs, ys, times, lasts)

    @classmethod
    def single(cls, record: StreamRecord) -> "RecordBatch":
        """A one-row, list-backed batch (the per-point compatibility path).

        Per-record array construction would dominate a one-row batch, so
        this constructor always uses the list backing — the batch
        consumers are backing-agnostic, and ``Session.feed`` stays cheap.
        """
        return cls(
            [record.oid],
            [record.x],
            [record.y],
            [record.time],
            [NO_LAST_TIME if record.last_time is None else record.last_time],
        )

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
        batch over column views (zero-copy on the array backing)."""
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
        return (
            f"RecordBatch(n={len(self)}, backing={self.backing!r})"
        )

    @property
    def backing(self) -> str:
        """``"numpy"`` for array columns, ``"python"`` for list columns."""
        if _np is not None and isinstance(self.oids, _np.ndarray):
            return "numpy"
        return "python"

    def min_time(self) -> int:
        """Smallest record time in the batch (batch must be non-empty)."""
        if not len(self):
            raise ValueError("min_time() of an empty batch")
        if self.backing == "numpy":
            return int(self.times.min())
        return min(self.times)

    def max_time(self) -> int:
        """Largest record time in the batch (batch must be non-empty)."""
        if not len(self):
            raise ValueError("max_time() of an empty batch")
        if self.backing == "numpy":
            return int(self.times.max())
        return max(self.times)

    def column_lists(
        self,
    ) -> tuple[list[int], list[float], list[float], list[int], list[int]]:
        """The five columns as plain Python lists (one bulk conversion).

        ``tolist()`` on the array backing converts wholesale in C — the
        batch-path synchronisation walk reads rows from these instead of
        paying per-element array indexing.
        """
        if self.backing == "numpy":
            return (
                self.oids.tolist(),
                self.xs.tolist(),
                self.ys.tolist(),
                self.times.tolist(),
                self.last_times.tolist(),
            )
        return (self.oids, self.xs, self.ys, self.times, self.last_times)

    # ------------------------------------------------------ shared-memory codec

    #: Column dtypes in shm layout order (five 8-byte columns per row).
    _SHM_DTYPES = ("int64", "float64", "float64", "int64", "int64")

    def shm_nbytes(self) -> int:
        """Bytes :meth:`to_shm` writes: five 8-byte columns per row."""
        _require_numpy_backing(self, "RecordBatch.shm_nbytes")
        return 8 * len(self._SHM_DTYPES) * len(self)

    def to_shm(self, buffer, offset: int = 0) -> dict:
        """Write the columns contiguously into a writable buffer.

        Returns the layout descriptor :meth:`from_shm` needs (row count
        and offset).  The buffer is anything exposing the writable
        buffer protocol — a ``multiprocessing.shared_memory`` segment's
        ``buf`` in production, a ``bytearray`` in tests — and must hold
        at least ``offset + shm_nbytes()`` bytes.
        """
        _require_numpy_backing(self, "RecordBatch.to_shm")
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
        if _np is None:  # pragma: no cover - guarded by the writer side
            raise ValueError("RecordBatch.from_shm requires NumPy")
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
    """
    last_index: dict[int, int] = {}
    for i, oid in enumerate(oids):
        last_index[oid] = i
    if len(last_index) == len(oids):
        return oids, xs, ys
    keep = list(last_index.values())
    return (
        [oids[i] for i in keep],
        [xs[i] for i in keep],
        [ys[i] for i in keep],
    )


def _dedup_last_wins_arrays(oids, xs, ys):
    """:func:`_dedup_last_wins` on array columns, without leaving NumPy.

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
    return oids[keep], _np.asarray(xs)[keep], _np.asarray(ys)[keep]


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
        """Wrap columns at ``time``; collapses duplicate oids unless the
        caller guarantees distinctness (internal ``_deduped`` fast path).
        """
        if not (len(oids) == len(xs) == len(ys)):
            raise ValueError(
                "SnapshotBatch columns must have equal lengths, got "
                f"{(len(oids), len(xs), len(ys))}"
            )
        if not _deduped:
            if _np is not None and isinstance(oids, _np.ndarray):
                oids, xs, ys = _dedup_last_wins_arrays(oids, xs, ys)
            else:
                oids, xs, ys = _dedup_last_wins(
                    list(oids), list(xs), list(ys)
                )
        self.time = int(time)
        if _np is not None and not isinstance(oids, _np.ndarray):
            oids = _np.asarray(oids, dtype=_np.int64)
            xs = _np.asarray(xs, dtype=_np.float64)
            ys = _np.asarray(ys, dtype=_np.float64)
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

    @property
    def backing(self) -> str:
        """``"numpy"`` for array columns, ``"python"`` for list columns."""
        if _np is not None and isinstance(self.oids, _np.ndarray):
            return "numpy"
        return "python"

    def rows(self) -> Iterator[tuple[int, float, float]]:
        """Iterate ``(oid, x, y)`` row tuples (the range-join element
        shape) — the generic unrolling path for row-oriented operators."""
        if self.backing == "numpy":
            return zip(self.oids.tolist(), self.xs.tolist(), self.ys.tolist())
        return zip(self.oids, self.xs, self.ys)

    def points(self) -> list[tuple[int, float, float]]:
        """``(oid, x, y)`` triples, exactly :meth:`Snapshot.points`."""
        return list(self.rows())

    def select(self, indices: Sequence[int]) -> "SnapshotBatch":
        """Sub-batch of the given row indices (keyed-exchange splitting).

        Row order follows ``indices``; oids stay distinct, so the dedup
        pass is skipped.
        """
        if self.backing == "numpy":
            idx = _np.asarray(indices, dtype=_np.int64)
            return SnapshotBatch(
                self.time,
                self.oids[idx],
                self.xs[idx],
                self.ys[idx],
                _deduped=True,
            )
        return SnapshotBatch(
            self.time,
            [self.oids[i] for i in indices],
            [self.xs[i] for i in indices],
            [self.ys[i] for i in indices],
            _deduped=True,
        )

    # ------------------------------------------------------ shared-memory codec

    #: Column dtypes in shm layout order (three 8-byte columns per row).
    _SHM_DTYPES = ("int64", "float64", "float64")

    def shm_nbytes(self) -> int:
        """Bytes :meth:`to_shm` writes: three 8-byte columns per row."""
        _require_numpy_backing(self, "SnapshotBatch.shm_nbytes")
        return 8 * len(self._SHM_DTYPES) * len(self)

    def to_shm(self, buffer, offset: int = 0) -> dict:
        """Write ``(oids, xs, ys)`` contiguously into a writable buffer.

        Returns the layout descriptor :meth:`from_shm` needs (snapshot
        time, row count, offset) — the small picklable token the process
        backend ships through its command pipe while the column data
        crosses via the shared segment.
        """
        _require_numpy_backing(self, "SnapshotBatch.to_shm")
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
        if _np is None:  # pragma: no cover - guarded by the writer side
            raise ValueError("SnapshotBatch.from_shm requires NumPy")
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
