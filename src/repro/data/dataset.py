"""Trajectory dataset container and Table 2 statistics."""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.model.batch import NO_LAST_TIME, RecordBatch
from repro.model.records import StreamRecord
from repro.model.snapshot import Snapshot


@dataclass(frozen=True, slots=True)
class DatasetStats:
    """The attributes reported in the paper's Table 2."""

    name: str
    trajectories: int
    locations: int
    snapshots: int
    storage_bytes: int

    def as_row(self) -> dict[str, str]:
        """The statistics as a printable Table-2 row."""
        return {
            "dataset": self.name,
            "# trajectories": f"{self.trajectories:,}",
            "# locations": f"{self.locations:,}",
            "# snapshots": f"{self.snapshots:,}",
            "storage": _human_bytes(self.storage_bytes),
        }


def _human_bytes(size: int) -> str:
    value = float(size)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GB"


@dataclass(slots=True)
class TrajectoryDataset:
    """A bounded set of discretized trajectories.

    Internally a flat, time-sorted list of stream records — the shape both
    the streaming pipeline (fed record by record) and the snapshot-oriented
    harness (grouped by time) consume.
    """

    name: str
    records: list[StreamRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.records.sort(key=lambda r: (r.time, r.oid))

    def __len__(self) -> int:
        return len(self.records)

    @property
    def trajectory_ids(self) -> list[int]:
        """Sorted distinct trajectory ids."""
        return sorted({r.oid for r in self.records})

    @property
    def times(self) -> list[int]:
        """Sorted distinct discretized times."""
        return sorted({r.time for r in self.records})

    def to_batch(self) -> RecordBatch:
        """The whole dataset as one columnar :class:`RecordBatch`.

        The batch-ingestion entry of the loaders: records stay in their
        time-sorted stream order, so feeding the batch is equivalent to
        feeding ``records`` one at a time.
        """
        return RecordBatch.from_records(self.records)

    def batches(self, batch_size: int) -> Iterator[RecordBatch]:
        """Stream the dataset as columnar batches of ``batch_size``.

        Slices of one packed batch — zero-copy column views — in stream
        order; the final batch may be shorter.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        packed = self.to_batch()
        for start in range(0, len(packed), batch_size):
            yield packed[start : start + batch_size]

    def snapshots(self) -> list[Snapshot]:
        """Group records into complete snapshots in ascending time order."""
        by_time: dict[int, Snapshot] = {}
        for record in self.records:
            by_time.setdefault(record.time, Snapshot(record.time)).add_record(
                record
            )
        return [by_time[t] for t in sorted(by_time)]

    def restrict_objects(self, ratio: float, name: str | None = None) -> "TrajectoryDataset":
        """Keep an evenly spaced ``ratio`` of trajectories (Or sweep, Fig. 12).

        Ids are sampled uniformly across the sorted id space, so implanted
        co-moving groups (contiguous id blocks) shrink proportionally —
        cluster sizes and pattern density then grow with the ratio, the
        behaviour the paper's Or sweep relies on.
        """
        if not 0 < ratio <= 1:
            raise ValueError(f"ratio must be in (0, 1], got {ratio}")
        ids = self.trajectory_ids
        keep_count = max(1, round(len(ids) * ratio))
        if keep_count >= len(ids):
            kept = set(ids)
        else:
            step = (len(ids) - 1) / max(1, keep_count - 1) if keep_count > 1 else 0
            kept = {ids[round(j * step)] for j in range(keep_count)}
        return TrajectoryDataset(
            name=name or f"{self.name}[{ratio:.0%}]",
            records=[r for r in self.records if r.oid in kept],
        )

    def max_distance(self) -> float:
        """Diameter proxy: L1 size of the bounding box.

        Table 3 expresses epsilon and the grid width as percentages of "the
        maximal distance of the whole dataset"; benchmarks resolve those
        percentages against this value.
        """
        if not self.records:
            return 0.0
        min_x = min(r.x for r in self.records)
        max_x = max(r.x for r in self.records)
        min_y = min(r.y for r in self.records)
        max_y = max(r.y for r in self.records)
        return (max_x - min_x) + (max_y - min_y)

    def resolve_percentage(self, percent: float) -> float:
        """Absolute distance for a Table 3 percentage (e.g. 0.06)."""
        return self.max_distance() * percent / 100.0

    def statistics(self) -> DatasetStats:
        """Table 2 row for this dataset."""
        storage = sum(
            len(f"{r.oid},{r.x:.2f},{r.y:.2f},{r.time}\n") for r in self.records
        )
        return DatasetStats(
            name=self.name,
            trajectories=len(self.trajectory_ids),
            locations=len(self.records),
            snapshots=len(self.times),
            storage_bytes=storage,
        )

    # ------------------------------------------------------------------- I/O

    def save_csv(self, path: str | Path) -> None:
        """Write ``oid,x,y,time,last_time`` rows."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["oid", "x", "y", "time", "last_time"])
            for r in self.records:
                writer.writerow(
                    [r.oid, f"{r.x:.6f}", f"{r.y:.6f}", r.time,
                     "" if r.last_time is None else r.last_time]
                )

    @classmethod
    def load_csv(cls, path: str | Path, name: str | None = None) -> "TrajectoryDataset":
        """Read a dataset written by :meth:`save_csv`, sorted by (time, oid).

        The file is parsed by :func:`iter_csv_batches`, with its contract
        and its errors, and each record is boxed from the columns; the
        dataset then sorts its records as every dataset does.
        """
        path = Path(path)
        records = [
            record
            for batch in iter_csv_batches(path, _LOAD_BATCH_SIZE)
            for record in batch.to_records()
        ]
        return cls(name=name or path.stem, records=records)


#: One ``save_csv`` row as :func:`numpy.loadtxt` parses it: ids and
#: times straight to int64 (never through float64), coordinates to
#: float64 with the correctly rounded conversion ``float()`` uses.
_CSV_ROW = np.dtype(
    [
        ("oid", np.int64),
        ("x", np.float64),
        ("y", np.float64),
        ("time", np.int64),
        ("last_time", np.int64),
    ]
)

#: Bytes of CSV text parsed per block (about 1,900 rows of ``save_csv``
#: output).  Parsing one block takes about 1.2 MB, whatever the file's
#: length; 256 KiB blocks parse 8 % faster and take four times that.
_BLOCK_BYTES = 1 << 16

#: Rows per batch when :meth:`TrajectoryDataset.load_csv` reads a file;
#: every size gives the same records.
_LOAD_BATCH_SIZE = 1 << 13

#: What an empty ``last_time`` field is filled with before parsing: the
#: literal of :data:`NO_LAST_TIME`, which int64 parsing maps to the
#: sentinel itself, as the same literal in a file always did.
_NO_LAST_TIME_TEXT = str(NO_LAST_TIME).encode()
_LF, _CR, _COMMA = b"\n\r,"  # the byte values the line scan looks for


def iter_csv_batches(
    path: str | Path, batch_size: int
) -> Iterator[RecordBatch]:
    """Stream a ``save_csv`` file as columnar batches without loading it.

    The first line is a header and is skipped; every other line is one
    record ``oid,x,y,time,last_time``.  NumPy's C parser
    (:func:`numpy.loadtxt`) turns blocks of lines into the columns:

    * ``oid``, ``time`` and ``last_time`` are parsed straight to int64,
      so every int64 id survives; ``x`` and ``y`` to float64, bit-equal
      to ``float()`` of the same text;
    * an empty ``last_time`` field, and only an empty one, becomes
      :data:`~repro.model.batch.NO_LAST_TIME` (a trajectory's first
      report);
    * LF and CRLF line endings are both read, and the last line may
      lack its newline;
    * every batch holds ``batch_size`` rows (the last may be shorter),
      and each of its columns is a C-contiguous array of its own;
    * memory is bounded by one fixed-size block of text plus the rows
      of one batch, not by the file.

    No :class:`TrajectoryDataset` (and no per-record
    :class:`StreamRecord`) is materialised.  Rows are batched in file
    order; ``save_csv`` writes stream order, but a hand-assembled file is
    *not* re-sorted the way :meth:`TrajectoryDataset.load_csv` sorts (the
    CLI therefore feeds through the loaded dataset).

    Raises:
        ValueError: for a ``batch_size`` below 1, or for a malformed row,
            naming its file line: a row without exactly five unquoted
            fields, a field that is not a plain decimal number, an empty
            field other than ``last_time``, an integer beyond int64, or
            a blank line.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    pieces: list[np.ndarray] = []
    held = 0
    for block in _csv_blocks(Path(path)):
        pieces.append(block)
        held += len(block)
        if held < batch_size:
            continue
        rows = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        full = held - held % batch_size
        for start in range(0, full, batch_size):
            yield _record_batch(rows[start : start + batch_size])
        held -= full
        pieces = [rows[full:]] if held else []
    if held:
        yield _record_batch(np.concatenate(pieces))


def _record_batch(rows: np.ndarray) -> RecordBatch:
    """A batch over contiguous copies of structured rows' five fields."""
    return RecordBatch(*(rows[name].copy() for name in _CSV_ROW.names))


def _csv_blocks(path: Path) -> Iterator[np.ndarray]:
    """The rows after the header, parsed block by block.

    Each block is whole ``\\n``-terminated lines; a last line without a
    newline gets one.
    """
    with path.open("rb") as handle:
        handle.readline()  # header row
        first_line = 2
        tail = b""
        while chunk := handle.read(_BLOCK_BYTES):
            data = tail + chunk
            cut = data.rfind(b"\n") + 1
            data, tail = data[:cut], data[cut:]
            if data:
                rows = _parse_block(data, path, first_line)
                first_line += len(rows)
                yield rows
        if tail:
            yield _parse_block(tail + b"\n", path, first_line)


def _parse_block(data: bytes, path: Path, first_line: int) -> np.ndarray:
    """Parse a block whose first line is file line ``first_line``."""
    try:
        rows, lines = _parse_lines(data)
    except ValueError:
        rows = None
    # loadtxt skips blank lines, so a short result is malformed too.
    if rows is None or len(rows) != lines:
        raise _malformed_row(data, path, first_line)
    return rows


def _parse_lines(data: bytes) -> tuple[np.ndarray, int]:
    """Structured rows of LF- or CRLF-terminated lines, and the line count.

    One vectorised scan finds the line ends and the lines whose last
    field is empty; only those get the :data:`NO_LAST_TIME` literal
    spliced in before NumPy parses the text.
    """
    if data.isspace():
        # Blank lines only: loadtxt would warn that it found no data.
        return np.empty(0, dtype=_CSV_ROW), data.count(b"\n")
    codes = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(codes == _LF)
    last = np.where(codes[ends - 1] == _CR, ends - 2, ends - 1)
    fill = (last[codes[last] == _COMMA] + 1).tolist()
    if fill:
        bounds = [0, *fill, len(data)]
        data = _NO_LAST_TIME_TEXT.join(
            data[start:stop] for start, stop in zip(bounds, bounds[1:])
        )
    rows = np.loadtxt(
        io.StringIO(data.decode()),
        dtype=_CSV_ROW,
        delimiter=",",
        comments=None,
        ndmin=1,
    )
    return rows, len(ends)


def _malformed_row(data: bytes, path: Path, first_line: int) -> ValueError:
    """The error naming the first line of a block that does not parse."""
    for offset, line in enumerate(data.split(b"\n")[:-1]):
        try:
            rows, _ = _parse_lines(line + b"\n")
            if len(rows) == 1:
                continue
            reason = "blank line" if not len(rows) else "several rows"
        except ValueError as error:
            # loadtxt numbers rows from 0 within the one line it was given.
            reason = re.sub(
                r" at row \d+, column (\d+)\.?$", r" in field \1", str(error)
            )
        text = line.decode(errors="replace").rstrip("\r")
        return ValueError(
            f"{path}: line {first_line + offset}: malformed row {text!r} "
            f"({reason}); expected oid,x,y,time,last_time"
        )
    return ValueError(f"{path}: malformed rows from line {first_line}")


def link_last_times(records: list[StreamRecord]) -> list[StreamRecord]:
    """Fill in ``last_time`` chains on time-sorted generator output."""
    records = sorted(records, key=lambda r: (r.time, r.oid))
    last_seen: dict[int, int] = {}
    linked: list[StreamRecord] = []
    for r in records:
        linked.append(
            StreamRecord(
                oid=r.oid,
                x=r.x,
                y=r.y,
                time=r.time,
                last_time=last_seen.get(r.oid),
            )
        )
        last_seen[r.oid] = r.time
    return linked


def euclidean_diameter(records: list[StreamRecord]) -> float:
    """L2 bounding-box diagonal (an alternative diameter definition)."""
    if not records:
        return 0.0
    min_x = min(r.x for r in records)
    max_x = max(r.x for r in records)
    min_y = min(r.y for r in records)
    max_y = max(r.y for r in records)
    return math.hypot(max_x - min_x, max_y - min_y)
