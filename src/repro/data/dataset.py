"""Trajectory dataset container and Table 2 statistics."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.model.batch import RecordBatch
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
        """Read a dataset written by :meth:`save_csv`."""
        path = Path(path)
        records: list[StreamRecord] = []
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            for row in reader:
                records.append(
                    StreamRecord(
                        oid=int(row["oid"]),
                        x=float(row["x"]),
                        y=float(row["y"]),
                        time=int(row["time"]),
                        last_time=(
                            int(row["last_time"]) if row["last_time"] else None
                        ),
                    )
                )
        return cls(name=name or path.stem, records=records)


def iter_csv_batches(
    path: str | Path, batch_size: int
) -> Iterator[RecordBatch]:
    """Stream a ``save_csv`` file as columnar batches without loading it.

    Reads ``batch_size`` CSV rows at a time straight into
    :meth:`RecordBatch.from_csv_rows` — the unbounded-stream ingestion
    shape: no :class:`TrajectoryDataset` (and no per-record
    :class:`StreamRecord`) is ever materialised.  Rows are batched in
    file order; ``save_csv`` writes stream order, but a hand-assembled
    file is *not* re-sorted the way :meth:`TrajectoryDataset.load_csv`
    sorts (the CLI therefore feeds through the loaded dataset).
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        next(reader, None)  # header row
        chunk: list[list[str]] = []
        for row in reader:
            chunk.append(row)
            if len(chunk) >= batch_size:
                yield RecordBatch.from_csv_rows(chunk)
                chunk = []
        if chunk:
            yield RecordBatch.from_csv_rows(chunk)


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
