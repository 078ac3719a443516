"""The ``csv``-module reader: the test reference for ``iter_csv_batches``.

Row by row through Python's :mod:`csv` module and ``int()`` /
``float()``, five Python lists per batch: the reader the library used
before it parsed blocks with NumPy's C parser.  It stays here so the
tests and the ingest bench can compare the two on the same files.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.model.batch import RecordBatch


def batch_from_csv_rows(rows: Iterable[Sequence[str]]) -> RecordBatch:
    """Build a batch from CSV value rows ``(oid, x, y, time, last_time)``.

    ``last_time`` is the empty string (or missing) for a trajectory's
    first report, as ``TrajectoryDataset.save_csv`` writes it.
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
        lasts.append(int(raw_last) if raw_last else None)
    return RecordBatch.from_columns(oids, xs, ys, times, lasts)


def reference_csv_batches(
    path: str | Path, batch_size: int
) -> Iterator[RecordBatch]:
    """Stream a ``save_csv`` file as batches of ``batch_size`` rows."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        next(reader, None)  # header row
        chunk: list[list[str]] = []
        for row in reader:
            chunk.append(row)
            if len(chunk) >= batch_size:
                yield batch_from_csv_rows(chunk)
                chunk = []
        if chunk:
            yield batch_from_csv_rows(chunk)
