"""Schema adapters for real taxi trajectory datasets (ROADMAP item 5a).

Two public corpora are close stand-ins for the paper's proprietary
Hangzhou taxi data and are widely used in the co-movement literature:

* **T-Drive** (Microsoft Research, Beijing taxis): one CSV line per GPS
  fix, ``taxi_id,datetime,longitude,latitude``, no header, per-taxi
  time-sorted (e.g. ``1,2008-02-02 15:36:08,116.51172,39.92123``).
* **Porto taxi** (ECML/PKDD 2015 challenge): one CSV row per *trip*
  with a header; ``TAXI_ID`` names the object, ``TIMESTAMP`` is the
  trip-start epoch, and ``POLYLINE`` is a JSON list of ``[lon, lat]``
  fixes sampled every 15 seconds.

Both adapters normalise to the framework's native stream shape —
integer oids, planar metre coordinates (equirectangular projection
anchored at the first fix), discretized snapshot times, per-object
``last_time`` chains — so the output feeds any Session / pipeline entry
point unchanged.  :func:`load_real_dataset` materialises a sorted
:class:`~repro.data.dataset.TrajectoryDataset` (bounded, benchmark
shape); :func:`iter_real_batches` streams columnar
:class:`~repro.model.batch.RecordBatch` chunks in file order without
materialising the file, exactly like
:func:`~repro.data.dataset.iter_csv_batches` does for the native
schema.  Committed fixture slices live under ``tests/data/fixtures/``
and drive ``examples/real_datasets.py``.
"""

from __future__ import annotations

import calendar
import csv
import json
import math
from datetime import datetime
from pathlib import Path
from typing import Iterator

from repro.data.dataset import TrajectoryDataset, link_last_times
from repro.model.batch import RecordBatch
from repro.model.records import StreamRecord

#: The real-dataset schemas the adapters understand.
REAL_SCHEMAS = ("tdrive", "porto")

#: Seconds between consecutive fixes inside one Porto ``POLYLINE``.
PORTO_SAMPLE_SECONDS = 15

#: Metres per degree of latitude (spherical mean).
_METERS_PER_DEG_LAT = 110_540.0

#: Metres per degree of longitude at the equator.
_METERS_PER_DEG_LON = 111_320.0


def _parse_tdrive_datetime(value: str) -> int:
    """A T-Drive ``YYYY-MM-DD HH:MM:SS`` stamp as UTC epoch seconds."""
    parsed = datetime.strptime(value.strip(), "%Y-%m-%d %H:%M:%S")
    return calendar.timegm(parsed.timetuple())


class _Projection:
    """Equirectangular lon/lat -> planar metres, anchored at first fix.

    The anchor latitude fixes the longitude scale, so the projection is
    deterministic per file and locally metric — sufficient for the L1
    range joins the pipeline runs (city-scale extents, not geodesy).
    """

    def __init__(self) -> None:
        """Unanchored; the first projected fix sets the anchor."""
        self._cos_lat: float | None = None

    def project(self, lon: float, lat: float) -> tuple[float, float]:
        """Planar ``(x, y)`` metres for one ``(lon, lat)`` fix."""
        if self._cos_lat is None:
            self._cos_lat = math.cos(math.radians(lat))
        return (
            lon * _METERS_PER_DEG_LON * self._cos_lat,
            lat * _METERS_PER_DEG_LAT,
        )


def _tdrive_fixes(
    path: Path,
) -> Iterator[tuple[int, int, float, float]]:
    """``(oid, epoch_seconds, lon, lat)`` per T-Drive line, file order."""
    with path.open(newline="") as handle:
        for row in csv.reader(handle):
            if not row or not row[0].strip():
                continue
            yield (
                int(row[0]),
                _parse_tdrive_datetime(row[1]),
                float(row[2]),
                float(row[3]),
            )


def _porto_fixes(
    path: Path,
) -> Iterator[tuple[int, int, float, float]]:
    """``(oid, epoch_seconds, lon, lat)`` per Porto polyline point.

    One trip row explodes into one fix per polyline entry, 15 seconds
    apart from the trip-start ``TIMESTAMP``.  Rows flagged
    ``MISSING_DATA`` and empty polylines are skipped.
    """
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        for values in reader:
            row = dict(zip(header, values))
            if row.get("MISSING_DATA", "False").strip().lower() == "true":
                continue
            polyline = json.loads(row.get("POLYLINE") or "[]")
            if not polyline:
                continue
            oid = int(row["TAXI_ID"])
            start = int(row["TIMESTAMP"])
            for index, (lon, lat) in enumerate(polyline):
                yield (
                    oid,
                    start + index * PORTO_SAMPLE_SECONDS,
                    float(lon),
                    float(lat),
                )


_SCHEMA_FIXES = {"tdrive": _tdrive_fixes, "porto": _porto_fixes}

#: Default snapshot width per schema: T-Drive's mean sampling interval
#: is ~177 s (5 min buckets give near-complete snapshots); Porto is
#: fixed 15 s.
_DEFAULT_INTERVALS = {"tdrive": 300, "porto": PORTO_SAMPLE_SECONDS}


def _resolve_schema(schema: str, interval_seconds: int | None) -> int:
    if schema not in _SCHEMA_FIXES:
        raise ValueError(
            f"unknown real-dataset schema {schema!r}; known: {REAL_SCHEMAS}"
        )
    interval = (
        interval_seconds
        if interval_seconds is not None
        else _DEFAULT_INTERVALS[schema]
    )
    if interval < 1:
        raise ValueError(f"interval_seconds must be >= 1, got {interval}")
    return interval


def load_real_dataset(
    path: str | Path,
    schema: str,
    *,
    interval_seconds: int | None = None,
    name: str | None = None,
) -> TrajectoryDataset:
    """Load a real-schema CSV as a sorted :class:`TrajectoryDataset`.

    ``schema`` is ``"tdrive"`` or ``"porto"``; ``interval_seconds``
    widens the snapshot discretization (default per schema: 300 s for
    T-Drive's ~177 s sampling, 15 s for Porto's fixed polyline rate).
    Epoch times are rebased to the file's earliest fix, so snapshot
    times start at 0.  Fixes that do not advance an object's discretized
    time (duplicate reports inside one bucket) keep only the first, and
    ``last_time`` chains are rebuilt on the sorted result — the bounded
    dataset shape every benchmark and session entry point accepts.

    Raises:
        ValueError: for an unknown schema or a non-positive interval.
    """
    interval = _resolve_schema(schema, interval_seconds)
    path = Path(path)
    projection = _Projection()
    fixes = [
        (oid, epoch, *projection.project(lon, lat))
        for oid, epoch, lon, lat in _SCHEMA_FIXES[schema](path)
    ]
    origin = min((epoch for _, epoch, _, _ in fixes), default=0)
    seen: set[tuple[int, int]] = set()
    records: list[StreamRecord] = []
    for oid, epoch, x, y in fixes:
        time = (epoch - origin) // interval
        if (oid, time) in seen:
            continue
        seen.add((oid, time))
        records.append(StreamRecord(oid=oid, x=x, y=y, time=time))
    return TrajectoryDataset(
        name=name or f"{schema}:{path.stem}",
        records=link_last_times(records),
    )


def iter_real_batches(
    path: str | Path,
    schema: str,
    batch_size: int,
    *,
    interval_seconds: int | None = None,
) -> Iterator[RecordBatch]:
    """Stream a real-schema CSV as columnar batches without loading it.

    The unbounded-ingestion counterpart of :func:`load_real_dataset`,
    mirroring :func:`~repro.data.dataset.iter_csv_batches`: fixes are
    normalised lazily in file order, ``last_time`` chains are threaded
    incrementally per object, and every ``batch_size`` records one
    :class:`~repro.model.batch.RecordBatch` is emitted.  Times are
    rebased to the *first* fix of the file (not the minimum), keeping
    the pass single; a fix that does not advance its object's
    discretized time — a duplicate inside one bucket, or an
    out-of-order report — is skipped so the reassembly chains stay
    valid.  Feed the batches into a session whose ``max_delay`` covers
    the file's cross-object time skew.

    Raises:
        ValueError: for an unknown schema, a non-positive interval or a
            ``batch_size`` below 1.
    """
    interval = _resolve_schema(schema, interval_seconds)
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    projection = _Projection()
    origin: int | None = None
    last_seen: dict[int, int] = {}
    chunk: list[StreamRecord] = []
    for oid, epoch, lon, lat in _SCHEMA_FIXES[schema](Path(path)):
        if origin is None:
            origin = epoch
        time = (epoch - origin) // interval
        previous = last_seen.get(oid)
        if time < 0 or (previous is not None and time <= previous):
            continue
        x, y = projection.project(lon, lat)
        chunk.append(
            StreamRecord(oid=oid, x=x, y=y, time=time, last_time=previous)
        )
        last_seen[oid] = time
        if len(chunk) >= batch_size:
            yield RecordBatch.from_records(chunk)
            chunk = []
    if chunk:
        yield RecordBatch.from_records(chunk)
