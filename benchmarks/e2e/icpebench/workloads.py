"""The five pinned workloads: inputs, configurations, and why each exists.

Every workload shares the paper's Table-3 style parameters — ε = 0.06 %
and lg = 1.6 % of the dataset extent, minPts 5, CP(5, 10, 2, 2), the
``strict`` family, no shedding, no telemetry, 200 snapshots — and differs
in the input shape and in which kernels / enumerator / backend run it.
Sizes were fitted on the 2-core container so that one measured pass takes
one to one and a half seconds and the reference run that checks it about
four; ``../README.md`` records the numbers.

Inputs are built from *tiles* — independent runs of the library's
generators laid side by side — not from one big generator run, because
pattern enumeration is exponential in cluster size: in one run, convoys
that park on the same street corner (or travel the same street) merge,
and a merged 16-24 object cluster decides the run's cost (5.7-15.8 s
across four seeds at the issue's probe size).  One fixed-size convoy per
tile keeps the subsets per seed nearly constant; staggered tile starts
spread the closing bursts over the stream; ``dropout_probability`` 0.01
with ``max_gap`` 3 > G keeps the L/G machinery exercised without making
the pattern count a lottery.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

EPSILON_PCT = 0.06
GRID_PCT = 1.6
MIN_PTS = 5
CONSTRAINTS = {"m": 5, "k": 10, "l": 2, "g": 2}
#: The CLI's default ``--batch-size``.
BATCH_SIZE = 1024
DEFAULT_SEED = 37
#: Empty space between neighbouring tiles, far above any ε.
TILE_GAP = 1000.0
#: Stream length at ``--smoke`` size.
SMOKE_HORIZON = 40


def background(n_objects: int, horizon: int = 200) -> dict[str, Any]:
    """Generator arguments of a tile of independent traffic, no group.

    The generators start their background objects anywhere in the first
    quarter of the horizon.  ``skip`` (ours, not the generator's) makes the
    tile that much longer and drops that many leading snapshots, so the
    stream carries its full traffic from the first snapshot on; otherwise
    the thin early snapshots, several to a batch, own the latency tail.
    """
    return {
        "n_objects": n_objects,
        "horizon": horizon,
        "group_fraction": 0.0,
        "skip": horizon // 3 + 4,
    }


def convoy(group: int, horizon: int) -> dict[str, Any]:
    """Generator arguments of a tile holding exactly one group of ``group``
    (and two independent objects)."""
    n_objects = group + 2
    return {
        "n_objects": n_objects,
        "horizon": horizon,
        "group_fraction": group / n_objects,
        "group_size": (group, group),
        "dropout_probability": 0.01,
        "max_gap": 3,
    }


@dataclass(frozen=True)
class Workload:
    """One pinned input + configuration.

    The input is a list of ``(count, generator arguments)``: ``count``
    independent generator runs ("tiles") laid side by side in space, so
    their groups can never merge, each with its own id range, their start
    times spread evenly over the ``horizon`` snapshots of the stream.
    """

    name: str
    generator: str
    tiles: tuple[tuple[int, dict[str, Any]], ...]
    horizon: int = 200
    max_delay: int = 0
    clustering_kernel: str = "numpy"
    enumeration_kernel: str = "numpy"
    enumerator: str = "vba"
    backend: str = "serial"
    workers: int | None = None

    def shape(self, smoke: bool) -> tuple[int, list[tuple[int, dict[str, Any]]]]:
        """``(stream horizon, tiles)`` at full or toy size."""
        if not smoke:
            return self.horizon, list(self.tiles)
        return SMOKE_HORIZON, [
            (
                min(count, 2),
                {
                    **tile,
                    "n_objects": min(tile["n_objects"], 60),
                    "horizon": min(tile["horizon"], SMOKE_HORIZON) // (1 if count == 1 else 2),
                    "skip": min(tile.get("skip", 0), SMOKE_HORIZON // 3 + 4),
                },
            )
            for count, tile in self.tiles
        ]


_DENSE_TAXI = {"generator": "taxi", "tiles": ((1, background(440)), (20, convoy(12, 40)))}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("taxi_dense_vba", **_DENSE_TAXI),
        Workload(
            "brinkhoff_dense_fba",
            "brinkhoff",
            tiles=((1, background(300)), (20, convoy(9, 60))),
            enumerator="fba",
        ),
        Workload(
            "taxi_wide_disorder",
            "taxi",
            tiles=((1, background(1100)), (12, convoy(6, 60))),
            max_delay=3,
        ),
        Workload(
            "taxi_ref_gridjoin",
            "taxi",
            tiles=((1, background(300)), (16, convoy(7, 60))),
            clustering_kernel="python",
            enumeration_kernel="python",
            enumerator="fba",
        ),
        # Same input parameters as taxi_dense_vba, hence the same dataset
        # key and a byte-identical CSV.
        Workload("taxi_dense_process", **_DENSE_TAXI, backend="process", workers=2),
    )
}


@dataclass(frozen=True)
class Dataset:
    """A generated input file and the facts the children need about it."""

    path: Path
    records: int
    snapshots: int
    extent: float
    datagen_s: float
    input_digest: str


def dataset_key(workload: Workload, seed: int, smoke: bool) -> str:
    """File-name key: equal for workloads that must share one CSV."""
    spec = [workload.generator, workload.shape(smoke), workload.max_delay, seed]
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]


def bounded_disorder(times: np.ndarray, max_delay: int, seed: int) -> np.ndarray:
    """Arrival permutation of an event-time-ordered stream within ``max_delay``.

    Stable sort on ``time + U[0, 1) * max_delay``: a record of time ``t``
    sorts below ``t + max_delay``, and every record newer than that sorts
    at or above ``t + max_delay + 1`` — so it arrives later, which is the
    synchronisation operator's bounded-delay contract.  (The library's
    ``bounded_shuffle`` scans its pending list per record and is too slow
    for the hundreds of thousands of records this workload feeds.)
    """
    rng = np.random.default_rng(seed)
    return np.argsort(times + rng.random(len(times)) * max_delay, kind="stable")


def disorder_violations(arrival_times: np.ndarray, max_delay: int) -> int:
    """Records that arrive after a record more than ``max_delay`` newer."""
    if len(arrival_times) < 2:
        return 0
    newest_before = np.maximum.accumulate(arrival_times)[:-1]
    return int(np.count_nonzero(newest_before > arrival_times[1:] + max_delay))


def tiled_dataset(workload: Workload, seed: int, smoke: bool = False):
    """The workload's stream and its tile extent, from ``seed``.

    Tile ``i`` is one generator run seeded ``seed * 1_000_003 + i``, moved
    right of tile ``i - 1`` by more than any ε and renumbered into its own
    id range.  The ``count`` tiles of one kind start evenly spaced through
    the slack the stream horizon leaves them, so groups form and dissolve
    all along the stream instead of all at its end.  The extent that ε and
    lg are percentages of is the largest single tile's — the dataset as
    the generator made it.
    """
    from repro.data import (
        BrinkhoffConfig,
        TaxiConfig,
        TrajectoryDataset,
        generate_brinkhoff,
        generate_taxi,
    )
    from repro.model.records import StreamRecord

    make, config = {
        "taxi": (generate_taxi, TaxiConfig),
        "brinkhoff": (generate_brinkhoff, BrinkhoffConfig),
    }[workload.generator]
    horizon, kinds = workload.shape(smoke)
    records: list[StreamRecord] = []
    extent = right_edge = 0.0
    index = first_id = 0
    for count, params in kinds:
        slack = horizon - params["horizon"]
        skip = params.get("skip", 0)
        arguments = {**params, "horizon": params["horizon"] + skip}
        arguments.pop("skip", None)
        for position in range(count):
            tile = make(config(**arguments, seed=seed * 1_000_003 + index))
            index += 1
            extent = max(extent, tile.max_distance())
            delay = round(position * slack / max(1, count - 1)) - skip
            left = min(r.x for r in tile.records)
            shift = right_edge - left
            for r in tile.records:
                if r.time <= skip:
                    continue
                first = r.last_time is None or r.last_time <= skip
                records.append(
                    StreamRecord(
                        oid=first_id + r.oid,
                        x=r.x + shift,
                        y=r.y,
                        time=r.time + delay,
                        last_time=None if first else r.last_time + delay,
                    )
                )
            first_id += params["n_objects"]
            right_edge += max(r.x for r in tile.records) - left + TILE_GAP
    return TrajectoryDataset(name=workload.name, records=records), extent


def generate(workload: Workload, seed: int, out_dir: Path, smoke: bool = False) -> Dataset:
    """Generate the workload's CSV under ``out_dir`` from ``seed``."""
    from icpebench.stats import file_digest

    started = time.perf_counter()
    dataset, extent = tiled_dataset(workload, seed, smoke)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{dataset_key(workload, seed, smoke)}.csv"
    dataset.save_csv(path)
    if workload.max_delay:
        header, *rows = path.read_text().splitlines(keepends=True)
        times = np.fromiter((r.time for r in dataset.records), dtype=np.int64)
        order = bounded_disorder(times, workload.max_delay, seed)
        late = disorder_violations(times[order], workload.max_delay)
        if late:
            raise AssertionError(f"{late} records violate max_delay={workload.max_delay}")
        path.write_text(header + "".join(rows[i] for i in order))
    return Dataset(
        path=path,
        records=len(dataset),
        snapshots=len(dataset.times),
        extent=extent,
        datagen_s=time.perf_counter() - started,
        input_digest=file_digest(path),
    )


def other_kernels(workload: Workload) -> str:
    """The kernel pair the workload does *not* run (its in-run reference)."""
    return "python" if workload.clustering_kernel == "numpy" else "numpy"


def session_config(
    workload: Workload, extent: float, reference_kernels: str | None = None
) -> dict[str, Any]:
    """``ICPEConfig`` keyword arguments (``constraints`` as a plain dict).

    ``reference_kernels`` gives a configuration whose result set checks
    the workload's: that kernel pair on the serial backend.  Every run
    uses :func:`other_kernels`, so each workload is compared with an
    answer it did not compute; the golden file uses ``"python"``.  (The
    enumerator stays: FBA and VBA witness a pattern with different time
    sequences, and the digest covers them.)
    """
    config = {
        "epsilon": extent * EPSILON_PCT / 100,
        "cell_width": extent * GRID_PCT / 100,
        "min_pts": MIN_PTS,
        "constraints": dict(CONSTRAINTS),
        "enumerator": workload.enumerator,
        "max_delay": workload.max_delay,
        "clustering_kernel": workload.clustering_kernel,
        "enumeration_kernel": workload.enumeration_kernel,
        "backend": workload.backend,
        "parallel_workers": workload.workers,
    }
    if reference_kernels is not None:
        config.update(
            clustering_kernel=reference_kernels,
            enumeration_kernel=reference_kernels,
            backend="serial",
            parallel_workers=None,
        )
    return config
