"""Measured ingest throughput: per-point ``feed`` vs columnar batches.

The end-to-end ingestion benchmark of the batch data plane (PR 5).  The
workload is the Fig. 12 Or-sweep shape scaled along the *object* axis —
many trajectories reporting per snapshot, the regime where the paper's
pipeline is throughput-bound at ingestion rather than at enumeration —
detected with the vectorized NumPy clustering and enumeration kernels so
the data plane, not the kernels, is what the two paths differ in:

* **per-point** — every record through ``Session.feed`` (the
  synchronisation operator's scalar update, then the columnar pipeline);
* **batched** — the identical record stream through
  ``Session.feed_batch`` in columnar ``RecordBatch`` chunks.

The two paths must produce the identical pattern set, and batched
ingest must stay at least 1.15x per-point ingest (measured 1.3-1.4x;
clustering and enumeration are common to both and bound the ratio).
Per-point ingest has its own budget: the same per-point run with the
time-synchronisation operator swapped for the retained row-at-a-time
chain walk (``tests/streaming/reference_sync.py``) is the yardstick, and
``Session.feed`` on the array state must stay within 1.25x of it per
record.  A last measurement quantifies the
zero-sink dispatch short-circuit: a session with no subscribed sinks
against the same run with one no-op sink.

Ingest starts one layer earlier, at the CSV file.  On a ``save_csv`` file
of more than 100,000 rows, ``iter_csv_batches`` (blocks of lines through
NumPy's C parser) must give the batches of the ``csv``-module reference
reader (``tests/data/reference_csv.py``) at 2.5x its records/s or more.

Every figure is the best of ``ROUNDS`` interleaved runs: this host slows
one-sidedly for seconds at a time, and the gates compare ratios.

Results are written to ``benchmarks/results/ingest_speedup.txt``.
"""

import time

import pytest

from repro.bench.report import format_table, write_report
from repro.core.config import ICPEConfig
from repro.data import iter_csv_batches
from repro.data.taxi import TaxiConfig, generate_taxi
from repro.model.batch import SnapshotBatch
from repro.model.constraints import PatternConstraints
from repro.session import Session
from tests.data.reference_csv import reference_csv_batches
from tests.streaming.reference_sync import _ChainWalkSync

BATCH_SIZE = 2048
ROUNDS = 3
#: The CLI's and the end-to-end bench's batch size for CSV ingest.
CSV_BATCH_SIZE = 1024
MIN_CSV_PARSE_SPEEDUP = 2.5
_results: list[dict] = []


class _SessionChainWalk(_ChainWalkSync):
    """The chain walk behind the session's sync contract: every call
    returns :class:`SnapshotBatch` envelopes, as the array operator's do."""

    def feed(self, record):
        return [SnapshotBatch.from_snapshot(s) for s in super().feed(record)]

    def flush(self):
        return super().flush(columnar=True)


@pytest.fixture(scope="module")
def ingest_workload():
    """Object-heavy Fig. 12-style taxi workload (Or-sweep axis scaled up)."""
    return generate_taxi(
        TaxiConfig(
            n_objects=600,
            horizon=50,
            seed=41,
            group_fraction=0.25,
            group_size=(6, 10),
        )
    )


def _config(dataset):
    return ICPEConfig(
        epsilon=dataset.resolve_percentage(0.06),
        cell_width=dataset.resolve_percentage(1.6),
        min_pts=5,
        constraints=PatternConstraints(m=6, k=12, l=2, g=2),
        clustering_kernel="numpy",
        enumeration_kernel="numpy",
        enumerator="fba",
    )


def _signature(patterns):
    return {(p.objects, p.times.times) for p in patterns}


def _run_per_point(dataset, sinks=(), chain_walk=False):
    session = Session(_config(dataset), sinks=sinks)
    if chain_walk:
        # The yardstick: same session, reference time synchronisation.
        session._sync = _SessionChainWalk(
            session.config.max_delay, session.config.trajectory_ttl
        )
    started = time.perf_counter()
    for record in dataset.records:
        session.feed(record)
    session.finish()
    elapsed = time.perf_counter() - started
    session.close()
    return elapsed, session.patterns


def _run_batched(dataset, sinks=()):
    session = Session(_config(dataset), sinks=sinks)
    started = time.perf_counter()
    for batch in dataset.batches(BATCH_SIZE):
        session.feed_batch(batch)
    session.finish()
    elapsed = time.perf_counter() - started
    session.close()
    return elapsed, session.patterns


def test_batched_ingest_speedup(benchmark, ingest_workload):
    """Per-point vs batched end-to-end ingest on the same session config."""
    dataset = ingest_workload
    records = len(dataset.records)

    def run():
        walk_s = point_s = batch_s = float("inf")
        for _ in range(ROUNDS):
            elapsed, walk_patterns = _run_per_point(dataset, chain_walk=True)
            walk_s = min(walk_s, elapsed)
            elapsed, point_patterns = _run_per_point(dataset)
            point_s = min(point_s, elapsed)
            elapsed, batch_patterns = _run_batched(dataset)
            batch_s = min(batch_s, elapsed)
            if not (
                _signature(walk_patterns)
                == _signature(point_patterns)
                == _signature(batch_patterns)
            ):
                raise AssertionError(
                    "per-point and batched ingestion disagree on patterns"
                )
        return walk_s, point_s, batch_s, len(batch_patterns)

    walk_s, point_s, batch_s, patterns = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    for path, wall in (
        ("per-point feed, chain-walk sync", walk_s),
        ("per-point feed", point_s),
        ("batched feed_batch", batch_s),
    ):
        _results.append(
            {
                "path": path,
                "records": records,
                "wall_s": wall,
                "records_per_s": round(records / wall),
                "us_per_record": round(wall / records * 1e6, 1),
                "speedup": wall and point_s / wall,
                "patterns": patterns,
                "patterns_equal": "yes",
            }
        )
    assert patterns > 0, "the workload must produce patterns"
    assert point_s <= 1.25 * walk_s, (
        f"per-point ingest must stay within 1.25x of the chain-walk "
        f"yardstick per record, measured {point_s / walk_s:.2f}x "
        f"({point_s:.3f}s vs {walk_s:.3f}s)"
    )
    assert point_s / batch_s >= 1.15, (
        f"batched ingest must be >= 1.15x per-point, measured "
        f"{point_s / batch_s:.2f}x ({point_s:.3f}s vs {batch_s:.3f}s)"
    )


def test_zero_sink_dispatch_short_circuit(benchmark, ingest_workload):
    """Quantify the feed_many fix: no subscribers must not pay dispatch."""
    dataset = ingest_workload
    records = len(dataset.records)

    def run():
        no_sink_s, _ = _run_batched(dataset)
        noop_sink_s, _ = _run_batched(dataset, sinks=(lambda event: None,))
        return no_sink_s, noop_sink_s

    no_sink_s, noop_sink_s = benchmark.pedantic(run, rounds=1, iterations=1)
    for path, wall in (
        ("batched, zero sinks", no_sink_s),
        ("batched, one no-op sink", noop_sink_s),
    ):
        _results.append(
            {
                "path": path,
                "records": records,
                "wall_s": wall,
                "records_per_s": round(records / wall),
                "us_per_record": round(wall / records * 1e6, 1),
                "speedup": "",
                "patterns": "",
                "patterns_equal": "",
            }
        )
    # The zero-sink run must never be slower than dispatching to a sink
    # (generous bound: this guards the short-circuit, not the noise).
    assert no_sink_s <= noop_sink_s * 1.25


@pytest.fixture(scope="module")
def ingest_csv(tmp_path_factory):
    """A ``save_csv`` file of the ingest workload's shape, 104,583 rows."""
    dataset = generate_taxi(
        TaxiConfig(
            n_objects=2400,
            horizon=50,
            seed=41,
            group_fraction=0.25,
            group_size=(6, 10),
        )
    )
    path = tmp_path_factory.mktemp("ingest") / "taxi.csv"
    dataset.save_csv(path)
    return path, len(dataset)


def _parse(reader, path):
    started = time.perf_counter()
    batches = list(reader(path, CSV_BATCH_SIZE))
    return time.perf_counter() - started, batches


def _same_batches(left, right):
    return len(left) == len(right) and all(
        getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for a, b in zip(left, right)
        for name in ("oids", "xs", "ys", "times", "last_times")
    )


def test_csv_parse_speedup(benchmark, ingest_csv):
    """``iter_csv_batches`` vs the ``csv``-module reader on one file."""
    path, records = ingest_csv
    assert records >= 100_000

    def run():
        reference_s = reader_s = float("inf")
        for _ in range(ROUNDS):
            elapsed, reference = _parse(reference_csv_batches, path)
            reference_s = min(reference_s, elapsed)
            elapsed, batches = _parse(iter_csv_batches, path)
            reader_s = min(reader_s, elapsed)
            if not _same_batches(batches, reference):
                raise AssertionError(
                    "iter_csv_batches and the reference reader disagree"
                )
        return reference_s, reader_s

    reference_s, reader_s = benchmark.pedantic(run, rounds=1, iterations=1)
    for label, wall in (
        ("CSV parse, csv-module reference reader", reference_s),
        ("CSV parse, iter_csv_batches", reader_s),
    ):
        _results.append(
            {
                "path": label,
                "records": records,
                "wall_s": wall,
                "records_per_s": round(records / wall),
                "us_per_record": round(wall / records * 1e6, 2),
                "speedup": reference_s / wall,
                "patterns": "",
                "patterns_equal": "batches equal",
            }
        )
    speedup = reference_s / reader_s
    assert speedup >= MIN_CSV_PARSE_SPEEDUP, (
        f"iter_csv_batches must parse at >= {MIN_CSV_PARSE_SPEEDUP}x the "
        f"reference reader's records/s, measured {speedup:.2f}x "
        f"({reader_s:.3f}s vs {reference_s:.3f}s for {records} rows)"
    )


def test_ingest_speedup_report(benchmark):
    if not _results:
        pytest.skip(
            "no ingest measurements collected this session; refusing to "
            "overwrite the recorded report with an empty table"
        )

    def build():
        return format_table(
            _results,
            title=(
                "Ingest throughput: per-point Session.feed vs columnar "
                f"RecordBatch ingestion (batch={BATCH_SIZE}, numpy kernels); "
                "CSV parse into batches of "
                f"{CSV_BATCH_SIZE} (speedup over the csv-module reader)"
            ),
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    write_report("ingest_speedup", text)
    print("\n" + text)
