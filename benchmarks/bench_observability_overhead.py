"""Measured overhead of the observability subsystem (PR 9).

The same workload is detected three times on one session config:

* **bare** — no telemetry at all (`observability=None`), the baseline
  every pre-observability session ran at;
* **registry** — the in-memory hub only (`observability=True`): span
  recording on every operator invocation, per-stage counters, the
  latency histograms, watermark mirroring;
* **full export** — registry plus the JSONL metrics time series and
  the span trace file, the heaviest supported configuration.

The acceptance criterion: full telemetry (the heavier of the two
enabled modes) must cost **under 5%** end-to-end wall clock against
the bare run, and the instrumented runs must produce the identical
pattern set.  The three modes run interleaved, one run of each per
round for ``ROUNDS`` rounds, with a ``gc.collect()`` before every timed
run, and each mode's best run is compared: a host that slows down for a
few seconds slows every mode's runs in those rounds alike instead of
one mode's whole block, and the best run is the one least disturbed.

Results are written to ``benchmarks/results/observability_overhead.txt``.
"""

import gc
import time

import pytest

from repro.bench.report import format_table, write_report
from repro.core.config import ICPEConfig
from repro.data.taxi import TaxiConfig, generate_taxi
from repro.model.constraints import PatternConstraints
from repro.session import Session

ROUNDS = 5
MAX_OVERHEAD = 0.05
_results: list[dict] = []


@pytest.fixture(scope="module")
def overhead_workload():
    """An object-heavy taxi workload: many spans per watermark."""
    return generate_taxi(
        TaxiConfig(
            n_objects=400,
            horizon=40,
            seed=43,
            group_fraction=0.25,
            group_size=(5, 8),
        )
    )


def _config(dataset):
    return ICPEConfig(
        epsilon=dataset.resolve_percentage(0.06),
        cell_width=dataset.resolve_percentage(1.6),
        min_pts=5,
        constraints=PatternConstraints(m=5, k=10, l=2, g=2),
        enumerator="fba",
    )


def _signature(patterns):
    return {(p.objects, p.times.times) for p in patterns}


def _run_once(dataset, observability):
    session = Session(_config(dataset), observability=observability)
    gc.collect()
    started = time.perf_counter()
    for batch in dataset.batches(1024):
        session.feed_batch(batch)
    session.finish()
    elapsed = time.perf_counter() - started
    session.close()
    return elapsed, session.patterns


def test_observability_overhead(benchmark, overhead_workload, tmp_path):
    """Bare vs registry-only vs full-export sessions, same workload."""
    dataset = overhead_workload
    records = sum(1 for _ in dataset.records)

    modes = {
        "bare": None,
        "registry": True,
        "full": {
            "metrics_out": tmp_path / "metrics.jsonl",
            "metrics_every": 1,
            "trace_out": tmp_path / "trace.jsonl",
        },
    }

    def run():
        best = dict.fromkeys(modes, float("inf"))
        signatures = {}
        for _ in range(ROUNDS):
            for mode, observability in modes.items():
                elapsed, patterns = _run_once(dataset, observability)
                best[mode] = min(best[mode], elapsed)
                signatures[mode] = _signature(patterns)
        if signatures["registry"] != signatures["bare"]:
            raise AssertionError("registry telemetry changed the patterns")
        if signatures["full"] != signatures["bare"]:
            raise AssertionError("full telemetry changed the patterns")
        patterns = len(signatures["bare"])
        return best["bare"], best["registry"], best["full"], patterns

    bare_s, registry_s, full_s, patterns = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    for mode, wall in (
        ("bare (no telemetry)", bare_s),
        ("registry only", registry_s),
        ("full export (jsonl + trace)", full_s),
    ):
        overhead = wall / bare_s - 1.0
        _results.append(
            {
                "mode": mode,
                "records": records,
                "wall_s": wall,
                "records_per_s": round(records / wall),
                "overhead_pct": f"{overhead * 100:+.2f}%",
                "patterns": patterns,
            }
        )
    assert patterns > 0, "the workload must produce patterns"
    worst = max(registry_s, full_s)
    overhead = worst / bare_s - 1.0
    assert overhead < MAX_OVERHEAD, (
        f"telemetry overhead must stay under {MAX_OVERHEAD:.0%}, measured "
        f"{overhead:.2%} (bare {bare_s:.3f}s, registry {registry_s:.3f}s, "
        f"full {full_s:.3f}s)"
    )


def test_observability_overhead_report(benchmark):
    if not _results:
        pytest.skip(
            "no overhead measurements collected this session; refusing to "
            "overwrite the recorded report with an empty table"
        )

    def build():
        return format_table(
            _results,
            title=(
                "Observability overhead: bare vs registry vs full-export "
                f"sessions (best of {ROUNDS} interleaved rounds, acceptance < "
                f"{MAX_OVERHEAD:.0%})"
            ),
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    write_report("observability_overhead", text)
    print("\n" + text)
