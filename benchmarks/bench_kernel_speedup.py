"""Measured kernel scalability: reference python vs vectorized numpy.

The clustering phase is the per-snapshot hot path of ICPE and the axis of
the paper's Figs. 10-13.  This benchmark measures real wall-clock time of
the same workloads under the two snapshot-clustering kernel strategies:

* the **Fig. 10 clustering workload** (all three datasets at the default
  Table-3 parameters), clustered snapshot by snapshot per kernel — the
  vectorized kernel must record a speedup > 1.0x while producing the
  identical cluster set on every snapshot (enforced by the harness);
* the **full ICPE detection pipeline**, run per kernel under *both*
  execution backends — kernels and backends compose, and all four
  combinations must agree on the exact pattern set.

Results are written to ``benchmarks/results/kernel_speedup.txt``.
"""

import pytest

from benchmarks.conftest import (
    DEFAULT_CONSTRAINTS,
    DEFAULT_EPS_PCT,
    DEFAULT_GRID_PCT,
    MIN_PTS,
)
from repro.bench.harness import (
    detection_config,
    run_kernel_clustering_comparison,
    run_kernel_comparison,
)
from repro.bench.report import format_table, write_report

KERNELS = ("python", "numpy")
_results: list[dict] = []


@pytest.mark.parametrize("dataset_name", ["GeoLife", "Taxi", "Brinkhoff"])
def test_clustering_kernel_speedup(benchmark, datasets, dataset_name):
    dataset = datasets[dataset_name]

    def run():
        # Raises if the kernels disagree on any snapshot's clusters.
        return run_kernel_clustering_comparison(
            dataset, DEFAULT_EPS_PCT, DEFAULT_GRID_PCT, MIN_PTS,
            kernels=KERNELS,
        )

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    for point in points:
        _results.append(
            {
                "workload": f"fig10({dataset_name})",
                "kernel": point.kernel,
                "wall_s": point.wall_seconds,
                "speedup": point.speedup_vs_python,
                "clusters": point.clusters,
                "outputs_equal": "yes",
            }
        )
    numpy_point = next(p for p in points if p.kernel == "numpy")
    assert numpy_point.speedup_vs_python > 1.0, points


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_pipeline_kernel_equivalence(benchmark, datasets, backend):
    dataset = datasets["Taxi"]
    config = detection_config(
        dataset,
        DEFAULT_CONSTRAINTS,
        "F",
        DEFAULT_EPS_PCT,
        DEFAULT_GRID_PCT,
        MIN_PTS,
        backend=backend,
        parallel_workers=2 if backend == "process" else None,
    )

    def run():
        # Raises if the kernels disagree on the detected pattern set.
        return run_kernel_comparison(dataset, config, kernels=KERNELS)

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    for point in points:
        _results.append(
            {
                "workload": f"{point.workload}(Taxi)",
                "kernel": point.kernel,
                "wall_s": point.wall_seconds,
                "speedup": point.speedup_vs_python,
                "clusters": point.clusters,
                "outputs_equal": "yes",
            }
        )
    assert len({p.patterns for p in points}) == 1


def test_kernel_speedup_report(benchmark):
    if not _results:
        pytest.skip(
            "no kernel measurements collected this session; refusing to "
            "overwrite the recorded report with an empty table"
        )

    def build():
        return format_table(
            _results,
            title=(
                "Kernel scalability: measured wall-clock, reference python "
                "vs vectorized numpy clustering kernel"
            ),
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    write_report("kernel_speedup", text)
    print("\n" + text)
