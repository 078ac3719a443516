"""Measured enumeration-kernel scalability: reference python vs numpy.

Pattern enumeration (the PED phase) is the second hot path of ICPE —
once the clustering kernel is vectorized, the per-anchor bit-string
state machines dominate.  This benchmark measures real wall-clock time
of the same workloads under the two enumeration-kernel strategies:

* the **Fig. 12/13 enumeration workload** (the dense co-moving group
  mixes of the detection sweeps, pre-clustered at the default Table-3
  parameters — Section 7.3's "clustering omitted" methodology), run per
  enumerator (FBA / VBA) and per kernel — the vectorized kernel must
  record a speedup > 1.0x while producing the identical pattern set
  (enforced by the harness);
* the **full ICPE detection pipeline**, run per kernel under *both*
  execution backends — enumeration kernels compose with backends and
  clustering kernels, and every combination must agree on the exact
  pattern set.

Results are written to ``benchmarks/results/enum_kernel_speedup.txt``.
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
    precluster,
    run_enum_kernel_comparison,
    run_enum_kernel_enumeration_comparison,
)
from repro.bench.report import format_table, write_report

KERNELS = ("python", "numpy")
_results: list[dict] = []


@pytest.mark.parametrize("dataset_name", ["Taxi", "Brinkhoff"])
@pytest.mark.parametrize("enumerator", ["fba", "vba"])
def test_enumeration_kernel_speedup(
    benchmark, datasets_dense, dataset_name, enumerator
):
    cluster_snapshots = precluster(
        datasets_dense[dataset_name],
        DEFAULT_EPS_PCT,
        DEFAULT_GRID_PCT,
        MIN_PTS,
    )

    def run():
        # Raises if the kernels disagree on the detected pattern set.
        return run_enum_kernel_enumeration_comparison(
            cluster_snapshots,
            DEFAULT_CONSTRAINTS,
            enumerator,
            kernels=KERNELS,
        )

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    for point in points:
        _results.append(
            {
                "workload": f"{point.workload}({dataset_name})",
                "kernel": point.kernel,
                "wall_s": point.wall_seconds,
                "speedup": point.speedup_vs_python,
                "patterns": point.patterns,
                "outputs_equal": "yes",
            }
        )
    numpy_point = next(p for p in points if p.kernel == "numpy")
    assert numpy_point.speedup_vs_python > 1.0, points


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_pipeline_enum_kernel_equivalence(benchmark, datasets_dense, backend):
    dataset = datasets_dense["Taxi"]
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
        return run_enum_kernel_comparison(dataset, config, kernels=KERNELS)

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    for point in points:
        _results.append(
            {
                "workload": f"{point.workload}(Taxi)",
                "kernel": point.kernel,
                "wall_s": point.wall_seconds,
                "speedup": point.speedup_vs_python,
                "patterns": point.patterns,
                "outputs_equal": "yes",
            }
        )
    assert len({p.patterns for p in points}) == 1


def test_enum_kernel_speedup_report(benchmark):
    if not _results:
        pytest.skip(
            "no enumeration-kernel measurements collected this session; "
            "refusing to overwrite the recorded report with an empty table"
        )

    def build():
        return format_table(
            _results,
            title=(
                "Enumeration-kernel scalability: measured wall-clock, "
                "reference python vs batched numpy enumeration kernel"
            ),
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    write_report("enum_kernel_speedup", text)
    print("\n" + text)
