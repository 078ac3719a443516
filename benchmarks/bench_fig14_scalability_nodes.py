"""Fig. 14: pattern detection performance vs number of cluster nodes N.

Paper shape: average latency drops and throughput rises as nodes are
added, flattening once the dominant subtask can no longer be split.  One
pipeline execution per method is re-scored under every N via the cluster
cost model (per-subtask busy times are N-independent).

The process-backend section measures the same scaling question with
*real* shared-nothing workers instead of the cost model: serial vs
process pools of growing size over a distributed-shape workload (see :mod:`repro.bench.process_workload`),
plus a full-ICPE serial ≡ process equivalence run.  Results land in
``benchmarks/results/fig14_process_speedup.txt``.
"""

import pytest

from benchmarks.conftest import (
    DEFAULT_CONSTRAINTS,
    DEFAULT_EPS_PCT,
    DEFAULT_GRID_PCT,
    DEFAULTS,
    MIN_PTS,
)
from repro.bench.harness import (
    detection_config,
    run_backend_comparison,
    run_node_sweep,
)
from repro.bench.process_workload import run_process_sweep
from repro.bench.report import format_table, write_report
from repro.streaming.runtime import available_cpu_count

NODES = DEFAULTS.nodes.values
_results: list[dict] = []
_process_results: list[dict] = []
_stage_results: list[dict] = []
_icpe_results: list[dict] = []


@pytest.mark.parametrize("dataset_name", ["Taxi", "Brinkhoff"])
@pytest.mark.parametrize("method", ["F", "V"])
def test_detection_vs_nodes(benchmark, datasets, dataset_name, method):
    dataset = datasets[dataset_name]
    config = detection_config(
        dataset,
        DEFAULT_CONSTRAINTS,
        method,
        DEFAULT_EPS_PCT,
        DEFAULT_GRID_PCT,
        MIN_PTS,
        n_nodes=DEFAULTS.nodes.default,
        # Few slots per node so that one node is contended and ten are not
        # (the paper's per-subtask work is orders of magnitude heavier, so
        # its 24-core nodes sit in the same contended-to-spread regime).
        slots_per_node=2,
    )

    def run():
        return run_node_sweep(dataset, config, method, NODES)

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    for point in points:
        _results.append(
            {
                "dataset": dataset_name,
                "method": method,
                "N": int(point.value),
                "latency_ms": point.avg_latency_ms,
                "throughput_tps": point.throughput_tps,
            }
        )
    # Monotone within a 2% tolerance: round-robin placement can co-locate
    # two heavy subtasks at some N and produce a hair-width wiggle.
    latencies = [p.avg_latency_ms for p in points]
    throughputs = [p.throughput_tps for p in points]
    for earlier, later in zip(latencies, latencies[1:]):
        assert later <= earlier * 1.02, latencies
    for earlier, later in zip(throughputs, throughputs[1:]):
        assert later >= earlier * 0.98, throughputs


def test_process_backend_speedup(benchmark):
    """Real worker processes vs serial on the distributed-shape workload.

    Unlike the cost-model sweep above, every row here is measured
    wall-clock of actual execution; the acceptance bar is >= 2x
    end-to-end over serial at the 4-worker process pool.
    """

    def run():
        return run_process_sweep(
            parallelism=8,
            batches=4,
            elements_per_batch=32,
            cpu_iterations=1_000,
            stall_seconds=0.02,
            process_workers=(1, 2, 4),
        )

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    for point in points:
        _process_results.append(
            {
                "backend": point.backend,
                "workers": point.workers,
                "wall_s": point.wall_seconds,
                "speedup": point.speedup_vs_serial,
                "outputs_equal": "yes",  # run_process_sweep raised otherwise
            }
        )
        for stage, busy in sorted(point.stage_busy_seconds.items()):
            _stage_results.append(
                {
                    "backend": point.backend,
                    "workers": point.workers,
                    "stage": stage,
                    "busy_s": busy,
                }
            )
    four = next(
        p for p in points if p.backend == "process" and p.workers == 4
    )
    assert four.speedup_vs_serial >= 2.0, points
    assert len({p.digest for p in points}) == 1


@pytest.mark.parametrize("dataset_name", ["Taxi"])
def test_process_icpe_equivalence(benchmark, datasets, dataset_name):
    """Full ICPE pipeline, serial vs process: identical pattern sets.

    The pure-Python operator work dominates here, so no speedup is
    claimed — this run pins the correctness half of the story: the
    shared-memory exchange path detects exactly the serial pattern set.
    """
    dataset = datasets[dataset_name]
    config = detection_config(
        dataset,
        DEFAULT_CONSTRAINTS,
        "F",
        DEFAULT_EPS_PCT,
        DEFAULT_GRID_PCT,
        MIN_PTS,
    )

    def run():
        # run_backend_comparison raises if the pattern sets differ.
        return run_backend_comparison(
            dataset, config, backends=("serial", "process"),
            parallel_workers=2,
        )

    points = benchmark.pedantic(run, rounds=1, iterations=1)
    for point in points:
        _icpe_results.append(
            {
                "workload": f"icpe({dataset_name})",
                "backend": point.backend,
                "workers": 2 if point.backend == "process" else 1,
                "wall_s": point.wall_seconds,
                "patterns": point.patterns,
                "patterns_equal": "yes",
            }
        )
    assert len({p.patterns for p in points}) == 1


def test_fig14_process_report(benchmark):
    if not _process_results:
        pytest.skip(
            "no process-backend measurements collected this session; "
            "refusing to overwrite the recorded report with an empty table"
        )

    def build():
        text = format_table(
            _process_results,
            title=(
                "Fig. 14 (measured): serial vs shared-nothing process "
                "pools"
            ),
        )
        text += "\n\n" + format_table(
            _stage_results,
            title=(
                "Per-stage busy seconds (StageWork ledger; measured "
                "inside the workers under the process backend)"
            ),
        )
        if _icpe_results:
            text += "\n\n" + format_table(
                _icpe_results,
                title=(
                    "Full ICPE pipeline: serial vs process pattern-set "
                    "equality (correctness, not speedup)"
                ),
            )
        text += (
            "\n\nHardware note: recorded on a container with "
            f"{available_cpu_count()} usable CPU core(s).  The workload "
            "is the distributed-shape synthetic stage pair from "
            "repro.bench.process_workload (GIL-releasing CPU kernel + "
            "exchange stall per subtask per unit): the speedup comes "
            "from the pools "
            "overlapping per-subtask stalls, which is what scaling out "
            "buys on exchange-bound stages regardless of core count.  "
            "Worker spawn is excluded (happens at bind_graph, before "
            "the timer); per-subtask busy times cross the process boundary "
            "in the StageWork ledger.  The pure-Python full-ICPE run "
            "gains nothing on this host and is included for output "
            "equality only."
        )
        return text

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    write_report("fig14_process_speedup", text)
    print("\n" + text)


def test_fig14_report(benchmark):
    def build():
        return format_table(
            sorted(_results, key=lambda r: (r["dataset"], r["method"], r["N"])),
            title="Fig. 14: detection performance vs number of nodes N",
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    from repro.bench.sparkline import series_block
    text += "\n\n" + series_block(
        _results, ["dataset", "method"], x="N", y="latency_ms",
        title="latency_ms vs N (per dataset/method)",
    ) + "\n\n" + series_block(
        _results, ["dataset", "method"], x="N", y="throughput_tps",
        title="throughput_tps vs N (per dataset/method)",
    )
    write_report("fig14_scalability_nodes", text)
    print("\n" + text)
