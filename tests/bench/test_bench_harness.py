"""Benchmark harness smoke tests (fast configurations)."""

import math

import pytest

from repro.bench.harness import (
    average_detection_delay,
    clustering_join_settings,
    detection_config,
    earliest_confirmable,
    precluster,
    run_clustering_point,
    run_detection_point,
    run_enumeration_point,
    run_node_sweep,
)
from repro.model.pattern import CoMovementPattern
from repro.bench.params import PAPER_TABLE3, SCALED_TABLE3, table3_text
from repro.bench.report import format_table, write_report
from repro.data.brinkhoff import BrinkhoffConfig, generate_brinkhoff
from repro.model.constraints import PatternConstraints


@pytest.fixture(scope="module")
def small_dataset():
    return generate_brinkhoff(BrinkhoffConfig(n_objects=50, horizon=20, seed=5))


CONSTRAINTS = PatternConstraints(m=3, k=6, l=2, g=2)


class TestParams:
    def test_paper_table3_values(self):
        assert PAPER_TABLE3.m.values == (5, 10, 15, 20, 25)
        assert PAPER_TABLE3.k.default == 180
        assert PAPER_TABLE3.min_pts == 10

    def test_scaled_keeps_percentages(self):
        assert SCALED_TABLE3.epsilon_pct.values == PAPER_TABLE3.epsilon_pct.values
        assert SCALED_TABLE3.grid_pct.values == PAPER_TABLE3.grid_pct.values

    def test_table3_text_marks_defaults(self):
        text = table3_text(PAPER_TABLE3, "Table 3")
        assert "[180]" in text and "[0.06]" in text

    def test_default_must_be_in_values(self):
        from repro.bench.params import ParamRange

        with pytest.raises(ValueError):
            ParamRange("x", (1, 2), 3)


class TestClusteringRunner:
    @pytest.mark.parametrize("method", ["RJC", "SRJ", "GDC"])
    def test_runs_each_method(self, small_dataset, method):
        point = run_clustering_point(
            small_dataset, method, epsilon_pct=0.08, grid_pct=1.6, min_pts=3
        )
        assert point.method == method
        assert point.avg_latency_ms > 0
        assert point.throughput_tps > 0

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            clustering_join_settings("XXX", 1.0, 1.0)

    def test_method_settings(self):
        rjc = clustering_join_settings("RJC", 5.0, 100.0)
        assert rjc["lemma1"] and rjc["lemma2"] and not rjc["dedup"]
        gdc = clustering_join_settings("GDC", 5.0, 100.0)
        # GDC's defining property: cells tied to epsilon, linear scan.
        assert gdc["cell_width"] == 5.0
        assert gdc["local_index"] == "linear" and gdc["dedup"]

    def test_methods_agree_on_cluster_count(self, small_dataset):
        counts = {
            method: run_clustering_point(
                small_dataset, method, 0.08, 1.6, 3
            ).clusters
            for method in ("RJC", "SRJ", "GDC")
        }
        assert counts["RJC"] == counts["SRJ"] == counts["GDC"]


class TestDetectionRunner:
    def test_full_run(self, small_dataset):
        config = detection_config(
            small_dataset, CONSTRAINTS, "F", 0.08, 1.6, 3, n_nodes=4
        )
        point, pipeline = run_detection_point(
            small_dataset, config, "F", "eps", 0.08
        )
        assert point.completed
        assert pipeline is not None
        assert point.avg_latency_ms > 0

    def test_ba_explosion_reported_not_raised(self, small_dataset):
        config = detection_config(
            small_dataset, CONSTRAINTS, "B", 0.12, 1.6, 3
        )
        # Force a tiny cap so the explosion path triggers deterministically.
        from dataclasses import replace

        config = replace(config, ba_max_partition_size=2)
        point, pipeline = run_detection_point(
            small_dataset, config, "B", "Or", 1.0
        )
        assert not point.completed
        assert math.isnan(point.avg_latency_ms)
        assert pipeline is None

    def test_node_sweep_monotone_latency(self, small_dataset):
        config = detection_config(
            small_dataset, CONSTRAINTS, "F", 0.08, 1.6, 3, n_nodes=10,
            slots_per_node=2,
        )
        points = run_node_sweep(small_dataset, config, "F", (1, 2, 4, 8))
        latencies = [p.avg_latency_ms for p in points]
        throughputs = [p.throughput_tps for p in points]
        # Monotone within tolerance (placement wiggle; see Fig. 14 bench).
        for earlier, later in zip(latencies, latencies[1:]):
            assert later <= earlier * 1.02
        for earlier, later in zip(throughputs, throughputs[1:]):
            assert later >= earlier * 0.98


class TestBackendRunner:
    def test_backend_comparison_equal_patterns(self, small_dataset):
        from repro.bench.harness import run_backend_comparison

        config = detection_config(
            small_dataset, CONSTRAINTS, "F", 0.08, 1.6, 3
        )
        points = run_backend_comparison(
            small_dataset, config, parallel_workers=2
        )
        assert [p.backend for p in points] == ["serial", "process"]
        assert points[0].patterns == points[1].patterns
        assert points[0].speedup_vs_serial == 1.0
        assert all(p.wall_seconds > 0 for p in points)

    def test_kernel_sweep_requires_python_reference(self, small_dataset):
        """speedup_vs_python is measured against the 'python' row, so a
        sweep without the reference kernel is rejected up front."""
        import pytest

        from repro.bench.harness import (
            run_kernel_clustering_comparison,
            run_kernel_comparison,
        )

        with pytest.raises(ValueError, match="'python' reference kernel"):
            run_kernel_clustering_comparison(
                small_dataset, 0.08, 1.6, 3, kernels=("numpy",)
            )
        config = detection_config(
            small_dataset, CONSTRAINTS, "F", 0.08, 1.6, 3
        )
        with pytest.raises(ValueError, match="'python' reference kernel"):
            run_kernel_comparison(small_dataset, config, kernels=("numpy",))

    def test_process_sweep_identical_outputs(self):
        from repro.bench.process_workload import run_process_sweep

        points = run_process_sweep(
            parallelism=2,
            batches=1,
            elements_per_batch=4,
            cpu_iterations=10,
            stall_seconds=0.0,
            process_workers=(2,),
        )
        assert [p.backend for p in points] == ["serial", "process"]
        # run_process_sweep itself raises on digest divergence; the
        # single digest here is the belt to that suspenders.
        assert len({p.digest for p in points}) == 1
        for point in points:
            assert set(point.stage_busy_seconds) == {"hash-stall", "fold"}

    def test_clustering_runtimes_follow_pipeline_stages(self, small_dataset):
        from repro.bench.harness import build_clustering_runtimes
        from repro.core.icpe import icpe_stages

        epsilon = small_dataset.resolve_percentage(0.08)
        cell_width = small_dataset.resolve_percentage(1.6)
        runtimes = build_clustering_runtimes("RJC", epsilon, cell_width, 3)
        names = [runtime.stage.name for runtime in runtimes]
        assert names == ["allocate", "query", "cluster"]
        config = detection_config(small_dataset, CONSTRAINTS, "F", 0.08, 1.6, 3)
        pipeline_stages = icpe_stages(config)
        assert names == [stage.name for stage in pipeline_stages[:3]]
        assert [len(runtime.subtasks) for runtime in runtimes] == [
            stage.parallelism for stage in pipeline_stages[:3]
        ]


class TestEnumerationRunner:
    def test_enumeration_only(self, small_dataset):
        snapshots = precluster(small_dataset, 0.08, 1.6, 3)
        for method in ("F", "V"):
            point = run_enumeration_point(
                snapshots, CONSTRAINTS, method, "M", CONSTRAINTS.m
            )
            assert point.completed
            assert point.avg_latency_ms >= 0
            assert point.avg_delay_snapshots >= 0


class TestDetectionDelay:
    def test_earliest_confirmable_prefix(self):
        constraints = PatternConstraints(m=2, k=3, l=1, g=2)
        pattern = CoMovementPattern.of([1, 2], [4, 5, 6, 7, 8])
        # The 3-long prefix <4,5,6> is already valid.
        assert earliest_confirmable(pattern, constraints) == 6

    def test_average_detection_delay(self):
        constraints = PatternConstraints(m=2, k=3, l=1, g=2)
        pattern = CoMovementPattern.of([1, 2], [4, 5, 6])
        # Confirmable at 6; reported at 10 -> delay 4.
        assert average_detection_delay([(10, pattern)], constraints) == 4.0
        assert average_detection_delay([], constraints) == 0.0


class TestReport:
    def test_format_table(self):
        rows = [
            {"method": "RJC", "latency": 1.234, "tps": 456.7},
            {"method": "SRJ", "latency": float("nan"), "tps": 8.9},
        ]
        text = format_table(rows, title="Fig X")
        assert "Fig X" in text and "RJC" in text and "n/a" in text

    def test_empty_table(self):
        assert "(no data)" in format_table([], title="t")

    def test_write_report(self, tmp_path, monkeypatch):
        import repro.bench.report as report

        monkeypatch.setattr(report, "RESULTS_DIR", tmp_path)
        path = report.write_report("unit", "content")
        assert path.read_text() == "content\n"
