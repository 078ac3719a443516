"""Benchmark harness: parameters, sweep runners and report formatting.

Each figure/table of the paper's evaluation (Section 7) has a runner here
and a regenerating module under ``benchmarks/``; ``EXPERIMENTS.md`` records
paper-vs-measured outcomes.  Beyond the paper's simulated-cluster sweeps,
:mod:`repro.bench.process_workload` and the backend-comparison runner
measure *real* wall-clock scalability of the process execution backend.
"""

from repro.bench.params import BenchParams, PAPER_TABLE3, SCALED_TABLE3
from repro.bench.harness import (
    BackendPoint,
    ClusteringPoint,
    DetectionPoint,
    EnumerationPoint,
    average_detection_delay,
    build_clustering_runtimes,
    clustering_join_settings,
    earliest_confirmable,
    run_backend_comparison,
    run_clustering_point,
    run_detection_point,
    run_enumeration_point,
    run_node_sweep,
)
from repro.bench.report import format_table, write_report
from repro.bench.sparkline import series_block, sparkline

__all__ = [
    "BackendPoint",
    "BenchParams",
    "ClusteringPoint",
    "DetectionPoint",
    "EnumerationPoint",
    "PAPER_TABLE3",
    "SCALED_TABLE3",
    "average_detection_delay",
    "build_clustering_runtimes",
    "clustering_join_settings",
    "earliest_confirmable",
    "format_table",
    "run_backend_comparison",
    "run_clustering_point",
    "run_detection_point",
    "run_enumeration_point",
    "run_node_sweep",
    "series_block",
    "sparkline",
    "write_report",
]
