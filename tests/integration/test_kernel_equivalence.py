"""Kernel x backend equivalence on the full ICPE pipeline.

The acceptance contract of the kernel strategy: for every combination of
``clustering_kernel`` (python | numpy) and ``backend`` (serial | process),
the pipeline must produce the identical per-snapshot cluster sets *and*
the identical downstream pattern set.  Same spirit as the serial/process
equivalence suite that guards the execution runtime.
"""

import itertools

import pytest

from repro.core.config import ICPEConfig
from repro.core.detector import CoMovementDetector
from repro.core.icpe import ICPEPipeline
from repro.data.taxi import TaxiConfig, generate_taxi
from repro.model.constraints import PatternConstraints

KERNELS = ("python", "numpy")
BACKENDS = ("serial", "process")


@pytest.fixture(scope="module")
def dataset():
    return generate_taxi(TaxiConfig(n_objects=70, horizon=18, seed=9))


@pytest.fixture(scope="module")
def base_config(dataset):
    return ICPEConfig(
        epsilon=dataset.resolve_percentage(0.06),
        cell_width=dataset.resolve_percentage(1.6),
        min_pts=3,
        constraints=PatternConstraints(m=3, k=5, l=2, g=2),
    )


def run_pipeline(dataset, config):
    """Run the dataset through a fresh pipeline; returns (clusters, patterns)."""
    pipeline = ICPEPipeline(config)
    cluster_trace = []
    try:
        for snapshot in dataset.snapshots():
            pipeline.process_snapshot(snapshot)
            clusters = pipeline.last_cluster_snapshot
            cluster_trace.append(
                (snapshot.time, tuple(sorted(clusters.clusters.items())))
            )
        pipeline.finish()
    finally:
        pipeline.close()
    signature = frozenset(
        (pattern.objects, tuple(pattern.times.times))
        for pattern in pipeline.patterns
    )
    return cluster_trace, signature


def test_kernel_backend_grid_identical(dataset, base_config):
    outcomes = {}
    for kernel, backend in itertools.product(KERNELS, BACKENDS):
        config = base_config.with_kernel(kernel).with_backend(
            backend, 2 if backend == "process" else None
        )
        outcomes[(kernel, backend)] = run_pipeline(dataset, config)
    ref_clusters, ref_patterns = outcomes[("python", "serial")]
    assert ref_patterns, "workload must produce patterns for a meaningful test"
    for combo, (clusters, patterns) in outcomes.items():
        assert clusters == ref_clusters, combo
        assert patterns == ref_patterns, combo


def test_detector_reports_kernel_and_backend(dataset, base_config):
    config = base_config.with_kernel("numpy").with_backend("process", 2)
    detector = CoMovementDetector(config)
    assert detector.kernel_name == "numpy"
    assert detector.backend_name == "process"
    detector.feed_many(dataset.records)
    detector.finish()
    assert detector.meter.snapshots > 0


def test_numpy_kernel_topology_is_single_cluster_stage(base_config):
    pipeline = ICPEPipeline(base_config.with_kernel("numpy"))
    try:
        assert [r.stage.name for r in pipeline.runtimes] == [
            "cluster",
            "enumerate",
        ]
        assert pipeline.kernel_name == "numpy"
    finally:
        pipeline.close()


def test_min_pts_one_isolated_point_identical(base_config):
    """Regression: with min_pts=1 every isolated point is a DBSCAN
    singleton core, but the reference pipeline stage only ever sees
    pair-connected oids — the kernel stage must match it, not textbook
    DBSCAN, for pipeline-level cluster equality."""
    import dataclasses

    from repro.model.snapshot import Snapshot

    config = dataclasses.replace(base_config, epsilon=1.0, min_pts=1)
    points = [(1, 0.0, 0.0), (2, 0.5, 0.0), (9, 50.0, 50.0)]
    outcomes = {}
    for kernel in KERNELS:
        pipeline = ICPEPipeline(config.with_kernel(kernel))
        try:
            pipeline.process_snapshot(Snapshot.from_points(1, points))
            outcomes[kernel] = (
                dict(pipeline.last_cluster_snapshot.clusters),
                pipeline.clusters_formed,
            )
            pipeline.finish()
        finally:
            pipeline.close()
    assert outcomes["numpy"] == outcomes["python"]
    assert outcomes["python"] == ({0: (1, 2)}, 1)


def test_stranded_core_singleton_kept_identically(base_config):
    """Regression: at min_pts >= 2 a core point whose border neighbours
    all attach to smaller-id cores elsewhere forms a *pair-connected*
    singleton cluster — the reference stage emits it, so the kernel stage
    must keep it (singletons are only dropped at min_pts=1)."""
    import dataclasses

    from repro.model.snapshot import Snapshot

    points = [
        (50, 5.0, 5.0),                                   # stranded core
        (11, 4.5, 5.0), (21, 5.6, 5.0), (31, 5.0, 5.9),   # its borders
        (10, 3.5, 5.0), (12, 3.0, 4.5), (13, 3.0, 5.5),   # blob 1
        (20, 6.6, 5.0), (22, 7.1, 4.5), (23, 7.1, 5.5),   # blob 2
        (30, 5.0, 6.9), (32, 4.4, 7.3), (33, 5.6, 7.3),   # blob 3
    ]
    config = dataclasses.replace(
        base_config, epsilon=1.0, cell_width=4.0, min_pts=4
    )
    traces = {}
    for kernel in KERNELS:
        pipeline = ICPEPipeline(config.with_kernel(kernel))
        try:
            pipeline.process_snapshot(Snapshot.from_points(1, points))
            traces[kernel] = dict(pipeline.last_cluster_snapshot.clusters)
            pipeline.finish()
        finally:
            pipeline.close()
    assert traces["numpy"] == traces["python"]
    assert (50,) in traces["python"].values()


def test_python_kernel_topology_unchanged(base_config):
    pipeline = ICPEPipeline(base_config)
    try:
        assert [r.stage.name for r in pipeline.runtimes] == [
            "allocate",
            "query",
            "cluster",
            "enumerate",
        ]
        assert pipeline.kernel_name == "python"
    finally:
        pipeline.close()
