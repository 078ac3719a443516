"""Sweep runners for the paper's experiments.

Three measurement modes, matching what each figure isolates:

* clustering-only (Figs. 10-11): the clustering phase of the dataflow
  (GridAllocate -> GridQuery -> GridSync/DBSCAN) per method, scored by the
  distributed cost model.  SRJ is the GR-index join without Lemmas 1-2;
  GDC is grid DBSCAN "extended to Flink": epsilon-width cells, full 3x3
  replication, linear in-cell scan — which is why its partition count
  explodes, exactly the behaviour the paper attributes to it;
* full detection (Figs. 12-14): the ICPE pipeline with per-subtask busy
  accounting scored by the cluster cost model.  The *latency* the paper
  reports for B/F/V is the detection response time — how long after a
  pattern becomes confirmable the system reports it — which is the
  quantity VBA trades away for throughput; we measure it in snapshot
  units via :func:`detection_delay_snapshots`;
* enumeration-only (Fig. 15): BA/FBA/VBA over a pre-clustered stream
  ("clustering omitted as its performance is not affected by the
  constraints" — Section 7.3).
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, replace

from repro.cluster.rjc import ClusteringConfig, RJCClusterer
from repro.core.config import ICPEConfig
from repro.core.icpe import ICPEPipeline, describe_clustering_stages
from repro.data.dataset import TrajectoryDataset
from repro.enumeration.base import PatternCollector
from repro.enumeration.baseline import BAEnumerator, PartitionTooLargeError
from repro.enumeration.fba import FBAEnumerator
from repro.enumeration.partition import PartitionRouter
from repro.enumeration.vba import VBAEnumerator
from repro.geometry.distance import l1_distance
from repro.model.constraints import PatternConstraints
from repro.model.pattern import CoMovementPattern
from repro.model.snapshot import ClusterSnapshot
from repro.model.timeseq import TimeSequence
from repro.streaming.cluster import ClusterModel, ClusterRun
from repro.streaming.dataflow import StageRuntime
from repro.streaming.runtime import execute_unit

CLUSTERING_METHODS = ("RJC", "SRJ", "GDC")
ENUMERATORS = ("B", "F", "V")

_ENUM_NAME = {"B": "baseline", "F": "fba", "V": "vba"}


def registered_strategy_names(
    kind: str, reference: str | None = None
) -> tuple[str, ...]:
    """Sweepable plugin names of one strategy axis, reference first.

    Reads the plugin registry (so entry-point plugins join sweeps
    automatically) and moves ``reference`` — the row speedups are
    measured against — to the front when present.  The backend / kernel
    comparison runners use this as their default instead of hardcoded
    name lists.
    """
    from repro.registry import default_registry

    names = list(default_registry().names(kind))
    if reference is not None and reference in names:
        names.remove(reference)
        names.insert(0, reference)
    return tuple(names)


# --------------------------------------------------------------------- points


@dataclass(frozen=True, slots=True)
class ClusteringPoint:
    """One (method, parameter) sample of Figs. 10-11."""

    method: str
    epsilon_pct: float
    grid_pct: float
    avg_latency_ms: float
    throughput_tps: float
    clusters: int


@dataclass(frozen=True, slots=True)
class DetectionPoint:
    """One (method, parameter) sample of Figs. 12-14.

    ``avg_latency_ms`` is the cost-model per-snapshot processing latency;
    ``avg_delay_snapshots`` is the detection response time in snapshot
    units (how long after a pattern became confirmable it was reported) —
    the paper's F-vs-V latency story.
    """

    method: str
    parameter: str
    value: float
    avg_latency_ms: float
    throughput_tps: float
    avg_cluster_size: float
    patterns: int
    avg_delay_snapshots: float = 0.0
    completed: bool = True


@dataclass(frozen=True, slots=True)
class EnumerationPoint:
    """One (algorithm, constraint) sample of Fig. 15."""

    method: str
    parameter: str
    value: int
    avg_latency_ms: float
    throughput_tps: float
    patterns: int
    avg_delay_snapshots: float = 0.0
    completed: bool = True


# ------------------------------------------------------------ response time


def earliest_confirmable(
    pattern: CoMovementPattern, constraints: PatternConstraints
) -> int:
    """First stream time at which the pattern's witness became valid.

    The shortest prefix of the witness sequence satisfying (K, L, G) marks
    the moment an ideal online detector could have reported the pattern.
    """
    times = pattern.times.times
    for index in range(len(times)):
        prefix = TimeSequence(times[: index + 1])
        if constraints.sequence_valid(prefix):
            return times[index]
    return times[-1]


def average_detection_delay(
    detections: list[tuple[int, CoMovementPattern]],
    constraints: PatternConstraints,
) -> float:
    """Mean (emission time - earliest confirmable time) in snapshot units."""
    if not detections:
        return 0.0
    total = sum(
        emit_time - earliest_confirmable(pattern, constraints)
        for emit_time, pattern in detections
    )
    return total / len(detections)


# ---------------------------------------------------------------- clustering


def clustering_join_settings(
    method: str, epsilon: float, cell_width: float
) -> dict:
    """Join-stage settings realising each Fig. 10 method on the dataflow.

    * RJC — the paper's method: lg cells, both lemmas, local R-trees.
    * SRJ — full-region replication, build-then-query, post-hoc dedup.
    * GDC — grid DBSCAN on Flink: epsilon-width cells (hence the partition
      explosion), full 3x3-block replication, linear in-cell scan.
    """
    if method == "RJC":
        return dict(
            cell_width=cell_width, lemma1=True, lemma2=True,
            local_index="rtree", dedup=False,
        )
    if method == "SRJ":
        return dict(
            cell_width=cell_width, lemma1=False, lemma2=False,
            local_index="rtree", dedup=True,
        )
    if method == "GDC":
        return dict(
            cell_width=epsilon, lemma1=False, lemma2=False,
            local_index="linear", dedup=True,
        )
    raise ValueError(f"unknown clustering method {method!r}")


def build_clustering_runtimes(
    method: str,
    epsilon: float,
    cell_width: float,
    min_pts: int,
    allocate_parallelism: int = 8,
    query_parallelism: int = 16,
) -> list[StageRuntime]:
    """The clustering phase of the job graph for one method, instantiated.

    Described through the same :func:`describe_clustering_stages` helper
    the full ICPE pipeline uses, so the bench provably measures the
    pipeline's topology; run with :func:`execute_unit` on the serial
    backend.
    """
    settings = clustering_join_settings(method, epsilon, cell_width)
    stages = describe_clustering_stages(
        epsilon=epsilon,
        cell_width=settings["cell_width"],
        min_pts=min_pts,
        significance=2,
        metric=l1_distance,
        lemma1=settings["lemma1"],
        lemma2=settings["lemma2"],
        local_index=settings["local_index"],
        dedup=settings["dedup"],
        allocate_parallelism=allocate_parallelism,
        query_parallelism=query_parallelism,
    )
    return [StageRuntime(stage) for stage in stages]


def run_clustering_point(
    dataset: TrajectoryDataset,
    method: str,
    epsilon_pct: float,
    grid_pct: float,
    min_pts: int,
    n_nodes: int = 10,
) -> ClusteringPoint:
    """Measure one clustering configuration over the whole dataset.

    Latency/throughput come from the distributed cost model over the
    measured per-subtask busy times — the setting the paper's Fig. 10-11
    numbers describe (an 11-node Flink cluster).
    """
    epsilon = dataset.resolve_percentage(epsilon_pct)
    cell_width = dataset.resolve_percentage(grid_pct)
    runtimes = build_clustering_runtimes(method, epsilon, cell_width, min_pts)
    run = ClusterRun(model=ClusterModel(n_nodes=n_nodes))
    for snapshot in dataset.snapshots():
        _outputs, works = execute_unit(
            runtimes, snapshot.points(), ctx=snapshot.time
        )
        run.record(works)
    cluster_operator = runtimes[-1].subtasks[0]
    return ClusteringPoint(
        method=method,
        epsilon_pct=epsilon_pct,
        grid_pct=grid_pct,
        avg_latency_ms=run.average_latency_ms(),
        throughput_tps=run.throughput_tps(),
        clusters=cluster_operator.clusters_formed,
    )


# ----------------------------------------------------------------- detection


def detection_config(
    dataset: TrajectoryDataset,
    constraints: PatternConstraints,
    enumerator: str,
    epsilon_pct: float,
    grid_pct: float,
    min_pts: int,
    n_nodes: int = 10,
    slots_per_node: int = 24,
    backend: str = "serial",
    parallel_workers: int | None = None,
) -> ICPEConfig:
    """ICPE configuration resolved against a dataset's extent.

    ``slots_per_node`` is the per-node parallel capacity of the simulated
    cluster.  The node-scalability sweep (Fig. 14) uses a small value so
    that subtasks contend on few nodes and spread with many — the regime
    the paper's (much heavier per-subtask) workloads are in.
    ``backend`` selects the execution backend actually running the job
    graph (measured, not simulated, parallelism).  The stage fan-out is
    the paper's 8/16/16 whatever the backend: the cost model places
    subtasks on N simulated nodes, which needs subtasks to spread.
    """
    return ICPEConfig(
        epsilon=dataset.resolve_percentage(epsilon_pct),
        cell_width=dataset.resolve_percentage(grid_pct),
        min_pts=min_pts,
        constraints=constraints,
        enumerator=_ENUM_NAME[enumerator],
        allocate_parallelism=8,
        query_parallelism=16,
        enumerate_parallelism=16,
        cluster=ClusterModel(n_nodes=n_nodes, cores_per_node=slots_per_node),
        backend=backend,
        parallel_workers=parallel_workers,
    )


def run_detection_point(
    dataset: TrajectoryDataset,
    config: ICPEConfig,
    method: str,
    parameter: str,
    value: float,
    keep_works: bool = False,
) -> tuple[DetectionPoint, ICPEPipeline | None]:
    """Run the full pipeline once; returns the sample and the pipeline.

    BA configurations that exceed the subset cap return a ``completed=
    False`` sample — the paper's "B cannot run" outcome in Fig. 12.
    """
    pipeline = ICPEPipeline(config, keep_works=keep_works)
    try:
        for snapshot in dataset.snapshots():
            pipeline.process_snapshot(snapshot)
        pipeline.finish()
    except PartitionTooLargeError:
        pipeline.close()
        return (
            DetectionPoint(
                method=method,
                parameter=parameter,
                value=value,
                avg_latency_ms=float("nan"),
                throughput_tps=float("nan"),
                avg_cluster_size=pipeline.average_cluster_size(),
                patterns=0,
                completed=False,
            ),
            None,
        )
    meter = pipeline.meter
    return (
        DetectionPoint(
            method=method,
            parameter=parameter,
            value=value,
            avg_latency_ms=meter.average_latency_ms(),
            throughput_tps=meter.throughput_tps(),
            avg_cluster_size=pipeline.average_cluster_size(),
            patterns=len(pipeline.collector),
            avg_delay_snapshots=average_detection_delay(
                pipeline.collector.detections, config.constraints
            ),
            completed=True,
        ),
        pipeline,
    )


def run_node_sweep(
    dataset: TrajectoryDataset,
    config: ICPEConfig,
    method: str,
    nodes: tuple[int, ...],
) -> list[DetectionPoint]:
    """Fig. 14: one execution re-scored under every cluster size N."""
    point, pipeline = run_detection_point(
        dataset, config, method, "N", float(config.cluster.n_nodes),
        keep_works=True,
    )
    if pipeline is None:
        return [replace(point, parameter="N", value=float(n)) for n in nodes]
    delay = average_detection_delay(
        pipeline.collector.detections, config.constraints
    )
    out: list[DetectionPoint] = []
    for n in nodes:
        meter = pipeline.rescore(replace(config.cluster, n_nodes=n))
        out.append(
            DetectionPoint(
                method=method,
                parameter="N",
                value=float(n),
                avg_latency_ms=meter.average_latency_ms(),
                throughput_tps=meter.throughput_tps(),
                avg_cluster_size=pipeline.average_cluster_size(),
                patterns=len(pipeline.collector),
                avg_delay_snapshots=delay,
            )
        )
    return out


# ------------------------------------------------------------ backend sweep


@dataclass(frozen=True, slots=True)
class BackendPoint:
    """One execution-backend sample of the measured wall-clock sweep.

    Unlike :class:`DetectionPoint`, whose latency/throughput come from the
    *simulated* cluster cost model, ``wall_seconds`` here is real measured
    wall-clock time of the whole run under the named backend.
    """

    backend: str
    wall_seconds: float
    snapshots: int
    patterns: int
    speedup_vs_serial: float = 1.0


def _pattern_signature(pipeline: ICPEPipeline) -> frozenset:
    return frozenset(
        (pattern.objects, tuple(pattern.times.times))
        for pattern in pipeline.patterns
    )


def _timed_pipeline_run(
    dataset: TrajectoryDataset, config: ICPEConfig
) -> tuple[ICPEPipeline, float]:
    """Run the full pipeline over a dataset; returns it and wall seconds."""
    pipeline = ICPEPipeline(config)
    started = _time.perf_counter()
    try:
        for snapshot in dataset.snapshots():
            pipeline.process_snapshot(snapshot)
        pipeline.finish()
    finally:
        pipeline.close()
    return pipeline, _time.perf_counter() - started


def _require_equal_signatures(
    signatures: dict[str, frozenset], baseline: str, axis: str
) -> None:
    """Raise unless every variant produced the baseline's pattern set.

    Output equality across strategy variants (backends, kernels) is part
    of their contract; a benchmark that silently compared different
    answers would be meaningless.
    """
    reference = signatures[baseline]
    for name, signature in signatures.items():
        if signature != reference:
            raise RuntimeError(
                f"{axis} {name!r} produced a different pattern set than "
                f"{baseline!r}: {len(signature)} vs {len(reference)} patterns"
            )


def run_backend_comparison(
    dataset: TrajectoryDataset,
    config: ICPEConfig,
    backends: tuple[str, ...] | None = None,
    parallel_workers: int | None = None,
) -> list[BackendPoint]:
    """Run the full ICPE pipeline under each backend; measure wall clock.

    ``backends=None`` sweeps every registered, available backend plugin
    (serial first).  The first backend in ``backends`` is the speedup
    baseline.  Raises :class:`RuntimeError` if any two backends disagree
    on the detected pattern set.
    """
    if backends is None:
        backends = registered_strategy_names("backend", reference="serial")
    points: list[BackendPoint] = []
    signatures: dict[str, frozenset] = {}
    baseline_wall: float | None = None
    for name in backends:
        pipeline, wall = _timed_pipeline_run(
            dataset,
            replace(config, backend=name, parallel_workers=parallel_workers),
        )
        signatures[name] = _pattern_signature(pipeline)
        if baseline_wall is None:
            baseline_wall = wall
        points.append(
            BackendPoint(
                backend=name,
                wall_seconds=wall,
                snapshots=pipeline.meter.snapshots,
                patterns=len(pipeline.collector),
                speedup_vs_serial=baseline_wall / wall if wall > 0 else 1.0,
            )
        )
    _require_equal_signatures(signatures, backends[0], "backend")
    return points


# -------------------------------------------------------------- kernel sweep


@dataclass(frozen=True, slots=True)
class KernelPoint:
    """One clustering-kernel sample of the measured wall-clock sweep.

    ``wall_seconds`` is real measured wall-clock time (like
    :class:`BackendPoint`, not the simulated cost model);
    ``speedup_vs_python`` is measured against the ``python`` reference
    row, which every kernel sweep must therefore include.
    """

    kernel: str
    workload: str
    wall_seconds: float
    snapshots: int
    clusters: int
    patterns: int
    speedup_vs_python: float = 1.0


def _require_python_reference(kernels: tuple[str, ...]) -> None:
    """Kernel sweeps report ``speedup_vs_python``, so the reference row
    must be part of the sweep for the field to mean what it says."""
    if "python" not in kernels:
        raise ValueError(
            "kernel sweeps measure speedup_vs_python and must include "
            f"the 'python' reference kernel, got {kernels!r}"
        )


def run_kernel_clustering_comparison(
    dataset: TrajectoryDataset,
    epsilon_pct: float,
    grid_pct: float,
    min_pts: int,
    kernels: tuple[str, ...] | None = None,
) -> list[KernelPoint]:
    """Clustering-only kernel sweep over a Fig. 10-style workload.

    ``kernels=None`` sweeps every registered, available clustering
    kernel (the ``python`` reference first).  Runs the RJC clustering
    phase snapshot by snapshot under each kernel strategy and measures
    wall-clock time.  Raises :class:`RuntimeError` if any two kernels
    disagree on any snapshot's cluster set — identical clusters are part
    of the kernel contract, and a speedup over a different answer would
    be meaningless.
    """
    if kernels is None:
        kernels = registered_strategy_names(
            "clustering_kernel", reference="python"
        )
    _require_python_reference(kernels)
    epsilon = dataset.resolve_percentage(epsilon_pct)
    cell_width = dataset.resolve_percentage(grid_pct)
    snapshots = list(dataset.snapshots())
    outcomes: dict[str, list] = {}
    measured: list[tuple[str, float, int]] = []
    for name in kernels:
        clusterer = RJCClusterer(
            ClusteringConfig(
                epsilon=epsilon,
                min_pts=min_pts,
                cell_width=cell_width,
                kernel=name,
            )
        )
        started = _time.perf_counter()
        clustered = [clusterer.cluster(snapshot) for snapshot in snapshots]
        wall = _time.perf_counter() - started
        outcomes[name] = [
            (snap.time, tuple(sorted(snap.clusters.items())))
            for snap in clustered
        ]
        measured.append(
            (name, wall, sum(len(snap.clusters) for snap in clustered))
        )
    baseline_wall = dict((name, wall) for name, wall, _ in measured)["python"]
    points = [
        KernelPoint(
            kernel=name,
            workload="clustering",
            wall_seconds=wall,
            snapshots=len(snapshots),
            clusters=clusters,
            patterns=0,
            speedup_vs_python=baseline_wall / wall if wall > 0 else 1.0,
        )
        for name, wall, clusters in measured
    ]
    reference = outcomes[kernels[0]]
    for name, outcome in outcomes.items():
        if outcome != reference:
            raise RuntimeError(
                f"kernel {name!r} produced different cluster sets than "
                f"{kernels[0]!r} on the same snapshots"
            )
    return points


def _run_pipeline_kernel_sweep(
    dataset: TrajectoryDataset,
    config: ICPEConfig,
    kernels: tuple[str, ...],
    select_kernel,
    axis: str,
) -> list[KernelPoint]:
    """Shared full-pipeline sweep over one kernel strategy axis.

    ``select_kernel(config, name)`` returns the config running under the
    named strategy; ``axis`` labels the strategy in error messages.  The
    ``python`` reference row is required (it anchors the speedups) and
    every variant must reproduce the reference pattern set.
    """
    _require_python_reference(kernels)
    signatures: dict[str, frozenset] = {}
    runs: list[tuple[str, float, object]] = []
    for name in kernels:
        pipeline, wall = _timed_pipeline_run(
            dataset, select_kernel(config, name)
        )
        signatures[name] = _pattern_signature(pipeline)
        runs.append((name, wall, pipeline))
    baseline_wall = dict((name, wall) for name, wall, _ in runs)["python"]
    points = [
        KernelPoint(
            kernel=name,
            workload=f"icpe/{pipeline.backend_name}",
            wall_seconds=wall,
            snapshots=pipeline.meter.snapshots,
            clusters=pipeline.clusters_formed,
            patterns=len(pipeline.collector),
            speedup_vs_python=baseline_wall / wall if wall > 0 else 1.0,
        )
        for name, wall, pipeline in runs
    ]
    _require_equal_signatures(signatures, kernels[0], axis)
    return points


def run_kernel_comparison(
    dataset: TrajectoryDataset,
    config: ICPEConfig,
    kernels: tuple[str, ...] | None = None,
) -> list[KernelPoint]:
    """Full-pipeline kernel sweep: measured wall clock + pattern equality.

    ``kernels=None`` sweeps every registered, available clustering
    kernel (reference first).  Runs the complete ICPE detection pipeline
    (whatever backend ``config`` selects) once per kernel strategy.
    Raises :class:`RuntimeError` if any two kernels disagree on the
    detected pattern set.
    """
    if kernels is None:
        kernels = registered_strategy_names(
            "clustering_kernel", reference="python"
        )
    return _run_pipeline_kernel_sweep(
        dataset, config, kernels, ICPEConfig.with_kernel, "kernel"
    )


# ------------------------------------------------------- enum kernel sweep


def run_enum_kernel_comparison(
    dataset: TrajectoryDataset,
    config: ICPEConfig,
    kernels: tuple[str, ...] | None = None,
) -> list[KernelPoint]:
    """Full-pipeline enumeration-kernel sweep: wall clock + equality.

    ``kernels=None`` sweeps every registered, available enumeration
    kernel (reference first).  Runs the complete ICPE detection pipeline
    (whatever backend and clustering kernel ``config`` selects) once per
    enumeration-kernel strategy.  Raises :class:`RuntimeError` if any
    two kernels disagree on the detected pattern set.
    """
    if kernels is None:
        kernels = registered_strategy_names(
            "enumeration_kernel", reference="python"
        )
    return _run_pipeline_kernel_sweep(
        dataset,
        config,
        kernels,
        ICPEConfig.with_enum_kernel,
        "enumeration kernel",
    )


def run_enum_kernel_enumeration_comparison(
    cluster_snapshots: list[ClusterSnapshot],
    constraints: PatternConstraints,
    enumerator: str,
    kernels: tuple[str, ...] | None = None,
    vba_candidate_retention: int | None = None,
) -> list[KernelPoint]:
    """Enumeration-only kernel sweep over a pre-clustered stream.

    ``kernels=None`` sweeps every registered, available enumeration
    kernel (reference first).  The enumeration-phase counterpart of
    :func:`run_kernel_clustering_comparison`: clustering is taken out of
    the measurement (Section 7.3's methodology) and each kernel strategy
    hosts the whole anchor population in a single subtask — the regime a
    batched kernel is built for.  Raises :class:`RuntimeError` if any two
    kernels disagree on the detected pattern set.
    """
    from repro.enumeration.kernels import make_enumeration_kernel

    if kernels is None:
        kernels = registered_strategy_names(
            "enumeration_kernel", reference="python"
        )
    _require_python_reference(kernels)
    measured: list[tuple[str, float, int]] = []
    signatures: dict[str, frozenset] = {}
    for name in kernels:
        kernel = make_enumeration_kernel(
            name,
            enumerator=enumerator,
            constraints=constraints,
            vba_candidate_retention=vba_candidate_retention,
        )
        router = PartitionRouter(constraints.m)
        collector = PatternCollector()
        started = _time.perf_counter()
        for snapshot in cluster_snapshots:
            collector.offer(
                snapshot.time,
                kernel.on_snapshot(snapshot.time, list(router.route(snapshot))),
            )
        final_time = cluster_snapshots[-1].time if cluster_snapshots else 0
        collector.offer(final_time, kernel.finish())
        wall = _time.perf_counter() - started
        signatures[name] = frozenset(
            (pattern.objects, tuple(pattern.times.times))
            for pattern in collector.patterns()
        )
        measured.append((name, wall, len(collector)))
    baseline_wall = dict((name, wall) for name, wall, _ in measured)["python"]
    points = [
        KernelPoint(
            kernel=name,
            workload=f"enum/{enumerator}",
            wall_seconds=wall,
            snapshots=len(cluster_snapshots),
            clusters=sum(len(s.clusters) for s in cluster_snapshots),
            patterns=patterns,
            speedup_vs_python=baseline_wall / wall if wall > 0 else 1.0,
        )
        for name, wall, patterns in measured
    ]
    _require_equal_signatures(signatures, kernels[0], "enumeration kernel")
    return points


# --------------------------------------------------------------- enumeration


def precluster(
    dataset: TrajectoryDataset,
    epsilon_pct: float,
    grid_pct: float,
    min_pts: int,
) -> list[ClusterSnapshot]:
    """Cluster a dataset once (input for enumeration-only sweeps)."""
    epsilon = dataset.resolve_percentage(epsilon_pct)
    cell_width = dataset.resolve_percentage(grid_pct)
    clusterer = RJCClusterer(
        ClusteringConfig(epsilon=epsilon, min_pts=min_pts, cell_width=cell_width)
    )
    return [clusterer.cluster(snapshot) for snapshot in dataset.snapshots()]


def run_enumeration_point(
    cluster_snapshots: list[ClusterSnapshot],
    constraints: PatternConstraints,
    method: str,
    parameter: str,
    value: int,
    ba_max_partition_size: int = 18,
) -> EnumerationPoint:
    """Measure one enumerator over a pre-clustered stream (Fig. 15)."""
    factories = {
        "B": lambda a: BAEnumerator(
            a, constraints, max_partition_size=ba_max_partition_size
        ),
        "F": lambda a: FBAEnumerator(a, constraints),
        "V": lambda a: VBAEnumerator(a, constraints),
    }
    factory = factories[method]
    router = PartitionRouter(constraints.m)
    enumerators: dict[int, object] = {}
    collector = PatternCollector()
    per_snapshot: list[float] = []
    try:
        for snapshot in cluster_snapshots:
            t0 = _time.perf_counter()
            for anchor, members in router.route(snapshot):
                enumerator = enumerators.get(anchor)
                if enumerator is None:
                    enumerator = enumerators[anchor] = factory(anchor)
                collector.offer(
                    snapshot.time, enumerator.on_partition(snapshot.time, members)
                )
            per_snapshot.append(_time.perf_counter() - t0)
        t0 = _time.perf_counter()
        final_time = cluster_snapshots[-1].time if cluster_snapshots else 0
        for anchor in sorted(enumerators):
            collector.offer(final_time, enumerators[anchor].finish())
        per_snapshot.append(_time.perf_counter() - t0)
    except PartitionTooLargeError:
        return EnumerationPoint(
            method=method,
            parameter=parameter,
            value=value,
            avg_latency_ms=float("nan"),
            throughput_tps=float("nan"),
            patterns=0,
            completed=False,
        )
    total = sum(per_snapshot)
    count = max(1, len(cluster_snapshots))
    return EnumerationPoint(
        method=method,
        parameter=parameter,
        value=value,
        avg_latency_ms=1000.0 * total / count,
        throughput_tps=count / total if total > 0 else 0.0,
        patterns=len(collector),
        avg_delay_snapshots=average_detection_delay(
            collector.detections, constraints
        ),
    )
