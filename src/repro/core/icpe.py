"""The ICPE pipeline: Indexed Clustering and Pattern Enumeration (Fig. 3).

``ICPEPipeline`` describes the four-stage topology through the fluent
:class:`~repro.streaming.environment.StreamEnvironment` builder — the same
path any user dataflow takes — compiles it onto the configured execution
backend (serial, parallel or process), and executes it per snapshot,
collecting
per-stage busy times, the simulated distributed latency/throughput (via
the cluster cost model) and the deduplicated pattern results.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.config import ICPEConfig
from repro.core.operators import (
    AllocateOperator,
    BatchedEnumerateOperator,
    ClusterOperator,
    EnumerateOperator,
    KernelClusterOperator,
    QueryOperator,
    make_enumerator_factory,
)
from repro.enumeration.base import PatternCollector
from repro.enumeration.kernels import make_enumeration_kernel
from repro.join.query import CellJoiner
from repro.kernels import make_kernel
from repro.model.batch import SnapshotBatch
from repro.model.pattern import CoMovementPattern
from repro.model.snapshot import ClusterSnapshot, Snapshot
from repro.streaming.cluster import ClusterModel
from repro.streaming.dataflow import SpanRecord, StageWork
from repro.state.codec import decode_payload, digest_of
from repro.streaming.environment import DataStream, Job, StreamEnvironment
from repro.streaming.metrics import LatencyThroughputMeter, SnapshotTiming
from repro.streaming.runtime import GraphSpec, resolve_backend

#: Cluster-state view when no cluster aggregates are available (yet).
_EMPTY_CLUSTER_STATE = {
    "clusters_formed": 0,
    "cluster_size_sum": 0,
    "last_snapshot": None,
}


def describe_clustering_stages(
    stream: DataStream,
    *,
    epsilon: float,
    cell_width: float,
    min_pts: int,
    significance: int,
    metric,
    lemma1: bool,
    lemma2: bool,
    local_index: str,
    dedup: bool,
    allocate_parallelism: int,
    query_parallelism: int,
    rtree_fanout: int = 16,
    kernel: str = "python",
    metric_name: str = "l1",
) -> DataStream:
    """Append the clustering phase of the ICPE job graph to a stream.

    With the default ``python`` kernel, the three reference stages —
    GridAllocate keyed by trajectory id, GridQuery keyed by grid cell, and
    the single-subtask GridSync/DBSCAN collector — are described here
    once, shared by :meth:`ICPEPipeline.build_environment` and the bench
    harness's clustering-only sweeps (Figs. 10-11), so both provably
    execute the same topology.

    With a vectorized kernel (``"numpy"``), the whole phase collapses
    into one :class:`~repro.core.operators.KernelClusterOperator` stage
    that clusters the packed snapshot inside the kernel and emits the
    identical partition records — the strategy swap is invisible to
    enumeration and composes with either execution backend.
    """
    if kernel != "python":
        kernel_name = kernel
        return stream.process(
            lambda: KernelClusterOperator(
                make_kernel(
                    kernel_name,
                    epsilon=epsilon,
                    min_pts=min_pts,
                    cell_width=cell_width,
                    metric_name=metric_name,
                    lemma1=lemma1,
                    lemma2=lemma2,
                    local_index=local_index,
                    rtree_fanout=rtree_fanout,
                ),
                significance=significance,
            ),
            parallelism=1,
            name="cluster",
        )
    joiner_factory = lambda: QueryOperator(
        CellJoiner(
            epsilon=epsilon,
            metric=metric,
            lemma2=lemma2,
            local_index=local_index,
            lemma1=lemma1,
            rtree_fanout=rtree_fanout,
        )
    )
    return (
        stream
        .key_by(lambda element: element[0], name="allocate")  # trajectory id
        .process(
            lambda: AllocateOperator(cell_width, epsilon, lemma1=lemma1),
            parallelism=allocate_parallelism,
        )
        .key_by(lambda go: go.key, name="query")  # grid cell
        .process(joiner_factory, parallelism=query_parallelism)
        .process(
            lambda: ClusterOperator(
                min_pts=min_pts, significance=significance, dedup=dedup
            ),
            parallelism=1,
            name="cluster",
        )
    )


def describe_enumeration_stage(
    stream: DataStream, config: ICPEConfig
) -> DataStream:
    """Append the enumeration phase (PED) of the ICPE job graph.

    With the default ``python`` enumeration kernel, the stage hosts one
    BA / FBA / VBA state machine per anchor
    (:class:`~repro.core.operators.EnumerateOperator`); with a vectorized
    kernel (``"numpy"``), the whole subtask runs through one batched
    :class:`~repro.core.operators.BatchedEnumerateOperator` that packs
    every hosted anchor's membership bit strings into contiguous arrays —
    emitting the identical per-anchor pattern stream either way.  The
    keyed exchange (anchor id) and the stage parallelism are the same for
    both strategies, so the kernel choice composes with either execution
    backend and either clustering kernel.
    """
    keyed = stream.key_by(lambda record: record[1], name="enumerate")
    if config.enumeration_kernel == "python":
        enumerator_factory = make_enumerator_factory(config)
        return keyed.process(
            lambda: EnumerateOperator(enumerator_factory),
            parallelism=config.enumerate_parallelism,
        )
    return keyed.process(
        lambda: BatchedEnumerateOperator(
            make_enumeration_kernel(
                config.enumeration_kernel,
                enumerator=config.enumerator,
                constraints=config.constraints,
                ba_max_partition_size=config.ba_max_partition_size,
                vba_candidate_retention=config.vba_candidate_retention,
            )
        ),
        parallelism=config.enumerate_parallelism,
    )


def build_icpe_graph(config: ICPEConfig):
    """The ICPE job graph for a config (module-level, hence picklable).

    The builder behind the :class:`~repro.streaming.runtime.GraphSpec`
    every pipeline binds to its backend: process-isolated backends pickle
    ``(build_icpe_graph, (config,))`` to each worker, which calls it after
    spawn to instantiate its own operator state — the config is a frozen
    plain-data dataclass, so the spec crosses the process boundary even
    though the stage factories themselves are closures.
    """
    return ICPEPipeline.build_environment(config).graph()


class ICPEPipeline:
    """Snapshot-in, patterns-out execution of the ICPE job graph."""

    def __init__(self, config: ICPEConfig, keep_works: bool = False):
        """``keep_works``: retain every snapshot's per-stage busy times so
        the run can be re-scored under different cluster models (the Fig. 14
        node sweep re-uses one execution for all N)."""
        self.config = config
        self.collector = PatternCollector()
        self.meter = LatencyThroughputMeter()
        self.keep_works = keep_works
        self.works_history: list[list[StageWork]] = []
        self._cluster_model: ClusterModel = config.cluster
        self._backend = resolve_backend(
            config.backend, max_workers=config.parallel_workers
        )
        self._job: Job = self.build_environment(config).compile(
            backend=self._backend,
            graph_spec=GraphSpec(build_icpe_graph, (config,)),
        )
        self._runtimes = self._job.runtimes
        self._finished = False
        self._last_time: int | None = None
        #: Incremental-capture cache: last seen digest and encoded payload
        #: per (stage, subtask) — unchanged operators reuse these bytes.
        self._state_digests: dict[tuple[str, int], str] = {}
        self._state_payloads: dict[tuple[str, int], bytes] = {}
        #: Cluster-state fetch cache for process-isolated backends,
        #: keyed on the snapshot count at fetch time.
        self._cluster_state_cache: tuple[int, dict] | None = None
        #: Protected-set fetch cache (load shedding), same keying.
        self._protected_cache: tuple[int, frozenset[int]] | None = None
        #: Forming-candidate fetch cache (pattern prediction), same keying.
        self._forming_cache: tuple[int, tuple] | None = None
        #: Per-stage busy times of the most recent snapshot, for the
        #: SLO controller's stage sampling.
        self.last_works: list[StageWork] = []
        #: Tracing spans of the most recent unit of work (stage order,
        #: subtask order within each stage — identical on every backend).
        self.last_spans: list[SpanRecord] = []
        self._cluster_final_state: dict | None = None
        # Exposed for the harness: average cluster size (Figs. 12-13).
        self._cluster_operator: ClusterOperator | KernelClusterOperator | None
        self._cluster_operator = None
        for runtime in self._runtimes:
            for subtask in runtime.subtasks:
                if isinstance(subtask, (ClusterOperator, KernelClusterOperator)):
                    self._cluster_operator = subtask

    @staticmethod
    def build_environment(config: ICPEConfig) -> StreamEnvironment:
        """Describe the ICPE job graph (Fig. 3) on a stream environment.

        The four stages — GridAllocate keyed by trajectory id, GridQuery
        keyed by grid cell, the single-subtask GridSync/DBSCAN collector,
        and enumeration keyed by anchor id — are built through the same
        fluent API any user topology uses, so the pipeline and ad-hoc
        environments share one :class:`JobGraph` construction path.
        """
        cfg = config
        env = StreamEnvironment()
        describe_enumeration_stage(
            describe_clustering_stages(
                env.source(),
                epsilon=cfg.epsilon,
                cell_width=cfg.cell_width,
                min_pts=cfg.min_pts,
                significance=cfg.constraints.m,
                metric=cfg.clustering_config().join_config().metric,
                lemma1=cfg.lemma1,
                lemma2=cfg.lemma2,
                local_index=cfg.local_index,
                dedup=not (cfg.lemma1 and cfg.lemma2),
                allocate_parallelism=cfg.allocate_parallelism,
                query_parallelism=cfg.query_parallelism,
                rtree_fanout=cfg.rtree_fanout,
                kernel=cfg.clustering_kernel,
                metric_name=cfg.metric_name,
            ),
            cfg,
        )
        return env

    # ------------------------------------------------------------------ drive

    def process_snapshot(
        self, snapshot: Snapshot | SnapshotBatch
    ) -> list[CoMovementPattern]:
        """Run one snapshot through the pipeline; returns *new* patterns.

        Accepts the object form or the columnar
        :class:`~repro.model.batch.SnapshotBatch` of the batch data
        plane; a columnar snapshot enters the job graph as one envelope
        (split per destination by the keyed exchange) when the execution
        backend declares batch-ingest support, and as per-row elements
        otherwise — the pattern output is identical either way.
        """
        if self._finished:
            raise RuntimeError("pipeline already finished")
        if self._last_time is not None and snapshot.time <= self._last_time:
            raise ValueError(
                f"snapshots must arrive in ascending time order: "
                f"{snapshot.time} after {self._last_time}"
            )
        self._last_time = snapshot.time
        if isinstance(snapshot, SnapshotBatch) and getattr(
            self._backend, "supports_batch_ingest", False
        ):
            elements: list = [snapshot]
        else:
            elements = snapshot.points()
        outputs, works = self._job.run(elements, ctx=snapshot.time)
        self.last_spans = self._drain_spans()
        patterns = [p for p in outputs if isinstance(p, CoMovementPattern)]
        fresh_count = self.collector.offer(snapshot.time, patterns)
        self._record_timing(snapshot, works, fresh_count)
        return self.collector.latest(fresh_count)

    def finish(self) -> list[CoMovementPattern]:
        """End of stream: flush windows and open bit strings."""
        if self._finished:
            return []
        self._finished = True
        outputs, _works = self._job.finish()
        self.last_spans = self._drain_spans()
        if getattr(self._backend, "supports_process_isolation", False):
            # The workers are about to go away; keep their final cluster
            # aggregates readable for post-run instrumentation.
            try:
                self._cluster_final_state = self._fetch_cluster_state()
            except RuntimeError:  # pragma: no cover - dead worker
                pass
        self.close()
        patterns = [p for p in outputs if isinstance(p, CoMovementPattern)]
        time = self._last_time if self._last_time is not None else 0
        fresh_count = self.collector.offer(time, patterns)
        return self.collector.latest(fresh_count)

    def close(self) -> None:
        """Release backend resources (the parallel worker pool).

        The pipeline created its backend from the config, so it owns it
        and closes it directly.  Idempotent; called automatically by
        :meth:`finish`, and by the bench harness when a run aborts early.
        """
        self._backend.close()

    def run(self, snapshots: Iterable[Snapshot]) -> PatternCollector:
        """Convenience: process a bounded snapshot stream to completion."""
        for snapshot in snapshots:
            self.process_snapshot(snapshot)
        self.finish()
        return self.collector

    # ------------------------------------------------------------------ stats

    def _drain_spans(self) -> list[SpanRecord]:
        """Collect the unit's spans from every stage, canonically ordered.

        Stage order, then subtask index, with unit spans before finish
        spans.  The parallel backend appends spans in thread-completion
        order and the process backend in worker-reply order; sorting the
        per-stage drain makes the stream identical to the serial
        backend's by construction.
        """
        spans: list[SpanRecord] = []
        for runtime in self._runtimes:
            drained = runtime.drain_spans()
            drained.sort(key=lambda s: (s.subtask, s.kind != "unit"))
            spans.extend(drained)
        return spans

    def _record_timing(
        self, snapshot: Snapshot, works: list[StageWork], fresh: int
    ) -> None:
        model = self._cluster_model
        self.last_works = works
        if self.keep_works:
            self.works_history.append(works)
        self.meter.record(
            SnapshotTiming(
                time=snapshot.time,
                latency_seconds=model.snapshot_latency_seconds(works),
                bottleneck_seconds=model.bottleneck_seconds(works),
                locations=len(snapshot),
                patterns_emitted=fresh,
            )
        )

    def rescore(self, model: ClusterModel) -> LatencyThroughputMeter:
        """Re-derive metrics under a different cluster model.

        Requires ``keep_works=True``; used by the Fig. 14 node sweep so a
        single execution yields the whole N series.
        """
        if not self.keep_works:
            raise RuntimeError("pipeline was not constructed with keep_works")
        meter = LatencyThroughputMeter()
        for index, works in enumerate(self.works_history):
            original = self.meter.timings[index]
            meter.record(
                SnapshotTiming(
                    time=original.time,
                    latency_seconds=model.snapshot_latency_seconds(works),
                    bottleneck_seconds=model.bottleneck_seconds(works),
                    locations=original.locations,
                    patterns_emitted=original.patterns_emitted,
                )
            )
        return meter

    def average_cluster_size(self) -> float:
        """Mean size of the clusters formed so far (Figs. 12-13 curves).

        Works under every backend: in-process backends read the live
        master-side cluster operator; a process-isolated backend fetches
        the owning worker's aggregates through the reply protocol's
        ``state`` command (cached per processed snapshot, final values
        retained past :meth:`finish`).
        """
        state = self._cluster_state()
        if not state["clusters_formed"]:
            return 0.0
        return state["cluster_size_sum"] / state["clusters_formed"]

    @property
    def clusters_formed(self) -> int:
        """Total number of clusters formed across processed snapshots."""
        return self._cluster_state()["clusters_formed"]

    @property
    def job(self) -> Job:
        """The compiled job (graph + backend + runtimes) executing ICPE."""
        return self._job

    @property
    def backend_name(self) -> str:
        """Name of the execution backend running the job graph."""
        return self._backend.name

    @property
    def kernel_name(self) -> str:
        """Name of the snapshot-clustering kernel strategy in use."""
        return self.config.clustering_kernel

    @property
    def enumeration_kernel_name(self) -> str:
        """Name of the pattern-enumeration kernel strategy in use."""
        return self.config.enumeration_kernel

    @property
    def last_cluster_snapshot(self) -> ClusterSnapshot | None:
        """Clusters of the most recently processed snapshot (any backend)."""
        return self._cluster_state()["last_snapshot"]

    @property
    def patterns(self) -> list[CoMovementPattern]:
        """Every distinct pattern detected so far."""
        return self.collector.patterns()

    # ------------------------------------------------------------ cluster state

    def _cluster_state(self) -> dict:
        """The cluster stage's aggregates, wherever the live operator is."""
        if getattr(self._backend, "supports_process_isolation", False):
            if self._finished:
                return self._cluster_final_state or _EMPTY_CLUSTER_STATE
            return self._fetch_cluster_state()
        operator = self._cluster_operator
        if operator is None:
            return _EMPTY_CLUSTER_STATE
        return {
            "clusters_formed": operator.clusters_formed,
            "cluster_size_sum": operator.cluster_size_sum,
            "last_snapshot": operator.last_cluster_snapshot,
        }

    def _fetch_cluster_state(self) -> dict:
        """Fetch the cluster subtask's payload from its owning worker.

        One round-trip per processed snapshot at most: the result is
        cached against the snapshot count, so repeated reads (the convoy
        tracker plus the harness) reuse it.
        """
        marker = self.meter.snapshots
        if (
            self._cluster_state_cache is not None
            and self._cluster_state_cache[0] == marker
        ):
            return self._cluster_state_cache[1]
        runtime = next(
            (r for r in self._runtimes if r.stage.name == "cluster"), None
        )
        if runtime is None:  # pragma: no cover - graph without clustering
            return _EMPTY_CLUSTER_STATE
        state = dict(_EMPTY_CLUSTER_STATE)
        for _index, _digest, data in self._backend.collect_states(runtime):
            payload = decode_payload(data)
            state["clusters_formed"] += payload["clusters_formed"]
            state["cluster_size_sum"] += payload["cluster_size_sum"]
            if payload["last_snapshot"] is not None:
                state["last_snapshot"] = payload["last_snapshot"]
        self._cluster_state_cache = (marker, state)
        return state

    # --------------------------------------------------------------- shedding

    def protected_oids(self) -> frozenset[int]:
        """Oids inside a forming pattern anywhere in the enumeration stage.

        The union over every enumerate subtask of the objects its open
        FBA windows / unclosed VBA bit strings depend on — the records
        the pattern-aware shed policy must not drop.  Works under every
        backend: in-process backends walk the live operator instances,
        the process backend round-trips a ``protected`` command through
        the worker reply protocol.  Cached per processed snapshot (the
        set only changes when a snapshot is processed); empty once the
        pipeline has finished.
        """
        if self._finished:
            return frozenset()
        marker = self.meter.snapshots
        if (
            self._protected_cache is not None
            and self._protected_cache[0] == marker
        ):
            return self._protected_cache[1]
        runtime = next(
            (r for r in self._runtimes if r.stage.name == "enumerate"), None
        )
        protected: frozenset[int] = frozenset()
        if runtime is not None:
            merged: set[int] = set()
            for _index, oids in self._backend.collect_protected(runtime):
                merged.update(oids)
            protected = frozenset(merged)
        self._protected_cache = (marker, protected)
        return protected

    # ------------------------------------------------------------- prediction

    def forming_candidates(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Forming-candidate descriptors across the enumeration stage.

        The sorted concatenation over every enumerate subtask of its
        ``(anchor, oid, start, ones, remaining)`` descriptors (see
        :data:`repro.patterns.base.FormingCandidate`) — the prediction
        scorer's input.  Works under every backend: in-process backends
        walk the live operator instances, the process backend
        round-trips a ``forming`` command through the worker reply
        protocol.  Cached per processed snapshot; empty once the
        pipeline has finished.  Anchors never collide across subtasks,
        so the sorted merge is backend-invariant.
        """
        if self._finished:
            return ()
        marker = self.meter.snapshots
        if (
            self._forming_cache is not None
            and self._forming_cache[0] == marker
        ):
            return self._forming_cache[1]
        runtime = next(
            (r for r in self._runtimes if r.stage.name == "enumerate"), None
        )
        forming: tuple[tuple[int, int, int, int, int], ...] = ()
        if runtime is not None:
            merged: list[tuple[int, int, int, int, int]] = []
            for _index, descriptors in self._backend.collect_forming(runtime):
                merged.extend(descriptors)
            forming = tuple(sorted(merged))
        self._forming_cache = (marker, forming)
        return forming

    # ------------------------------------------------------------- checkpoints

    @property
    def supports_checkpoint(self) -> bool:
        """Whether the configured backend can capture operator state."""
        return bool(getattr(self._backend, "supports_checkpoint", False))

    def collect_operator_states(
        self,
    ) -> tuple[dict[tuple[str, int], bytes], int, int]:
        """Capture every stage's operator state for a checkpoint.

        Incremental: each stateful subtask's payload digest is compared
        against the previous capture, and unchanged operators reuse the
        cached bytes instead of re-serialising (process workers answer
        with the digest only).  Returns ``(states, captured, reused)``
        where ``states`` maps ``(stage_name, subtask_index)`` to encoded
        payload bytes.
        """
        if not self.supports_checkpoint:
            raise RuntimeError(
                f"backend {self._backend.name!r} does not support "
                "checkpointing (supports_checkpoint is False)"
            )
        if self._finished:
            raise RuntimeError("pipeline already finished")
        states: dict[tuple[str, int], bytes] = {}
        captured = reused = 0
        for runtime in self._runtimes:
            stage = runtime.stage.name
            known = {
                index: digest
                for (name, index), digest in self._state_digests.items()
                if name == stage
            }
            for index, digest, data in self._backend.collect_states(
                runtime, known
            ):
                key = (stage, index)
                if data is None:
                    data = self._state_payloads[key]
                    reused += 1
                else:
                    captured += 1
                self._state_digests[key] = digest
                self._state_payloads[key] = data
                states[key] = data
        return states, captured, reused

    def restore_operator_states(
        self, states: dict[tuple[str, int], bytes]
    ) -> None:
        """Restore a checkpoint's operator payloads into the job graph.

        Also seeds the incremental-capture cache, so the first checkpoint
        taken after a restore reuses every still-unchanged payload.
        """
        if not self.supports_checkpoint:
            raise RuntimeError(
                f"backend {self._backend.name!r} does not support "
                "checkpointing (supports_checkpoint is False)"
            )
        by_stage: dict[str, list[tuple[int, bytes]]] = {}
        for (stage, index), data in states.items():
            by_stage.setdefault(stage, []).append((index, data))
        known_stages = {runtime.stage.name for runtime in self._runtimes}
        unknown = sorted(set(by_stage) - known_stages)
        if unknown:
            raise ValueError(
                f"checkpoint carries state for stages {unknown} that are "
                f"not part of this pipeline ({sorted(known_stages)}); was "
                "it taken under a different kernel configuration?"
            )
        for runtime in self._runtimes:
            payloads = by_stage.get(runtime.stage.name)
            if payloads:
                self._backend.restore_states(runtime, sorted(payloads))
        for key, data in states.items():
            self._state_digests[key] = digest_of(data)
            self._state_payloads[key] = data
        self._cluster_state_cache = None
        self._protected_cache = None
        self._forming_cache = None

    def state_metrics(self) -> dict[str, dict[str, int]]:
        """Per-component memory accounting across the whole pipeline.

        One entry per stage (subtask metrics summed), plus the
        master-side collector and meter.  Stage metrics require a
        checkpoint-capable backend and a running job; after
        :meth:`finish` only the master-side components report.
        """
        metrics: dict[str, dict[str, int]] = {}
        if self.supports_checkpoint and not self._finished:
            for runtime in self._runtimes:
                merged: dict[str, int] = {}
                for _index, sub in self._backend.collect_metrics(runtime):
                    for key, value in sub.items():
                        merged[key] = merged.get(key, 0) + value
                if merged:
                    metrics[runtime.stage.name] = merged
        metrics["collector"] = self.collector.state_metrics()
        metrics["meter"] = self.meter.state_metrics()
        return metrics
