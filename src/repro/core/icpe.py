"""The ICPE pipeline: Indexed Clustering and Pattern Enumeration (Fig. 3).

:func:`icpe_stages` describes the four-stage job graph as a list of
:class:`~repro.streaming.dataflow.KeyedStage` descriptions.
``ICPEPipeline`` builds one :class:`~repro.streaming.dataflow.
StageRuntime` per stage, binds the same description to the configured
execution backend (serial or process), and executes it per snapshot,
collecting per-stage busy times, the simulated distributed
latency/throughput (via the cluster cost model) and the deduplicated
pattern results.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable

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
from repro.streaming.dataflow import (
    KeyedStage,
    SpanRecord,
    StageRuntime,
    StageWork,
)
from repro.state.codec import decode_payload, encode_payload
from repro.streaming.hashing import stable_hash
from repro.streaming.metrics import LatencyThroughputMeter, SnapshotTiming
from repro.streaming.runtime import (
    GraphSpec,
    execute_finish,
    execute_unit,
    resolve_backend,
)

#: Stage-parallelism fields whose ``None`` means "follow the backend".
FAN_OUT_FIELDS = (
    "allocate_parallelism",
    "query_parallelism",
    "enumerate_parallelism",
)


def describe_clustering_stages(
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
) -> list[KeyedStage]:
    """The clustering phase of the ICPE job graph, as stage descriptions.

    With the default ``python`` kernel, the three reference stages —
    GridAllocate keyed by trajectory id, GridQuery keyed by grid cell, and
    the single-subtask GridSync/DBSCAN collector — are described here
    once, shared by :func:`icpe_stages` and the bench harness's
    clustering-only sweeps (Figs. 10-11), so both provably execute the
    same topology.

    With a vectorized kernel (``"numpy"``), the whole phase collapses
    into one :class:`~repro.core.operators.KernelClusterOperator` stage
    that clusters the packed snapshot inside the kernel and emits the
    identical partition records, packed into one
    :class:`~repro.model.batch.PartitionBatch` envelope — the strategy
    swap is invisible to enumeration and composes with either execution
    backend.
    """
    if kernel != "python":
        kernel_name = kernel
        return [
            KeyedStage(
                name="cluster",
                operator_factory=lambda: KernelClusterOperator(
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
            )
        ]
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
    return [
        KeyedStage(
            name="allocate",
            operator_factory=lambda: AllocateOperator(
                cell_width, epsilon, lemma1=lemma1
            ),
            parallelism=allocate_parallelism,
            key_fn=lambda element: element[0],  # trajectory id
        ),
        KeyedStage(
            name="query",
            operator_factory=joiner_factory,
            parallelism=query_parallelism,
            key_fn=lambda go: go.key,  # grid cell
        ),
        KeyedStage(
            name="cluster",
            operator_factory=lambda: ClusterOperator(
                min_pts=min_pts, significance=significance, dedup=dedup
            ),
            parallelism=1,
        ),
    ]


def describe_enumeration_stage(config: ICPEConfig) -> KeyedStage:
    """The enumeration phase (PED) of the ICPE job graph.

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
    if config.enumeration_kernel == "python":
        enumerator_factory = make_enumerator_factory(config)
        factory = lambda: EnumerateOperator(enumerator_factory)
    else:
        factory = lambda: BatchedEnumerateOperator(
            make_enumeration_kernel(
                config.enumeration_kernel,
                enumerator=config.enumerator,
                constraints=config.constraints,
                ba_max_partition_size=config.ba_max_partition_size,
                vba_candidate_retention=config.vba_candidate_retention,
            )
        )
    return KeyedStage(
        name="enumerate",
        operator_factory=factory,
        parallelism=config.enumerate_parallelism,
        key_fn=lambda record: record[1],  # anchor id
    )


def resolve_fan_out(config: ICPEConfig, workers: int) -> ICPEConfig:
    """``config`` with every ``None`` stage parallelism set to ``workers``.

    The one place a "follow the backend" fan-out becomes a number: the
    pipeline passes its backend's worker count, so the serial backend
    runs one subtask per stage and a pool of N workers runs N.
    Explicit ints pass through untouched.
    """
    unresolved = {
        name: workers
        for name in FAN_OUT_FIELDS
        if getattr(config, name) is None
    }
    return replace(config, **unresolved) if unresolved else config


def icpe_stages(config: ICPEConfig) -> list[KeyedStage]:
    """The ICPE job graph (Fig. 3) for a config, as stage descriptions.

    Four stages — GridAllocate keyed by trajectory id (``allocate``),
    GridQuery keyed by grid cell (``query``), the single-subtask
    GridSync/DBSCAN collector (``cluster``) and enumeration keyed by
    anchor id (``enumerate``); a vectorized clustering kernel folds the
    first three into one ``cluster`` stage.  Stage parallelisms still
    ``None`` here get one subtask.  The stage names are the ``(stage,
    subtask)`` keys of checkpointed operator state.

    Module-level, hence picklable: it is the builder behind the
    :class:`~repro.streaming.runtime.GraphSpec` every pipeline binds to
    its backend.  The process backend pickles ``(icpe_stages,
    (config,))`` to each worker, which calls it after spawn to build its
    own operator state — the config is a frozen plain-data dataclass, so
    the spec crosses the process boundary even though the stage
    factories themselves are closures.
    """
    cfg = resolve_fan_out(config, 1)
    return describe_clustering_stages(
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
    ) + [describe_enumeration_stage(cfg)]


def _patterns_by_anchor(outputs: list[Any]) -> list[CoMovementPattern]:
    """The patterns among ``outputs``, stably sorted by anchor.

    The enumerate stage emits each anchor's patterns in one order that
    does not depend on the fan-out; only how anchors interleave depends
    on which subtasks host them.  Sorting stably on the anchor (a
    pattern's smallest object id) therefore yields the same sequence at
    every fan-out, on every backend.  Duplicates of an object set share
    its anchor and keep their relative order, so first-emission-wins
    deduplication picks the same emission.
    """
    patterns = [p for p in outputs if isinstance(p, CoMovementPattern)]
    patterns.sort(key=_anchor_of)
    return patterns


def _anchor_of(pattern: CoMovementPattern) -> int:
    return pattern.objects[0]


def _repartition_by_anchor(
    runtime: StageRuntime, payloads: list[tuple[int, bytes]]
) -> list[tuple[int, bytes]]:
    """Re-key enumerate-stage payloads onto the live subtasks by anchor.

    A checkpoint holds one payload per subtask of the pipeline that
    wrote it, whose fan-out may differ from this one's.  Each payload is
    split into per-anchor pieces plus an anchor-free rest (work
    counters, kernel clock); every anchor goes to the subtask the live
    keyed exchange routes it to (``stable_hash(anchor) % parallelism``);
    each subtask's pieces are joined back into one payload, the rests'
    counters summed into subtask 0 so stage totals are unchanged.  A
    restore into the same fan-out takes this path too.
    """
    operator = runtime.subtasks[0]
    parallelism = len(runtime.subtasks)
    rests: list[Any] = []
    routed: list[dict[int, Any]] = [{} for _ in range(parallelism)]
    for _index, data in payloads:
        rest, pieces = operator.split_state(decode_payload(data))
        rests.append(rest)
        for anchor, piece in pieces.items():
            routed[stable_hash(anchor) % parallelism][anchor] = piece
    return [
        (index, encode_payload(operator.join_state(rests, pieces, index == 0))[1])
        for index, pieces in enumerate(routed)
    ]


class ICPEPipeline:
    """Snapshot-in, patterns-out execution of the ICPE job graph."""

    def __init__(self, config: ICPEConfig, keep_works: bool = False):
        """``keep_works``: retain every snapshot's per-stage busy times so
        the run can be re-scored under different cluster models (the Fig. 14
        node sweep re-uses one execution for all N)."""
        self.collector = PatternCollector()
        self.meter = LatencyThroughputMeter()
        self.keep_works = keep_works
        self.works_history: list[list[StageWork]] = []
        self._cluster_model: ClusterModel = config.cluster
        #: The execution backend; the pipeline created it from the
        #: config, so it owns and closes it.
        self.backend = resolve_backend(
            config.backend, max_workers=config.parallel_workers
        )
        #: The config the stages are built from — the caller's, with
        #: ``None`` stage parallelisms resolved once against the backend
        #: so the local runtimes and every process worker agree.
        self.config = config = resolve_fan_out(config, self.backend.workers)
        stages = icpe_stages(config)
        # The process backend rebuilds operator state per worker from
        # the spec; the serial backend ignores the offer.
        self.backend.bind_graph(GraphSpec(icpe_stages, (config,)))
        #: One runtime per stage, in pipeline order.
        self.runtimes = [StageRuntime(stage) for stage in stages]
        self._finished = False
        self._last_time: int | None = None
        #: Incremental-capture cache: last seen digest and encoded payload
        #: per (stage, subtask) — unchanged operators reuse these bytes.
        self._state_digests: dict[tuple[str, int], str] = {}
        self._state_payloads: dict[tuple[str, int], bytes] = {}
        #: Protected-set fetch cache (load shedding), keyed on the
        #: snapshot count at fetch time.
        self._protected_cache: tuple[int, frozenset[int]] | None = None
        #: Forming-candidate fetch cache (pattern prediction), same keying.
        self._forming_cache: tuple[int, tuple] | None = None
        #: Per-stage busy times of the most recent snapshot, for the
        #: SLO controller's stage sampling.
        self.last_works: list[StageWork] = []
        #: Tracing spans of the most recent unit of work (stage order,
        #: subtask order within each stage — identical on every backend).
        self.last_spans: list[SpanRecord] = []
        # Exposed for the harness: average cluster size (Figs. 12-13).
        # The cluster stage has one subtask, which every built-in
        # backend runs in this process, so this is the live operator.
        self._cluster_operator: ClusterOperator | KernelClusterOperator = next(
            subtask
            for runtime in self.runtimes
            for subtask in runtime.subtasks
            if isinstance(subtask, (ClusterOperator, KernelClusterOperator))
        )

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
            self.backend, "supports_batch_ingest", False
        ):
            elements: list = [snapshot]
        else:
            elements = snapshot.points()
        outputs, works = execute_unit(
            self.runtimes, elements, snapshot.time, self.backend
        )
        self.last_spans = self._drain_spans()
        fresh_count = self.collector.offer(
            snapshot.time, _patterns_by_anchor(outputs)
        )
        self._record_timing(snapshot, works, fresh_count)
        return self.collector.latest(fresh_count)

    def finish(self) -> list[CoMovementPattern]:
        """End of stream: flush windows and open bit strings."""
        if self._finished:
            return []
        self._finished = True
        outputs, _works = execute_finish(self.runtimes, self.backend)
        self.last_spans = self._drain_spans()
        self.close()
        time = self._last_time if self._last_time is not None else 0
        fresh_count = self.collector.offer(time, _patterns_by_anchor(outputs))
        return self.collector.latest(fresh_count)

    def close(self) -> None:
        """Release backend resources (the process worker pool).

        The pipeline created its backend from the config, so it owns it
        and closes it directly.  Idempotent; called automatically by
        :meth:`finish`, and by the bench harness when a run aborts early.
        """
        self.backend.close()

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
        spans.  The process backend appends spans in worker-reply order;
        sorting the per-stage drain makes the stream identical to the
        serial backend's by construction.
        """
        spans: list[SpanRecord] = []
        for runtime in self.runtimes:
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

        Works under every backend, also past :meth:`finish`: the
        single-subtask cluster stage runs in this process on every
        built-in backend, so its live operator is read directly.
        """
        operator = self._cluster_operator
        if not operator.clusters_formed:
            return 0.0
        return operator.cluster_size_sum / operator.clusters_formed

    @property
    def clusters_formed(self) -> int:
        """Total number of clusters formed across processed snapshots."""
        return self._cluster_operator.clusters_formed

    @property
    def backend_name(self) -> str:
        """Name of the execution backend running the job graph."""
        return self.backend.name

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
        return self._cluster_operator.last_cluster_snapshot

    @property
    def patterns(self) -> list[CoMovementPattern]:
        """Every distinct pattern detected so far."""
        return self.collector.patterns()

    # --------------------------------------------------------------- shedding

    def protected_oids(self) -> frozenset[int]:
        """Oids inside a forming pattern anywhere in the enumeration stage.

        The union over every enumerate subtask of the objects its open
        FBA windows / unclosed VBA bit strings depend on — the records
        the pattern-aware shed policy must not drop.  Answered by the
        backend's ``query`` of each subtask's ``protected_oids`` (in the
        workers on the process backend).  Cached per processed snapshot (the
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
            (r for r in self.runtimes if r.stage.name == "enumerate"), None
        )
        protected: frozenset[int] = frozenset()
        if runtime is not None:
            merged: set[int] = set()
            for _index, oids in self.backend.query(runtime, "protected_oids"):
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
        scorer's input.  Answered by the backend's ``query`` of each
        subtask's ``forming_candidates`` (in the workers on the process
        backend).  Cached per processed snapshot; empty once the
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
            (r for r in self.runtimes if r.stage.name == "enumerate"), None
        )
        forming: tuple[tuple[int, int, int, int, int], ...] = ()
        if runtime is not None:
            merged: list[tuple[int, int, int, int, int]] = []
            for _index, descriptors in self.backend.query(
                runtime, "forming_candidates"
            ):
                merged.extend(descriptors)
            forming = tuple(sorted(merged))
        self._forming_cache = (marker, forming)
        return forming

    # ------------------------------------------------------------- checkpoints

    @property
    def supports_checkpoint(self) -> bool:
        """Whether the configured backend can capture operator state."""
        return bool(getattr(self.backend, "supports_checkpoint", False))

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
                f"backend {self.backend.name!r} does not support "
                "checkpointing (supports_checkpoint is False)"
            )
        if self._finished:
            raise RuntimeError("pipeline already finished")
        states: dict[tuple[str, int], bytes] = {}
        captured = reused = 0
        for runtime in self.runtimes:
            stage = runtime.stage.name
            known = [
                (self._state_digests.get((stage, index)),)
                for index in range(len(runtime.subtasks))
            ]
            for index, (digest, data) in self.backend.query(
                runtime, "capture_state", known
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

        The checkpoint may come from a pipeline with another fan-out:
        enumerate-stage payloads are always re-partitioned by anchor
        onto this pipeline's subtasks (:func:`_repartition_by_anchor`).
        Also seeds the incremental-capture cache from the restored
        operators, so the first checkpoint taken after a restore reuses
        every still-unchanged payload.
        """
        if not self.supports_checkpoint:
            raise RuntimeError(
                f"backend {self.backend.name!r} does not support "
                "checkpointing (supports_checkpoint is False)"
            )
        by_stage: dict[str, list[tuple[int, bytes]]] = {}
        for (stage, index), data in states.items():
            by_stage.setdefault(stage, []).append((index, data))
        known_stages = {runtime.stage.name for runtime in self.runtimes}
        unknown = sorted(set(by_stage) - known_stages)
        if unknown:
            raise ValueError(
                f"checkpoint carries state for stages {unknown} that are "
                f"not part of this pipeline ({sorted(known_stages)}); was "
                "it taken under a different kernel configuration?"
            )
        for runtime in self.runtimes:
            payloads = by_stage.get(runtime.stage.name)
            if not payloads:
                continue
            if runtime.stage.name == "enumerate":
                payloads = _repartition_by_anchor(runtime, payloads)
            args: list[tuple | None] = [None] * len(runtime.subtasks)
            for index, data in payloads:
                args[index] = (data,)
            self.backend.query(runtime, "restore_encoded", args)
        self._protected_cache = None
        self._forming_cache = None
        self._state_digests.clear()
        self._state_payloads.clear()
        self.collect_operator_states()

    def state_metrics(self) -> dict[str, dict[str, int]]:
        """Per-component memory accounting across the whole pipeline.

        One entry per stage (subtask metrics summed), plus the
        master-side collector and meter.  Stage metrics require a
        checkpoint-capable backend and a running job; after
        :meth:`finish` only the master-side components report.
        """
        metrics: dict[str, dict[str, int]] = {}
        if self.supports_checkpoint and not self._finished:
            for runtime in self.runtimes:
                merged: dict[str, int] = {}
                for _index, sub in self.backend.query(runtime, "state_metrics"):
                    for key, value in sub.items():
                        merged[key] = merged.get(key, 0) + value
                if merged:
                    metrics[runtime.stage.name] = merged
        metrics["collector"] = self.collector.state_metrics()
        metrics["meter"] = self.meter.state_metrics()
        return metrics
