"""Configuration of the ICPE framework.

Bundles every knob of Table 3 (grid cell width, distance threshold, the
four pattern constraints), the DBSCAN density, the enumerator selection
(B / F / V of Figs. 12-14), ablation switches, and the simulated cluster
shape (N nodes of Fig. 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.rjc import ClusteringConfig
from repro.index.rtree import MIN_MAX_ENTRIES
from repro.model.constraints import PatternConstraints
from repro.registry import default_registry
from repro.streaming.cluster import ClusterModel


@dataclass(frozen=True, slots=True)
class ICPEConfig:
    """Full configuration of a pattern-detection run.

    Attributes:
        epsilon: DBSCAN / range-join distance threshold.
        cell_width: GR-index grid cell width (``lg``).
        min_pts: DBSCAN density threshold (the paper fixes 10).
        constraints: the CP(M, K, L, G) pattern constraints.
        enumerator: ``"baseline"``, ``"fba"`` or ``"vba"``.
        metric_name: distance metric (paper: L1).
        allocate_parallelism: subtasks of the GridAllocate stage.
        query_parallelism: subtasks of the GridQuery stage (cells are
            hashed onto these, Flink key-group style).
        enumerate_parallelism: subtasks of the enumeration stage (anchor
            trajectories hashed onto these).  For all three, ``None``
            (the default) follows the backend: one subtask on
            ``serial``, one per worker on ``process`` — physical
            fan-out matches the hardware that runs it.
            Explicit ints fix the topology, for sweeps and ablations
            (the Fig. 14 node sweep passes the paper's 8/16/16).  The
            results are identical at every fan-out, and a checkpoint
            restores into any other.
        rtree_fanout: local R-tree node capacity.
        lemma1 / lemma2 / local_index: ablation switches (paper: on/rtree).
        max_delay: bounded-delay guarantee for time synchronisation.
        trajectory_ttl: optional bound on time-sync state — a trajectory
            idle for more than this many time units behind the watermark
            is evicted, and a later reappearance is treated as a fresh
            object (None = keep every chain forever).  Must exceed
            ``max_delay``.
        cluster: the simulated cluster (nodes, cores, exchange cost).
        ba_max_partition_size: BA's subset-materialisation cap.
        vba_candidate_retention: optional eviction horizon for VBA's
            global candidate list (None = paper semantics, keep all).
        backend: execution backend running the job graph — ``"serial"``
            (sequential, deterministic, default) or ``"process"``
            (shared-nothing worker processes with shared-memory columnar
            exchanges; identical results, no GIL contention between
            subtasks).
        parallel_workers: worker-pool size cap for the process backend
            (``None`` = one worker per usable core, at least 4); the
            pool spawns no more workers than its widest multi-subtask
            stage has subtasks.
        clustering_kernel: snapshot-clustering kernel strategy —
            ``"python"`` (the reference object path, default) or
            ``"numpy"`` (vectorized array kernel; identical cluster and
            pattern sets).
            Composable with either execution backend.
        enumeration_kernel: pattern-enumeration kernel strategy —
            ``"python"`` (reference per-anchor state machines, default)
            or ``"numpy"`` (batched membership bitmaps across every
            anchor of a subtask; identical pattern sets, requires a
            bit-compression enumerator, i.e. ``fba`` or ``vba``).  Composable with either execution
            backend and either clustering kernel.
        shed_policy: load-shedding policy applied to completed snapshots
            before clustering — ``"none"`` (default, no shedding),
            ``"random"`` (uniform Bernoulli drops) or ``"pattern_aware"``
            (drops only records of objects outside every live partial
            match; see :mod:`repro.shedding`).  Dropping happens after
            time synchronisation so the reassembly chains and the
            bounded-delay watermark are never disturbed.
        shed_rate: target fraction of snapshot records to shed
            (``0 <= rate < 1``).  The starting rate when a latency
            target drives the controller, the fixed rate otherwise.
        shed_seed: seed of the shed policy's drop RNG (deterministic
            shedding per seed; differential tests rely on it).
        target_p99_ms: optional latency SLO — when set, the
            :class:`~repro.shedding.controller.SLOController` adapts the
            shed rate toward this p99 per-snapshot latency with
            hysteresis (``None`` = hold ``shed_rate`` fixed).
        checkpoint_every_records: automatic-checkpoint cadence by record
            count — a session with a checkpoint directory saves a new
            checkpoint once at least this many records have been
            ingested since the last save (and a new watermark exists).
            ``None`` disables the record cadence.
        checkpoint_every_seconds: automatic-checkpoint cadence by wall
            clock — saves once this many seconds have elapsed since the
            last save (and a new watermark exists).  ``None`` disables
            the time cadence.  Both cadences may be set; whichever
            fires first triggers the save.
        pattern_family: the pattern-family axis — ``"strict"`` (default,
            the paper's exact semantics, zero overhead), ``"evolving"``
            (θ-continuous groups with drifting membership, emitting
            ``GroupEvolved`` events; see :mod:`repro.patterns.evolving`)
            or ``"predictive"`` (online confirmation-probability scoring
            of live partial matches, emitting ``PatternForming`` events;
            requires a forming-state enumerator, i.e. ``fba`` / ``vba``;
            see :mod:`repro.patterns.prediction`).
        evolving_theta: Jaccard-continuity threshold θ of the evolving
            family, in ``(0, 1]`` — a live group continues into a
            cluster only when their member Jaccard similarity reaches θ
            (1.0 degenerates to fixed membership).
        prediction_min_probability: emission threshold of the predictive
            family, in ``[0, 1]`` — forming candidates scoring below it
            are not emitted (0.0 emits every reachable candidate).

    Every strategy field (``enumerator``, ``backend``,
    ``clustering_kernel``, ``enumeration_kernel``, ``shed_policy``,
    ``pattern_family``)
    accepts any name
    registered on the plugin registry — built-ins or third-party plugins
    discovered via the ``repro.plugins`` entry-point group — and invalid
    cross-axis combinations are rejected declaratively from the
    registered capability metadata.  For a fluent streaming front end
    over this configuration, see :class:`repro.session.Session`.
    """

    epsilon: float
    cell_width: float
    min_pts: int
    constraints: PatternConstraints
    enumerator: str = "fba"
    metric_name: str = "l1"
    allocate_parallelism: int | None = None
    query_parallelism: int | None = None
    enumerate_parallelism: int | None = None
    rtree_fanout: int = 16
    lemma1: bool = True
    lemma2: bool = True
    local_index: str = "rtree"
    max_delay: int = 0
    trajectory_ttl: int | None = None
    cluster: ClusterModel = field(default_factory=ClusterModel)
    ba_max_partition_size: int = 20
    vba_candidate_retention: int | None = None
    backend: str = "serial"
    parallel_workers: int | None = None
    clustering_kernel: str = "python"
    enumeration_kernel: str = "python"
    shed_policy: str = "none"
    shed_rate: float = 0.0
    shed_seed: int = 0
    target_p99_ms: float | None = None
    checkpoint_every_records: int | None = None
    checkpoint_every_seconds: float | None = None
    pattern_family: str = "strict"
    evolving_theta: float = 0.5
    prediction_min_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive: {self.epsilon}")
        if self.cell_width <= 0:
            raise ValueError(f"cell_width must be positive: {self.cell_width}")
        if self.min_pts < 1:
            raise ValueError(f"min_pts must be >= 1: {self.min_pts}")
        for name in (
            "allocate_parallelism",
            "query_parallelism",
            "enumerate_parallelism",
        ):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.rtree_fanout < MIN_MAX_ENTRIES:
            raise ValueError(
                f"rtree_fanout must be >= {MIN_MAX_ENTRIES}: {self.rtree_fanout}"
            )
        if self.parallel_workers is not None and self.parallel_workers < 1:
            raise ValueError(
                f"parallel_workers must be >= 1: {self.parallel_workers}"
            )
        if self.trajectory_ttl is not None and (
            self.trajectory_ttl <= self.max_delay
        ):
            raise ValueError(
                f"trajectory_ttl must be > max_delay ({self.max_delay}): "
                f"{self.trajectory_ttl}"
            )
        if not 0.0 <= self.shed_rate < 1.0:
            raise ValueError(
                f"shed_rate must be in [0, 1): {self.shed_rate}"
            )
        if self.target_p99_ms is not None and self.target_p99_ms <= 0:
            raise ValueError(
                f"target_p99_ms must be positive: {self.target_p99_ms}"
            )
        if (
            self.checkpoint_every_records is not None
            and self.checkpoint_every_records < 1
        ):
            raise ValueError(
                "checkpoint_every_records must be >= 1: "
                f"{self.checkpoint_every_records}"
            )
        if (
            self.checkpoint_every_seconds is not None
            and self.checkpoint_every_seconds <= 0
        ):
            raise ValueError(
                "checkpoint_every_seconds must be positive: "
                f"{self.checkpoint_every_seconds}"
            )
        if not 0.0 < self.evolving_theta <= 1.0:
            raise ValueError(
                f"evolving_theta must be in (0, 1]: {self.evolving_theta}"
            )
        if not 0.0 <= self.prediction_min_probability <= 1.0:
            raise ValueError(
                "prediction_min_probability must be in [0, 1]: "
                f"{self.prediction_min_probability}"
            )
        # Strategy names and their cross-axis combinations are validated
        # against the plugin registry: unknown names and invalid
        # capability pairs (e.g. a bitmap-batching enumeration kernel
        # with a non-bitmap enumerator) raise ValueError subclasses.
        default_registry().validate_selection(
            backend=self.backend,
            clustering_kernel=self.clustering_kernel,
            enumeration_kernel=self.enumeration_kernel,
            enumerator=self.enumerator,
            shed_policy=self.shed_policy,
            pattern_family=self.pattern_family,
        )

    def clustering_config(self) -> ClusteringConfig:
        """The clustering-phase view of this configuration."""
        return ClusteringConfig(
            epsilon=self.epsilon,
            min_pts=self.min_pts,
            cell_width=self.cell_width,
            metric_name=self.metric_name,
            rtree_fanout=self.rtree_fanout,
            lemma1=self.lemma1,
            lemma2=self.lemma2,
            local_index=self.local_index,
            kernel=self.clustering_kernel,
        )

    def with_nodes(self, n_nodes: int) -> "ICPEConfig":
        """Copy with a different simulated cluster size (Fig. 14 sweeps)."""
        return replace(
            self,
            cluster=replace(self.cluster, n_nodes=n_nodes),
        )

    def with_enumerator(self, enumerator: str) -> "ICPEConfig":
        """Copy with a different enumeration engine."""
        return replace(self, enumerator=enumerator)

    def with_backend(
        self, backend: str, parallel_workers: int | None = None
    ) -> "ICPEConfig":
        """Copy with a different execution backend (and pool size)."""
        return replace(
            self, backend=backend, parallel_workers=parallel_workers
        )

    def with_kernel(self, clustering_kernel: str) -> "ICPEConfig":
        """Copy with a different snapshot-clustering kernel strategy."""
        return replace(self, clustering_kernel=clustering_kernel)

    def with_enum_kernel(self, enumeration_kernel: str) -> "ICPEConfig":
        """Copy with a different pattern-enumeration kernel strategy."""
        return replace(self, enumeration_kernel=enumeration_kernel)

    def with_shedding(
        self,
        shed_policy: str,
        shed_rate: float = 0.0,
        target_p99_ms: float | None = None,
    ) -> "ICPEConfig":
        """Copy with a different load-shedding configuration."""
        return replace(
            self,
            shed_policy=shed_policy,
            shed_rate=shed_rate,
            target_p99_ms=target_p99_ms,
        )

    def with_patterns(
        self,
        pattern_family: str,
        evolving_theta: float = 0.5,
        prediction_min_probability: float = 0.0,
    ) -> "ICPEConfig":
        """Copy with a different pattern-family configuration."""
        return replace(
            self,
            pattern_family=pattern_family,
            evolving_theta=evolving_theta,
            prediction_min_probability=prediction_min_probability,
        )
