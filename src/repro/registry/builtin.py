"""Registration of the built-in strategies on a plugin registry.

Every strategy PRs 1-3 introduced ad hoc is re-registered here through
the one typed extension point: the two execution backends
(``streaming/runtime/``), both clustering kernels (``kernels/``), both
enumeration kernels (``enumeration/kernels/``), the three enumerators
(baseline / FBA / VBA), the shed policies (``shedding/``) and the
pattern families (``patterns/``).  Factories import their modules
lazily so loading the registry stays cheap and free of import cycles —
the heavy strategy code is only touched when a plugin is constructed.

Factory signatures per axis (third-party plugins must match):

* ``backend``: ``factory(max_workers: int | None = None)`` returning an
  :class:`~repro.streaming.runtime.base.ExecutionBackend`;
* ``clustering_kernel``: ``factory(*, epsilon, min_pts, cell_width,
  metric_name, lemma1, lemma2, local_index, rtree_fanout)`` returning a
  :class:`~repro.kernels.base.ClusteringKernel`;
* ``enumeration_kernel``: ``factory(*, enumerator, constraints,
  ba_max_partition_size, vba_candidate_retention)`` returning an
  :class:`~repro.enumeration.kernels.base.EnumerationKernel`;
* ``enumerator``: ``factory(anchor, constraints, *,
  ba_max_partition_size, vba_candidate_retention)`` returning an
  :class:`~repro.enumeration.base.AnchorEnumerator`;
* ``shed_policy``: ``factory(seed: int | None = 0)`` returning a
  :class:`~repro.shedding.policy.ShedPolicy` (the seed drives the
  policy's drop RNG; stateless policies ignore it);
* ``pattern_family``: ``factory(constraints, *, theta: float = 0.5,
  min_probability: float = 0.0)`` returning a
  :class:`~repro.patterns.base.PatternFamily` (``theta`` is the
  Jaccard-continuity threshold of the evolving family,
  ``min_probability`` the emission threshold of the predictive family;
  families ignore knobs they do not use).
"""

from __future__ import annotations

from repro.registry.capabilities import PluginCapabilities
from repro.registry.core import PluginRegistry, PluginSpec

# ------------------------------------------------------------------ backends


def _serial_backend(max_workers: int | None = None):
    """The sequential reference backend (``max_workers`` is ignored)."""
    from repro.streaming.runtime.serial import SerialBackend

    return SerialBackend()


def _process_backend(max_workers: int | None = None):
    """The shared-nothing worker-process backend (shm exchanges)."""
    from repro.streaming.runtime.process import ProcessBackend

    return ProcessBackend(max_workers=max_workers)


# ---------------------------------------------------------- clustering kernels


def _python_clustering_kernel(**params):
    """The reference GR-index object path (honours every ablation)."""
    from repro.kernels.python_ref import PythonKernel

    return PythonKernel(**params)


def _numpy_clustering_kernel(
    *,
    epsilon: float,
    min_pts: int,
    cell_width: float,
    metric_name: str = "l1",
    **ablation,
):
    """The vectorized array kernel.

    The vectorized path has no object walk (no replication, no local
    trees, its own epsilon-derived bucket width): ``cell_width`` and the
    ablation switches are absorbed unused.  Non-default ablation
    switches never reach this factory — the spec declares
    ``supports_ablation=False`` and ``make_kernel`` enforces that
    capability declaratively for every registered kernel.
    """
    from repro.kernels.numpy_kernel import NumpyKernel

    return NumpyKernel(epsilon=epsilon, min_pts=min_pts, metric_name=metric_name)


# --------------------------------------------------------- enumeration kernels


def _python_enumeration_kernel(
    *,
    enumerator: str,
    constraints,
    ba_max_partition_size: int = 20,
    vba_candidate_retention: int | None = None,
):
    """Reference per-anchor state machines behind the batched contract."""
    from repro.enumeration.kernels.python_ref import (
        PythonEnumerationKernel,
        anchor_enumerator_factory,
    )

    return PythonEnumerationKernel(
        anchor_enumerator_factory(
            enumerator,
            constraints,
            ba_max_partition_size=ba_max_partition_size,
            vba_candidate_retention=vba_candidate_retention,
        )
    )


def _numpy_enumeration_kernel(
    *,
    enumerator: str,
    constraints,
    ba_max_partition_size: int = 20,
    vba_candidate_retention: int | None = None,
):
    """Batched membership-bitmap kernel (FBA / VBA forms only)."""
    from repro.enumeration.kernels.numpy_kernel import NumpyEnumerationKernel

    return NumpyEnumerationKernel(
        enumerator,
        constraints,
        vba_candidate_retention=vba_candidate_retention,
    )


# ----------------------------------------------------------------- enumerators


def _baseline_enumerator(
    anchor: int,
    constraints,
    *,
    ba_max_partition_size: int = 20,
    vba_candidate_retention: int | None = None,
):
    """BA: subset materialisation with the partition-size cap."""
    from repro.enumeration.baseline import BAEnumerator

    return BAEnumerator(
        anchor, constraints, max_partition_size=ba_max_partition_size
    )


def _fba_enumerator(
    anchor: int,
    constraints,
    *,
    ba_max_partition_size: int = 20,
    vba_candidate_retention: int | None = None,
):
    """FBA: forward bit-compression over sliding windows."""
    from repro.enumeration.fba import FBAEnumerator

    return FBAEnumerator(anchor, constraints)


def _vba_enumerator(
    anchor: int,
    constraints,
    *,
    ba_max_partition_size: int = 20,
    vba_candidate_retention: int | None = None,
):
    """VBA: verification bit-compression with the global candidate list."""
    from repro.enumeration.vba import VBAEnumerator

    return VBAEnumerator(
        anchor, constraints, candidate_retention=vba_candidate_retention
    )


# --------------------------------------------------------------- shed policies


def _none_shed_policy(seed: int | None = 0):
    """The default no-op policy (``seed`` is ignored)."""
    from repro.shedding.policy import NoShedPolicy

    return NoShedPolicy()


def _random_shed_policy(seed: int | None = 0):
    """Uniform Bernoulli shedding, the state-blind baseline."""
    from repro.shedding.policy import RandomShedPolicy

    return RandomShedPolicy(seed=seed)


def _pattern_aware_shed_policy(seed: int | None = 0):
    """Semantic shedding that protects live partial matches."""
    from repro.shedding.policy import PatternAwareShedPolicy

    return PatternAwareShedPolicy(seed=seed)


# ------------------------------------------------------------- pattern families


def _strict_pattern_family(constraints, *, theta: float = 0.5,
                           min_probability: float = 0.0):
    """The paper's exact CP(M, K, L, G) semantics (no extra machinery)."""
    from repro.patterns.base import StrictFamily

    return StrictFamily()


def _evolving_pattern_family(constraints, *, theta: float = 0.5,
                             min_probability: float = 0.0):
    """Relaxed co-movement with θ-bounded membership drift."""
    from repro.patterns.evolving import EvolvingGroupTracker

    return EvolvingGroupTracker(constraints, theta=theta)


def _predictive_pattern_family(constraints, *, theta: float = 0.5,
                               min_probability: float = 0.0):
    """Online confirmation-probability scoring of forming candidates."""
    from repro.patterns.prediction import PredictiveFamily

    return PredictiveFamily(constraints, min_probability=min_probability)


BUILTIN_SPECS: tuple[PluginSpec, ...] = (
    PluginSpec(
        kind="backend",
        name="serial",
        factory=_serial_backend,
        capabilities=PluginCapabilities(
            supports_batch_ingest=True,
            supports_checkpoint=True,
            exports_telemetry=True,
        ),
        summary="sequential in-process execution (deterministic reference)",
        source="builtin",
    ),
    PluginSpec(
        kind="backend",
        name="process",
        factory=_process_backend,
        capabilities=PluginCapabilities(
            supports_batch_ingest=True,
            supports_process_isolation=True,
            supports_checkpoint=True,
            exports_telemetry=True,
        ),
        summary="shared-nothing worker processes, shared-memory exchanges",
        source="builtin",
    ),
    PluginSpec(
        kind="clustering_kernel",
        name="python",
        factory=_python_clustering_kernel,
        capabilities=PluginCapabilities(),
        summary="reference GR-index object path (honours every ablation)",
        source="builtin",
    ),
    PluginSpec(
        kind="clustering_kernel",
        name="numpy",
        factory=_numpy_clustering_kernel,
        capabilities=PluginCapabilities(
            supports_ablation=False,
            honours_cell_width=False,
        ),
        summary="vectorized bucketing + searchsorted join + array DBSCAN",
        source="builtin",
    ),
    PluginSpec(
        kind="enumeration_kernel",
        name="python",
        factory=_python_enumeration_kernel,
        capabilities=PluginCapabilities(),
        summary="reference per-anchor BA/FBA/VBA state machines",
        source="builtin",
    ),
    PluginSpec(
        kind="enumeration_kernel",
        name="numpy",
        factory=_numpy_enumeration_kernel,
        capabilities=PluginCapabilities(requires_bitmap_enumeration=True),
        summary="batched membership bitmaps, popcount screens, Lemma-7 closes",
        source="builtin",
    ),
    PluginSpec(
        kind="enumerator",
        name="baseline",
        factory=_baseline_enumerator,
        capabilities=PluginCapabilities(provides_bitmap_enumeration=False),
        summary="BA subset materialisation (Fig. 12's capped baseline)",
        source="builtin",
    ),
    PluginSpec(
        kind="enumerator",
        name="fba",
        factory=_fba_enumerator,
        capabilities=PluginCapabilities(
            provides_bitmap_enumeration=True,
            provides_forming_state=True,
        ),
        summary="forward bit-compression enumeration (Definition 13)",
        source="builtin",
    ),
    PluginSpec(
        kind="enumerator",
        name="vba",
        factory=_vba_enumerator,
        capabilities=PluginCapabilities(
            provides_bitmap_enumeration=True,
            provides_forming_state=True,
        ),
        summary="verification bit-compression enumeration (Definition 14)",
        source="builtin",
    ),
    PluginSpec(
        kind="shed_policy",
        name="none",
        factory=_none_shed_policy,
        capabilities=PluginCapabilities(),
        summary="no load shedding (default; zero per-batch overhead)",
        source="builtin",
    ),
    PluginSpec(
        kind="shed_policy",
        name="random",
        factory=_random_shed_policy,
        capabilities=PluginCapabilities(),
        summary="uniform Bernoulli drops (state-blind shedding baseline)",
        source="builtin",
    ),
    PluginSpec(
        kind="shed_policy",
        name="pattern_aware",
        factory=_pattern_aware_shed_policy,
        capabilities=PluginCapabilities(protects_patterns=True),
        summary="drops only cold records; partial matches are protected",
        source="builtin",
    ),
    PluginSpec(
        kind="pattern_family",
        name="strict",
        factory=_strict_pattern_family,
        capabilities=PluginCapabilities(),
        summary="exact CP(M, K, L, G) detection only (default; no overhead)",
        source="builtin",
    ),
    PluginSpec(
        kind="pattern_family",
        name="evolving",
        factory=_evolving_pattern_family,
        capabilities=PluginCapabilities(detects_evolving_groups=True),
        summary="θ-continuous groups with drifting membership (GroupEvolved)",
        source="builtin",
    ),
    PluginSpec(
        kind="pattern_family",
        name="predictive",
        factory=_predictive_pattern_family,
        capabilities=PluginCapabilities(predicts_patterns=True),
        summary="online confirmation-probability scoring (PatternForming)",
        source="builtin",
    ),
)


def register_builtin_plugins(registry: PluginRegistry) -> PluginRegistry:
    """Register every built-in strategy; returns the registry."""
    registry.register_all(BUILTIN_SPECS)
    return registry
