"""Selectable snapshot-clustering kernels.

The clustering phase (grid bucketing + epsilon-range join + DBSCAN) has
interchangeable implementation strategies behind one contract
(:class:`~repro.kernels.base.ClusteringKernel`):

* ``"python"`` — the reference object walk (GR-index join, honours every
  ablation switch); the default.
* ``"numpy"`` — contiguous-array bucketing, searchsorted cell matching and
  vectorized DBSCAN labeling.

All kernels produce identical cluster sets by construction (exact pair
verification + the canonical border rule), so the choice is purely a
performance strategy — selectable via ``ICPEConfig(clustering_kernel=...)``
or the CLI's ``--kernel`` flag, and composable with either execution
backend.

Since the plugin-registry redesign, :func:`make_kernel` resolves names
through :func:`repro.registry.default_registry` (kind
``"clustering_kernel"``), so third-party kernels registered via the
``repro.plugins`` entry-point group are constructible here without any
change to this package; :data:`KERNELS` keeps naming the built-in
strategies.
"""

from __future__ import annotations

from dataclasses import fields as _dataclass_fields

from repro.join.range_join import RangeJoinConfig
from repro.kernels.base import ClusteringKernel
from repro.kernels.numpy_kernel import NumpyKernel
from repro.kernels.python_ref import PythonKernel

KERNELS = ("python", "numpy")

#: Ablation-switch defaults, read from their canonical declaration
#: (:class:`~repro.join.range_join.RangeJoinConfig`) so the "is this a
#: default?" check below cannot drift from the config dataclasses.
_ABLATION_DEFAULTS = {
    f.name: f.default
    for f in _dataclass_fields(RangeJoinConfig)
    if f.name in ("lemma1", "lemma2", "local_index", "rtree_fanout")
}

__all__ = [
    "KERNELS",
    "ClusteringKernel",
    "NumpyKernel",
    "PythonKernel",
    "make_kernel",
]


def make_kernel(
    name: str,
    *,
    epsilon: float,
    min_pts: int,
    cell_width: float,
    metric_name: str = "l1",
    lemma1: bool = _ABLATION_DEFAULTS["lemma1"],
    lemma2: bool = _ABLATION_DEFAULTS["lemma2"],
    local_index: str = _ABLATION_DEFAULTS["local_index"],
    rtree_fanout: int = _ABLATION_DEFAULTS["rtree_fanout"],
) -> ClusteringKernel:
    """Build the named kernel from the clustering-phase parameters.

    Resolution goes through the plugin registry (kind
    ``"clustering_kernel"``), so the name may be a built-in or any
    third-party kernel registered via the ``repro.plugins`` entry-point
    group.  The reference kernel consumes every parameter; vectorized
    kernels have no object path (no replication, no local trees, their
    own bucket width), so combining them with a non-default ablation
    switch is rejected rather than silently ignored — an ablation sweep
    must run the reference kernel to measure anything.  ``cell_width``
    cannot be rejected the same way (every caller passes it), but it
    likewise has no effect on vectorized kernels: they derive their
    bucket width from epsilon (see ``NumpyKernel.bucket_width``), so
    grid-width sweeps (Fig. 11) only measure kernels whose registered
    capabilities include ``honours_cell_width``.

    Raises:
        ValueError: for an unknown kernel name, or a kernel whose
            registered capabilities lack ``supports_ablation`` combined
            with non-default ablation switches.
    """
    from repro.registry import default_registry

    spec = default_registry().get("clustering_kernel", name)
    ablation = dict(
        lemma1=lemma1,
        lemma2=lemma2,
        local_index=local_index,
        rtree_fanout=rtree_fanout,
    )
    if not spec.capabilities.supports_ablation:
        non_default = [
            f"{switch}={value!r}"
            for switch, value in ablation.items()
            if value != _ABLATION_DEFAULTS[switch]
        ]
        if non_default:
            raise ValueError(
                "ablation switches only affect kernels whose registered "
                f"capabilities include supports_ablation; the {name!r} "
                f"kernel would ignore {', '.join(non_default)} — run "
                "ablations with clustering_kernel='python'"
            )
    return spec.create(
        epsilon=epsilon,
        min_pts=min_pts,
        cell_width=cell_width,
        metric_name=metric_name,
        **ablation,
    )
