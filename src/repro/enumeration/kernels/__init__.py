"""Selectable pattern-enumeration kernels (the PED-phase strategy axis).

The enumeration phase (id-based partitions -> bit strings -> candidate
screening -> combination growth) has interchangeable implementation
strategies behind one contract
(:class:`~repro.enumeration.kernels.base.EnumerationKernel`):

* ``"python"`` — the reference per-anchor state machines (BA / FBA /
  VBA), driven exactly like the classic enumerate operator; the default.
* ``"numpy"`` — contiguous membership bitmaps across all anchors of a
  subtask, vectorized window builds, popcount candidate screens and
  Lemma-7 trailing-zero closing; requires the bit-compression
  enumerators (``fba`` / ``vba``).

All kernels produce identical pattern streams by construction (the exact
validity predicate and the combination growth are shared code), so the
choice is purely a performance strategy — selectable via
``ICPEConfig(enumeration_kernel=...)`` or the CLI's ``--enum-kernel``
flag, and composable with either execution backend and either
clustering kernel.
"""

from __future__ import annotations

from repro.enumeration.kernels.base import EnumerationKernel
from repro.enumeration.kernels.numpy_kernel import (
    BITMAP_ENUMERATORS,
    NumpyEnumerationKernel,
)
from repro.enumeration.kernels.python_ref import (
    PythonEnumerationKernel,
    anchor_enumerator_factory,
)
from repro.model.constraints import PatternConstraints

ENUMERATION_KERNELS = ("python", "numpy")

__all__ = [
    "BITMAP_ENUMERATORS",
    "ENUMERATION_KERNELS",
    "EnumerationKernel",
    "NumpyEnumerationKernel",
    "PythonEnumerationKernel",
    "anchor_enumerator_factory",
    "make_enumeration_kernel",
]


def make_enumeration_kernel(
    name: str,
    *,
    enumerator: str,
    constraints: PatternConstraints,
    ba_max_partition_size: int = 20,
    vba_candidate_retention: int | None = None,
) -> EnumerationKernel:
    """Build the named enumeration kernel for one enumerate subtask.

    The reference kernel hosts any enumerator; the vectorized kernel
    batches membership bit strings and therefore supports only the
    bit-compression enumerators (``fba`` / ``vba``) — combining it with
    ``"baseline"`` is rejected rather than silently downgraded.

    Resolution goes through the plugin registry (kinds
    ``"enumeration_kernel"`` and ``"enumerator"``): the kernel/enumerator
    combination is validated declaratively from the registered
    capability metadata (``requires_bitmap_enumeration`` vs
    ``provides_bitmap_enumeration``) before construction, and
    third-party kernels registered via the ``repro.plugins`` entry-point
    group are constructible here without any change to this package.

    Raises:
        ValueError: for an unknown kernel name, an unknown enumerator,
            or a vectorized kernel combined with an enumerator that has
            no bitmap form.
    """
    from repro.registry import default_registry

    selection = default_registry().validate_selection(
        enumeration_kernel=name, enumerator=enumerator
    )
    return selection["enumeration_kernel"].create(
        enumerator=enumerator,
        constraints=constraints,
        ba_max_partition_size=ba_max_partition_size,
        vba_candidate_retention=vba_candidate_retention,
    )
