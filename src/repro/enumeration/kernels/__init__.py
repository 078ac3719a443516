"""Selectable pattern-enumeration kernels (the PED-phase strategy axis).

The enumeration phase (id-based partitions -> bit strings -> candidate
screening -> combination growth) has interchangeable implementation
strategies behind one contract
(:class:`~repro.enumeration.kernels.base.EnumerationKernel`), named in
:data:`ENUMERATION_KERNELS`:

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


def _python_kernel(
    *,
    enumerator: str,
    constraints: PatternConstraints,
    ba_max_partition_size: int = 20,
    vba_candidate_retention: int | None = None,
) -> PythonEnumerationKernel:
    return PythonEnumerationKernel(
        anchor_enumerator_factory(
            enumerator,
            constraints,
            ba_max_partition_size=ba_max_partition_size,
            vba_candidate_retention=vba_candidate_retention,
        )
    )


def _numpy_kernel(
    *,
    enumerator: str,
    constraints: PatternConstraints,
    ba_max_partition_size: int = 20,
    vba_candidate_retention: int | None = None,
) -> NumpyEnumerationKernel:
    return NumpyEnumerationKernel(
        enumerator,
        constraints,
        vba_candidate_retention=vba_candidate_retention,
    )


#: The enumeration-kernel axis: name -> factory taking
#: :func:`make_enumeration_kernel`'s keyword parameters.
ENUMERATION_KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}

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
    bit-compression enumerators (``fba`` / ``vba``) — its constructor
    rejects ``"baseline"`` rather than silently downgrading.

    Raises:
        ValueError: for an unknown kernel name, an unknown enumerator,
            or a vectorized kernel combined with an enumerator that has
            no bitmap form.
    """
    factory = ENUMERATION_KERNELS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown enumeration kernel {name!r}; "
            f"choose from {list(ENUMERATION_KERNELS)}"
        )
    return factory(
        enumerator=enumerator,
        constraints=constraints,
        ba_max_partition_size=ba_max_partition_size,
        vba_candidate_retention=vba_candidate_retention,
    )
