"""The pattern-enumeration kernel contract (the PED phase's strategy).

Pattern enumeration — id-based partition records in, co-movement patterns
out — is the second hot path of the ICPE framework (the PED phase of
Fig. 3; Figs. 12-15 all sweep it).  Once snapshot clustering is
vectorized (:mod:`repro.kernels`), the per-anchor bit-string state
machines of Section 6 dominate the remaining per-snapshot cost.  An
*enumeration kernel* is one interchangeable implementation strategy for
a whole enumerate subtask: it consumes every partition record routed to
the subtask for one snapshot at once, maintains the membership bit
strings of all hosted anchors, and emits the confirmed
:class:`~repro.model.pattern.CoMovementPattern` instances.

Two strategies ship with the repository:

* ``python`` (:mod:`repro.enumeration.kernels.python_ref`) — the
  reference path: one :class:`~repro.enumeration.base.AnchorEnumerator`
  state machine (BA / FBA / VBA) per anchor, driven record by record in
  arrival order, then an absence tick for every non-idle anchor that
  received no record.  Supports every enumerator and is the default.
* ``numpy`` (:mod:`repro.enumeration.kernels.numpy_kernel`) — batches
  all anchors of the subtask into contiguous membership bitmaps
  (per-anchor bit columns packed into uint64 words) and vectorizes the
  bit-string maintenance: batched window builds and candidate screens
  for FBA, vectorized appends and Lemma-7 trailing-zero closing for VBA.
  Supports the bit-compression enumerators (``fba`` / ``vba``).

Every kernel must produce the *identical* pattern stream for the same
record stream: the vectorized layers only build bit strings and screen
candidates with necessary conditions — the exact validity predicate
(:func:`~repro.enumeration.bitstring.valid_sequences_of_bits`) and the
FBA growth (:func:`~repro.enumeration.growth.grow_window`) are the very
same code the reference enumerators run, and the numpy kernel's own VBA
growth pass is held to :func:`~repro.enumeration.growth.grow` pool for
pool — so emitted patterns are bit-for-bit identical per anchor, and
anchors never collide across subtasks (every pattern's smallest object
id *is* its anchor).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

from repro.model.pattern import CoMovementPattern

#: One snapshot's partition records for a subtask: ``(anchor, members)``
#: in arrival order, ``members`` being the strictly-larger-id co-cluster
#: members of the anchor (possibly empty — the explicit absence signal).
Partitions = Sequence[tuple[int, frozenset[int]]]


class EnumerationKernel(ABC):
    """One pattern-enumeration strategy for a whole enumerate subtask.

    Attributes:
        name: the strategy's name (``"python"``, ``"numpy"``).
    """

    name: str = "abstract"

    @abstractmethod
    def on_snapshot(
        self, time: int, partitions: Partitions
    ) -> list[CoMovementPattern]:
        """Consume one snapshot's partition records; return new patterns.

        ``partitions`` holds every record routed to this subtask for
        ``time``, as ``(anchor, members)`` pairs or as one
        :class:`~repro.model.batch.PartitionBatch` whose rows are those
        records; anchors the kernel has seen before but that received no
        record are treated as absent (their bit strings append a zero /
        their windows advance), exactly like the reference kernel's
        absence tick.  Times must arrive in strictly increasing order.
        """

    @abstractmethod
    def finish(self) -> list[CoMovementPattern]:
        """Flush end-of-stream state (pending windows, open bit strings)."""

    def protected_oids(self) -> frozenset[int]:
        """Oids participating in any hosted partial match (shed-protected).

        The union over every hosted anchor of the objects inside an
        open FBA window or an unclosed VBA bit string — the records
        the load shedder must not drop.  Kernels without partial-match
        state report nothing and leave every record sheddable.
        """
        return frozenset()

    def forming_candidates(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Forming-candidate descriptors of every hosted partial match.

        The concatenation, sorted by ``(anchor, oid, start)``, of each
        hosted anchor's ``(anchor, oid, start, ones, remaining)``
        descriptors (see
        :meth:`repro.enumeration.base.AnchorEnumerator.forming_candidates`)
        — the prediction scorer's input.  Kernels without forming state
        report nothing.
        """
        return ()

    def snapshot_state(self) -> dict:
        """Serializable payload capturing the kernel's bit-string state.

        Both shipped kernels implement the pair; a third-party kernel
        without it makes the hosting stage's checkpoint fail loudly
        rather than silently dropping its state.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support state snapshots"
        )

    def restore_state(self, payload: dict) -> None:
        """Adopt a payload produced by :meth:`snapshot_state`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state snapshots"
        )

    def split_state(self, payload: dict) -> tuple[Any, dict[int, Any]]:
        """Split a :meth:`snapshot_state` payload by anchor for a restore.

        Returns ``(rest, pieces)``: ``pieces`` maps each anchor to its
        share of the state, ``rest`` holds what belongs to no anchor
        (work counters, the kernel clock).  A restore re-partitions a
        checkpoint across any fan-out through this pair.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support state re-partitioning"
        )

    def join_state(
        self, rests: list[Any], pieces: dict[int, Any], primary: bool
    ) -> dict:
        """One subtask's payload from the anchor ``pieces`` routed to it.

        ``rests`` are the rests of every split payload: clocks take
        their maximum, and work counters are summed only when
        ``primary`` (subtask 0), so stage totals are unchanged.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support state re-partitioning"
        )

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting (entry counts); empty for unknown kernels."""
        return {}
