"""Reference enumeration kernel: per-anchor state machines, batched API.

``PythonEnumerationKernel`` hosts one
:class:`~repro.enumeration.base.AnchorEnumerator` per anchor and drives
it the way the paper's keyed enumeration operator does: each
snapshot's partition records in arrival order, then the absence tick
(an empty partition) for every known non-idle anchor that received
none.  It is the default kernel behind
:class:`~repro.core.operators.BatchedEnumerateOperator`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.enumeration import ENUMERATORS
from repro.enumeration.base import AnchorEnumerator
from repro.enumeration.kernels.base import EnumerationKernel, Partitions
from repro.model.batch import PartitionBatch
from repro.model.constraints import PatternConstraints
from repro.model.pattern import CoMovementPattern


def anchor_enumerator_factory(
    enumerator: str,
    constraints: PatternConstraints,
    *,
    ba_max_partition_size: int = 20,
    vba_candidate_retention: int | None = None,
) -> Callable[[int], AnchorEnumerator]:
    """Per-anchor state-machine factory for the named enumerator.

    The single construction point for per-anchor enumerator instances,
    shared by the reference enumeration kernel and the bench harness.

    Raises:
        ValueError: for a name not in
            :data:`~repro.enumeration.ENUMERATORS`.
    """
    factory = ENUMERATORS.get(enumerator)
    if factory is None:
        raise ValueError(
            f"unknown enumerator {enumerator!r}; "
            f"choose from {list(ENUMERATORS)}"
        )
    return lambda anchor: factory(
        anchor,
        constraints,
        ba_max_partition_size=ba_max_partition_size,
        vba_candidate_retention=vba_candidate_retention,
    )


class PythonEnumerationKernel(EnumerationKernel):
    """The reference AnchorEnumerator path behind the batched contract."""

    name = "python"

    def __init__(self, factory: Callable[[int], AnchorEnumerator]):
        self._factory = factory
        self._enumerators: dict[int, AnchorEnumerator] = {}

    def on_snapshot(
        self, time: int, partitions: Partitions | PartitionBatch
    ) -> list[CoMovementPattern]:
        """Route records to their anchors, then tick the absent ones."""
        if isinstance(partitions, PartitionBatch):
            partitions = [
                (anchor, members) for _time, anchor, members in partitions.rows()
            ]
        out: list[CoMovementPattern] = []
        received: set[int] = set()
        for anchor, members in partitions:
            enumerator = self._enumerators.get(anchor)
            if enumerator is None:
                enumerator = self._enumerators[anchor] = self._factory(anchor)
            received.add(anchor)
            out.extend(enumerator.on_partition(time, members))
        for anchor, enumerator in self._enumerators.items():
            if anchor in received or enumerator.is_idle():
                continue
            out.extend(enumerator.on_partition(time, frozenset()))
        return out

    def finish(self) -> list[CoMovementPattern]:
        """Flush every hosted enumerator at end of stream."""
        out: list[CoMovementPattern] = []
        for anchor in sorted(self._enumerators):
            out.extend(self._enumerators[anchor].finish())
        return out

    def protected_oids(self) -> frozenset[int]:
        """Union of every hosted enumerator's protected set."""
        protected: set[int] = set()
        for enumerator in self._enumerators.values():
            protected.update(enumerator.protected_oids())
        return frozenset(protected)

    def forming_candidates(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Sorted concatenation of every hosted enumerator's descriptors."""
        out: list[tuple[int, int, int, int, int]] = []
        for anchor in sorted(self._enumerators):
            out.extend(self._enumerators[anchor].forming_candidates())
        return tuple(sorted(out))

    def snapshot_state(self) -> dict:
        """Per-anchor enumerator payloads, keyed by anchor id."""
        return {
            "anchors": {
                anchor: self._enumerators[anchor].snapshot_state()
                for anchor in sorted(self._enumerators)
            }
        }

    def restore_state(self, payload: dict) -> None:
        """Rebuild each anchor's enumerator through the factory, then
        hand it its captured payload."""
        self._enumerators = {}
        for anchor, sub_payload in payload["anchors"].items():
            enumerator = self._factory(anchor)
            enumerator.restore_state(sub_payload)
            self._enumerators[anchor] = enumerator

    def split_state(self, payload: dict) -> tuple[dict, dict[int, Any]]:
        """Split the payload by anchor.

        The per-anchor state machines carry their own clocks and
        counters, so nothing is left over: the rest is empty.
        """
        return {}, dict(payload["anchors"])

    def join_state(
        self, rests: list[dict], pieces: dict[int, Any], primary: bool
    ) -> dict:
        """Inverse of :meth:`split_state` for one subtask's anchors."""
        return {"anchors": {anchor: pieces[anchor] for anchor in sorted(pieces)}}

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting: hosted anchors plus summed enumerator metrics."""
        metrics = {"anchors": len(self._enumerators)}
        for enumerator in self._enumerators.values():
            for key, value in enumerator.state_metrics().items():
                metrics[key] = metrics.get(key, 0) + value
        return metrics
