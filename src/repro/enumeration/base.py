"""Shared enumerator interface and result collection.

An :class:`AnchorEnumerator` is the per-subtask state machine: it consumes
the anchor's partition at each successive time and emits co-movement
patterns (anchor included).  :class:`PatternCollector` is the sink that
deduplicates emissions across subtasks and windows.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable

from repro.model.constraints import PatternConstraints
from repro.model.pattern import CoMovementPattern


class AnchorEnumerator(ABC):
    """Per-anchor pattern enumeration state machine."""

    def __init__(self, anchor: int, constraints: PatternConstraints):
        self.anchor = anchor
        self.constraints = constraints

    @abstractmethod
    def on_partition(
        self, time: int, members: frozenset[int]
    ) -> list[CoMovementPattern]:
        """Consume ``P_time(anchor)`` and return any patterns confirmed now.

        ``members`` excludes the anchor itself; an empty set means the
        anchor was not in any significant cluster at ``time``.  Times must
        arrive in strictly increasing order.
        """

    @abstractmethod
    def finish(self) -> list[CoMovementPattern]:
        """Flush end-of-stream state (bounded evaluation only)."""

    def is_idle(self) -> bool:
        """True when an empty partition would be a no-op for this anchor.

        The enumeration stage uses this to skip the per-snapshot absence
        tick for anchors whose windows/bit strings hold no open state.
        """
        return False

    def protected_oids(self) -> frozenset[int]:
        """Oids this machine's partial matches depend on (shed-protected).

        The load shedder must not drop records for objects currently
        inside a forming pattern — an open FBA window, an unclosed VBA
        bit string.  Machines with no such notion (the baseline
        enumerator keeps no cross-snapshot partial state worth
        protecting) report nothing and leave every record sheddable.
        """
        return frozenset()

    def forming_candidates(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Live partial matches as ``(anchor, oid, start, ones, remaining)``.

        The prediction scorer's input (see
        :data:`repro.patterns.base.FormingCandidate`): one descriptor
        per object with an open partial match against this anchor —
        ``start`` is when its container opened, ``ones`` its current
        trailing run of consecutive present-snapshots, ``remaining`` how
        many further snapshots the container can still absorb (``-1``
        when unbounded).  Machines without forming state (the baseline's
        materialised subsets carry no per-candidate bit strings) report
        nothing, which is why :func:`~repro.core.config.check_strategies`
        rejects the predictive family with ``"baseline"``.
        """
        return ()

    def snapshot_state(self) -> dict:
        """Serializable payload capturing the anchor machine's state.

        Every built-in enumerator implements the pair; a third-party
        enumerator without it makes the hosting stage's checkpoint fail
        loudly rather than silently dropping its state.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support state snapshots"
        )

    def restore_state(self, payload: dict) -> None:
        """Adopt a payload produced by :meth:`snapshot_state`."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state snapshots"
        )

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting (entry counts); empty for unknown machines."""
        return {}


class PatternCollector:
    """Deduplicating sink for detected patterns.

    Patterns are tracked by object set; the first emission wins (its time
    sequence is the earliest witness).  ``detections`` preserves emission
    order for latency accounting.
    """

    def __init__(self):
        self._seen: dict[tuple[int, ...], CoMovementPattern] = {}
        self.detections: list[tuple[int, CoMovementPattern]] = []

    def offer(self, time: int, patterns: Iterable[CoMovementPattern]) -> int:
        """Add patterns detected at ``time``; returns how many were new."""
        fresh = 0
        for pattern in patterns:
            if pattern.objects not in self._seen:
                self._seen[pattern.objects] = pattern
                self.detections.append((time, pattern))
                fresh += 1
        return fresh

    def latest(self, count: int) -> list[CoMovementPattern]:
        """The ``count`` most recent detections (what :meth:`offer` just added)."""
        if count <= 0:
            return []
        return [pattern for _, pattern in self.detections[-count:]]

    def object_sets(self) -> set[tuple[int, ...]]:
        """The distinct detected object sets (tuple form)."""
        return set(self._seen)

    def patterns(self) -> list[CoMovementPattern]:
        """First-emission pattern per object set, in detection order."""
        return [pattern for _, pattern in self.detections]

    def __len__(self) -> int:
        return len(self._seen)

    def snapshot_state(self) -> dict:
        """The detection log (``_seen`` is derivable and rebuilt on restore)."""
        return {"detections": list(self.detections)}

    def restore_state(self, payload: dict) -> None:
        """Adopt a payload produced by :meth:`snapshot_state`."""
        self.detections = list(payload["detections"])
        self._seen = {
            pattern.objects: pattern for _, pattern in self.detections
        }

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting: size of the dedup map / detection log."""
        return {"patterns": len(self._seen), "detections": len(self.detections)}
