"""The pattern-family contract: session components behind a strategy axis.

A :class:`PatternFamily` is a *master-side* component the session hosts
next to the convoy tracker: after each snapshot is fully processed it
receives the cluster view (``pipeline.last_cluster_snapshot``, shipped
identically by every backend), the forming-candidate descriptors (only
when the family declares :attr:`PatternFamily.needs_forming_state`) and
the snapshot's freshly confirmed patterns, and returns the extra typed
events the family contributes to the stream.  Because families never
touch worker-side state directly, one implementation runs bit-identically
on the serial and process backends.

Families implement the OperatorState contract (``snapshot_state`` /
``restore_state`` / ``state_metrics``) so their state rides session
checkpoints, and expose :meth:`PatternFamily.metrics` for the telemetry
hub's prediction-precision counters.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, ClassVar, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.pattern import CoMovementPattern
    from repro.model.snapshot import ClusterSnapshot
    from repro.session.events import PatternEvent

#: One live partial match as plain data, shipped from the enumeration
#: stage (through the process backend's reply protocol when isolated):
#: ``(anchor, oid, start, ones, remaining)`` — the candidate pair, the
#: time its bit string opened, its current trailing run of consecutive
#: present-snapshots, and how many further snapshots its container can
#: still absorb (``-1`` when unbounded, as for VBA strings).
FormingCandidate = tuple[int, int, int, int, int]


class PatternFamily(ABC):
    """What a pattern family consumes and emits, snapshot by snapshot."""

    #: Registry name of the family (mirrors the spec name).
    name: ClassVar[str] = "family"
    #: True when :meth:`on_snapshot` needs forming-candidate descriptors;
    #: the session only round-trips the enumeration stage (a worker
    #: protocol exchange on the process backend) for families that ask.
    needs_forming_state: ClassVar[bool] = False

    @abstractmethod
    def on_snapshot(
        self,
        time: int,
        snapshot: "ClusterSnapshot | None",
        forming: Sequence[FormingCandidate],
        fresh: Sequence["CoMovementPattern"],
    ) -> list["PatternEvent"]:
        """Consume one fully processed snapshot; returns family events.

        ``snapshot`` is the pipeline's last cluster snapshot (``None``
        when clustering produced no snapshot for ``time``), ``forming``
        the descriptors of live partial matches (empty unless
        :attr:`needs_forming_state`), ``fresh`` the patterns first
        confirmed while processing ``time``.
        """

    def finish(self, time: int) -> list["PatternEvent"]:
        """End of stream at ``time``; returns the family's final events."""
        return []

    def snapshot_state(self) -> dict:
        """The family's state as plain serialisable data."""
        return {}

    def restore_state(self, payload: dict) -> None:
        """Adopt a payload produced by :meth:`snapshot_state`."""

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting entries for ``SessionResult.state_memory``."""
        return {}

    def metrics(self) -> dict[str, int]:
        """Monotonic counters for the telemetry hub (may be empty)."""
        return {}


class StrictFamily(PatternFamily):
    """The default family: the paper's semantics, no extra events.

    Exists so the ``pattern_family`` axis is total — selecting
    ``"strict"`` constructs a real (inert) family — while the session
    skips hosting it entirely for zero per-snapshot overhead.
    """

    name: ClassVar[str] = "strict"

    def on_snapshot(self, time, snapshot, forming, fresh):
        """Strict detection adds nothing beyond the pipeline's events."""
        return []
