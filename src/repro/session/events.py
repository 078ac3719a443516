"""Typed events a streaming session emits.

The old detector API returned bare pattern lists, losing *when* the
pipeline learnt things that applications care about: a snapshot fully
processed (safe-progress watermark), the live convoy view changing
(the paper's accident-response motivation), a CP(M, K, L, G) pattern
confirmed.  A :class:`~repro.session.session.Session` emits each of
those as a typed :class:`PatternEvent` subclass, both returned from
``feed()`` and dispatched to subscribed sinks.

Every event carries the stream time it describes and a stable ``kind``
string (``"pattern"`` / ``"convoy"`` / ``"watermark"`` / ``"evolved"``
/ ``"forming"``) used by sinks and the CLI's JSON output;
:func:`event_to_dict` is the canonical JSON-ready flattening.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable

from repro.model.pattern import CoMovementPattern


@dataclass(frozen=True, slots=True)
class PatternEvent:
    """Base class of every session event; ``time`` is the stream time."""

    kind: ClassVar[str] = "event"

    time: int


@dataclass(frozen=True, slots=True)
class PatternConfirmed(PatternEvent):
    """A co-movement pattern was confirmed at ``time``.

    One event per *fresh* pattern (first emission for its object set —
    the session deduplicates exactly like the pipeline's collector).
    """

    kind: ClassVar[str] = "pattern"

    pattern: CoMovementPattern


@dataclass(frozen=True, slots=True)
class ConvoyDelta(PatternEvent):
    """The live convoy view changed while processing snapshot ``time``.

    Emitted only when convoy tracking is enabled
    (``SessionBuilder.track_convoys()``) and only when something changed:
    ``formed`` lists member sets that newly appeared among the open
    candidates, ``dissolved`` those that disappeared, and ``ended``
    carries convoys that expired having met the duration threshold
    (reported as patterns).  ``active`` is the open-candidate count
    after the snapshot.
    """

    kind: ClassVar[str] = "convoy"

    formed: tuple[frozenset[int], ...]
    dissolved: tuple[frozenset[int], ...]
    ended: tuple[CoMovementPattern, ...]
    active: int


@dataclass(frozen=True, slots=True)
class GroupEvolved(PatternEvent):
    """An evolving group's membership drifted while staying continuous.

    Emitted by the ``evolving`` pattern family
    (``SessionBuilder.patterns("evolving")``) when a live group matched
    a cluster of snapshot ``time`` with Jaccard similarity at least the
    configured θ but a *different* member set.  ``members`` is the
    membership after the drift, ``joined`` / ``left`` are the deltas
    against the previous snapshot, ``duration`` the number of
    consecutive snapshots the group has survived so far (drift
    included).
    """

    kind: ClassVar[str] = "evolved"

    members: frozenset[int]
    joined: frozenset[int]
    left: frozenset[int]
    duration: int


@dataclass(frozen=True, slots=True)
class PatternForming(PatternEvent):
    """A partial match was scored as likely to reach confirmation.

    Emitted by the ``predictive`` pattern family
    (``SessionBuilder.patterns("predictive")``) for each open FBA
    window / unclosed VBA candidate bit string whose predicted
    probability of reaching K snapshots clears the configured
    threshold.  ``oids`` is the candidate object set (anchor included),
    ``length`` the current consecutive-snapshot streak, ``probability``
    the predicted confirmation probability under the online per-object
    persistence model, and ``lead`` the minimum number of further
    snapshots needed before the candidate can confirm (the prediction's
    lead time).
    """

    kind: ClassVar[str] = "forming"

    oids: frozenset[int]
    length: int
    probability: float
    lead: int


@dataclass(frozen=True, slots=True)
class WatermarkAdvanced(PatternEvent):
    """Snapshot ``time`` was fully processed through the pipeline.

    The session's progress signal: every record with event time up to
    ``time`` has been clustered and enumerated, so downstream consumers
    may treat results up to ``time`` as complete.
    """

    kind: ClassVar[str] = "watermark"

    snapshots_processed: int
    patterns_total: int


_new = object.__new__
_set_time = PatternEvent.time.__set__
_set_pattern = PatternConfirmed.pattern.__set__


def confirmations(
    time: int, patterns: Iterable[CoMovementPattern]
) -> list[PatternConfirmed]:
    """One :class:`PatternConfirmed` at ``time`` per pattern, in order.

    Stores through the slot descriptors instead of calling the frozen
    dataclass ``__init__`` per event: a dense snapshot confirms
    thousands of patterns, and the keyword-argument constructor was
    most of what building each event cost.
    """
    events = []
    append = events.append
    for pattern in patterns:
        event = _new(PatternConfirmed)
        _set_time(event, time)
        _set_pattern(event, pattern)
        append(event)
    return events


def event_to_dict(event: PatternEvent) -> dict:
    """Flatten one event into a JSON-ready dict (stable ``kind`` key)."""
    payload: dict = {"kind": event.kind, "time": event.time}
    if isinstance(event, PatternConfirmed):
        payload["objects"] = sorted(event.pattern.objects)
        payload["times"] = list(event.pattern.times.times)
    elif isinstance(event, ConvoyDelta):
        payload["formed"] = [sorted(members) for members in event.formed]
        payload["dissolved"] = [
            sorted(members) for members in event.dissolved
        ]
        payload["ended"] = [
            {
                "objects": sorted(pattern.objects),
                "times": list(pattern.times.times),
            }
            for pattern in event.ended
        ]
        payload["active"] = event.active
    elif isinstance(event, GroupEvolved):
        payload["members"] = sorted(event.members)
        payload["joined"] = sorted(event.joined)
        payload["left"] = sorted(event.left)
        payload["duration"] = event.duration
    elif isinstance(event, PatternForming):
        payload["oids"] = sorted(event.oids)
        payload["length"] = event.length
        payload["probability"] = event.probability
        payload["lead"] = event.lead
    elif isinstance(event, WatermarkAdvanced):
        payload["snapshots_processed"] = event.snapshots_processed
        payload["patterns_total"] = event.patterns_total
    return payload
