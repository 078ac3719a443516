"""The streaming Session API: the framework's public front door.

Where PRs 1-3 exposed detection through ``CoMovementDetector`` (records
in, bare pattern lists out), the session package gives the same engine
an event-driven surface:

* :mod:`repro.session.session` — :class:`Session` (incremental
  ``feed()`` yielding typed events, ``result()`` summaries,
  context-manager lifecycle) and :class:`SessionResult`;
* :mod:`repro.session.events` — the typed event stream
  (:class:`PatternConfirmed`, :class:`ConvoyDelta`,
  :class:`GroupEvolved`, :class:`PatternForming`,
  :class:`WatermarkAdvanced`);
* :mod:`repro.session.sinks` — the :class:`PatternSink` protocol and the
  callback / list / JSON-lines sinks;
* :mod:`repro.session.builder` — the fluent :class:`SessionBuilder`.

:func:`open_session` is the one-call entry point, re-exported as
``repro.open_session``.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.core.config import ICPEConfig
from repro.session.builder import SessionBuilder
from repro.session.events import (
    ConvoyDelta,
    GroupEvolved,
    PatternConfirmed,
    PatternEvent,
    PatternForming,
    WatermarkAdvanced,
    event_to_dict,
)
from repro.session.session import Session, SessionResult
from repro.session.sinks import (
    CallbackSink,
    JsonlSink,
    ListSink,
    PatternSink,
    as_sink,
)
from repro.state import Checkpoint

__all__ = [
    "CallbackSink",
    "ConvoyDelta",
    "GroupEvolved",
    "JsonlSink",
    "ListSink",
    "PatternConfirmed",
    "PatternEvent",
    "PatternForming",
    "PatternSink",
    "Session",
    "SessionBuilder",
    "SessionResult",
    "WatermarkAdvanced",
    "as_sink",
    "event_to_dict",
    "open_session",
]


def open_session(
    config: ICPEConfig | None = None,
    *,
    track_convoys: bool = False,
    sinks: Iterable[PatternSink | Callable[[PatternEvent], None]] = (),
    batch_size: int | None = None,
    restore: Checkpoint | None = None,
    observability: Any = None,
    checkpoint_dir: Any = None,
    checkpoint_keep_last: int | None = None,
    **overrides: Any,
) -> Session:
    """Open a streaming session — the one-call public entry point.

    Pass an :class:`ICPEConfig` (optionally with field ``overrides``),
    or no config and the :class:`ICPEConfig` fields as keyword
    arguments (``epsilon=, cell_width=, min_pts=, constraints=`` are
    then required)::

        session = open_session(
            epsilon=10.0, cell_width=30.0, min_pts=3,
            constraints=PatternConstraints(m=3, k=4, l=2, g=2),
            backend="process",
        )

    ``track_convoys`` enables the live convoy view; ``sinks`` subscribe
    before any record flows; ``batch_size`` sets ``feed_many``'s
    auto-packing chunk (columnar batch ingestion); ``restore`` resumes
    from a :class:`~repro.state.Checkpoint` (with no ``config`` the
    checkpoint's own config seeds the session).  ``observability``
    enables the telemetry hub (``True``, an
    :class:`~repro.observability.ObservabilityOptions`, or a kwargs
    dict); ``checkpoint_dir`` / ``checkpoint_keep_last`` enable
    automatic periodic checkpointing with bounded retention (cadence
    from the config's ``checkpoint_every_records`` /
    ``checkpoint_every_seconds`` fields).  Use the session as
    a context manager to flush on clean exit and always release backend
    resources.
    """
    builder = SessionBuilder(config)
    if overrides:
        builder.option(**overrides)
    if track_convoys:
        builder.track_convoys()
    if batch_size is not None:
        builder.batch_size(batch_size)
    if restore is not None:
        builder.restore(restore)
    if observability is not None:
        builder.observability(observability)
    if checkpoint_dir is not None:
        builder.checkpoints(checkpoint_dir, keep_last=checkpoint_keep_last)
    builder.sinks(sinks)
    return builder.open()
