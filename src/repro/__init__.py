"""ICPE: real-time co-movement pattern detection on streaming trajectories.

A from-scratch Python reproduction of Chen et al., "Real-time Distributed
Co-Movement Pattern Detection on Streaming Trajectories", PVLDB 12(10),
2019 (DOI 10.14778/3339490.3339502).

Quickstart (the streaming Session API)::

    from repro import PatternConstraints, open_session

    with open_session(
        epsilon=10.0, cell_width=30.0, min_pts=3,
        constraints=PatternConstraints(m=3, k=4, l=2, g=2),
    ) as session:
        for record in stream:          # StreamRecord items
            for event in session.feed(record):
                print(event)
    print(session.result().summary())

Throughput-oriented ingestion goes through the columnar data plane —
pack records into a :class:`~repro.model.batch.RecordBatch` (or let
``feed_many`` auto-pack) and feed whole batches::

    with open_session(config, batch_size=1024) as session:
        for batch in RecordBatch.pack(stream, 1024):
            for event in session.feed_batch(batch):
                print(event)

Every strategy axis — clustering kernel, enumeration kernel,
enumerator, shed policy, pattern family — is a closed set of names in
the package that owns it (``repro.kernels.KERNELS``,
``repro.enumeration.kernels.ENUMERATION_KERNELS``,
``repro.enumeration.ENUMERATORS``, ``repro.shedding.SHED_POLICIES``,
``repro.patterns.PATTERN_FAMILIES``), selected by name on
``ICPEConfig``.  The execution backend is ``serial`` or ``process``:
one executor with or without a worker pool.  :func:`open_session`
builds every session.

See ``docs/API.md`` for the session lifecycle and the strategy table,
``docs/ARCHITECTURE.md`` for the system inventory and
``docs/PAPER_MAP.md`` for the paper-to-code map.
"""

from repro.model import (
    ClusterSnapshot,
    CoMovementPattern,
    GPSRecord,
    Location,
    PatternConstraints,
    RecordBatch,
    Snapshot,
    SnapshotBatch,
    StreamRecord,
    TimeDiscretizer,
    TimeSequence,
    Trajectory,
)

__version__ = "9.0.0"

#: Names resolved lazily by ``__getattr__`` (heavyweight core / session
#: machinery), mapped to their home modules.
_LAZY_EXPORTS = {
    "ICPEConfig": "repro.core.config",
    "ICPEPipeline": "repro.core.icpe",
    "Checkpoint": "repro.state",
    "CheckpointError": "repro.state",
    "CallbackSink": "repro.session",
    "ConvoyDelta": "repro.session",
    "GroupEvolved": "repro.session",
    "JsonlSink": "repro.session",
    "ListSink": "repro.session",
    "PatternConfirmed": "repro.session",
    "PatternEvent": "repro.session",
    "PatternForming": "repro.session",
    "PatternSink": "repro.session",
    "Session": "repro.session",
    "SessionResult": "repro.session",
    "WatermarkAdvanced": "repro.session",
    "open_session": "repro.session",
    "NoShedPolicy": "repro.shedding",
    "PatternAwareShedPolicy": "repro.shedding",
    "RandomShedPolicy": "repro.shedding",
    "SLOController": "repro.shedding",
    "ShedPolicy": "repro.shedding",
    "MetricsRegistry": "repro.observability",
    "ObservabilityOptions": "repro.observability",
    "SessionTelemetry": "repro.observability",
    "EvolvingGroupTracker": "repro.patterns",
    "PatternFamily": "repro.patterns",
    "PersistenceModel": "repro.patterns",
    "PredictiveFamily": "repro.patterns",
}

__all__ = sorted(
    [
        "ClusterSnapshot",
        "CoMovementPattern",
        "GPSRecord",
        "Location",
        "PatternConstraints",
        "RecordBatch",
        "Snapshot",
        "SnapshotBatch",
        "StreamRecord",
        "TimeDiscretizer",
        "TimeSequence",
        "Trajectory",
        "__version__",
        *_LAZY_EXPORTS,
    ]
)


def __getattr__(name: str):
    """Lazily import the heavyweight public API to keep import costs low."""
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """Expose the lazy names to ``dir(repro)`` / tab-completion."""
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
