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

Every strategy axis — execution backend, clustering kernel, enumeration
kernel, enumerator, shed policy, pattern family — is a plugin on
:func:`repro.registry.
default_registry`; third-party packages register via the
``repro.plugins`` entry-point group.  The pre-2.0
``CoMovementDetector`` remains available as a deprecation shim.

See ``docs/API.md`` for the session lifecycle and the plugin contract,
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

__version__ = "4.0.0"

#: Names resolved lazily by ``__getattr__`` (heavyweight core / session /
#: registry machinery), mapped to their home modules.
_LAZY_EXPORTS = {
    "CoMovementDetector": "repro.core.detector",
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
    "SessionBuilder": "repro.session",
    "SessionResult": "repro.session",
    "WatermarkAdvanced": "repro.session",
    "open_session": "repro.session",
    "PluginCapabilities": "repro.registry",
    "PluginRegistry": "repro.registry",
    "PluginSpec": "repro.registry",
    "default_registry": "repro.registry",
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
