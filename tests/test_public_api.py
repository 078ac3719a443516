"""Locks the top-level ``repro`` public surface (satellite of PR 4).

``repro.__all__`` is the package's contract: removing or renaming an
entry is a breaking change and must show up as a diff in this file.
Also verifies the lazy-import machinery — ``__getattr__`` resolution,
``__dir__`` listing lazy names *before* first access — that makes the
heavyweight Session / registry / core API cheap to import.
"""

from __future__ import annotations

import importlib

import repro

#: The locked public surface.  Update deliberately, with the changelog.
EXPECTED_EXPORTS = sorted(
    [
        # eager model types
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
        # lazy core
        "CoMovementDetector",
        "ICPEConfig",
        "ICPEPipeline",
        # lazy checkpoint/state API
        "Checkpoint",
        "CheckpointError",
        # lazy session API
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
        "open_session",
        # lazy registry API
        "PluginCapabilities",
        "PluginRegistry",
        "PluginSpec",
        "default_registry",
        # lazy shedding API
        "NoShedPolicy",
        "PatternAwareShedPolicy",
        "RandomShedPolicy",
        "SLOController",
        "ShedPolicy",
        # lazy observability API
        "MetricsRegistry",
        "ObservabilityOptions",
        "SessionTelemetry",
        # lazy pattern-family API
        "EvolvingGroupTracker",
        "PatternFamily",
        "PersistenceModel",
        "PredictiveFamily",
    ]
)


class TestSurfaceLock:
    def test_all_is_locked(self):
        assert repro.__all__ == EXPECTED_EXPORTS

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_version(self):
        assert repro.__version__ == "4.0.0"


class TestLazyMachinery:
    def test_dir_lists_lazy_names_before_access(self):
        # reload() re-executes the module but keeps the existing dict,
        # so evict any lazily cached names resolved by earlier tests.
        module = importlib.reload(repro)
        for name in module._LAZY_EXPORTS:
            module.__dict__.pop(name, None)
        assert "Session" not in module.__dict__
        listing = dir(module)
        for name in ("Session", "open_session", "default_registry",
                     "CoMovementDetector"):
            assert name in listing

    def test_lazy_names_resolve_to_home_modules(self):
        from repro.core.detector import CoMovementDetector
        from repro.registry import default_registry
        from repro.session import Session, open_session

        assert repro.Session is Session
        assert repro.open_session is open_session
        assert repro.default_registry is default_registry
        assert repro.CoMovementDetector is CoMovementDetector

    def test_resolution_is_cached(self):
        module = importlib.reload(repro)
        _ = module.SessionBuilder
        assert "SessionBuilder" in module.__dict__

    def test_unknown_attribute_raises(self):
        with_importerror = None
        try:
            repro.NotAThing
        except AttributeError as error:
            with_importerror = error
        assert with_importerror is not None
        assert "NotAThing" in str(with_importerror)

    def test_all_matches_dir(self):
        module = importlib.reload(repro)
        assert set(module.__all__) <= set(dir(module))
