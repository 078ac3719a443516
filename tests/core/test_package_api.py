"""Top-level package API tests (lazy imports, __all__, version)."""

import importlib

import repro


class TestLazyImports:
    def test_detector_lazy(self):
        module = importlib.reload(repro)
        assert "CoMovementDetector" not in module.__dict__
        detector_cls = module.CoMovementDetector
        from repro.core.detector import CoMovementDetector

        assert detector_cls is CoMovementDetector
        # Cached after first access.
        assert "CoMovementDetector" in module.__dict__

    def test_config_and_pipeline_lazy(self):
        from repro.core.config import ICPEConfig
        from repro.core.icpe import ICPEPipeline

        assert repro.ICPEConfig is ICPEConfig
        assert repro.ICPEPipeline is ICPEPipeline

    def test_unknown_attribute(self):
        try:
            repro.NotAThing
        except AttributeError as error:
            assert "NotAThing" in str(error)
        else:
            raise AssertionError("expected AttributeError")


class TestPublicSurface:
    def test_all_entries_resolvable(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_core_reexports(self):
        from repro.core import ConvoyTracker, PatternStore

        assert ConvoyTracker.__name__ == "ConvoyTracker"
        assert PatternStore.__name__ == "PatternStore"

    def test_data_reexports(self):
        from repro.data import drop_records, jitter_positions

        assert callable(drop_records) and callable(jitter_positions)

    def test_streaming_reexports(self):
        from repro.streaming import StreamEnvironment

        assert StreamEnvironment.__name__ == "StreamEnvironment"
