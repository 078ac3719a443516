"""Top-level package API tests (lazy imports, __all__, version)."""

import importlib

import repro


class TestLazyImports:
    def test_session_lazy(self):
        # reload() keeps the module dict, so evict an earlier test's cache.
        repro.__dict__.pop("Session", None)
        module = importlib.reload(repro)
        assert "Session" not in module.__dict__
        session_cls = module.Session
        from repro.session import Session

        assert session_cls is Session
        # Cached after first access.
        assert "Session" in module.__dict__

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
        from repro.streaming import ProcessBackend, StageRuntime

        assert ProcessBackend.__name__ == "ProcessBackend"
        assert StageRuntime.__name__ == "StageRuntime"
