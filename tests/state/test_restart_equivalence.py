"""Restart equivalence: checkpoint -> restore -> continue == one run.

The headline differential of the checkpoint surface.  For every
watermark boundary of a stream, a session is stopped there, its
checkpoint round-tripped through bytes, a fresh session restored and
driven to the end — and the concatenated event stream must equal the
uninterrupted oracle **event for event** (``PatternConfirmed`` order,
``ConvoyDelta`` contents, ``WatermarkAdvanced`` interleaving, flush
tail).  The grid covers every backend and both kernels on each axis.
"""

from __future__ import annotations

import pytest

from repro import open_session
from repro.state import Checkpoint, CheckpointError

from tests.state.conftest import (
    BASE_KNOBS,
    cluster_stream,
    run_uninterrupted,
    run_with_restart,
    watermark_boundaries,
)

pytestmark = pytest.mark.checkpoint

KERNEL_GRID = [
    ("python", "python", "fba"),
    ("python", "numpy", "fba"),
    ("python", "numpy", "vba"),
    ("numpy", "python", "vba"),
    ("numpy", "numpy", "fba"),
]


class TestEveryWatermarkBoundary:
    @pytest.mark.parametrize(
        "clustering_kernel,enumeration_kernel,enumerator", KERNEL_GRID
    )
    def test_serial_full_boundary_sweep(
        self, clustering_kernel, enumeration_kernel, enumerator
    ):
        """Serial backend: restart at *every* watermark boundary."""
        records = cluster_stream(seed=17)
        kwargs = dict(
            clustering_kernel=clustering_kernel,
            enumeration_kernel=enumeration_kernel,
            enumerator=enumerator,
        )
        oracle = run_uninterrupted(records, **kwargs)
        boundaries = watermark_boundaries(records, **kwargs)
        assert boundaries, "stream produced no watermark boundaries"
        for cut in boundaries:
            restarted = run_with_restart(records, cut, **kwargs)
            assert restarted == oracle, f"diverged at boundary {cut}"

    def test_serial_baseline_enumerator(self):
        records = cluster_stream(seed=5, n_times=8, n_objects=6)
        kwargs = dict(enumerator="baseline")
        oracle = run_uninterrupted(records, **kwargs)
        for cut in watermark_boundaries(records, **kwargs):
            assert run_with_restart(records, cut, **kwargs) == oracle

    def test_mid_record_cuts_between_boundaries(self):
        """Cuts *between* watermarks (partial snapshots in flight) too."""
        records = cluster_stream(seed=23)
        oracle = run_uninterrupted(records)
        for cut in range(1, len(records), 7):
            assert run_with_restart(records, cut) == oracle, cut

    def test_with_convoy_tracking(self):
        records = cluster_stream(seed=9)
        kwargs = dict(track_convoys=True)
        oracle = run_uninterrupted(records, **kwargs)
        for cut in watermark_boundaries(records, **kwargs):
            restarted = run_with_restart(
                records, cut, restore_kwargs=dict(track_convoys=True), **kwargs
            )
            assert restarted == oracle, f"diverged at boundary {cut}"


class TestOtherBackends:
    def test_process_backend_restart(self):
        records = cluster_stream(seed=13, n_times=7, n_objects=6)
        kwargs = dict(backend="process", parallel_workers=2)
        oracle = run_uninterrupted(records, **kwargs)
        boundaries = watermark_boundaries(records)
        cut = boundaries[len(boundaries) // 2]
        restarted = run_with_restart(
            records,
            cut,
            restore_kwargs=dict(backend="process", parallel_workers=2),
            **kwargs,
        )
        assert restarted == oracle

    def test_process_backend_restart_numpy_kernels(self):
        records = cluster_stream(seed=31)
        kwargs = dict(
            backend="process",
            parallel_workers=2,
            clustering_kernel="numpy",
            enumeration_kernel="numpy",
        )
        oracle = run_uninterrupted(records, **kwargs)
        boundaries = watermark_boundaries(records, **kwargs)
        for cut in boundaries[:: max(1, len(boundaries) // 3)]:
            restarted = run_with_restart(
                records,
                cut,
                restore_kwargs=dict(backend="process", parallel_workers=2),
                **kwargs,
            )
            assert restarted == oracle, f"diverged at boundary {cut}"

    def test_checkpoint_migrates_across_backends(self):
        """A process-taken checkpoint restores into a serial session."""
        records = cluster_stream(seed=13, n_times=7, n_objects=6)
        oracle = run_uninterrupted(records)
        cut = watermark_boundaries(records)[1]
        restarted = run_with_restart(
            records,
            cut,
            restore_kwargs=dict(backend="serial", parallel_workers=None),
            backend="process",
            parallel_workers=2,
        )
        assert restarted == oracle


class TestCheckpointMechanics:
    def test_incremental_capture_reuses_unchanged_payloads(self):
        records = cluster_stream(seed=3)
        session = open_session(**BASE_KNOBS)
        for record in records[: len(records) // 2]:
            session.feed(record)
        first = session.checkpoint()
        second = session.checkpoint()
        assert first.captured == len(first.operator_states)
        assert first.reused == 0
        assert second.captured == 0
        assert second.reused == len(second.operator_states)
        assert second.operator_states == first.operator_states
        session.close()

    def test_restore_seeds_incremental_cache(self):
        records = cluster_stream(seed=3)
        session = open_session(**BASE_KNOBS)
        for record in records[:40]:
            session.feed(record)
        checkpoint = session.checkpoint()
        session.close()
        restored = open_session(restore=checkpoint)
        again = restored.checkpoint()
        assert again.captured == 0
        assert again.reused == len(checkpoint.operator_states)
        restored.close()

    def test_records_ingested_names_the_resume_point(self):
        records = cluster_stream(seed=3)
        session = open_session(**BASE_KNOBS)
        for record in records[:25]:
            session.feed(record)
        checkpoint = session.checkpoint()
        assert checkpoint.records_ingested == 25
        assert session.records_ingested == 25
        session.close()

    def test_save_load_roundtrip(self, tmp_path):
        records = cluster_stream(seed=3)
        session = open_session(**BASE_KNOBS)
        for record in records[:30]:
            session.feed(record)
        checkpoint = session.checkpoint()
        session.close()
        path = checkpoint.save(tmp_path / "ckpt" / "session.ckpt")
        loaded = Checkpoint.load(path)
        assert loaded.summary() == checkpoint.summary()
        assert loaded.operator_states == checkpoint.operator_states

    def test_incompatible_config_is_rejected(self):
        session = open_session(**BASE_KNOBS)
        session.feed(cluster_stream(seed=3)[0])
        checkpoint = session.checkpoint()
        session.close()
        with pytest.raises(CheckpointError, match="incompatible"):
            open_session(restore=checkpoint, min_pts=3)

    def test_backend_swap_is_allowed(self):
        session = open_session(**BASE_KNOBS)
        session.feed(cluster_stream(seed=3)[0])
        checkpoint = session.checkpoint()
        session.close()
        restored = open_session(
            restore=checkpoint, backend="process", parallel_workers=2
        )
        restored.close()

    def test_corrupt_bytes_raise_checkpoint_error(self):
        with pytest.raises(CheckpointError, match="cannot decode"):
            Checkpoint.from_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError, match="not Checkpoint"):
            import pickle

            Checkpoint.from_bytes(pickle.dumps({"some": "dict"}))

    def test_checkpoint_after_finish_is_rejected(self):
        session = open_session(**BASE_KNOBS)
        session.finish()
        with pytest.raises(RuntimeError, match="finished"):
            session.checkpoint()
        session.close()

    def test_tracker_state_required_when_tracking(self):
        session = open_session(**BASE_KNOBS)
        session.feed(cluster_stream(seed=3)[0])
        checkpoint = session.checkpoint()
        session.close()
        with pytest.raises(CheckpointError, match="convoy-tracker"):
            open_session(restore=checkpoint, track_convoys=True)
