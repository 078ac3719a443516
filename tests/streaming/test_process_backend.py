"""The process backend: segment pool, graph specs, worker lifecycle.

End-to-end pattern equality lives in
``tests/integration/test_backend_equivalence.py``; this module covers the
mechanics — the shared-memory segment pool, the picklable
:class:`GraphSpec` contract, the exchange envelope codec, and the
explicit worker lifecycle (spawn at bind, crash surfacing, idempotent
close).
"""

import os

import pytest

from repro.core.config import ICPEConfig
from repro.core.icpe import ICPEPipeline, icpe_stages
from repro.model.batch import SnapshotBatch
from repro.model.constraints import PatternConstraints
from repro.streaming.dataflow import (
    KeyedStage,
    Operator,
    ShmEnvelope,
    decode_exchange_elements,
    encode_exchange_elements,
)
from repro.streaming.runtime import (
    GraphSpec,
    ProcessBackend,
    SegmentPool,
    available_cpu_count,
    default_worker_count,
    execute_unit,
)

CONSTRAINTS = PatternConstraints(m=2, k=3, l=1, g=2)


def process_config(**overrides) -> ICPEConfig:
    defaults = dict(
        epsilon=10.0,
        cell_width=40.0,
        min_pts=2,
        constraints=CONSTRAINTS,
        backend="process",
        parallel_workers=2,
    )
    defaults.update(overrides)
    return ICPEConfig(**defaults)


class TestWorkerCount:
    def test_available_cpu_count_positive(self):
        assert available_cpu_count() >= 1

    def test_default_worker_count_bounds(self):
        assert 4 <= default_worker_count() <= 32

    def test_prefers_process_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "process_cpu_count", lambda: 7, raising=False)
        assert available_cpu_count() == 7

    def test_respects_affinity_mask(self, monkeypatch):
        """A cgroup/affinity-limited container must not be sized by the
        host's raw core count."""
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert available_cpu_count() == 3
        assert default_worker_count() == 4  # floor keeps stall overlap


class TestSegmentPool:
    def test_acquire_release_reuses_segment(self):
        pool = SegmentPool()
        try:
            first = pool.acquire(100)
            name = first.name
            pool.release(name)
            second = pool.acquire(200)  # same 4096-byte size class
            assert second.name == name
            assert len(pool) == 1
        finally:
            pool.close()

    def test_size_classes_are_powers_of_two(self):
        pool = SegmentPool()
        try:
            small = pool.acquire(1)
            big = pool.acquire(5000)
            assert small.size >= 4096
            assert big.size >= 8192
        finally:
            pool.close()

    def test_retire_removes_from_pool(self):
        pool = SegmentPool()
        try:
            segment = pool.acquire(64)
            name = segment.name
            pool.release(name)
            pool.retire(name)
            assert len(pool) == 0
            replacement = pool.acquire(64)
            assert replacement.name != name
        finally:
            pool.close()

    def test_release_unknown_name_is_ignored(self):
        pool = SegmentPool()
        try:
            pool.release("psm_not_ours")
            pool.retire("psm_not_ours")
        finally:
            pool.close()

    def test_close_is_idempotent_and_final(self):
        pool = SegmentPool()
        pool.acquire(64)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.acquire(64)


class TestExchangeCodec:
    def allocator(self):
        buffers = {}

        def allocate(nbytes):
            name = f"seg-{len(buffers)}"
            buffers[name] = bytearray(max(nbytes, 8))
            return name, buffers[name]

        return allocate, buffers

    def test_array_batches_become_envelopes(self):
        allocate, buffers = self.allocator()
        batch = SnapshotBatch.from_rows(4, [1, 2], [0.0, 1.0], [2.0, 3.0])
        encoded = encode_exchange_elements(["plain", batch], allocate)
        assert encoded[0] == "plain"
        assert isinstance(encoded[1], ShmEnvelope)
        decoded = decode_exchange_elements(encoded, buffers.__getitem__)
        assert decoded[0] == "plain"
        assert decoded[1].points() == batch.points()
        assert decoded[1].time == batch.time

    def test_empty_batch_takes_pickle_path(self):
        allocate, buffers = self.allocator()
        batch = SnapshotBatch.from_rows(4, [], [], [])
        encoded = encode_exchange_elements([batch], allocate)
        assert encoded[0] is batch
        assert not buffers

    def test_envelope_pickles_compactly(self):
        import pickle

        envelope = ShmEnvelope("psm_x", {"kind": "snapshot", "n": 3})
        clone = pickle.loads(pickle.dumps(envelope))
        assert clone.segment == "psm_x"
        assert clone.meta == envelope.meta
        assert "psm_x" in repr(clone)


def _names(stages):
    return [stage.name for stage in stages]


class TestGraphSpec:
    def test_builds_a_stage_list(self):
        stages = GraphSpec(_stage_builder).build()
        assert _names(stages) == ["echo"]
        assert stages[0].parallelism == 1

    def test_passes_args_and_kwargs_to_the_builder(self):
        stages = GraphSpec(_stage_builder, ("fold",), {"parallelism": 3}).build()
        assert _names(stages) == ["fold"]
        assert stages[0].parallelism == 3

    def test_icpe_spec_is_picklable(self):
        import pickle

        spec = GraphSpec(icpe_stages, (process_config(),))
        clone = pickle.loads(pickle.dumps(spec))
        assert _names(clone.build()) == _names(spec.build())


def _stage_builder(name="echo", parallelism=1):
    return [
        KeyedStage(name=name, operator_factory=None, parallelism=parallelism)
    ]


def _two_stage_builder(first, second):
    return [
        KeyedStage("a", _Echo, first, key_fn=lambda element: element),
        KeyedStage("b", _Echo, second, key_fn=lambda element: element),
    ]


class _Echo(Operator):
    def process(self, element):
        return [element]


class TestResourceTrackerHygiene:
    def test_shutdown_leaves_no_tracker_warnings(self, tmp_path):
        """Worker shutdown must be leak-free: no ``resource_tracker``
        noise (leaked shared_memory warnings, KeyError tracebacks) on
        stderr after a full session run plus close."""
        import subprocess
        import sys

        script = tmp_path / "run_process_session.py"
        script.write_text(
            "from repro.core.config import ICPEConfig\n"
            "from repro.model.batch import RecordBatch\n"
            "from repro.model.constraints import PatternConstraints\n"
            "from repro.session import Session\n"
            "\n"
            "if __name__ == '__main__':\n"
            "    config = ICPEConfig(\n"
            "        epsilon=10.0, cell_width=40.0, min_pts=2,\n"
            "        constraints=PatternConstraints(m=2, k=3, l=1, g=2),\n"
            "        backend='process', parallel_workers=2,\n"
            "    )\n"
            "    with Session(config) as session:\n"
            "        for time in range(1, 5):\n"
            "            session.feed_batch(RecordBatch.from_columns(\n"
            "                [1, 2, 3], [1.0, 2.0, 50.0],\n"
            "                [1.0, 2.0, 50.0], [time] * 3,\n"
            "            ))\n"
            "    print('patterns', len(session.patterns))\n"
        )
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert result.returncode == 0, result.stderr
        assert "patterns" in result.stdout
        assert "resource_tracker" not in result.stderr, result.stderr
        assert "leaked" not in result.stderr, result.stderr
        assert "Traceback" not in result.stderr, result.stderr


class TestProcessBackendLifecycle:
    def test_requires_bound_graph(self):
        backend = ProcessBackend(max_workers=1)
        stage = KeyedStage(name="s", operator_factory=None, parallelism=1)
        runtime_stub = type("R", (), {"stage": stage})()
        with pytest.raises(RuntimeError, match="not running.*bind_graph"):
            backend._stage_address(runtime_stub)
        backend.close()

    def test_rejects_duplicate_stage_names(self):
        backend = ProcessBackend(max_workers=2)
        doubled = lambda: _stage_builder("s") + _stage_builder("s")  # noqa: E731
        with pytest.raises(RuntimeError, match="unique stage names"):
            backend.bind_graph(GraphSpec(doubled))
        assert backend._processes == []
        backend.close()

    def test_pool_is_sized_to_the_widest_multi_subtask_stage(self):
        for parallelisms, spawned in (((1, 1), 0), ((1, 2), 2), ((3, 5), 4)):
            backend = ProcessBackend(max_workers=4)
            try:
                backend.bind_graph(
                    GraphSpec(_two_stage_builder, parallelisms)
                )
                assert len(backend._processes) == spawned
            finally:
                backend.close()

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="max_workers"):
            ProcessBackend(max_workers=0)

    def test_capability_flags(self):
        backend = ProcessBackend(max_workers=1)
        assert backend.name == "process"
        assert backend.supports_batch_ingest
        assert backend.supports_process_isolation
        backend.close()

    def test_registry_exposes_process_backend(self):
        from repro.registry import default_registry

        spec = default_registry().get("backend", "process")
        assert spec.capabilities.supports_process_isolation
        assert spec.capabilities.supports_batch_ingest
        assert "process-isolated" in spec.capabilities.summary_markers()

    def test_rebinding_is_rejected(self):
        pipeline = ICPEPipeline(process_config())
        try:
            with pytest.raises(RuntimeError, match="already bound"):
                pipeline.backend.bind_graph(
                    GraphSpec(icpe_stages, (process_config(),))
                )
        finally:
            pipeline.close()

    def test_worker_error_surfaces_stage_and_traceback(self):
        pipeline = ICPEPipeline(process_config())
        try:
            # Strings route fine (key_fn takes element[0]) but explode
            # inside the worker's AllocateOperator arithmetic.
            with pytest.raises(RuntimeError, match="allocate"):
                execute_unit(
                    pipeline.runtimes, [("a", "b", "c")], 1, pipeline.backend
                )
        finally:
            pipeline.close()

    def test_worker_crash_is_a_clean_runtime_error(self):
        pipeline = ICPEPipeline(process_config())
        try:
            backend = pipeline.backend
            backend._processes[0].terminate()
            backend._processes[0].join(timeout=10)
            with pytest.raises(RuntimeError, match="died unexpectedly"):
                pipeline.process_snapshot(
                    SnapshotBatch.from_rows(1, [1, 2], [0.0, 1.0], [0.0, 1.0])
                )
        finally:
            pipeline.close()

    def test_close_is_idempotent(self):
        pipeline = ICPEPipeline(process_config())
        pipeline.close()
        pipeline.close()
        with pytest.raises(RuntimeError, match="closed"):
            pipeline.backend.bind_graph(
                GraphSpec(icpe_stages, (process_config(),))
            )

    def test_segments_are_recycled_across_snapshots(self):
        pipeline = ICPEPipeline(process_config())
        try:
            backend = pipeline.backend

            def snapshot(time):
                return SnapshotBatch.from_rows(
                    time,
                    list(range(8)),
                    [float(i) for i in range(8)],
                    [0.0] * 8,
                )

            pipeline.process_snapshot(snapshot(1))
            steady = len(backend._pool)
            assert steady >= 1  # the envelope really crossed via shm
            for time in range(2, 6):
                pipeline.process_snapshot(snapshot(time))
            # Steady state: identical snapshots reuse the first unit's
            # segments instead of growing the pool per snapshot.
            assert len(backend._pool) == steady
        finally:
            pipeline.close()
