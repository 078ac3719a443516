"""The process backend: worker counts, graph specs, worker lifecycle.

End-to-end pattern equality lives in
``tests/integration/test_backend_equivalence.py``, and the pickle
round trip of the envelopes that cross the command pipe in
``tests/model/test_batch_pickle.py``; this module covers the mechanics
— pool sizing, the picklable :class:`GraphSpec` contract, the pickle
transport and reply shape of the worker protocol, and the explicit
worker lifecycle (spawn at construction, crash surfacing, clean and
idempotent close).
"""

import multiprocessing
import os

import pytest

from repro.core.config import ICPEConfig
from repro.core.icpe import ICPEPipeline, icpe_stages
from repro.model.batch import SnapshotBatch
from repro.model.constraints import PatternConstraints
from repro.streaming.dataflow import KeyedStage, Operator, StageRuntime
from repro.streaming.runtime import (
    GraphSpec,
    ProcessBackend,
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
        # Every keyed stage on both workers, so the python kernel's
        # allocate and query subtasks run in the pool.
        allocate_parallelism=2,
        query_parallelism=2,
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


def _describe_builder(parallelism=2):
    return [
        KeyedStage(
            "describe",
            _Describe,
            parallelism,
            key_fn=lambda element: element[0],
        )
    ]


class _Describe(Operator):
    """Reports what reached it, in the worker, as plain tuples."""

    def open(self, subtask_index, parallelism):
        self.index = subtask_index

    def process(self, element):
        return [("row", self.index, element)]

    def process_batch(self, batch):
        return [
            ("batch", self.index, type(batch).__name__, batch.time, batch.points())
        ]

    def end_batch(self, ctx):
        return [("tick", self.index, ctx)]

    def finish(self):
        return [("done", self.index)]

    def whoami(self):
        return self.index


def _run_on_both(elements, ctx, parallelism=2):
    """Run one unit through a 2-worker pool and through the master alone;
    returns both output lists."""
    spec = GraphSpec(_describe_builder, (parallelism,))
    outputs = []
    for workers in (2, 0):
        [stage] = spec.build()
        runtime = StageRuntime(stage)
        with ProcessBackend(spec, workers) as backend:
            assert len(backend._processes) == workers
            out, _ = backend.run_stage(runtime, elements, ctx)
        outputs.append(out)
    return outputs


class TestPickleTransport:
    """Every element a worker receives is pickled through its command
    pipe and arrives as it was sent."""

    def test_plain_elements_cross_unchanged(self):
        elements = [(1, "a"), (2, 2.5), (3, None), (4, ("x", 1))]
        in_workers, in_master = _run_on_both(elements, 0)
        assert in_workers == in_master
        rows = [out[2] for out in in_workers if out[0] == "row"]
        assert sorted(rows) == elements

    def test_snapshot_batch_arrives_as_sub_envelopes(self):
        batch = SnapshotBatch.from_rows(
            6, list(range(10)), [float(i) for i in range(10)], [1.0] * 10
        )
        in_workers, in_master = _run_on_both([batch], 6)
        assert in_workers == in_master
        envelopes = [out for out in in_workers if out[0] == "batch"]
        assert len(envelopes) == 2  # ten oids reach both subtasks
        assert {out[2] for out in envelopes} == {"SnapshotBatch"}
        assert {out[3] for out in envelopes} == {6}
        arrived = [point for out in envelopes for point in out[4]]
        assert sorted(arrived) == batch.points()

    def test_mixed_unit_keeps_per_subtask_order(self):
        batch = SnapshotBatch.from_rows(2, [5, 6, 7], [0.0, 1.0, 2.0], [0.0] * 3)
        elements = [(5, "before"), batch, (6, "after"), (7, "last")]
        in_workers, in_master = _run_on_both(elements, 2)
        assert in_workers == in_master

    def test_ctx_crosses_the_pipe_to_every_subtask(self):
        """``end_batch(ctx)`` runs on every subtask, including one that
        received no element, with the ``ctx`` the master sent."""
        ctx = (7, "snapshot")
        in_workers, in_master = _run_on_both([], ctx, parallelism=3)
        assert in_workers == in_master
        assert in_workers == [("tick", index, ctx) for index in range(3)]

    def test_finish_outputs_come_back_in_subtask_order(self):
        """Three subtasks on two workers: worker 0 owns subtasks 0 and
        2, yet the outputs are merged in subtask-index order."""
        spec = GraphSpec(_describe_builder, (3,))
        with ProcessBackend(spec, 2) as backend:
            [stage] = spec.build()
            outputs, work = backend.finish_stage(StageRuntime(stage))
        assert outputs == [("done", 0), ("done", 1), ("done", 2)]
        assert work.elements_out == 3

    def test_query_answers_merge_in_subtask_order(self):
        spec = GraphSpec(_describe_builder, (3,))
        with ProcessBackend(spec, 2) as backend:
            [stage] = spec.build()
            runtime = StageRuntime(stage)
            assert backend.query(runtime, "whoami") == [(0, 0), (1, 1), (2, 2)]
            assert backend.query(runtime, "whoami", [None, (), None]) == [
                (1, 1)
            ]

    def test_worker_reply_is_status_and_results(self):
        """A worker answers a command with ``("ok", results)``: the
        results and nothing else travel back."""
        spec = GraphSpec(_describe_builder, (2,))
        with ProcessBackend(spec, 2) as backend:
            conn = backend._conns[1]
            conn.send(("query", 0, "whoami", [(1, ())]))
            assert conn.recv() == ("ok", [(1, 1)])

    def test_unknown_command_is_an_error_reply_and_the_worker_lives_on(self):
        spec = GraphSpec(_describe_builder, (2,))
        with ProcessBackend(spec, 2) as backend:
            conn = backend._conns[0]
            conn.send(("bogus",))
            status, message = conn.recv()
            assert status == "error"
            assert "unknown worker command 'bogus'" in message
            [stage] = spec.build()
            assert backend.query(StageRuntime(stage), "whoami") == [
                (0, 0),
                (1, 1),
            ]

    def test_no_shared_memory_segment_is_created(self, monkeypatch):
        """Snapshots reach the workers' allocate subtasks as pickled
        ``SnapshotBatch`` sub-envelopes: the master opens no
        shared-memory segment, and none is left behind."""
        from multiprocessing import shared_memory

        def refuse(*args, **kwargs):
            raise AssertionError("a shared-memory segment was opened")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        shm_dir = "/dev/shm"
        listing = os.listdir(shm_dir) if os.path.isdir(shm_dir) else []
        before = {name for name in listing if name.startswith("psm_")}
        pipeline = ICPEPipeline(process_config())
        try:
            assert len(pipeline.runtimes[0].subtasks) == 2
            for time in range(1, 6):
                pipeline.process_snapshot(
                    SnapshotBatch.from_rows(
                        time,
                        list(range(8)),
                        [float(i) for i in range(8)],
                        [0.0] * 8,
                    )
                )
        finally:
            pipeline.close()
        listing = os.listdir(shm_dir) if os.path.isdir(shm_dir) else []
        assert {name for name in listing if name.startswith("psm_")} <= before


class TestResourceTrackerHygiene:
    def test_shutdown_leaves_no_tracker_warnings(self, tmp_path):
        """Worker shutdown must be clean: no ``resource_tracker`` noise
        (leak warnings, KeyError tracebacks) on stderr after a full
        session run plus close."""
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
    def test_rejects_a_stage_outside_its_graph(self):
        stranger = StageRuntime(KeyedStage("stranger", _Echo, 1))
        with ProcessBackend(GraphSpec(_stage_builder)) as backend:
            with pytest.raises(RuntimeError, match="not part of"):
                backend.run_stage(stranger, [1], 0)

    def test_pool_spawns_at_construction(self):
        pipeline = ICPEPipeline(process_config())
        try:
            assert len(pipeline.backend._processes) == 2
            assert all(p.is_alive() for p in pipeline.backend._processes)
        finally:
            pipeline.close()

    def test_rejects_duplicate_stage_names(self):
        before = set(multiprocessing.active_children())
        doubled = lambda: _stage_builder("s") + _stage_builder("s")  # noqa: E731
        with pytest.raises(RuntimeError, match="unique stage names"):
            ProcessBackend(GraphSpec(doubled), 2)
        assert set(multiprocessing.active_children()) == before

    def test_pool_is_sized_to_the_widest_multi_subtask_stage(self):
        for parallelisms, workers, spawned in (
            ((1, 1), 4, 0),
            ((1, 2), 4, 2),
            ((3, 5), 4, 4),
            ((3, 5), 0, 0),
        ):
            spec = GraphSpec(_two_stage_builder, parallelisms)
            with ProcessBackend(spec, workers) as backend:
                assert len(backend._processes) == spawned

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessBackend(GraphSpec(_stage_builder), -1)

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
            pipeline.backend.query(pipeline.runtimes[-1], "state_metrics")

    def test_unguarded_script_names_the_missing_main_guard(self, tmp_path):
        """A worker that exits before its ready reply raises an error
        that keeps the exit code and names the likely cause: spawned
        workers re-import ``__main__``, so a script that opens a
        ``process`` session at module level re-runs it in each worker,
        where Python's bootstrapping check stops it."""
        import subprocess
        import sys

        script = tmp_path / "unguarded_process_session.py"
        script.write_text(
            "from repro.model.constraints import PatternConstraints\n"
            "from repro.session import open_session\n"
            "\n"
            "session = open_session(\n"
            "    epsilon=10.0, cell_width=40.0, min_pts=2,\n"
            "    constraints=PatternConstraints(m=2, k=3, l=1, g=2),\n"
            "    backend='process', parallel_workers=2,\n"
            ")\n"
            "session.close()\n"
        )
        result = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert result.returncode != 0
        assert "exited before it was ready (exit code 1)" in result.stderr
        assert 'if __name__ == "__main__":' in result.stderr, result.stderr
