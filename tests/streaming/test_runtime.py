"""Execution-runtime tests: the executor with and without a worker pool,
backend names, and the control query."""

import multiprocessing

import pytest

from repro import ICPEConfig, PatternConstraints
from repro.streaming.dataflow import KeyedStage, Operator, StageRuntime
from repro.streaming.runtime import (
    GraphSpec,
    ProcessBackend,
    execute_finish,
    execute_unit,
)

KNOBS = dict(
    epsilon=1.0,
    cell_width=2.0,
    min_pts=2,
    constraints=PatternConstraints(m=2, k=2, l=1, g=1),
)


class KeyCounter(Operator):
    """Stateful per-subtask operator: counts elements per key."""

    def open(self, subtask_index, parallelism):
        self.index = subtask_index
        self.counts = {}

    def process(self, element):
        self.counts[element] = self.counts.get(element, 0) + 1
        return ()

    def end_batch(self, ctx):
        for key in sorted(self.counts):
            yield (self.index, key, self.counts[key], ctx)

    def finish(self):
        yield ("final", self.index, sum(self.counts.values()))

    def snapshot_state(self):
        return dict(self.counts) or None

    def restore_state(self, payload):
        self.counts = dict(payload)

    def total(self, scale=1):
        return sum(self.counts.values()) * scale or None


def counting_stages():
    return [KeyedStage("count", KeyCounter, parallelism=4, key_fn=lambda e: e)]


def counting_runtime():
    return StageRuntime(counting_stages()[0])


def executor(workers=0):
    """The executor over ``counting_stages``: no pool at ``workers=0``."""
    return ProcessBackend(GraphSpec(counting_stages), workers)


class TestBackends:
    def test_no_pool_runs_every_subtask_in_the_caller(self):
        before = set(multiprocessing.active_children())
        runtime = counting_runtime()
        with executor() as backend:
            assert set(multiprocessing.active_children()) == before
            _, works = execute_unit([runtime], [1, 1, 2], 0, backend)
        assert works[0].parallelism == 4
        # The caller's operators hold the state: no worker exists.
        assert sum(sum(op.counts.values()) for op in runtime.subtasks) == 3

    def test_rejects_negative_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            executor(-1)

    def test_serial_process_identical_outputs(self):
        elements = [i % 7 for i in range(200)]
        with executor() as backend:
            serial_out, serial_works = execute_unit(
                [counting_runtime()], elements, 1, backend
            )
        with executor(2) as backend:
            process_out, process_works = execute_unit(
                [counting_runtime()], elements, 1, backend
            )
        # Element-for-element identical, not just set-identical.
        assert serial_out == process_out
        assert [w.elements_in for w in serial_works] == [
            w.elements_in for w in process_works
        ]
        assert serial_works[0].parallelism == process_works[0].parallelism == 4

    def test_serial_process_identical_finish(self):
        serial_runtime, process_runtime = counting_runtime(), counting_runtime()
        elements = list(range(50))
        with executor() as backend:
            execute_unit([serial_runtime], elements, 0, backend)
            flushed_serial, _ = execute_finish([serial_runtime], backend)
        with executor(2) as backend:
            execute_unit([process_runtime], elements, 0, backend)
            flushed_process, _ = execute_finish([process_runtime], backend)
        assert flushed_serial == flushed_process

    def test_process_measures_wall_clock(self):
        with executor(2) as backend:
            _, works = execute_unit(
                [counting_runtime()], list(range(40)), 0, backend
            )
        work = works[0]
        assert work.wall_seconds > 0
        assert len(work.busy_seconds) == 4
        assert all(b >= 0 for b in work.busy_seconds)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_close_idempotent_then_rejects_use(self, workers):
        backend = executor(workers)
        execute_unit([counting_runtime()], [1, 2], 0, backend)
        backend.close()
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            execute_unit([counting_runtime()], [1], 0, backend)

    def test_runtimes_of_one_stage_list_share_no_operator(self):
        """Master and workers each build ``[StageRuntime(s) for s in
        stages]`` from one stage list; no operator may be shared."""
        stages = counting_stages()
        first = [StageRuntime(stage) for stage in stages]
        second = [StageRuntime(stage) for stage in stages]
        assert first[0].subtasks[0] is not second[0].subtasks[0]
        with executor() as backend:
            execute_unit(first, [1, 1, 2], 0, backend)
            assert backend.query(second[0], "total") == []

    def test_retired_thread_backend_name_is_refused(self):
        with pytest.raises(ValueError) as excinfo:
            ICPEConfig(backend="parallel", **KNOBS)
        assert "['serial', 'process']" in str(excinfo.value)

    def test_unknown_backend_name_is_refused_by_the_config(self):
        with pytest.raises(ValueError) as excinfo:
            ICPEConfig(backend="echo", **KNOBS)
        assert "['serial', 'process']" in str(excinfo.value)

    def test_session_on_retired_thread_backend_is_refused(self):
        from repro import open_session

        with pytest.raises(ValueError) as excinfo:
            open_session(backend="parallel", **KNOBS)
        assert "['serial', 'process']" in str(excinfo.value)


class TestQuery:
    def test_answers_per_subtask_in_order(self):
        runtime = counting_runtime()
        execute_unit([runtime], list(range(40)), 0, executor())
        answers = executor().query(runtime, "total")
        assert [index for index, _ in answers] == [0, 1, 2, 3]
        assert sum(total for _, total in answers) == 40

    def test_per_subtask_args_and_skips(self):
        runtime = counting_runtime()
        execute_unit([runtime], list(range(40)), 0, executor())
        plain = dict(executor().query(runtime, "total"))
        args = [(2,), None, (3,), None]
        answers = executor().query(runtime, "total", args)
        assert answers == [(0, plain[0] * 2), (2, plain[2] * 3)]

    def test_none_answers_are_left_out(self):
        runtime = counting_runtime()
        execute_unit([runtime], [0], 0, executor())
        answers = executor().query(runtime, "total")
        assert [index for index, _ in answers] == [runtime.route(0)]

    def test_state_capture_reuses_known_digest(self):
        runtime = counting_runtime()
        execute_unit([runtime], list(range(40)), 0, executor())
        first = executor().query(runtime, "capture_state")
        assert all(data is not None for _, (_, data) in first)
        known = [(digest,) for _, (digest, _) in first]
        second = executor().query(runtime, "capture_state", known)
        assert [d for _, (d, _) in second] == [d for _, (d, _) in first]
        assert all(data is None for _, (_, data) in second)

    def test_restore_encoded_round_trips(self):
        source, target = counting_runtime(), counting_runtime()
        execute_unit([source], list(range(40)), 0, executor())
        captured = executor().query(source, "capture_state")
        args = [None] * 4
        for index, (_digest, data) in captured:
            args[index] = (data,)
        executor().query(target, "restore_encoded", args)
        assert executor().query(target, "total") == executor().query(
            source, "total"
        )

    def test_unknown_method_names_the_stage(self):
        with pytest.raises(RuntimeError, match="stage 'count'"):
            executor().query(counting_runtime(), "no_such_method")
