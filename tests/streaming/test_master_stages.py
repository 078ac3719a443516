"""Single-subtask stages run in the master on the process backend.

The master waits for a lone subtask and re-routes its outputs anyway,
so ``ProcessBackend`` runs such a stage on its master-side runtime, as
the serial backend does, and answers every control query for it from
that runtime.  Held to:

1. **No hop** — no ``run`` / ``finish`` command for a one-subtask stage
   reaches a worker (numpy × numpy, python × python, and with one
   worker, where every stage has one subtask, no worker is spawned and
   no command is sent).
2. **Live reads** — ``last_cluster_snapshot``, ``average_cluster_size``,
   ``clusters_formed`` and the cluster stage's metrics come from the
   master mid-stream and after ``finish()``, with no pipe traffic, and
   equal a serial run's.
3. **Crashes still surface** — a killed worker raises ``died
   unexpectedly`` on the next snapshot.
4. **Equality** — python × python (the DBSCAN collector now in the
   master) and a one-worker pool are event-for-event equal to serial.
5. **Same checkpoint bytes** — every operator payload of a mid-stream
   checkpoint is byte-identical whether one-subtask stages run in the
   master or, as before, in a worker.
"""

from __future__ import annotations

import multiprocessing
from contextlib import contextmanager
from unittest import mock

import pytest

from repro import open_session
from repro.model.batch import SnapshotBatch
from repro.session import event_to_dict
from repro.state import Checkpoint
from repro.streaming.runtime import ProcessBackend

from tests.state.conftest import BASE_KNOBS, cluster_stream, run_uninterrupted

KERNELS = {
    "numpy": dict(clustering_kernel="numpy", enumeration_kernel="numpy"),
    "python": dict(clustering_kernel="python", enumeration_kernel="python"),
}


@contextmanager
def recorded_sends():
    """Every ``(worker, message)`` the master sends, while active."""
    sent: list[tuple[int, tuple]] = []
    original = ProcessBackend._send

    def spy(self, worker, message):
        sent.append((worker, message))
        return original(self, worker, message)

    with mock.patch.object(ProcessBackend, "_send", spy):
        yield sent


def stage_names_sent(backend: ProcessBackend, sent) -> set[str]:
    """Names of the stages the recorded ``run`` / ``finish`` commands
    addressed."""
    names = {index: name for name, index in backend._stage_index.items()}
    return {
        names[message[1]]
        for _, message in sent
        if message[0] in ("run", "finish")
    }


def drive(records, **knobs):
    """Events of one session over ``records``; returns (events, session)."""
    session = open_session(**{**BASE_KNOBS, **knobs})
    events = []
    for record in records:
        events.extend(session.feed(record))
    return events, session


@pytest.fixture(scope="module")
def records():
    return cluster_stream(seed=41, n_times=8, n_objects=7)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_no_run_or_finish_reaches_a_worker_for_one_subtask_stages(
    records, kernel
):
    with recorded_sends() as sent:
        events, session = drive(
            records, backend="process", parallel_workers=2, **KERNELS[kernel]
        )
        backend = session.pipeline.backend
        events.extend(session.finish())
        runtimes = session.pipeline.runtimes
    single = {r.stage.name for r in runtimes if len(r.subtasks) == 1}
    multi = {r.stage.name for r in runtimes if len(r.subtasks) > 1}
    assert "cluster" in single and "enumerate" in multi
    assert stage_names_sent(backend, sent) == multi
    assert any(e.kind == "pattern" for e in events)


def run_to_end(records, **knobs) -> list[dict]:
    events, session = drive(records, **knobs)
    events.extend(session.finish())
    session.close()
    return [event_to_dict(event) for event in events]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_one_worker_runs_the_whole_graph_in_the_master(records, kernel):
    with recorded_sends() as sent:
        events, session = drive(
            records, backend="process", parallel_workers=1, **KERNELS[kernel]
        )
        session.checkpoint()
        events.extend(session.finish())
        session.close()
    assert all(
        len(runtime.subtasks) == 1 for runtime in session.pipeline.runtimes
    )
    assert sent == []
    assert [event_to_dict(e) for e in events] == run_to_end(
        records, backend="serial", **KERNELS[kernel]
    )


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_one_worker_pool_spawns_no_worker(records, kernel):
    before = set(multiprocessing.active_children())
    session = open_session(
        backend="process", parallel_workers=1, **BASE_KNOBS, **KERNELS[kernel]
    )
    try:
        assert set(multiprocessing.active_children()) - before == set()
        assert session.pipeline.backend._processes == []
        cut = len(records) // 2
        events = []
        for record in records[:cut]:
            events.extend(session.feed(record))
        checkpoint = Checkpoint.from_bytes(session.checkpoint().to_bytes())
    finally:
        session.close()
    restored = open_session(
        restore=checkpoint, backend="process", parallel_workers=1
    )
    try:
        assert set(multiprocessing.active_children()) - before == set()
        for record in records[cut:]:
            events.extend(restored.feed(record))
        events.extend(restored.finish())
    finally:
        restored.close()
    assert [event_to_dict(e) for e in events] == run_uninterrupted(
        records, **KERNELS[kernel]
    )


def cluster_reads(pipeline) -> dict:
    return dict(
        snapshot=pipeline.last_cluster_snapshot,
        average=pipeline.average_cluster_size(),
        formed=pipeline.clusters_formed,
    )


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_cluster_state_is_read_from_the_master(records, kernel):
    _, serial = drive(records, backend="serial", **KERNELS[kernel])
    _, process = drive(
        records, backend="process", parallel_workers=2, **KERNELS[kernel]
    )
    try:
        cluster_runtime = next(
            r for r in process.pipeline.runtimes if r.stage.name == "cluster"
        )
        with recorded_sends() as sent:
            mid = cluster_reads(process.pipeline)
            metrics = process.pipeline.backend.query(
                cluster_runtime, "state_metrics"
            )
        assert sent == []
        assert mid == cluster_reads(serial.pipeline)
        assert mid["snapshot"] is not None and mid["average"] > 0.0
        assert metrics and metrics[0][0] == 0
        assert (
            process.pipeline.state_metrics()["cluster"]
            == serial.pipeline.state_metrics()["cluster"]
        )
        serial.finish()
        process.finish()
        with recorded_sends() as sent:
            final = cluster_reads(process.pipeline)
            process.pipeline.state_metrics()
        assert sent == []
        assert final == cluster_reads(serial.pipeline)
        assert final["snapshot"] is not None
    finally:
        serial.close()
        process.close()


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("victim", [0, 1])
def test_killed_worker_raises_on_the_next_snapshot(kernel, victim):
    session = open_session(
        backend="process", parallel_workers=2, **BASE_KNOBS, **KERNELS[kernel]
    )
    pipeline = session.pipeline
    try:
        batch = lambda time: SnapshotBatch.from_rows(  # noqa: E731
            time, [1, 2, 3], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0]
        )
        pipeline.process_snapshot(batch(1))
        process = pipeline.backend._processes[victim]
        process.kill()
        process.join(timeout=10)
        with pytest.raises(RuntimeError, match="died unexpectedly"):
            pipeline.process_snapshot(batch(2))
    finally:
        session.close()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_python_kernels_on_process_equal_serial_event_for_event(
    records, workers
):
    serial = run_to_end(records, backend="serial", **KERNELS["python"])
    assert any(event["kind"] == "pattern" for event in serial)
    assert (
        run_to_end(
            records,
            backend="process",
            parallel_workers=workers,
            **KERNELS["python"],
        )
        == serial
    )


def worker_resident(self, runtime) -> bool:
    """The backend before single-subtask stages moved to the master."""
    self._stage_address(runtime)
    return False


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_checkpoint_bytes_do_not_depend_on_where_the_stage_ran(
    records, kernel
):
    cut = len(records) * 2 // 3

    def states(in_master):
        with mock.patch.object(ProcessBackend, "_in_master", in_master):
            _, session = drive(
                records[:cut],
                backend="process",
                parallel_workers=2,
                **KERNELS[kernel],
            )
            try:
                return session.checkpoint().operator_states
            finally:
                session.close()

    in_master = states(ProcessBackend._in_master)
    in_worker = states(worker_resident)
    assert ("cluster", 0) in in_master
    assert in_master == in_worker
