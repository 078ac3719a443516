"""One control query answers every worker question, on either backend.

State capture and restore, memory metrics, and the shed-protected and
forming sets all travel through :meth:`ProcessBackend.query`.  A
2-worker process session whose enumerate stage has four subtasks (so
every worker owns two) must answer each kind exactly as a serial session
over the same records does — including the incremental capture, where a
subtask whose digest the caller already holds answers without its bytes.
The serial session is the same executor with no worker pool: it starts
no process, and its events, spans and stage metrics equal the pool's.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro import open_session
from repro.session import event_to_dict

from tests.state.conftest import BASE_KNOBS, cluster_stream

FAN_OUT = 4

#: Both sessions get the same stage shape: the process pool's two
#: workers each own two enumerate subtasks and one of each other stage.
SHAPE = dict(
    allocate_parallelism=2, query_parallelism=2, enumerate_parallelism=FAN_OUT
)


def _enumerate_runtime(session):
    return next(
        r for r in session.pipeline.runtimes if r.stage.name == "enumerate"
    )


def _query(session, method, args=None, runtime=None):
    runtime = runtime or _enumerate_runtime(session)
    return session.pipeline.backend.query(runtime, method, args)


@pytest.fixture(scope="module")
def sessions():
    records = cluster_stream(seed=29, n_times=9, n_objects=9)
    cut = len(records) * 2 // 3
    opened = {
        "serial": open_session(**BASE_KNOBS, **SHAPE),
        "process": open_session(
            **BASE_KNOBS, backend="process", parallel_workers=2, **SHAPE
        ),
    }
    for session in opened.values():
        for record in records[:cut]:
            session.feed(record)
    yield opened, records[cut:]
    for session in opened.values():
        session.close()


def test_process_session_really_fans_out(sessions):
    opened, _ = sessions
    process = opened["process"]
    assert len(process.pipeline.backend._processes) == 2
    assert len(_enumerate_runtime(process).subtasks) == FAN_OUT


@pytest.mark.parametrize(
    "method", ["protected_oids", "forming_candidates", "state_metrics"]
)
def test_read_queries_equal_serial(sessions, method):
    opened, _ = sessions
    serial = _query(opened["serial"], method)
    assert _query(opened["process"], method) == serial
    assert any(answer for _, answer in serial)


def test_state_metrics_of_every_stage_equal_serial(sessions):
    opened, _ = sessions
    for serial_rt, process_rt in zip(
        opened["serial"].pipeline.runtimes, opened["process"].pipeline.runtimes
    ):
        assert _query(
            opened["process"], "state_metrics", runtime=process_rt
        ) == _query(opened["serial"], "state_metrics", runtime=serial_rt)


def test_state_capture_reuses_known_digests(sessions):
    opened, _ = sessions
    no_digests = [(None,)] * FAN_OUT
    first = {
        name: _query(session, "capture_state", no_digests)
        for name, session in opened.items()
    }
    assert first["process"] == first["serial"]
    assert [index for index, _ in first["serial"]] == list(range(FAN_OUT))
    assert all(data is not None for _, (_, data) in first["serial"])
    known = [(digest,) for _, (digest, _) in first["serial"]]
    for session in opened.values():
        second = _query(session, "capture_state", known)
        assert [(i, d) for i, (d, _) in second] == [
            (i, d) for i, (d, _) in first["serial"]
        ]
        assert all(data is None for _, (_, data) in second)


def test_restore_equals_serial(sessions):
    opened, rest = sessions
    no_digests = [(None,)] * FAN_OUT
    saved = _query(opened["serial"], "capture_state", no_digests)
    for session in opened.values():
        for record in rest:
            session.feed(record)
    moved = _query(opened["serial"], "capture_state", no_digests)
    assert moved != saved  # the stream changed the enumerate state
    restore = [(data,) for _, (_, data) in saved]
    for session in opened.values():
        assert _query(session, "restore_encoded", restore) == []
        assert _query(session, "capture_state", no_digests) == saved


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_unknown_method_names_the_stage(sessions, backend):
    opened, _ = sessions
    with pytest.raises(RuntimeError, match="'enumerate'"):
        _query(opened[backend], "no_such_method")


def _drive(session, records):
    """Events, span identities and mid-stream stage metrics of a run."""
    pipeline = session.pipeline
    events, spans = [], []

    def keep_spans():
        spans.extend(
            (s.stage, s.subtask, s.time, s.kind, s.elements_in, s.elements_out)
            for s in pipeline.last_spans
        )

    for record in records:
        processed = pipeline.meter.snapshots
        events.extend(session.feed(record))
        if pipeline.meter.snapshots != processed:
            keep_spans()
    metrics = pipeline.state_metrics()
    events.extend(session.finish())
    keep_spans()
    return [event_to_dict(e) for e in events], spans, metrics


def test_serial_fan_out_starts_no_process_and_equals_the_pool():
    records = cluster_stream(seed=31, n_times=9, n_objects=9)
    before = set(multiprocessing.active_children())
    serial = open_session(**BASE_KNOBS, **SHAPE)
    try:
        assert set(multiprocessing.active_children()) == before
        assert len(_enumerate_runtime(serial).subtasks) == FAN_OUT
        serial_run = _drive(serial, records)
    finally:
        serial.close()
    with open_session(
        **BASE_KNOBS, backend="process", parallel_workers=2, **SHAPE
    ) as process:
        process_run = _drive(process, records)
    assert any(event["kind"] == "pattern" for event in serial_run[0])
    assert serial_run[1] and "enumerate" in serial_run[2]
    assert process_run == serial_run
