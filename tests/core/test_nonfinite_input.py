"""Non-finite coordinates are refused at ``Session.feed_batch`` and ``feed``.

A NaN or infinite ``x`` / ``y`` used to reach the clustering kernels:
one NaN made every numpy cell key of its snapshot garbage, and an
infinity raised out of the cluster stage after the time-synchronisation
operator had already released the snapshot.  The session now refuses
such a batch whole, before anything is ingested, with an error naming
the first offending ``(oid, time)``; the same session then takes the
next, clean batch as if the bad one had never been fed.  Per-point
``feed`` refuses a bad record with the same message.
"""

from __future__ import annotations

import math

import pytest

from repro import open_session
from repro.model.batch import RecordBatch
from repro.model.records import StreamRecord
from repro.session import event_to_dict

from tests.state.conftest import BASE_KNOBS, cluster_stream

KERNEL_PAIRS = [
    pytest.param(("python", "python"), id="python-python"),
    pytest.param(("numpy", "numpy"), id="numpy-numpy"),
]
BAD_VALUES = [math.nan, math.inf, -math.inf]


def session_for(kernels):
    clustering, enumeration = kernels
    return open_session(
        **BASE_KNOBS,
        clustering_kernel=clustering,
        enumeration_kernel=enumeration,
    )


def spoiled(record: StreamRecord, axis: str, value: float) -> StreamRecord:
    x, y = (value, record.y) if axis == "x" else (record.x, value)
    return StreamRecord(record.oid, x, y, record.time, record.last_time)


def as_dicts(events) -> list[dict]:
    return [event_to_dict(event) for event in events]


@pytest.mark.parametrize("kernels", KERNEL_PAIRS)
@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("value", BAD_VALUES, ids=["nan", "+inf", "-inf"])
def test_bad_batch_is_refused_and_the_session_continues(kernels, axis, value):
    records = cluster_stream(5, n_times=10, n_objects=8)
    cut = len(records) // 2
    head, tail = records[:cut], records[cut:]
    bad = list(tail[:6])
    bad[2] = spoiled(bad[2], axis, value)
    bad[4] = spoiled(bad[4], axis, value)

    with session_for(kernels) as clean:
        expected = clean.feed_batch(RecordBatch.from_records(head))
        expected += clean.feed_batch(RecordBatch.from_records(tail))
        expected += clean.finish()

    with session_for(kernels) as session:
        got = session.feed_batch(RecordBatch.from_records(head))
        ingested, memory = session.records_ingested, session.state_memory()
        with pytest.raises(ValueError, match="non-finite") as refused:
            session.feed_batch(RecordBatch.from_records(bad))
        first = bad[2]
        assert f"(oid={first.oid}, time={first.time})" in str(refused.value)
        assert session.records_ingested == ingested
        assert session.state_memory() == memory
        got += session.feed_batch(RecordBatch.from_records(tail))
        got += session.finish()

    assert as_dicts(got) == as_dicts(expected)
    assert any(event.kind == "pattern" for event in expected)


@pytest.mark.parametrize("kernels", KERNEL_PAIRS)
@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("value", BAD_VALUES, ids=["nan", "+inf", "-inf"])
def test_bad_record_is_refused_per_point_and_the_session_continues(
    kernels, axis, value
):
    records = cluster_stream(5, n_times=10, n_objects=8)
    cut = len(records) // 2
    bad = spoiled(records[cut], axis, value)

    with session_for(kernels) as clean:
        expected = [e for record in records for e in clean.feed(record)]
        expected += clean.finish()

    with pytest.raises(ValueError) as batch_refusal:
        RecordBatch.from_records([bad]).require_finite()
    with session_for(kernels) as session:
        got = [e for record in records[:cut] for e in session.feed(record)]
        ingested, memory = session.records_ingested, session.state_memory()
        with pytest.raises(ValueError, match="non-finite") as refused:
            session.feed(bad)
        assert str(refused.value) == str(batch_refusal.value)
        assert session.records_ingested == ingested
        assert session.state_memory() == memory
        got += [e for record in records[cut:] for e in session.feed(record)]
        got += session.finish()

    assert as_dicts(got) == as_dicts(expected)
    assert any(event.kind == "pattern" for event in expected)


def test_array_backed_batches_are_checked():
    batch = RecordBatch.from_columns(
        [1, 2, 3], [0.0, math.inf, math.nan], [0.0, 0.0, 0.0], [4, 5, 6]
    )
    with pytest.raises(ValueError, match=r"\(oid=2, time=5\)"):
        batch.require_finite()
    RecordBatch.from_columns([1], [1e308], [-1e308], [0]).require_finite()
