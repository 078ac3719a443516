"""Array time synchronisation vs the reference chain walk, call for call.

``TimeSyncOperator`` (``streaming/sync.py``) releases whole batches with
one array pass; ``reference_sync.py`` keeps the row-at-a-time chain walk
it replaced.  A batched rewrite of a stateful operator must be *proven*
invariant under batch boundaries, so this suite drives both over the
same hostile streams — bounded disorder, duplicate ``(oid, time)``
re-reports, gaps, trajectories born mid-stream, ``last_time=None`` on a
live chain, lost records that block a chain for good, TTL eviction with
reappearance, stale records — cut into arbitrary calls (per-point
``feed``, one-row batches, odd-sized batches, the whole remainder at
once), swaps their checkpoints at a random cut, and requires the same
emitted rows in the same order, the same metrics and the same errors
after every single call.
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import link_last_times
from repro.model.batch import RecordBatch, SnapshotBatch
from repro.model.records import StreamRecord
from repro.state import decode_payload, encode_payload
from repro.streaming.shuffle import bounded_shuffle
from repro.streaming.sync import TimeSyncOperator
from tests.streaming.reference_sync import _ChainWalkSync

#: Tier-1 keeps the property short; the acceptance run sets
#: ``SYNC_DIFF_EXAMPLES=500`` (or more).
EXAMPLES = int(os.environ.get("SYNC_DIFF_EXAMPLES", "60"))


def hostile_stream(rng: random.Random, max_delay: int) -> list[StreamRecord]:
    """A chained multi-trajectory stream with every awkward feature."""
    horizon = rng.randint(6, 30)
    records: list[StreamRecord] = []
    for oid in rng.sample(range(1, 60), rng.randint(2, 9)):
        born = rng.randint(1, horizon // 2) if rng.random() < 0.4 else 1
        times = [
            t for t in range(born, horizon + 1) if rng.random() < 0.8
        ]
        if times and rng.random() < 0.3:
            # One long silence: with a TTL the chain is evicted and the
            # trajectory reappears pointing into forgotten history.
            cut = rng.randrange(len(times))
            times = times[:cut] + [t + 12 for t in times[cut:]]
        records.extend(
            StreamRecord(oid=oid, x=rng.random(), y=rng.random(), time=t)
            for t in times
        )
    linked = link_last_times(records)
    stream: list[StreamRecord] = []
    for record in linked:
        roll = rng.random()
        if roll < 0.03:
            continue  # lost in transit: its successor blocks until flush
        if roll < 0.06:
            record = StreamRecord(
                record.oid, record.x, record.y, record.time, last_time=None
            )
        stream.append(record)
        if rng.random() < 0.06:
            stream.append(
                StreamRecord(
                    record.oid,
                    rng.random(),
                    rng.random(),
                    record.time,
                    last_time=record.last_time,
                )
            )
    stream = list(bounded_shuffle(stream, max_delay, rng=rng))
    for _ in range(rng.randint(0, 2)):
        # A record far behind the watermark: both must refuse it.
        at = rng.randrange(len(stream) + 1)
        stream.insert(at, StreamRecord(rng.randint(1, 60), 0.5, 0.5, time=0))
    return stream


def cut_into_calls(rng: random.Random, stream: list[StreamRecord]) -> list:
    """Split the stream into ``("feed", record)`` / ``("batch", batch)``."""
    calls: list = []
    i = 0
    while i < len(stream):
        roll = rng.random()
        if roll < 0.25:
            calls.append(("feed", stream[i]))
            i += 1
        elif roll < 0.45:
            calls.append(("batch", RecordBatch.from_records(stream[i : i + 1])))
            i += 1
        elif roll < 0.5:
            calls.append(("batch", RecordBatch.from_records(stream[i:])))
            i = len(stream)
        else:
            size = rng.randint(2, 12)
            calls.append(("batch", RecordBatch.from_records(stream[i : i + size])))
            i += size
    return calls


def rows_of(snapshots) -> list:
    """Emission as ``(time, [(oid, x, y), ...])`` — order included."""
    return [(s.time, s.points()) for s in snapshots]


def observable(operator) -> tuple:
    return (
        operator.state_metrics(),
        operator.watermark_lag(),
        operator.chains_evicted,
    )


def call(operator, kind, payload):
    """One call; returns ``("ok", rows)`` or ``("stale", message)``."""
    before = operator.snapshot_state()
    try:
        if kind == "feed":
            out = operator.feed(payload)
        else:
            out = operator.feed_batch(payload)
            assert all(isinstance(s, SnapshotBatch) for s in out)
    except ValueError as error:
        assert operator.snapshot_state() == before, "a refused call mutated state"
        return "stale", str(error)
    return "ok", rows_of(out)


def swap_checkpoints(array, walk):
    """Restore each side from the *other* representation's checkpoint."""
    into_array = TimeSyncOperator(array.max_delay, array.trajectory_ttl)
    into_array.restore_state(
        decode_payload(encode_payload(walk.snapshot_state())[1])
    )
    into_walk = _ChainWalkSync(walk.max_delay, walk.trajectory_ttl)
    into_walk.restore_state(
        decode_payload(encode_payload(array.snapshot_state())[1])
    )
    return into_array, into_walk


def run_differential(seed: int, max_delay: int, ttl_slack: int | None) -> int:
    rng = random.Random(seed)
    ttl = None if ttl_slack is None else max_delay + ttl_slack
    calls = cut_into_calls(rng, hostile_stream(rng, max_delay))
    swap_at = rng.randrange(len(calls) + 1)
    array = TimeSyncOperator(max_delay, ttl)
    walk = _ChainWalkSync(max_delay, ttl)
    emitted = 0
    for index, (kind, payload) in enumerate(calls):
        if index == swap_at:
            array, walk = swap_checkpoints(array, walk)
            assert observable(array) == observable(walk)
        got, expected = call(array, kind, payload), call(walk, kind, payload)
        assert got == expected, (seed, index, kind)
        assert observable(array) == observable(walk), (seed, index, kind)
        emitted += len(got[1]) if got[0] == "ok" else 0
    columnar = rng.random() < 0.5
    assert rows_of(array.flush(columnar=columnar)) == rows_of(
        walk.flush(columnar=columnar)
    ), seed
    assert observable(array) == observable(walk)
    return emitted


class TestCallForCallAgreement:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(
        st.integers(0, 1_000_000),
        st.integers(0, 4),
        st.one_of(st.none(), st.integers(1, 6)),
    )
    def test_hostile_streams_any_cuts_checkpoint_swap(
        self, seed, max_delay, ttl_slack
    ):
        run_differential(seed, max_delay, ttl_slack)

    def test_the_generator_reaches_every_feature(self):
        """The property is only as good as its streams: across a fixed
        seed range they must emit, evict, block and go stale."""
        emitted = evicted = stale = blocked = 0
        for seed in range(40):
            rng = random.Random(seed)
            stream = hostile_stream(rng, 2)
            operator = _ChainWalkSync(2, 4)
            for record in stream:
                try:
                    emitted += len(operator.feed(record))
                except ValueError:
                    stale += 1
            evicted += operator.chains_evicted
            blocked += operator.state_metrics()["pending_records"]
        assert emitted and evicted and stale and blocked

    def test_large_seeded_stream(self):
        """One big disordered stream through odd-sized batches."""
        rng = random.Random(2019)
        max_delay = 3
        records = link_last_times(
            [
                StreamRecord(oid, rng.random(), rng.random(), time=t)
                for t in range(1, 81)
                for oid in range(400)
                if rng.random() < 0.9
            ]
        )
        records.sort(key=lambda r: r.time + rng.random() * max_delay)
        array, walk = TimeSyncOperator(max_delay), _ChainWalkSync(max_delay)
        snapshots = 0
        for batch in RecordBatch.pack(records, 997):
            got = rows_of(array.feed_batch(batch))
            assert got == rows_of(walk.feed_batch(batch))
            assert observable(array) == observable(walk)
            snapshots += len(got)
        got = rows_of(array.flush(columnar=True))
        assert got == rows_of(walk.flush(columnar=True))
        assert snapshots + len(got) == 80


class TestOperatorContract:
    def test_both_operators_refuse_a_ttl_within_max_delay(self):
        for operator in (TimeSyncOperator, _ChainWalkSync):
            operator(max_delay=2, trajectory_ttl=5)
            with pytest.raises(ValueError, match="trajectory_ttl"):
                operator(max_delay=2, trajectory_ttl=2)

    def test_array_batches_never_unbox(self, monkeypatch):
        """No boxed record is built behind ``feed_batch`` — duplicates
        included."""

        def unreachable(*_args, **_kwargs):
            raise AssertionError("row-at-a-time code reached from the array pass")

        rng = random.Random(5)
        stream = [
            r for r in hostile_stream(rng, 2) if r.time > 0
        ]
        expected = _ChainWalkSync(2)
        keys = [(r.oid, r.time) for r in stream]
        assert len(set(keys)) < len(keys), "the stream must re-report a row"
        batches = list(RecordBatch.pack(stream, 7))
        want = [rows_of(expected.feed_batch(batch)) for batch in batches]
        want.append(rows_of(expected.flush(columnar=True)))
        monkeypatch.setattr(RecordBatch, "record_at", unreachable)
        monkeypatch.setattr(RecordBatch, "__iter__", unreachable)
        operator = TimeSyncOperator(2)
        got = [rows_of(operator.feed_batch(batch)) for batch in batches]
        got.append(rows_of(operator.flush(columnar=True)))
        assert got == want


#: What ``snapshot_state()`` returned before the array representation
#: existed (chain walk, max_delay=1, snapshot 1 already emitted): chain 3
#: blocked on its missing t=2 record, chain 5 holding a ``last_time=None``
#: row it can only release at flush, snapshot 2 half built.
PRE_ARRAY_PAYLOAD = {
    "chains": {
        7: (2, [], 2),
        3: (1, [(3, 2, 3, 3.0, 30.0, 2)], 3),
        5: (2, [(3, 2, 5, 5.0, 50.0, None)], 3),
    },
    "building": {2: ([7, 5], [7.2, 5.2], [70.2, 50.2])},
    "max_seen": 3,
    "emitted_up_to": 1,
    "eviction_horizon": None,
    "chains_evicted": 0,
}


@pytest.mark.parametrize("representation", [TimeSyncOperator, _ChainWalkSync])
def test_pre_array_checkpoint_restores(representation):
    operator = representation(max_delay=1)
    operator.restore_state(PRE_ARRAY_PAYLOAD)
    assert operator.state_metrics() == {
        "chains": 3,
        "pending_records": 2,
        "building_snapshots": 1,
        "chains_evicted": 0,
    }
    out = operator.feed_batch(
        RecordBatch.from_records(
            [
                StreamRecord(3, 3.1, 30.1, time=2, last_time=1),
                StreamRecord(7, 7.3, 70.3, time=3, last_time=2),
                StreamRecord(9, 9.4, 90.4, time=4),
            ]
        )
    )
    assert rows_of(out) == [
        (2, [(7, 7.2, 70.2), (5, 5.2, 50.2), (3, 3.1, 30.1)]),
    ]
    assert rows_of(operator.flush()) == [
        (3, [(3, 3.0, 30.0), (7, 7.3, 70.3), (5, 5.0, 50.0)]),
        (4, [(9, 9.4, 90.4)]),
    ]
    with pytest.raises(ValueError, match="max_delay"):
        operator.feed(StreamRecord(1, 0.0, 0.0, time=4))
