"""The partition envelope through the keyed exchange, telemetry and backends.

The kernel clustering stage emits one ``PartitionBatch`` per snapshot in
place of its partition records.  Everything downstream must see the
records it saw before:

1. **split parity** — splitting an envelope at fan-outs 2, 3 and 16
   hands every subtask the same anchors, in the same order, as routing
   the records one by one; routing never builds a member set.
2. **counts** — ``StageWork`` and span ``elements_in`` / ``elements_out``
   count records, not envelopes.
3. **unrolling** — the reference ``EnumerateOperator`` consumes an
   envelope exactly as it consumes the records.

Serial ≡ process event for event, with envelopes crossing the worker
pipes, is ``tests/integration/test_backend_equivalence.py``'s numpy ×
numpy case (two workers, so every snapshot's envelope is split in two).
"""

from __future__ import annotations

import pickle
import random
from unittest import mock

import pytest

from repro.core.operators import (
    EnumerateOperator,
    KernelClusterOperator,
    make_enumerator_factory,
)
from repro.core.config import ICPEConfig
from repro.enumeration.partition import PartitionRouter
from repro.kernels.numpy_kernel import NumpyKernel
from repro.model.batch import PartitionBatch, SnapshotBatch
from repro.model.constraints import PatternConstraints
from repro.model.snapshot import ClusterSnapshot
from repro.streaming.dataflow import KeyedStage, StageRuntime


def records_of(seed: int, time: int = 4) -> list[tuple]:
    """One snapshot's partition records (empty ones included), as emitted."""
    rng = random.Random(seed)
    oids = [oid for oid in range(rng.randint(0, 60)) if rng.random() < 0.8]
    groups: list[list[int]] = [[] for _ in range(rng.randint(1, 8))]
    for oid in oids:
        rng.choice(groups).append(oid * 7 + 3)
    router = PartitionRouter(2)
    snapshot = ClusterSnapshot.from_groups(time, [g for g in groups if g])
    return [(time, anchor, members) for anchor, members in router.route(snapshot)]


def envelope_of(records: list[tuple], time: int = 4) -> PartitionBatch:
    return PartitionBatch.from_pairs(time, [(a, m) for _t, a, m in records])


FACTORY = make_enumerator_factory(
    ICPEConfig(
        epsilon=1.0,
        cell_width=4.0,
        min_pts=2,
        constraints=PatternConstraints(m=2, k=2, l=1, g=1),
        enumerator="fba",
    )
)


def enumerate_runtime(parallelism: int) -> StageRuntime:
    """The reference enumerate stage, keyed as the pipeline keys it."""
    return StageRuntime(
        KeyedStage(
            name="enumerate",
            operator_factory=lambda: EnumerateOperator(FACTORY),
            parallelism=parallelism,
            key_fn=lambda record: record[1],
        )
    )


@pytest.mark.parametrize("fan_out", [2, 3, 16])
@pytest.mark.parametrize("seed", range(12))
def test_split_matches_record_routing(fan_out, seed):
    records = records_of(seed)
    envelope = envelope_of(records)
    assert list(envelope.rows()) == records
    runtime = enumerate_runtime(fan_out)
    by_record = runtime.partition(records)
    by_envelope = runtime.partition([envelope])
    for expected, bucket in zip(by_record, by_envelope):
        assert len(bucket) <= 1
        assert all(isinstance(item, PartitionBatch) for item in bucket)
        got = [row for item in bucket for row in item.rows()]
        assert got == expected
        assert sum(map(len, bucket)) == len(expected)


def test_routing_builds_no_member_sets():
    envelope = envelope_of(records_of(3))
    runtime = enumerate_runtime(3)
    with mock.patch.object(
        PartitionBatch, "rows", side_effect=AssertionError("rows built")
    ):
        buckets = runtime.partition([envelope])
    assert sum(len(item) for bucket in buckets for item in bucket) == len(envelope)


def test_envelope_pickles():
    envelope = envelope_of(records_of(5))
    copy = pickle.loads(pickle.dumps(envelope))
    assert list(copy.rows()) == list(envelope.rows())
    assert copy.time == envelope.time


def test_counts_are_records():
    """Cluster stage out and enumerate stage in count records, as before."""
    kernel = NumpyKernel(epsilon=1.0, min_pts=2)
    cluster = StageRuntime(
        KeyedStage(
            name="cluster",
            operator_factory=lambda: KernelClusterOperator(kernel, 2),
            parallelism=1,
        )
    )
    rng = random.Random(1)
    oids = list(range(40))
    batch = SnapshotBatch(
        4,
        oids,
        [rng.randrange(6) + rng.random() * 0.3 for _ in oids],
        [rng.random() * 0.3 for _ in oids],
    )
    outputs, work = cluster.run([batch], 4)
    [envelope] = outputs
    records = list(envelope.rows())
    assert len(records) > 3
    assert work.elements_out == len(records)
    [span] = cluster.drain_spans()
    assert (span.elements_in, span.elements_out) == (40, len(records))

    enumerate_ = enumerate_runtime(3)
    _outputs, work = enumerate_.run(outputs, 4)
    assert work.elements_in == len(records)
    spans = enumerate_.drain_spans()
    assert sum(span.elements_in for span in spans) == len(records)


def test_reference_enumerate_unrolls_the_envelope():
    by_record = enumerate_runtime(2)
    by_envelope = enumerate_runtime(2)
    for t in range(6):
        records = records_of(t % 2, time=t)
        expected, _ = by_record.run(records, t)
        got, _ = by_envelope.run([envelope_of(records, t)], t)
        key = lambda p: p.key()  # noqa: E731
        assert sorted(got, key=key) == sorted(expected, key=key)

