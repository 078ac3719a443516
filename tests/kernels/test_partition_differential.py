"""The array-side snapshot-to-partition chain against its earlier code.

``tests/kernels/reference_partition.py`` holds, verbatim, the chain as it
was before a snapshot stayed on arrays from columns to packed keys: the
five-offset ε-join, the labeling that grouped its pairs,
``ClusterSnapshot.from_groups`` + ``id_partitions`` and the enumeration
kernel's per-anchor key packing.  The production code is held to it:

1. **pair sets** — ``NumpyKernel`` (the column-range join) yields the
   same index pairs on the same packed arrays, the same oid pairs and the
   same ``last_join_stats`` under l1 / l2 / linf: partners exactly ε
   apart on bucket boundaries, every point on one ``x`` or one ``y``,
   negative coordinates, duplicate oids, and 0–2 points.
2. **partitions** — for ``min_pts`` 1–6 × M 2–6 × every metric, the
   kernel clustering stage's ``ClusterSnapshot`` (equal and
   pickle-identical), its ``PartitionBatch`` anchors, keys and rows, its
   cluster counters and the kernel's ``DBSCANResult`` equal the
   reference's snapshot, records and packed keys; ``from_pairs`` packs
   the records to the same keys.
3. **session stream** — over all four clustering × enumeration kernel
   pairs, a ``Session`` emits the same ordered ``PatternConfirmed``
   stream (FBA and VBA).
4. **mutants** — seeded defects must each fail a named property.

``PARTITION_DIFF_EXAMPLES`` sets the example count (CI runs 1000).
"""

from __future__ import annotations

import os
import pickle
import random
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro import PatternConfirmed, PatternConstraints, open_session
from repro.core import operators
from repro.core.operators import KernelClusterOperator
from repro.enumeration import partition
from repro.geometry.rect import pruning_epsilon
from repro.kernels import numpy_kernel
from repro.kernels.numpy_kernel import NumpyKernel
from repro.model.batch import PartitionBatch, RecordBatch, SnapshotBatch
from repro.model.records import StreamRecord
from tests.kernels import reference_partition as ref

EXAMPLES = int(os.environ.get("PARTITION_DIFF_EXAMPLES", "25"))
METRICS = ("l1", "l2", "linf")
EPSILONS = (0.0, 0.1, 0.5, 1.0, 2.5)


# ------------------------------------------------------------------ strategies


@st.composite
def snapshots(draw):
    """``(epsilon, metric, points)``: points laid out to stress the join."""
    epsilon = draw(st.sampled_from(EPSILONS) | st.floats(0.01, 5.0))
    width = pruning_epsilon(epsilon) if epsilon > 0 else 1.0
    k = st.integers(-6, 6)
    coordinate = st.one_of(
        k.map(lambda i: i * width),  # on bucket boundaries
        k.map(lambda i: i * width + epsilon),
        k.map(lambda i: i * width - epsilon),
        k.map(lambda i: i * epsilon),  # partners exactly epsilon apart
        st.floats(-6 * width, 6 * width, allow_nan=False),
    )
    size = draw(st.sampled_from((0, 1, 2, 2, 3, 5, 8, 13, 21, 40)))
    distinct = draw(st.booleans())
    oids = draw(
        st.lists(
            st.integers(0, 3 * size + 2 if distinct else size // 2 + 1),
            min_size=size,
            max_size=size,
            unique=distinct,
        )
    )
    layout = draw(st.sampled_from(("spread", "one x", "one y")))
    fixed = draw(coordinate)
    points = []
    for oid in oids:
        x, y = draw(coordinate), draw(coordinate)
        if layout == "one x":
            x = fixed
        elif layout == "one y":
            y = fixed
        points.append((oid, x, y))
    return epsilon, draw(st.sampled_from(METRICS)), points


@st.composite
def partition_cases(draw):
    epsilon, metric, points = draw(snapshots())
    return (
        epsilon,
        metric,
        points,
        draw(st.integers(1, 6)),  # min_pts
        draw(st.integers(2, 6)),  # M
    )


@st.composite
def session_cases(draw):
    return (
        draw(st.integers(0, 10_000)),
        draw(st.sampled_from(("fba", "vba"))),
        draw(st.integers(1, 64)),  # batch size
    )


# ------------------------------------------------------------------ properties


def index_pairs(kernel, xs, ys):
    left, right = kernel._pair_indices(xs, ys)
    pairs = set(zip(left.tolist(), right.tolist()))
    assert len(pairs) == left.size, "an index pair was produced twice"
    return pairs


def check_pair_sets(epsilon, metric, points):
    production = NumpyKernel(epsilon, 2, metric)
    reference = ref.NumpyKernel(epsilon, 2, metric)
    _oids, xs, ys = reference._pack(points)
    assert index_pairs(production, xs, ys) == index_pairs(reference, xs, ys)
    assert production.last_join_stats == reference.last_join_stats
    assert production.neighbor_pairs(points) == reference.neighbor_pairs(points)
    assert production.last_join_stats == reference.last_join_stats


def check_partitions(epsilon, metric, points, min_pts, significance):
    columns = (
        [p[0] for p in points], [p[1] for p in points], [p[2] for p in points]
    )
    reference = ref.NumpyKernel(epsilon, min_pts, metric)
    production = NumpyKernel(epsilon, min_pts, metric)

    # The kernel on raw columns, duplicate oids included.
    expected = reference.cluster_columns(*columns)
    assert production.cluster_columns(*columns) == expected
    members, bounds = production.cluster_members(*columns)
    cuts = bounds.tolist()
    assert [
        tuple(members[start:stop].tolist()) for start, stop in zip(cuts, cuts[1:])
    ] == list(expected.clusters.values())

    # The clustering stage on the snapshot envelope the sync operator emits.
    batch = SnapshotBatch(7, *columns)
    snapshot, records = ref.cluster_stage(
        reference, significance, 7, (batch.oids, batch.xs, batch.ys)
    )
    stage = KernelClusterOperator(production, significance)
    stage.process_batch(batch)
    [envelope] = stage.end_batch(7)
    assert isinstance(envelope, PartitionBatch)
    assert stage.last_cluster_snapshot == snapshot
    assert pickle.dumps(stage.last_cluster_snapshot) == pickle.dumps(snapshot)
    assert stage.clusters_formed == len(snapshot.clusters)
    assert stage.cluster_size_sum == sum(map(len, snapshot.clusters.values()))
    _partitions, keys = ref.pack_partitions(
        [(anchor, group) for _time, anchor, group in records]
    )
    assert envelope.anchors.tolist() == [anchor for _t, anchor, _m in records]
    assert envelope.keys.tolist() == keys.tolist()
    assert list(envelope.rows()) == records
    assert len(envelope) == len(records)
    packed = PartitionBatch.from_pairs(
        7, [(anchor, group) for _time, anchor, group in records]
    )
    assert packed.anchors.tolist() == envelope.anchors.tolist()
    assert packed.keys.tolist() == keys.tolist()


def record_stream(seed: int) -> list[StreamRecord]:
    """Objects drifting between a few sites: clusters form and break."""
    rng = random.Random(seed)
    n_objects = rng.randint(4, 14)
    records = []
    last: dict[int, int] = {}
    for t in range(rng.randint(6, 14)):
        for oid in range(n_objects):
            if rng.random() < 0.08:
                continue
            site = oid % 3 if rng.random() > 0.2 else rng.randrange(3)
            records.append(
                StreamRecord(
                    oid=oid * 3 + 1,
                    x=site * 4.0 + rng.random() * 1.5,
                    y=(oid % 2) * 0.5 + rng.random() * 0.5,
                    time=t,
                    last_time=last.get(oid),
                )
            )
            last[oid] = t
    return records


def confirmed(records, enumerator, batch_size, clustering, enumeration):
    session = open_session(
        epsilon=1.2,
        cell_width=4.0,
        min_pts=2,
        constraints=PatternConstraints(m=2, k=3, l=2, g=1),
        enumerator=enumerator,
        clustering_kernel=clustering,
        enumeration_kernel=enumeration,
    )
    with session:
        events = []
        for batch in RecordBatch.pack(records, batch_size):
            events.extend(session.feed_batch(batch))
        events.extend(session.finish())
    return [
        (event.time, event.pattern.key())
        for event in events
        if isinstance(event, PatternConfirmed)
    ]


def check_session_stream(seed, enumerator, batch_size):
    records = record_stream(seed)
    streams = {
        (clustering, enumeration): confirmed(
            records, enumerator, batch_size, clustering, enumeration
        )
        for clustering in ("python", "numpy")
        for enumeration in ("python", "numpy")
    }
    expected = streams[("python", "python")]
    for pair, stream in streams.items():
        assert stream == expected, pair


#: name -> (strategy, check)
PROPERTIES = {
    "pair sets": (snapshots, check_pair_sets),
    "partitions": (partition_cases, check_partitions),
    "session stream": (session_cases, check_session_stream),
}


def run_property(name, examples=EXAMPLES, **extra):
    strategy, check = PROPERTIES[name]

    @settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=list(HealthCheck),
        **extra,
    )
    @given(strategy())
    def prop(case):
        check(*case)

    prop()


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_differential_property(name):
    run_property(name)


def test_session_stream_has_patterns():
    """The session property's streams are not vacuously equal."""
    assert any(
        confirmed(record_stream(seed), "fba", 16, "numpy", "numpy")
        for seed in range(5)
    )


def test_cluster_maximum_is_an_anchor_without_members():
    members = np.array([3, 5, 9, 1, 2], dtype=np.int64)
    bounds = np.array([0, 3, 5], dtype=np.int64)
    batch = partition.partition_batch(4, members, bounds, significance=3)
    assert list(batch.rows()) == [
        (4, 3, frozenset({5, 9})),
        (4, 5, frozenset({9})),
        (4, 9, frozenset()),
    ]


@pytest.mark.parametrize("oid", [2**31, -1])
def test_unpackable_ids_leave_as_records(oid):
    """Ids a key cannot hold: the stage emits the reference records, and
    only the numpy enumeration kernel refuses them."""
    kernel = NumpyKernel(1.0, 2)
    stage = KernelClusterOperator(kernel, significance=2)
    stage.process_batch(SnapshotBatch(3, [oid, 5, 50], [0.0, 0.5, 9.0], [0.0] * 3))
    records = stage.end_batch(3)
    assert records == [(3, min(oid, 5), frozenset({max(oid, 5)})),
                       (3, max(oid, 5), frozenset())]
    with pytest.raises(ValueError, match="31 bits"):
        PartitionBatch.from_pairs(3, [(a, m) for _t, a, m in records])


# ------------------------------------------------------------------- mutants

#: Seeded defects: the module whose source is broken, its ``(line,
#: broken line)`` replacements, where the broken definition is installed
#: (owner, attribute, attribute of the mutant module to take), and the
#: properties that must each catch it.
MUTANTS = {
    "next-column range missing cy - 1": (
        numpy_kernel,
        [(
            "next_start = np.searchsorted(ranked, ranked + (stride - 1))",
            "next_start = np.searchsorted(ranked, ranked + stride)",
        )],
        (NumpyKernel, "_pair_indices", "NumpyKernel._pair_indices"),
        ("pair sets",),
    ),
    "Lemma 3 with > instead of >=": (
        partition,
        [("np.repeat(sizes >= significance, sizes)",
          "np.repeat(sizes > significance, sizes)")],
        (operators, "partition_batch", "partition_batch"),
        ("partitions",),
    ),
    "cluster maxima dropped from anchors": (
        partition,
        [("return PartitionBatch(time, anchors, keys)",
          "return PartitionBatch(time, anchors[counts > 0], keys)")],
        (operators, "partition_batch", "partition_batch"),
        ("partitions",),
    ),
}


def mutant_module(module, replacements):
    source = Path(module.__file__).read_text()
    for old, new in replacements:
        assert old in source, f"mutant anchor moved: {old!r}"
        source = source.replace(old, new)
    mutant = types.ModuleType(f"{module.__name__}_mutant")
    exec(compile(source, mutant.__name__, "exec"), mutant.__dict__)
    return mutant


@pytest.mark.parametrize("defect", sorted(MUTANTS))
def test_seeded_defect_is_caught(defect):
    module, replacements, (owner, attribute, path), catchers = MUTANTS[defect]
    broken = mutant_module(module, replacements)
    for name in path.split("."):
        broken = getattr(broken, name)
    for catcher in catchers:
        with mock.patch.object(owner, attribute, broken), pytest.raises(
            AssertionError
        ):
            run_property(
                catcher,
                examples=300,
                derandomize=True,
                database=None,
                phases=[Phase.generate],
                report_multiple_bugs=False,
            )
