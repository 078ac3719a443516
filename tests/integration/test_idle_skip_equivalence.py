"""The enumerate stage's idle-skip optimisation must be invisible.

The reference enumeration kernel skips the absence tick for anchors
whose enumerator reports `is_idle()`.  This property test drives the
enumerate stage's operator hosting that kernel against the naive
always-tick harness on random cluster streams and asserts identical
pattern sets for all three engines.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import BatchedEnumerateOperator
from repro.enumeration.base import PatternCollector
from repro.enumeration.baseline import BAEnumerator
from repro.enumeration.fba import FBAEnumerator
from repro.enumeration.kernels import PythonEnumerationKernel
from repro.enumeration.partition import id_partitions
from repro.enumeration.vba import VBAEnumerator
from repro.model.constraints import PatternConstraints
from tests.conftest import random_cluster_stream, run_enumerator

FACTORIES = {
    "BA": BAEnumerator,
    "FBA": FBAEnumerator,
    "VBA": VBAEnumerator,
}


def run_operator_with_skip(snapshots, constraints, kind):
    """Drive the reference kernel (idle-skip path) over partition records."""
    operator = BatchedEnumerateOperator(
        PythonEnumerationKernel(
            lambda anchor: FACTORIES[kind](anchor, constraints)
        )
    )
    collector = PatternCollector()
    for snapshot in snapshots:
        partitions = id_partitions(snapshot, constraints.m)
        for anchor, members in sorted(partitions.items()):
            collector.offer(
                snapshot.time,
                list(operator.process((snapshot.time, anchor, members))),
            )
        collector.offer(snapshot.time, list(operator.end_batch(snapshot.time)))
    final = snapshots[-1].time if snapshots else 0
    collector.offer(final, list(operator.finish()))
    return collector


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_idle_skip_equals_always_tick(seed):
    rng = random.Random(seed)
    constraints = PatternConstraints(
        m=rng.randint(2, 3),
        k=rng.randint(2, 5),
        l=rng.randint(1, 2),
        g=rng.randint(1, 3),
    )
    if constraints.k < constraints.l:
        return
    snapshots = random_cluster_stream(rng, rng.randint(3, 6), rng.randint(4, 12))
    for kind in ("BA", "FBA", "VBA"):
        with_skip = run_operator_with_skip(snapshots, constraints, kind)
        always_tick = run_enumerator(snapshots, constraints, kind)
        assert with_skip.object_sets() == always_tick.object_sets(), kind
