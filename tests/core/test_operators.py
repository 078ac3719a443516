"""ICPE operator unit tests."""

from repro.core.config import ICPEConfig
from repro.core.icpe import icpe_stages
from repro.core.operators import (
    AllocateOperator,
    BatchedEnumerateOperator,
    ClusterOperator,
    QueryOperator,
)
from repro.enumeration.baseline import BAEnumerator
from repro.enumeration.fba import FBAEnumerator
from repro.enumeration.kernels import PythonEnumerationKernel
from repro.enumeration.vba import VBAEnumerator
from repro.join.query import CellJoiner
from repro.model.constraints import PatternConstraints

CONSTRAINTS = PatternConstraints(m=2, k=2, l=1, g=1)


class TestAllocateOperator:
    def test_emits_data_and_query_objects(self):
        op = AllocateOperator(cell_width=2.0, epsilon=3.0)
        objects = list(op.process((1, 5.0, 5.0)))
        assert objects[0].is_data
        assert all(go.is_query for go in objects[1:])
        assert len(objects) > 1


class TestQueryOperator:
    def test_buffers_then_joins_on_batch_end(self):
        op = QueryOperator(CellJoiner(epsilon=2.0))
        for element in AllocateOperator(4.0, 2.0).process((1, 0.0, 0.0)):
            assert list(op.process(element)) == []
        for element in AllocateOperator(4.0, 2.0).process((2, 1.0, 0.0)):
            op.process(element)
        pairs = list(op.end_batch(1))
        assert (1, 2) in pairs
        # Buffers cleared: a second trigger yields nothing.
        assert list(op.end_batch(2)) == []


class TestClusterOperator:
    def test_forms_partitions(self):
        op = ClusterOperator(min_pts=2, significance=2)
        for pair in [(1, 2), (2, 3), (1, 3)]:
            op.process(pair)
        partitions = list(op.end_batch(5))
        assert (5, 1, frozenset({2, 3})) in partitions
        assert op.last_cluster_snapshot.time == 5
        assert op.clusters_formed == 1
        assert op.cluster_size_sum == 3

    def test_significance_filter(self):
        op = ClusterOperator(min_pts=2, significance=3)
        op.process((1, 2))
        assert list(op.end_batch(1)) == []


def python_enumerate_operator(factory) -> BatchedEnumerateOperator:
    """The enumerate stage's operator hosting the reference kernel."""
    return BatchedEnumerateOperator(PythonEnumerationKernel(factory))


class TestEnumerateOperator:
    def test_creates_enumerators_per_anchor(self):
        factory = lambda anchor: FBAEnumerator(anchor, CONSTRAINTS)
        op = python_enumerate_operator(factory)
        op.process((1, 1, frozenset({2})))
        op.process((1, 5, frozenset({6})))
        op.end_batch(1)
        assert set(op.kernel._enumerators) == {1, 5}

    def test_absence_tick_reaches_stateful_anchors(self):
        factory = lambda anchor: VBAEnumerator(anchor, CONSTRAINTS)
        op = python_enumerate_operator(factory)
        op.process((1, 1, frozenset({2})))
        op.end_batch(1)
        op.process((2, 1, frozenset({2})))
        op.end_batch(2)
        # Times 3-4 without the pair: ticks close the string (G+1 = 2).
        emitted = list(op.end_batch(3)) + list(op.end_batch(4))
        assert any(p.objects == (1, 2) for p in emitted)

    def test_finish_flushes_all(self):
        factory = lambda anchor: FBAEnumerator(anchor, CONSTRAINTS)
        op = python_enumerate_operator(factory)
        emitted = []
        emitted += list(op.process((1, 1, frozenset({2}))))
        emitted += list(op.end_batch(1))
        # The eta=2 window for t=1 completes at the t=2 trigger; a
        # second, still-open window for t=2 is flushed by finish().
        emitted += list(op.process((2, 1, frozenset({2}))))
        emitted += list(op.end_batch(2))
        mid_stream = [p.objects for p in emitted]
        emitted += list(op.finish())
        assert (1, 2) in mid_stream
        assert any(p.objects == (1, 2) for p in emitted)


class TestEnumeratorFactory:
    def test_kinds(self):
        base = dict(
            epsilon=1.0, cell_width=3.0, min_pts=2, constraints=CONSTRAINTS
        )
        for name, kind in (
            ("baseline", BAEnumerator),
            ("fba", FBAEnumerator),
            ("vba", VBAEnumerator),
        ):
            stage = icpe_stages(ICPEConfig(**base, enumerator=name))[-1]
            kernel = stage.operator_factory().kernel
            assert isinstance(kernel, PythonEnumerationKernel)
            assert isinstance(kernel._factory(1), kind)
