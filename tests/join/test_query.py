"""CellJoiner (Algorithm 2 / Lemma 2) unit tests."""

import pytest

from repro.index.gridobject import GridObject
from repro.join.query import CellJoiner


def data(oid, x, y, key=(0, 0)):
    return GridObject(key=key, is_query=False, oid=oid, x=x, y=y)


def query(oid, x, y, key=(0, 0)):
    return GridObject(key=key, is_query=True, oid=oid, x=x, y=y)


class TestIntraCell:
    def test_each_pair_once_with_lemma2(self):
        joiner = CellJoiner(epsilon=2.0)
        objects = [data(1, 0, 0), data(2, 1, 0), data(3, 0.5, 0.5)]
        pairs = list(joiner.join(objects))
        assert sorted(pairs) == [(1, 2), (1, 3), (2, 3)]
        assert len(pairs) == len(set(pairs))

    def test_build_then_query_duplicates(self):
        joiner = CellJoiner(epsilon=2.0, lemma2=False)
        objects = [data(1, 0, 0), data(2, 1, 0)]
        pairs = list(joiner.join(objects))
        assert pairs == [(1, 2), (1, 2)]  # found from both endpoints

    def test_distance_filter_exact(self):
        joiner = CellJoiner(epsilon=1.0)
        # L1 distance 1.0 exactly -> included; 1.01 -> excluded.
        assert list(joiner.join([data(1, 0, 0), data(2, 0.5, 0.5)])) == [(1, 2)]
        assert list(joiner.join([data(1, 0, 0), data(2, 0.5, 0.51)])) == []


class TestCrossCell:
    def test_query_object_probes_data(self):
        joiner = CellJoiner(epsilon=2.0)
        objects = [data(1, 0, 1), query(2, 0, 0.5)]
        # query oid=2 sits below oid=1: (1, 0, 1) has larger y -> accepted.
        assert list(joiner.join(objects)) == [(1, 2)]

    def test_tie_break_rejects_lower(self):
        joiner = CellJoiner(epsilon=2.0)
        objects = [data(1, 0, 1), query(2, 0, 1.5)]
        # target y (1.0) < prober y (1.5): the symmetric probe from the
        # other side is responsible for this pair.
        assert list(joiner.join(objects)) == []

    def test_without_lemma1_no_tie_break(self):
        joiner = CellJoiner(epsilon=2.0, lemma1=False)
        objects = [data(1, 0, 1), query(2, 0, 1.5)]
        assert list(joiner.join(objects)) == [(1, 2)]


class TestConfig:
    def test_unknown_local_index(self):
        with pytest.raises(ValueError, match="local index"):
            CellJoiner(epsilon=1.0, local_index="kdtree")

    def test_negative_epsilon(self):
        with pytest.raises(ValueError):
            CellJoiner(epsilon=-0.5)

    def test_rtree_fanout_below_four(self):
        with pytest.raises(ValueError, match="rtree_fanout must be >= 4"):
            CellJoiner(epsilon=1.0, rtree_fanout=3)

    def test_linear_index_same_result(self):
        objects = [data(1, 0, 0), data(2, 1, 0), query(3, 0.5, -0.5)]
        rtree_pairs = sorted(CellJoiner(epsilon=2.0).join(list(objects)))
        linear_pairs = sorted(
            CellJoiner(epsilon=2.0, local_index="linear").join(list(objects))
        )
        assert rtree_pairs == linear_pairs
