"""GR-index range join: the Lemma 1/2 correctness properties.

The central contracts: (i) with any combination of the lemmas, the join
equals the brute-force reference (no result missed — Lemma 1 and Lemma 2's
claims); (ii) with both lemmas enabled, no duplicate pair is ever emitted
(RJC needs no dedup pass); (iii) disabling the lemmas produces duplicates
(the SRJ cost being avoided).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.join.pairs import brute_force_join, normalize_pair
from repro.join.range_join import GRRangeJoin, RangeJoinConfig, rj_with_defaults
from repro.join.srj import SRJRangeJoin

point_lists = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=200, allow_nan=False),
        st.floats(min_value=0, max_value=200, allow_nan=False),
    ),
    max_size=60,
).map(lambda pts: [(i, x, y) for i, (x, y) in enumerate(pts)])


class TestNormalizePair:
    def test_orders(self):
        assert normalize_pair(5, 3) == (3, 5)
        assert normalize_pair(3, 5) == (3, 5)


class TestBruteForce:
    def test_paper_fig2_time1(self):
        """RJ at time 1 of Fig. 2: {(o1,o2), (o3,o4), (o5,o6), (o6,o7)}.

        Coordinates chosen to realise the figure's adjacency under L1
        distance with epsilon = 2.
        """
        points = [
            (1, 0.0, 0.0), (2, 1.0, 0.5),
            (3, 10.0, 0.0), (4, 11.0, 0.5),
            (5, 20.0, 0.0), (6, 21.0, 0.5), (7, 22.0, 0.0),
            (8, 40.0, 40.0),
        ]
        result = brute_force_join(points, epsilon=2.0)
        assert result == {(1, 2), (3, 4), (5, 6), (6, 7), (5, 7)} or result == {
            (1, 2), (3, 4), (5, 6), (6, 7)
        }

    def test_empty(self):
        assert brute_force_join([], 1.0) == set()


class TestEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        point_lists,
        st.floats(min_value=0.1, max_value=30),
        st.floats(min_value=0.5, max_value=50),
        st.booleans(),
        st.booleans(),
    )
    def test_equals_brute_force(self, points, eps, lg, lemma1, lemma2):
        config = RangeJoinConfig(
            cell_width=lg, epsilon=eps, lemma1=lemma1, lemma2=lemma2
        )
        assert GRRangeJoin(config).join(points) == brute_force_join(points, eps)

    @settings(max_examples=60, deadline=None)
    @given(point_lists, st.floats(min_value=0.1, max_value=30),
           st.floats(min_value=0.5, max_value=50))
    def test_linear_local_index_equivalent(self, points, eps, lg):
        config = RangeJoinConfig(
            cell_width=lg, epsilon=eps, local_index="linear"
        )
        assert GRRangeJoin(config).join(points) == brute_force_join(points, eps)

    def test_grid_aligned_points(self):
        """Points exactly on cell boundaries (the floor-edge case)."""
        points = [(i, float(x), float(y)) for i, (x, y) in enumerate(
            [(0, 0), (3, 0), (0, 3), (3, 3), (6, 6), (6, 3)]
        )]
        for lg in (1.0, 3.0, 6.0):
            config = RangeJoinConfig(cell_width=lg, epsilon=3.0)
            assert GRRangeJoin(config).join(points) == brute_force_join(
                points, 3.0
            )

    def test_coincident_points(self):
        points = [(i, 5.0, 5.0) for i in range(6)]
        config = RangeJoinConfig(cell_width=2.0, epsilon=1.0)
        result = GRRangeJoin(config).join(points)
        assert len(result) == 15  # all C(6,2) pairs

    def test_equal_y_cross_cell_pairs(self):
        """The tie-break case Lemma 1 alone would double-count."""
        points = [(1, 0.9, 5.0), (2, 1.1, 5.0), (3, 3.1, 5.0)]
        config = RangeJoinConfig(cell_width=1.0, epsilon=2.5)
        join = GRRangeJoin(config)
        result = join.join(points)
        assert result == {(1, 2), (2, 3), (1, 3)}
        assert join.last_stats.emitted_pairs == join.last_stats.result_pairs


class TestDuplicateFreedom:
    @settings(max_examples=60, deadline=None)
    @given(point_lists, st.floats(min_value=0.1, max_value=30),
           st.floats(min_value=0.5, max_value=50))
    def test_lemmas_make_output_duplicate_free(self, points, eps, lg):
        join = GRRangeJoin(RangeJoinConfig(cell_width=lg, epsilon=eps))
        join.join(points)
        stats = join.last_stats
        assert stats.emitted_pairs == stats.result_pairs
        assert stats.duplicate_ratio == 0.0

    def test_disabled_lemmas_produce_duplicates(self):
        rng = random.Random(4)
        points = [
            (i, rng.uniform(0, 20), rng.uniform(0, 20)) for i in range(80)
        ]
        join = SRJRangeJoin(cell_width=3.0, epsilon=4.0)
        result = join.join(points)
        stats = join.last_stats
        assert result == brute_force_join(points, 4.0)
        assert stats.emitted_pairs > stats.result_pairs
        assert stats.duplicate_ratio > 0.3


class TestStats:
    def test_replication_counted(self):
        points = [(1, 5.0, 5.0), (2, 6.0, 5.0)]
        join = GRRangeJoin(RangeJoinConfig(cell_width=2.0, epsilon=3.0))
        join.join(points)
        stats = join.last_stats
        assert stats.locations == 2
        assert stats.grid_objects > 2  # replicated query objects
        assert stats.occupied_cells >= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RangeJoinConfig(cell_width=0, epsilon=1)
        with pytest.raises(ValueError):
            RangeJoinConfig(cell_width=1, epsilon=-1)
        with pytest.raises(ValueError, match="rtree_fanout must be >= 4"):
            RangeJoinConfig(cell_width=1, epsilon=1, rtree_fanout=3)

    def test_rj_with_defaults(self):
        points = [(1, 0.0, 0.0), (2, 0.5, 0.5), (3, 50.0, 50.0)]
        assert rj_with_defaults(points, epsilon=2.0) == {(1, 2)}
