"""The central enumeration property: BA == FBA == VBA == the definition.

On arbitrary bounded cluster streams, all three algorithms must report
exactly the object sets the definition oracle (``tests/cp_oracle.py``,
which shares no code with the detector) finds — completeness via Lemma
4's window / Lemma 7's closures; soundness via the (M,K,L,G) checks —
and every emitted witness sequence must genuinely hold.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.enumeration.oracle import enumerate_all_patterns
from repro.model.constraints import PatternConstraints
from repro.model.snapshot import ClusterSnapshot
from repro.model.timeseq import TimeSequence
from tests.conftest import random_cluster_stream, run_enumerator
from tests.cp_oracle import pattern_object_sets, witness_holds

constraint_strategy = st.tuples(
    st.integers(2, 4),   # M
    st.integers(1, 4),   # L
    st.integers(0, 4),   # K - L
    st.integers(1, 3),   # G
).map(lambda t: PatternConstraints(m=t[0], k=t[1] + t[2], l=t[1], g=t[3]))


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.integers(0, 10_000),
    st.integers(3, 7),
    st.integers(3, 14),
    constraint_strategy,
)
def test_all_algorithms_match_oracle(seed, n_objects, horizon, constraints):
    rng = random.Random(seed)
    snapshots = random_cluster_stream(rng, n_objects, horizon)
    clusters = {
        s.time: [tuple(sorted(members)) for members in s.clusters.values()]
        for s in snapshots
    }
    c = constraints
    expected = pattern_object_sets(clusters, c.m, c.k, c.l, c.g)
    for kind in ("BA", "FBA", "VBA"):
        collector = run_enumerator(snapshots, constraints, kind)
        assert collector.object_sets() == expected, kind
        for pattern in collector.patterns():
            assert witness_holds(
                pattern.objects, pattern.times, clusters, c.m, c.k, c.l, c.g
            ), (kind, pattern)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_witness_sequences_valid(seed):
    """Every emitted time sequence satisfies (K, L, G) and closeness."""
    rng = random.Random(seed)
    constraints = PatternConstraints(m=2, k=3, l=2, g=2)
    snapshots = random_cluster_stream(rng, 6, 12)
    for kind in ("BA", "FBA", "VBA"):
        collector = run_enumerator(snapshots, constraints, kind)
        by_time = {s.time: s for s in snapshots}
        for pattern in collector.patterns():
            assert constraints.sequence_valid(pattern.times), kind
            for t in pattern.times:
                snapshot = by_time[t]
                assert any(
                    set(pattern.objects) <= set(members)
                    for members in snapshot.clusters.values()
                ), (kind, pattern)


class TestOracle:
    def test_empty_stream(self):
        constraints = PatternConstraints(m=2, k=2, l=1, g=1)
        assert enumerate_all_patterns([], constraints) == {}

    def test_single_persistent_group(self):
        constraints = PatternConstraints(m=2, k=3, l=1, g=1)
        snapshots = [
            ClusterSnapshot.from_groups(t, [[1, 2, 3]]) for t in range(1, 5)
        ]
        result = enumerate_all_patterns(snapshots, constraints)
        assert set(result) == {
            frozenset({1, 2}),
            frozenset({1, 3}),
            frozenset({2, 3}),
            frozenset({1, 2, 3}),
        }
        for sequences in result.values():
            assert sequences == [TimeSequence([1, 2, 3, 4])]

    def test_cluster_cap(self):
        constraints = PatternConstraints(m=2, k=2, l=1, g=1)
        big = ClusterSnapshot.from_groups(1, [list(range(20))])
        with pytest.raises(ValueError, match="oracle cap"):
            enumerate_all_patterns([big], constraints, max_cluster_size=14)

    def test_sequences_are_maximal(self):
        """Two separate valid stretches yield two maximal sequences."""
        constraints = PatternConstraints(m=2, k=2, l=2, g=1)
        groups = {1: [1, 2], 2: [1, 2], 6: [1, 2], 7: [1, 2]}
        snapshots = [
            ClusterSnapshot.from_groups(t, [groups.get(t, [])])
            for t in range(1, 8)
        ]
        result = enumerate_all_patterns(snapshots, constraints)
        assert result[frozenset({1, 2})] == [
            TimeSequence([1, 2]),
            TimeSequence([6, 7]),
        ]


class TestCrossAlgorithmOnEdgeCases:
    @pytest.mark.parametrize("kind", ["BA", "FBA", "VBA"])
    def test_pattern_at_stream_end_found_via_finish(self, kind):
        """A group that stays valid right up to the final snapshot is only
        confirmable at flush time (window incomplete / string still open)."""
        constraints = PatternConstraints(m=2, k=4, l=2, g=2)
        snapshots = [
            ClusterSnapshot.from_groups(t, [[1, 2]]) for t in range(1, 5)
        ]
        collector = run_enumerator(snapshots, constraints, kind)
        assert collector.object_sets() == {(1, 2)}

    @pytest.mark.parametrize("kind", ["BA", "FBA", "VBA"])
    def test_recurring_pattern_counted_once(self, kind):
        """A pattern valid in two disjoint eras is one object set."""
        constraints = PatternConstraints(m=2, k=2, l=2, g=1)
        times_together = [1, 2, 10, 11]
        snapshots = [
            ClusterSnapshot.from_groups(
                t, [[1, 2]] if t in times_together else []
            )
            for t in range(1, 13)
        ]
        collector = run_enumerator(snapshots, constraints, kind)
        assert collector.object_sets() == {(1, 2)}

    @pytest.mark.parametrize("kind", ["BA", "FBA", "VBA"])
    def test_no_patterns_in_noise(self, kind):
        constraints = PatternConstraints(m=3, k=3, l=2, g=2)
        snapshots = [
            ClusterSnapshot.from_groups(t, [[t % 5, (t + 1) % 5]])
            for t in range(1, 10)
        ]
        collector = run_enumerator(snapshots, constraints, kind)
        assert collector.object_sets() == set()
