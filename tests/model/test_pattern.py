"""CoMovementPattern value-object tests."""

import pickle
from pathlib import Path

from repro.model.constraints import PatternConstraints
from repro.model.pattern import CoMovementPattern
from repro.model.timeseq import TimeSequence


class TestConstruction:
    def test_of_sorts_and_dedups_objects(self):
        pattern = CoMovementPattern.of([3, 1, 3, 2], [1, 2, 3, 4])
        assert pattern.objects == (1, 2, 3)
        assert pattern.times == TimeSequence([1, 2, 3, 4])

    def test_size_and_duration(self):
        pattern = CoMovementPattern.of([4, 5, 6], [3, 4, 6, 7])
        assert pattern.size == 3
        assert pattern.duration == 4


class TestEqualityAndKeys:
    def test_value_equality(self):
        a = CoMovementPattern.of([1, 2], [1, 2, 3, 4])
        b = CoMovementPattern.of([2, 1], (1, 2, 3, 4))
        assert a == b
        assert a.key() == b.key()
        assert len({a, b}) == 1

    def test_different_times_differ(self):
        a = CoMovementPattern.of([1, 2], [1, 2, 3, 4])
        b = CoMovementPattern.of([1, 2], [2, 3, 4, 5])
        assert a != b


class TestSatisfies:
    def test_paper_example(self):
        """{o4, o5, o6} with T=<3,4,6,7> satisfies CP(3, 4, 2, 2)."""
        constraints = PatternConstraints(m=3, k=4, l=2, g=2)
        pattern = CoMovementPattern.of([4, 5, 6], [3, 4, 6, 7])
        assert pattern.satisfies(constraints)

    def test_too_few_objects(self):
        constraints = PatternConstraints(m=3, k=4, l=2, g=2)
        pattern = CoMovementPattern.of([4, 5], [3, 4, 6, 7])
        assert not pattern.satisfies(constraints)

    def test_str_rendering(self):
        pattern = CoMovementPattern.of([4, 5], [3, 4])
        assert str(pattern) == "{o4, o5} @ T=[3, 4]"


class TestPickling:
    #: Pickled by the dataclass's own ``__getstate__`` (version 2.8.0),
    #: before patterns pickled through ``_rebuild``.
    FIXTURE = Path(__file__).parent / "fixtures" / "patterns_v2_8.pickle"

    def expected(self):
        shared = TimeSequence(range(10, 20))
        return [
            CoMovementPattern.of([4, 5, 6], [3, 4, 6, 7]),
            CoMovementPattern((1, 2, 9), shared),
            CoMovementPattern((1, 2, 9, 11), shared),
            CoMovementPattern.of([7, 3], range(0, 130, 2)),
        ]

    def test_earlier_pickles_still_load(self):
        loaded = pickle.loads(self.FIXTURE.read_bytes())
        assert loaded == self.expected()
        assert all(type(p.objects) is tuple for p in loaded)
        assert loaded[1].times is loaded[2].times  # sharing survives

    def test_round_trip_through_the_trusted_constructor(self):
        patterns = self.expected()
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(patterns, protocol=protocol)
            assert b"_rebuild" in data
            loaded = pickle.loads(data)
            assert loaded == patterns
            assert [hash(p) for p in loaded] == [hash(p) for p in patterns]
            assert loaded[1].times is loaded[2].times

    def test_new_pickles_are_smaller(self):
        old = self.FIXTURE.read_bytes()
        new = pickle.dumps(self.expected(), protocol=pickle.HIGHEST_PROTOCOL)
        assert len(new) < len(old)
