"""Stable key hashing: the routing function of every keyed exchange."""

from repro.streaming.dataflow import KeyedStage, Operator, StageRuntime
from repro.streaming.hashing import canonical_encode, stable_hash


class KeyCounter(Operator):
    """Stateful per-subtask operator: counts elements per key."""

    def open(self, subtask_index, parallelism):
        self.counts = {}

    def process(self, element):
        self.counts[element] = self.counts.get(element, 0) + 1
        return ()


class TestStableHash:
    def test_known_values(self):
        # CRC32 of the canonical encoding: fixed forever, salt-free.
        # A regression here silently reshuffles every keyed exchange.
        assert stable_hash(7) == 3755447108
        assert stable_hash("cell") == 3730155690
        assert stable_hash((3, 4)) == 388982493
        assert stable_hash(None) == 2091617636
        assert stable_hash(True) == 3227850783
        assert stable_hash(2.5) == 1814260614

    def test_set_order_independent(self):
        assert stable_hash(frozenset({1, 2})) == stable_hash(frozenset({2, 1}))
        assert stable_hash({1, 2}) == stable_hash(frozenset({1, 2}))

    def test_type_tags_distinguish(self):
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(1) != stable_hash(1.0)
        assert stable_hash(True) != stable_hash(1)
        # Lists and tuples deliberately share the sequence tag.
        assert stable_hash((1, 2)) == stable_hash([1, 2])

    def test_length_prefix_prevents_concat_collisions(self):
        assert canonical_encode(("a,", "b")) != canonical_encode(("a", ",b"))
        assert stable_hash(("ab", "c")) != stable_hash(("a", "bc"))

    def test_routing_is_stable_and_in_range(self):
        stage = KeyedStage("s", KeyCounter, parallelism=5, key_fn=lambda e: e)
        runtime = StageRuntime(stage)
        for element in range(100):
            index = runtime.route(element)
            assert 0 <= index < 5
            assert index == stable_hash(element) % 5
