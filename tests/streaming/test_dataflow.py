"""Dataflow operators / stage driver tests."""

import pytest

from repro.model.batch import SnapshotBatch
from repro.streaming.dataflow import (
    KeyedStage,
    Operator,
    StageRuntime,
    count_elements,
)
from repro.streaming.runtime import (
    GraphSpec,
    ProcessBackend,
    execute_finish,
    execute_unit,
)


class Doubler(Operator):
    def process(self, element):
        yield element * 2


class Summer(Operator):
    """Stateful sink with batch and finish flushes."""

    def __init__(self):
        self.total = 0

    def process(self, element):
        self.total += element
        return ()

    def end_batch(self, ctx):
        yield ("batch", ctx, self.total)

    def finish(self):
        yield ("final", self.total)


class TestStageRuntime:
    def test_routing_by_key(self):
        stage = KeyedStage(
            "double", Doubler, parallelism=4, key_fn=lambda e: e
        )
        runtime = StageRuntime(stage)
        outputs, work = runtime.run([1, 2, 3, 4], ctx=0)
        assert sorted(outputs) == [2, 4, 6, 8]
        assert work.parallelism == 4
        assert work.elements_in == 4

    def test_same_key_same_subtask(self):
        seen: dict[int, list[int]] = {}

        class Recorder(Operator):
            def open(self, subtask_index, parallelism):
                self.index = subtask_index

            def process(self, element):
                seen.setdefault(element, []).append(self.index)
                return ()

        stage = KeyedStage("rec", Recorder, parallelism=3, key_fn=lambda e: e)
        runtime = StageRuntime(stage)
        runtime.run([7, 7, 7, 9, 9], ctx=0)
        assert len(set(seen[7])) == 1
        assert len(set(seen[9])) == 1

    def test_end_batch_runs_on_all_subtasks(self):
        stage = KeyedStage("sum", Summer, parallelism=2, key_fn=lambda e: e)
        runtime = StageRuntime(stage)
        outputs, _ = runtime.run([1], ctx=42)
        # Both subtasks flush, even the one that received nothing.
        assert len([o for o in outputs if o[0] == "batch"]) == 2

    def test_invalid_parallelism(self):
        with pytest.raises(ValueError):
            KeyedStage("x", Doubler, parallelism=0)

    def test_envelope_splits_into_one_sub_batch_per_destination(self):
        stage = KeyedStage(
            "rows", Doubler, parallelism=3, key_fn=lambda row: row[0]
        )
        runtime = StageRuntime(stage)
        envelope = SnapshotBatch.from_rows(
            1, [1, 2, 3, 4], [0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0]
        )
        buckets = runtime.partition([envelope])
        # At most one envelope lands per subtask, rows route like tuples.
        assert all(len(bucket) <= 1 for bucket in buckets)
        routed = {
            oid: index
            for index, bucket in enumerate(buckets)
            for batch in bucket
            for oid, _x, _y in batch.rows()
        }
        assert routed == {
            row[0]: runtime.route(row) for row in envelope.rows()
        }

    @pytest.mark.parametrize(
        "parallelism, keyed",
        [(3, False), (1, False), (1, True)],
        ids=["unkeyed", "unkeyed-single", "keyed-single"],
    )
    @pytest.mark.parametrize("shape", ["plain", "envelopes", "mixed"])
    def test_unrouted_stages_give_the_routed_buckets(self, parallelism, keyed, shape):
        """Unkeyed and single-subtask stages skip per-element routing;
        the buckets are the ones routing each element would give."""
        first = SnapshotBatch.from_rows(1, [1, 2, 3], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        second = SnapshotBatch.from_rows(1, [7, 8], [5.0, 6.0], [1.0, 1.0])
        plain = [(4, 0.5, 0.5), (5, 1.5, 1.5), (6, 2.5, 2.5)]
        elements = {
            "plain": plain,
            "envelopes": [first, second],
            "mixed": [plain[0], first, plain[1], second, plain[2]],
        }[shape]
        keys_asked = []

        def key_fn(row):
            keys_asked.append(row)
            return row[0]

        stage = KeyedStage(
            "s", Doubler, parallelism=parallelism, key_fn=key_fn if keyed else None
        )
        runtime = StageRuntime(stage)
        buckets = runtime.partition(elements)
        assert keys_asked == []
        # The routed path sends every row to subtask 0 and an envelope
        # whose rows all share a destination travels whole.
        for element in elements:
            rows = element.rows() if isinstance(element, SnapshotBatch) else [element]
            assert {runtime.route(row) for row in rows} == {0}
        assert [len(bucket) for bucket in buckets] == [len(elements)] + [0] * (
            parallelism - 1
        )
        assert all(got is sent for got, sent in zip(buckets[0], elements))

    def test_count_elements_counts_envelope_rows_anywhere(self):
        envelope = SnapshotBatch.from_rows(
            1, [1, 2, 3], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0]
        )
        assert count_elements([envelope]) == 3
        # Mixed units count rows regardless of the envelope's position.
        assert count_elements([(9, 0.0, 0.0), envelope]) == 4
        assert count_elements([envelope, (9, 0.0, 0.0)]) == 4
        assert count_elements([]) == 0

    def test_route_cache_admission_is_capped(self):
        stage = KeyedStage("k", Doubler, parallelism=2, key_fn=lambda e: e)
        runtime = StageRuntime(stage)
        runtime._ROUTE_CACHE_LIMIT = 4
        for element in range(10):
            runtime.route(element)
        assert len(runtime._route_cache) == 4
        # Uncached keys still route consistently with cached ones.
        fresh = StageRuntime(stage)
        assert [runtime.route(e) for e in range(10)] == [
            fresh.route(e) for e in range(10)
        ]


def serial(runtimes):
    """The executor with no worker pool over the runtimes' stages."""
    stages = [runtime.stage for runtime in runtimes]
    return ProcessBackend(GraphSpec(lambda: stages))


class TestDrivers:
    def test_execute_unit_chains_stages(self):
        runtimes = [
            StageRuntime(KeyedStage("a", Doubler, 2, key_fn=lambda e: e)),
            StageRuntime(KeyedStage("b", Doubler, 2, key_fn=lambda e: e)),
        ]
        outputs, works = execute_unit(runtimes, [1, 2], 0, serial(runtimes))
        assert sorted(outputs) == [4, 8]
        assert [w.name for w in works] == ["a", "b"]

    def test_execute_finish_cascades(self):
        runtimes = [
            StageRuntime(KeyedStage("double", Doubler, 1)),
            StageRuntime(KeyedStage("sum", Summer, 1)),
        ]
        backend = serial(runtimes)
        execute_unit(runtimes, [1, 2, 3], 0, backend)
        outputs, _ = execute_finish(runtimes, backend)
        assert ("final", 12) in outputs
