"""Failure injection: the system's defined behaviour under faulty streams."""

import random

import pytest

from repro.core.config import ICPEConfig
from repro.data.corruption import (
    drop_in_transit,
    drop_records,
    duplicate_records,
    jitter_positions,
)
from repro.model.constraints import PatternConstraints
from repro.model.records import StreamRecord
from repro.session import open_session
from repro.streaming.sync import TimeSyncOperator
from tests.integration.test_end_to_end import implanted_stream

CONSTRAINTS = PatternConstraints(m=3, k=4, l=2, g=2)


def config(**overrides):
    defaults = dict(
        epsilon=2.0, cell_width=6.0, min_pts=3, constraints=CONSTRAINTS
    )
    defaults.update(overrides)
    return ICPEConfig(**defaults)


def detect(records, **overrides):
    with open_session(config(**overrides)) as session:
        session.feed_many(records)
    return session


class TestValidation:
    @pytest.mark.parametrize(
        "fn,kwargs",
        [
            (drop_records, dict(fraction=1.0)),
            (drop_in_transit, dict(fraction=-0.1)),
            (duplicate_records, dict(fraction=1.5)),
            (jitter_positions, dict(magnitude=-1)),
        ],
    )
    def test_bad_arguments(self, fn, kwargs):
        with pytest.raises(ValueError):
            fn([], rng=random.Random(0), **kwargs)


class TestDuplicates:
    def test_duplicates_are_idempotent(self):
        """At-least-once delivery must not change the pattern set: a
        duplicate record lands in the same snapshot slot."""
        records = implanted_stream(seed=3)
        clean = detect(records)
        noisy = detect(
            duplicate_records(records, 0.3, random.Random(1)), max_delay=1
        )
        assert {p.objects for p in noisy.patterns} == {
            p.objects for p in clean.patterns
        }


class TestSourceLoss:
    def test_moderate_loss_degrades_gracefully(self):
        """Losing fixes can only shrink the pattern set (fewer co-located
        witnesses), never crash or fabricate objects."""
        records = implanted_stream(seed=5, horizon=14)
        clean = detect(records)
        lossy = detect(drop_records(records, 0.25, random.Random(2)))
        clean_objects = {o for p in clean.patterns for o in p.objects}
        lossy_objects = {o for p in lossy.patterns for o in p.objects}
        assert lossy_objects <= clean_objects
        # Soundness is preserved under loss: witnesses still hold.
        for pattern in lossy.patterns:
            assert pattern.satisfies(CONSTRAINTS)

    def test_total_object_loss(self):
        """A stream with one object yields no patterns and no errors."""
        records = [
            StreamRecord(1, 0.0, 0.0, t, t - 1 if t > 1 else None)
            for t in range(1, 8)
        ]
        session = detect(records)
        assert session.patterns == []


class TestTransitLoss:
    def test_sync_blocks_then_flushes(self):
        """Records whose predecessor is lost in transit stay buffered; the
        end-of-stream flush releases them best-effort."""
        records = [
            StreamRecord(1, 0.0, 0.0, 1, None),
            StreamRecord(1, 0.0, 0.0, 2, 1),
            StreamRecord(1, 0.0, 0.0, 3, 2),
        ]
        sync = TimeSyncOperator(max_delay=0)
        emitted = []
        emitted += sync.feed(records[0])
        # records[1] lost in transit; records[2] references it.
        emitted += sync.feed(records[2])
        assert [s.time for s in emitted] == [1]
        flushed = sync.flush()
        assert [s.time for s in flushed] == [3]

    def test_pipeline_survives_transit_loss(self):
        records = implanted_stream(seed=9, horizon=10)
        lossy = drop_in_transit(records, 0.15, random.Random(3))
        with open_session(config(max_delay=12)) as session:
            session.feed_many(lossy)
        for pattern in session.patterns:
            assert pattern.satisfies(CONSTRAINTS)


class TestJitter:
    def test_small_jitter_harmless(self):
        """Noise well below epsilon keeps group clustering intact."""
        records = implanted_stream(seed=11)
        clean = detect(records)
        noisy = detect(jitter_positions(records, 0.1, random.Random(4)))
        assert {p.objects for p in noisy.patterns} == {
            p.objects for p in clean.patterns
        }

    def test_large_jitter_destroys_clusters(self):
        """Noise far above epsilon disperses every group."""
        records = implanted_stream(seed=13)
        noisy = detect(jitter_positions(records, 50.0, random.Random(5)))
        assert noisy.patterns == []
