"""Session API tests: events, sinks, open_session, lifecycle, results."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.core.config import ICPEConfig
from repro.model.constraints import PatternConstraints
from repro.model.records import StreamRecord
from repro.session import (
    CallbackSink,
    ConvoyDelta,
    JsonlSink,
    ListSink,
    PatternConfirmed,
    Session,
    WatermarkAdvanced,
    as_sink,
    event_to_dict,
    open_session,
)

CONSTRAINTS = PatternConstraints(m=3, k=4, l=2, g=2)


def make_config(**overrides) -> ICPEConfig:
    defaults = dict(
        epsilon=1.0, cell_width=4.0, min_pts=3, constraints=CONSTRAINTS
    )
    defaults.update(overrides)
    return ICPEConfig(**defaults)


def make_records(horizon: int = 12, group: int = 4, noise: int = 2):
    """A tight group plus far-away noise walkers, in arrival order."""
    rng = random.Random(9)
    records, last = [], {}
    for t in range(1, horizon + 1):
        for oid in range(group):
            records.append(
                StreamRecord(
                    oid,
                    1.0 * t + rng.uniform(-0.1, 0.1),
                    0.1 * oid,
                    t,
                    last.get(oid),
                )
            )
            last[oid] = t
        for n in range(noise):
            oid = 100 + n
            records.append(
                StreamRecord(
                    oid, 500.0 + 100.0 * n + 3.0 * t, 900.0, t, last.get(oid)
                )
            )
            last[oid] = t
    return records


@pytest.fixture
def records():
    return make_records()


class TestLifecycle:
    def test_feed_and_finish_return_events(self, records):
        session = Session(make_config())
        events = session.feed_many(records)
        events += session.finish()
        kinds = {type(event) for event in events}
        assert WatermarkAdvanced in kinds
        assert PatternConfirmed in kinds
        assert session.finished
        session.close()
        assert session.closed

    def test_finish_is_idempotent(self, records):
        session = Session(make_config())
        session.feed_many(records)
        session.finish()
        assert session.finish() == []
        session.close()

    def test_feed_after_finish_raises(self, records):
        session = Session(make_config())
        session.feed_many(records)
        session.finish()
        with pytest.raises(RuntimeError, match="finished"):
            session.feed(records[0])
        session.close()

    def test_feed_after_close_raises(self):
        session = Session(make_config())
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.feed(make_records()[0])

    def test_context_manager_flushes_on_clean_exit(self, records):
        with Session(make_config()) as session:
            session.feed_many(records)
        assert session.finished
        assert session.closed
        assert session.patterns  # flush produced the bounded-window patterns

    def test_close_inside_with_block_is_clean(self, records):
        """An early close() inside the block must not make __exit__ raise."""
        with Session(make_config()) as session:
            session.feed_many(records[:6])
            session.close()
        assert session.closed
        assert not session.finished  # nothing left to flush once closed

    def test_finish_retryable_after_flush_error(self, records):
        """An error mid-flush leaves the session unfinished (retryable)."""
        session = Session(make_config())
        session.feed_many(records)

        class Boom(Exception):
            pass

        original = session.pipeline.finish
        calls = {"n": 0}

        def failing_finish():
            if calls["n"] == 0:
                calls["n"] += 1
                raise Boom()
            return original()

        session.pipeline.finish = failing_finish
        with pytest.raises(Boom):
            session.finish()
        assert not session.finished
        session.finish()  # retry completes the flush
        assert session.finished
        assert session.patterns
        session.close()

    def test_context_manager_no_flush_on_error(self, records):
        with pytest.raises(RuntimeError, match="boom"):
            with Session(make_config()) as session:
                session.feed_many(records[:6])
                raise RuntimeError("boom")
        assert not session.finished
        assert session.closed

    def test_stream_generator_covers_flush(self, records):
        with Session(make_config()) as session:
            events = list(session.stream(records))
        assert session.finished
        confirmed = [e for e in events if isinstance(e, PatternConfirmed)]
        assert {e.pattern.objects for e in confirmed} == {
            p.objects for p in session.patterns
        }


class TestEvents:
    def test_watermark_per_snapshot_ascending(self, records):
        with Session(make_config()) as session:
            events = list(session.stream(records))
        watermarks = [e for e in events if isinstance(e, WatermarkAdvanced)]
        times = [w.time for w in watermarks]
        assert times == sorted(times)
        assert watermarks[-1].snapshots_processed == len(watermarks)
        assert watermarks[-1].patterns_total == len(session.patterns)

    def test_pattern_events_match_patterns(self, records):
        with Session(make_config()) as session:
            events = list(session.stream(records))
        confirmed = [e.pattern for e in events if isinstance(e, PatternConfirmed)]
        assert confirmed == session.patterns

    def test_event_to_dict_shapes(self, records):
        with Session(make_config(), track_convoys=True) as session:
            events = list(session.stream(records))
        for event in events:
            payload = event_to_dict(event)
            assert payload["kind"] in ("pattern", "convoy", "watermark")
            assert isinstance(payload["time"], int)
            json.dumps(payload)  # JSON-serialisable


class TestConvoyTracking:
    def test_delta_events_emitted(self, records):
        with Session(make_config(), track_convoys=True) as session:
            events = list(session.stream(records))
        deltas = [e for e in events if isinstance(e, ConvoyDelta)]
        assert deltas, "a persistent group must surface as a convoy"
        first = deltas[0]
        assert any(
            frozenset(range(4)) <= members for members in first.formed
        )
        final = deltas[-1]
        assert final.active == 0  # stream end dissolves the live view
        assert final.ended, "the group convoy must be reported at flush"

    def test_active_convoys_requires_tracking(self, records):
        session = Session(make_config())
        with pytest.raises(RuntimeError, match="track_convoys"):
            session.active_convoys
        session.close()

    def test_active_convoys_live_view(self, records):
        session = Session(make_config(), track_convoys=True)
        session.feed_many(records)
        active = session.active_convoys
        assert any(
            frozenset(range(4)) <= candidate.members for candidate in active
        )
        session.close()


class TestSinks:
    def test_list_sink_collects_everything(self, records):
        sink = ListSink()
        with Session(make_config(), sinks=[sink]) as session:
            events = list(session.stream(records))
        assert sink.events == events
        assert sink.patterns == session.patterns

    def test_callback_sink_and_bare_callable(self, records):
        seen = []
        session = Session(make_config())
        returned = session.subscribe(seen.append)
        assert isinstance(returned, CallbackSink)
        session.feed_many(records[:12])
        assert seen
        session.close()

    def test_jsonl_sink_path_owns_file(self, tmp_path, records):
        path = tmp_path / "events.jsonl"
        with Session(
            make_config(), sinks=[JsonlSink(str(path))]
        ) as session:
            session.feed_many(records)
        lines = path.read_text().splitlines()
        assert lines
        payloads = [json.loads(line) for line in lines]
        assert {p["kind"] for p in payloads} >= {"watermark", "pattern"}

    def test_jsonl_sink_borrowed_handle_left_open(self, records):
        import io

        buffer = io.StringIO()
        sink = JsonlSink(buffer)
        with Session(make_config(), sinks=[sink]) as session:
            session.feed_many(records[:6])
        assert not buffer.closed  # borrowed handles stay open
        with pytest.raises(RuntimeError, match="closed"):
            sink.on_event(WatermarkAdvanced(1, 1, 0))

    def test_as_sink_rejects_non_callable(self):
        with pytest.raises(TypeError, match="PatternSink or callable"):
            as_sink(42)


class TestOpenSession:
    def test_kwargs_form(self, records):
        with open_session(
            epsilon=1.0,
            cell_width=4.0,
            min_pts=3,
            constraints=CONSTRAINTS,
            enumerator="vba",
            backend="serial",
            clustering_kernel="python",
            enumeration_kernel="python",
            max_delay=2,
        ) as session:
            assert session.config.enumerator == "vba"
            assert session.config.max_delay == 2
            session.feed_many(records)
        assert session.patterns

    def test_missing_required_fields_name_them(self):
        with pytest.raises(TypeError, match="cell_width.*min_pts.*constraints"):
            open_session(epsilon=1.0)

    def test_config_with_overrides(self):
        base = make_config()
        session = open_session(base, enumerator="vba")
        assert session.config.enumerator == "vba"
        assert session.config.epsilon == base.epsilon
        session.close()
        session = open_session(base)
        assert session.config is base
        session.close()

    def test_fields_form_builds_the_config_form(self):
        base = make_config(enumerator="vba", max_delay=2)
        fields = {
            f.name: getattr(base, f.name)
            for f in dataclasses.fields(base)
            if f.init
        }
        with open_session(**fields) as session:
            assert session.config == base

    def test_restore_seeds_config_and_takes_overrides(self, records):
        session = open_session(make_config())
        session.feed_many(records[: len(records) // 2])
        checkpoint = session.checkpoint()
        session.close()
        with open_session(restore=checkpoint) as resumed:
            assert resumed.config == checkpoint.config
        with open_session(
            restore=checkpoint, query_parallelism=2
        ) as resumed:
            assert resumed.config.query_parallelism == 2
            assert resumed.config.epsilon == checkpoint.config.epsilon
            resumed.feed_many(records[len(records) // 2 :])
        assert resumed.patterns

    def test_backend_override_keeps_pool_size(self):
        # One subtask per stage: the process session spawns no worker.
        base = make_config(
            parallel_workers=8,
            allocate_parallelism=1,
            query_parallelism=1,
            enumerate_parallelism=1,
        )
        with open_session(base, backend="process") as session:
            assert session.config.parallel_workers == 8  # not reset to None
            assert session.pipeline.backend_name == "process"
        with open_session(
            base, backend="process", parallel_workers=2
        ) as session:
            assert session.config.parallel_workers == 2

    @pytest.mark.parametrize("enumerator", ["baseline", "fba", "vba"])
    def test_strategies_are_built_by_name(self, enumerator):
        """Each shed policy and pattern family is built from its name
        with the config's knobs; ``evolving`` runs with any enumerator,
        ``predictive`` with the forming-state ones."""
        from repro.patterns import EvolvingGroupTracker, PredictiveFamily

        config = make_config(enumerator=enumerator)
        for policy in ("none", "random", "pattern_aware"):
            with open_session(config, shed_policy=policy) as session:
                assert session.shed_policy.name == policy
                assert session.pattern_family is None
        with open_session(
            config, pattern_family="evolving", evolving_theta=0.7
        ) as session:
            assert isinstance(session.pattern_family, EvolvingGroupTracker)
            assert session.pattern_family.theta == 0.7
        if enumerator != "baseline":
            with open_session(
                config,
                pattern_family="predictive",
                prediction_min_probability=0.4,
            ) as session:
                assert isinstance(session.pattern_family, PredictiveFamily)
                assert session.pattern_family.min_probability == 0.4

    def test_invalid_plugin_fails_at_open(self):
        with pytest.raises(ValueError, match="unknown backend"):
            open_session(make_config(), backend="quantum")
        with pytest.raises(ValueError, match="quantum"):
            open_session(make_config(), clustering_kernel="quantum")

    def test_sinks_and_tracking(self, records):
        sink = ListSink()
        with open_session(
            make_config(), track_convoys=True, sinks=[sink]
        ) as session:
            session.feed_many(records)
        assert any(isinstance(e, ConvoyDelta) for e in sink.events)


class TestResult:
    def test_result_summary(self, records):
        with open_session(make_config(), track_convoys=True) as session:
            session.feed_many(records)
        result = session.result()
        assert result.patterns == tuple(session.patterns)
        assert result.snapshots == session.meter.snapshots
        assert result.backend == "serial"
        assert result.clustering_kernel == "python"
        assert result.enumeration_kernel == "python"
        assert result.enumerator == "fba"
        assert result.events["pattern"] == len(result.patterns)
        assert result.events["watermark"] == result.snapshots
        summary = result.summary()
        assert set(summary) == {
            "patterns", "snapshots", "avg_latency_ms", "throughput_tps"
        }

    def test_store_queryable(self, records):
        with open_session(make_config()) as session:
            session.feed_many(records)
        store = session.store()
        assert len(list(store)) == len(session.patterns)
