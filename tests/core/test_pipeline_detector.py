"""ICPEPipeline and session integration-level unit tests."""

import pytest

from repro.core.config import ICPEConfig
from repro.core.icpe import ICPEPipeline
from repro.model.constraints import PatternConstraints
from repro.model.records import StreamRecord
from repro.model.snapshot import Snapshot
from repro.session import open_session
from repro.streaming.cluster import ClusterModel

CONSTRAINTS = PatternConstraints(m=2, k=3, l=2, g=2)


def config(**overrides):
    defaults = dict(
        epsilon=2.0,
        cell_width=6.0,
        min_pts=2,
        constraints=CONSTRAINTS,
    )
    defaults.update(overrides)
    return ICPEConfig(**defaults)


def pair_snapshots(times, apart=0.5):
    """Objects 1 and 2 close together at the given times; 9 far away."""
    snapshots = []
    for t in times:
        snapshot = Snapshot.from_points(
            t, [(1, 0.0, 0.0), (2, apart, 0.0), (9, 100.0, 100.0)]
        )
        snapshots.append(snapshot)
    return snapshots


class TestPipeline:
    def test_detects_simple_pattern(self):
        pipeline = ICPEPipeline(config())
        collector = pipeline.run(pair_snapshots([1, 2, 3, 4]))
        assert (1, 2) in collector.object_sets()
        assert pipeline.meter.snapshots == 4

    def test_rejects_out_of_order_snapshots(self):
        pipeline = ICPEPipeline(config())
        pipeline.process_snapshot(Snapshot(2))
        with pytest.raises(ValueError, match="ascending"):
            pipeline.process_snapshot(Snapshot(1))

    def test_finish_idempotent(self):
        pipeline = ICPEPipeline(config())
        pipeline.run(pair_snapshots([1, 2, 3]))
        assert pipeline.finish() == []
        with pytest.raises(RuntimeError):
            pipeline.process_snapshot(Snapshot(9))

    def test_average_cluster_size(self):
        pipeline = ICPEPipeline(config())
        pipeline.run(pair_snapshots([1, 2, 3]))
        assert pipeline.average_cluster_size() == pytest.approx(2.0)

    def test_rescore_requires_keep_works(self):
        pipeline = ICPEPipeline(config())
        pipeline.run(pair_snapshots([1, 2, 3]))
        with pytest.raises(RuntimeError):
            pipeline.rescore(ClusterModel(n_nodes=2))

    def test_rescore_changes_model_not_results(self):
        pipeline = ICPEPipeline(config(), keep_works=True)
        pipeline.run(pair_snapshots([1, 2, 3, 4]))
        one = pipeline.rescore(ClusterModel(n_nodes=1, exchange_cost_seconds=0))
        ten = pipeline.rescore(ClusterModel(n_nodes=10, exchange_cost_seconds=0))
        assert one.snapshots == ten.snapshots == 4
        assert ten.average_latency_ms() <= one.average_latency_ms() + 1e-9

    @pytest.mark.parametrize("enumerator", ["baseline", "fba", "vba"])
    def test_all_enumerators_agree(self, enumerator):
        pipeline = ICPEPipeline(config(enumerator=enumerator))
        collector = pipeline.run(pair_snapshots([1, 2, 3, 5, 6, 7]))
        assert (1, 2) in collector.object_sets()


class TestSession:
    def _records(self, times):
        records = []
        last1 = last2 = None
        for t in times:
            records.append(StreamRecord(1, 0.0, 0.0, t, last1))
            records.append(StreamRecord(2, 0.5, 0.0, t, last2))
            last1 = last2 = t
        return records

    def test_feed_and_finish(self):
        with open_session(config()) as session:
            session.feed_many(self._records([1, 2, 3, 4]))
        assert any(p.objects == (1, 2) for p in session.patterns)

    def test_out_of_order_input(self):
        records = self._records([1, 2, 3, 4])
        # Swap two records across one time unit.
        records[2], records[4] = records[4], records[2]
        with open_session(config(max_delay=2)) as session:
            session.feed_many(records)
        assert any(p.objects == (1, 2) for p in session.patterns)

    def test_meter_exposed(self):
        with open_session(config()) as session:
            session.feed_many(self._records([1, 2, 3]))
        assert session.meter.snapshots == 3
        assert session.meter.average_latency_ms() > 0


class TestPresetsIntegration:
    def test_convoy_preset_on_pipeline(self):
        from repro.core.presets import convoy

        constraints = convoy(m=2, k=3)
        pipeline = ICPEPipeline(config(constraints=constraints))
        # Times 1,2,3 consecutive -> convoy holds; a gap would break it.
        collector = pipeline.run(pair_snapshots([1, 2, 3]))
        assert (1, 2) in collector.object_sets()

    def test_convoy_rejects_gap(self):
        from repro.core.presets import convoy

        constraints = convoy(m=2, k=3)
        pipeline = ICPEPipeline(config(constraints=constraints))
        collector = pipeline.run(pair_snapshots([1, 2, 4, 5]))
        assert (1, 2) not in collector.object_sets()
