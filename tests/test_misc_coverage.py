"""Coverage of small utilities not exercised elsewhere."""

import pytest

from repro.cluster.gdc import GDCClusterer
from repro.data.dataset import TrajectoryDataset, euclidean_diameter, _human_bytes
from repro.geometry.rect import Rect
from repro.index.grid import cell_bounds
from repro.model.records import StreamRecord
from repro.model.snapshot import Snapshot


class TestGDCStats:
    def test_work_counters_populated(self):
        clusterer = GDCClusterer(epsilon=2.0, min_pts=2)
        snapshot = Snapshot.from_points(
            1, [(1, 0.0, 0.0), (2, 1.0, 0.0), (3, 50.0, 50.0)]
        )
        clusterer.cluster(snapshot)
        stats = clusterer.last_stats
        assert stats.locations == 3
        assert stats.occupied_cells >= 2
        assert stats.candidate_checks >= 1

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            GDCClusterer(epsilon=0, min_pts=2)


class TestDatasetUtilities:
    def test_euclidean_diameter(self):
        records = [
            StreamRecord(1, 0.0, 0.0, 1),
            StreamRecord(2, 3.0, 4.0, 1),
        ]
        assert euclidean_diameter(records) == pytest.approx(5.0)
        assert euclidean_diameter([]) == 0.0

    def test_human_bytes(self):
        assert _human_bytes(512) == "512.0B"
        assert _human_bytes(2048) == "2.0KB"
        assert _human_bytes(3 * 1024 * 1024) == "3.0MB"

    def test_empty_dataset_distance(self):
        assert TrajectoryDataset("empty").max_distance() == 0.0


class TestGridCellBounds:
    def test_bounds_tile_the_plane(self):
        a = cell_bounds((0, 0), 2.0)
        b = cell_bounds((1, 0), 2.0)
        assert a.max_x == b.min_x
        assert a == Rect(0, 0, 2, 2)

    def test_negative_cells(self):
        assert cell_bounds((-1, -1), 3.0) == Rect(-3, -3, 0, 0)


class TestRectRemainder:
    def test_center_distance_l1(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(4, 6, 6, 8)
        assert a.center_distance(b) == abs(1 - 5) + abs(1 - 7)

    def test_margin_of_point(self):
        assert Rect.point(3, 3).margin == 0.0


class TestOperatorDefaults:
    def test_open_and_end_batch_defaults(self):
        from repro.streaming.dataflow import Operator

        class Echo(Operator):
            def process(self, element):
                return [element]

        operator = Echo()
        operator.open(0, 1)  # no-op default
        assert list(operator.end_batch(None)) == []
        assert list(operator.finish()) == []


class TestTimeSequenceRemainder:
    def test_is_consecutive(self):
        from repro.model.timeseq import TimeSequence

        assert TimeSequence([4, 5, 6]).is_consecutive()
        assert not TimeSequence([4, 6]).is_consecutive()
        assert TimeSequence([]).is_consecutive()

    def test_repr(self):
        from repro.model.timeseq import TimeSequence

        assert repr(TimeSequence([1, 2])) == "TimeSequence(1, 2)"
