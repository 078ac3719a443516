"""Cluster metrics parity: the process backend reports like serial.

The cluster stage has one subtask, which the process backend runs in
the master, so the live cluster operator is the master-side one.  Every
metrics surface must agree with a serial run of the same stream, both
mid-stream and after ``finish()`` (when the workers are already gone).
"""

from __future__ import annotations

import pytest

from repro import open_session

from tests.state.conftest import BASE_KNOBS, cluster_stream

pytestmark = pytest.mark.checkpoint


class TestProcessMetricsParity:
    @pytest.fixture(scope="class")
    def runs(self):
        records = cluster_stream(seed=29, n_times=7, n_objects=6)
        probes = {}
        for backend in ("serial", "process"):
            session = open_session(
                backend=backend,
                parallel_workers=2 if backend == "process" else None,
                **BASE_KNOBS,
            )
            for record in records:
                session.feed(record)
            mid = dict(
                avg=session.pipeline.average_cluster_size(),
                formed=session.pipeline.clusters_formed,
                snapshot=session.pipeline.last_cluster_snapshot,
            )
            session.finish()
            final = dict(
                avg=session.pipeline.average_cluster_size(),
                formed=session.pipeline.clusters_formed,
                snapshot=session.pipeline.last_cluster_snapshot,
            )
            session.close()
            probes[backend] = (mid, final)
        return probes

    def test_average_cluster_size_matches(self, runs):
        serial, process = runs["serial"], runs["process"]
        assert process[0]["avg"] == serial[0]["avg"] > 0.0
        assert process[1]["avg"] == serial[1]["avg"] > 0.0

    def test_clusters_formed_matches(self, runs):
        serial, process = runs["serial"], runs["process"]
        assert process[0]["formed"] == serial[0]["formed"] > 0
        assert process[1]["formed"] == serial[1]["formed"]

    def test_last_cluster_snapshot_ships_through_protocol(self, runs):
        serial, process = runs["serial"], runs["process"]
        for stage in (0, 1):
            ours, theirs = process[stage]["snapshot"], serial[stage]["snapshot"]
            assert ours is not None
            assert ours.time == theirs.time
            assert ours.clusters == theirs.clusters
