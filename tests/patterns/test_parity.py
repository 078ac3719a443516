"""Backend-grid parity for the pattern families.

Families run master-side off state every backend ships identically
(cluster snapshots, forming descriptors, confirmed patterns), so the
full event stream — ``PatternConfirmed``, ``ConvoyDelta``,
``GroupEvolved``, ``PatternForming``, ``WatermarkAdvanced`` — must be
**event-for-event identical** on the serial and shared-nothing
process backends, for both families, on both forming-state
enumerators.
"""

from __future__ import annotations

import pytest

from repro import open_session

from tests.patterns.conftest import BASE_KNOBS, drift_stream, run_session

pytestmark = pytest.mark.patterns


class TestSerialBehaviour:
    def test_evolving_emits_the_membership_swap(self):
        events = run_session(drift_stream(), pattern_family="evolving")
        evolved = [e for e in events if e["kind"] == "evolved"]
        assert evolved, "the drift stream must surface membership churn"
        swap = evolved[0]
        assert swap["time"] == 7
        assert swap["joined"] == [9]
        assert swap["left"] == [4]
        assert sorted(swap["members"]) == [0, 1, 2, 3, 9]

    @pytest.mark.parametrize("enumerator", ["fba", "vba"])
    def test_predictive_emits_forming_events(self, enumerator):
        events = run_session(
            drift_stream(), pattern_family="predictive", enumerator=enumerator
        )
        forming = [e for e in events if e["kind"] == "forming"]
        assert forming, "the drift stream must surface forming candidates"
        for event in forming:
            assert 0.0 <= event["probability"] <= 1.0
            assert event["length"] >= 0
            assert event["lead"] >= 0
            assert len(event["oids"]) == 2

    def test_strict_family_adds_no_events(self):
        strict = run_session(drift_stream(), pattern_family="strict")
        default = run_session(drift_stream())
        assert strict == default
        assert all(e["kind"] not in ("evolved", "forming") for e in strict)

    def test_forming_and_confirmation_order_within_snapshot(self):
        """Family events land after the snapshot's confirmations and
        before its ``WatermarkAdvanced``."""
        events = run_session(drift_stream(), pattern_family="predictive")
        rank = {"pattern": 0, "convoy": 1, "forming": 2, "watermark": 3}
        by_time: dict[int, list[int]] = {}
        for event in events:
            by_time.setdefault(event["time"], []).append(rank[event["kind"]])
        for time, ranks in by_time.items():
            assert ranks == sorted(ranks), f"order violated at t={time}"


class TestBackendParity:
    @pytest.mark.parametrize("family", ["evolving", "predictive"])
    @pytest.mark.parametrize("enumerator", ["fba", "vba"])
    def test_process_matches_serial(self, family, enumerator):
        serial = run_session(
            drift_stream(), pattern_family=family, enumerator=enumerator
        )
        process = run_session(
            drift_stream(),
            pattern_family=family,
            enumerator=enumerator,
            backend="process",
            parallel_workers=2,
        )
        assert process == serial

    def test_numpy_kernels_match_python(self):
        python = run_session(drift_stream(), pattern_family="predictive")
        numpy = run_session(
            drift_stream(),
            pattern_family="predictive",
            clustering_kernel="numpy",
            enumeration_kernel="numpy",
        )
        assert numpy == python


class TestFormingPlumbing:
    def feed_half(self, **session_kwargs):
        session = open_session(**{**BASE_KNOBS, **session_kwargs})
        records = drift_stream()
        session.feed_many(records[: len(records) // 2])
        return session

    def test_fba_descriptors_have_bounded_remaining(self):
        with self.feed_half(enumerator="fba") as session:
            forming = session.pipeline.forming_candidates()
        assert forming
        for anchor, oid, start, ones, remaining in forming:
            assert anchor < oid
            assert remaining >= 0
            assert ones >= 0
            assert start >= 0

    def test_vba_descriptors_are_unbounded(self):
        with self.feed_half(enumerator="vba") as session:
            forming = session.pipeline.forming_candidates()
        assert forming
        assert {remaining for *_, remaining in forming} == {-1}

    def test_baseline_exposes_no_forming_state(self):
        with self.feed_half(enumerator="baseline") as session:
            assert session.pipeline.forming_candidates() == ()

    def test_process_backend_ships_identical_descriptors(self):
        with self.feed_half(enumerator="fba") as serial:
            expected = serial.pipeline.forming_candidates()
        with self.feed_half(
            enumerator="fba", backend="process", parallel_workers=2
        ) as process:
            assert process.pipeline.forming_candidates() == expected
