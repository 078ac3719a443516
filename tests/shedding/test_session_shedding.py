"""Session-level shedding differentials: the overload test harness.

Three contracts:

* **rate-0 transparency** — enabling any shed policy at rate 0 leaves
  the typed event stream byte-identical to an unshedded run, on every
  backend x enumeration-kernel combination;
* **recall dominance** — under the bursty workload (one co-moving
  group plus pure-noise traffic) the pattern-aware policy retains
  every baseline pattern while the blind random policy loses some, at
  the same configured rate;
* **controller engagement** — an unattainable latency SLO drives the
  adapted rate up once the warm-up window fills, and an infinite SLO
  leaves it at the floor.
"""

from __future__ import annotations

import pytest

from repro import open_session

from tests.shedding.conftest import (
    BASE_KNOBS,
    bursty_stream,
    drive,
    pattern_sets,
    recall,
)

pytestmark = pytest.mark.shedding

#: backend x enumeration kernel grid for the transparency differential.
GRID = [
    ("serial", "python"),
    ("serial", "numpy"),
    ("process", "python"),
    ("process", "numpy"),
]


class TestRateZeroTransparency:
    @pytest.fixture(scope="class")
    def records(self):
        return bursty_stream(n_times=10, group=4, noise=6)

    @pytest.mark.parametrize("backend,enum_kernel", GRID)
    @pytest.mark.parametrize("policy", ["random", "pattern_aware"])
    def test_events_identical_at_rate_zero(
        self, records, backend, enum_kernel, policy
    ):
        workers = 2 if backend == "process" else None
        baseline, _ = drive(
            records,
            backend=backend,
            parallel_workers=workers,
            enumeration_kernel=enum_kernel,
        )
        shedded, result = drive(
            records,
            backend=backend,
            parallel_workers=workers,
            enumeration_kernel=enum_kernel,
            shed_policy=policy,
            shed_rate=0.0,
        )
        assert shedded == baseline
        assert result.shedding["records_shed"] == 0

    def test_none_policy_with_nonzero_rate_drops_nothing(self, records):
        baseline, _ = drive(records)
        shedded, result = drive(records, shed_rate=0.5)
        assert shedded == baseline
        assert result.shedding["records_shed"] == 0


class TestRecallDominance:
    @pytest.fixture(scope="class")
    def records(self):
        return bursty_stream(n_times=24, group=5, noise=20)

    @pytest.fixture(scope="class")
    def baseline(self, records):
        _, result = drive(records)
        return result

    def test_baseline_patterns_are_group_only(self, baseline):
        group = set(range(5))
        assert pattern_sets(baseline)
        for objects in pattern_sets(baseline):
            assert set(objects) <= group

    @pytest.mark.parametrize("rate", [0.3, 0.5])
    def test_pattern_aware_dominates_random(self, records, baseline, rate):
        _, blind = drive(
            records, shed_policy="random", shed_rate=rate, shed_seed=2
        )
        _, aware = drive(
            records, shed_policy="pattern_aware", shed_rate=rate, shed_seed=2
        )
        assert recall(aware, baseline) >= recall(blind, baseline)
        # On this workload the dominance is strict: the aware policy
        # keeps every pattern, the blind one visibly loses some.
        assert recall(aware, baseline) == 1.0
        assert recall(blind, baseline) < 1.0
        # Both shed real volume — dominance is not "shed nothing".
        assert aware.shedding["records_shed"] > 0
        assert blind.shedding["records_shed"] > 0

    def test_pattern_aware_protects_group_records(self, records):
        _, result = drive(
            records, shed_policy="pattern_aware", shed_rate=0.5, shed_seed=2
        )
        assert result.shedding["records_protected"] > 0

    def test_counters_surface_in_result(self, records):
        _, result = drive(
            records, shed_policy="pattern_aware", shed_rate=0.3
        )
        shed = result.shedding
        assert shed["policy"] == "pattern_aware"
        assert shed["records_offered"] == len(records)
        assert 0 < shed["records_shed"] < len(records)
        assert set(shed["stage_busy_seconds"]) == {
            "allocate", "query", "cluster", "enumerate"
        }
        assert result.state_memory["shedding"]["records_shed"] == (
            shed["records_shed"]
        )


class TestProcessBackendProtocol:
    def test_protected_set_crosses_process_boundary(self):
        """The pattern-aware policy works against worker-process state:
        the ``protected`` reply op must surface open windows from the
        shared-nothing enumerate subtasks."""
        records = bursty_stream(n_times=10, group=4, noise=6)
        _, result = drive(
            records,
            backend="process",
            parallel_workers=2,
            shed_policy="pattern_aware",
            shed_rate=0.4,
            shed_seed=2,
        )
        assert result.shedding["records_protected"] > 0
        assert result.shedding["records_shed"] > 0


class TestControllerEngagement:
    def test_unattainable_slo_raises_rate(self):
        records = bursty_stream(n_times=60, group=4, noise=4)
        session = open_session(
            **BASE_KNOBS,
            shed_policy="random",
            shed_rate=0.0,
            target_p99_ms=1e-6,
        )
        try:
            session.feed_many(records, batch_size=8)
            assert session.slo_controller.rate > 0.0
            assert session.result().shedding["shed_rate"] > 0.0
        finally:
            session.close()

    def test_generous_slo_keeps_rate_at_floor(self):
        records = bursty_stream(n_times=60, group=4, noise=4)
        session = open_session(
            **BASE_KNOBS,
            shed_policy="random",
            shed_rate=0.2,
            target_p99_ms=1e9,
        )
        try:
            session.feed_many(records, batch_size=8)
            # Under an easily met target the controller decays the
            # starting rate toward its floor of zero.
            assert session.slo_controller.rate < 0.2
        finally:
            session.close()

    def test_controller_converges_into_band(self):
        """Driven directly with latencies proportional to the current
        keep fraction (a linear load model), the loop settles inside
        the hysteresis band around the target."""
        from repro.shedding import SLOController

        controller = SLOController(target_p99_ms=60.0, window=8)
        base_latency = 100.0
        for _ in range(200):
            controller.observe(base_latency * (1.0 - controller.rate))
        final_p99 = controller.windowed_p99_ms()
        assert 60.0 * 0.8 <= final_p99 <= 60.0 * 1.2
