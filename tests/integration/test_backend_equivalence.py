"""Backend equivalence on end-to-end detection scenarios.

The runtime contract: every execution backend (serial, shared-nothing
processes) routes every element to the same subtask
(stable hashing), processes buckets in the same per-subtask order, and
concatenates outputs in subtask-index order — so the full ICPE pipeline
must detect the *identical* pattern set, with identical detection times,
under any backend.  For the process backend the bar is event-for-event
session equality (including ``WatermarkAdvanced``) across the
backend × clustering-kernel × enumeration-kernel grid.
"""

import random

import pytest

from repro.core.config import ICPEConfig
from repro.core.detector import CoMovementDetector
from repro.data.brinkhoff import BrinkhoffConfig, generate_brinkhoff
from repro.data.taxi import TaxiConfig, generate_taxi
from repro.model.constraints import PatternConstraints
from repro.session import Session
from repro.session.events import event_to_dict
from repro.streaming.shuffle import bounded_shuffle

CONSTRAINTS = PatternConstraints(m=3, k=5, l=2, g=2)

#: An explicit fan-out both backends share, for per-subtask comparisons.
SHARED_FAN_OUT = dict(
    allocate_parallelism=4, query_parallelism=4, enumerate_parallelism=4
)


@pytest.fixture(scope="module")
def dataset():
    return generate_taxi(TaxiConfig(n_objects=60, horizon=24, seed=17))


def make_config(dataset, **overrides):
    defaults = dict(
        epsilon=dataset.resolve_percentage(0.08),
        cell_width=dataset.resolve_percentage(1.6),
        min_pts=3,
        constraints=CONSTRAINTS,
    )
    defaults.update(overrides)
    return ICPEConfig(**defaults)


def detect(dataset, config, records=None):
    detector = CoMovementDetector(config)
    detector.feed_many(records if records is not None else dataset.records)
    detector.finish()
    detections = frozenset(
        (pattern.objects, tuple(pattern.times.times))
        for pattern in detector.patterns
    )
    return detector, detections


class TestBackendEquivalence:
    @pytest.mark.parametrize("enumerator", ["fba", "vba"])
    def test_identical_pattern_sets(self, dataset, enumerator):
        serial_detector, serial_patterns = detect(
            dataset, make_config(dataset, enumerator=enumerator)
        )
        process_detector, process_patterns = detect(
            dataset,
            make_config(
                dataset,
                enumerator=enumerator,
                backend="process",
                parallel_workers=2,
            ),
        )
        assert serial_detector.backend_name == "serial"
        assert process_detector.backend_name == "process"
        assert serial_patterns == process_patterns
        assert len(serial_patterns) > 0  # the scenario must be non-trivial

    def test_identical_under_out_of_order_delivery(self, dataset):
        records = list(
            bounded_shuffle(dataset.records, max_delay=2, rng=random.Random(3))
        )
        _, serial_patterns = detect(
            dataset, make_config(dataset, max_delay=2), records=records
        )
        _, process_patterns = detect(
            dataset,
            make_config(
                dataset, max_delay=2, backend="process", parallel_workers=2
            ),
            records=records,
        )
        assert serial_patterns == process_patterns

    def test_identical_routing_across_backends(self, dataset):
        """One explicit fan-out on both sides, so routing compares
        subtask by subtask (the defaults follow each backend)."""
        from repro.core.icpe import ICPEPipeline

        serial = ICPEPipeline(make_config(dataset, **SHARED_FAN_OUT))
        process = ICPEPipeline(
            make_config(
                dataset,
                backend="process",
                parallel_workers=2,
                **SHARED_FAN_OUT,
            )
        )
        points = next(iter(dataset.snapshots())).points()
        for runtime_s, runtime_p in zip(serial.runtimes, process.runtimes):
            if runtime_s.stage.name != "allocate":
                continue
            assert [runtime_s.route(p) for p in points] == [
                runtime_p.route(p) for p in points
            ]
        serial.close()
        process.close()

    def test_second_dataset_generator(self):
        dataset = generate_brinkhoff(
            BrinkhoffConfig(n_objects=50, horizon=20, seed=9)
        )
        _, serial_patterns = detect(dataset, make_config(dataset))
        _, process_patterns = detect(
            dataset,
            make_config(dataset, backend="process", parallel_workers=3),
        )
        assert serial_patterns == process_patterns


@pytest.fixture(scope="module")
def small_dataset():
    return generate_brinkhoff(BrinkhoffConfig(n_objects=30, horizon=10, seed=11))


def session_events(dataset, config):
    """The full typed event stream of one session over the dataset."""
    with Session(config) as session:
        events = session.feed_many(dataset.records)
        events += session.finish()
        result = session.result()
    return [event_to_dict(event) for event in events], result


class TestProcessBackendEquivalence:
    """serial ≡ process, event for event, across the kernel grid."""

    @pytest.mark.parametrize(
        "clustering_kernel,enumeration_kernel",
        [
            ("python", "python"),
            ("python", "numpy"),
            ("numpy", "python"),
            ("numpy", "numpy"),
        ],
    )
    def test_event_streams_identical(
        self, small_dataset, clustering_kernel, enumeration_kernel
    ):
        configs = {
            backend: make_config(
                small_dataset,
                enumerator="fba",
                backend=backend,
                parallel_workers=2 if backend == "process" else None,
                clustering_kernel=clustering_kernel,
                enumeration_kernel=enumeration_kernel,
            )
            for backend in ("serial", "process")
        }
        serial_events, serial_result = session_events(
            small_dataset, configs["serial"]
        )
        process_events, process_result = session_events(
            small_dataset, configs["process"]
        )
        assert serial_events == process_events
        assert any(e["kind"] == "pattern" for e in serial_events)
        assert any(e["kind"] == "watermark" for e in serial_events)
        assert serial_result.patterns == process_result.patterns
        assert serial_result.snapshots == process_result.snapshots
        assert process_result.backend == "process"

    def test_worker_count_does_not_change_patterns(self, small_dataset):
        """Pool size is placement only: 2 and 3 workers over one
        fan-out detect the same pattern set."""
        patterns = [
            detect(
                small_dataset,
                make_config(
                    small_dataset,
                    backend="process",
                    parallel_workers=workers,
                    **SHARED_FAN_OUT,
                ),
            )[1]
            for workers in (2, 3)
        ]
        assert patterns[0] == patterns[1]
        assert len(patterns[0]) > 0
