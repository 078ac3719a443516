"""Backend telemetry parity: serial ≡ process.

The observability contract across execution backends: where subtasks
physically run must not change what the telemetry reports.  Spans are
recorded at the operator invocation site — inside spawned workers under
the process backend, shipped home on the reply protocol — so the span
stream, the per-stage counters and the rendered Prometheus snapshot
must be identical to the serial run (busy-time wall-clock aside).

Spans are per physical subtask, and by default each backend picks its
own enumerate fan-out (one subtask on serial, one per worker on
process), so the parity sessions pin one explicit fan-out on every backend;
:class:`TestDefaultFanOut` checks what the defaults record.
"""

from __future__ import annotations

import pytest

from repro.observability import render_prometheus

from tests.observability.conftest import cluster_stream, run_session

pytestmark = pytest.mark.observability

STAGES = ("allocate", "query", "cluster", "enumerate")

#: One explicit fan-out every backend shares, so spans compare subtask
#: by subtask.
SHARED_FAN_OUT = dict(
    allocate_parallelism=4, query_parallelism=4, enumerate_parallelism=4
)

#: Families whose values must be backend-independent (everything except
#: wall-clock quantities: busy seconds and latency histograms).
DETERMINISTIC_COUNTERS = (
    "repro_records_ingested_total",
    "repro_snapshots_total",
    "repro_patterns_total",
    "repro_stage_spans_total",
    "repro_stage_elements_in_total",
    "repro_stage_elements_out_total",
    "repro_events_total",
)


def deterministic_view(registry) -> dict[str, float]:
    """Flat {sample -> value} over the backend-independent families."""
    from repro.observability import sample_name

    view: dict[str, float] = {}
    for name, kind, labels, instrument in registry.collect():
        if name in DETERMINISTIC_COUNTERS or kind == "gauge":
            view[sample_name(name, labels)] = instrument.value
    return view


def scrub_wallclock(prometheus: str) -> list[str]:
    """Prometheus lines with wall-clock-valued samples removed."""
    return [
        line
        for line in prometheus.splitlines()
        if not line.startswith(
            ("repro_stage_busy_seconds_total", "repro_snapshot_latency_ms")
        )
    ]


class TestSerialProcessParity:
    @pytest.fixture(scope="class")
    def sessions(self):
        records = cluster_stream(17)
        serial = run_session(
            records, observability=True, backend="serial", **SHARED_FAN_OUT
        )
        process = run_session(
            records,
            observability=True,
            backend="process",
            parallel_workers=2,
            **SHARED_FAN_OUT,
        )
        return serial, process

    def test_span_counts_match(self, sessions):
        serial, process = sessions
        assert (
            process.telemetry.spans_recorded
            == serial.telemetry.spans_recorded
        )
        for stage in STAGES:
            labels = {"stage": stage}
            assert (
                process.telemetry.registry.get(
                    "repro_stage_spans_total", labels
                ).value
                == serial.telemetry.registry.get(
                    "repro_stage_spans_total", labels
                ).value
            )

    def test_counter_totals_match(self, sessions):
        serial, process = sessions
        assert deterministic_view(
            process.telemetry.registry
        ) == deterministic_view(serial.telemetry.registry)

    def test_prometheus_snapshots_match_modulo_wallclock(self, sessions):
        serial, process = sessions
        assert scrub_wallclock(
            render_prometheus(process.telemetry.registry)
        ) == scrub_wallclock(render_prometheus(serial.telemetry.registry))


class TestTraceParity:
    def test_trace_rows_identical_modulo_busy(self, tmp_path):
        import json

        records = cluster_stream(29, n_times=5)
        traces = {}
        for backend in ("serial", "process"):
            path = tmp_path / f"{backend}.jsonl"
            run_session(
                records,
                observability={"trace_out": path},
                backend=backend,
                parallel_workers=2,
                **SHARED_FAN_OUT,
            )
            rows = [
                json.loads(line) for line in path.read_text().splitlines()
            ]
            for row in rows:
                row.pop("busy_ms")
            traces[backend] = rows
        assert traces["process"] == traces["serial"]


class TestDefaultFanOut:
    def test_one_span_per_physical_subtask(self, tmp_path):
        """Default fan-out: every stage and unit records one span per
        subtask the backend runs — enumerate runs 1 on serial and one
        per process worker, every other stage runs one."""
        import json

        records = cluster_stream(29, n_times=5)
        for backend, workers, fan_out in (
            ("serial", None, 1),
            ("process", 2, 2),
        ):
            path = tmp_path / f"{backend}.jsonl"
            run_session(
                records,
                observability={"trace_out": path},
                backend=backend,
                parallel_workers=workers,
            )
            subtasks: dict[tuple, set[int]] = {}
            for line in path.read_text().splitlines():
                row = json.loads(line)
                unit = (row["stage"], row["time"], row["kind"])
                subtasks.setdefault(unit, set()).add(row["subtask"])
            assert {stage for stage, _, _ in subtasks} == set(STAGES)
            for (stage, time, kind), seen in subtasks.items():
                expected = fan_out if stage == "enumerate" else 1
                assert seen == set(range(expected)), (backend, stage, time)
