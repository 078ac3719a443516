"""A serial-vs-process sweep over a distributed-shape two-stage workload.

The process backend rebuilds operators inside each worker from a
picklable :class:`~repro.streaming.runtime.GraphSpec`, so the stage
builder here is a module-level function.

The workload is two keyed stages of :class:`StallingHashOperator` — a
GIL-releasing CPU kernel plus an exchange/state-backend stall per
subtask per unit, the shape real distributed stages have.  A pool of
worker processes overlaps the stalls across subtasks even on a single
core, which is what the sweep measures; every backend must emit
byte-identical output streams, asserted via a running digest.
"""

from __future__ import annotations

import hashlib
import time as _time
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.streaming.dataflow import KeyedStage, Operator, StageRuntime
from repro.streaming.runtime import (
    ExecutionBackend,
    GraphSpec,
    ProcessBackend,
    SerialBackend,
    execute_unit,
)


class StallingHashOperator(Operator):
    """Buffers its bucket, then burns CPU and stalls at the batch trigger.

    The CPU kernel (``hashlib.pbkdf2_hmac``) is C-level compute that
    releases the GIL; the stall (``time.sleep``) stands in for the
    exchange / state-backend / sink waits every distributed stage has.
    Deterministic: the digest emitted for a batch depends only on the
    subtask's bucket contents and the batch context, so serial and
    process execution produce byte-identical outputs.
    """

    def __init__(self, cpu_iterations: int, stall_seconds: float):
        self.cpu_iterations = cpu_iterations
        self.stall_seconds = stall_seconds
        self._buffer: list[Any] = []
        self._index = 0

    def open(self, subtask_index: int, parallelism: int) -> None:
        """Remember the subtask index (part of the emitted record)."""
        self._index = subtask_index

    def process(self, element: Any) -> Iterable[Any]:
        """Collect one element into the batch buffer."""
        self._buffer.append(element)
        return ()

    def end_batch(self, ctx: Any) -> Iterable[tuple[int, int, str]]:
        """Kernel + stall over the buffered batch; emit its digest."""
        payload = repr((ctx, self._buffer)).encode("utf-8")
        digest = hashlib.pbkdf2_hmac(
            "sha256", payload, b"repro-backend-sweep", self.cpu_iterations
        )
        if self.stall_seconds > 0:
            _time.sleep(self.stall_seconds)
        count = len(self._buffer)
        self._buffer.clear()
        yield (self._index, count, digest.hex())


def build_stall_stages(
    parallelism: int, cpu_iterations: int, stall_seconds: float
) -> list[KeyedStage]:
    """Two chained keyed stages of stalling-hash subtasks.

    Module-level on purpose: ``GraphSpec(build_stall_stages, args)``
    pickles this function by reference, so spawned workers re-import it
    and rebuild identical operator instances shared-nothing.
    """
    factory = lambda: StallingHashOperator(cpu_iterations, stall_seconds)
    return [
        KeyedStage(
            name="hash-stall",
            operator_factory=factory,
            parallelism=parallelism,
            key_fn=lambda element: element,
        ),
        # Second hop re-keys on the upstream subtask index, exercising a
        # real keyed exchange between stages under every backend.
        KeyedStage(
            name="fold",
            operator_factory=factory,
            parallelism=parallelism,
            key_fn=lambda element: element[0],
        ),
    ]


@dataclass(frozen=True, slots=True)
class ProcessSweepPoint:
    """One backend/pool-size measurement over the two-stage workload.

    ``stage_busy_seconds`` sums each stage's per-subtask busy time from
    the :class:`~repro.streaming.runtime.StageWork` ledger — under the
    process backend these are measured *inside* the workers, so the
    breakdown shows where pool time actually went.
    """

    backend: str
    workers: int
    wall_seconds: float
    speedup_vs_serial: float
    digest: str
    stage_busy_seconds: Mapping[str, float]


def _drive(
    runtimes: list[StageRuntime],
    backend: ExecutionBackend,
    batches: int,
    elements_per_batch: int,
) -> tuple[float, str, dict[str, float]]:
    """Run the stages over deterministic batches; wall, digest, busy map."""
    combined = hashlib.sha256()
    stage_busy: dict[str, float] = {}
    started = _time.perf_counter()
    for batch in range(batches):
        elements = [
            batch * elements_per_batch + offset
            for offset in range(elements_per_batch)
        ]
        outputs, works = execute_unit(runtimes, elements, batch, backend)
        combined.update(repr(outputs).encode("utf-8"))
        for work in works:
            stage_busy[work.name] = stage_busy.get(work.name, 0.0) + sum(
                work.busy_seconds
            )
    wall = _time.perf_counter() - started
    return wall, combined.hexdigest(), stage_busy


def run_process_sweep(
    parallelism: int = 8,
    batches: int = 4,
    elements_per_batch: int = 32,
    cpu_iterations: int = 1_000,
    stall_seconds: float = 0.02,
    process_workers: tuple[int, ...] = (1, 2, 4),
) -> list[ProcessSweepPoint]:
    """Measure the serial backend against process pools on one workload.

    Row order: serial (the speedup baseline), then one process row per
    pool size in ``process_workers``.  Worker spawn and stage rebuild
    happen at ``bind_graph``, before the timer starts — the sweep
    measures steady-state execution, not pool start-up.  Raises
    :class:`RuntimeError` if any backend's output stream digest differs
    from serial's.
    """
    args = (parallelism, cpu_iterations, stall_seconds)
    spec = GraphSpec(build_stall_stages, args)
    runs: list[tuple[str, int, ExecutionBackend]] = [
        ("serial", 1, SerialBackend())
    ]
    runs += [
        ("process", workers, ProcessBackend(max_workers=workers))
        for workers in process_workers
    ]
    points: list[ProcessSweepPoint] = []
    serial_wall: float | None = None
    serial_digest: str | None = None
    for name, workers, backend in runs:
        try:
            backend.bind_graph(spec)
            runtimes = [StageRuntime(s) for s in build_stall_stages(*args)]
            wall, digest, stage_busy = _drive(
                runtimes, backend, batches, elements_per_batch
            )
        finally:
            backend.close()
        if serial_wall is None:
            serial_wall, serial_digest = wall, digest
        if digest != serial_digest:
            raise RuntimeError(
                f"backend {name!r} (workers={workers}) emitted a different "
                "output stream than 'serial'"
            )
        points.append(
            ProcessSweepPoint(
                backend=name,
                workers=workers,
                wall_seconds=wall,
                speedup_vs_serial=serial_wall / wall if wall > 0 else 1.0,
                digest=digest,
                stage_busy_seconds=stage_busy,
            )
        )
    return points
