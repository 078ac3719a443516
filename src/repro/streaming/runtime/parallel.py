"""The parallel execution backend: a worker pool per job.

Runs every subtask of a stage concurrently on a shared
:class:`~concurrent.futures.ThreadPoolExecutor`.  Correctness rests on
the partitioned-state discipline of the dataflow model: each subtask owns
its operator instance, a stage submits at most one task per subtask per
unit of work, and stages execute one after another — so no operator is
ever touched by two threads at once, and no locks are needed.

The keyed exchange is *batched*: the calling thread partitions the whole
unit of work once (:meth:`StageRuntime.partition`) and hands every worker
its complete bucket up front — one handoff per subtask per batch rather
than one per element.

Outputs are concatenated in subtask-index order, making the emitted
element sequence identical to the serial backend's, element for element.
``StageWork.busy_seconds`` are *measured wall-clock* times per subtask
(they include scheduling and interpreter-lock contention), and
``StageWork.wall_seconds`` is the overlapped elapsed time of the whole
stage — the quantity backend-scalability benchmarks compare against the
serial backend.

On CPython, pure-Python subtask work serialises on the GIL; wall-clock
wins come from subtasks whose work releases it (C-level kernels such as
``zlib`` / ``hashlib``, NumPy) or blocks (I/O, state-backend and exchange
waits).  On free-threaded builds the same backend parallelises Python
code directly.
"""

from __future__ import annotations

import os
import time as _time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Sequence

from repro.streaming.dataflow import StageRuntime, StageWork, count_elements
from repro.streaming.runtime.base import ExecutionBackend


def available_cpu_count() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the host's cores, which over-provisions
    worker pools inside cgroup/affinity-limited containers (a 4-CPU
    quota on a 64-core host would get 32 workers).  Prefer, in order:
    ``os.process_cpu_count()`` (Python 3.13+, respects affinity and
    ``PYTHON_CPU_COUNT``), ``os.sched_getaffinity`` (Linux), and only
    then the raw core count.
    """
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        counted = process_cpu_count()
        if counted:
            return counted
    if hasattr(os, "sched_getaffinity"):
        try:
            affinity = len(os.sched_getaffinity(0))
        except OSError:  # pragma: no cover - exotic platforms only
            affinity = 0
        if affinity:
            return affinity
    return os.cpu_count() or 1


def default_worker_count() -> int:
    """Worker-pool size when none is requested: every usable core, at
    least 4.

    At least 4 so that stalls still overlap on small machines; capped at
    32 so a wide stage on a huge host does not explode the worker count.
    Shared by the thread-pool (``parallel``) and worker-process
    (``process``) backends; "usable" is the affinity-aware
    :func:`available_cpu_count`, not the raw core count.
    """
    return max(4, min(32, available_cpu_count()))


class ParallelBackend(ExecutionBackend):
    """Concurrent subtask execution on a thread pool.

    Attributes:
        max_workers: pool size; ``None`` picks
            :func:`default_worker_count`.  Stages with fewer subtasks than
            workers simply leave workers idle; stages with more queue.
    """

    name = "parallel"
    supports_batch_ingest = True
    supports_checkpoint = True

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False

    @property
    def workers(self) -> int:
        """The effective worker-pool size."""
        return self.max_workers or default_worker_count()

    def _executor(self) -> ThreadPoolExecutor:
        if self._closed:
            raise RuntimeError("parallel backend already closed")
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-runtime",
            )
        return self._pool

    def _fan_out(
        self,
        runtime: StageRuntime,
        task: Callable[[int], tuple[list[Any], float]],
        elements_in: int,
        started: float,
    ) -> tuple[list[Any], StageWork]:
        pool = self._executor()
        futures: list[Future] = [
            pool.submit(task, index) for index in range(len(runtime.subtasks))
        ]
        outputs: list[Any] = []
        busy: list[float] = []
        for future in futures:
            out, seconds = future.result()
            outputs.extend(out)
            busy.append(seconds)
        work = StageWork(
            name=runtime.stage.name,
            busy_seconds=busy,
            elements_in=elements_in,
            elements_out=count_elements(outputs),
            wall_seconds=_time.perf_counter() - started,
        )
        return outputs, work

    def run_stage(
        self, runtime: StageRuntime, elements: Sequence[Any], ctx: Any = None
    ) -> tuple[list[Any], StageWork]:
        """Partition once, then run every subtask's bucket concurrently.

        The wall clock starts before partitioning, mirroring the serial
        backend — so per-stage ``wall_seconds`` are comparable across
        backends.
        """
        started = _time.perf_counter()
        buckets = runtime.partition(elements)
        return self._fan_out(
            runtime,
            lambda index: runtime.run_subtask(index, buckets[index], ctx),
            elements_in=count_elements(elements),
            started=started,
        )

    def finish_stage(
        self, runtime: StageRuntime
    ) -> tuple[list[Any], StageWork]:
        """Flush every subtask's state concurrently."""
        return self._fan_out(
            runtime,
            lambda index: runtime.finish_subtask(index),
            elements_in=0,
            started=_time.perf_counter(),
        )

    def close(self) -> None:
        """Shut the worker pool down (idempotent; further use raises)."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
