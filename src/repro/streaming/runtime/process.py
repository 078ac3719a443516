"""The stage executor: the master, plus an optional pool of shared-nothing
worker processes.

:class:`ProcessBackend` is both execution backends.  With no workers
(``backend="serial"``) every stage runs in the master, one subtask after
another in subtask-index order.  With a pool (``backend="process"``) a
persistent set of spawn-safe worker processes executes the subtasks of
every stage with more than one subtask outside the master interpreter —
no GIL contention between subtasks, real multi-core parallelism for
pure-Python operator code.  Subtask ``i`` of such a stage lives in
worker ``i % workers`` for the life of the job, so each worker owns a
fixed, disjoint slice of the operator state: the shared-nothing contract
of the paper's Flink deployment.

A stage runs in the master on its master-side runtime when it has a
single subtask (ICPE's ``cluster`` stage, or every stage when the
fan-out is one) or when there is no pool: the master would wait for a
lone subtask and re-route its outputs anyway, so a worker would add
only a pipe round trip.  Control queries for such a stage read the
master-side operator too.  The pool is sized to the widest
multi-subtask stage (at most ``workers``), so a graph whose stages all
have one subtask spawns no worker at all.

Operator state cannot be shipped across a process boundary, so the
executor is built from a picklable :class:`~repro.streaming.runtime.base.
GraphSpec`; every worker rebuilds the full stage list from the spec
after spawn and keeps its own operator instances.

The keyed exchange stays on the master: elements are bucketed once per
stage with the shared :meth:`StageRuntime.partition`, and each worker
receives its subtasks' complete buckets up front.  Every element
crosses the command pipe by pickle, as records cross the network
between task managers in the paper's Flink job; a
:class:`~repro.model.batch.SnapshotBatch` envelope pickles as its
NumPy columns.  On the way back, each run of
patterns in a subtask's outputs travels as one
:class:`~repro.streaming.dataflow.PatternColumns` token (object tuples
and time sequences as two lists) and is rebuilt in the master.

The worker protocol has four commands: ``run`` and ``finish`` execute a
stage's subtasks, ``query`` calls a named operator method on them (state
capture and restore, memory metrics, protected and forming sets — see
:meth:`ProcessBackend.query`), and ``close`` ends the worker.

Outputs are concatenated in subtask-index order wherever the subtasks
ran, so the emitted element sequence — and every detected pattern — is
identical with and without a pool by construction.  Worker crashes
surface as a clean :class:`RuntimeError` carrying the exit code;
:meth:`ProcessBackend.close` drains and joins the pool.
"""

from __future__ import annotations

import multiprocessing
import os
import time as _time
import traceback
from typing import Any, Sequence

from repro.streaming.dataflow import (
    StageRuntime,
    StageWork,
    count_elements,
    decode_pattern_runs,
    encode_pattern_runs,
)
from repro.streaming.runtime.base import GraphSpec

#: Seconds to wait for a worker to exit voluntarily on close.
_JOIN_TIMEOUT = 5.0


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
    "Usable" is the affinity-aware :func:`available_cpu_count`, not the
    raw core count.
    """
    return max(4, min(32, available_cpu_count()))


class _WorkerState:
    """Everything one worker process owns (worker side)."""

    def __init__(self, spec: GraphSpec):
        self.runtimes = [StageRuntime(stage) for stage in spec.build()]

    def run(self, stage_index: int, ctx, tasks) -> list[tuple]:
        results = []
        runtime = self.runtimes[stage_index]
        for subtask_index, bucket in tasks:
            outputs, busy = runtime.run_subtask(subtask_index, bucket, ctx)
            # The spans this invocation recorded ride the reply as the
            # 4th entry, so master-side telemetry is complete under
            # process isolation.
            results.append(
                (
                    subtask_index,
                    encode_pattern_runs(outputs),
                    busy,
                    runtime.drain_spans(),
                )
            )
        return results

    def finish(self, stage_index: int, indices) -> list[tuple]:
        runtime = self.runtimes[stage_index]
        results = []
        for index in indices:
            outputs, busy = runtime.finish_subtask(index)
            results.append(
                (index, encode_pattern_runs(outputs), busy, runtime.drain_spans())
            )
        return results


def _worker_main(conn, spec: GraphSpec, worker_index: int) -> None:
    """Entry point of one worker process: build the stages, serve the pipe.

    Replies ``("ready",)`` after a successful build, then answers ``run``
    / ``finish`` / ``query`` commands with ``("ok", results)`` until a
    ``close`` command (or a dropped pipe) ends the loop.  Any exception
    travels back as ``("error", traceback)`` instead of killing the
    worker.
    """
    try:
        state = _WorkerState(spec)
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    conn.send(("ready",))
    while True:
        try:
            message = conn.recv()
        except EOFError:  # master vanished; nothing left to serve
            break
        op = message[0]
        if op == "close":
            conn.send(("closed",))
            break
        try:
            if op == "run":
                _, stage_index, ctx, tasks = message
                results = state.run(stage_index, ctx, tasks)
            elif op == "finish":
                _, stage_index, indices = message
                results = state.finish(stage_index, indices)
            elif op == "query":
                _, stage_index, method, tasks = message
                results = state.runtimes[stage_index].query(method, tasks)
            else:
                raise ValueError(f"unknown worker command {op!r}")
        except BaseException:
            conn.send(("error", traceback.format_exc()))
            continue
        conn.send(("ok", results))
    conn.close()


class ProcessBackend:
    """The stage executor: the master plus a pool of worker processes.

    With ``workers=0`` there is no pool and this is the serial backend:
    every stage runs in the master through :meth:`StageRuntime.run`.
    Otherwise the pool has one worker per subtask of the widest
    multi-subtask stage, capped at ``workers``; a stage with more
    subtasks than workers gives each worker several.  A stage with one
    subtask runs in the master either way, so with ``workers=1``
    (``parallel_workers=1``) and the default fan-out, every stage has
    one subtask and no worker is spawned.

    The pool is spawned here, at construction — spawning interpreters is
    the expensive part, and steady-state ``run_stage`` calls never pay
    it.  The master reads the stage names and parallelisms from
    ``spec.build()``, which describes the stages without building any
    operator.  Workers start with the ``spawn`` method unconditionally:
    fork would duplicate the master's thread and lock state, and the
    paper's deployment model (independent task-manager JVMs) is
    spawn-shaped anyway.

    Raises ``RuntimeError`` if the stage names are not unique (names are
    the master↔worker stage addressing scheme), if any worker fails to
    rebuild the stages, or if one exits before it is ready (the message
    keeps its exit code and names the usual cause: a script that opens a
    ``process`` session without an ``if __name__ == "__main__":`` guard).
    Works as a context manager that closes it.
    """

    def __init__(self, spec: GraphSpec, workers: int = 0):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        stages = spec.build()
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise RuntimeError(
                f"process backend needs unique stage names, got {names}"
            )
        self._spec = spec
        self._stage_index = {name: i for i, name in enumerate(names)}
        self._processes: list[multiprocessing.process.BaseProcess] = []
        self._conns: list[Any] = []
        self._closed = False
        widest = max(
            (stage.parallelism for stage in stages if stage.parallelism > 1),
            default=0,
        )
        self._spawn(min(workers, widest))

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ---------------------------------------------------------------- lifecycle

    def _spawn(self, count: int) -> None:
        """Start ``count`` workers and wait for every stage rebuild."""
        ctx = multiprocessing.get_context("spawn")
        for index in range(count):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main,
                args=(child_conn, self._spec, index),
                name=f"repro-worker-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._processes.append(process)
            self._conns.append(parent_conn)
        for index in range(count):
            try:
                reply = self._conns[index].recv()
            except EOFError:
                process = self._processes[index]
                process.join(timeout=_JOIN_TIMEOUT)
                self.close()
                raise RuntimeError(
                    f"process-backend worker {index} exited before it was "
                    f"ready (exit code {process.exitcode}). Workers are "
                    "spawned and re-import the main module, so a script "
                    "that starts a 'process' session must guard its entry "
                    "point with `if __name__ == \"__main__\":`"
                ) from None
            if reply[0] != "ready":
                self.close()
                raise RuntimeError(
                    f"worker {index} failed to build the job graph:\n{reply[1]}"
                )

    def close(self) -> None:
        """Drain and join every worker (idempotent)."""
        self._closed = True
        conns, self._conns = self._conns, []
        processes, self._processes = self._processes, []
        for conn in conns:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for conn, process in zip(conns, processes):
            try:
                if conn.poll(_JOIN_TIMEOUT):
                    conn.recv()  # ("closed",)
            except (EOFError, OSError):
                pass
            conn.close()
            process.join(timeout=_JOIN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT)

    # ---------------------------------------------------------------- messaging

    def _recv(self, worker: int):
        try:
            return self._conns[worker].recv()
        except EOFError:
            process = self._processes[worker]
            process.join(timeout=_JOIN_TIMEOUT)
            raise RuntimeError(
                f"process-backend worker {worker} died unexpectedly "
                f"(exit code {process.exitcode})"
            ) from None

    def _send(self, worker: int, message) -> None:
        try:
            self._conns[worker].send(message)
        except (BrokenPipeError, OSError):
            process = self._processes[worker]
            process.join(timeout=_JOIN_TIMEOUT)
            raise RuntimeError(
                f"process-backend worker {worker} died unexpectedly "
                f"(exit code {process.exitcode})"
            ) from None

    def _stage_address(self, runtime: StageRuntime) -> int:
        if self._closed:
            raise RuntimeError("the stage executor is closed")
        try:
            return self._stage_index[runtime.stage.name]
        except KeyError:
            raise RuntimeError(
                f"stage {runtime.stage.name!r} is not part of the "
                f"executor's job graph {sorted(self._stage_index)}"
            ) from None

    def _in_master(self, runtime: StageRuntime) -> bool:
        """Whether the stage runs in the master: it has one subtask or
        there is no pool.

        Execution and every control query of such a stage use the
        master-side runtime (see the module docstring).  Raises like any
        stage address once the executor is closed.
        """
        self._stage_address(runtime)
        return len(runtime.subtasks) == 1 or not self._conns

    def _round_trip(
        self,
        runtime: StageRuntime,
        what: str,
        build_message,
        per_worker_tasks: list[list],
    ) -> list[tuple]:
        """Send one command to every involved worker, gather the replies.

        All sends go out before the first receive so workers overlap.
        Returns every worker's result entries, in worker order.  Every
        involved worker is heard from before a worker's failure is
        raised, so no stale reply is left in a pipe.
        """
        involved = [
            worker for worker, tasks in enumerate(per_worker_tasks) if tasks
        ]
        for worker in involved:
            self._send(worker, build_message(per_worker_tasks[worker]))
        entries: list[tuple] = []
        failure: str | None = None
        for worker in involved:
            reply = self._recv(worker)
            if reply[0] == "error":
                failure = failure or reply[1]
                continue
            entries.extend(reply[1])
        if failure is not None:
            raise RuntimeError(
                f"process-backend worker failed handling {what!r} for "
                f"stage {runtime.stage.name!r}:\n{failure}"
            )
        return entries

    def _dispatch(
        self,
        runtime: StageRuntime,
        what: str,
        build_message,
        per_worker_tasks: list[list],
        elements_in: int,
        started: float,
    ) -> tuple[list[Any], StageWork]:
        """Run or finish a stage in its workers; outputs in subtask order."""
        parallelism = len(runtime.subtasks)
        by_subtask: list[list[Any] | None] = [None] * parallelism
        busy = [0.0] * parallelism
        spans_by_subtask: list[list | None] = [None] * parallelism
        for subtask_index, outputs, seconds, spans in self._round_trip(
            runtime, what, build_message, per_worker_tasks
        ):
            by_subtask[subtask_index] = decode_pattern_runs(outputs)
            busy[subtask_index] = seconds
            spans_by_subtask[subtask_index] = spans
        outputs: list[Any] = []
        for out in by_subtask:
            if out:
                outputs.extend(out)
        # Adopt worker-recorded spans into the master-side runtime in
        # subtask order — the order StageRuntime.run records them in.
        for spans in spans_by_subtask:
            if spans:
                runtime.adopt_spans(spans)
        work = StageWork(
            name=runtime.stage.name,
            busy_seconds=busy,
            elements_in=elements_in,
            elements_out=count_elements(outputs),
            wall_seconds=_time.perf_counter() - started,
        )
        return outputs, work

    # ---------------------------------------------------------------- execution

    def run_stage(
        self, runtime: StageRuntime, elements: Sequence[Any], ctx: Any = None
    ) -> tuple[list[Any], StageWork]:
        """Execute one stage over one unit of work.

        In the master, :meth:`StageRuntime.run` runs the subtasks one
        after another.  Otherwise the master partitions and every
        subtask runs in its worker; the wall clock starts before
        partitioning, as in :meth:`StageRuntime.run`, so per-stage
        ``wall_seconds`` stay comparable.  ``ctx``
        crosses the command pipe and must pickle (ICPE passes the
        snapshot time, an ``int``).
        """
        if self._in_master(runtime):
            return runtime.run(elements, ctx)
        started = _time.perf_counter()
        stage_index = self._stage_address(runtime)
        buckets = runtime.partition(elements)
        workers = len(self._conns)
        per_worker_tasks: list[list] = [[] for _ in range(workers)]
        for subtask_index, bucket in enumerate(buckets):
            per_worker_tasks[subtask_index % workers].append(
                (subtask_index, bucket)
            )
        return self._dispatch(
            runtime,
            "run",
            lambda tasks: ("run", stage_index, ctx, tasks),
            per_worker_tasks,
            elements_in=count_elements(elements),
            started=started,
        )

    def finish_stage(
        self, runtime: StageRuntime
    ) -> tuple[list[Any], StageWork]:
        """Flush every subtask's state where the subtask runs."""
        if self._in_master(runtime):
            return runtime.finish()
        started = _time.perf_counter()
        stage_index = self._stage_address(runtime)
        workers = len(self._conns)
        parallelism = len(runtime.subtasks)
        return self._dispatch(
            runtime,
            "finish",
            lambda indices: ("finish", stage_index, indices),
            [list(range(w, parallelism, workers)) for w in range(workers)],
            elements_in=0,
            started=started,
        )

    # ---------------------------------------------------------------- state

    def query(
        self,
        runtime: StageRuntime,
        method: str,
        per_subtask_args: Sequence[tuple | None] | None = None,
    ) -> list[tuple[int, Any]]:
        """Call operator ``method`` on each subtask of one stage.

        ``per_subtask_args`` holds one argument tuple per subtask (``None``
        skips that subtask); omitted, every subtask is called with no
        arguments.  Returns ``(subtask_index, answer)`` pairs in subtask
        order, leaving out ``None`` answers (see
        :meth:`~repro.streaming.dataflow.StageRuntime.query`).

        A stage that runs in the master answers there.  Otherwise each
        ``(subtask_index, args)`` task goes to the subtask's owning
        worker (``i % workers``, same as execution).  The pipe protocol
        is synchronous request/reply, so by the time every involved
        worker has answered, the pool is drained — no stage work can be
        in flight concurrently with a query.  Replies are merged in
        subtask-index order.
        """
        if per_subtask_args is None:
            tasks = [(index, ()) for index in range(len(runtime.subtasks))]
        else:
            tasks = [
                (index, args)
                for index, args in enumerate(per_subtask_args)
                if args is not None
            ]
        if self._in_master(runtime):
            return runtime.query(method, tasks)
        stage_index = self._stage_address(runtime)
        workers = len(self._conns)
        per_worker_tasks: list[list] = [[] for _ in range(workers)]
        for task in tasks:
            per_worker_tasks[task[0] % workers].append(task)
        merged = self._round_trip(
            runtime,
            method,
            lambda tasks: ("query", stage_index, method, tasks),
            per_worker_tasks,
        )
        merged.sort(key=lambda entry: entry[0])
        return merged
