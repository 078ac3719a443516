"""The process execution backend: shared-nothing workers, shared-memory
exchanges.

A persistent pool of spawn-safe worker processes executes the subtasks
of every stage with more than one subtask outside the master
interpreter — no GIL contention between subtasks, real multi-core
parallelism for pure-Python operator code.  Subtask ``i`` of such a
stage lives in worker ``i % workers`` for the life of the job, so each
worker owns a fixed, disjoint slice of the operator state: the
shared-nothing contract of the paper's Flink deployment.

A stage with a single subtask (ICPE's ``cluster`` stage, or every stage
when the fan-out is one) runs in the master on its master-side runtime,
exactly as the serial backend runs it: the master would wait for that
subtask and re-route its outputs anyway, so a worker would add only a
pipe round trip.  Control queries for such a stage read the master-side
operator too.  The pool is sized to the widest multi-subtask stage (at
most ``max_workers``), so a graph whose stages all have one subtask
spawns no worker at all.

Because operator state cannot be shipped across a process boundary, the
backend must be handed a picklable :class:`~repro.streaming.runtime.base.
GraphSpec` via :meth:`ProcessBackend.bind_graph` before it runs; every
worker rebuilds the full stage list from the spec after spawn and keeps
its own operator instances.  The ICPE pipeline does this automatically.

The keyed exchange stays on the master: elements are bucketed once per
stage with the shared :meth:`StageRuntime.partition` (identical routing
to the serial backend), and each worker receives its subtasks' complete
buckets up front.  Non-empty :class:`~repro.model.batch.SnapshotBatch`
envelopes do not travel through the command pipe — their columns are
written into pooled ``multiprocessing.shared_memory`` segments
(:class:`~repro.streaming.runtime.shm.SegmentPool`) and only a small
:class:`~repro.streaming.dataflow.ShmEnvelope` token crosses the pipe;
the worker rebuilds the batch as zero-copy read-only NumPy views over
the segment.  Everything else (plain elements, partition envelopes,
empty batches) rides the pipe's pickle path.  On the way back, each run of
patterns in a subtask's outputs travels as one
:class:`~repro.streaming.dataflow.PatternColumns` token (object tuples
and time sequences as two lists) and is rebuilt in the master.

The worker protocol has four commands: ``run`` and ``finish`` execute a
stage's subtasks, ``query`` calls a named operator method on them (state
capture and restore, memory metrics, protected and forming sets — see
:meth:`ExecutionBackend.query`), and ``close`` ends the worker.

Outputs are concatenated in subtask-index order, exactly like the serial
backend, so the emitted element sequence — and every detected pattern —
is identical by construction.  Worker crashes surface as a clean
:class:`RuntimeError` carrying the exit code; :meth:`close` drains and
joins the pool and unlinks every pooled segment.
"""

from __future__ import annotations

import multiprocessing
import os
import time as _time
import traceback
from multiprocessing import shared_memory
from typing import Any, Sequence

from repro.streaming.dataflow import (
    StageRuntime,
    StageWork,
    count_elements,
    decode_exchange_elements,
    decode_pattern_runs,
    encode_exchange_elements,
    encode_pattern_runs,
)
from repro.streaming.runtime.base import (
    ExecutionBackend,
    GraphSpec,
    _subtask_tasks,
)
from repro.streaming.runtime.shm import SegmentPool

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


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a master-owned segment without adopting ownership.

    On Python 3.13+ ``track=False`` keeps the resource tracker out of
    it.  Older interpreters register every attach with the resource
    tracker — harmless *here*, because spawned children share the
    master's tracker process, its cache is a name set (idempotent
    re-registration), and the master's eventual ``unlink`` removes the
    entry exactly once.  Manually unregistering instead would clobber
    the master's own registration through that shared tracker and
    produce ``KeyError`` noise at unlink time — so, counter to the
    usual 3.11 folklore, the attach is left tracked.  Workers only ever
    read segments; create/unlink stays with the master's pool.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13 signature
        return shared_memory.SharedMemory(name=name)


class _WorkerState:
    """Everything one worker process owns (worker side)."""

    def __init__(self, spec: GraphSpec):
        self.runtimes = [StageRuntime(stage) for stage in spec.build()]
        #: Segments currently attached; close is retried after every
        #: message until no exported view keeps the mapping alive.
        self.attached: dict[str, shared_memory.SharedMemory] = {}

    def attach(self, name: str):
        segment = self.attached.get(name)
        if segment is None:
            segment = _attach_segment(name)
            self.attached[name] = segment
        return segment.buf

    def run(self, stage_index: int, ctx, tasks) -> list[tuple]:
        results = []
        runtime = self.runtimes[stage_index]
        for subtask_index, bucket in tasks:
            decoded = decode_exchange_elements(bucket, self.attach)
            outputs, busy = runtime.run_subtask(subtask_index, decoded, ctx)
            del decoded
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

    def sweep_attached(self) -> list[str]:
        """Detach every segment no live view still aliases.

        Returns the names released — the master returns those segments
        to its pool for reuse.  A ``BufferError`` means some output
        element still references the mapping (an operator emitted a view
        of its input); the segment is kept and the close retried after
        the next message, and the master retires it instead of reusing
        it.
        """
        released = []
        for name, segment in list(self.attached.items()):
            try:
                segment.close()
            except BufferError:
                continue
            del self.attached[name]
            released.append(name)
        return released

    def close(self) -> None:
        for segment in self.attached.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover - views at shutdown
                pass
        self.attached.clear()


def _worker_main(conn, spec: GraphSpec, worker_index: int) -> None:
    """Entry point of one worker process: build the stages, serve the pipe.

    Replies ``("ready",)`` after a successful build, then answers ``run``
    / ``finish`` / ``query`` commands with ``("ok", results,
    released_segments)`` until a ``close`` command (or a dropped pipe)
    ends the loop.  Any exception travels back as ``("error",
    traceback)`` instead of killing the worker.
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
            state.close()
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
        conn.send(("ok", results, state.sweep_attached()))
    conn.close()


class ProcessBackend(ExecutionBackend):
    """Shared-nothing subtask execution on a pool of worker processes.

    Attributes:
        max_workers: pool-size cap; ``None`` picks
            :func:`default_worker_count` (affinity-aware).  The pool
            spawned at :meth:`bind_graph` has one worker per subtask of
            the widest multi-subtask stage, capped at ``max_workers``;
            a stage with more subtasks than workers gives each worker
            several.  A stage with one subtask runs in the master, so
            with ``max_workers=1`` (``parallel_workers=1``) and the
            fan-out following the backend, every stage has one subtask,
            the whole graph runs in the master like the serial backend,
            and no worker is spawned.
    """

    name = "process"
    supports_batch_ingest = True
    supports_process_isolation = True
    supports_checkpoint = True

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self._spec: GraphSpec | None = None
        self._processes: list[multiprocessing.process.BaseProcess] = []
        self._conns: list[Any] = []
        self._stage_index: dict[str, int] = {}
        self._pool = SegmentPool()
        #: Names of segments handed out during the current unit of work.
        self._outstanding: list[str] = []
        self._closed = False

    @property
    def workers(self) -> int:
        """The worker-pool size cap (what ``None`` fan-outs resolve to)."""
        return self.max_workers or default_worker_count()

    # ---------------------------------------------------------------- lifecycle

    def bind_graph(self, spec: GraphSpec) -> None:
        """Bind the stage description and spawn the worker pool eagerly.

        Spawning interpreters is the expensive part of this backend, so
        it happens here — at pipeline-construction time — rather than on
        the first unit of work; steady-state ``run_stage`` calls never
        pay it.  The master reads the stage names and parallelisms from
        ``spec.build()``, which describes the stages without building
        any operator, and spawns ``min(workers, widest multi-subtask
        stage)`` workers — none when every stage has one subtask.

        Uses the ``spawn`` start method unconditionally — fork would
        duplicate the master's thread and lock state, and the paper's
        deployment model (independent task-manager JVMs) is spawn-shaped
        anyway.  Raises ``RuntimeError`` if the stage names are not
        unique (names are the master↔worker stage addressing scheme) or
        if any worker fails to rebuild the stages.
        """
        if self._closed:
            raise RuntimeError("process backend already closed")
        if self._spec is not None:
            raise RuntimeError(
                "process backend already bound to a graph; use one "
                "ProcessBackend instance per job graph"
            )
        stages = spec.build()
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise RuntimeError(
                f"process backend needs unique stage names, got {names}"
            )
        self._spec = spec
        self._stage_index = {name: i for i, name in enumerate(names)}
        widest = max(
            (stage.parallelism for stage in stages if stage.parallelism > 1),
            default=0,
        )
        self._spawn(min(self.workers, widest))

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
            reply = self._recv(index)
            if reply[0] != "ready":
                self.close()
                raise RuntimeError(
                    f"worker {index} failed to build the job graph:\n{reply[1]}"
                )

    def close(self) -> None:
        """Drain and join every worker, unlink every segment (idempotent)."""
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
        self._pool.close()

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
        if self._spec is None or self._closed:
            raise RuntimeError(
                "process backend is not running; bind_graph() a GraphSpec "
                "before executing stages"
            )
        try:
            return self._stage_index[runtime.stage.name]
        except KeyError:
            raise RuntimeError(
                f"stage {runtime.stage.name!r} is not part of the bound "
                f"job graph {sorted(self._stage_index)}"
            ) from None

    def _in_master(self, runtime: StageRuntime) -> bool:
        """Whether the stage runs in the master: it has one subtask.

        Execution and every control query of such a stage use the
        master-side runtime (see the module docstring).  Raises like any
        stage address when no graph is bound.
        """
        self._stage_address(runtime)
        return len(runtime.subtasks) == 1

    def _round_trip(
        self,
        runtime: StageRuntime,
        what: str,
        build_message,
        per_worker_tasks: list[list],
    ) -> list[tuple]:
        """Send one command to every involved worker, gather the replies.

        All sends go out before the first receive so workers overlap.
        Returns every worker's result entries, in worker order.  The
        segments the workers released are settled before a worker's
        failure is raised.
        """
        involved = [
            worker for worker, tasks in enumerate(per_worker_tasks) if tasks
        ]
        for worker in involved:
            self._send(worker, build_message(per_worker_tasks[worker]))
        entries: list[tuple] = []
        released: set[str] = set()
        failure: str | None = None
        for worker in involved:
            reply = self._recv(worker)
            if reply[0] == "error":
                failure = failure or reply[1]
                continue
            entries.extend(reply[1])
            released.update(reply[2])
        self._settle_segments(released)
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
        # subtask order — the order the serial backend records them in.
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

    def _settle_segments(self, released: set[str]) -> None:
        """Recycle or retire every segment handed out this unit of work.

        Segments the workers detached go back to the pool for reuse;
        segments a worker still maps (an output kept a view alive) are
        retired — unlinked and never reused — so a lingering reader can
        never observe a recycled buffer changing under it.
        """
        outstanding = set(self._outstanding)
        for name in self._outstanding:
            if name in released:
                self._pool.release(name)
            else:
                self._pool.retire(name)
        # Late releases — segments a worker retained past an earlier unit
        # whose views have since died — name already-retired segments;
        # the pool ignores unknown names, so recycling them is safe.
        for name in released - outstanding:
            self._pool.release(name)
        self._outstanding = []

    # ---------------------------------------------------------------- execution

    def run_stage(
        self, runtime: StageRuntime, elements: Sequence[Any], ctx: Any = None
    ) -> tuple[list[Any], StageWork]:
        """Partition on the master, execute every subtask in its worker.

        The wall clock starts before partitioning, mirroring the other
        backends, so per-stage ``wall_seconds`` stay comparable.  ``ctx``
        crosses the command pipe and must pickle (ICPE passes the
        snapshot time, an ``int``).
        """
        if self._in_master(runtime):
            return runtime.run(elements, ctx)
        started = _time.perf_counter()
        stage_index = self._stage_address(runtime)
        buckets = runtime.partition(elements)
        workers = len(self._conns)
        self._outstanding = []

        def allocate(nbytes: int):
            segment = self._pool.acquire(nbytes)
            self._outstanding.append(segment.name)
            return segment.name, segment.buf

        per_worker_tasks: list[list] = [[] for _ in range(workers)]
        for subtask_index, bucket in enumerate(buckets):
            per_worker_tasks[subtask_index % workers].append(
                (subtask_index, encode_exchange_elements(bucket, allocate))
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
        """Flush every subtask's state inside its owning worker."""
        if self._in_master(runtime):
            return runtime.finish()
        started = _time.perf_counter()
        stage_index = self._stage_address(runtime)
        workers = len(self._conns)
        self._outstanding = []
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
        """Call ``method`` on each subtask inside its owning worker.

        A one-subtask stage answers in the master.  Otherwise each
        ``(subtask_index, args)`` task goes to the subtask's owning
        worker (``i % workers``, same as execution).  The pipe protocol
        is synchronous request/reply, so by the time every involved
        worker has answered, the pool is drained — no stage work can be
        in flight concurrently with a query.  Replies are merged in
        subtask-index order.
        """
        if self._in_master(runtime):
            return super().query(runtime, method, per_subtask_args)
        stage_index = self._stage_address(runtime)
        workers = len(self._conns)
        per_worker_tasks: list[list] = [[] for _ in range(workers)]
        for task in _subtask_tasks(runtime, per_subtask_args):
            per_worker_tasks[task[0] % workers].append(task)
        merged = self._round_trip(
            runtime,
            method,
            lambda tasks: ("query", stage_index, method, tasks),
            per_worker_tasks,
        )
        merged.sort(key=lambda entry: entry[0])
        return merged
