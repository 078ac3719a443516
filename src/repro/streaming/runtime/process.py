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
pipe round trip.  Control queries (state capture and restore, metrics,
protected and forming sets) for such a stage read the master-side
operator too.

Because operator state cannot be shipped across a process boundary, the
backend must be handed a picklable :class:`~repro.streaming.runtime.base.
GraphSpec` via :meth:`ProcessBackend.bind_graph` before it runs; every
worker rebuilds the full job graph from the spec after spawn and keeps
its own operator instances.  Drivers that route work through the backend
(the ICPE pipeline, ``StreamEnvironment.compile(graph_spec=...)``) do
this automatically.

The keyed exchange stays on the master: elements are bucketed once per
stage with the shared :meth:`StageRuntime.partition` (identical routing
to every other backend), and each worker receives its subtasks' complete
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

Outputs are concatenated in subtask-index order, exactly like the serial
and parallel backends, so the emitted element sequence — and every
detected pattern — is identical by construction.  Worker crashes surface
as a clean :class:`RuntimeError` carrying the exit code; :meth:`close`
drains and joins the pool and unlinks every pooled segment.
"""

from __future__ import annotations

import multiprocessing
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
from repro.state.codec import decode_payload, encode_payload
from repro.streaming.runtime.base import ExecutionBackend, GraphSpec
from repro.streaming.runtime.parallel import default_worker_count
from repro.streaming.runtime.shm import SegmentPool

#: Seconds to wait for a worker to exit voluntarily on close.
_JOIN_TIMEOUT = 5.0


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
        self.runtimes = spec.build().build_runtimes()
        #: Segments currently attached; close is retried after every
        #: message until no exported view keeps the mapping alive.
        self.attached: dict[str, shared_memory.SharedMemory] = {}

    def stage_names(self) -> list[str]:
        return [runtime.stage.name for runtime in self.runtimes]

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

    def collect_states(self, stage_index: int, tasks) -> list[tuple]:
        """Serve a ``state`` command: capture this worker's subtask state.

        ``tasks`` is ``[(subtask_index, known_digest | None), ...]``;
        replies ``(subtask_index, digest, payload_bytes | None)`` per
        stateful subtask, with ``None`` bytes when the digest matches
        what the master already holds (incremental capture).
        """
        runtime = self.runtimes[stage_index]
        results = []
        for subtask_index, known_digest in tasks:
            payload = runtime.subtasks[subtask_index].snapshot_state()
            if payload is None:
                continue
            digest, data = encode_payload(payload)
            results.append(
                (subtask_index, digest, None if digest == known_digest else data)
            )
        return results

    def restore_states(self, stage_index: int, tasks) -> list[tuple]:
        """Serve a ``restore`` command: adopt checkpointed subtask state."""
        runtime = self.runtimes[stage_index]
        for subtask_index, data in tasks:
            runtime.subtasks[subtask_index].restore_state(decode_payload(data))
        return []

    def collect_metrics(self, stage_index: int, indices) -> list[tuple]:
        """Serve a ``metrics`` command: per-subtask memory accounting."""
        runtime = self.runtimes[stage_index]
        results = []
        for subtask_index in indices:
            metrics = runtime.subtasks[subtask_index].state_metrics()
            if metrics:
                results.append((subtask_index, metrics))
        return results

    def collect_protected(self, stage_index: int, indices) -> list[tuple]:
        """Serve a ``protected`` command: per-subtask shed-protected oids."""
        runtime = self.runtimes[stage_index]
        results = []
        for subtask_index in indices:
            query = getattr(
                runtime.subtasks[subtask_index], "protected_oids", None
            )
            if query is None:
                continue
            protected = query()
            if protected:
                results.append((subtask_index, protected))
        return results

    def collect_forming(self, stage_index: int, indices) -> list[tuple]:
        """Serve a ``forming`` command: per-subtask forming descriptors."""
        runtime = self.runtimes[stage_index]
        results = []
        for subtask_index in indices:
            query = getattr(
                runtime.subtasks[subtask_index], "forming_candidates", None
            )
            if query is None:
                continue
            forming = query()
            if forming:
                results.append((subtask_index, forming))
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
    """Entry point of one worker process: build the graph, serve the pipe.

    Replies ``("ready", stage_names)`` after a successful build, then
    answers ``run`` / ``finish`` / ``state`` / ``restore`` / ``metrics``
    / ``protected`` / ``forming`` commands with ``("ok", results, released_segments)`` until a
    ``close`` command (or a dropped pipe) ends the loop.  Any exception travels back as ``("error",
    traceback)`` instead of killing the worker.
    """
    try:
        state = _WorkerState(spec)
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    conn.send(("ready", state.stage_names()))
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
            elif op == "state":
                _, stage_index, tasks = message
                results = state.collect_states(stage_index, tasks)
            elif op == "restore":
                _, stage_index, tasks = message
                results = state.restore_states(stage_index, tasks)
            elif op == "metrics":
                _, stage_index, indices = message
                results = state.collect_metrics(stage_index, indices)
            elif op == "protected":
                _, stage_index, indices = message
                results = state.collect_protected(stage_index, indices)
            elif op == "forming":
                _, stage_index, indices = message
                results = state.collect_forming(stage_index, indices)
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
        max_workers: pool size; ``None`` picks
            :func:`~repro.streaming.runtime.parallel.default_worker_count`
            (affinity-aware).  Stages with fewer subtasks than workers
            leave workers idle for that stage; stages with more give
            each worker several subtasks.  A stage with one subtask runs
            in the master, so with ``max_workers=1`` (``parallel_workers
            =1``) and the fan-out following the backend, every stage has
            one subtask and the whole graph runs in the master, like the
            serial backend; the one worker is still spawned and idles.
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
        """The effective worker-pool size."""
        return self.max_workers or default_worker_count()

    # ---------------------------------------------------------------- lifecycle

    def bind_graph(self, spec: GraphSpec) -> None:
        """Bind the job description and warm the worker pool up eagerly.

        Spawning interpreters is the expensive part of this backend, so
        it happens here — at pipeline-construction time — rather than on
        the first unit of work; steady-state ``run_stage`` calls never
        pay it.
        """
        if self._closed:
            raise RuntimeError("process backend already closed")
        if self._processes:
            raise RuntimeError(
                "process backend already bound to a graph; use one "
                "ProcessBackend instance per job graph"
            )
        self._spec = spec
        self.warm_up()

    def warm_up(self) -> None:
        """Spawn the workers and wait for every graph rebuild (idempotent).

        Uses the ``spawn`` start method unconditionally — fork would
        duplicate the master's thread and lock state, and the paper's
        deployment model (independent task-manager JVMs) is spawn-shaped
        anyway.  Raises ``RuntimeError`` if any worker fails to rebuild
        the graph, or if the graph's stage names are not unique (names
        are the master↔worker stage addressing scheme).
        """
        if self._processes:
            return
        if self._spec is None:
            raise RuntimeError(
                "process backend has no job graph; call "
                "bind_graph(GraphSpec(builder, args)) first — the ICPE "
                "pipeline and StreamEnvironment.compile(graph_spec=...) "
                "do this automatically"
            )
        ctx = multiprocessing.get_context("spawn")
        for index in range(self.workers):
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
        names: list[str] | None = None
        for index in range(self.workers):
            reply = self._recv(index)
            if reply[0] != "ready":
                self.close()
                raise RuntimeError(
                    f"worker {index} failed to build the job graph:\n{reply[1]}"
                )
            names = reply[1]
        assert names is not None
        if len(set(names)) != len(names):
            self.close()
            raise RuntimeError(
                f"process backend needs unique stage names, got {names}"
            )
        self._stage_index = {name: i for i, name in enumerate(names)}

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
        if not self._processes:
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

    def _dispatch(
        self,
        runtime: StageRuntime,
        build_message,
        per_worker_tasks: list[list],
        elements_in: int,
        started: float,
    ) -> tuple[list[Any], StageWork]:
        """Send one command to every involved worker, merge the replies.

        All sends go out before the first receive so workers overlap;
        outputs are reassembled in subtask-index order regardless of
        which worker produced them.
        """
        involved = [
            worker for worker, tasks in enumerate(per_worker_tasks) if tasks
        ]
        for worker in involved:
            self._send(worker, build_message(per_worker_tasks[worker]))
        parallelism = len(runtime.subtasks)
        by_subtask: list[list[Any] | None] = [None] * parallelism
        busy = [0.0] * parallelism
        spans_by_subtask: list[list | None] = [None] * parallelism
        released: set[str] = set()
        failure: str | None = None
        for worker in involved:
            reply = self._recv(worker)
            if reply[0] == "error":
                failure = failure or reply[1]
                continue
            for subtask_index, outputs, seconds, spans in reply[1]:
                by_subtask[subtask_index] = decode_pattern_runs(outputs)
                busy[subtask_index] = seconds
                spans_by_subtask[subtask_index] = spans
            released.update(reply[2])
        self._settle_segments(released)
        if failure is not None:
            raise RuntimeError(
                f"process-backend worker failed in stage "
                f"{runtime.stage.name!r}:\n{failure}"
            )
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
        per_worker_tasks: list[list] = [[] for _ in range(workers)]
        for subtask_index in range(len(runtime.subtasks)):
            per_worker_tasks[subtask_index % workers].append(subtask_index)
        return self._dispatch(
            runtime,
            lambda indices: ("finish", stage_index, indices),
            per_worker_tasks,
            elements_in=0,
            started=started,
        )

    # ---------------------------------------------------------------- state

    def _control(
        self, runtime: StageRuntime, op: str, per_subtask_args: list
    ) -> list[tuple]:
        """Round-trip one state command (``state``/``restore``/``metrics``).

        ``per_subtask_args`` carries one entry per subtask, routed to the
        subtask's owning worker (``i % workers``, same as execution).
        The pipe protocol is synchronous request/reply, so by the time
        every involved worker has answered, the pool is drained — no
        stage work can be in flight concurrently with a state command.
        Replies are merged in subtask-index order.
        """
        stage_index = self._stage_address(runtime)
        workers = len(self._conns)
        per_worker_tasks: list[list] = [[] for _ in range(workers)]
        for subtask_index, item in enumerate(per_subtask_args):
            if item is None:
                continue
            per_worker_tasks[subtask_index % workers].append(item)
        involved = [
            worker for worker, tasks in enumerate(per_worker_tasks) if tasks
        ]
        for worker in involved:
            self._send(worker, (op, stage_index, per_worker_tasks[worker]))
        merged: list[tuple] = []
        failure: str | None = None
        for worker in involved:
            reply = self._recv(worker)
            if reply[0] == "error":
                failure = failure or reply[1]
                continue
            merged.extend(reply[1])
            self._pool_release_late(reply[2])
        if failure is not None:
            raise RuntimeError(
                f"process-backend worker failed handling {op!r} for stage "
                f"{runtime.stage.name!r}:\n{failure}"
            )
        merged.sort(key=lambda entry: entry[0])
        return merged

    def _pool_release_late(self, released) -> None:
        """Recycle segments a worker let go of alongside a state reply."""
        for name in released:
            self._pool.release(name)

    def collect_states(
        self,
        runtime: StageRuntime,
        known_digests: dict[int, str] | None = None,
    ) -> list[tuple[int, str, bytes | None]]:
        """Capture the stage's operator state through the worker protocol."""
        if self._in_master(runtime):
            return super().collect_states(runtime, known_digests)
        known = known_digests or {}
        args = [
            (index, known.get(index))
            for index in range(len(runtime.subtasks))
        ]
        return self._control(runtime, "state", args)

    def restore_states(
        self, runtime: StageRuntime, payloads: Sequence[tuple[int, bytes]]
    ) -> None:
        """Restore checkpointed state into each subtask's owning worker."""
        if self._in_master(runtime):
            return super().restore_states(runtime, payloads)
        args: list = [None] * len(runtime.subtasks)
        for index, data in payloads:
            args[index] = (index, data)
        self._control(runtime, "restore", args)

    def collect_metrics(
        self, runtime: StageRuntime
    ) -> list[tuple[int, dict[str, int]]]:
        """Gather per-subtask memory accounting through the worker protocol."""
        if self._in_master(runtime):
            return super().collect_metrics(runtime)
        args = list(range(len(runtime.subtasks)))
        return self._control(runtime, "metrics", args)

    def collect_protected(
        self, runtime: StageRuntime
    ) -> list[tuple[int, frozenset[int]]]:
        """Gather shed-protected oid sets through the worker protocol."""
        if self._in_master(runtime):
            return super().collect_protected(runtime)
        args = list(range(len(runtime.subtasks)))
        return self._control(runtime, "protected", args)

    def collect_forming(
        self, runtime: StageRuntime
    ) -> list[tuple[int, tuple[tuple[int, int, int, int, int], ...]]]:
        """Gather forming-candidate descriptors through the worker protocol."""
        if self._in_master(runtime):
            return super().collect_forming(runtime)
        args = list(range(len(runtime.subtasks)))
        return self._control(runtime, "forming", args)
