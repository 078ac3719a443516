"""The execution-backend contract and the backend-generic drivers.

An :class:`ExecutionBackend` decides *how* one stage's subtasks execute for
one unit of work — the dataflow semantics (keyed routing, per-subtask
state, batch triggers) are fixed by
:class:`~repro.streaming.dataflow.StageRuntime` and shared by every
backend.  Two implementations ship:

* :class:`~repro.streaming.runtime.serial.SerialBackend` — subtasks run
  sequentially in the calling process (deterministic, zero overhead, the
  default);
* :class:`~repro.streaming.runtime.process.ProcessBackend` — subtasks of
  multi-subtask stages run in a shared-nothing pool of persistent worker
  processes (a single-subtask stage runs in the caller); columnar
  keyed-exchange envelopes travel through ``multiprocessing.
  shared_memory`` segments.  Operator state cannot be shipped across a
  process boundary, so this backend additionally needs a picklable
  :class:`GraphSpec` — the recipe each worker uses to rebuild its own
  operator instances — bound via :meth:`ExecutionBackend.bind_graph`.

Control traffic (state capture and restore, memory metrics, the
shed-protected and forming sets) is one operation,
:meth:`ExecutionBackend.query`: call a named operator method on each
subtask and gather the answers.

The drivers :func:`execute_unit` and :func:`execute_finish` chain stages
together; the ICPE pipeline and the bench harness both run through them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.streaming.dataflow import (
    KeyedStage,
    StageRuntime,
    StageWork,
    count_elements,
)

BACKENDS = ("serial", "process")


@dataclass(frozen=True, eq=False, slots=True)
class GraphSpec:
    """A picklable recipe for rebuilding a stage list in another process.

    Operator factories are closures, so a list of
    :class:`~repro.streaming.dataflow.KeyedStage` cannot cross a process
    boundary.  What *can* cross is the way the stages were described: a
    module-level builder callable plus plain-data arguments.  Each worker
    of a process backend calls ``builder(*args, **kwargs)`` after spawn
    and instantiates its own operator state from the result — the
    shared-nothing contract.

    ``builder`` must be importable by qualified name (a module-level
    function or a staticmethod on an importable class — not a lambda or
    a local closure), must return a list of ``KeyedStage`` descriptions,
    and ``args`` / ``kwargs`` must pickle.
    """

    builder: Callable[..., list[KeyedStage]]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)

    def build(self) -> list[KeyedStage]:
        """Run the builder: stage descriptions, no operator instances."""
        return self.builder(*self.args, **self.kwargs)


class ExecutionBackend(ABC):
    """Strategy deciding how one stage's subtasks execute.

    Backends are reusable across units of work and across jobs; they may
    own resources (worker pools) which :meth:`close` releases.  They also
    work as context managers.
    """

    name: str = "abstract"

    #: Whether the backend routes columnar :class:`~repro.model.batch.
    #: SnapshotBatch` envelopes through its keyed exchanges.  Backends
    #: that drive the shared :class:`StageRuntime` ``partition`` /
    #: ``run_subtask`` operations get envelope handling for free and
    #: declare ``True``; the conservative default protects third-party
    #: backends with custom exchange implementations — the pipeline
    #: falls back to per-row elements for them.
    supports_batch_ingest: bool = False

    #: Whether the backend runs subtasks in separate OS processes
    #: (shared-nothing address spaces, no GIL contention between
    #: subtasks).  Such backends cannot receive operator state from the
    #: caller and instead rebuild it per worker from a bound
    #: :class:`GraphSpec`.  The built-in one isolates only stages with
    #: more than one subtask: a single-subtask stage runs on the
    #: caller's runtime, so its operator (ICPE's cluster stage) is live
    #: in the caller on every built-in backend.
    supports_process_isolation: bool = False

    #: Whether the backend can capture and restore operator state through
    #: :meth:`query` (``capture_state`` / ``restore_encoded``).  The
    #: in-process default walks ``runtime.subtasks`` directly and is
    #: correct for any backend whose operator instances live in the
    #: calling process; process-isolated backends must route the query
    #: through their worker protocol instead.  Conservative default for
    #: third-party backends: sessions refuse ``checkpoint()`` unless the
    #: backend opts in.
    supports_checkpoint: bool = False

    @property
    def workers(self) -> int:
        """Subtasks this backend can run at once (1 unless overridden).

        The ICPE pipeline sizes every stage whose parallelism the config
        leaves as ``None`` to this count, so physical fan-out follows
        the hardware the backend drives.
        """
        return 1

    def bind_graph(self, spec: GraphSpec) -> None:
        """Offer the backend a picklable description of the job graph.

        Drivers that know how their stages were described (the ICPE
        pipeline, the process sweep of the bench harness) call this
        before running.  In-process backends ignore it — their
        subtask state arrives fully built inside each
        :class:`StageRuntime` — while process-isolated backends use it
        to rebuild operator state inside every worker.
        """

    @abstractmethod
    def run_stage(
        self, runtime: StageRuntime, elements: Sequence[Any], ctx: Any = None
    ) -> tuple[list[Any], StageWork]:
        """Execute one stage over one unit of work.

        Must behave exactly like the serial reference: elements are
        bucketed with ``runtime.partition``, each subtask processes its
        bucket in order followed by ``end_batch(ctx)``, and outputs are
        concatenated in subtask-index order — so every backend produces
        the identical output sequence.
        """

    @abstractmethod
    def finish_stage(
        self, runtime: StageRuntime
    ) -> tuple[list[Any], StageWork]:
        """Flush one stage's subtask state at end of stream."""

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
        :meth:`~repro.streaming.dataflow.StageRuntime.query`).  This
        default walks the operator instances in the calling process;
        process-isolated backends route the call through their workers.
        """
        return runtime.query(method, _subtask_tasks(runtime, per_subtask_args))

    def close(self) -> None:
        """Release any resources the backend holds (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        """Context-manager entry: the backend itself."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: release resources."""
        self.close()


def _subtask_tasks(
    runtime: StageRuntime, per_subtask_args: Sequence[tuple | None] | None
) -> list[tuple[int, tuple]]:
    """``(subtask_index, args)`` pairs for a query, skipped subtasks out."""
    if per_subtask_args is None:
        return [(index, ()) for index in range(len(runtime.subtasks))]
    return [
        (index, args)
        for index, args in enumerate(per_subtask_args)
        if args is not None
    ]


def _default_backend() -> ExecutionBackend:
    from repro.streaming.runtime.serial import SerialBackend

    return SerialBackend()


def resolve_backend(
    backend: str | ExecutionBackend | None,
    max_workers: int | None = None,
) -> ExecutionBackend:
    """Turn a backend name (or instance, or ``None``) into a backend.

    ``None`` yields a :class:`SerialBackend`.  An
    :class:`ExecutionBackend` instance passes through unchanged.  Every
    name — including ``"serial"`` and ``"process"`` — resolves through
    the plugin registry (kind ``"backend"``), so third-party backends
    registered via the ``repro.plugins`` entry-point group (and even
    replacements of the built-in names) run the job graph without any
    change here.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        return _default_backend()
    from repro.registry import UnknownPluginError, default_registry

    registry = default_registry()
    try:
        spec = registry.get("backend", backend)
    except UnknownPluginError:
        raise ValueError(
            f"unknown execution backend {backend!r}; registered: "
            f"{list(registry.names('backend'))}"
        ) from None
    return spec.create(max_workers=max_workers)


def execute_unit(
    runtimes: Sequence[StageRuntime],
    elements: Sequence[Any],
    ctx: Any = None,
    backend: ExecutionBackend | None = None,
) -> tuple[list[Any], list[StageWork]]:
    """Push one unit of work through every stage under a backend."""
    if backend is None:
        backend = _default_backend()
    works: list[StageWork] = []
    current: Sequence[Any] = elements
    for runtime in runtimes:
        current, work = backend.run_stage(runtime, current, ctx)
        works.append(work)
    return list(current), works


def execute_finish(
    runtimes: Sequence[StageRuntime],
    backend: ExecutionBackend | None = None,
) -> tuple[list[Any], list[StageWork]]:
    """Flush stage state at end of stream, cascading outputs downstream."""
    if backend is None:
        backend = _default_backend()
    works: list[StageWork] = []
    carried: list[Any] = []
    for runtime in runtimes:
        if carried:
            carried, work_run = backend.run_stage(runtime, carried, None)
            flushed, work_fin = backend.finish_stage(runtime)
            carried = list(carried) + flushed
            busy = [
                a + b
                for a, b in zip(work_run.busy_seconds, work_fin.busy_seconds)
            ]
            works.append(
                StageWork(
                    name=runtime.stage.name,
                    busy_seconds=busy,
                    elements_in=work_run.elements_in,
                    elements_out=count_elements(carried),
                    wall_seconds=work_run.wall_seconds + work_fin.wall_seconds,
                )
            )
        else:
            carried, work = backend.finish_stage(runtime)
            works.append(work)
    return carried, works
