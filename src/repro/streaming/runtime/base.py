"""The execution-backend contract and the backend-generic drivers.

An :class:`ExecutionBackend` decides *how* one stage's subtasks execute for
one unit of work — the dataflow semantics (keyed routing, per-subtask
state, batch triggers) are fixed by
:class:`~repro.streaming.dataflow.StageRuntime` and shared by every
backend.  Three implementations ship:

* :class:`~repro.streaming.runtime.serial.SerialBackend` — subtasks run
  sequentially in the calling thread (deterministic, zero overhead, the
  default);
* :class:`~repro.streaming.runtime.parallel.ParallelBackend` — subtasks of
  a stage run concurrently on a worker pool with real wall-clock
  measurement.
* :class:`~repro.streaming.runtime.process.ProcessBackend` — subtasks of
  multi-subtask stages run in a shared-nothing pool of persistent worker
  processes (a single-subtask stage runs in the caller); columnar
  keyed-exchange envelopes travel through ``multiprocessing.
  shared_memory`` segments.  Operator state cannot be shipped across a
  process boundary, so this backend additionally needs a picklable
  :class:`GraphSpec` — the recipe each worker uses to rebuild its own
  operator instances — bound via :meth:`ExecutionBackend.bind_graph`.

The drivers :func:`execute_unit` and :func:`execute_finish` chain stages
together and are what :class:`~repro.streaming.environment.Job` and the
legacy :func:`~repro.streaming.dataflow.run_unit` /
:func:`~repro.streaming.dataflow.finish_all` entry points delegate to.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.streaming.dataflow import StageRuntime, StageWork, count_elements

BACKENDS = ("serial", "parallel", "process")


@dataclass(frozen=True, eq=False, slots=True)
class GraphSpec:
    """A picklable recipe for rebuilding a job graph in another process.

    Operator factories are closures (the fluent builder wraps them in
    lambdas), so a compiled :class:`~repro.streaming.runtime.graph.
    JobGraph` cannot cross a process boundary.  What *can* cross is the
    way the graph was described: a module-level builder callable plus
    plain-data arguments.  Each worker of a process backend calls
    ``builder(*args, **kwargs)`` after spawn and instantiates its own
    operator state from the result — the shared-nothing contract.

    ``builder`` must be importable by qualified name (a module-level
    function or a staticmethod on an importable class — not a lambda or
    a local closure), and ``args`` / ``kwargs`` must pickle.  It may
    return a :class:`JobGraph`, a
    :class:`~repro.streaming.environment.StreamEnvironment`, or a
    legacy :class:`~repro.streaming.dataflow.Topology`.
    """

    builder: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)

    def build(self):
        """Run the builder and normalise its result to a ``JobGraph``."""
        from repro.streaming.runtime.graph import JobGraph

        described = self.builder(*self.args, **self.kwargs)
        if isinstance(described, JobGraph):
            return described
        if hasattr(described, "graph"):  # StreamEnvironment
            return described.graph()
        if hasattr(described, "to_graph"):  # legacy Topology
            return described.to_graph()
        raise TypeError(
            f"GraphSpec builder must return a JobGraph, StreamEnvironment "
            f"or Topology, got {type(described).__name__}"
        )


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

    #: Whether the backend can capture and restore operator state via
    #: :meth:`collect_states` / :meth:`restore_states`.  The in-process
    #: defaults below walk ``runtime.subtasks`` directly and are correct
    #: for any backend whose operator instances live in the calling
    #: process; process-isolated backends must route the calls through
    #: their worker protocol instead.  Conservative default for
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

        Drivers that know how their graph was described (the ICPE
        pipeline, ``StreamEnvironment.compile(graph_spec=...)``) call
        this before running.  In-process backends ignore it — their
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

    def collect_states(
        self,
        runtime: StageRuntime,
        known_digests: dict[int, str] | None = None,
    ) -> list[tuple[int, str, bytes | None]]:
        """Capture the stage's operator state for a checkpoint.

        Returns one ``(subtask_index, digest, payload_bytes)`` triple per
        *stateful* subtask (operators whose ``snapshot_state()`` returns
        ``None`` are skipped).  When ``known_digests`` maps a subtask
        index to the digest the caller already holds, an unchanged
        operator answers with ``payload_bytes = None`` — the incremental
        capture contract: the caller reuses its cached bytes.
        """
        from repro.state.codec import encode_payload

        known = known_digests or {}
        entries: list[tuple[int, str, bytes | None]] = []
        for index, subtask in enumerate(runtime.subtasks):
            payload = subtask.snapshot_state()
            if payload is None:
                continue
            digest, data = encode_payload(payload)
            entries.append(
                (index, digest, None if known.get(index) == digest else data)
            )
        return entries

    def restore_states(
        self, runtime: StageRuntime, payloads: Sequence[tuple[int, bytes]]
    ) -> None:
        """Restore previously captured state into the stage's subtasks."""
        from repro.state.codec import decode_payload

        for index, data in payloads:
            runtime.subtasks[index].restore_state(decode_payload(data))

    def collect_metrics(
        self, runtime: StageRuntime
    ) -> list[tuple[int, dict[str, int]]]:
        """Gather per-subtask memory-accounting metrics for one stage."""
        entries: list[tuple[int, dict[str, int]]] = []
        for index, subtask in enumerate(runtime.subtasks):
            metrics = subtask.state_metrics()
            if metrics:
                entries.append((index, metrics))
        return entries

    def collect_protected(
        self, runtime: StageRuntime
    ) -> list[tuple[int, frozenset[int]]]:
        """Gather per-subtask shed-protected oid sets for one stage.

        Walks the in-process operator instances; subtasks without a
        ``protected_oids`` method (non-enumeration operators) are
        skipped, as are empty sets.  Process-isolated backends route
        this through their worker protocol instead, exactly like
        :meth:`collect_metrics`.
        """
        entries: list[tuple[int, frozenset[int]]] = []
        for index, subtask in enumerate(runtime.subtasks):
            query = getattr(subtask, "protected_oids", None)
            if query is None:
                continue
            protected = query()
            if protected:
                entries.append((index, protected))
        return entries

    def collect_forming(
        self, runtime: StageRuntime
    ) -> list[tuple[int, tuple[tuple[int, int, int, int, int], ...]]]:
        """Gather per-subtask forming-candidate descriptors for one stage.

        Walks the in-process operator instances; subtasks without a
        ``forming_candidates`` method (non-enumeration operators) are
        skipped, as are empty results.  Process-isolated backends route
        this through their worker protocol instead, exactly like
        :meth:`collect_protected`.
        """
        entries: list[tuple[int, tuple]] = []
        for index, subtask in enumerate(runtime.subtasks):
            query = getattr(subtask, "forming_candidates", None)
            if query is None:
                continue
            forming = query()
            if forming:
                entries.append((index, forming))
        return entries

    def close(self) -> None:
        """Release any resources the backend holds (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        """Context-manager entry: the backend itself."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: release resources."""
        self.close()


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
    name — including ``"serial"`` and ``"parallel"`` — resolves through
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
            f"{registry.names('backend')}"
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
