"""Operators, keyed stages and the stage runtime.

A miniature of Flink's programming model sufficient for ICPE's job graph
(Fig. 3 / Fig. 5): the pipeline is a list of *stages*, each stage has a
number of parallel *subtasks* hosting one operator instance each, and
records travel between stages through *keyed exchanges* (a stable hash of
the key modulo the downstream parallelism — Flink's key-group routing).

This module holds the primitives: :class:`Operator`, :class:`KeyedStage`
and :class:`StageRuntime` (instantiated subtasks plus routing).  *How* a
stage's subtasks execute — in the calling process, or in a pool of worker
processes — is the province of the execution backends in
:mod:`repro.streaming.runtime`; both consume the same ``partition`` /
``run_subtask`` / ``finish_subtask`` operations defined here, and answer
control queries through :meth:`StageRuntime.query`, so routing,
per-subtask semantics and state capture are identical by construction.

The drivers execute one *unit of work* (for ICPE: one snapshot) at a time,
measuring the busy time every subtask spends, which the cluster cost model
(:mod:`repro.streaming.cluster`) turns into distributed latency and
throughput figures.  Running the real algorithm code under measurement —
rather than simulating costs — keeps the relative comparisons between
methods meaningful.
"""

from __future__ import annotations

import time as _time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.model.batch import ENVELOPES, PartitionBatch, SnapshotBatch
from repro.model.pattern import CoMovementPattern
from repro.state.codec import decode_payload, encode_payload
from repro.streaming.hashing import stable_hash

_from_sorted = CoMovementPattern._from_sorted


class Operator(ABC):
    """One parallel operator instance (a subtask's logic)."""

    def open(self, subtask_index: int, parallelism: int) -> None:
        """Called once before any element is processed."""

    @abstractmethod
    def process(self, element: Any) -> Iterable[Any]:
        """Handle one element; yield downstream elements."""

    def process_batch(
        self, batch: SnapshotBatch | PartitionBatch
    ) -> Iterable[Any]:
        """Handle one columnar envelope routed to this subtask.

        The default unrolls the envelope's rows through :meth:`process`,
        so every row-oriented operator is batch-transparent; columnar
        operators (the kernel clustering stage, the batched enumerate
        stage) override this to consume the columns wholesale and never
        box per-row objects.
        """
        out: list[Any] = []
        for row in batch.rows():
            out.extend(self.process(row))
        return out

    def end_batch(self, ctx: Any) -> Iterable[Any]:
        """Per-unit-of-work trigger (ICPE: once per snapshot, ctx = time).

        Called on *every* subtask after the batch's elements, including
        subtasks that received none — operators with time-driven state
        (windows, variable bit strings) rely on the tick.
        """
        return ()

    def finish(self) -> Iterable[Any]:
        """Flush state at end of stream; yield remaining elements."""
        return ()

    def snapshot_state(self) -> Any:
        """Serializable state payload, or ``None`` for stateless operators.

        The payload must be plain picklable data (dicts, tuples, ints,
        frozen model dataclasses) capturing everything :meth:`restore_state`
        needs to make a freshly ``open``-ed instance behave identically.
        Checkpoints are taken at unit-of-work boundaries, so transient
        per-unit buffers (cleared by :meth:`end_batch`) need not appear.
        """
        return None

    def restore_state(self, payload: Any) -> None:
        """Adopt a payload produced by :meth:`snapshot_state`.

        Only invoked with payloads this operator class produced; the
        default refuses because the base class never produces one.
        """
        raise NotImplementedError(
            f"{type(self).__name__} produced no state payload to restore"
        )

    def state_metrics(self) -> dict[str, int]:
        """Per-operator memory accounting (entry counts, eviction tallies).

        Stateless operators return an empty dict; stateful ones report
        the sizes of their retained structures so sessions can surface
        per-component accounting in ``Session.result()``.
        """
        return {}

    def capture_state(
        self, known_digest: str | None = None
    ) -> tuple[str, bytes | None] | None:
        """Encode :meth:`snapshot_state` for a checkpoint.

        Returns ``(digest, payload_bytes)``, or ``None`` for a stateless
        operator.  When ``known_digest`` equals the digest, the bytes are
        ``None``: the caller already holds them (incremental capture), so
        an unchanged payload never crosses a process boundary.
        """
        payload = self.snapshot_state()
        if payload is None:
            return None
        digest, data = encode_payload(payload)
        return digest, None if digest == known_digest else data

    def restore_encoded(self, data: bytes) -> None:
        """Adopt payload bytes made by :meth:`capture_state`."""
        self.restore_state(decode_payload(data))


_ENVELOPE_TYPES = frozenset(ENVELOPES)


def count_elements(elements: Sequence[Any]) -> int:
    """Logical element count of a unit of work (envelopes count rows).

    Keeps element counts comparable between the per-element and the
    batch-shaped exchange: a columnar envelope contributes its row count,
    not 1, wherever it sits in the sequence.
    """
    count = len(elements)
    # Most element lists hold no envelope: a C-level scan of the exact
    # types settles those without a Python step per element.
    if _ENVELOPE_TYPES.isdisjoint(map(type, elements)):
        return count
    for element in elements:
        if type(element) in _ENVELOPE_TYPES:
            count += len(element) - 1
    return count


class ShmEnvelope:
    """A columnar envelope in transit through a shared-memory segment.

    The picklable *token* a process backend ships through its command
    pipe in place of a :class:`~repro.model.batch.SnapshotBatch`: the
    column data already sits in a ``multiprocessing.shared_memory``
    segment, so only the segment name and the batch's layout descriptor
    (the ``meta`` dict from :meth:`SnapshotBatch.to_shm`) cross the pipe.
    The receiver attaches the segment and rebuilds the batch as
    zero-copy views via :func:`decode_exchange_elements`.
    """

    __slots__ = ("segment", "meta")

    def __init__(self, segment: str, meta: dict):
        self.segment = segment
        self.meta = meta

    def __repr__(self) -> str:
        return f"ShmEnvelope(segment={self.segment!r}, n={self.meta.get('n')})"

    def __reduce__(self):
        return (ShmEnvelope, (self.segment, self.meta))


def encode_exchange_elements(
    elements: Sequence[Any],
    allocate: Callable[[int], tuple[str, Any]],
) -> list[Any]:
    """Swap array-backed envelopes in a bucket for shared-memory tokens.

    ``allocate(nbytes)`` returns ``(segment_name, writable_buffer)`` —
    the process backend passes its segment pool's allocator.  Non-empty
    :class:`~repro.model.batch.SnapshotBatch` envelopes have their
    columns written into a fresh segment and travel as
    :class:`ShmEnvelope` tokens; everything else (plain elements,
    partition envelopes, empty batches) passes through unchanged and
    rides the pickle path of whatever pipe carries the bucket.
    """
    encoded: list[Any] = []
    for element in elements:
        if isinstance(element, SnapshotBatch) and len(element):
            name, buffer = allocate(element.shm_nbytes())
            encoded.append(ShmEnvelope(name, element.to_shm(buffer)))
        else:
            encoded.append(element)
    return encoded


def decode_exchange_elements(
    elements: Sequence[Any],
    attach: Callable[[str], Any],
) -> list[Any]:
    """Rebuild batches from the tokens :func:`encode_exchange_elements` made.

    ``attach(segment_name)`` returns the segment's buffer; the batch
    columns become zero-copy read-only views over it, so the caller must
    keep the segment mapped until the decoded elements are consumed.
    """
    decoded: list[Any] = []
    for element in elements:
        if isinstance(element, ShmEnvelope):
            decoded.append(
                SnapshotBatch.from_shm(attach(element.segment), element.meta)
            )
        else:
            decoded.append(element)
    return decoded


class PatternColumns:
    """A run of patterns in transit through a reply pipe, as two columns.

    The token :func:`encode_pattern_runs` puts in place of each maximal
    run of exact :class:`~repro.model.pattern.CoMovementPattern`
    elements: the runs' object tuples and time sequences as two parallel
    lists.  Pickling two lists costs one opcode stream per column instead
    of one ``__reduce__`` call per pattern, and sequences shared between
    patterns stay shared through pickle's memo.
    """

    __slots__ = ("objects", "times")

    def __init__(self, objects: list, times: list):
        self.objects = objects
        self.times = times

    def __repr__(self) -> str:
        return f"PatternColumns(n={len(self.objects)})"

    def __reduce__(self):
        return (PatternColumns, (self.objects, self.times))


_objects_of = attrgetter("objects")
_times_of = attrgetter("times")


def encode_pattern_runs(elements: list[Any]) -> list[Any]:
    """Replace each maximal run of exact patterns by one column token.

    Only elements whose type *is* ``CoMovementPattern`` join a run; a
    subclass instance (which may carry more state) and every other
    element pass through unchanged, so :func:`decode_pattern_runs`
    restores the same sequence with the same exact types.  A list with
    no pattern is returned as is.
    """
    kinds = list(map(type, elements))
    count = kinds.count(CoMovementPattern)
    if not count:
        return elements
    if count == len(elements):
        return [
            PatternColumns(
                list(map(_objects_of, elements)),
                list(map(_times_of, elements)),
            )
        ]
    encoded: list[Any] = []
    run: PatternColumns | None = None
    for element, kind in zip(elements, kinds):
        if kind is CoMovementPattern:
            if run is None:
                run = PatternColumns([], [])
                encoded.append(run)
            run.objects.append(element.objects)
            run.times.append(element.times)
        else:
            run = None
            encoded.append(element)
    return encoded


def decode_pattern_runs(elements: list[Any]) -> list[Any]:
    """Rebuild the patterns :func:`encode_pattern_runs` turned into columns.

    Patterns are rebuilt through the trusted constructor (their object
    tuples were sorted when they were built).  A list without a token is
    returned as is.
    """
    if PatternColumns not in map(type, elements):
        return elements
    decoded: list[Any] = []
    for element in elements:
        if type(element) is PatternColumns:
            decoded.extend(
                map(_from_sorted, element.objects, element.times)
            )
        else:
            decoded.append(element)
    return decoded


@dataclass(slots=True)
class KeyedStage:
    """One stage of the topology.

    Attributes:
        name: stage name (appears in metrics).
        operator_factory: builds one operator instance per subtask.
        parallelism: number of subtasks.
        key_fn: maps an incoming element to its routing key; ``None``
            broadcasts every element to subtask 0 (a sink-like stage).
    """

    name: str
    operator_factory: Callable[[], Operator]
    parallelism: int
    key_fn: Callable[[Any], Hashable] | None = None

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ValueError(
                f"stage {self.name!r}: parallelism must be >= 1, "
                f"got {self.parallelism}"
            )


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One traced operator invocation: a subtask run over one unit.

    The telemetry span of the observability subsystem.  Recorded at the
    invocation site (:meth:`StageRuntime.run_subtask` /
    :meth:`StageRuntime.finish_subtask`), so every execution backend —
    including process workers, which ship their spans back through the
    reply protocol — produces the identical span stream for the same
    work.  ``busy_seconds`` is wall-clock and therefore the only
    non-deterministic field; everything else is event-for-event
    reproducible across backends.

    Attributes:
        stage: stage name.
        subtask: subtask index within the stage.
        time: the unit-of-work context (ICPE: snapshot time; ``None``
            for finish spans and context-free drivers).
        kind: ``"unit"`` for a batch run, ``"finish"`` for the
            end-of-stream flush.
        elements_in: logical elements routed to the subtask.
        elements_out: elements the subtask emitted.
        busy_seconds: wall time the invocation took.
    """

    stage: str
    subtask: int
    time: Any
    kind: str
    elements_in: int
    elements_out: int
    busy_seconds: float


@dataclass(slots=True)
class StageWork:
    """Busy time of one stage during one unit of work, per subtask.

    ``wall_seconds`` is the real elapsed time the stage took under the
    executing backend — for the serial backend this approximates the sum
    of the busy times, for the process backend it is the overlapped
    elapsed time of the workers (the quantity backend-scalability
    benchmarks compare).
    """

    name: str
    busy_seconds: list[float]
    elements_in: int
    elements_out: int
    wall_seconds: float = 0.0

    @property
    def parallelism(self) -> int:
        """Number of subtasks measured."""
        return len(self.busy_seconds)


class StageRuntime:
    """Instantiated subtasks of one stage plus keyed routing.

    Execution backends drive a runtime exclusively through
    :meth:`partition`, :meth:`run_subtask` and :meth:`finish_subtask`;
    the element-to-subtask assignment and the per-subtask processing
    order are therefore backend-independent.
    """

    def __init__(self, stage: KeyedStage):
        self.stage = stage
        self.subtasks = [stage.operator_factory() for _ in range(stage.parallelism)]
        for index, subtask in enumerate(self.subtasks):
            subtask.open(index, stage.parallelism)
        # Keyed streams revisit the same routing keys every snapshot
        # (trajectory ids, grid cells, anchors), so the CRC32 of a key is
        # computed once and memoised.  Spatial keys (grid cells) are
        # unbounded on a live stream, so the cache stops admitting new
        # entries at a fixed cap — past it, misses just recompute.
        self._route_cache: dict[Any, int] = {}
        #: Span buffer: every subtask invocation appends one record here.
        #: Drivers drain it per unit of work; a driver that never drains
        #: hits the admission cap and only ``spans_dropped`` grows.
        self.spans: list[SpanRecord] = []
        self.spans_dropped = 0

    #: Route-cache admission cap (entries are a key plus a small int).
    _ROUTE_CACHE_LIMIT = 1 << 16

    #: Span-buffer admission cap for drivers that never drain.
    _SPAN_BUFFER_LIMIT = 1 << 16

    def _record_span(
        self,
        subtask: int,
        time: Any,
        kind: str,
        elements_in: int,
        elements_out: int,
        busy_seconds: float,
    ) -> None:
        if len(self.spans) >= self._SPAN_BUFFER_LIMIT:
            self.spans_dropped += 1
            return
        self.spans.append(
            SpanRecord(
                stage=self.stage.name,
                subtask=subtask,
                time=time,
                kind=kind,
                elements_in=elements_in,
                elements_out=elements_out,
                busy_seconds=busy_seconds,
            )
        )

    def drain_spans(self) -> list[SpanRecord]:
        """Take (and clear) the buffered spans of this runtime."""
        spans, self.spans = self.spans, []
        return spans

    def adopt_spans(self, spans: Sequence[SpanRecord]) -> None:
        """Append spans recorded elsewhere (a process worker's runtime).

        The master-side runtime of a process backend executes no
        subtask of a multi-subtask stage itself; the workers' drained
        spans are adopted here so every driver reads spans from the same
        place regardless of backend.
        """
        self.spans.extend(spans)

    def route(self, element: Any) -> int:
        """Subtask index an element is routed to (stable across runs)."""
        if self.stage.key_fn is None:
            return 0
        key = self.stage.key_fn(element)
        index = self._route_cache.get(key)
        if index is None:
            index = stable_hash(key) % self.stage.parallelism
            if len(self._route_cache) < self._ROUTE_CACHE_LIMIT:
                self._route_cache[key] = index
        return index

    def partition(self, elements: Sequence[Any]) -> list[list[Any]]:
        """Bucket one batch of elements by routed subtask (keyed exchange).

        The whole batch is exchanged at once — one bucket handoff per
        subtask per unit of work, not one per element — which is what lets
        the process backend hand each worker its full bucket up front.
        Columnar envelopes (:data:`~repro.model.batch.ENVELOPES`) are
        split into at most one sub-envelope per destination subtask (the
        batch-shaped keyed exchange) instead of being unboxed into rows.
        An unkeyed or single-subtask stage routes everything to subtask 0,
        so the batch is handed over whole, in order, envelopes unsplit.
        """
        buckets: list[list[Any]] = [[] for _ in self.subtasks]
        if self.stage.key_fn is None or self.stage.parallelism == 1:
            buckets[0].extend(elements)
            return buckets
        for element in elements:
            if isinstance(element, ENVELOPES):
                self._partition_envelope(element, buckets)
            else:
                buckets[self.route(element)].append(element)
        return buckets

    def _partition_envelope(
        self,
        envelope: SnapshotBatch | PartitionBatch,
        buckets: list[list[Any]],
    ) -> None:
        """Split one columnar envelope by routed subtask.

        Emits one sub-envelope per destination that receives any rows.
        Row order within each sub-envelope preserves the envelope's order,
        exactly like the per-element exchange.  Rows are routed in the
        shape the envelope's ``route_rows`` gives them, which carries
        every field a stage keys on.
        """
        assigned: list[list[int]] = [[] for _ in self.subtasks]
        for index, row in enumerate(envelope.route_rows()):
            assigned[self.route(row)].append(index)
        for subtask, indices in enumerate(assigned):
            if indices:
                buckets[subtask].append(envelope.select(indices))

    def run_subtask(
        self, index: int, bucket: Sequence[Any], ctx: Any = None
    ) -> tuple[list[Any], float]:
        """Run one subtask over its bucket plus the batch trigger.

        Returns the subtask's outputs (in emission order) and its busy
        time in seconds.  Each subtask owns its operator instance, so
        distinct subtasks may run concurrently; the *same* subtask must
        never run twice at once.
        """
        subtask = self.subtasks[index]
        outputs: list[Any] = []
        started = _time.perf_counter()
        for element in bucket:
            if isinstance(element, ENVELOPES):
                outputs.extend(subtask.process_batch(element))
            else:
                outputs.extend(subtask.process(element))
        outputs.extend(subtask.end_batch(ctx))
        busy = _time.perf_counter() - started
        self._record_span(
            index,
            ctx,
            "unit",
            count_elements(bucket),
            count_elements(outputs),
            busy,
        )
        return outputs, busy

    def finish_subtask(self, index: int) -> tuple[list[Any], float]:
        """Flush one subtask's state; returns outputs and busy seconds."""
        outputs: list[Any] = []
        started = _time.perf_counter()
        outputs.extend(self.subtasks[index].finish())
        busy = _time.perf_counter() - started
        self._record_span(
            index, None, "finish", 0, count_elements(outputs), busy
        )
        return outputs, busy

    def query(
        self, method: str, tasks: Iterable[tuple[int, tuple]]
    ) -> list[tuple[int, Any]]:
        """Call a named operator method on some subtasks (a control query).

        ``tasks`` holds ``(subtask_index, args)`` pairs.  Answers come
        back as ``(subtask_index, answer)`` in task order; subtasks that
        answer ``None`` are left out.  Raises :class:`RuntimeError`
        naming the stage when an operator has no such method.
        """
        answers: list[tuple[int, Any]] = []
        for index, args in tasks:
            subtask = self.subtasks[index]
            call = getattr(subtask, method, None)
            if call is None:
                raise RuntimeError(
                    f"stage {self.stage.name!r}: {type(subtask).__name__} "
                    f"has no query method {method!r}"
                )
            answer = call(*args)
            if answer is not None:
                answers.append((index, answer))
        return answers

    def run(
        self, elements: Sequence[Any], ctx: Any = None
    ) -> tuple[list[Any], StageWork]:
        """Process one unit of work serially; returns outputs and busy times.

        Every subtask's ``end_batch(ctx)`` runs after its elements, even
        when it received none this batch.
        """
        started = _time.perf_counter()
        buckets = self.partition(elements)
        outputs: list[Any] = []
        busy = [0.0] * len(self.subtasks)
        for index, bucket in enumerate(buckets):
            out, seconds = self.run_subtask(index, bucket, ctx)
            outputs.extend(out)
            busy[index] += seconds
        work = StageWork(
            name=self.stage.name,
            busy_seconds=busy,
            elements_in=count_elements(elements),
            elements_out=count_elements(outputs),
            wall_seconds=_time.perf_counter() - started,
        )
        return outputs, work

    def finish(self) -> tuple[list[Any], StageWork]:
        """Flush every subtask's state serially; returns outputs and times."""
        started = _time.perf_counter()
        outputs: list[Any] = []
        busy = [0.0] * len(self.subtasks)
        for index in range(len(self.subtasks)):
            out, seconds = self.finish_subtask(index)
            outputs.extend(out)
            busy[index] += seconds
        work = StageWork(
            name=self.stage.name,
            busy_seconds=busy,
            elements_in=0,
            elements_out=count_elements(outputs),
            wall_seconds=_time.perf_counter() - started,
        )
        return outputs, work
