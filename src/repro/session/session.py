"""The streaming session: records in, typed events out.

:class:`Session` is the public front door of the framework.  It owns
the "last time" synchronisation operator and the ICPE pipeline (built
from an :class:`~repro.core.config.ICPEConfig`, so every registered
plugin axis — backend, clustering kernel, enumeration kernel,
enumerator, pattern family — is selectable), optionally a live
:class:`~repro.core.live.ConvoyTracker` and a
:class:`~repro.patterns.PatternFamily` (evolving-group detection or
online co-movement prediction; see :mod:`repro.patterns`), and a set
of subscribed sinks.  ``feed_batch()`` accepts columnar
:class:`~repro.model.batch.RecordBatch` input (``feed()`` is the
per-record form, ``feed_many()`` packs iterables
automatically) and returns the typed
:class:`~repro.session.events.PatternEvent` stream those records
caused; ``result()`` summarises the run at any point; the session is a
context manager that flushes on clean exit and always releases backend
resources.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.core.config import ICPEConfig
from repro.core.icpe import FAN_OUT_FIELDS, ICPEPipeline
from repro.core.live import ConvoyTracker
from repro.model.batch import (
    RecordBatch,
    SnapshotBatch,
    require_finite_record,
)
from repro.model.pattern import CoMovementPattern
from repro.model.records import StreamRecord
from repro.model.snapshot import Snapshot
from repro.registry import default_registry
from repro.session.events import (
    ConvoyDelta,
    PatternEvent,
    WatermarkAdvanced,
    confirmations,
)
from repro.session.sinks import PatternSink, as_sink
from repro.state import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    checkpoint_path,
    decode_payload,
    encode_payload,
    sweep_checkpoints,
)
from repro.observability import (
    ObservabilityOptions,
    SessionTelemetry,
    resolve_options,
)
from repro.shedding import ShedPolicy, SLOController
from repro.shedding.controller import DEFAULT_WINDOW as _SLO_WINDOW
from repro.streaming.metrics import LatencyThroughputMeter
from repro.streaming.sync import TimeSyncOperator

#: Records per auto-packed batch when ``feed_many`` receives a plain
#: iterable and neither the call nor the session configured a size.
DEFAULT_BATCH_SIZE = 512


@dataclass(frozen=True, slots=True)
class SessionResult:
    """Summary of a session's run so far.

    Attributes:
        patterns: every distinct confirmed pattern, in detection order.
        snapshots: snapshots fully processed.
        avg_latency_ms: cost-model per-snapshot latency
            (:mod:`repro.streaming.metrics`).
        throughput_tps: cost-model snapshots per second.
        events: emitted-event counts per event kind.
        backend: execution-backend plugin name.
        clustering_kernel: clustering-kernel plugin name.
        enumeration_kernel: enumeration-kernel plugin name.
        enumerator: enumerator plugin name.
        state_memory: per-component memory accounting — one entry per
            live component (pipeline stages, sync operator, collector,
            meter, convoy tracker) mapping its retained-object counters,
            e.g. ``{"sync": {"chains": 12, "chains_evicted": 3}, ...}``.
        shedding: load-shedding telemetry
            (:meth:`Session.shedding_stats`) — the policy name, offered /
            shed / protected record counters, the controller's current
            rate and windowed latency percentiles, and the per-stage
            busy-second samples it collected.
    """

    patterns: tuple[CoMovementPattern, ...]
    snapshots: int
    avg_latency_ms: float
    throughput_tps: float
    events: dict[str, int]
    backend: str
    clustering_kernel: str
    enumeration_kernel: str
    enumerator: str
    state_memory: dict[str, dict[str, int]] = field(default_factory=dict)
    shedding: dict[str, object] = field(default_factory=dict)

    def summary(self) -> dict[str, float]:
        """The numeric metrics as a flat dict (report-friendly)."""
        return {
            "patterns": float(len(self.patterns)),
            "snapshots": float(self.snapshots),
            "avg_latency_ms": self.avg_latency_ms,
            "throughput_tps": self.throughput_tps,
        }


class Session:
    """A streaming pattern-detection session over one configuration.

    Usually built via :func:`repro.session.open_session` or the fluent
    :class:`~repro.session.builder.SessionBuilder` rather than directly.

    Lifecycle: ``feed()`` any number of records, then ``finish()`` to
    flush bounded-evaluation state; ``close()`` releases execution
    backend resources.  As a context manager the session finishes on
    clean exit (no exception) and closes either way::

        with open_session(config) as session:
            for record in stream:
                for event in session.feed(record):
                    ...
        print(session.result().summary())
    """

    def __init__(
        self,
        config: ICPEConfig,
        *,
        track_convoys: bool = False,
        sinks: Iterable[PatternSink | Callable[[PatternEvent], None]] = (),
        batch_size: int | None = None,
        restore: Checkpoint | None = None,
        observability: ObservabilityOptions | dict | bool | None = None,
        checkpoint_dir: str | Path | None = None,
        checkpoint_keep_last: int | None = None,
    ):
        """``track_convoys`` enables live convoy tracking (CMC scheme of
        ``core/live.py``) with M and K taken from ``config.constraints``;
        ``sinks`` are subscribed in order before any record flows;
        ``batch_size`` sets the auto-packing chunk of :meth:`feed_many`
        (``None`` means :data:`DEFAULT_BATCH_SIZE`); ``restore`` resumes
        from a :class:`~repro.state.Checkpoint` taken by
        :meth:`checkpoint` (the configs must match on every field except
        the execution surface — backend, pool size, stage parallelisms,
        cluster model);
        ``observability`` enables the telemetry hub (``True`` for the
        in-memory registry, an
        :class:`~repro.observability.ObservabilityOptions` or kwargs
        dict to add exporters); ``checkpoint_dir`` enables automatic
        periodic checkpointing at the cadence of the config's
        ``checkpoint_every_records`` / ``checkpoint_every_seconds``
        (defaulting to every record batch when neither is set), with
        ``checkpoint_keep_last`` bounding retention via
        :func:`~repro.state.sweep_checkpoints`."""
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if checkpoint_keep_last is not None and checkpoint_keep_last < 1:
            raise ValueError(
                f"checkpoint_keep_last must be >= 1, got {checkpoint_keep_last}"
            )
        self.config = config
        self.batch_size = batch_size or DEFAULT_BATCH_SIZE
        options = resolve_options(observability)
        self._telemetry = (
            SessionTelemetry(options) if options is not None else None
        )
        self.pipeline = ICPEPipeline(config)
        self._sync = TimeSyncOperator(
            max_delay=config.max_delay,
            trajectory_ttl=config.trajectory_ttl,
        )
        self._tracker: ConvoyTracker | None = None
        self._tracked_members: frozenset[frozenset[int]] = frozenset()
        if track_convoys:
            self._tracker = ConvoyTracker(
                m=config.constraints.m, k=config.constraints.k
            )
        # The default "strict" family is the paper's exact semantics and
        # needs no extra machinery at all — the session hosts a family
        # component only for the relaxed/predictive axes.
        self._patterns = (
            default_registry().create(
                "pattern_family",
                config.pattern_family,
                config.constraints,
                theta=config.evolving_theta,
                min_probability=config.prediction_min_probability,
            )
            if config.pattern_family != "strict"
            else None
        )
        self._sinks: list[PatternSink] = []
        self._event_counts: dict[str, int] = {}
        self._records_ingested = 0
        self._records_shed = 0
        self._records_protected = 0
        self._shed_policy: ShedPolicy = default_registry().create(
            "shed_policy", config.shed_policy, config.shed_seed
        )
        self._controller = SLOController(
            target_p99_ms=config.target_p99_ms,
            initial_rate=config.shed_rate,
            histogram=(
                self._telemetry.slo_latency_histogram(_SLO_WINDOW)
                if self._telemetry is not None
                else None
            ),
        )
        # The default "none" policy keeps the ingest path byte-identical
        # to a shedding-unaware session: no drop selection, no controller
        # observation, no protected-set fetches.
        self._shedding_active = config.shed_policy != "none"
        self._checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self._checkpoint_keep_last = checkpoint_keep_last
        self._ckpt_every_records = config.checkpoint_every_records
        self._ckpt_every_seconds = config.checkpoint_every_seconds
        if (
            self._checkpoint_dir is not None
            and self._ckpt_every_records is None
            and self._ckpt_every_seconds is None
        ):
            # A checkpoint directory with no cadence means "as often as
            # possible": one checkpoint per batch that advanced the
            # watermark.
            self._ckpt_every_records = 1
        self._auto_checkpoints: list[Path] = []
        self._last_ckpt_watermark: int | None = None
        self._last_ckpt_records = 0
        self._last_ckpt_clock = _time.monotonic()
        self._finished = False
        self._closed = False
        if restore is not None:
            try:
                self._restore_from(restore)
            except Exception:
                self.pipeline.close()
                raise
            self._last_ckpt_watermark = restore.watermark
            self._last_ckpt_records = self._records_ingested
        if self._checkpoint_dir is not None:
            self._checkpoint_dir.mkdir(parents=True, exist_ok=True)
        for sink in sinks:
            self.subscribe(sink)

    # ------------------------------------------------------------------ sinks

    def subscribe(
        self, sink: PatternSink | Callable[[PatternEvent], None]
    ) -> PatternSink:
        """Subscribe a sink (or bare callable); returns the sink object.

        Every subsequently emitted event is dispatched to it, in
        subscription order.
        """
        wrapped = as_sink(sink)
        self._sinks.append(wrapped)
        return wrapped

    def _emit(self, events: list[PatternEvent]) -> list[PatternEvent]:
        counts = self._event_counts
        for event in events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        if self._telemetry is not None and events:
            self._telemetry.observe_events(events)
        # Dispatch is skipped wholesale when nothing is subscribed — a
        # zero-sink session pays only the count bookkeeping per event,
        # not a per-event empty dispatch loop.
        if self._sinks:
            for event in events:
                for sink in self._sinks:
                    sink.on_event(event)
        return events

    # ------------------------------------------------------------------ drive

    def feed(self, record: StreamRecord) -> list[PatternEvent]:
        """Accept one record; returns the events its arrival caused.

        Records may arrive out of event-time order within the configured
        ``max_delay``; the synchronisation operator assembles complete
        snapshots before anything is clustered.  Per completed snapshot
        the session emits, in order: one
        :class:`~repro.session.events.PatternConfirmed` per fresh
        pattern, a :class:`~repro.session.events.ConvoyDelta` when the
        live view changed (tracking enabled), and one
        :class:`~repro.session.events.WatermarkAdvanced`.

        The per-point path of the columnar data plane: the record goes
        through the synchronisation operator's scalar update, and every
        snapshot it completes continues as a
        :class:`~repro.model.batch.SnapshotBatch`, so both paths run the
        identical downstream machinery and stay event-for-event
        interchangeable.

        Raises:
            ValueError: when the record's ``x`` or ``y`` is NaN or
                infinite, with :meth:`feed_batch`'s message.  Nothing is
                ingested, so the session accepts the next record.
        """
        self._check_open()
        require_finite_record(record)
        self._records_ingested += 1
        events: list[PatternEvent] = []
        for snapshot in self._sync.feed(record):
            events.extend(self._process(SnapshotBatch.from_snapshot(snapshot)))
        emitted = self._emit(events)
        self._maybe_auto_checkpoint()
        return emitted

    def feed_batch(self, batch: RecordBatch) -> list[PatternEvent]:
        """Accept one columnar batch; returns the events it caused.

        The primary ingestion path: the batch flows through the
        vectorized synchronisation walk, completed snapshots stay in
        columnar form through the keyed exchanges into the clustering
        kernel, and the returned typed event stream is identical —
        event for event — to feeding the same records through
        :meth:`feed` one at a time (an emission can at most move to a
        later call when the batch boundary defers the watermark).

        Raises:
            ValueError: when a record's ``x`` or ``y`` is NaN or
                infinite, naming the first such ``(oid, time)``.  The
                batch is refused whole before anything is ingested, so
                the session accepts the next batch as if this one had
                never been fed.
        """
        self._check_open()
        batch.require_finite()
        self._records_ingested += len(batch)
        events: list[PatternEvent] = []
        for snapshot in self._sync.feed_batch(batch):
            events.extend(self._process(snapshot))
        emitted = self._emit(events)
        self._maybe_auto_checkpoint()
        return emitted

    def feed_many(
        self,
        records: Iterable[StreamRecord] | RecordBatch,
        *,
        batch_size: int | None = None,
    ) -> list[PatternEvent]:
        """Feed many records, auto-packing them into columnar batches.

        A :class:`~repro.model.batch.RecordBatch` argument is fed
        directly; any other iterable is chunked into batches of
        ``batch_size`` records (``None`` means the session's configured
        ``batch_size``) and fed through :meth:`feed_batch`.  Returns all
        caused events, exactly as per-point feeding would.

        Raises:
            ValueError: for an explicit ``batch_size`` below 1 (unlike
                the CLI flag, 0 does not mean "per-point" here — feed
                records individually for that).
        """
        if isinstance(records, RecordBatch):
            return self.feed_batch(records)
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        size = batch_size if batch_size is not None else self.batch_size
        events: list[PatternEvent] = []
        for batch in RecordBatch.pack(records, size):
            events.extend(self.feed_batch(batch))
        return events

    def stream(
        self, records: Iterable[StreamRecord]
    ) -> Iterator[PatternEvent]:
        """Generator form: yield events as the record stream is consumed.

        Ends with the flush events of :meth:`finish` — convenient for
        ``for event in session.stream(records): ...`` one-liners over
        bounded streams.
        """
        for record in records:
            yield from self.feed(record)
        yield from self.finish()

    def finish(self) -> list[PatternEvent]:
        """End of stream: flush sync buffers, windows and bit strings.

        Idempotent; returns the flush-caused events.  The execution
        backend is released (the pipeline's own finish closes it).
        """
        if self._finished:
            return []
        self._check_open()
        events: list[PatternEvent] = []
        for snapshot in self._sync.flush(columnar=True):
            events.extend(self._process(snapshot))
        flush_patterns = self.pipeline.finish()
        flush_time = self._last_time()
        events.extend(confirmations(flush_time, flush_patterns))
        if self._tracker is not None:
            ended = tuple(self._tracker.finish())
            if ended or self._tracked_members:
                events.append(
                    ConvoyDelta(
                        time=flush_time,
                        formed=(),
                        dissolved=tuple(sorted(self._tracked_members, key=sorted)),
                        ended=ended,
                        active=0,
                    )
                )
                self._tracked_members = frozenset()
        if self._patterns is not None:
            events.extend(self._patterns.finish(flush_time))
        # Mark finished only once the flush itself succeeded, so an
        # error mid-flush (backend failure) leaves the session
        # retryable instead of silently swallowing the tail patterns.
        self._finished = True
        emitted = self._emit(events)
        if self._telemetry is not None:
            self._finalize_telemetry()
        return emitted

    def close(self) -> None:
        """Release backend resources and close owned sinks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.pipeline.close()
        if self._telemetry is not None:
            self._telemetry.close()
        for sink in self._sinks:
            sink.close()

    def __enter__(self) -> "Session":
        """Context-manager entry: the session itself."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Flush on clean exit, release resources either way.

        A session the user already closed inside the block is left
        as-is — ``close()`` is idempotent and there is nothing left to
        flush.
        """
        if exc_type is None and not self._finished and not self._closed:
            self.finish()
        self.close()

    # ------------------------------------------------------------ checkpoints

    def checkpoint(self) -> Checkpoint:
        """Capture the session's complete state as a restorable value.

        Everything a restarted session needs flows into the returned
        :class:`~repro.state.Checkpoint`: every stateful operator of
        the pipeline graph (incrementally — operators whose payload
        digest is unchanged since the previous checkpoint reuse the
        cached bytes), plus the master-side synchronisation operator,
        pattern collector, metrics meter, convoy tracker, and the
        session's own counters.  The backend must advertise
        ``supports_checkpoint``; a process backend drains its workers
        through the synchronous reply protocol, so the capture is a
        consistent cut.  Call between feeds — ideally right after a
        :class:`~repro.session.events.WatermarkAdvanced` event.

        Raises:
            RuntimeError: on a finished/closed session or a backend
                without checkpoint support.
        """
        self._check_open()
        states, captured, reused = self.pipeline.collect_operator_states()
        master: dict[str, bytes] = {}
        payloads: list[tuple[str, dict]] = [
            ("sync", self._sync.snapshot_state()),
            ("collector", self.pipeline.collector.snapshot_state()),
            ("meter", self.pipeline.meter.snapshot_state()),
            (
                "session",
                {
                    "event_counts": dict(self._event_counts),
                    "tracked_members": sorted(
                        (tuple(sorted(members)) for members in self._tracked_members),
                    ),
                    "records_ingested": self._records_ingested,
                },
            ),
            (
                "shedding",
                {
                    "controller": self._controller.snapshot_state(),
                    "policy": self._shed_policy.snapshot_state(),
                    "records_shed": self._records_shed,
                    "records_protected": self._records_protected,
                },
            ),
        ]
        if self._tracker is not None:
            payloads.append(("tracker", self._tracker.snapshot_state()))
        if self._patterns is not None:
            payloads.append(("patterns", self._patterns.snapshot_state()))
        if self._telemetry is not None:
            payloads.append(("telemetry", self._telemetry.snapshot_state()))
        for name, payload in payloads:
            master[name] = encode_payload(payload)[1]
        timings = self.pipeline.meter.timings
        return Checkpoint(
            config=self.config,
            watermark=timings[-1].time if timings else None,
            records_ingested=self._records_ingested,
            operator_states=states,
            master_states=master,
            captured=captured,
            reused=reused,
        )

    def _restore_from(self, checkpoint: Checkpoint) -> None:
        """Adopt a checkpoint into this (freshly built) session."""
        if checkpoint.version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {checkpoint.version} is not supported"
            )
        compatible = replace(
            checkpoint.config,
            backend=self.config.backend,
            parallel_workers=self.config.parallel_workers,
            cluster=self.config.cluster,
            checkpoint_every_records=self.config.checkpoint_every_records,
            checkpoint_every_seconds=self.config.checkpoint_every_seconds,
            **{name: getattr(self.config, name) for name in FAN_OUT_FIELDS},
        )
        if compatible != self.config:
            raise CheckpointError(
                "checkpoint was taken under an incompatible configuration; "
                "only the execution surface (backend, parallel_workers, "
                "stage parallelisms, cluster model, checkpoint cadence) "
                "may differ on restore"
            )
        self.pipeline.restore_operator_states(checkpoint.operator_states)
        master = checkpoint.master_states
        self._sync.restore_state(decode_payload(master["sync"]))
        self.pipeline.collector.restore_state(decode_payload(master["collector"]))
        self.pipeline.meter.restore_state(decode_payload(master["meter"]))
        session_payload = decode_payload(master["session"])
        self._event_counts = dict(session_payload["event_counts"])
        self._tracked_members = frozenset(
            frozenset(members)
            for members in session_payload["tracked_members"]
        )
        self._records_ingested = session_payload["records_ingested"]
        # Checkpoints taken before the shedding subsystem existed carry
        # no "shedding" payload; the freshly built default state stands.
        shedding_blob = master.get("shedding")
        if shedding_blob is not None:
            shedding_payload = decode_payload(shedding_blob)
            self._controller.restore_state(shedding_payload["controller"])
            self._shed_policy.restore_state(shedding_payload["policy"])
            self._records_shed = shedding_payload["records_shed"]
            self._records_protected = shedding_payload["records_protected"]
        if self._tracker is not None:
            if "tracker" not in master:
                raise CheckpointError(
                    "track_convoys is enabled but the checkpoint carries no "
                    "convoy-tracker state; take checkpoints from a tracking "
                    "session to restore one"
                )
            self._tracker.restore_state(decode_payload(master["tracker"]))
        # Checkpoints taken before the pattern-family subsystem existed
        # carry no "patterns" payload; the freshly built family stands.
        # (The config equality check above already guarantees both sides
        # run the same family whenever the payload is present.)
        patterns_blob = master.get("patterns")
        if self._patterns is not None and patterns_blob is not None:
            self._patterns.restore_state(decode_payload(patterns_blob))
        # Telemetry continues its series when both sides have a hub;
        # a checkpoint from a telemetry-less session (or vice versa)
        # simply starts the registry fresh.
        telemetry_blob = master.get("telemetry")
        if self._telemetry is not None and telemetry_blob is not None:
            self._telemetry.restore_state(decode_payload(telemetry_blob))

    @property
    def records_ingested(self) -> int:
        """Records accepted so far (for source skipping on restore)."""
        return self._records_ingested

    @property
    def auto_checkpoints(self) -> list[Path]:
        """Paths of the checkpoints automatic checkpointing has saved."""
        return list(self._auto_checkpoints)

    def _maybe_auto_checkpoint(self) -> None:
        """Save a periodic checkpoint when the configured cadence is due.

        A save needs a *new* watermark — checkpoints are keyed by
        watermark on disk, and a batch that advanced nothing has
        nothing new to persist — so an overdue cadence simply waits for
        the next watermark advance.  After each save, retention sweeps
        the directory when ``checkpoint_keep_last`` bounds it.
        """
        if self._checkpoint_dir is None or self._finished:
            return
        due = self._ckpt_every_records is not None and (
            self._records_ingested - self._last_ckpt_records
            >= self._ckpt_every_records
        )
        if not due:
            due = self._ckpt_every_seconds is not None and (
                _time.monotonic() - self._last_ckpt_clock
                >= self._ckpt_every_seconds
            )
        if not due:
            return
        timings = self.pipeline.meter.timings
        watermark = timings[-1].time if timings else None
        if watermark is None or watermark == self._last_ckpt_watermark:
            return
        checkpoint = self.checkpoint()
        path = checkpoint_path(self._checkpoint_dir, watermark)
        checkpoint.save(path)
        self._auto_checkpoints.append(path)
        self._last_ckpt_watermark = watermark
        self._last_ckpt_records = self._records_ingested
        self._last_ckpt_clock = _time.monotonic()
        if self._checkpoint_keep_last is not None:
            sweep_checkpoints(self._checkpoint_dir, self._checkpoint_keep_last)

    # ------------------------------------------------------------------ state

    def result(self) -> SessionResult:
        """Snapshot the run's summary (callable at any point)."""
        meter = self.pipeline.meter
        return SessionResult(
            patterns=tuple(self.pipeline.patterns),
            snapshots=meter.snapshots,
            avg_latency_ms=meter.average_latency_ms(),
            throughput_tps=meter.throughput_tps(),
            events=dict(self._event_counts),
            backend=self.pipeline.backend_name,
            clustering_kernel=self.config.clustering_kernel,
            enumeration_kernel=self.config.enumeration_kernel,
            enumerator=self.config.enumerator,
            state_memory=self.state_memory(),
            shedding=self.shedding_stats(),
        )

    def shedding_stats(self) -> dict[str, object]:
        """Load-shedding telemetry of the run so far.

        The policy name, offered / shed / protected record counters, the
        controller's current rate, its windowed latency percentiles, and
        the per-stage busy-second totals it sampled.  All zeros under
        the default ``"none"`` policy.
        """
        return {
            "policy": self.config.shed_policy,
            "records_offered": self._records_ingested,
            "records_shed": self._records_shed,
            "records_protected": self._records_protected,
            "shed_rate": self._controller.rate,
            "windowed_p50_ms": self._controller.windowed_p50_ms(),
            "windowed_p99_ms": self._controller.windowed_p99_ms(),
            "stage_busy_seconds": self._controller.stage_busy_seconds(),
        }

    def state_memory(self) -> dict[str, dict[str, int]]:
        """Per-component memory accounting (retained-object counters).

        One entry per live component: the pipeline's stages (summed over
        subtasks, via the backend where workers own the state), the
        master-side collector and meter, the synchronisation operator
        (chain/eviction counters when ``trajectory_ttl`` bounds it), and
        the convoy tracker when enabled.
        """
        metrics = self.pipeline.state_metrics()
        metrics["sync"] = self._sync.state_metrics()
        if self._tracker is not None:
            metrics["tracker"] = self._tracker.state_metrics()
        if self._patterns is not None:
            family_metrics = self._patterns.state_metrics()
            if family_metrics:
                metrics["patterns"] = family_metrics
        if self._shedding_active:
            shed_metrics = {
                "records_shed": self._records_shed,
                "records_protected": self._records_protected,
            }
            shed_metrics.update(self._controller.state_metrics())
            shed_metrics.update(self._shed_policy.state_metrics())
            metrics["shedding"] = shed_metrics
        return metrics

    def store(self):
        """A queryable :class:`~repro.core.store.PatternStore` of
        everything detected so far (containment / time / maximality
        queries for downstream applications)."""
        from repro.core.store import PatternStore

        store = PatternStore()
        store.add_all(self.pipeline.collector.detections)
        return store

    @property
    def patterns(self) -> list[CoMovementPattern]:
        """Every distinct pattern detected so far."""
        return self.pipeline.patterns

    @property
    def meter(self) -> LatencyThroughputMeter:
        """Per-snapshot latency / throughput metrics."""
        return self.pipeline.meter

    @property
    def shed_policy(self) -> ShedPolicy:
        """The live load-shedding policy instance."""
        return self._shed_policy

    @property
    def slo_controller(self) -> SLOController:
        """The latency-SLO controller driving the shed rate."""
        return self._controller

    @property
    def telemetry(self) -> SessionTelemetry | None:
        """The observability hub, or ``None`` when telemetry is off."""
        return self._telemetry

    @property
    def pattern_family(self):
        """The live :class:`~repro.patterns.PatternFamily` component, or
        ``None`` under the default ``"strict"`` family (the paper's
        exact semantics need no extra machinery)."""
        return self._patterns

    @property
    def active_convoys(self):
        """Live convoy candidates (requires ``track_convoys``).

        Raises:
            RuntimeError: when convoy tracking is not enabled.
        """
        if self._tracker is None:
            raise RuntimeError(
                "convoy tracking is not enabled; build the session with "
                "track_convoys=True"
            )
        return self._tracker.active()

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has flushed the stream end."""
        return self._finished

    @property
    def closed(self) -> bool:
        """True once :meth:`close` released backend resources."""
        return self._closed

    # ------------------------------------------------------------- internals

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")
        if self._finished:
            raise RuntimeError("session already finished")

    def _last_time(self) -> int:
        timings = self.pipeline.meter.timings
        return timings[-1].time if timings else 0

    def _shed_snapshot(
        self, snapshot: Snapshot | SnapshotBatch
    ) -> Snapshot | SnapshotBatch:
        """Drop rows from one completed snapshot per the shed policy.

        The drop point is deliberately *after* time synchronisation:
        shedding a raw ingest record would leave its successor's
        ``last_time`` naming a report that never arrives, blocking that
        trajectory's reassembly chain and stalling the watermark.  A
        dropped snapshot row, by contrast, is exactly a "no report at
        t" hole for the clustering and enumeration layers — the shape
        the bit-string semantics already handle — while still removing
        the dominant per-row clustering/enumeration cost.

        At an effective rate of zero the snapshot passes through
        untouched and the policy's RNG is never consulted, keeping the
        event stream byte-identical to an unshedded run.  The protected
        set is only fetched for policies that consult enumeration state.
        """
        rate = self._controller.rate
        if rate <= 0.0 or not len(snapshot):
            return snapshot
        policy = self._shed_policy
        columnar = isinstance(snapshot, SnapshotBatch)
        if columnar:
            oids = [int(oid) for oid in snapshot.oids]
        else:
            oids = snapshot.oids()
        protected: frozenset[int] = frozenset()
        if policy.consults_state:
            protected = self.pipeline.protected_oids()
            self._records_protected += sum(
                1 for oid in oids if oid in protected
            )
        drops = policy.select_drops(oids, rate, protected)
        if not drops:
            return snapshot
        self._records_shed += len(drops)
        dropped = set(drops)
        keep = [i for i in range(len(oids)) if i not in dropped]
        if columnar:
            return snapshot.select(keep)
        points = snapshot.points()
        return Snapshot.from_points(
            snapshot.time, [points[i] for i in keep]
        )

    def _observe_telemetry(self, time: int) -> None:
        """Feed one processed snapshot's facts into the telemetry hub.

        Spans and latency first, then the counter mirror + export tick.
        The state-memory refresh callable is only invoked when a JSONL
        row is actually due (it round-trips the worker protocol under
        the process backend).
        """
        telemetry = self._telemetry
        assert telemetry is not None
        telemetry.observe_spans(self.pipeline.last_spans)
        timings = self.pipeline.meter.timings
        if timings:
            telemetry.observe_latency(timings[-1].latency_seconds * 1000.0)
        if self._patterns is not None:
            telemetry.mirror_pattern_family(self._patterns.metrics())
        telemetry.on_watermark(
            time,
            records_ingested=self._records_ingested,
            records_shed=self._records_shed,
            records_protected=self._records_protected,
            snapshots=self.pipeline.meter.snapshots,
            patterns_total=len(self.pipeline.collector),
            shed_rate=self._controller.rate,
            watermark_lag=self._sync.watermark_lag(),
            refresh=self.state_memory,
        )

    def _finalize_telemetry(self) -> None:
        """End of stream: fold the flush spans in, write the final row."""
        telemetry = self._telemetry
        assert telemetry is not None
        telemetry.observe_spans(self.pipeline.last_spans)
        if self._patterns is not None:
            telemetry.mirror_pattern_family(self._patterns.metrics())
        watermark = self._last_time()
        telemetry.mirror_session(
            watermark,
            records_ingested=self._records_ingested,
            records_shed=self._records_shed,
            records_protected=self._records_protected,
            snapshots=self.pipeline.meter.snapshots,
            patterns_total=len(self.pipeline.collector),
            shed_rate=self._controller.rate,
            watermark_lag=self._sync.watermark_lag(),
        )
        telemetry.finalize(watermark, refresh=self.state_memory)

    def _observe_latency(self) -> None:
        """Feed the last snapshot's timing to the SLO controller."""
        timings = self.pipeline.meter.timings
        if not timings:
            return
        busy: dict[str, float] = {}
        for work in self.pipeline.last_works:
            busy[work.name] = busy.get(work.name, 0.0) + sum(
                work.busy_seconds
            )
        self._controller.observe(
            timings[-1].latency_seconds * 1000.0, busy
        )

    def _process(
        self, snapshot: Snapshot | SnapshotBatch
    ) -> list[PatternEvent]:
        """Run one complete snapshot; build its ordered event list."""
        if self._shedding_active:
            snapshot = self._shed_snapshot(snapshot)
        fresh = self.pipeline.process_snapshot(snapshot)
        if self._shedding_active:
            self._observe_latency()
        events: list[PatternEvent] = confirmations(snapshot.time, fresh)
        if self._tracker is not None:
            cluster_snapshot = self.pipeline.last_cluster_snapshot
            if cluster_snapshot is not None:
                ended = tuple(self._tracker.on_snapshot(cluster_snapshot))
                members = frozenset(
                    candidate.members for candidate in self._tracker.active()
                )
                formed = tuple(
                    sorted(members - self._tracked_members, key=sorted)
                )
                dissolved = tuple(
                    sorted(self._tracked_members - members, key=sorted)
                )
                self._tracked_members = members
                if formed or dissolved or ended:
                    events.append(
                        ConvoyDelta(
                            time=snapshot.time,
                            formed=formed,
                            dissolved=dissolved,
                            ended=ended,
                            active=len(members),
                        )
                    )
        if self._patterns is not None:
            family_snapshot = self.pipeline.last_cluster_snapshot
            if family_snapshot is not None:
                forming = (
                    self.pipeline.forming_candidates()
                    if self._patterns.needs_forming_state
                    else ()
                )
                events.extend(
                    self._patterns.on_snapshot(
                        snapshot.time, family_snapshot, forming, fresh
                    )
                )
        events.append(
            WatermarkAdvanced(
                time=snapshot.time,
                snapshots_processed=self.pipeline.meter.snapshots,
                patterns_total=len(self.pipeline.collector),
            )
        )
        if self._telemetry is not None:
            self._observe_telemetry(snapshot.time)
        return events
