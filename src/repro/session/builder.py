"""Fluent construction of streaming sessions.

``SessionBuilder`` accumulates configuration — core Table-3 knobs,
strategy-plugin selections, sinks, live-tracking — and materialises an
:class:`~repro.core.config.ICPEConfig` plus a
:class:`~repro.session.session.Session` in one ``open()`` call::

    session = (
        SessionBuilder()
        .epsilon(10.0).cell_width(30.0).min_pts(3)
        .constraints(m=3, k=4, l=2, g=2)
        .backend("process", workers=4)
        .clustering_kernel("numpy")
        .track_convoys()
        .sink(print)
        .open()
    )

Strategy names are validated against the plugin registry when the
config materialises, so a typo or an invalid combination fails at
``open()`` with the registry's declarative error, not deep inside the
pipeline.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.core.config import ICPEConfig
from repro.model.constraints import PatternConstraints
from repro.observability import ObservabilityOptions
from repro.session.events import PatternEvent
from repro.session.session import Session
from repro.session.sinks import PatternSink
from repro.state import Checkpoint


class SessionBuilder:
    """Fluent builder for :class:`~repro.session.session.Session`.

    Seed from an existing :class:`ICPEConfig` (``SessionBuilder(config)``)
    or start blank and set the four required core knobs — ``epsilon``,
    ``cell_width``, ``min_pts``, ``constraints`` — before ``open()``.
    Every setter returns the builder.
    """

    _REQUIRED = ("epsilon", "cell_width", "min_pts", "constraints")

    def __init__(self, config: ICPEConfig | None = None):
        self._base = config
        self._overrides: dict[str, Any] = {}
        self._sinks: list[PatternSink | Callable[[PatternEvent], None]] = []
        self._track_convoys = False
        self._batch_size: int | None = None
        self._restore: Checkpoint | None = None
        self._observability: ObservabilityOptions | dict | bool | None = None
        self._checkpoint_dir: str | Path | None = None
        self._checkpoint_keep_last: int | None = None

    # ------------------------------------------------------------ core knobs

    def epsilon(self, value: float) -> "SessionBuilder":
        """DBSCAN / range-join distance threshold."""
        return self._set(epsilon=value)

    def cell_width(self, value: float) -> "SessionBuilder":
        """GR-index grid cell width (``lg``)."""
        return self._set(cell_width=value)

    def min_pts(self, value: int) -> "SessionBuilder":
        """DBSCAN density threshold."""
        return self._set(min_pts=value)

    def constraints(
        self,
        constraints: PatternConstraints | None = None,
        *,
        m: int | None = None,
        k: int | None = None,
        l: int | None = None,
        g: int | None = None,
    ) -> "SessionBuilder":
        """The CP(M, K, L, G) constraints — an object or the four ints."""
        if constraints is None:
            if None in (m, k, l, g):
                raise ValueError(
                    "pass a PatternConstraints or all of m, k, l, g"
                )
            constraints = PatternConstraints(m=m, k=k, l=l, g=g)
        return self._set(constraints=constraints)

    def max_delay(self, value: int) -> "SessionBuilder":
        """Bounded-delay guarantee for time synchronisation."""
        return self._set(max_delay=value)

    # ------------------------------------------------------- plugin choices

    def enumerator(self, name: str) -> "SessionBuilder":
        """Select the enumerator plugin (``baseline`` / ``fba`` / ``vba`` /
        any registered third-party name)."""
        return self._set(enumerator=name)

    def backend(
        self, name: str, *, workers: int | None = None
    ) -> "SessionBuilder":
        """Select the execution-backend plugin (and worker-pool size).

        Built-in names: ``serial`` / ``process`` (shared-nothing worker
        processes); ``workers`` sizes the process pool.  Omitting ``workers`` leaves any
        previously configured pool size untouched (e.g. one seeded from
        a base config).
        """
        if workers is not None:
            return self._set(backend=name, parallel_workers=workers)
        return self._set(backend=name)

    def clustering_kernel(self, name: str) -> "SessionBuilder":
        """Select the snapshot-clustering kernel plugin."""
        return self._set(clustering_kernel=name)

    def enumeration_kernel(self, name: str) -> "SessionBuilder":
        """Select the pattern-enumeration kernel plugin."""
        return self._set(enumeration_kernel=name)

    def shedding(
        self,
        policy: str,
        *,
        rate: float = 0.0,
        target_p99_ms: float | None = None,
        seed: int | None = None,
    ) -> "SessionBuilder":
        """Select the load-shedding policy plugin and its knobs.

        Built-in names: ``none`` (default) / ``random`` /
        ``pattern_aware``.  ``rate`` is the fixed shed rate — or the
        starting rate when ``target_p99_ms`` engages the
        :class:`~repro.shedding.controller.SLOController`; ``seed``
        (when given) reseeds the policy's drop RNG.
        """
        fields: dict[str, Any] = {
            "shed_policy": policy,
            "shed_rate": rate,
            "target_p99_ms": target_p99_ms,
        }
        if seed is not None:
            fields["shed_seed"] = seed
        return self._set(**fields)

    def patterns(
        self,
        family: str,
        *,
        theta: float | None = None,
        min_probability: float | None = None,
    ) -> "SessionBuilder":
        """Select the pattern-family plugin and its knobs.

        Built-in names: ``strict`` (default, the paper's exact
        semantics) / ``evolving`` (θ-continuous groups emitting
        :class:`~repro.session.events.GroupEvolved`) / ``predictive``
        (online confirmation-probability scoring emitting
        :class:`~repro.session.events.PatternForming`; requires a
        forming-state enumerator, i.e. ``fba`` / ``vba``).  ``theta``
        sets the Jaccard-continuity threshold of the evolving family;
        ``min_probability`` the emission threshold of the predictive
        family.  Omitted knobs keep their current values.
        """
        fields: dict[str, Any] = {"pattern_family": family}
        if theta is not None:
            fields["evolving_theta"] = theta
        if min_probability is not None:
            fields["prediction_min_probability"] = min_probability
        return self._set(**fields)

    def option(self, **fields: Any) -> "SessionBuilder":
        """Set any remaining :class:`ICPEConfig` field by name
        (escape hatch for knobs without a dedicated setter)."""
        return self._set(**fields)

    # --------------------------------------------------------- session wiring

    def sink(
        self, sink: PatternSink | Callable[[PatternEvent], None]
    ) -> "SessionBuilder":
        """Subscribe a sink (or bare callable) on the built session."""
        self._sinks.append(sink)
        return self

    def sinks(
        self,
        sinks: Iterable[PatternSink | Callable[[PatternEvent], None]],
    ) -> "SessionBuilder":
        """Subscribe several sinks at once, in order."""
        self._sinks.extend(sinks)
        return self

    def track_convoys(self, enabled: bool = True) -> "SessionBuilder":
        """Enable the live convoy view (ConvoyDelta events,
        ``Session.active_convoys``)."""
        self._track_convoys = enabled
        return self

    def batch_size(self, size: int) -> "SessionBuilder":
        """Auto-batching chunk for ``Session.feed_many``: plain record
        iterables are packed into columnar
        :class:`~repro.model.batch.RecordBatch` chunks of this many
        records before they enter the data plane."""
        if size < 1:
            raise ValueError(f"batch_size must be >= 1, got {size}")
        self._batch_size = size
        return self

    def observability(
        self,
        options: ObservabilityOptions | dict | bool | None = True,
        *,
        metrics_out: str | Path | None = None,
        metrics_every: int | None = None,
        trace_out: str | Path | None = None,
        console: bool | None = None,
    ) -> "SessionBuilder":
        """Enable the telemetry hub on the built session.

        Either pass a prepared
        :class:`~repro.observability.ObservabilityOptions` (or kwargs
        dict, or ``True`` for the bare in-memory registry), or use the
        keyword shorthands — ``metrics_out`` / ``metrics_every`` for
        the JSONL time series, ``trace_out`` for the span trace,
        ``console`` for the finish-time summary table::

            SessionBuilder(cfg).observability(
                metrics_out="metrics.jsonl", metrics_every=10,
            ).open()
        """
        shorthands = {
            key: value
            for key, value in (
                ("metrics_out", metrics_out),
                ("metrics_every", metrics_every),
                ("trace_out", trace_out),
                ("console", console),
            )
            if value is not None
        }
        if shorthands:
            if options is not True and options is not None:
                raise ValueError(
                    "pass either an options object/dict or keyword "
                    "shorthands, not both"
                )
            self._observability = ObservabilityOptions(**shorthands)
        else:
            self._observability = options
        return self

    def checkpoints(
        self,
        directory: str | Path,
        *,
        every_records: int | None = None,
        every_seconds: float | None = None,
        keep_last: int | None = None,
    ) -> "SessionBuilder":
        """Enable automatic periodic checkpointing on the built session.

        ``directory`` receives ``checkpoint-<watermark>.ckpt`` files at
        the cadence of ``every_records`` / ``every_seconds`` (both may
        be set; whichever fires first triggers a save; neither means
        every watermark-advancing batch).  ``keep_last`` bounds
        retention via :func:`~repro.state.sweep_checkpoints` — the
        newest valid checkpoint always survives.
        """
        self._checkpoint_dir = directory
        self._checkpoint_keep_last = keep_last
        if every_records is not None:
            self._set(checkpoint_every_records=every_records)
        if every_seconds is not None:
            self._set(checkpoint_every_seconds=every_seconds)
        return self

    def restore(self, checkpoint: Checkpoint) -> "SessionBuilder":
        """Resume the built session from a checkpoint.

        When the builder has no base config and no core knobs set, the
        checkpoint's own config seeds the build, so
        ``SessionBuilder().restore(cp).open()`` resumes exactly the
        captured run; setters may still override the execution surface
        (backend, pool size) before ``open()``.
        """
        self._restore = checkpoint
        return self

    # ---------------------------------------------------------- materialise

    def config(self) -> ICPEConfig:
        """Materialise the :class:`ICPEConfig` (validates everything).

        Raises:
            ValueError: when a required core knob is missing, a strategy
                name is unregistered, or a combination is invalid.
        """
        base = self._base
        if base is None and self._restore is not None:
            base = self._restore.config
        if base is not None:
            return (
                replace(base, **self._overrides) if self._overrides else base
            )
        missing = [
            name for name in self._REQUIRED if name not in self._overrides
        ]
        if missing:
            raise ValueError(
                f"SessionBuilder is missing required settings: {missing}; "
                f"set them or seed the builder with an ICPEConfig"
            )
        return ICPEConfig(**self._overrides)

    def open(self) -> Session:
        """Build the session (compiles the pipeline onto its backend)."""
        return Session(
            self.config(),
            track_convoys=self._track_convoys,
            sinks=self._sinks,
            batch_size=self._batch_size,
            restore=self._restore,
            observability=self._observability,
            checkpoint_dir=self._checkpoint_dir,
            checkpoint_keep_last=self._checkpoint_keep_last,
        )

    # Alias: ``builder.build()`` reads naturally in non-streaming call sites.
    build = open

    # ------------------------------------------------------------- internals

    def _set(self, **fields: Any) -> "SessionBuilder":
        self._overrides.update(fields)
        return self
