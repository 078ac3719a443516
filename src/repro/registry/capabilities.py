"""Per-plugin capability metadata driving declarative compatibility.

PRs 1-3 grew three strategy axes (execution backends, clustering
kernels, enumeration kernels) plus the enumerator choice, each policing
its own combinations with hand-rolled if-chains — the baseline x numpy
rejection lived in ``ICPEConfig.__post_init__``, the ablation
restriction in ``make_kernel``.
:class:`PluginCapabilities` turns those facts into *data* attached to
each registered plugin, so cross-axis validity is computed from
capability pairs (see :func:`repro.registry.core.check_selection`)
instead of being re-encoded wherever two axes meet.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True, slots=True)
class PluginCapabilities:
    """What a plugin needs and what it provides.

    Attributes:
        provides_bitmap_enumeration: the enumerator maintains Definition
            13/14 membership bit strings (FBA / VBA) and therefore has a
            batched bitmap form.
        requires_bitmap_enumeration: the enumeration kernel batches
            membership bitmaps and can only host enumerators that
            provide them (``provides_bitmap_enumeration``).
        supports_ablation: the clustering kernel honours the Lemma-1/2 /
            local-index ablation switches; vectorized kernels have no
            object path and must be combined with default switches only.
        honours_cell_width: the clustering kernel uses the configured
            GR-index cell width ``lg``; vectorized kernels derive their
            bucket width from epsilon, so Fig. 11 grid sweeps only
            measure kernels with this capability.
        compatible_enumerators: optional explicit allow-list of
            enumerator names an enumeration kernel supports; ``None``
            means "no restriction beyond the bitmap requirement".  Lets
            a third-party kernel pin itself to specific enumerators
            without shipping a new capability flag.
        supports_batch_ingest: the execution backend routes columnar
            :class:`~repro.model.batch.SnapshotBatch` envelopes through
            its keyed exchanges (batch-shaped exchange: one envelope per
            destination partition per batch).  Every built-in backend
            declares it; the pipeline falls back to per-row elements for
            backends that do not.
        supports_process_isolation: the execution backend runs subtasks
            in separate OS processes (shared-nothing address spaces, no
            GIL contention) and rebuilds operator state per worker from a
            bound :class:`~repro.streaming.runtime.base.GraphSpec`
            instead of receiving it from the caller.  Drivers use this
            to know the backend needs ``bind_graph()`` before running.
        supports_checkpoint: the execution backend can capture and
            restore its operators' state through the ``query`` surface
            (``capture_state`` / ``restore_encoded``), making
            ``Session.checkpoint()`` available on top of it.  Every
            built-in backend declares it (the process backend drains its
            workers through the synchronous reply protocol).
        protects_patterns: the shed policy consults live enumeration
            state and never drops a record whose object participates in
            a partial match (an open FBA window / unclosed VBA bit
            string).  Policies without it shed blindly — cheaper per
            batch, but they trade recall for latency.
        provides_forming_state: the enumerator can describe its live
            partial matches (open FBA windows / unclosed VBA bit
            strings) as forming-candidate descriptors, the input of the
            prediction scorer.  FBA and VBA provide it; the baseline's
            materialised subsets have no per-candidate bit strings.
        detects_evolving_groups: the pattern family tracks groups whose
            membership may drift between consecutive snapshots under a
            Jaccard-continuity threshold θ, emitting ``GroupEvolved``
            events alongside the strict pattern stream.
        predicts_patterns: the pattern family scores live partial
            matches by their probability of reaching K snapshots and
            emits ``PatternForming`` events before confirmation.  It
            can only be combined with enumerators that declare
            ``provides_forming_state``.
        exports_telemetry: the execution backend records per-invocation
            :class:`~repro.streaming.dataflow.SpanRecord` spans at the
            operator call site and surfaces them to the master through
            ``drain_spans`` (process workers ship spans on the reply
            protocol), so the observability hub sees an identical span
            stream regardless of where subtasks physically run.  Every
            built-in backend declares it.
    """

    provides_bitmap_enumeration: bool = False
    requires_bitmap_enumeration: bool = False
    supports_ablation: bool = True
    honours_cell_width: bool = True
    compatible_enumerators: tuple[str, ...] | None = None
    supports_batch_ingest: bool = False
    supports_process_isolation: bool = False
    supports_checkpoint: bool = False
    protects_patterns: bool = False
    provides_forming_state: bool = False
    detects_evolving_groups: bool = False
    predicts_patterns: bool = False
    exports_telemetry: bool = False

    def flags(self) -> dict[str, object]:
        """The capability fields as a flat name -> value mapping."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary_markers(self) -> str:
        """Compact marker string for CLI listings (e.g. ``bitmap,no-ablation``)."""
        markers: list[str] = []
        if self.provides_bitmap_enumeration:
            markers.append("bitmap")
        if self.requires_bitmap_enumeration:
            markers.append("needs-bitmap")
        if not self.supports_ablation:
            markers.append("no-ablation")
        if not self.honours_cell_width:
            markers.append("epsilon-buckets")
        if self.compatible_enumerators is not None:
            markers.append(
                "enumerators=" + "|".join(self.compatible_enumerators)
            )
        if self.supports_batch_ingest:
            markers.append("batch-ingest")
        if self.supports_process_isolation:
            markers.append("process-isolated")
        if self.supports_checkpoint:
            markers.append("checkpoint")
        if self.protects_patterns:
            markers.append("protects-patterns")
        if self.provides_forming_state:
            markers.append("forming-state")
        if self.detects_evolving_groups:
            markers.append("evolving-groups")
        if self.predicts_patterns:
            markers.append("predicts-patterns")
        if self.exports_telemetry:
            markers.append("telemetry")
        return ",".join(markers) if markers else "-"
