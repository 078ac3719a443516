"""Per-plugin capability metadata driving declarative compatibility.

:class:`PluginCapabilities` turns the facts that decide whether two
strategies combine — and whether a kernel honours the ablation switches
— into *data* attached to each registered plugin, so validity is
computed from capability pairs (see
:func:`repro.registry.core.check_selection` and
:func:`repro.kernels.make_kernel`) instead of being re-encoded wherever
two axes meet.  Every flag here is read by one of those checks.
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
            local-index ablation switches and the GR-index cell width;
            vectorized kernels have no object path and must be combined
            with default switches only.
        provides_forming_state: the enumerator can describe its live
            partial matches (open FBA windows / unclosed VBA bit
            strings) as forming-candidate descriptors, the input of the
            prediction scorer.  FBA and VBA provide it; the baseline's
            materialised subsets have no per-candidate bit strings.
        predicts_patterns: the pattern family scores live partial
            matches by their probability of reaching K snapshots and
            emits ``PatternForming`` events before confirmation.  It
            can only be combined with enumerators that declare
            ``provides_forming_state``.
    """

    provides_bitmap_enumeration: bool = False
    requires_bitmap_enumeration: bool = False
    supports_ablation: bool = True
    provides_forming_state: bool = False
    predicts_patterns: bool = False

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
        if self.provides_forming_state:
            markers.append("forming-state")
        if self.predicts_patterns:
            markers.append("predicts-patterns")
        return ",".join(markers) if markers else "-"
