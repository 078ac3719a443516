"""The typed plugin registry: one front door for every strategy axis.

A :class:`PluginSpec` names a strategy (``kind`` + ``name``), carries its
construction callable and its :class:`~repro.registry.capabilities.
PluginCapabilities`, and a :class:`PluginRegistry` holds the specs of
every axis — execution backends, clustering kernels, enumeration
kernels, enumerators — behind uniform ``register`` / ``get`` / ``names``
operations.  Cross-axis validity (e.g. a bitmap-batching enumeration
kernel needs a bitmap-providing enumerator) is computed declaratively
from capability pairs by :func:`check_selection`, replacing the
per-combination if-chains that previously lived in
``ICPEConfig.__post_init__``.

The error classes double-inherit from ``ValueError``, the built-in
exception type the pre-registry code raised for bad names and invalid
combinations, so every existing caller and test keeps working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.registry.capabilities import PluginCapabilities

#: The six built-in strategy axes.  Registration is not limited to these
#: — a future axis (e.g. pattern sinks, state backends) is just a new
#: ``kind`` string — but these are the axes ``ICPEConfig`` validates.
PLUGIN_KINDS = (
    "backend",
    "clustering_kernel",
    "enumeration_kernel",
    "enumerator",
    "shed_policy",
    "pattern_family",
)


class PluginError(Exception):
    """Base class for every registry error."""


class UnknownPluginError(PluginError, ValueError):
    """No plugin of the requested kind is registered under the name."""


class DuplicatePluginError(PluginError, ValueError):
    """A plugin with the same (kind, name) is already registered."""


class PluginCompatibilityError(PluginError, ValueError):
    """A selected combination of plugins is invalid by capability."""


@dataclass(frozen=True, slots=True)
class PluginSpec:
    """One registered strategy: identity, factory, capabilities.

    Attributes:
        kind: the strategy axis (see :data:`PLUGIN_KINDS`).
        name: the selection name (what ``ICPEConfig`` fields and CLI
            flags accept).
        factory: the construction callable.  Its signature is fixed per
            kind — see :mod:`repro.registry.builtin` for the reference
            signatures each axis uses.
        capabilities: declarative requirement/provision metadata.
        summary: one-line human description (CLI ``plugins`` listing).
        source: provenance marker — ``"builtin"``, ``"entry-point"`` or
            ``"runtime"`` (registered programmatically).
    """

    kind: str
    name: str
    factory: Callable[..., Any]
    capabilities: PluginCapabilities = field(
        default_factory=PluginCapabilities
    )
    summary: str = ""
    source: str = "runtime"

    def __post_init__(self) -> None:
        if not self.kind or not self.name:
            raise PluginError(
                f"plugin kind and name must be non-empty: "
                f"kind={self.kind!r} name={self.name!r}"
            )

    def create(self, *args: Any, **kwargs: Any) -> Any:
        """Construct the plugin."""
        return self.factory(*args, **kwargs)


def check_selection(selection: dict[str, PluginSpec]) -> None:
    """Validate one plugin per axis against each other's capabilities.

    ``selection`` maps kind -> chosen spec; absent axes are skipped, so
    partial selections (e.g. a clustering-only bench) validate too.

    Raises:
        PluginCompatibilityError: when a capability requirement of one
            selected plugin is not provided by the selected plugin of
            another axis.
    """
    enum_kernel = selection.get("enumeration_kernel")
    enumerator = selection.get("enumerator")
    if enum_kernel is not None and enumerator is not None:
        caps = enum_kernel.capabilities
        if (
            caps.requires_bitmap_enumeration
            and not enumerator.capabilities.provides_bitmap_enumeration
        ):
            raise PluginCompatibilityError(
                f"enumeration_kernel {enum_kernel.name!r} batches "
                f"membership bit strings and requires a bitmap-providing "
                f"enumerator; enumerator {enumerator.name!r} has no "
                f"bitmap form — use enumeration_kernel='python'"
            )
        allowed = caps.compatible_enumerators
        if allowed is not None and enumerator.name not in allowed:
            raise PluginCompatibilityError(
                f"enumeration_kernel {enum_kernel.name!r} supports "
                f"enumerators {allowed}; got {enumerator.name!r}"
            )
    family = selection.get("pattern_family")
    if (
        family is not None
        and enumerator is not None
        and family.capabilities.predicts_patterns
        and not enumerator.capabilities.provides_forming_state
    ):
        raise PluginCompatibilityError(
            f"pattern_family {family.name!r} scores live partial matches "
            f"and requires a forming-state enumerator; enumerator "
            f"{enumerator.name!r} exposes none — use enumerator='fba' or "
            f"'vba'"
        )


class PluginRegistry:
    """Uniform registration and lookup across every strategy axis.

    Specs are kept in registration order per kind, so built-ins come
    first and listings are deterministic.  The registry itself is plain
    and instantiable (tests build throwaway ones); the process-wide
    instance most code consults lives behind
    :func:`repro.registry.default_registry`.
    """

    def __init__(self) -> None:
        self._specs: dict[str, dict[str, PluginSpec]] = {}

    def register(self, spec: PluginSpec, *, replace: bool = False) -> PluginSpec:
        """Add one spec; returns it for chaining.

        Raises:
            DuplicatePluginError: when the (kind, name) slot is taken and
                ``replace`` is false.
        """
        bucket = self._specs.setdefault(spec.kind, {})
        if spec.name in bucket and not replace:
            raise DuplicatePluginError(
                f"{spec.kind} plugin {spec.name!r} is already registered "
                f"(source={bucket[spec.name].source!r}); pass replace=True "
                f"to override"
            )
        bucket[spec.name] = spec
        return spec

    def register_all(self, specs: Iterable[PluginSpec]) -> None:
        """Register every spec of an iterable (no replacement)."""
        for spec in specs:
            self.register(spec)

    def has(self, kind: str, name: str) -> bool:
        """True when a plugin of ``kind`` is registered under ``name``."""
        return name in self._specs.get(kind, {})

    def get(self, kind: str, name: str) -> PluginSpec:
        """Look one spec up.

        Raises:
            UnknownPluginError: listing the registered names of the kind,
                so the message doubles as the CLI's "did you mean" line.
        """
        bucket = self._specs.get(kind, {})
        spec = bucket.get(name)
        if spec is None:
            known = list(bucket) or ["<none registered>"]
            raise UnknownPluginError(
                f"unknown {kind.replace('_', ' ')} {name!r} "
                f"(plugin kind {kind!r}); registered: {known}"
            )
        return spec

    def names(self, kind: str) -> tuple[str, ...]:
        """Registered names of one kind, in registration order."""
        return tuple(self._specs.get(kind, {}))

    def specs(self, kind: str | None = None) -> tuple[PluginSpec, ...]:
        """Every spec of one kind — or of all kinds, grouped by kind."""
        if kind is not None:
            return tuple(self._specs.get(kind, {}).values())
        return tuple(
            spec
            for bucket in self._specs.values()
            for spec in bucket.values()
        )

    def kinds(self) -> tuple[str, ...]:
        """Every kind with at least one registered plugin."""
        return tuple(self._specs)

    def create(self, kind: str, name: str, *args: Any, **kwargs: Any) -> Any:
        """Resolve and construct a plugin in one step."""
        return self.get(kind, name).create(*args, **kwargs)

    def validate_selection(self, **names: str | None) -> dict[str, PluginSpec]:
        """Resolve one name per axis and check cross-axis compatibility.

        Keyword names are kinds (``backend=``, ``clustering_kernel=``,
        ``enumeration_kernel=``, ``enumerator=``, ``shed_policy=``,
        ``pattern_family=``); ``None`` skips an axis.  Returns the
        resolved kind -> spec mapping.

        Raises:
            UnknownPluginError: for a name no plugin is registered under.
            PluginCompatibilityError: for an invalid combination.
        """
        selection: dict[str, PluginSpec] = {}
        for kind, name in names.items():
            if name is None:
                continue
            selection[kind] = self.get(kind, name)
        check_selection(selection)
        return selection
