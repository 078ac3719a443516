"""One front door for every strategy axis: the typed plugin registry.

PRs 1-3 reproduced the paper's composability as three separate ad-hoc
axes — bare strings on ``ICPEConfig`` each with its own literal-set
validation and special-cased combination checks.  This package replaces
that with a single capability-aware extension point:

* :mod:`repro.registry.core` — :class:`PluginRegistry` /
  :class:`PluginSpec`, the error hierarchy, and the declarative
  :func:`check_selection` compatibility rule;
* :mod:`repro.registry.capabilities` — the per-plugin metadata
  (``provides_bitmap_enumeration``, ``supports_ablation``, ...);
* :mod:`repro.registry.builtin` — re-registration of every existing
  strategy (backends, clustering kernels, enumeration kernels,
  enumerators);
* :mod:`repro.registry.entrypoints` — ``entry_points(group=
  "repro.plugins")`` discovery so third-party packages register
  without touching core.

Most code consults the process-wide :func:`default_registry`; tests
build private :class:`PluginRegistry` instances or call
:func:`reset_default_registry` after monkeypatching discovery.
"""

from __future__ import annotations

from repro.registry.builtin import BUILTIN_SPECS, register_builtin_plugins
from repro.registry.capabilities import PluginCapabilities
from repro.registry.core import (
    PLUGIN_KINDS,
    DuplicatePluginError,
    PluginCompatibilityError,
    PluginError,
    PluginRegistry,
    PluginSpec,
    UnknownPluginError,
    check_selection,
)
from repro.registry.entrypoints import (
    ENTRY_POINT_GROUP,
    load_entry_point_plugins,
)

__all__ = [
    "BUILTIN_SPECS",
    "ENTRY_POINT_GROUP",
    "PLUGIN_KINDS",
    "DuplicatePluginError",
    "PluginCapabilities",
    "PluginCompatibilityError",
    "PluginError",
    "PluginRegistry",
    "PluginSpec",
    "UnknownPluginError",
    "check_selection",
    "default_registry",
    "load_entry_point_plugins",
    "register_builtin_plugins",
    "reset_default_registry",
]

_default: PluginRegistry | None = None


def default_registry() -> PluginRegistry:
    """The process-wide registry: built-ins plus entry-point plugins.

    Built lazily on first use (imports stay cheap) and cached for the
    life of the process; ``ICPEConfig`` validation, the CLI's flag
    choices and the bench harness's sweep defaults all read from it.
    """
    global _default
    if _default is None:
        registry = PluginRegistry()
        register_builtin_plugins(registry)
        load_entry_point_plugins(registry)
        _default = registry
    return _default


def reset_default_registry() -> None:
    """Drop the cached default registry (re-discovers on next access).

    A test hook: monkeypatch entry-point discovery, reset, exercise,
    reset again on teardown.
    """
    global _default
    _default = None
