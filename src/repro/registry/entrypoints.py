"""Third-party plugin discovery via ``importlib.metadata`` entry points.

A package registers plugins without touching this repository by
declaring an entry point in the ``repro.plugins`` group::

    [project.entry-points."repro.plugins"]
    my-policy = my_package.plugins:register

The entry point may resolve to any of:

* a callable taking the :class:`~repro.registry.core.PluginRegistry`
  (most flexible — register as many specs as you like);
* a single :class:`~repro.registry.core.PluginSpec`;
* an iterable of :class:`~repro.registry.core.PluginSpec`.

Discovery is fail-soft: a broken third-party distribution must not take
down every ``import repro``, so load errors become warnings and the
remaining entry points still register.
"""

from __future__ import annotations

import warnings
from typing import Iterable

from repro.registry.core import PluginRegistry, PluginSpec

#: The entry-point group third-party packages register under.
ENTRY_POINT_GROUP = "repro.plugins"


def _default_entries() -> Iterable:
    from importlib.metadata import entry_points

    return entry_points(group=ENTRY_POINT_GROUP)


def load_entry_point_plugins(
    registry: PluginRegistry, entries: Iterable | None = None
) -> int:
    """Load and apply every ``repro.plugins`` entry point.

    ``entries`` overrides the installed-distribution scan (tests inject
    synthetic entry points this way).  Returns the number of entry
    points that applied cleanly; failures warn and are skipped.
    """
    if entries is None:
        entries = _default_entries()
    loaded = 0
    for entry in entries:
        try:
            _apply(registry, entry.load())
            loaded += 1
        except Exception as error:  # fail-soft: never break `import repro`
            warnings.warn(
                f"repro plugin entry point {getattr(entry, 'name', entry)!r} "
                f"failed to load: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
    return loaded


def _apply(registry: PluginRegistry, target) -> None:
    """Register whatever shape one resolved entry point produced."""
    if isinstance(target, PluginSpec):
        registry.register(target)
        return
    if callable(target):
        result = target(registry)
        if isinstance(result, PluginSpec):
            registry.register(result)
        elif result is not None:
            registry.register_all(result)
        return
    registry.register_all(target)
