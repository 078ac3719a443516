"""The plugin registry: listing, registering and running a custom strategy.

The interchangeable strategies of the framework — clustering kernels,
enumeration kernels, enumerators, shed policies, pattern families — are
plugins on one typed registry.  This example (1) lists the registered
plugins with their capability metadata, (2) registers a custom shed
policy at runtime (one that drops only the records of known noise
objects and counts the batches it inspects), and (3) runs a detection
session on it purely by *name*, verifying the pattern set matches a
session that sheds nothing.

Third-party packages do step (2) without touching any code here, via a
``repro.plugins`` entry point — see docs/API.md.

Run:  python examples/plugin_registry.py
"""

from __future__ import annotations

import random

from repro import PatternConstraints, StreamRecord, open_session
from repro.registry import (
    PluginSpec,
    default_registry,
    reset_default_registry,
)
from repro.shedding import ShedPolicy

NOISE = frozenset({100, 101})


class NoiseShedPolicy(ShedPolicy):
    """A 'third-party' policy: drops the records of known noise objects."""

    name = "noise"

    def __init__(self) -> None:
        self.batches_seen = 0

    def select_drops(self, oids, rate, protected):
        """Indices of every noise record; counts the batches inspected."""
        self.batches_seen += 1
        return [index for index, oid in enumerate(oids) if oid in NOISE]


def make_stream(horizon: int = 15) -> list[StreamRecord]:
    """One tight group of four plus two far-away noise walkers."""
    rng = random.Random(11)
    records, last = [], {}
    for t in range(1, horizon + 1):
        for oid in range(4):
            records.append(
                StreamRecord(
                    oid, 2.0 * t + rng.uniform(-0.2, 0.2), 0.1 * oid,
                    t, last.get(oid),
                )
            )
            last[oid] = t
        for noise in sorted(NOISE):
            records.append(
                StreamRecord(
                    noise, 500.0 + 50.0 * noise + 3.0 * t, 900.0,
                    t, last.get(noise),
                )
            )
            last[noise] = t
    return records


def main() -> None:
    registry = default_registry()
    print("Registered plugins per axis:")
    for kind in registry.kinds():
        names = ", ".join(registry.names(kind))
        print(f"  {kind:<20} {names}")
    numpy_spec = registry.get("clustering_kernel", "numpy")
    print(
        f"\nCapability metadata example — clustering_kernel 'numpy': "
        f"{numpy_spec.capabilities.summary_markers()}"
    )

    registry.register(
        PluginSpec(
            kind="shed_policy",
            name="noise",
            factory=lambda seed=0: NoiseShedPolicy(),
            summary="drops the records of known noise objects",
        )
    )
    print("\nRegistered custom shed policy 'noise'.")

    records = make_stream()
    signatures = {}
    for policy in ("none", "noise"):
        with open_session(
            epsilon=1.0,
            cell_width=4.0,
            min_pts=3,
            constraints=PatternConstraints(m=3, k=5, l=2, g=2),
            shed_policy=policy,
            shed_rate=0.5,
        ) as session:
            session.feed_many(records)
        signatures[policy] = {p.objects for p in session.patterns}
        print(
            f"  shed_policy={policy:<6} patterns={len(session.patterns)} "
            f"records shed={session.result().shedding['records_shed']}"
        )
    print(
        f"  custom policy inspected {session.shed_policy.batches_seen} "
        f"batches"
    )
    assert signatures["none"] == signatures["noise"]
    print("Pattern sets identical with and without the policy: True")

    # Leave the process-wide registry as we found it.
    reset_default_registry()


if __name__ == "__main__":
    main()
