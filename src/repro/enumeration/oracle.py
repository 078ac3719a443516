"""Exhaustive enumerator over cluster snapshots.

Enumerates *every* subset of objects that ever co-clusters, intersects its
co-clustering times with the (K, L, G) maximal-valid-sequence
decomposition, and reports all valid patterns.  Exponential in the largest
cluster size, so usable only on small streams; ``core/live.py`` builds its
offline maximal convoys on it.  The test-suite judges the enumerators
against ``tests/cp_oracle.py`` instead, which shares no code with them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from repro.model.constraints import PatternConstraints
from repro.model.snapshot import ClusterSnapshot
from repro.model.timeseq import TimeSequence, maximal_valid_sequences


def enumerate_all_patterns(
    snapshots: Iterable[ClusterSnapshot],
    constraints: PatternConstraints,
    max_cluster_size: int = 14,
) -> dict[frozenset[int], list[TimeSequence]]:
    """All CP(M, K, L, G) patterns of a bounded cluster-snapshot stream.

    Returns a mapping ``object set -> maximal valid time sequences``.

    Raises:
        ValueError: when a cluster exceeds ``max_cluster_size`` (the
            powerset would be unreasonably large for a reference run).
    """
    co_times: dict[frozenset[int], list[int]] = {}
    for snapshot in snapshots:
        for members in snapshot.clusters.values():
            if len(members) > max_cluster_size:
                raise ValueError(
                    f"cluster of size {len(members)} at t={snapshot.time} "
                    f"exceeds the oracle cap {max_cluster_size}"
                )
            if len(members) < constraints.m:
                continue
            for size in range(constraints.m, len(members) + 1):
                for subset in combinations(sorted(members), size):
                    co_times.setdefault(frozenset(subset), []).append(
                        snapshot.time
                    )
    results: dict[frozenset[int], list[TimeSequence]] = {}
    for subset, times in co_times.items():
        sequences = maximal_valid_sequences(
            sorted(set(times)), constraints.k, constraints.l, constraints.g
        )
        if sequences:
            results[subset] = sequences
    return results
