"""Id-based partitioning (Section 6.1).

Star partitioning of SPARE cannot work online (related trajectories are
unknown in advance), so the paper keys the enumeration subtasks by
trajectory id: subtask ``o`` receives ``P_t(o)``, the *larger-id* members
of ``o``'s cluster at time ``t``.  Every pattern ``S`` is then found
exactly once — at the subtask of ``min(S)``.  Lemma 3 discards clusters
smaller than the significance constraint M up front.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.model.batch import PartitionBatch, packable_ids
from repro.model.snapshot import ClusterSnapshot


def id_partitions(
    snapshot: ClusterSnapshot, significance: int
) -> dict[int, frozenset[int]]:
    """``P_t(o)`` for every anchor ``o`` in one cluster snapshot.

    Args:
        snapshot: the clusters at one time.
        significance: the M constraint; clusters with fewer members are
            dropped (Lemma 3).

    Returns:
        anchor oid -> frozenset of strictly larger co-cluster member ids.
        Anchors whose partition would be empty (the cluster maximum) are
        included with an empty set only if they appear in a valid cluster,
        since their subtask state may need the "still clustered" signal.
    """
    partitions: dict[int, frozenset[int]] = {}
    for members in snapshot.clusters.values():
        if len(members) < significance:
            continue
        ordered = sorted(members)
        for position, anchor in enumerate(ordered):
            partitions[anchor] = frozenset(ordered[position + 1 :])
    return partitions


def partition_batch(
    time: int, members, bounds, significance: int
) -> PartitionBatch | None:
    """:func:`id_partitions` on cluster arrays, as one :class:`PartitionBatch`.

    ``members`` / ``bounds`` are a kernel's
    :meth:`~repro.kernels.base.ClusteringKernel.cluster_members` arrays
    (clusters disjoint, members ascending).  Lemma 3 drops clusters below
    ``significance``; every member of a kept cluster is an anchor (the
    maximum with no members), and every (smaller, larger) member pair of
    a kept cluster is one packed key.  Walking members in ascending oid
    order emits the keys already sorted.  Returns ``None`` when a kept id
    lies outside ``[0, 2**31)``, which packed keys cannot hold.
    """
    sizes = np.diff(bounds)
    end = np.repeat(bounds[1:], sizes)  # each member's cluster end
    kept = np.flatnonzero(np.repeat(sizes >= significance, sizes))
    anchors = members[kept]
    if not packable_ids(anchors):
        return None
    ascending = kept[np.argsort(anchors, kind="stable")]
    anchors = members[ascending]
    counts = end[ascending] - ascending - 1  # larger members of the cluster
    total = int(counts.sum())
    offsets = np.cumsum(counts) - counts
    larger = members[
        np.arange(total, dtype=np.int64)
        + np.repeat(ascending + 1 - offsets, counts)
    ]
    keys = (np.repeat(anchors, counts) << np.int64(32)) | larger
    return PartitionBatch(time, anchors, keys)


class PartitionRouter:
    """Streams cluster snapshots into per-anchor partition sequences.

    The router mirrors the keyed exchange in front of the enumeration
    subtasks: :meth:`route` yields ``(anchor, members)`` for the current
    time, including an *empty* partition for every anchor that has appeared
    before but is absent now — enumerator state machines (VBA's appends,
    FBA's windows) need the explicit absence signal.
    """

    def __init__(self, significance: int):
        if significance < 2:
            raise ValueError(f"significance must be >= 2, got {significance}")
        self.significance = significance
        self._known_anchors: set[int] = set()

    def route(
        self, snapshot: ClusterSnapshot
    ) -> Iterator[tuple[int, frozenset[int]]]:
        """Yield ``(anchor, members)`` for the snapshot, including empties for known anchors."""
        current = id_partitions(snapshot, self.significance)
        for anchor, members in current.items():
            if members:
                self._known_anchors.add(anchor)
        empty = frozenset()
        for anchor in sorted(self._known_anchors | set(current)):
            yield anchor, current.get(anchor, empty)
