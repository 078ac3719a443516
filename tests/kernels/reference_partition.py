"""The snapshot-to-partition chain before it stayed on arrays, kept verbatim.

``NumpyKernel._pair_indices`` now finds candidates in one column-range
pass, the kernel clustering stage partitions clusters on arrays
(``repro.enumeration.partition.partition_batch``) and emits one
``PartitionBatch``, and the numpy enumeration kernel consumes its keys
as they are.  The earlier chain lives on here as the *specification*
those are held to by ``tests/kernels/test_partition_differential.py``:

* ``NumpyKernel`` — the five-offset epsilon-join and the DBSCAN labeling
  that grouped its pairs, every method copied unchanged;
* ``from_groups`` and ``id_partitions`` — ``ClusterSnapshot.from_groups``
  (its ``cls`` now an argument) and the Lemma-3 partitioning, unchanged;
* ``cluster_stage`` — the body of ``KernelClusterOperator.end_batch``
  over one snapshot's columns (the snapshot returned beside the
  records instead of being accounted);
* ``pack_partitions`` — the packing lines of
  ``NumpyEnumerationKernel.on_snapshot`` and its ``_check_ids``.

Only what these call and the change left alone (``JoinStats``,
``DBSCANResult``, the metric names, the pruning margin) is shared.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.cluster.dbscan import DBSCANResult
from repro.geometry.distance import canonical_metric_name
from repro.geometry.rect import pruning_epsilon
from repro.join.range_join import JoinStats
from repro.kernels.base import ClusteringKernel, Points
from repro.model.snapshot import ClusterSnapshot

#: Half-plane neighbour offsets: together with the symmetric roles of the
#: two cells in a match, these cover every unordered pair of 3x3-adjacent
#: cells exactly once.
_OFFSETS = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))


class NumpyKernel(ClusteringKernel):
    """The numpy clustering kernel with its five-offset epsilon-join."""

    name = "numpy"

    def __init__(
        self,
        epsilon: float,
        min_pts: int,
        metric_name: str = "l1",
    ):
        """Reference-kernel-only switches (lemma1, lemma2, local_index,
        cell_width, rtree_fanout) are deliberately not accepted: the
        vectorized join has no object replication, no local trees, and
        picks its own bucket width.  :func:`repro.kernels.make_kernel`
        rejects non-default switch combinations with a clear error."""
        if np is None:
            raise RuntimeError(
                "the 'numpy' clustering kernel requires NumPy, which is not "
                "installed; use clustering_kernel='python' instead"
            )
        super().__init__(epsilon, min_pts)
        self.metric_name = canonical_metric_name(metric_name)
        # Bucket width: any pair at metric distance <= epsilon (all
        # supported metrics bound L-infinity) must land in adjacent cells.
        # Derived from epsilon alone — the configured grid ``cell_width``
        # (the swept axis of Fig. 11) has no effect on this kernel, so
        # grid-width sweeps must run the reference kernel.
        self.bucket_width = (
            pruning_epsilon(self.epsilon) if self.epsilon > 0 else 1.0
        )

    def _pack(self, points: Points):
        """Sort by oid and split into (oids, xs, ys) contiguous arrays."""
        triples = sorted(points)
        oids = np.array([t[0] for t in triples], dtype=np.int64)
        xs = np.array([t[1] for t in triples], dtype=np.float64)
        ys = np.array([t[2] for t in triples], dtype=np.float64)
        return oids, xs, ys

    def _distances(self, xs, ys, left, right):
        """Metric distances of the candidate index pairs, vectorized."""
        dx = np.abs(xs[left] - xs[right])
        dy = np.abs(ys[left] - ys[right])
        if self.metric_name == "l1":
            return dx + dy
        if self.metric_name == "l2":
            # sqrt(dx*dx + dy*dy), bit-for-bit the scalar metric's formula
            # (np.hypot and math.hypot can differ by one ulp).
            return np.sqrt(dx * dx + dy * dy)
        return np.maximum(dx, dy)

    def _pair_indices(self, xs, ys):
        """Exact epsilon-pair index arrays ``(left, right)`` with left < right.

        Index order equals oid order (points are packed sorted), so the
        ``left < right`` canonicalisation is also ``oid_left < oid_right``.
        """
        n = xs.size
        empty = np.empty(0, dtype=np.int64)
        if n < 2:
            self.last_join_stats = JoinStats(locations=int(n))
            return empty, empty

        # The pair filter runs in float64, so a pair's true axis gap can
        # exceed epsilon by a few ulps and still verify; the shared
        # candidate-pruning margin in the bucket width keeps every such
        # pair within the 3x3 block.  Coordinates are shifted to the
        # origin first so the float floor(x / width) itself cannot
        # misplace a cell by more than the same margin absorbs.
        width = self.bucket_width
        cx_f = np.floor((xs - xs.min()) / width)
        cy_f = np.floor((ys - ys.min()) / width)
        # The composite key must hold up to (cx + 2) * stride in int64
        # (neighbour probes add up to stride + 1 to a key); a pathological
        # spread/epsilon ratio (~1e10 per axis) would wrap silently and
        # drop neighbour pairs, so refuse it before casting.
        stride_f = cy_f.max() + 2.0
        if (cx_f.max() + 2.0) * stride_f >= float(np.iinfo(np.int64).max):
            raise ValueError(
                "coordinate spread / epsilon ratio too large for the "
                "numpy kernel's int64 cell keys; use the 'python' kernel "
                "for this workload"
            )
        cx = cx_f.astype(np.int64)
        cy = cy_f.astype(np.int64)
        # stride leaves one spare row so y-neighbour offsets of boundary
        # cells encode to keys no occupied cell can collide with.
        stride = int(cy.max()) + 2
        keys = cx * stride + cy

        order = np.argsort(keys, kind="stable").astype(np.int64)
        occupied, starts, counts = np.unique(
            keys[order], return_index=True, return_counts=True
        )

        lefts: list = []
        rights: list = []
        candidates = 0
        for dx, dy in _OFFSETS:
            delta = dx * stride + dy
            if delta == 0:
                cell_a = np.arange(occupied.size, dtype=np.int64)
                cell_b = cell_a
            else:
                targets = occupied + delta
                pos = np.searchsorted(occupied, targets)
                found = pos < occupied.size
                found[found] = occupied[pos[found]] == targets[found]
                cell_a = np.flatnonzero(found).astype(np.int64)
                cell_b = pos[cell_a]
            if cell_a.size == 0:
                continue

            # Expand each matched (cell_a, cell_b) block pair into its
            # full cross product of point indices with cumsum arithmetic.
            sizes_b = counts[cell_b]
            block = counts[cell_a] * sizes_b
            bounds = np.concatenate(([0], np.cumsum(block)))
            total = int(bounds[-1])
            if total == 0:
                continue
            match = np.repeat(
                np.arange(cell_a.size, dtype=np.int64), block
            )
            within = np.arange(total, dtype=np.int64) - bounds[match]
            a_local = within // sizes_b[match]
            b_local = within % sizes_b[match]
            left = order[starts[cell_a][match] + a_local]
            right = order[starts[cell_b][match] + b_local]
            if delta == 0:
                keep = left < right
                left, right = left[keep], right[keep]
            else:
                # Distinct cells: each unordered pair appears once; only
                # normalise the orientation to (smaller, larger) index.
                left, right = (
                    np.minimum(left, right),
                    np.maximum(left, right),
                )
            candidates += left.size
            lefts.append(left)
            rights.append(right)

        if not lefts:
            self.last_join_stats = JoinStats(
                locations=int(n), occupied_cells=int(occupied.size)
            )
            return empty, empty
        left = np.concatenate(lefts)
        right = np.concatenate(rights)
        keep = self._distances(xs, ys, left, right) <= self.epsilon
        left, right = left[keep], right[keep]
        self.last_join_stats = JoinStats(
            locations=int(n),
            grid_objects=int(n),
            occupied_cells=int(occupied.size),
            emitted_pairs=candidates,
            result_pairs=int(left.size),
        )
        return left, right

    def _collapse_duplicate_oids(self, oids, left, right):
        """Collapse packed rows sharing an oid into one graph node.

        The kernel contract speaks in *distinct objects*: pairs between
        two rows of the same oid are dropped and repeated oid pairs
        dedupe, matching the reference kernel's oid-level pair set.  With
        unique oids (the normal case) this is a no-op.
        """
        uoids, inverse = np.unique(oids, return_inverse=True)
        if uoids.size == oids.size:
            return oids, left, right
        inverse = inverse.astype(np.int64)
        left, right = inverse[left], inverse[right]
        keep = left != right
        left, right = left[keep], right[keep]
        key = np.unique(
            np.minimum(left, right) * uoids.size + np.maximum(left, right)
        )
        return uoids, key // uoids.size, key % uoids.size

    def neighbor_pairs(self, points: Points) -> set[tuple[int, int]]:
        """Exact epsilon-neighbour oid pairs, computed on arrays."""
        oids, xs, ys = self._pack(points)
        left, right = self._pair_indices(xs, ys)
        oids, left, right = self._collapse_duplicate_oids(oids, left, right)
        return set(zip(oids[left].tolist(), oids[right].tolist()))

    def cluster_columns(self, oids, xs, ys) -> DBSCANResult:
        """Columnar entry: cluster parallel ``(oids, xs, ys)`` columns.

        The batch data plane hands snapshot columns straight here — one
        stable argsort replaces :meth:`_pack`'s sort-and-split, and with
        distinct oids (the snapshot contract) the packed layout is
        identical to the row path's, so results are bit-for-bit equal.
        """
        oids = np.asarray(oids, dtype=np.int64)
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        order = np.argsort(oids, kind="stable")
        return self._cluster_packed(oids[order], xs[order], ys[order])

    def _cluster_packed(self, oids, xs, ys) -> DBSCANResult:
        """DBSCAN over oid-sorted packed arrays (shared by both entries)."""
        left, right = self._pair_indices(xs, ys)
        oids, left, right = self._collapse_duplicate_oids(oids, left, right)
        n = oids.size

        degree = (
            np.bincount(left, minlength=n)
            + np.bincount(right, minlength=n)
            + 1  # count_self: standard DBSCAN, the repository default
        )
        core = degree >= self.min_pts

        # Core components: iterated min-label propagation + pointer jumping.
        labels = np.arange(n, dtype=np.int64)
        cc = core[left] & core[right]
        cc_left, cc_right = left[cc], right[cc]
        while True:
            before = labels.copy()
            merged = np.minimum(labels[cc_left], labels[cc_right])
            np.minimum.at(labels, cc_left, merged)
            np.minimum.at(labels, cc_right, merged)
            labels = np.minimum(labels, labels[labels])
            if np.array_equal(labels, before):
                break

        # Border points: smallest-id core neighbour (canonical rule).
        half = core[left] ^ core[right]
        core_end = np.where(core[left[half]], left[half], right[half])
        border_end = np.where(core[left[half]], right[half], left[half])
        anchor = np.full(n, n, dtype=np.int64)
        np.minimum.at(anchor, border_end, core_end)
        border = ~core & (anchor < n)
        noise = ~core & (anchor == n)

        member_label = np.where(core, labels, np.int64(-1))
        member_label[border] = labels[anchor[border]]

        clustered = np.flatnonzero(member_label >= 0)
        groups: list = []
        if clustered.size:
            by_label = np.argsort(member_label[clustered], kind="stable")
            sorted_idx = clustered[by_label]
            sorted_labels = member_label[clustered][by_label]
            cuts = np.flatnonzero(np.diff(sorted_labels)) + 1
            groups = np.split(sorted_idx, cuts)
            groups.sort(key=lambda g: int(g[0]))  # order by smallest member

        clusters = {
            cluster_id: tuple(oids[members].tolist())
            for cluster_id, members in enumerate(groups)
        }
        return DBSCANResult(
            clusters=clusters,
            core_points=set(oids[core].tolist()),
            noise=set(oids[noise].tolist()),
        )


def from_groups(
    cls, time: int, groups: Iterable[Iterable[int]]
) -> "ClusterSnapshot":
    """Build from member groups, assigning dense cluster ids 0, 1, ..."""
    snapshot = cls(time)
    for cluster_id, members in enumerate(groups):
        ordered = tuple(sorted(members))
        if ordered:
            snapshot.clusters[cluster_id] = ordered
    return snapshot


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


_ID_BITS = 31  # anchors and oids must fit the packed int64 key


def _check_ids(anchor: int, oids) -> None:
    """Packed keys hold ``anchor << 32 | oid`` in int64; refuse overflow."""
    if anchor >> _ID_BITS or (oids.size and int(oids.max()) >> _ID_BITS):
        raise ValueError(
            "trajectory ids must fit 31 bits for the numpy enumeration "
            "kernel's packed keys; use enumeration_kernel='python' for "
            "this workload"
        )


def pack_partitions(partitions):
    """``(partitions, keys)`` of ``(anchor, members)`` pairs, packed."""
    partitions = list(partitions)
    chunks = []
    for anchor, members in partitions:
        if not members:
            continue
        oids = np.fromiter(members, count=len(members), dtype=np.int64)
        _check_ids(anchor, oids)
        chunks.append((np.int64(anchor) << np.int64(32)) | oids)
    if chunks:
        keys = np.sort(np.concatenate(chunks))
    else:
        keys = np.empty(0, dtype=np.int64)
    return partitions, keys


def cluster_stage(kernel, significance: int, ctx: Any, columns):
    """``(snapshot, records)`` of one snapshot's ``(oids, xs, ys)`` columns."""
    time = int(ctx)
    result = kernel.cluster_columns(*columns)
    groups = result.clusters.values()
    if kernel.min_pts == 1:
        groups = [members for members in groups if len(members) >= 2]
    snapshot = from_groups(ClusterSnapshot, time, groups)
    return snapshot, [
        (time, anchor, members)
        for anchor, members in sorted(
            id_partitions(snapshot, significance).items()
        )
    ]
