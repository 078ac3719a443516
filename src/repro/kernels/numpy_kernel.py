"""NumPy-vectorized snapshot clustering (the ``numpy`` kernel strategy).

The whole clustering phase runs on contiguous arrays:

1. **Pack** — the snapshot's ``(oid, x, y)`` triples are sorted by oid and
   packed into int64 / float64 arrays, so array index order equals oid
   order (every canonical "smallest id" rule becomes an argmin).
2. **Grid bucketing** — cell coordinates ``floor(p / w)`` with bucket
   width ``w = epsilon`` are hashed into a single column-major int64 key
   per point (``cx * stride + cy + 1``); one stable argsort groups points
   by occupied cell and cells by column (no ``Rect`` / ``GridObject``
   materialisation).
3. **Column-range epsilon join** — in that order, each point's
   candidates are two contiguous ranges, found by three vectorized
   :func:`numpy.searchsorted` calls: the rest of its own cell plus cell
   ``cy + 1`` of its column, and cells ``cy - 1 .. cy + 1`` of column
   ``cx + 1``.  Both ranges expand into candidate index pairs with one
   ``repeat`` / ``cumsum``, and a single broadcast distance evaluation
   filters the exact pairs.  Every unordered pair of 3x3-adjacent cells
   is produced exactly once, from one side.
4. **DBSCAN labeling** — neighbour counts via ``bincount`` give the core
   mask; core components form by iterated min-label propagation with
   pointer jumping (``minimum.at`` + ``labels[labels]``); border points
   attach to their smallest-id core neighbour via one more ``minimum.at``.
   Clusters leave as arrays (:meth:`NumpyKernel.cluster_members`) or as
   a :class:`~repro.cluster.dbscan.DBSCANResult`.

The result is bit-for-bit identical to the reference kernel: the pair set
is exact (bucketing only generates candidates; the metric verifies), and
the labeling reproduces the canonical border rule of
:func:`repro.cluster.dbscan.dbscan_from_pairs`.

``last_join_stats`` counts, per snapshot: ``emitted_pairs`` — candidate
pairs, i.e. point pairs in 3x3-adjacent buckets, each unordered pair
once; ``occupied_cells`` — distinct occupied buckets; ``result_pairs`` —
pairs within epsilon.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.dbscan import DBSCANResult
from repro.geometry.distance import canonical_metric_name
from repro.geometry.rect import pruning_epsilon
from repro.join.range_join import JoinStats
from repro.kernels.base import ClusteringKernel, Points


class NumpyKernel(ClusteringKernel):
    """Array-native snapshot clustering (no per-object traversal)."""

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

    # ------------------------------------------------------------------ pack

    def _pack(self, points: Points):
        """Sort by oid and split into (oids, xs, ys) contiguous arrays."""
        triples = sorted(points)
        oids = np.array([t[0] for t in triples], dtype=np.int64)
        xs = np.array([t[1] for t in triples], dtype=np.float64)
        ys = np.array([t[2] for t in triples], dtype=np.float64)
        return oids, xs, ys

    # ------------------------------------------------------------------ join

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
        # Cell (cx, cy) keys as cx * stride + cy + 1: rows cy - 1 and
        # cy + 1 of every column encode inside the column's own key
        # range.  The probes reach (cx + 2) * stride, which must fit
        # int64; a pathological spread/epsilon ratio (~1e10 per axis)
        # would wrap silently and drop neighbour pairs, so refuse it
        # before casting.
        stride_f = cy_f.max() + 3.0
        if (cx_f.max() + 2.0) * stride_f >= float(np.iinfo(np.int64).max):
            raise ValueError(
                "coordinate spread / epsilon ratio too large for the "
                "numpy kernel's int64 cell keys; use the 'python' kernel "
                "for this workload"
            )
        stride = int(stride_f)
        keys = cx_f.astype(np.int64) * stride + cy_f.astype(np.int64) + 1
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]

        # Every unordered pair of 3x3-adjacent cells is one contiguous
        # sorted range from exactly one side: a point pairs with the
        # rest of its own cell plus cell cy + 1 of its column, and with
        # cells cy - 1 .. cy + 1 of column cx + 1.  The 3x3 bound stays:
        # a sweep over x alone would pair every point of a north-south
        # road with every other.
        position = np.arange(n, dtype=np.int64)
        column_stop = np.searchsorted(ranked, ranked + 2)
        next_start = np.searchsorted(ranked, ranked + (stride - 1))
        next_stop = np.searchsorted(ranked, ranked + (stride + 2))
        starts = np.concatenate((position + 1, next_start))
        counts = np.concatenate(
            (column_stop - position - 1, next_stop - next_start)
        )
        candidates = int(counts.sum())

        # Expand both ranges of every point with one repeat / cumsum.
        offsets = np.cumsum(counts) - counts
        near = order[np.repeat(np.concatenate((position, position)), counts)]
        far = order[
            np.arange(candidates, dtype=np.int64)
            + np.repeat(starts - offsets, counts)
        ]
        left, right = np.minimum(near, far), np.maximum(near, far)
        keep = self._distances(xs, ys, left, right) <= self.epsilon
        left, right = left[keep], right[keep]
        self.last_join_stats = JoinStats(
            locations=int(n),
            grid_objects=int(n),
            occupied_cells=1 + int(np.count_nonzero(ranked[1:] != ranked[:-1])),
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

    # ---------------------------------------------------------------- public

    def neighbor_pairs(self, points: Points) -> set[tuple[int, int]]:
        """Exact epsilon-neighbour oid pairs, computed on arrays."""
        oids, xs, ys = self._pack(points)
        left, right = self._pair_indices(xs, ys)
        oids, left, right = self._collapse_duplicate_oids(oids, left, right)
        return set(zip(oids[left].tolist(), oids[right].tolist()))

    def cluster(self, points: Points) -> DBSCANResult:
        """Full vectorized DBSCAN over the snapshot (arrays end to end)."""
        return self._result(*self._label(*self._pack(points)))

    def cluster_columns(self, oids, xs, ys) -> DBSCANResult:
        """Columnar entry: cluster parallel ``(oids, xs, ys)`` columns.

        The batch data plane hands snapshot columns straight here — one
        stable argsort replaces :meth:`_pack`'s sort-and-split, and with
        distinct oids (the snapshot contract) the packed layout is
        identical to the row path's, so results are bit-for-bit equal.
        """
        return self._result(*self._label(*self._sort_columns(oids, xs, ys)))

    def cluster_members(self, oids, xs, ys):
        """Columnar entry that stays on arrays: ``(members, bounds)``.

        The clusters of :meth:`cluster_columns` without a Python object
        per member — see :meth:`ClusteringKernel.cluster_members`.
        """
        oids, _core, _noise, members, bounds = self._label(
            *self._sort_columns(oids, xs, ys)
        )
        return oids[members], bounds

    @staticmethod
    def _sort_columns(oids, xs, ys):
        """Parallel columns as oid-sorted packed arrays (one stable argsort)."""
        oids = np.asarray(oids, dtype=np.int64)
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        order = np.argsort(oids, kind="stable")
        return oids[order], xs[order], ys[order]

    @staticmethod
    def _result(oids, core, noise, members, bounds) -> DBSCANResult:
        """The :class:`DBSCANResult` of one :meth:`_label` outcome."""
        clustered = oids[members].tolist()
        cuts = bounds.tolist()
        return DBSCANResult(
            clusters={
                cluster_id: tuple(clustered[start:stop])
                for cluster_id, (start, stop) in enumerate(
                    zip(cuts, cuts[1:])
                )
            },
            core_points=set(oids[core].tolist()),
            noise=set(oids[noise].tolist()),
        )

    def _label(self, oids, xs, ys):
        """DBSCAN over oid-sorted packed arrays (shared by every entry).

        Returns ``(oids, core, noise, members, bounds)``: the distinct
        oids, core and noise masks over them, and the clustered indices
        grouped by cluster — clusters ordered by smallest member, members
        ascending — with ``bounds`` the cluster offsets into ``members``.
        """
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

        # Group clustered indices by cluster.  ``clustered`` ascends, so a
        # label's first occurrence is its smallest member, which ranks
        # the clusters; a stable sort by rank keeps members ascending.
        clustered = np.flatnonzero(member_label >= 0)
        labels_of = member_label[clustered]
        distinct, first = np.unique(labels_of, return_index=True)
        rank = np.empty(distinct.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(distinct.size, dtype=np.int64)
        cluster_of = rank[np.searchsorted(distinct, labels_of)]
        members = clustered[np.argsort(cluster_of, kind="stable")]
        bounds = np.concatenate(
            ([0], np.cumsum(np.bincount(cluster_of, minlength=distinct.size)))
        ).astype(np.int64)
        return oids, core, noise, members, bounds
