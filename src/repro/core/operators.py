"""ICPE's dataflow operators (the boxes of Fig. 3 and Fig. 5).

Four stages, mirroring the paper's Flink job:

1. **AllocateOperator** — GridAllocate: each location becomes one data
   object plus Lemma-1 query objects (keyed by trajectory id upstream).
2. **QueryOperator** — GridQuery: keyed by grid cell; per snapshot, each
   cell runs the Lemma-2 query-during-build join and emits neighbour pairs.
3. **ClusterOperator** — GridSync + DBSCAN + id-based partitioning: single
   subtask collects the neighbour stream, forms the cluster snapshot, and
   emits ``(time, anchor, members)`` partition records (Lemma 3 applied).
4. **EnumerateOperator** — keyed by anchor id; hosts one BA/FBA/VBA state
   machine per anchor and emits co-movement patterns.

Two stages have batched kernel variants selected by configuration:
:class:`KernelClusterOperator` collapses allocate/query/cluster into one
vectorized clustering stage, and :class:`BatchedEnumerateOperator` runs a
whole enumerate subtask through a batched enumeration kernel.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

import numpy as np

from repro.enumeration.base import AnchorEnumerator
from repro.enumeration.kernels.base import EnumerationKernel
from repro.enumeration.kernels.python_ref import (
    anchor_enumerator_factory,
    join_anchor_state,
    split_anchor_state,
)
from repro.enumeration.partition import id_partitions, partition_batch
from repro.cluster.dbscan import dbscan_from_pairs
from repro.index.grid import GridKey
from repro.index.gridobject import GridObject
from repro.join.allocate import allocate_location
from repro.join.query import CellJoiner
from repro.model.batch import PartitionBatch, SnapshotBatch
from repro.model.snapshot import ClusterSnapshot
from repro.streaming.dataflow import Operator, count_elements

PartitionRecord = tuple[int, int, frozenset[int]]  # (time, anchor, members)


class AllocateOperator(Operator):
    """GridAllocate (Algorithm 1) over ``(oid, x, y)`` location elements."""

    def __init__(self, cell_width: float, epsilon: float, lemma1: bool = True):
        self.cell_width = cell_width
        self.epsilon = epsilon
        self.lemma1 = lemma1

    def process(self, element: tuple[int, float, float]) -> list[GridObject]:
        """Replicate one location into its grid objects (Algorithm 1)."""
        oid, x, y = element
        return allocate_location(
            oid, x, y, self.cell_width, self.epsilon, lemma1=self.lemma1
        )

    def process_batch(self, batch: SnapshotBatch) -> list[GridObject]:
        """Replicate every row of a columnar envelope, in row order."""
        cell_width, epsilon, lemma1 = self.cell_width, self.epsilon, self.lemma1
        out: list[GridObject] = []
        for oid, x, y in batch.rows():
            out.extend(allocate_location(oid, x, y, cell_width, epsilon, lemma1))
        return out


class QueryOperator(Operator):
    """GridQuery (Algorithm 2): per-cell join inside one keyed subtask.

    One subtask hosts many cells (hash routing); GridObjects are buffered
    per cell during the snapshot and joined at the end-of-batch trigger,
    at which point the per-snapshot GR-index fragments are discarded —
    matching the paper's build-per-snapshot, no-maintenance design.
    """

    def __init__(self, joiner: CellJoiner):
        self.joiner = joiner
        self._cells: dict[GridKey, list[GridObject]] = {}

    def process(self, element: GridObject) -> Iterable[Any]:
        """Buffer a grid object under its cell until the snapshot trigger."""
        self._cells.setdefault(element.key, []).append(element)
        return ()

    def end_batch(self, ctx: Any) -> Iterable[tuple[int, int]]:
        """Join every buffered cell (Algorithm 2) and emit neighbour pairs."""
        pairs: list[tuple[int, int]] = []
        for key in sorted(self._cells):
            pairs.extend(self.joiner.join(self._cells[key]))
        self._cells.clear()
        return pairs

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting: per-snapshot GR-index fragments buffered."""
        return {"buffered_cells": len(self._cells)}


class ClusterOperator(Operator):
    """GridSync + DBSCAN + id-based partitioning (single collecting subtask)."""

    def __init__(self, min_pts: int, significance: int, dedup: bool = False):
        self.min_pts = min_pts
        self.significance = significance
        self.dedup = dedup
        self._pairs: list[tuple[int, int]] = []
        self.last_cluster_snapshot: ClusterSnapshot | None = None
        self.clusters_formed = 0
        self.cluster_size_sum = 0

    def process(self, element: tuple[int, int]) -> Iterable[Any]:
        """Collect one neighbour pair (the GridSync role)."""
        self._pairs.append(element)
        return ()

    def end_batch(self, ctx: Any) -> Iterable[PartitionRecord]:
        """DBSCAN the collected pairs and emit id-based partition records."""
        time = int(ctx)
        pairs = set(self._pairs) if self.dedup else self._pairs
        oids = {oid for pair in pairs for oid in pair}
        result = dbscan_from_pairs(oids, pairs, self.min_pts)
        self._pairs.clear()
        snapshot = result.to_snapshot(time)
        self._account(snapshot)
        return [
            (time, anchor, members)
            for anchor, members in sorted(
                id_partitions(snapshot, self.significance).items()
            )
        ]

    def _account(self, snapshot: ClusterSnapshot) -> None:
        """Fold one snapshot into the bounded cluster aggregates.

        Counts and a size sum replace the old unbounded per-cluster size
        list: ``average_cluster_size`` only ever needed the ratio, and a
        never-ending session must not grow a list per snapshot.
        """
        self.last_cluster_snapshot = snapshot
        self.clusters_formed += len(snapshot.clusters)
        self.cluster_size_sum += sum(
            len(members) for members in snapshot.clusters.values()
        )

    def snapshot_state(self) -> dict:
        """Cluster aggregates plus the last emitted cluster snapshot."""
        return {
            "clusters_formed": self.clusters_formed,
            "cluster_size_sum": self.cluster_size_sum,
            "last_snapshot": self.last_cluster_snapshot,
        }

    def restore_state(self, payload: dict) -> None:
        """Adopt a payload produced by :meth:`snapshot_state`."""
        self.clusters_formed = payload["clusters_formed"]
        self.cluster_size_sum = payload["cluster_size_sum"]
        self.last_cluster_snapshot = payload["last_snapshot"]
        self._pairs.clear()

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting: buffered pairs and lifetime cluster counts."""
        return {
            "buffered_pairs": len(self._pairs),
            "clusters_formed": self.clusters_formed,
        }


class KernelClusterOperator(Operator):
    """Whole-snapshot clustering through a vectorized kernel strategy.

    Replaces the three-stage GridAllocate -> GridQuery -> GridSync/DBSCAN
    chain when a vectorized kernel (e.g. ``numpy``) is selected: the single
    subtask buffers the snapshot's raw ``(oid, x, y)`` locations and, at
    the snapshot trigger, runs the kernel over packed arrays — grid
    bucketing, the epsilon join and the DBSCAN labeling all happen inside
    the kernel.  The clusters stay arrays through Lemma 3
    (:func:`~repro.enumeration.partition.partition_batch`) and leave as
    one :class:`~repro.model.batch.PartitionBatch` whose rows are exactly
    :class:`ClusterOperator`'s partition records, so enumeration and
    every downstream consumer are oblivious to the strategy swap.  The
    :class:`ClusterSnapshot` is built only when read.
    """

    def __init__(self, kernel, significance: int):
        self.kernel = kernel
        self.significance = significance
        self._points: list[tuple[int, float, float]] = []
        self._blocks: list[SnapshotBatch] = []
        #: ``(time, members, bounds)`` of the last snapshot's clusters,
        #: until :attr:`last_cluster_snapshot` materialises them.
        self._clusters: tuple | None = None
        self._snapshot: ClusterSnapshot | None = None
        self.clusters_formed = 0
        self.cluster_size_sum = 0

    def process(
        self, element: tuple[int, float, float]
    ) -> Iterable[Any]:
        """Buffer one raw location until the snapshot trigger."""
        self._points.append(element)
        return ()

    def process_batch(self, batch: SnapshotBatch) -> Iterable[Any]:
        """Buffer one columnar envelope whole until the snapshot trigger.

        The columnar hand-off of the batch data plane: the envelope's
        columns go to the kernel as arrays at the trigger — no per-point
        tuples are ever materialised on this path.
        """
        self._blocks.append(batch)
        return ()

    def end_batch(self, ctx: Any) -> list[PartitionBatch | PartitionRecord]:
        """Cluster the buffered snapshot and emit its id-based partitions.

        At ``min_pts == 1`` singleton clusters are dropped to match
        :class:`ClusterOperator` exactly: the reference stage derives its
        oid set from the neighbour-pair stream, so an isolated point never
        reaches it — while DBSCAN proper makes every isolated point a
        singleton core at that density.  At ``min_pts >= 2`` singletons
        are *kept*: they are always pair-connected there (a core point
        whose border neighbours all attach to smaller-id cores elsewhere),
        so the reference stage sees and emits them too.

        Ids a packed key cannot hold (outside ``[0, 2**31)``) leave as
        the plain records instead, so only the numpy enumeration kernel
        refuses them, as it does for the reference stage's records.
        """
        time = int(ctx)
        members, bounds = self._cluster_buffered()
        if self.kernel.min_pts == 1:
            sizes = np.diff(bounds)
            members = members[np.repeat(sizes >= 2, sizes)]
            bounds = np.concatenate(([0], np.cumsum(sizes[sizes >= 2])))
        self._clusters, self._snapshot = (time, members, bounds), None
        self.clusters_formed += len(bounds) - 1
        self.cluster_size_sum += int(bounds[-1])
        batch = partition_batch(time, members, bounds, self.significance)
        if batch is None:
            return [
                (time, anchor, group)
                for anchor, group in sorted(
                    id_partitions(
                        self.last_cluster_snapshot, self.significance
                    ).items()
                )
            ]
        return [batch]

    @property
    def last_cluster_snapshot(self) -> ClusterSnapshot | None:
        """The last snapshot's clusters, materialised on first read."""
        if self._snapshot is None and self._clusters is not None:
            time, members, bounds = self._clusters
            oids, cuts = members.tolist(), bounds.tolist()
            self._snapshot = ClusterSnapshot(
                time,
                {
                    cluster_id: tuple(oids[start:stop])
                    for cluster_id, (start, stop) in enumerate(
                        zip(cuts, cuts[1:])
                    )
                },
            )
        return self._snapshot

    def snapshot_state(self) -> dict:
        """Cluster aggregates plus the last emitted cluster snapshot."""
        return {
            "clusters_formed": self.clusters_formed,
            "cluster_size_sum": self.cluster_size_sum,
            "last_snapshot": self.last_cluster_snapshot,
        }

    def restore_state(self, payload: dict) -> None:
        """Adopt a payload produced by :meth:`snapshot_state`."""
        self.clusters_formed = payload["clusters_formed"]
        self.cluster_size_sum = payload["cluster_size_sum"]
        self._clusters, self._snapshot = None, payload["last_snapshot"]
        self._points.clear()
        self._blocks.clear()

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting: buffered locations and cluster counts."""
        return {
            "buffered_points": len(self._points),
            "buffered_blocks": len(self._blocks),
            "clusters_formed": self.clusters_formed,
        }

    def _cluster_buffered(self):
        """Cluster whatever the snapshot buffered: ``(members, bounds)``.

        Envelopes hand their columns to the kernel's ``cluster_members``
        entry as arrays, with no row boxing; buffered rows (a backend
        without batch ingest) are split into columns first.  One
        envelope per snapshot is the normal case — the cluster stage is
        unkeyed, so the exchange passes the batch whole.
        """
        blocks, self._blocks = self._blocks, []
        points, self._points = self._points, []
        if len(blocks) == 1 and not points:
            columns = (blocks[0].oids, blocks[0].xs, blocks[0].ys)
        else:
            for block in blocks:
                points.extend(block.rows())
            columns = (
                [oid for oid, _x, _y in points],
                [x for _oid, x, _y in points],
                [y for _oid, _x, y in points],
            )
        return self.kernel.cluster_members(*columns)


class EnumerateOperator(Operator):
    """Hosts per-anchor enumerators; emits co-movement patterns."""

    def __init__(self, factory: Callable[[int], AnchorEnumerator]):
        self.factory = factory
        self._enumerators: dict[int, AnchorEnumerator] = {}
        self._received: set[int] = set()

    def process(self, element: PartitionRecord) -> Iterable[Any]:
        """Route one partition record to its anchor's enumerator."""
        time, anchor, members = element
        enumerator = self._enumerators.get(anchor)
        if enumerator is None:
            enumerator = self._enumerators[anchor] = self.factory(anchor)
        self._received.add(anchor)
        return enumerator.on_partition(time, members)

    def end_batch(self, ctx: Any) -> Iterable[Any]:
        """Absence tick: anchors with open state but no partition this time."""
        if ctx is None:
            self._received.clear()
            return ()
        time = int(ctx)
        out: list[Any] = []
        for anchor, enumerator in self._enumerators.items():
            if anchor in self._received or enumerator.is_idle():
                continue
            out.extend(enumerator.on_partition(time, frozenset()))
        self._received.clear()
        return out

    def finish(self) -> Iterable[Any]:
        """Flush every hosted enumerator at end of stream."""
        out: list[Any] = []
        for anchor in sorted(self._enumerators):
            out.extend(self._enumerators[anchor].finish())
        return out

    def protected_oids(self) -> frozenset[int]:
        """Union of every hosted enumerator's shed-protected oids."""
        protected: set[int] = set()
        for enumerator in self._enumerators.values():
            protected.update(enumerator.protected_oids())
        return frozenset(protected)

    def forming_candidates(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Sorted concatenation of every hosted enumerator's descriptors."""
        out: list[tuple[int, int, int, int, int]] = []
        for anchor in sorted(self._enumerators):
            out.extend(self._enumerators[anchor].forming_candidates())
        return tuple(sorted(out))

    def snapshot_state(self) -> dict:
        """Per-anchor enumerator payloads, keyed by anchor id."""
        return {
            "anchors": {
                anchor: self._enumerators[anchor].snapshot_state()
                for anchor in sorted(self._enumerators)
            }
        }

    def restore_state(self, payload: dict) -> None:
        """Rebuild each anchor's enumerator through the factory, then
        hand it its captured payload."""
        self._enumerators = {}
        for anchor, sub_payload in payload["anchors"].items():
            enumerator = self.factory(anchor)
            enumerator.restore_state(sub_payload)
            self._enumerators[anchor] = enumerator
        self._received = set()

    #: Per-anchor enumerator payloads, for a re-partitioning restore.
    split_state = staticmethod(split_anchor_state)
    join_state = staticmethod(join_anchor_state)

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting: hosted anchors plus summed enumerator metrics."""
        metrics = {"anchors": len(self._enumerators)}
        for enumerator in self._enumerators.values():
            for key, value in enumerator.state_metrics().items():
                metrics[key] = metrics.get(key, 0) + value
        return metrics


class BatchedEnumerateOperator(Operator):
    """Whole-subtask enumeration through a batched kernel strategy.

    Replaces :class:`EnumerateOperator` when a vectorized enumeration
    kernel (e.g. ``numpy``) is selected: the subtask buffers its
    snapshot's partitions — one :class:`~repro.model.batch.PartitionBatch`
    from the kernel clustering stage, or records from the reference one —
    and, at the snapshot trigger, hands them to the kernel in one batch —
    membership bitmaps, candidate screening and Lemma-7 closing all
    happen inside the kernel across every hosted anchor at once.  Per
    anchor, the emitted pattern stream is identical to the reference
    operator's (shared exact predicates and combination growth).
    """

    def __init__(self, kernel: EnumerationKernel):
        self.kernel = kernel
        self._buffer: list[PartitionBatch | PartitionRecord] = []

    def process(self, element: PartitionRecord) -> Iterable[Any]:
        """Buffer one partition record until the snapshot trigger."""
        self._buffer.append(element)
        return ()

    def process_batch(self, batch: PartitionBatch) -> Iterable[Any]:
        """Buffer one partition envelope whole until the snapshot trigger."""
        self._buffer.append(batch)
        return ()

    def end_batch(self, ctx: Any) -> Iterable[Any]:
        """Hand the snapshot's partitions to the kernel in one batch.

        A lone envelope goes to the kernel as it is; anything else goes
        as ``(anchor, members)`` pairs.  A ctx-less trigger keeps the
        buffer intact: the partitions belong to a snapshot whose time
        has not been announced yet, and dropping them would silently
        diverge from the reference operator (which processes records
        eagerly).
        """
        if ctx is None:
            return ()
        buffered, self._buffer = self._buffer, []
        if len(buffered) == 1 and isinstance(buffered[0], PartitionBatch):
            partitions = buffered[0]
        else:
            partitions = [
                (anchor, members)
                for _time, anchor, members in _records(buffered)
            ]
        return self.kernel.on_snapshot(int(ctx), partitions)

    def finish(self) -> Iterable[Any]:
        """Flush the kernel's state at end of stream."""
        return self.kernel.finish()

    def protected_oids(self) -> frozenset[int]:
        """Shed-protected oids, delegated to the enumeration kernel."""
        return self.kernel.protected_oids()

    def forming_candidates(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Forming descriptors, delegated to the enumeration kernel."""
        return self.kernel.forming_candidates()

    def snapshot_state(self) -> dict:
        """The kernel's payload plus any records buffered pre-trigger
        (a buffered envelope is saved as its records)."""
        return {
            "kernel": self.kernel.snapshot_state(),
            "records": list(_records(self._buffer)),
        }

    def restore_state(self, payload: dict) -> None:
        """Adopt a payload produced by :meth:`snapshot_state`."""
        self.kernel.restore_state(payload["kernel"])
        self._buffer = list(payload["records"])

    def split_state(self, payload: dict) -> tuple[Any, dict[int, dict]]:
        """Per-anchor pieces: the kernel's share plus buffered records."""
        rest, kernel_pieces = self.kernel.split_state(payload["kernel"])
        pieces = {
            anchor: {"kernel": piece, "records": []}
            for anchor, piece in kernel_pieces.items()
        }
        for record in payload["records"]:
            pieces.setdefault(record[1], {"kernel": None, "records": []})[
                "records"
            ].append(record)
        return rest, pieces

    def join_state(
        self, rests: list[Any], pieces: dict[int, dict], primary: bool
    ) -> dict:
        """One subtask's payload from the per-anchor pieces routed to it.

        Buffered records are ordered by ``(time, anchor)``, the order
        the cluster stage emits them in.
        """
        kernel_pieces = {
            anchor: piece["kernel"]
            for anchor, piece in pieces.items()
            if piece["kernel"] is not None
        }
        records = sorted(
            (record for piece in pieces.values() for record in piece["records"]),
            key=lambda record: record[:2],
        )
        return {
            "kernel": self.kernel.join_state(rests, kernel_pieces, primary),
            "records": records,
        }

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting: kernel metrics plus the pre-trigger buffer."""
        metrics = dict(self.kernel.state_metrics())
        metrics["buffered_records"] = count_elements(self._buffer)
        return metrics


def _records(buffered: list) -> Iterable[PartitionRecord]:
    """The partition records of a buffer, envelopes unrolled in place."""
    for item in buffered:
        if isinstance(item, PartitionBatch):
            yield from item.rows()
        else:
            yield item


def make_enumerator_factory(
    config,
) -> Callable[[int], AnchorEnumerator]:
    """Build the per-anchor enumerator factory from an :class:`ICPEConfig`."""
    return anchor_enumerator_factory(
        config.enumerator,
        config.constraints,
        ba_max_partition_size=config.ba_max_partition_size,
        vba_candidate_retention=config.vba_candidate_retention,
    )
