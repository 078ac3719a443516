"""GridQuery (Algorithm 2): per-cell join processing.

Each cell (one keyed subtask in the dataflow) receives its GridObjects and
produces neighbour pairs:

* data objects — with Lemma 2, each runs its range query against the
  *partially built* local R-tree and is inserted afterwards, so every
  intra-cell pair appears exactly once and index build overlaps querying;
  without Lemma 2 (ablation), the tree is built first and every data object
  queries the complete tree, requiring deduplication.
* query objects — probe the finished tree for cross-cell pairs.

With Lemma 1 replication, a cross-cell pair could be discovered from both
endpoints when the two locations share one y coordinate (both lie in each
other's *upper* half-region).  The paper's lemma only claims no pair is
missed; to return an exact duplicate-free set we apply a strict half-plane
tie-break: a probing object ``o`` accepts a found location ``v`` only when
``(v.y, v.x, v.oid) > (o.y, o.x, o.oid)`` lexicographically.  Exactly one
endpoint of every cross-cell pair wins the tie-break, and the winner's upper
half-region always covers the loser, so no pair is lost.
"""

from __future__ import annotations

from typing import Sequence

from repro.geometry.distance import Metric, l1_distance
from repro.geometry.rect import (
    Rect,
    pruning_epsilon,
    range_region,
    upper_range_region,
)
from repro.index.gridobject import GridObject
from repro.index.rtree import MIN_MAX_ENTRIES, RTree
from repro.join.pairs import normalize_pair


class _LinearLocalIndex:
    """List-scan stand-in for the local R-tree (local-index ablation)."""

    __slots__ = ("_points",)

    def __init__(self):
        self._points: list[tuple[int, float, float]] = []

    def insert(self, x: float, y: float, payload) -> None:
        self._points.append(payload)

    def search(self, region: Rect) -> list[tuple[int, float, float]]:
        return [
            (oid, x, y)
            for oid, x, y in self._points
            if region.contains_point(x, y)
        ]

    def __len__(self) -> int:
        return len(self._points)


class CellJoiner:
    """Executes Algorithm 2 for one grid cell.

    Args:
        epsilon: the join distance threshold.
        metric: exact distance used for candidate verification.
        lemma2: query-during-build when True (the paper's optimisation).
        local_index: ``"rtree"`` (paper), ``"quadtree"`` or ``"linear"``
            (alternatives for the local-index ablation).
        lemma1: whether GridAllocate used upper-half replication; decides
            whether cross-cell probes need the tie-break (Lemma 1 on) or a
            deduplicating consumer (Lemma 1 off).
        rtree_fanout: node capacity of the local R-tree.
    """

    def __init__(
        self,
        epsilon: float,
        metric: Metric = l1_distance,
        lemma2: bool = True,
        local_index: str = "rtree",
        lemma1: bool = True,
        rtree_fanout: int = 16,
    ):
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        if local_index not in ("rtree", "quadtree", "linear"):
            raise ValueError(f"unknown local index kind: {local_index!r}")
        if rtree_fanout < MIN_MAX_ENTRIES:
            raise ValueError(
                f"rtree_fanout must be >= {MIN_MAX_ENTRIES}, got {rtree_fanout}"
            )
        self.epsilon = epsilon
        self.metric = metric
        self.lemma2 = lemma2
        self.lemma1 = lemma1
        self.local_index = local_index
        self.rtree_fanout = rtree_fanout
        # Probe rects prune candidates; the margin keeps a partner a few
        # ulps past the exact-epsilon edge inside the rect (the metric
        # check in _probe is the exact filter).
        self._padded = pruning_epsilon(epsilon)

    def _new_index(self):
        if self.local_index == "rtree":
            return RTree(max_entries=self.rtree_fanout)
        if self.local_index == "quadtree":
            from repro.index.quadtree import QuadTree

            return QuadTree()
        return _LinearLocalIndex()

    def join(self, objects: Sequence[GridObject]) -> list[tuple[int, int]]:
        """Neighbour pairs for one cell's GridObjects.

        Pairs are emitted normalised as ``(min oid, max oid)``.  With
        Lemma 1 and Lemma 2 both on the output is duplicate free; otherwise
        the caller (GridSync) deduplicates.

        Every pair has a data object of this cell at one end and another
        grid object at the other, so a cell with fewer than two objects
        or without a data object yields none and builds no index.
        """
        pairs: list[tuple[int, int]] = []
        if len(objects) < 2:
            return pairs
        data = [go for go in objects if not go.is_query]
        if not data:
            return pairs
        index = self._new_index()

        if self.lemma2:
            # Query-before-insert: each intra-cell pair found exactly once.
            for go in data:
                self._probe(index, go, pairs, intra_cell=True)
                index.insert(go.x, go.y, (go.oid, go.x, go.y))
        else:
            # Traditional build-then-query (ablation): every pair found from
            # both endpoints; normalisation + downstream dedup removes them.
            for go in data:
                index.insert(go.x, go.y, (go.oid, go.x, go.y))
            for go in data:
                self._probe(index, go, pairs, intra_cell=True)

        for go in objects:
            if go.is_query:
                self._probe(index, go, pairs, intra_cell=False)
        return pairs

    def _probe(
        self,
        index,
        go: GridObject,
        pairs: list[tuple[int, int]],
        intra_cell: bool,
    ) -> None:
        """Append ``go``'s verified neighbour pairs found in ``index``."""
        if not intra_cell and self.lemma1:
            # The allocator only routed this query object to cells in the
            # upper half-region; restricting the probe region accordingly is
            # a no-op spatially but keeps the candidate set minimal.
            region = upper_range_region(go.x, go.y, self._padded)
            tie_break = True
        else:
            region = range_region(go.x, go.y, self._padded)
            tie_break = False
        for oid, x, y in index.search(region):
            if oid == go.oid:
                continue
            if self.metric(go.x, go.y, x, y) > self.epsilon:
                continue
            if tie_break and (y, x, oid) <= (go.y, go.x, go.oid):
                continue
            pairs.append(normalize_pair(go.oid, oid))
