"""The GR-index join before it learned to skip work, kept verbatim.

``repro.join.allocate.allocate_location`` now computes its cells inline,
``CellJoiner.join`` skips cells that cannot hold a pair and fills one
list, and ``RTree.insert`` / ``search`` take a fast path while the root is
a leaf.  The earlier bodies live on here, unchanged, as the
*specification* those are held to by
``tests/join/test_gridjoin_differential.py``: the same grid objects in
the same order, the same pairs in the same order, the same join
statistics, and the same tree node for node.

Each definition keeps its production name, so the copied bodies resolve
``RTree``, ``CellJoiner`` and ``allocate_snapshot`` to each other — a
reference join never runs a line of the code it judges.  Only what those
bodies call and the change left alone (cell keys, ``Rect``, the R* split
and reinsertion, the quadtree and linear indexes) is shared.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.geometry.rect import (
    Rect,
    pruning_epsilon,
    range_region,
    upper_range_region,
)
from repro.index.grid import cell_key, cells_overlapping
from repro.index.gridobject import GridObject
from repro.index.rtree import RTree as _ProductionRTree
from repro.index.rtree import _Entry, _Node
from repro.join import query as _query
from repro.join import range_join as _range_join
from repro.join.pairs import NeighborPairs, normalize_pair
from repro.join.range_join import JoinStats


def allocate_location(
    oid: int,
    x: float,
    y: float,
    cell_width: float,
    epsilon: float,
    lemma1: bool = True,
) -> Iterator[GridObject]:
    """Grid objects for one location (lines 2-6 of Algorithm 1).

    Yields the data object first, then the query objects.
    """
    home = cell_key(x, y, cell_width)
    yield GridObject(key=home, is_query=False, oid=oid, x=x, y=y)
    # Replication regions prune candidate *cells*; the margin keeps a
    # partner a few ulps past the exact-epsilon boundary reachable (the
    # probe verifies with the exact metric).
    padded = pruning_epsilon(epsilon)
    if lemma1:
        region = upper_range_region(x, y, padded)
    else:
        region = range_region(x, y, padded)
    for key in cells_overlapping(region, cell_width):
        if key != home:
            yield GridObject(key=key, is_query=True, oid=oid, x=x, y=y)


def allocate_snapshot(
    points: Iterable[tuple[int, float, float]],
    cell_width: float,
    epsilon: float,
    lemma1: bool = True,
) -> dict:
    """Partition a snapshot into per-cell GridObject lists.

    Returns a mapping ``cell key -> [GridObject, ...]`` preserving arrival
    order (data and query objects interleaved exactly as allocated), which
    is what each GridQuery subtask receives in the dataflow.
    """
    partitions: dict = {}
    for oid, x, y in points:
        for grid_object in allocate_location(
            oid, x, y, cell_width, epsilon, lemma1=lemma1
        ):
            partitions.setdefault(grid_object.key, []).append(grid_object)
    return partitions


class RTree(_ProductionRTree):
    """R*-tree whose insertion and search are the earlier bodies."""

    def insert(self, x: float, y: float, payload: Any) -> None:
        """Insert a point entry."""
        entry = _Entry(x, y, payload)
        # Levels that already reinserted during this insertion (R* does one
        # forced reinsert per level per insertion).
        self._insert_at_level(entry, level=0, reinserted_levels=set())
        self._size += 1

    def _insert_at_level(self, item, level: int, reinserted_levels: set[int]) -> None:
        path = self._choose_path(item.mbr, level)
        node = path[-1]
        node.children.append(item)
        node.mbr = item.mbr if node.mbr is None else node.mbr.union(item.mbr)
        self._propagate_mbr(path, item.mbr)
        if len(node.children) > self.max_entries:
            self._handle_overflow(path, level, reinserted_levels)

    def _propagate_mbr(self, path: list[_Node], mbr: Rect) -> None:
        for node in path:
            node.mbr = mbr if node.mbr is None else node.mbr.union(mbr)

    def search(self, region: Rect) -> list[Any]:
        """Payloads of all points inside ``region`` (closed boundaries)."""
        return list(self.iter_search(region))

    def iter_search(self, region: Rect) -> Iterator[Any]:
        """Lazily yield payloads of points inside ``region``."""
        if self._root.mbr is None or not self._root.mbr.intersects(region):
            return
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                for entry in node.children:
                    if region.contains_point(entry.x, entry.y):
                        yield entry.payload
            else:
                for child in node.children:
                    if child.mbr is not None and child.mbr.intersects(region):
                        stack.append(child)


class CellJoiner(_query.CellJoiner):
    """Algorithm 2 for one cell, as the earlier generator chain."""

    def _new_index(self):
        if self.local_index == "rtree":
            return RTree(max_entries=self.rtree_fanout)
        if self.local_index == "quadtree":
            from repro.index.quadtree import QuadTree

            return QuadTree()
        return _query._LinearLocalIndex()

    def join(self, objects: Iterable[GridObject]) -> Iterator[tuple[int, int]]:
        """Neighbour pairs for one cell's GridObjects.

        Pairs are emitted normalised as ``(min oid, max oid)``.  With
        Lemma 1 and Lemma 2 both on the output is duplicate free; otherwise
        the caller (GridSync) deduplicates.
        """
        data = [go for go in objects if go.is_data]
        queries = [go for go in objects if go.is_query]
        index = self._new_index()

        if self.lemma2:
            # Query-before-insert: each intra-cell pair found exactly once.
            for go in data:
                yield from self._probe(index, go, intra_cell=True)
                index.insert(go.x, go.y, (go.oid, go.x, go.y))
        else:
            # Traditional build-then-query (ablation): every pair found from
            # both endpoints; normalisation + downstream dedup removes them.
            for go in data:
                index.insert(go.x, go.y, (go.oid, go.x, go.y))
            for go in data:
                yield from self._probe(index, go, intra_cell=True)

        for go in queries:
            yield from self._probe(index, go, intra_cell=False)

    def _probe(
        self, index, go: GridObject, intra_cell: bool
    ) -> Iterator[tuple[int, int]]:
        # Probe rects prune candidates; the margin keeps a partner a few
        # ulps past the exact-epsilon edge inside the rect (the metric
        # check below is the exact filter).
        padded = pruning_epsilon(self.epsilon)
        region = range_region(go.x, go.y, padded)
        if not intra_cell and self.lemma1:
            # The allocator only routed this query object to cells in the
            # upper half-region; restricting the probe region accordingly is
            # a no-op spatially but keeps the candidate set minimal.
            region = upper_range_region(go.x, go.y, padded)
        for oid, x, y in index.search(region):
            if oid == go.oid:
                continue
            if self.metric(go.x, go.y, x, y) > self.epsilon:
                continue
            if not intra_cell and self.lemma1:
                if (y, x, oid) <= (go.y, go.x, go.oid):
                    continue
            yield normalize_pair(go.oid, oid)


class GRRangeJoin(_range_join.GRRangeJoin):
    """The snapshot join over the reference allocation and cell joins."""

    def join(self, points: Iterable[tuple[int, float, float]]) -> NeighborPairs:
        """``RJ(O, epsilon)`` for one snapshot's ``(oid, x, y)`` points.

        Returns the duplicate-free set of normalised neighbour pairs and
        records :class:`JoinStats` in ``last_stats``.
        """
        cfg = self.config
        points = list(points)
        partitions = allocate_snapshot(
            points, cfg.cell_width, cfg.epsilon, lemma1=cfg.lemma1
        )
        joiner = CellJoiner(
            epsilon=cfg.epsilon,
            metric=cfg.metric,
            lemma2=cfg.lemma2,
            local_index=cfg.local_index,
            lemma1=cfg.lemma1,
            rtree_fanout=cfg.rtree_fanout,
        )
        stats = JoinStats(
            locations=len(points),
            grid_objects=sum(len(bucket) for bucket in partitions.values()),
            occupied_cells=len(partitions),
        )
        # GridSync: collect per-cell outputs.  Cell order must not affect the
        # result; iterate sorted keys for determinism.
        result: NeighborPairs = set()
        emitted = 0
        for key in sorted(partitions):
            for pair in joiner.join(partitions[key]):
                emitted += 1
                result.add(pair)
        stats.emitted_pairs = emitted
        stats.result_pairs = len(result)
        self.last_stats = stats
        return result
