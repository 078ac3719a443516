"""An in-memory R*-tree over point entries.

The paper's GR-index builds an R-tree (it cites the R*-tree [3]) per grid
cell as the local index.  This implementation follows Beckmann et al.:

* ChooseSubtree minimises overlap enlargement at leaf level and area
  enlargement above;
* node splits pick the axis by minimum margin sum and the distribution by
  minimum overlap (ties: minimum area);
* forced reinsertion of the 30% farthest-from-centre entries on first
  overflow per level per insertion.

Entries are ``(x, y, payload)`` points; queries take a :class:`Rect` and
return payloads.  Only insertion and range search are implemented — the
GR-index is rebuilt per snapshot (Section 5.2), so deletion is not needed.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.geometry.rect import Rect

DEFAULT_MAX_ENTRIES = 16
#: Smallest node capacity the R* split can work with.
MIN_MAX_ENTRIES = 4
REINSERT_FRACTION = 0.3


class _Entry:
    """A point entry stored in a leaf."""

    __slots__ = ("x", "y", "payload")

    def __init__(self, x: float, y: float, payload: Any):
        self.x = x
        self.y = y
        self.payload = payload

    @property
    def mbr(self) -> Rect:
        return Rect.point(self.x, self.y)


class _Node:
    """An R-tree node; ``children`` holds nodes or entries depending on level."""

    __slots__ = ("leaf", "children", "mbr")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.children: list = []
        self.mbr: Rect | None = None

    def recompute_mbr(self) -> None:
        boxes = [child.mbr for child in self.children]
        if not boxes:
            self.mbr = None
            return
        mbr = boxes[0]
        for box in boxes[1:]:
            mbr = mbr.union(box)
        self.mbr = mbr


class RTree:
    """R*-tree over 2-D points supporting insert and rectangle search."""

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_entries: int | None = None,
        forced_reinsert: bool = True,
    ):
        if max_entries < MIN_MAX_ENTRIES:
            raise ValueError(
                f"max_entries must be >= {MIN_MAX_ENTRIES}, got {max_entries}"
            )
        self.max_entries = max_entries
        self.min_entries = min_entries or max(2, max_entries * 2 // 5)
        if self.min_entries > max_entries // 2:
            raise ValueError(
                f"min_entries {self.min_entries} too large for max {max_entries}"
            )
        self.forced_reinsert = forced_reinsert
        self._root = _Node(leaf=True)
        self._size = 0
        self._height = 1

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Tree height (1 for a leaf-only tree)."""
        return self._height

    @property
    def bounds(self) -> Rect | None:
        """MBR of the whole tree, or ``None`` when empty."""
        return self._root.mbr

    # ------------------------------------------------------------------ insert

    def insert(self, x: float, y: float, payload: Any) -> None:
        """Insert a point entry."""
        entry = _Entry(x, y, payload)
        root = self._root
        if root.leaf and len(root.children) < self.max_entries:
            # A root leaf with room has no subtree to choose and cannot
            # overflow, so the entry is appended and the MBR extended —
            # only when the point lies outside it.
            root.children.append(entry)
            if root.mbr is None:
                root.mbr = Rect.point(x, y)
            elif not root.mbr.contains_point(x, y):
                root.mbr = root.mbr.extend_point(x, y)
        else:
            # Levels that already reinserted during this insertion (R* does
            # one forced reinsert per level per insertion).
            self._insert_at_level(entry, level=0, reinserted_levels=set())
        self._size += 1

    def _insert_at_level(self, item, level: int, reinserted_levels: set[int]) -> None:
        mbr = item.mbr
        path = self._choose_path(mbr, level)
        node = path[-1]
        node.children.append(item)
        self._propagate_mbr(path, mbr)
        if len(node.children) > self.max_entries:
            self._handle_overflow(path, level, reinserted_levels)

    def _choose_path(self, mbr: Rect, target_level: int) -> list[_Node]:
        """Walk from the root to the node at ``target_level`` best for ``mbr``.

        Level 0 is the leaf level; reinserts of orphaned subtrees target
        higher levels.
        """
        path = [self._root]
        node = self._root
        current_level = self._height - 1
        while current_level > target_level:
            node = self._choose_subtree(node, mbr, at_leaf_parent=current_level == 1)
            path.append(node)
            current_level -= 1
        return path

    def _choose_subtree(self, node: _Node, mbr: Rect, at_leaf_parent: bool) -> _Node:
        children: list[_Node] = node.children
        if at_leaf_parent:
            # Minimise overlap enlargement (R* heuristic for leaf parents).
            best = None
            best_key = None
            for child in children:
                enlarged = child.mbr.union(mbr)
                overlap_before = sum(
                    child.mbr.intersection_area(other.mbr)
                    for other in children
                    if other is not child
                )
                overlap_after = sum(
                    enlarged.intersection_area(other.mbr)
                    for other in children
                    if other is not child
                )
                key = (
                    overlap_after - overlap_before,
                    child.mbr.enlargement(mbr),
                    child.mbr.area,
                )
                if best_key is None or key < best_key:
                    best, best_key = child, key
            return best
        best = None
        best_key = None
        for child in children:
            key = (child.mbr.enlargement(mbr), child.mbr.area)
            if best_key is None or key < best_key:
                best, best_key = child, key
        return best

    def _propagate_mbr(self, path: list[_Node], mbr: Rect) -> None:
        # A union with a box already covered would rebuild the same floats.
        for node in path:
            if node.mbr is None:
                node.mbr = mbr
            elif not node.mbr.contains(mbr):
                node.mbr = node.mbr.union(mbr)

    def _handle_overflow(
        self, path: list[_Node], level: int, reinserted_levels: set[int]
    ) -> None:
        node = path[-1]
        is_root = node is self._root
        if self.forced_reinsert and not is_root and level not in reinserted_levels:
            reinserted_levels.add(level)
            self._reinsert(path, level, reinserted_levels)
            return
        self._split(path, level, reinserted_levels)

    def _reinsert(
        self, path: list[_Node], level: int, reinserted_levels: set[int]
    ) -> None:
        node = path[-1]
        center_x, center_y = node.mbr.center
        def distance(item) -> float:
            cx, cy = item.mbr.center
            return (cx - center_x) ** 2 + (cy - center_y) ** 2

        node.children.sort(key=distance)
        count = max(1, int(len(node.children) * REINSERT_FRACTION))
        orphans = node.children[-count:]
        del node.children[-count:]
        node.recompute_mbr()
        for ancestor in reversed(path[:-1]):
            ancestor.recompute_mbr()
        for orphan in orphans:
            self._insert_at_level(orphan, level, reinserted_levels)

    def _split(
        self, path: list[_Node], level: int, reinserted_levels: set[int]
    ) -> None:
        node = path[-1]
        first_group, second_group = self._rstar_split(node.children)
        node.children = first_group
        node.recompute_mbr()
        sibling = _Node(leaf=node.leaf)
        sibling.children = second_group
        sibling.recompute_mbr()
        if node is self._root:
            new_root = _Node(leaf=False)
            new_root.children = [node, sibling]
            new_root.recompute_mbr()
            self._root = new_root
            self._height += 1
            return
        parent = path[-2]
        parent.children.append(sibling)
        for ancestor in reversed(path[:-1]):
            ancestor.recompute_mbr()
        if len(parent.children) > self.max_entries:
            self._handle_overflow(path[:-1], level + 1, reinserted_levels)

    def _rstar_split(self, children: list) -> tuple[list, list]:
        """R* split: choose axis by margin sum, distribution by overlap."""
        m = self.min_entries
        best_groups = None
        best_key = None
        for axis in ("x", "y"):
            if axis == "x":
                sort_keys = [
                    lambda item: (item.mbr.min_x, item.mbr.max_x),
                    lambda item: (item.mbr.max_x, item.mbr.min_x),
                ]
            else:
                sort_keys = [
                    lambda item: (item.mbr.min_y, item.mbr.max_y),
                    lambda item: (item.mbr.max_y, item.mbr.min_y),
                ]
            margin_sum = 0.0
            axis_candidates = []
            for sort_key in sort_keys:
                ordered = sorted(children, key=sort_key)
                for split_at in range(m, len(ordered) - m + 1):
                    left = ordered[:split_at]
                    right = ordered[split_at:]
                    left_mbr = _mbr_of(left)
                    right_mbr = _mbr_of(right)
                    margin_sum += left_mbr.margin + right_mbr.margin
                    axis_candidates.append((left, right, left_mbr, right_mbr))
            for left, right, left_mbr, right_mbr in axis_candidates:
                key = (
                    margin_sum,
                    left_mbr.intersection_area(right_mbr),
                    left_mbr.area + right_mbr.area,
                )
                if best_key is None or key < best_key:
                    best_key = key
                    best_groups = (list(left), list(right))
        assert best_groups is not None
        return best_groups

    # --------------------------------------------------------------- bulk load

    @classmethod
    def bulk_load(
        cls,
        points: list[tuple[float, float, Any]],
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> "RTree":
        """Build a packed tree with Sort-Tile-Recursive (STR) bulk loading.

        STR packs points into fully utilised leaves by sorting on x, slicing
        into vertical tiles, and sorting each tile on y; upper levels pack
        recursively.  For a known snapshot (the build-then-query path of the
        Lemma 2 ablation) this produces better-clustered nodes than repeated
        insertion at a fraction of the cost.
        """
        tree = cls(max_entries=max_entries, forced_reinsert=False)
        if not points:
            return tree
        entries = [_Entry(x, y, payload) for x, y, payload in points]
        leaves = _str_pack(entries, max_entries, leaf=True)
        level_nodes = leaves
        height = 1
        while len(level_nodes) > 1:
            level_nodes = _str_pack(level_nodes, max_entries, leaf=False)
            height += 1
        tree._root = level_nodes[0]
        tree._size = len(entries)
        tree._height = height
        return tree

    # ------------------------------------------------------------------ search

    def search(self, region: Rect) -> list[Any]:
        """Payloads of all points inside ``region`` (closed boundaries)."""
        root = self._root
        if root.leaf:
            # A root leaf is scanned directly, in the order iter_search
            # yields; its MBR test could only prune what the scan rejects.
            return [
                entry.payload
                for entry in root.children
                if region.contains_point(entry.x, entry.y)
            ]
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

    def all_payloads(self) -> list[Any]:
        """Every stored payload (diagnostics and tests)."""
        out = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                out.extend(entry.payload for entry in node.children)
            else:
                stack.extend(node.children)
        return out

    # ------------------------------------------------------------- diagnostics

    def check_invariants(self) -> None:
        """Validate structural invariants; raises AssertionError on breach.

        Used by tests: every node's MBR covers its children, leaf depth is
        uniform, and fanout bounds hold for non-root nodes.
        """
        depths = set()

        def walk(node: _Node, depth: int) -> None:
            if node is not self._root and not node.children:
                raise AssertionError("empty non-root node")
            if node.leaf:
                depths.add(depth)
                for entry in node.children:
                    if not node.mbr.contains_point(entry.x, entry.y):
                        raise AssertionError("leaf MBR does not cover entry")
                return
            for child in node.children:
                if not node.mbr.contains(child.mbr):
                    raise AssertionError("inner MBR does not cover child")
                walk(child, depth + 1)
            if node is not self._root and not (
                self.min_entries <= len(node.children) <= self.max_entries
            ):
                raise AssertionError("fanout bounds violated")

        walk(self._root, 1)
        if len(depths) > 1:
            raise AssertionError(f"leaves at multiple depths: {depths}")


def _mbr_of(items: list) -> Rect:
    mbr = items[0].mbr
    for item in items[1:]:
        mbr = mbr.union(item.mbr)
    return mbr


def _str_pack(items: list, max_entries: int, leaf: bool) -> list[_Node]:
    """One STR packing pass: group ``items`` into nodes of ``max_entries``."""
    import math

    count = len(items)
    node_count = math.ceil(count / max_entries)
    slice_count = max(1, math.ceil(math.sqrt(node_count)))
    per_slice = slice_count * max_entries

    def center_x(item) -> float:
        return item.mbr.center[0]

    def center_y(item) -> float:
        return item.mbr.center[1]

    ordered = sorted(items, key=center_x)
    nodes: list[_Node] = []
    for start in range(0, count, per_slice):
        tile = sorted(ordered[start : start + per_slice], key=center_y)
        for offset in range(0, len(tile), max_entries):
            node = _Node(leaf=leaf)
            node.children = tile[offset : offset + max_entries]
            node.recompute_mbr()
            nodes.append(node)
    return nodes
