"""End-to-end GR-index range join over one snapshot (ICPE-RangeJoin, Fig. 5).

``GRRangeJoin`` composes GridAllocate -> per-cell GridQuery -> GridSync and
is the join engine of the RJC clustering method.  All paper optimisations
are switchable for the ablation study:

* ``lemma1`` — upper-half query replication (Algorithm 1 / Lemma 1);
* ``lemma2`` — query-during-build inside cells (Algorithm 2 / Lemma 2);
* ``local_index`` — ``"rtree"`` (GR-index) or ``"linear"`` scan.

The class also reports per-snapshot work statistics (replicated objects,
emitted pairs before dedup) consumed by the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.geometry.distance import Metric, get_metric, l1_distance
from repro.index.rtree import MIN_MAX_ENTRIES
from repro.join.allocate import allocate_snapshot
from repro.join.pairs import NeighborPairs
from repro.join.query import CellJoiner


@dataclass(frozen=True, slots=True)
class RangeJoinConfig:
    """Configuration of the GR-index range join.

    Attributes:
        cell_width: grid cell width ``lg`` (same unit as coordinates).
        epsilon: join distance threshold.
        metric_name: distance metric (``l1`` per the paper).
        lemma1: upper-half replication on/off.
        lemma2: query-during-build on/off.
        local_index: ``"rtree"`` or ``"linear"``.
        rtree_fanout: local R-tree node capacity.
    """

    cell_width: float
    epsilon: float
    metric_name: str = "l1"
    lemma1: bool = True
    lemma2: bool = True
    local_index: str = "rtree"
    rtree_fanout: int = 16

    def __post_init__(self) -> None:
        if self.cell_width <= 0:
            raise ValueError(f"cell_width must be positive: {self.cell_width}")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be non-negative: {self.epsilon}")
        if self.rtree_fanout < MIN_MAX_ENTRIES:
            raise ValueError(
                f"rtree_fanout must be >= {MIN_MAX_ENTRIES}: {self.rtree_fanout}"
            )

    @property
    def metric(self) -> Metric:
        """The resolved distance callable."""
        return get_metric(self.metric_name)


@dataclass(slots=True)
class JoinStats:
    """Work counters of one snapshot join (for benchmarks/ablations).

    Attributes:
        locations: input points.
        grid_objects: objects the join indexed — data plus Lemma-1 query
            objects for the GR-index; every point (when there are at
            least two) for the numpy kernel.
        occupied_cells: grid cells holding an object; for the numpy
            kernel, distinct occupied buckets of width ``epsilon`` plus
            the pruning margin.
        emitted_pairs: pairs before deduplication — for the GR-index,
            what the cell joins emit (replicated objects may emit a pair
            twice); for the numpy kernel, the candidates before the
            exact metric check: point pairs in 3x3-adjacent buckets,
            each unordered pair once (the same count its column-range
            join and the earlier five-offset join produce).
        result_pairs: distinct pairs within epsilon.
    """

    locations: int = 0
    grid_objects: int = 0
    occupied_cells: int = 0
    emitted_pairs: int = 0
    result_pairs: int = 0

    @property
    def replication_factor(self) -> float:
        """Grid objects emitted per input location."""
        return self.grid_objects / self.locations if self.locations else 0.0

    @property
    def duplicate_ratio(self) -> float:
        """Fraction of emitted pairs that were duplicates (dedup cost)."""
        if not self.emitted_pairs:
            return 0.0
        return 1.0 - self.result_pairs / self.emitted_pairs


class GRRangeJoin:
    """Self range join of a snapshot under the GR-index."""

    def __init__(self, config: RangeJoinConfig):
        self.config = config
        self.last_stats = JoinStats()

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
            pairs = joiner.join(partitions[key])
            emitted += len(pairs)
            result.update(pairs)
        stats.emitted_pairs = emitted
        stats.result_pairs = len(result)
        self.last_stats = stats
        return result


def rj_with_defaults(
    points: Iterable[tuple[int, float, float]],
    epsilon: float,
    cell_width: float | None = None,
    metric: Metric = l1_distance,
) -> NeighborPairs:
    """One-shot range join with sensible defaults (cell width = 3 epsilon)."""
    config = RangeJoinConfig(
        cell_width=cell_width if cell_width is not None else max(3 * epsilon, 1e-9),
        epsilon=epsilon,
    )
    if metric is not l1_distance:
        raise ValueError("use GRRangeJoin directly for non-default metrics")
    return GRRangeJoin(config).join(points)
