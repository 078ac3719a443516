"""RJC: the paper's range-join based clustering method (Section 5).

Per snapshot: GR-index range join (Lemmas 1-2) -> DBSCAN over the neighbour
pairs.  This is the clustering engine inside ICPE and the method labelled
"RJC" in Figures 10-11.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.dbscan import DBSCANResult
from repro.join.range_join import RangeJoinConfig
from repro.model.snapshot import ClusterSnapshot, Snapshot


@dataclass(frozen=True, slots=True)
class ClusteringConfig:
    """Parameters of the clustering phase.

    Attributes:
        epsilon: DBSCAN distance threshold.
        min_pts: DBSCAN density threshold (fixed to 10 in the paper).
        cell_width: grid cell width of the GR-index.
        metric_name: distance metric name.
        rtree_fanout: local R-tree capacity.
        lemma1, lemma2, local_index: ablation switches (paper defaults on).
        kernel: snapshot-clustering kernel strategy — ``"python"`` (the
            reference object path, default) or ``"numpy"`` (vectorized;
            identical results).
    """

    epsilon: float
    min_pts: int
    cell_width: float
    metric_name: str = "l1"
    rtree_fanout: int = 16
    lemma1: bool = True
    lemma2: bool = True
    local_index: str = "rtree"
    kernel: str = "python"

    def join_config(self) -> RangeJoinConfig:
        """The equivalent range-join configuration."""
        return RangeJoinConfig(
            cell_width=self.cell_width,
            epsilon=self.epsilon,
            metric_name=self.metric_name,
            lemma1=self.lemma1,
            lemma2=self.lemma2,
            local_index=self.local_index,
            rtree_fanout=self.rtree_fanout,
        )


class RJCClusterer:
    """Range-Join based Clustering (RJC).

    The snapshot-clustering work is delegated to the configured kernel
    strategy (``config.kernel``); the default ``"python"`` kernel is the
    GR-index object path this class has always run, ``"numpy"`` swaps in
    the vectorized kernel with identical results.
    """

    name = "RJC"

    def __init__(self, config: ClusteringConfig):
        # Deferred import: repro.kernels builds on this package's DBSCAN
        # primitives, while this clusterer dispatches *to* the kernels —
        # importing at call time keeps the strategy selectable from the
        # clustering layer without a hard import cycle.
        from repro.kernels import make_kernel

        self.config = config
        self._kernel = make_kernel(
            config.kernel,
            epsilon=config.epsilon,
            min_pts=config.min_pts,
            cell_width=config.cell_width,
            metric_name=config.metric_name,
            lemma1=config.lemma1,
            lemma2=config.lemma2,
            local_index=config.local_index,
            rtree_fanout=config.rtree_fanout,
        )

    @property
    def kernel_name(self) -> str:
        """Name of the kernel strategy clustering the snapshots."""
        return self._kernel.name

    @property
    def last_join_stats(self):
        """Work counters of the most recent snapshot join."""
        return self._kernel.last_join_stats

    def cluster(self, snapshot: Snapshot) -> ClusterSnapshot:
        """Cluster one snapshot into a :class:`ClusterSnapshot`."""
        result = self.cluster_result(snapshot)
        return result.to_snapshot(snapshot.time)

    def cluster_result(self, snapshot: Snapshot) -> DBSCANResult:
        """Cluster one snapshot, returning the full :class:`DBSCANResult`."""
        return self._kernel.cluster(snapshot.points())
