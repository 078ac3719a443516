"""The snapshot-clustering kernel contract.

Snapshot clustering — grid bucketing, epsilon-range join, DBSCAN core /
border labeling — is the per-snapshot hot path of the ICPE framework
(Figs. 10-13 of the paper all sweep it).  A *kernel* is one interchangeable
implementation strategy of that whole phase: points in, exact
epsilon-neighbour pairs and a canonical :class:`~repro.cluster.dbscan.
DBSCANResult` out.

Two strategies ship with the repository:

* ``python`` (:mod:`repro.kernels.python_ref`) — the reference object
  walk: GR-index range join over ``GridObject``/``Rect`` instances plus
  union-find DBSCAN.  It honours every ablation switch (Lemmas 1-2,
  local-index choice) and is the default.
* ``numpy`` (:mod:`repro.kernels.numpy_kernel`) — packs the snapshot into
  contiguous float arrays and performs bucketing, the epsilon join and the
  DBSCAN labeling entirely with array operations.

Every kernel must produce the *identical* cluster set for the same input:
the pair set is exact (candidates are verified against the metric), and
border points follow the repository-wide canonical rule (a border point
joins the cluster of its smallest-id core neighbour), so results are
bit-for-bit comparable across kernels and execution backends.

Candidate pruning (grid cells, probe rectangles) everywhere uses the
shared margin of :func:`repro.geometry.rect.pruning_epsilon`, so a pair
whose computed distance equals epsilon exactly can never be lost to a
coordinate sitting a few ulps past a pruning boundary — the exact metric
is the only filter that decides pairs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from repro.cluster.dbscan import DBSCANResult, dbscan_from_pairs
from repro.join.range_join import JoinStats

Points = Sequence[tuple[int, float, float]]


class ClusteringKernel(ABC):
    """One snapshot-clustering strategy (points -> pairs -> clusters).

    Attributes:
        name: registry name of the strategy (``"python"``, ``"numpy"``).
        epsilon: the join / DBSCAN distance threshold.
        min_pts: the DBSCAN density threshold.
        last_join_stats: work counters of the most recent snapshot
            (populated by :meth:`neighbor_pairs` / :meth:`cluster`).
    """

    name: str = "abstract"

    def __init__(self, epsilon: float, min_pts: int):
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        if min_pts < 1:
            raise ValueError(f"min_pts must be >= 1, got {min_pts}")
        self.epsilon = epsilon
        self.min_pts = min_pts
        self.last_join_stats = JoinStats()

    @abstractmethod
    def neighbor_pairs(self, points: Points) -> set[tuple[int, int]]:
        """Exact duplicate-free epsilon-neighbour pairs of one snapshot.

        Pairs are normalised ``(min oid, max oid)`` over distinct objects
        at metric distance <= epsilon.
        """

    def cluster(self, points: Points) -> DBSCANResult:
        """Cluster one snapshot's points into the canonical DBSCAN result.

        The default implementation routes the kernel's pair set through
        the shared union-find DBSCAN; fully vectorized kernels override
        this to stay on arrays end to end.  Isolated objects (no pairs)
        are classified as noise, never dropped.
        """
        points = list(points)
        pairs = self.neighbor_pairs(points)
        return dbscan_from_pairs(
            (oid for oid, _, _ in points), pairs, self.min_pts
        )

    def cluster_columns(self, oids, xs, ys) -> DBSCANResult:
        """Cluster one snapshot given as parallel columns.

        The columnar entry point of the batch-ingestion data plane:
        vectorized kernels override it to consume the arrays directly
        (no per-point boxing); the default zips the columns into the
        row form and delegates to :meth:`cluster`, so every kernel is
        batch-transparent.  Results are identical either way.
        """
        return self.cluster(list(zip(oids, xs, ys)))

    def cluster_members(self, oids, xs, ys):
        """Cluster one snapshot's columns into ``(members, bounds)`` arrays.

        ``members`` (int64) holds the clustered oids grouped by cluster —
        clusters in :meth:`cluster_columns` order (by smallest member),
        members ascending — and ``bounds`` (int64, one more entry than
        clusters) their offsets, so cluster ``i`` is
        ``members[bounds[i]:bounds[i + 1]]``.  What the kernel
        clustering stage partitions from.  The default converts
        :meth:`cluster_columns`' result; vectorized kernels override it
        to stay on arrays.
        """
        import numpy as np

        groups = list(self.cluster_columns(oids, xs, ys).clusters.values())
        sizes = [len(group) for group in groups]
        members = np.fromiter(
            (oid for group in groups for oid in group),
            dtype=np.int64,
            count=sum(sizes),
        )
        bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        return members, bounds
