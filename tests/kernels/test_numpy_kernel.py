"""Vectorized-kernel equivalence: numpy must match the reference bit-for-bit.

The kernel contract (``repro/kernels/base.py``) promises identical pair
sets and identical canonical DBSCAN results across strategies; these tests
pin that against the textbook oracle, the GR-index reference kernel and
the RJC clusterer, over random inputs, all metrics and the edge cases.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.reference import reference_dbscan
from repro.cluster.rjc import ClusteringConfig, RJCClusterer
from repro.geometry.distance import get_metric
from repro.kernels import KERNELS, make_kernel
from repro.kernels.numpy_kernel import NumpyKernel
from repro.model.snapshot import Snapshot


def kernels(eps, min_pts, metric="l1", cell_width=10.0):
    return (
        make_kernel(
            "python",
            epsilon=eps,
            min_pts=min_pts,
            cell_width=cell_width,
            metric_name=metric,
        ),
        make_kernel(
            "numpy",
            epsilon=eps,
            min_pts=min_pts,
            cell_width=cell_width,
            metric_name=metric,
        ),
    )


def assert_same_result(a, b):
    assert a.clusters == b.clusters
    assert a.core_points == b.core_points
    assert a.noise == b.noise


point_lists = st.lists(
    st.tuples(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    ),
    max_size=60,
).map(lambda pts: [(i, x, y) for i, (x, y) in enumerate(pts)])


@settings(max_examples=40, deadline=None)
@given(
    point_lists,
    st.floats(min_value=0.5, max_value=25),
    st.integers(min_value=1, max_value=6),
)
def test_numpy_matches_python_pairs_and_clusters(points, eps, min_pts):
    python, numpy_k = kernels(eps, min_pts)
    assert numpy_k.neighbor_pairs(points) == python.neighbor_pairs(points)
    assert_same_result(numpy_k.cluster(points), python.cluster(points))


@pytest.mark.parametrize("metric", ["l1", "l2", "linf"])
def test_numpy_matches_reference_on_every_metric(metric):
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(0, 50)
        points = [
            (i, rng.uniform(-40, 40), rng.uniform(-40, 40)) for i in range(n)
        ]
        eps = rng.choice([1.0, 4.0, 12.0])
        min_pts = rng.randint(1, 5)
        kernel = NumpyKernel(epsilon=eps, min_pts=min_pts, metric_name=metric)
        reference = reference_dbscan(
            points, eps, min_pts, metric=get_metric(metric)
        )
        assert_same_result(kernel.cluster(points), reference)


def test_rjc_kernel_selection_equivalent():
    rng = random.Random(5)
    points = [
        (i, rng.uniform(0, 30), rng.uniform(0, 30)) for i in range(80)
    ]
    snapshot = Snapshot.from_points(3, points)
    results = {}
    for name in KERNELS:
        clusterer = RJCClusterer(
            ClusteringConfig(
                epsilon=3.0, min_pts=3, cell_width=9.0, kernel=name
            )
        )
        assert clusterer.kernel_name == name
        results[name] = clusterer.cluster_result(snapshot)
        assert clusterer.last_join_stats.locations == len(points)
    assert_same_result(results["python"], results["numpy"])


class TestEdgeCases:
    def test_empty_snapshot(self):
        kernel = NumpyKernel(epsilon=1.0, min_pts=2)
        result = kernel.cluster([])
        assert result.clusters == {}
        assert result.core_points == set()
        assert result.noise == set()

    def test_single_point_is_noise(self):
        kernel = NumpyKernel(epsilon=1.0, min_pts=2)
        result = kernel.cluster([(7, 0.0, 0.0)])
        assert result.clusters == {}
        assert result.noise == {7}

    def test_single_point_min_pts_one_is_core(self):
        kernel = NumpyKernel(epsilon=1.0, min_pts=1)
        result = kernel.cluster([(7, 0.0, 0.0)])
        assert result.clusters == {0: (7,)}
        assert result.core_points == {7}

    def test_coincident_points(self):
        points = [(i, 5.0, 5.0) for i in range(6)]
        python, numpy_k = kernels(0.5, 3)
        assert_same_result(numpy_k.cluster(points), python.cluster(points))
        assert numpy_k.cluster(points).clusters == {0: (0, 1, 2, 3, 4, 5)}

    def test_epsilon_zero_pairs_only_coincident(self):
        points = [(1, 0.0, 0.0), (2, 0.0, 0.0), (3, 1.0, 0.0)]
        kernel = NumpyKernel(epsilon=0.0, min_pts=2)
        assert kernel.neighbor_pairs(points) == {(1, 2)}

    def test_cell_boundary_rounding(self):
        """Regression (found by hypothesis): a point a few ulps below a
        cell boundary pairs — under float64-rounded distance — with a
        point exactly epsilon away, yet naive epsilon-width bucketing
        puts them two cells apart and misses the candidate."""
        points = [(0, 1.0, 0.0), (1, -1.1754943508222875e-38, 0.0)]
        python, numpy_k = kernels(1.0, 1)
        assert python.neighbor_pairs(points) == {(0, 1)}
        assert numpy_k.neighbor_pairs(points) == {(0, 1)}
        assert_same_result(numpy_k.cluster(points), python.cluster(points))

    def test_pruning_margin_boundary_pair(self):
        """Regression: a pair at computed distance exactly epsilon whose
        smaller endpoint's raw probe rect would exclude the partner by one
        rounding step.  The candidate-pruning margin
        (:func:`repro.geometry.rect.pruning_epsilon`) keeps the reference
        path lossless, and both kernels must agree with the brute-force
        oracle."""
        points = [(2, 5e-324, 12.0), (12, -3.0, 12.0)]
        python, numpy_k = kernels(3.0, 1)
        assert python.neighbor_pairs(points) == {(2, 12)}
        assert numpy_k.neighbor_pairs(points) == {(2, 12)}
        oracle = reference_dbscan(points, 3.0, 1)
        assert numpy_k.cluster(points).clusters == oracle.clusters
        assert python.cluster(points).clusters == oracle.clusters

    def test_l2_one_ulp_from_epsilon(self):
        """Regression: math.hypot and np.hypot disagree by one ulp on
        this input; both paths now use the sqrt(dx*dx + dy*dy) formula so
        the pair decision at an exact-epsilon threshold is identical."""
        points = [(0, 0.0, 0.0), (1, 9.233810159462806, 8.424602231401824)]
        eps = 12.49948690220279
        python, numpy_k = kernels(eps, 1, metric="l2")
        assert numpy_k.neighbor_pairs(points) == python.neighbor_pairs(points)
        assert_same_result(numpy_k.cluster(points), python.cluster(points))

    def test_negative_and_spread_coordinates(self):
        rng = random.Random(23)
        points = [
            (i, rng.uniform(-1e5, 1e5), rng.uniform(-1e5, 1e5))
            for i in range(40)
        ]
        python, numpy_k = kernels(5e3, 2, cell_width=2e4)
        assert_same_result(numpy_k.cluster(points), python.cluster(points))

    def test_non_contiguous_oids(self):
        points = [(100, 0.0, 0.0), (7, 0.5, 0.0), (55, 1.0, 0.0)]
        python, numpy_k = kernels(0.6, 2)
        assert numpy_k.neighbor_pairs(points) == python.neighbor_pairs(points)
        assert_same_result(numpy_k.cluster(points), python.cluster(points))

    def test_duplicate_oid_rows_collapse_to_one_object(self):
        """Contract: pairs cover *distinct* objects, so rows sharing an
        oid collapse into one node — no self pairs, no inflated degrees
        (the reference kernel's CellJoiner skips same-oid pairs)."""
        points = [
            (1, 0.0, 0.0),
            (2, 0.4, 0.0),
            (3, -5.0, -5.0),
            (3, -5.0, -5.0),
        ]
        python, numpy_k = kernels(1.0, 2)
        assert python.neighbor_pairs(points) == {(1, 2)}
        assert numpy_k.neighbor_pairs(points) == {(1, 2)}
        assert_same_result(numpy_k.cluster(points), python.cluster(points))
        result = numpy_k.cluster(points)
        assert result.clusters == {0: (1, 2)}
        assert result.noise == {3}

    def test_duplicate_oid_at_different_positions(self):
        """Rows of one oid at different coordinates still form a single
        object whose pair set is the union over its rows."""
        points = [(1, 0.0, 0.0), (3, 0.5, 0.0), (3, 10.0, 10.0)]
        python, numpy_k = kernels(1.0, 1)
        assert python.neighbor_pairs(points) == {(1, 3)}
        assert numpy_k.neighbor_pairs(points) == {(1, 3)}
        assert_same_result(numpy_k.cluster(points), python.cluster(points))

    def test_extreme_spread_over_epsilon_refused(self):
        """Composite int64 cell keys would wrap (and silently drop
        neighbour pairs) when spread/epsilon is ~1e10 per axis; the kernel
        must refuse such inputs instead."""
        points = [(1, 0.0, 0.0), (2, 1e9, 1e9)]
        kernel = NumpyKernel(epsilon=1e-12, min_pts=2)
        with pytest.raises(ValueError, match="int64 cell keys"):
            kernel.neighbor_pairs(points)
        with pytest.raises(ValueError, match="int64 cell keys"):
            kernel.cluster(points)

    def test_join_stats_populated(self):
        points = [(i, float(i), 0.0) for i in range(10)]
        kernel = NumpyKernel(epsilon=1.5, min_pts=2)
        kernel.cluster(points)
        stats = kernel.last_join_stats
        assert stats.locations == 10
        assert stats.result_pairs == 9
        assert stats.occupied_cells > 0


class TestRegistry:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown clustering kernel"):
            make_kernel("rust", epsilon=1.0, min_pts=2, cell_width=3.0)

    def test_ablation_switches_rejected_for_numpy_kernel(self):
        """An ablation sweep must not silently run a kernel that ignores
        its switches (the vectorized join has no object path)."""
        for switch in (
            {"lemma1": False},
            {"lemma2": False},
            {"local_index": "scan"},
            {"rtree_fanout": 8},
        ):
            with pytest.raises(ValueError, match="ablation switches"):
                make_kernel(
                    "numpy",
                    epsilon=1.0,
                    min_pts=2,
                    cell_width=3.0,
                    **switch,
                )

    def test_unknown_metric_rejected(self):
        with pytest.raises(KeyError, match="unknown metric"):
            NumpyKernel(epsilon=1.0, min_pts=2, metric_name="cosine")

    def test_metric_aliases_resolve_canonically(self):
        # Aliases come from the one table in repro.geometry.distance.
        assert NumpyKernel(1.0, 2, metric_name="manhattan").metric_name == "l1"
        assert NumpyKernel(1.0, 2, metric_name="Euclidean").metric_name == "l2"
        assert NumpyKernel(1.0, 2, metric_name="chebyshev").metric_name == "linf"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            NumpyKernel(epsilon=-1.0, min_pts=2)
        with pytest.raises(ValueError):
            NumpyKernel(epsilon=1.0, min_pts=0)
