"""ICPEConfig validation tests."""

import pytest

from repro.core.config import ICPEConfig
from repro.model.constraints import PatternConstraints
from repro.streaming.cluster import ClusterModel

CONSTRAINTS = PatternConstraints(m=3, k=4, l=2, g=2)


def make(**overrides):
    defaults = dict(
        epsilon=2.0, cell_width=6.0, min_pts=3, constraints=CONSTRAINTS
    )
    defaults.update(overrides)
    return ICPEConfig(**defaults)


class TestValidation:
    def test_defaults(self):
        config = make()
        assert config.enumerator == "fba"
        assert config.cluster.n_nodes == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(epsilon=0),
            dict(cell_width=-1),
            dict(min_pts=0),
            dict(enumerator="magic"),
            dict(query_parallelism=0),
            dict(backend="quantum"),
            dict(parallel_workers=0),
        ],
    )
    def test_invalid(self, overrides):
        with pytest.raises(ValueError):
            make(**overrides)

    def test_rtree_fanout_below_four_rejected_at_construction(self):
        # Rejected here, not mid-stream when a cell first builds its R-tree.
        with pytest.raises(ValueError, match="rtree_fanout must be >= 4"):
            make(rtree_fanout=3)
        assert make(rtree_fanout=4).rtree_fanout == 4

    def test_backend_defaults_serial(self):
        config = make()
        assert config.backend == "serial"
        assert config.parallel_workers is None


class TestDerivedConfigs:
    def test_clustering_config_propagates(self):
        config = make(lemma1=False, local_index="linear")
        clustering = config.clustering_config()
        assert clustering.epsilon == 2.0
        assert clustering.lemma1 is False
        assert clustering.local_index == "linear"

    def test_with_nodes(self):
        config = make(cluster=ClusterModel(n_nodes=2))
        scaled = config.with_nodes(8)
        assert scaled.cluster.n_nodes == 8
        assert scaled.epsilon == config.epsilon
        assert config.cluster.n_nodes == 2  # original untouched

    def test_with_enumerator(self):
        assert make().with_enumerator("vba").enumerator == "vba"

    def test_with_backend(self):
        config = make().with_backend("process", parallel_workers=4)
        assert config.backend == "process"
        assert config.parallel_workers == 4
        assert make().backend == "serial"  # original untouched
