"""ICPEConfig validation tests."""

from dataclasses import replace

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

    @pytest.mark.parametrize(
        "field, axis, choices",
        [
            ("clustering_kernel", "clustering kernel", ["python", "numpy"]),
            ("enumeration_kernel", "enumeration kernel", ["python", "numpy"]),
            ("enumerator", "enumerator", ["baseline", "fba", "vba"]),
            ("shed_policy", "shed policy", ["none", "random", "pattern_aware"]),
            (
                "pattern_family",
                "pattern family",
                ["strict", "evolving", "predictive"],
            ),
        ],
    )
    def test_unknown_strategy_name_lists_its_axis(self, field, axis, choices):
        with pytest.raises(ValueError) as excinfo:
            make(**{field: "nope"})
        assert str(excinfo.value) == (
            f"unknown {axis} 'nope'; choose from {choices}"
        )

    @pytest.mark.parametrize(
        "overrides, reason",
        [
            (
                dict(enumeration_kernel="numpy", enumerator="baseline"),
                "no bitmap form",
            ),
            (
                dict(pattern_family="predictive", enumerator="baseline"),
                "forming-state enumerator",
            ),
        ],
    )
    def test_invalid_strategy_pair(self, overrides, reason):
        with pytest.raises(ValueError, match=reason) as excinfo:
            make(**overrides)
        assert "\n" not in str(excinfo.value)
        for enumerator in ("fba", "vba"):
            make(**{**overrides, "enumerator": enumerator})


class TestDerivedConfigs:
    def test_clustering_config_propagates(self):
        config = make(lemma1=False, local_index="linear")
        clustering = config.clustering_config()
        assert clustering.epsilon == 2.0
        assert clustering.lemma1 is False
        assert clustering.local_index == "linear"

    def test_with_nodes(self):
        config = make(cluster=ClusterModel(n_nodes=2))
        scaled = replace(config, cluster=replace(config.cluster, n_nodes=8))
        assert scaled.cluster.n_nodes == 8
        assert scaled.epsilon == config.epsilon
        assert config.cluster.n_nodes == 2  # original untouched

    def test_with_enumerator(self):
        assert replace(make(), enumerator="vba").enumerator == "vba"

    def test_with_backend(self):
        config = replace(make(), backend="process", parallel_workers=4)
        assert config.backend == "process"
        assert config.parallel_workers == 4
        assert make().backend == "serial"  # original untouched
