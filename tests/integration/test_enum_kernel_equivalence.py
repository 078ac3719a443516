"""Enumeration-kernel x enumerator x clustering-kernel x backend grid.

The acceptance contract of the enumeration-kernel strategy: for every
combination of ``enumeration_kernel`` (python | numpy), ``enumerator``
(fba | vba), ``clustering_kernel`` (python | numpy) and ``backend``
(serial | process), the full ICPE pipeline must produce the identical
pattern set.  Same spirit as the clustering-kernel equivalence suite
that guards the PR-2 strategy axis — this grid is the PED-phase half.
"""

import itertools

import pytest

from repro.core.config import ICPEConfig
from repro.core.detector import CoMovementDetector
from repro.core.icpe import ICPEPipeline
from repro.data.taxi import TaxiConfig, generate_taxi
from repro.model.constraints import PatternConstraints

ENUM_KERNELS = ("python", "numpy")
CLUSTER_KERNELS = ("python", "numpy")
BACKENDS = ("serial", "process")


@pytest.fixture(scope="module")
def dataset():
    return generate_taxi(TaxiConfig(n_objects=70, horizon=18, seed=9))


@pytest.fixture(scope="module")
def base_config(dataset):
    return ICPEConfig(
        epsilon=dataset.resolve_percentage(0.06),
        cell_width=dataset.resolve_percentage(1.6),
        min_pts=3,
        constraints=PatternConstraints(m=3, k=5, l=2, g=2),
    )


def run_pipeline(dataset, config):
    """Run the dataset through a fresh pipeline; returns its signature."""
    pipeline = ICPEPipeline(config)
    try:
        for snapshot in dataset.snapshots():
            pipeline.process_snapshot(snapshot)
        pipeline.finish()
    finally:
        pipeline.close()
    return frozenset(
        (pattern.objects, tuple(pattern.times.times))
        for pattern in pipeline.patterns
    )


@pytest.mark.parametrize("enumerator", ["fba", "vba"])
def test_enum_kernel_grid_identical(dataset, base_config, enumerator):
    outcomes = {}
    for enum_kernel, kernel, backend in itertools.product(
        ENUM_KERNELS, CLUSTER_KERNELS, BACKENDS
    ):
        config = (
            base_config.with_enumerator(enumerator)
            .with_enum_kernel(enum_kernel)
            .with_kernel(kernel)
            .with_backend(backend, 2 if backend == "process" else None)
        )
        outcomes[(enum_kernel, kernel, backend)] = run_pipeline(dataset, config)
    reference = outcomes[("python", "python", "serial")]
    assert reference, "workload must produce patterns for a meaningful test"
    for combo, patterns in outcomes.items():
        assert patterns == reference, (enumerator, combo)


def test_baseline_with_numpy_enum_kernel_rejected(base_config):
    with pytest.raises(ValueError, match="no bitmap form"):
        base_config.with_enumerator("baseline").with_enum_kernel("numpy")


def test_unknown_enum_kernel_rejected(base_config):
    with pytest.raises(ValueError, match="enumeration_kernel"):
        base_config.with_enum_kernel("cuda")


def test_detector_reports_enumeration_kernel(dataset, base_config):
    config = base_config.with_enum_kernel("numpy").with_kernel("numpy")
    detector = CoMovementDetector(config)
    assert detector.enumeration_kernel_name == "numpy"
    assert detector.kernel_name == "numpy"
    assert detector.backend_name == "serial"
