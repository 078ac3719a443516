"""Deprecation-shim coverage: old API warns, yet matches the Session.

The old-style entry point — ``ICPEConfig`` strategy strings +
``CoMovementDetector.feed`` — must emit a :class:`DeprecationWarning`
and still produce a pattern set identical to the equivalent
:class:`~repro.session.Session`, across the full backend x
clustering-kernel x enumeration-kernel 2x2x2 axis grid, on a scaled
Fig. 12/13-style workload (dense co-moving taxi groups — the same
generator shape ``benchmarks/conftest.py``'s ``datasets_dense`` uses
for the Or / epsilon sweeps, sized for the test suite).
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.config import ICPEConfig
from repro.core.detector import CoMovementDetector
from repro.data.taxi import TaxiConfig, generate_taxi
from repro.model.constraints import PatternConstraints
from repro.session import open_session

CONSTRAINTS = PatternConstraints(m=3, k=5, l=2, g=2)

BACKENDS = ("serial", "process")
CLUSTERING_KERNELS = ("python", "numpy")
ENUMERATION_KERNELS = ("python", "numpy")

GRID = sorted(
    itertools.product(BACKENDS, CLUSTERING_KERNELS, ENUMERATION_KERNELS)
)


@pytest.fixture(scope="module")
def workload():
    """Scaled-down Fig. 12/13 workload: dense taxi groups + background."""
    dataset = generate_taxi(
        TaxiConfig(
            n_objects=48,
            horizon=16,
            seed=41,
            group_fraction=0.6,
            group_size=(6, 10),
        )
    )
    return dataset


def _signature(patterns):
    return {(p.objects, p.times.times) for p in patterns}


def _config(workload, backend, clustering_kernel, enumeration_kernel):
    return ICPEConfig(
        epsilon=workload.resolve_percentage(0.06),
        cell_width=workload.resolve_percentage(1.6),
        min_pts=3,
        constraints=CONSTRAINTS,
        backend=backend,
        parallel_workers=2 if backend == "process" else None,
        clustering_kernel=clustering_kernel,
        enumeration_kernel=enumeration_kernel,
    )


@pytest.mark.parametrize(
    "backend,clustering_kernel,enumeration_kernel", GRID
)
def test_detector_shim_warns_and_matches_session(
    workload, backend, clustering_kernel, enumeration_kernel
):
    config = _config(
        workload, backend, clustering_kernel, enumeration_kernel
    )

    with pytest.warns(DeprecationWarning, match="open_session"):
        detector = CoMovementDetector(config)
    detector.feed_many(workload.records)
    detector.finish()
    old_signature = _signature(detector.patterns)

    with open_session(config) as session:
        session.feed_many(workload.records)
    new_signature = _signature(session.patterns)

    assert old_signature == new_signature
    assert detector.backend_name == backend


def test_brinkhoff_workload_equality(workload):
    """The other Fig. 12/13 dataset family (Brinkhoff), reference combo."""
    from repro.data.brinkhoff import BrinkhoffConfig, generate_brinkhoff

    dataset = generate_brinkhoff(
        BrinkhoffConfig(
            n_objects=48,
            horizon=16,
            seed=43,
            group_fraction=0.6,
            group_size=(6, 10),
        )
    )
    config = _config(dataset, "serial", "python", "python")
    with pytest.warns(DeprecationWarning):
        detector = CoMovementDetector(config)
    detector.feed_many(dataset.records)
    detector.finish()
    with open_session(config) as session:
        session.feed_many(dataset.records)
    assert _signature(detector.patterns) == _signature(session.patterns)
    assert detector.patterns, "the dense workload must produce patterns"


def test_reference_combination_finds_patterns(workload):
    """Guard the grid against vacuous equality (empty == empty)."""
    config = _config(workload, "serial", "python", "python")
    with pytest.warns(DeprecationWarning):
        detector = CoMovementDetector(config)
    detector.feed_many(workload.records)
    detector.finish()
    assert detector.patterns, "the dense workload must produce patterns"


def test_shim_exposes_legacy_surface(workload):
    """The old attributes applications used keep working on the shim."""
    config = _config(workload, "serial", "python", "python")
    with pytest.warns(DeprecationWarning):
        detector = CoMovementDetector(config)
    patterns = detector.feed_many(workload.records)
    patterns += detector.finish()
    assert patterns == detector.patterns
    assert detector.kernel_name == "python"
    assert detector.enumeration_kernel_name == "python"
    assert detector.meter.snapshots > 0
    assert len(list(detector.store())) == len(detector.patterns)
    assert detector.session.finished
    assert detector.pipeline is detector.session.pipeline
