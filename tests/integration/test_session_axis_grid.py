"""The full execution-axis grid agrees on a dense Fig. 12/13 workload.

Every point of the backend x clustering-kernel x enumeration-kernel
2x2x2 grid, opened through :func:`~repro.session.open_session`, must
produce the pattern set of the reference combination (serial / python /
python), on a scaled Fig. 12/13-style workload (dense co-moving taxi
groups — the same generator shape ``benchmarks/conftest.py``'s
``datasets_dense`` uses for the Or / epsilon sweeps, sized for the test
suite).
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.config import ICPEConfig
from repro.data.taxi import TaxiConfig, generate_taxi
from repro.model.constraints import PatternConstraints
from repro.session import PatternConfirmed, open_session

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
    return generate_taxi(
        TaxiConfig(
            n_objects=48,
            horizon=16,
            seed=41,
            group_fraction=0.6,
            group_size=(6, 10),
        )
    )


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


def _run(dataset, config):
    with open_session(config) as session:
        session.feed_many(dataset.records)
    return session


@pytest.fixture(scope="module")
def reference(workload):
    config = _config(workload, "serial", "python", "python")
    return _signature(_run(workload, config).patterns)


@pytest.mark.parametrize(
    "backend,clustering_kernel,enumeration_kernel", GRID
)
def test_grid_point_matches_reference(
    workload, reference, backend, clustering_kernel, enumeration_kernel
):
    config = _config(
        workload, backend, clustering_kernel, enumeration_kernel
    )
    session = _run(workload, config)
    assert _signature(session.patterns) == reference
    assert session.pipeline.backend_name == backend
    assert session.pipeline.kernel_name == clustering_kernel
    assert session.pipeline.enumeration_kernel_name == enumeration_kernel


def test_brinkhoff_workload_equality():
    """The other Fig. 12/13 dataset family (Brinkhoff), far grid corners."""
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
    reference = _run(dataset, _config(dataset, "serial", "python", "python"))
    other = _run(dataset, _config(dataset, "process", "numpy", "numpy"))
    assert _signature(other.patterns) == _signature(reference.patterns)
    assert reference.patterns, "the dense workload must produce patterns"


def test_reference_combination_finds_patterns(reference):
    """Guard the grid against vacuous equality (empty == empty)."""
    assert reference, "the dense workload must produce patterns"


def test_session_exposes_run_surface(workload):
    """The attributes applications read after a run, on the session."""
    config = _config(workload, "serial", "python", "python")
    session = open_session(config)
    try:
        events = session.feed_many(workload.records)
        events += session.finish()
    finally:
        session.close()
    patterns = [
        event.pattern
        for event in events
        if isinstance(event, PatternConfirmed)
    ]
    assert _signature(patterns) == _signature(session.patterns)
    assert session.finished
    assert session.meter.snapshots > 0
    assert len(list(session.store())) == len(session.patterns)
    result = session.result()
    assert result.clustering_kernel == "python"
    assert result.enumeration_kernel == "python"
    assert result.snapshots == session.meter.snapshots
