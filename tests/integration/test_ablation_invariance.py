"""Optimisations must never change results — only costs.

The paper's lemmas and index choices are performance devices; detection
output is defined purely by (epsilon, minPts, M, K, L, G).  This suite
runs the full pipeline across every ablation switch combination and
asserts identical pattern sets.
"""

import itertools

import pytest

from repro.core.config import ICPEConfig
from repro.core.icpe import ICPEPipeline
from repro.model.constraints import PatternConstraints
from tests.integration.test_end_to_end import implanted_stream
from repro.model.snapshot import Snapshot

CONSTRAINTS = PatternConstraints(m=3, k=4, l=2, g=2)


def snapshots_from(records):
    by_time = {}
    for r in records:
        by_time.setdefault(r.time, Snapshot(r.time)).add_record(r)
    return [by_time[t] for t in sorted(by_time)]


@pytest.fixture(scope="module")
def stream_snapshots():
    return snapshots_from(implanted_stream(seed=17, horizon=10))


def run_pipeline(snapshots, **overrides):
    defaults = dict(
        epsilon=2.0, cell_width=6.0, min_pts=3, constraints=CONSTRAINTS
    )
    defaults.update(overrides)
    return ICPEPipeline(ICPEConfig(**defaults)).run(snapshots)


def run_with(snapshots, **overrides):
    return run_pipeline(snapshots, **overrides).object_sets()


def test_lemma_and_index_switches_invariant(stream_snapshots):
    reference = run_with(stream_snapshots)
    for lemma1, lemma2, local_index in itertools.product(
        (True, False), (True, False), ("rtree", "linear")
    ):
        got = run_with(
            stream_snapshots,
            lemma1=lemma1,
            lemma2=lemma2,
            local_index=local_index,
        )
        assert got == reference, (lemma1, lemma2, local_index)


@pytest.mark.parametrize("enumeration_kernel", ["python", "numpy"])
@pytest.mark.parametrize("enumerator", ["fba", "vba"])
def test_parallelism_invariant(stream_snapshots, enumerator, enumeration_kernel):
    """Fan-out changes nothing, not even the order: the ordered
    ``(time, pattern)`` detections match the default (one subtask)."""
    kernels = dict(enumerator=enumerator, enumeration_kernel=enumeration_kernel)
    reference = run_pipeline(stream_snapshots, **kernels).detections
    assert reference
    for allocate, query, enumerate_ in ((1, 1, 1), (3, 5, 7), (16, 32, 64)):
        got = run_pipeline(
            stream_snapshots,
            allocate_parallelism=allocate,
            query_parallelism=query,
            enumerate_parallelism=enumerate_,
            **kernels,
        ).detections
        assert got == reference, (allocate, query, enumerate_)


def test_grid_width_invariant(stream_snapshots):
    reference = run_with(stream_snapshots)
    for cell_width in (0.5, 2.0, 25.0, 500.0):
        assert run_with(stream_snapshots, cell_width=cell_width) == reference


def test_rtree_fanout_invariant(stream_snapshots):
    reference = run_with(stream_snapshots)
    for fanout in (4, 8, 32):
        assert run_with(stream_snapshots, rtree_fanout=fanout) == reference
