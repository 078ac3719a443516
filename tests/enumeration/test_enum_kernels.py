"""Enumeration-kernel unit tests: contract, construction, equivalence.

The numpy kernel's acceptance contract is per-anchor bit-for-bit
equality with the reference AnchorEnumerator path — same patterns, same
witnesses, same per-anchor emission order, snapshot by snapshot — across
randomized streams (including skipped snapshot times), multi-word
(> 64-bit) windows and strings, and VBA's candidate-retention mode.
Cross-anchor interleaving within one snapshot is explicitly *not* part
of the contract (a pattern's smallest object id is its anchor, so
distinct anchors can never collide in the collector).
"""

import random

import pytest

from repro.enumeration.kernels import (
    BITMAP_ENUMERATORS,
    ENUMERATION_KERNELS,
    EnumerationKernel,
    PythonEnumerationKernel,
    anchor_enumerator_factory,
    make_enumeration_kernel,
)
from repro.enumeration.partition import PartitionRouter
from repro.model.constraints import PatternConstraints
from repro.model.snapshot import ClusterSnapshot

CONSTRAINTS = PatternConstraints(m=3, k=4, l=2, g=2)


def random_snapshots(seed, horizon, n_objects, skip_prob=0.15, group_max=8):
    """A randomized cluster-snapshot stream with occasional time gaps."""
    rng = random.Random(seed)
    snaps, time = [], 0
    for _ in range(horizon):
        time += 1 + (rng.random() < skip_prob)
        objs = list(range(n_objects))
        rng.shuffle(objs)
        clusters, cid, index = {}, 0, 0
        while index < len(objs):
            size = rng.randint(1, group_max)
            group = objs[index : index + size]
            index += size
            if len(group) >= 2 and rng.random() < 0.85:
                clusters[cid] = tuple(sorted(group))
                cid += 1
        snaps.append(ClusterSnapshot(time=time, clusters=clusters))
    return snaps


def run_kernel(kernel_name, enumerator, snaps, constraints, retention=None):
    """Per-snapshot, per-anchor emission trace of one kernel run."""
    kernel = make_enumeration_kernel(
        kernel_name,
        enumerator=enumerator,
        constraints=constraints,
        vba_candidate_retention=retention,
    )
    router = PartitionRouter(constraints.m)
    trace = []
    for snap in snaps:
        by_anchor = {}
        for p in kernel.on_snapshot(snap.time, list(router.route(snap))):
            by_anchor.setdefault(p.objects[0], []).append(
                (p.objects, p.times.times)
            )
        trace.append(by_anchor)
    by_anchor = {}
    for p in kernel.finish():
        by_anchor.setdefault(p.objects[0], []).append((p.objects, p.times.times))
    trace.append(by_anchor)
    return trace


class TestMakeEnumerationKernel:
    def test_registry(self):
        assert tuple(ENUMERATION_KERNELS) == ("python", "numpy")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError, match="unknown enumeration kernel"):
            make_enumeration_kernel(
                "cuda", enumerator="fba", constraints=CONSTRAINTS
            )

    def test_unknown_enumerator_rejected(self):
        with pytest.raises(ValueError, match="unknown enumerator"):
            make_enumeration_kernel(
                "python", enumerator="nope", constraints=CONSTRAINTS
            )

    def test_numpy_rejects_baseline(self):
        """BA materialises subsets, not bit strings: no bitmap form."""
        assert "baseline" not in BITMAP_ENUMERATORS
        with pytest.raises(ValueError, match="no bitmap form"):
            make_enumeration_kernel(
                "numpy", enumerator="baseline", constraints=CONSTRAINTS
            )

    def test_python_supports_every_enumerator(self):
        for enumerator in ("baseline", "fba", "vba"):
            kernel = make_enumeration_kernel(
                "python", enumerator=enumerator, constraints=CONSTRAINTS
            )
            assert isinstance(kernel, PythonEnumerationKernel)
            assert isinstance(kernel, EnumerationKernel)

    def test_names(self):
        for name in ENUMERATION_KERNELS:
            kernel = make_enumeration_kernel(
                name, enumerator="fba", constraints=CONSTRAINTS
            )
            assert kernel.name == name


class TestPythonKernelMatchesDirectEnumerators:
    """The reference kernel is the AnchorEnumerator path, verbatim."""

    @pytest.mark.parametrize("enumerator", ["baseline", "fba", "vba"])
    def test_same_patterns_as_direct_drive(self, enumerator):
        snaps = random_snapshots(3, 20, 12, group_max=5)
        factory = anchor_enumerator_factory(enumerator, CONSTRAINTS)
        router = PartitionRouter(CONSTRAINTS.m)
        enumerators = {}
        direct = []
        for snap in snaps:
            for anchor, members in router.route(snap):
                e = enumerators.get(anchor)
                if e is None:
                    e = enumerators[anchor] = factory(anchor)
                direct.extend(e.on_partition(snap.time, members))
        for anchor in sorted(enumerators):
            direct.extend(enumerators[anchor].finish())
        trace = run_kernel("python", enumerator, snaps, CONSTRAINTS)
        kernel_patterns = sorted(
            pattern
            for by_anchor in trace
            for patterns in by_anchor.values()
            for pattern in patterns
        )
        assert kernel_patterns == sorted(
            (p.objects, p.times.times) for p in direct
        )


class TestNumpyKernelEquivalence:
    @pytest.mark.parametrize("enumerator", sorted(BITMAP_ENUMERATORS))
    def test_randomized_streams_identical(self, enumerator):
        for trial in range(8):
            snaps = random_snapshots(trial, 25, 16)
            assert run_kernel(
                "python", enumerator, snaps, CONSTRAINTS
            ) == run_kernel("numpy", enumerator, snaps, CONSTRAINTS), trial

    @pytest.mark.parametrize("enumerator", sorted(BITMAP_ENUMERATORS))
    def test_multi_word_bitmaps_identical(self, enumerator):
        """eta > 64 packs windows/strings into more than one uint64 word."""
        constraints = PatternConstraints(m=3, k=40, l=2, g=5)
        assert constraints.eta > 64
        rng = random.Random(1)
        snaps = []
        for time in range(1, 131):
            clusters = {}
            if (time % 17) not in (5, 6):  # rare 2-long dropouts keep L=2
                clusters[0] = (1, 2, 3, 4)
            clusters[1] = tuple(sorted(rng.sample(range(10, 30), 5)))
            snaps.append(ClusterSnapshot(time=time, clusters=clusters))
        ref = run_kernel("python", enumerator, snaps, constraints)
        vec = run_kernel("numpy", enumerator, snaps, constraints)
        assert ref == vec
        longest = max(
            (
                len(times)
                for by_anchor in ref
                for patterns in by_anchor.values()
                for _objects, times in patterns
            ),
            default=0,
        )
        assert longest > 64, "workload must exercise the second word"

    @pytest.mark.parametrize("retention", [5, 10])
    def test_vba_candidate_retention_identical(self, retention):
        for trial in range(5):
            snaps = random_snapshots(50 + trial, 30, 14)
            assert run_kernel(
                "python", "vba", snaps, CONSTRAINTS, retention
            ) == run_kernel("numpy", "vba", snaps, CONSTRAINTS, retention)

    def test_time_must_increase(self):
        kernel = make_enumeration_kernel(
            "numpy", enumerator="fba", constraints=CONSTRAINTS
        )
        kernel.on_snapshot(5, [(1, frozenset({2, 3}))])
        with pytest.raises(ValueError, match="times must increase"):
            kernel.on_snapshot(5, [(1, frozenset({2, 3}))])

    def test_id_overflow_guard(self):
        """Ids beyond 31 bits cannot pack into the int64 keys."""
        kernel = make_enumeration_kernel(
            "numpy", enumerator="fba", constraints=CONSTRAINTS
        )
        with pytest.raises(ValueError, match="31 bits"):
            kernel.on_snapshot(1, [(1, frozenset({2**31}))])

    def test_sequence_cache_hit_ratio(self):
        """The batched extractor must actually deduplicate repeat strings."""
        snaps = random_snapshots(7, 30, 20, group_max=7)
        kernel = make_enumeration_kernel(
            "numpy", enumerator="fba", constraints=CONSTRAINTS
        )
        router = PartitionRouter(CONSTRAINTS.m)
        for snap in snaps:
            kernel.on_snapshot(snap.time, list(router.route(snap)))
        kernel.finish()
        cache = kernel.sequence_cache
        assert cache.calls > 0
        assert cache.misses < cache.calls, "no repeated bit string deduped"
