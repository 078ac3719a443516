"""The numpy kernel's vectorised VBA growth pass against ``growth.grow``.

:func:`~repro.enumeration.kernels.numpy_kernel.grow_round` is a second,
independent implementation of the VBA growth (the python kernel keeps
:func:`~repro.enumeration.growth.grow`), so kernel-against-kernel runs
compare two engines.  Here the pass is called directly — the kernel's
dispatch cannot route around it — on generated snapshot rounds, and must
give, pool by pool, what per-candidate ``grow`` gives: the same ordered
``(objects, times)`` list, the very same ``TimeSequence`` objects (both
ask one shared sequence cache) and the same ``and_evaluations``.

``GROWTH_DIFF_EXAMPLES`` raises the hypothesis example count (CI runs
1000 in its growth-engine step).
"""

import os
from itertools import chain
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.enumeration.growth import candidate_pool, grow_pool
from repro.enumeration.kernels import make_enumeration_kernel, numpy_kernel
from repro.enumeration.kernels.numpy_kernel import _SequenceCache, grow_round
from repro.model.constraints import PatternConstraints
from tests.enumeration.test_growth_engine import closed_string, keys, time_sets

EXAMPLES = int(os.environ.get("GROWTH_DIFF_EXAMPLES", "60"))


@st.composite
def snapshot_rounds(draw):
    """One snapshot's rounds: anchors, each with a candidate list and the
    fresh strings that close now.

    Oids 1-6 above each anchor, so a pool often holds two strings of one
    oid and a new string's oid falls below, among or above the pool's;
    70-long runs make strings wider than one int64 word; a round with no
    earlier candidates and one fresh string has an empty pool.
    """
    m = draw(st.integers(2, 6))
    k = draw(st.integers(2, 5))
    constraints = PatternConstraints(
        m=m, k=k, l=min(draw(st.integers(1, 3)), k), g=draw(st.integers(1, 3))
    )
    cache = _SequenceCache(constraints)
    rounds = []
    anchors = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    for anchor in (10 * a for a in anchors):
        strings = [
            closed_string(anchor + oid, times)
            for oid, times in draw(
                st.lists(st.tuples(st.integers(1, 6), time_sets(130)), max_size=9)
            )
        ]
        strings = [s for s in strings if cache(s.bits, s.start)]
        known = draw(st.integers(0, len(strings)))
        rounds.append((anchor, strings[:known], strings[known:]))
    return constraints, rounds


def pools_of(constraints, rounds):
    """Every growth of the rounds, in the kernel's order."""
    pools = []
    for anchor, known, fresh in sorted(rounds):
        ordered = sorted(fresh, key=lambda s: (s.oid, s.start))
        for at, new in enumerate(ordered):
            pools.append(
                candidate_pool(anchor, new, chain(known, ordered[:at]), constraints.k)
            )
    return pools


def check_pass(constraints, rounds):
    pools = pools_of(constraints, rounds)
    seed_size = constraints.m - 2
    cache = _SequenceCache(constraints)
    expected = [grow_pool(pool, seed_size, cache) for pool in pools]
    got = grow_round(pools, seed_size, cache)
    assert len(got) == len(expected)
    for (patterns, ands), (want, want_ands) in zip(got, expected):
        assert keys(patterns) == keys(want)
        assert all(a.times is b.times for a, b in zip(patterns, want))
        assert ands == want_ands


@settings(
    max_examples=EXAMPLES, deadline=None, suppress_health_check=list(HealthCheck)
)
@given(snapshot_rounds())
def test_pass_equals_grow(case):
    check_pass(*case)


def test_pass_covers_its_edge_cases():
    """Wide strings, an empty pool, repeated oids and M from 2 to 6."""
    wide = closed_string(3, set(range(0, 70)))
    for m in range(2, 7):
        constraints = PatternConstraints(m=m, k=3, l=1, g=2)
        rounds = [
            (0, [], [closed_string(1, {1, 2, 3, 4})]),  # empty pool
            (
                10,
                [closed_string(12, {1, 2, 3}), closed_string(12, {6, 7, 8, 9})],
                [
                    closed_string(11, {1, 2, 3, 7, 8, 9}),  # below the pool
                    closed_string(13, {1, 2, 3, 6, 7, 8}),  # above it
                    closed_string(14, set(range(0, 66))),  # wider than 62 bits
                ],
            ),
            (20, [wide], [closed_string(21, {2, 3, 4, 50, 51, 52})]),
        ]
        check_pass(constraints, rounds)


def convoy_stream():
    """Ten objects together for 12 snapshots with two dropouts, then
    apart: every string closes in one burst, with a second string of
    object 5 from its return after the dropout."""
    stream = []
    for t in range(1, 20):
        members = set(range(1, 10)) if t <= 12 else set()
        if t in (6, 7, 8):
            members.discard(5)
        stream.append((t, [(0, frozenset(members))] if members else []))
    return stream


def test_dispatch_sides_agree():
    """One input through both sides of the kernel's dispatch: the same
    emissions per snapshot, work counter and checkpointed state."""
    constraints = PatternConstraints(m=4, k=3, l=1, g=2)

    def run(threshold, retention):
        kernel = make_enumeration_kernel(
            "numpy",
            enumerator="vba",
            constraints=constraints,
            vba_candidate_retention=retention,
        )
        with mock.patch.object(
            numpy_kernel, "VECTOR_GROWTH_MIN_COMBINATIONS", threshold
        ), mock.patch.object(
            numpy_kernel, "grow_round", wraps=numpy_kernel.grow_round
        ) as spy:
            emitted = [
                [(p.objects, p.times) for p in kernel.on_snapshot(t, partitions)]
                for t, partitions in convoy_stream()
            ]
            emitted.append([(p.objects, p.times) for p in kernel.finish()])
        return emitted, kernel.and_evaluations, kernel.snapshot_state(), spy.called

    for retention in (None, 2):
        vectorised = run(0, retention)
        looped = run(10**9, retention)
        assert vectorised[3] and not looped[3]
        assert vectorised[:3] == looped[:3]
        assert sum(map(len, vectorised[0])) > 100
