"""The growth engine against its two independent references.

1. **Differential** — the pre-engine loops, retained verbatim in
   ``reference_growth.py``, are swapped in behind the engine's two entry
   points; every path that grows patterns (``VBAEnumerator``,
   ``FBAEnumerator``, the python and numpy enumeration kernels, a whole
   ``Session``) must produce the same emitted list *in the same order*
   and the same ``and_evaluations`` either way.  Order matters because
   the collector keeps the first emission per object set.
2. **Oracle** — a brute-force check written from the CP(M, K, L, G)
   definition (every subset of a small pool, times intersected as Python
   sets, validity through ``TimeSequence.is_valid``) that shares no code
   with ``repro.enumeration``: both kernels share the engine, so kernel
   equivalence alone cannot see a bug in it.
3. **Mutants** — seeded defects in the engine's source must each be
   caught by the properties above.

``GROWTH_DIFF_EXAMPLES`` raises the hypothesis example count (CI runs
1000; the tier-1 default keeps the file at a few seconds).
"""

import os
import types
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st

from repro import ICPEConfig, PatternConfirmed, open_session
from repro.data.taxi import TaxiConfig, generate_taxi
from repro.enumeration import fba as fba_module
from repro.enumeration import growth
from repro.enumeration import vba as vba_module
from repro.enumeration.bitstring import (
    ClosedBitString,
    ones_positions,
    valid_sequences_of_bits,
)
from repro.enumeration.fba import FBAEnumerator
from repro.enumeration.kernels import (
    make_enumeration_kernel,
    numpy_kernel,
)
from repro.enumeration.vba import VBAEnumerator
from repro.model.constraints import PatternConstraints
from repro.model.timeseq import TimeSequence
from tests.enumeration.reference_growth import (
    and_closed_strings,
    reference_grow_candidate,
    reference_grow_window,
)

EXAMPLES = int(os.environ.get("GROWTH_DIFF_EXAMPLES", "60"))
ANCHOR = 0
KERNELS = ("python", "numpy")


@contextmanager
def growth_functions(window, candidate):
    """Install growth entry points at every site that imported them."""
    with (
        mock.patch.object(growth, "grow_window", window),
        mock.patch.object(growth, "grow_candidate", candidate),
        mock.patch.object(fba_module, "grow_window", window),
        mock.patch.object(numpy_kernel, "grow_window", window),
        mock.patch.object(vba_module, "grow_candidate", candidate),
    ):
        yield


def keys(patterns):
    """Comparable form of an emitted list, order kept."""
    for pattern in patterns:
        assert type(pattern.objects) is tuple
        assert all(a < b for a, b in zip(pattern.objects, pattern.objects[1:]))
    return [pattern.key() for pattern in patterns]


def sequences_of(constraints, asked=None):
    """Definition-15 extraction; ``asked`` records the non-zero lookups
    (the loops also look up all-zero ANDs, the engine skips them)."""

    def sequences(bits, start):
        if asked is not None and bits:
            asked.append((bits, start))
        return valid_sequences_of_bits(
            bits, start, constraints.k, constraints.l, constraints.g
        )

    return sequences


def closed_string(oid, times):
    start = min(times)
    return ClosedBitString(
        oid=oid,
        start=start,
        end=max(times),
        bits=sum(1 << (t - start) for t in times),
    )


# ------------------------------------------------------------------ strategies

constraints_cases = st.builds(
    lambda m, k, l, g: PatternConstraints(m=m, k=k, l=min(l, k), g=g),
    st.integers(2, 5),  # M = 2 seeds on the bare candidate; 5 > small pools
    st.integers(2, 5),
    st.integers(1, 3),
    st.integers(1, 3),
)


@st.composite
def time_sets(draw, horizon):
    """Presence times as alternating runs and gaps.

    Run lengths sit on both sides of every L and K the constraints can
    take, gaps on both sides of every G + 1 (where Lemma 7 closes a
    string), and the 70-long run outgrows one uint64 word.
    """
    time = draw(st.integers(0, 8))
    times = set()
    for run, gap in draw(
        st.lists(
            st.tuples(
                st.sampled_from([1, 2, 3, 5, 6, 70]), st.integers(1, 5)
            ),
            min_size=1,
            max_size=5,
        )
    ):
        times.update(range(time, min(time + run, horizon)))
        time += run + gap
    assume(times)
    return frozenset(times)


@st.composite
def vba_round_cases(draw):
    """Candidate rounds: few oids (so one oid owns several strings, with
    starts before and after any new candidate's), optional retention."""
    constraints = draw(constraints_cases)
    valid = sequences_of(constraints)
    strings = [
        closed_string(oid, times)
        for oid, times in draw(
            st.lists(
                st.tuples(st.integers(1, 5), time_sets(130)),
                min_size=1,
                max_size=9,
            )
        )
    ]
    strings = [s for s in strings if valid(s.bits, s.start)]
    rounds, time = [], 0
    while strings:
        size = draw(st.integers(1, 3))
        fresh, strings = strings[:size], strings[size:]
        time = max(time + 1, *(s.end + 1 for s in fresh))
        rounds.append((time, fresh))
    return constraints, rounds, draw(st.sampled_from([None, 0, 6, 50]))


@st.composite
def fba_window_cases(draw):
    constraints = draw(constraints_cases)
    start = draw(st.integers(0, 40))
    rows = draw(st.lists(time_sets(130), min_size=0, max_size=7))
    bits = {
        oid: sum(1 << t for t in times) for oid, times in enumerate(rows, 1)
    }
    return constraints, start, bits


@st.composite
def stream_cases(draw):
    """One anchor's partition stream, with skipped snapshot times."""
    constraints = draw(constraints_cases)
    horizon = draw(st.sampled_from([16, 40, 100]))
    rows = draw(st.lists(time_sets(horizon), min_size=1, max_size=6))
    skipped = draw(st.sets(st.integers(0, horizon - 1), max_size=4))
    stream = [
        (t, frozenset(oid for oid, row in enumerate(rows, 1) if t in row))
        for t in range(horizon)
        if t not in skipped
    ]
    return constraints, stream, draw(st.sampled_from([None, 3, 30]))


# --------------------------------------------------------------------- drivers


def drive_vba_rounds(constraints, rounds, retention):
    asked = []
    enumerator = VBAEnumerator(
        ANCHOR,
        constraints,
        candidate_retention=retention,
        sequences_fn=sequences_of(constraints, asked),
    )
    emitted = [
        keys(enumerator.enumerate_candidates(time, list(fresh)))
        for time, fresh in rounds
    ]
    state = enumerator.snapshot_state()
    # ``asked``: same memo keys, so the kernels' sequence cache shares the
    # same TimeSequence objects between patterns as it did with the loops.
    return emitted, state["and_evaluations"], state["candidates"], asked


def drive_fba_window(constraints, start, candidate_bits):
    asked = []
    patterns, evaluations = fba_module.grow_window(
        ANCHOR, start, candidate_bits, constraints, sequences_of(constraints, asked)
    )
    return keys(patterns), evaluations, asked


def drive_stream(constraints, stream, retention):
    """Every production path over one partition stream."""
    traces = {}
    for name, machine in (
        ("fba", FBAEnumerator(ANCHOR, constraints)),
        ("vba", VBAEnumerator(ANCHOR, constraints, candidate_retention=retention)),
    ):
        emitted = [keys(machine.on_partition(t, who)) for t, who in stream]
        emitted.append(keys(machine.finish()))
        traces[name] = (emitted, machine.and_evaluations)
    for kernel_name in KERNELS:
        for enumerator in ("fba", "vba"):
            kernel = make_enumeration_kernel(
                kernel_name,
                enumerator=enumerator,
                constraints=constraints,
                vba_candidate_retention=retention,
            )
            emitted = [
                keys(kernel.on_snapshot(t, [(ANCHOR, who)] if who else []))
                for t, who in stream
            ]
            emitted.append(keys(kernel.finish()))
            if kernel_name == "numpy":
                evaluations = kernel.and_evaluations
            else:
                evaluations = sum(
                    payload["and_evaluations"]
                    for payload in kernel.snapshot_state()["anchors"].values()
                )
            traces[kernel_name, enumerator] = (emitted, evaluations)
    return traces


def same_as_reference(driver):
    """A property: ``driver`` gives one result on the engine and the loops."""

    def check(*case):
        got = driver(*case)
        with growth_functions(reference_grow_window, reference_grow_candidate):
            expected = driver(*case)
        assert got == expected

    return check


# ---------------------------------------------------------------------- oracle


def holds_valid_sequence(times, constraints):
    """Whether some sub-sequence of ``times`` is (K, L, G)-valid.

    Candidates: drop the consecutive runs shorter than L (no L-consecutive
    sequence can use them), then take what is left between any two of the
    remaining times.  That family suffices: a valid T is contained in the
    candidate cut at ``min(T)`` and ``max(T)``, which only adds whole runs
    of length >= L inside T's gaps, so it is valid too.
    """
    c = constraints
    ordered = sorted(times)
    kept = []
    for t in ordered:
        low = high = t
        while low - 1 in times:
            low -= 1
        while high + 1 in times:
            high += 1
        if high - low + 1 >= c.l:
            kept.append(t)
    return any(
        TimeSequence([t for t in kept if a <= t <= b]).is_valid(c.k, c.l, c.g)
        for i, a in enumerate(kept)
        for b in kept[i:]
    )


def valid_object_sets(fixed, base_times, strings, min_size, constraints):
    """Object sets of every subset of ``strings`` that is a pattern.

    ``strings`` are ``(oid, times)``; a subset needs ``min_size`` strings
    of distinct oids whose common times (within ``base_times`` when
    given) hold a valid sequence.
    """
    found = set()
    for mask in range(1 << len(strings)):
        chosen = [s for i, s in enumerate(strings) if mask >> i & 1]
        oids = [oid for oid, _ in chosen]
        if len(chosen) < min_size or len(set(oids)) != len(oids):
            continue
        common = None if base_times is None else set(base_times)
        for _, times in chosen:
            common = set(times) if common is None else common & times
        if holds_valid_sequence(common, constraints):
            found.add(tuple(sorted([*fixed, *oids])))
    return found


@st.composite
def oracle_cases(draw):
    constraints = draw(constraints_cases)
    strings = draw(
        st.lists(
            st.tuples(st.integers(1, 6), time_sets(30)), min_size=1, max_size=9
        )
    )
    return constraints, strings


def check_vba_oracle(constraints, strings):
    """The last string is the new candidate, the others the global list."""
    *pool, (new_oid, new_times) = strings
    assume(holds_valid_sequence(new_times, constraints))
    # Only strings holding a valid sequence ever become candidates.
    pool = [s for s in pool if holds_valid_sequence(s[1], constraints)]
    enumerator = VBAEnumerator(ANCHOR, constraints)
    enumerator.enumerate_closed([closed_string(*s) for s in pool])
    emitted = enumerator.enumerate_closed([closed_string(new_oid, new_times)])
    keys(emitted)
    for pattern in emitted:
        c = constraints
        assert pattern.times.is_valid(c.k, c.l, c.g)
        assert set(pattern.times) <= new_times
    assert {p.objects for p in emitted} == valid_object_sets(
        (ANCHOR, new_oid),
        new_times,
        [s for s in pool if s[0] != new_oid],
        constraints.m - 2,
        constraints,
    )


def check_fba_oracle(constraints, strings):
    """One window: the first string of each oid is its Definition-13 row."""
    rows = {}
    for oid, times in strings:
        rows.setdefault(oid, times)
    start = 3
    emitted, _ = fba_module.grow_window(
        ANCHOR,
        start,
        {oid: sum(1 << t for t in times) for oid, times in rows.items()},
        constraints,
        sequences_of(constraints),
    )
    keys(emitted)
    shifted = [(oid, {start + t for t in times}) for oid, times in rows.items()]
    assert {p.objects for p in emitted} == valid_object_sets(
        (ANCHOR,), None, shifted, constraints.m - 1, constraints
    )


# ------------------------------------------------------------------ properties

PROPERTIES = {
    "vba rounds": (same_as_reference(drive_vba_rounds), vba_round_cases()),
    "fba window": (same_as_reference(drive_fba_window), fba_window_cases()),
    "stream": (same_as_reference(drive_stream), stream_cases()),
    "vba oracle": (check_vba_oracle, oracle_cases()),
    "fba oracle": (check_fba_oracle, oracle_cases()),
}


def run_property(name, examples=EXAMPLES, **extra):
    check, cases = PROPERTIES[name]

    @settings(
        max_examples=examples,
        deadline=None,
        suppress_health_check=list(HealthCheck),
        **extra,
    )
    @given(cases)
    def prop(case):
        check(*case)

    prop()


@pytest.mark.parametrize("name", sorted(PROPERTIES))
def test_engine_property(name):
    run_property(name)


#: Seeded defects: one line of ``growth.py``, its broken replacement, and
#: the properties that must each catch it.  Seed order moves no object
#: set, only which emission comes first — the differential's business.
MUTANTS = {
    "shift direction": (
        "s.bits << (s.start - origin)",
        "s.bits >> (s.start - origin)",
        ("vba oracle", "vba rounds", "stream"),
    ),
    "same-oid skip, seeds": (
        "if repeated_oids and any(",
        "if False and any(",
        ("vba oracle", "vba rounds", "stream"),
    ),
    "same-oid skip, extensions": (
        "while first < n and pool_oids[first] == last_oid:",
        "while False:",
        ("vba oracle", "vba rounds", "stream"),
    ),
    "seed order": (
        "in combinations(range(n), seed_size):",
        "in reversed(list(combinations(range(n), seed_size))):",
        ("fba window", "vba rounds", "stream"),
    ),
    "zero test": (
        "if not combined:",
        "if combined:",
        ("fba oracle", "vba oracle", "fba window", "vba rounds", "stream"),
    ),
}


@pytest.mark.parametrize("defect", sorted(MUTANTS))
def test_seeded_defect_is_caught(defect):
    old, new, catchers = MUTANTS[defect]
    source = Path(growth.__file__).read_text()
    assert source.count(old) == 1, f"mutant anchor moved: {old!r}"
    mutant = types.ModuleType("growth_mutant")
    exec(compile(source.replace(old, new), "growth_mutant", "exec"), mutant.__dict__)
    with growth_functions(mutant.grow_window, mutant.grow_candidate):
        for name in catchers:
            with pytest.raises(AssertionError):
                run_property(
                    name,
                    examples=300,
                    derandomize=True,
                    database=None,
                    phases=[Phase.generate],
                    report_multiple_bugs=False,
                )


# ---------------------------------------------------- aligned AND specification


class TestAlignedAnd:
    """``and_closed_strings``: what "AND over the aligned window" means."""

    def _closed(self, oid, start, text):
        bits = 0
        for offset, bit in enumerate(text):
            if bit == "1":
                bits |= 1 << offset
        return ClosedBitString(
            oid=oid, start=start, end=start + len(text) - 1, bits=bits
        )

    def test_aligned_and(self):
        a = self._closed(1, 2, "1111111")   # times 2-8
        b = self._closed(2, 3, "110111")    # times 3-8
        bits, window_start = and_closed_strings([a, b])
        assert window_start == 3
        assert valid_sequences_of_bits(bits, window_start, 4, 2, 2)

    def test_disjoint_windows(self):
        a = self._closed(1, 1, "11")
        b = self._closed(2, 10, "11")
        assert and_closed_strings([a, b]) is None

    def test_empty_input(self):
        assert and_closed_strings([]) is None

    @given(
        st.integers(1, 5), st.integers(0, 2**12), st.integers(1, 5),
        st.integers(0, 2**12),
    )
    def test_and_equals_set_intersection(self, s1, b1, s2, b2):
        """Bitwise AND over aligned windows == intersecting the time sets."""
        a = ClosedBitString(oid=1, start=s1, end=s1 + 12, bits=b1 | 1)
        b = ClosedBitString(oid=2, start=s2, end=s2 + 12, bits=b2 | 1)
        result = and_closed_strings([a, b])
        expected = set(a.times()) & set(b.times())
        expected = {
            t for t in expected
            if max(a.start, b.start) <= t <= min(a.end, b.end)
        }
        if result is None:
            assert not expected
        else:
            bits, window_start = result
            got = {window_start + o for o in ones_positions(bits)}
            assert got == expected


# --------------------------------------------------------------------- session


@pytest.mark.parametrize("seed", [9, 23])
@pytest.mark.parametrize("enumerator", ["fba", "vba"])
@pytest.mark.parametrize("kernel", KERNELS)
def test_session_confirms_the_same_events_in_order(kernel, enumerator, seed):
    dataset = generate_taxi(TaxiConfig(n_objects=70, horizon=18, seed=seed))
    config = ICPEConfig(
        epsilon=dataset.resolve_percentage(0.06),
        cell_width=dataset.resolve_percentage(1.6),
        min_pts=3,
        constraints=PatternConstraints(m=3, k=5, l=2, g=2),
        enumerator=enumerator,
        clustering_kernel=kernel,
        enumeration_kernel=kernel,
    )

    def confirmed():
        with open_session(config) as session:
            calls = [session.feed_batch(b) for b in dataset.batches(256)]
            calls.append(session.finish())
        return [
            (index, event.pattern.key())
            for index, events in enumerate(calls)
            for event in events
            if isinstance(event, PatternConfirmed)
        ]

    got = confirmed()
    with growth_functions(reference_grow_window, reference_grow_candidate):
        expected = confirmed()
    assert got and got == expected
