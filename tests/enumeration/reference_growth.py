"""The pre-engine growth loops, kept verbatim as the test reference.

``repro.enumeration.growth`` replaced two near-identical apriori loops —
FBA's ``enumerate_window`` and VBA's ``_enumerate_with`` — and the
aligned AND they were built on.  Their bodies live on here, unchanged,
as the *specification* the engine is held to:
``tests/enumeration/test_growth_engine.py`` swaps them in behind the
engine's two entry points (:func:`reference_grow_window`,
:func:`reference_grow_candidate`) and requires the same emitted list in
the same order and the same ``and_evaluations`` from both.

:func:`and_closed_strings` is the definition of "AND over the aligned
overlap window" that the engine's frame-aligned ``&`` must agree with.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable

from repro.enumeration.bitstring import ClosedBitString, valid_sequences_of_bits
from repro.enumeration.vba import VBAEnumerator
from repro.model.constraints import PatternConstraints
from repro.model.pattern import CoMovementPattern
from repro.model.timeseq import TimeSequence

SequencesFn = Callable[[int, int], "list[TimeSequence]"]


def and_closed_strings(
    strings: list[ClosedBitString],
) -> tuple[int, int] | None:
    """Bitwise AND of closed strings over their aligned overlap window.

    Returns ``(bits, window_start)`` or ``None`` when the overlap window is
    empty.  Bit ``j`` of the result corresponds to time ``window_start + j``
    and is set iff every input string has a 1 there.
    """
    if not strings:
        return None
    window_start = max(s.start for s in strings)
    window_end = min(s.end for s in strings)
    if window_end < window_start:
        return None
    combined = ~0
    width = window_end - window_start + 1
    mask = (1 << width) - 1
    for s in strings:
        combined &= s.bits >> (window_start - s.start)
        if not combined & mask:
            return (0, window_start)
    return (combined & mask, window_start)


def enumerate_window(
    anchor: int,
    start: int,
    candidate_bits: dict[int, int],
    constraints: PatternConstraints,
    sequences_fn: SequencesFn | None = None,
) -> tuple[list[CoMovementPattern], int]:
    """Apriori growth over one window's candidate set (Alg. 4, lines 9-17).

    ``candidate_bits`` maps each candidate oid to its (already validated)
    Definition-13 bit string anchored at ``start``.  Patterns are seeded
    at cardinality M - 1 and grown by candidates with a strictly larger
    id; bit strings are combined with bitwise AND and every valid
    combination is emitted with the anchor included.

    Shared by the reference :class:`FBAEnumerator` and the batched
    enumeration kernels (:mod:`repro.enumeration.kernels`), so both emit
    bit-for-bit identical patterns in identical per-anchor order.
    ``sequences_fn`` overrides the maximal-valid-sequence extraction
    (same contract as :func:`valid_sequences_of_bits` bound to the
    constraints); the kernels pass a memoized extractor, which is
    output-invariant because the decomposition is a pure function of
    ``(bits, start)``.

    Returns:
        ``(patterns, and_evaluations)`` — the emitted patterns in
        enumeration order and the number of AND combinations evaluated.
    """
    c = constraints
    if sequences_fn is None:
        sequences_fn = lambda bits, s: valid_sequences_of_bits(
            bits, s, c.k, c.l, c.g
        )
    candidates = sorted(candidate_bits)
    emitted: list[CoMovementPattern] = []
    and_evaluations = 0
    min_size = c.m - 1
    if len(candidates) < min_size:
        return emitted, and_evaluations

    frontier: list[tuple[tuple[int, ...], int]] = []
    for seed in combinations(candidates, min_size):
        bits = candidate_bits[seed[0]]
        for oid in seed[1:]:
            bits &= candidate_bits[oid]
        and_evaluations += 1
        sequences = sequences_fn(bits, start)
        if sequences:
            emitted.append(CoMovementPattern.of((anchor, *seed), sequences[0]))
            frontier.append((seed, bits))
    while frontier:
        grown: list[tuple[tuple[int, ...], int]] = []
        for subset, bits in frontier:
            last = subset[-1]
            for oid in candidates:
                if oid <= last:
                    continue
                combined = bits & candidate_bits[oid]
                and_evaluations += 1
                sequences = sequences_fn(combined, start)
                if sequences:
                    extended = subset + (oid,)
                    emitted.append(
                        CoMovementPattern.of(
                            (anchor, *extended), sequences[0]
                        )
                    )
                    grown.append((extended, combined))
        frontier = grown
    return emitted, and_evaluations


class ReferenceVBAEnumerator(VBAEnumerator):
    """``VBAEnumerator`` running the pre-engine candidate loop."""

    def _enumerate_with(
        self, new: ClosedBitString
    ) -> list[CoMovementPattern]:
        c = self.constraints
        # Lemma 8 (length-corrected): the aligned window of a combination
        # must be able to hold K times.
        pool = sorted(
            (
                other
                for other in self._candidates
                if other.oid != new.oid
                and min(other.end, new.end) - max(other.start, new.start) + 1
                >= c.k
            ),
            key=lambda s: (s.oid, s.start),
        )
        emitted: list[CoMovementPattern] = []
        min_extra = c.m - 2  # members besides the new candidate (and anchor)
        if min_extra > len(pool):
            return emitted

        frontier: list[tuple[tuple[ClosedBitString, ...], int]] = []
        if min_extra == 0:
            sequences = self._sequences(new.bits, new.start)
            # A closed candidate is valid by construction; emit the pair
            # pattern {anchor, new} and use it as the growth seed.
            emitted.append(
                CoMovementPattern.of((self.anchor, new.oid), sequences[0])
            )
            frontier.append(((), -1))
        else:
            for seed_indices in combinations(range(len(pool)), min_extra):
                seed = tuple(pool[i] for i in seed_indices)
                if len({s.oid for s in seed}) != len(seed):
                    continue
                result = and_closed_strings([new, *seed])
                self.and_evaluations += 1
                if result is None:
                    continue
                bits, window_start = result
                sequences = self._sequences(bits, window_start)
                if sequences:
                    oids = (self.anchor, new.oid, *(s.oid for s in seed))
                    emitted.append(CoMovementPattern.of(oids, sequences[0]))
                    frontier.append((seed, seed_indices[-1]))

        while frontier:
            grown: list[tuple[tuple[ClosedBitString, ...], int]] = []
            for seed, last_index in frontier:
                used_oids = {s.oid for s in seed} | {new.oid}
                for index in range(last_index + 1, len(pool)):
                    extra = pool[index]
                    if extra.oid in used_oids:
                        continue
                    result = and_closed_strings([new, *seed, extra])
                    self.and_evaluations += 1
                    if result is None:
                        continue
                    bits, window_start = result
                    sequences = self._sequences(bits, window_start)
                    if sequences:
                        extended = seed + (extra,)
                        oids = (
                            self.anchor,
                            new.oid,
                            *(s.oid for s in extended),
                        )
                        emitted.append(
                            CoMovementPattern.of(oids, sequences[0])
                        )
                        grown.append((extended, index))
            frontier = grown
        return emitted


def reference_grow_window(anchor, start, candidate_bits, constraints, sequences_fn):
    """The pre-engine FBA loop behind ``growth.grow_window``'s signature."""
    return enumerate_window(anchor, start, candidate_bits, constraints, sequences_fn)


def reference_grow_candidate(anchor, new, candidates, constraints, sequences_fn):
    """The pre-engine VBA loop behind ``growth.grow_candidate``'s signature."""
    shell = ReferenceVBAEnumerator(anchor, constraints, sequences_fn=sequences_fn)
    shell._candidates = list(candidates)
    emitted = shell._enumerate_with(new)
    return emitted, shell.and_evaluations
