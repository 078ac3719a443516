"""The apriori growth engine shared by FBA and VBA (Section 6.2-6.3).

Both bit-compression algorithms grow patterns the same way: seed every
combination of the minimum cardinality, keep the ones whose ANDed bit
string still holds a valid (K, L, G) sequence, and extend each survivor
by pool entries that come later in the pool (Algorithm 4 lines 9-17,
Algorithm 5 lines 15-21).  :func:`grow` is that loop, once, for both
algorithms and both kernels, except the numpy kernel's VBA growth, which
runs its own vectorised pass held to :func:`grow` pool for pool.

*Frame alignment.*  Every pool string is expressed in one frame: bit
``j`` means time ``start + j``.  FBA's Definition-13 strings share their
window's frame already (:func:`grow_window`).  VBA's closed strings each
carry their own start, so :func:`grow_candidate` shifts each Lemma-8 pool
string once into the new candidate's frame.  A closed string has no set
bit outside its own ``[start, end]``, so the plain ``&`` of frame-aligned
ints has exactly the time set of the AND over the aligned overlap window
``[max start, min end]``, and the Definition-15 decomposition is a
function of the time set alone.

*Incremental frontier.*  A frontier entry carries the pattern's object
tuple, its ANDed bits and the pool index of its last member, so an
extension is one ``&``, one zero test and one ``sequences_fn`` lookup —
never a rebuild from the combination's members.

*Lookup frame.*  ``sequences_fn`` is asked in the frame of the
combination's own window start (its latest-starting member), not the
candidate's: combinations grown from different candidates of one convoy
share windows, so they share one memoized decomposition — and the
patterns that reach the collector and a checkpoint share one
``TimeSequence`` object instead of equal copies.

*Order is observable.*  :class:`~repro.enumeration.base.PatternCollector`
keeps the first emission per object set, and a VBA pool can hold two
strings of one oid, so emission order decides which witness times reach
the result.  The order is: seeds in :func:`itertools.combinations` order,
then frontier order x ascending pool index, level by level.
``and_evaluations`` counts every combination whose AND is evaluated
(same-oid combinations are skipped uncounted).  The numpy kernel's VBA
pass (:func:`repro.enumeration.kernels.numpy_kernel.grow_round`)
reproduces this order and count independently, so ``grow`` is also the
specification that pass is tested against.

*Window cover.*  Consecutive FBA windows of one anchor overlap in
``eta - 1`` snapshots, so a lasting convoy presents the same candidate
set window after window.  :class:`WindowCover` sits in front of
:func:`grow_window` in both FBA paths and skips a window whose candidate
set lies inside one the anchor already enumerated completely — growth
there could only repeat emissions the collector has already kept.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

from repro.enumeration.bitstring import ClosedBitString
from repro.model.constraints import PatternConstraints
from repro.model.pattern import CoMovementPattern
from repro.model.timeseq import TimeSequence

#: ``(bits, start) -> maximal valid sequences`` — the extraction hook the
#: batched kernels use to memoize decompositions of repeated bit strings.
SequencesFn = Callable[[int, int], "list[TimeSequence]"]


def grow(
    fixed: tuple[int, ...],
    pool_oids: Sequence[int],
    pool_bits: Sequence[int],
    pool_offsets: Sequence[int],
    base_bits: int,
    seed_size: int,
    start: int,
    sequences_fn: SequencesFn,
) -> tuple[list[CoMovementPattern], int]:
    """Apriori growth over one frame-aligned pool.

    Args:
        fixed: ascending oids every emitted pattern contains (the anchor;
            VBA adds the new candidate's oid).  Disjoint from the pool.
        pool_oids: owner of each pool entry, non-decreasing (equal oids —
            two closed strings of one trajectory — are adjacent).
        pool_bits: each entry's bit string in the frame of ``start``.
        pool_offsets: how far after ``start`` each entry's own string
            starts (0 when it starts at or before it).
        base_bits: ANDed into every combination (``-1`` for none).
        seed_size: pool entries per seed combination; 0 emits ``fixed``
            itself (valid by construction) and grows from it.
        start: time of bit 0.
        sequences_fn: Definition-15 extraction, bound to the constraints.

    Returns:
        ``(patterns, and_evaluations)`` in emission order.
    """
    pattern = CoMovementPattern._from_sorted
    n = len(pool_oids)
    emitted: list[CoMovementPattern] = []
    evaluations = 0
    # Entries: (pattern objects, ANDed bits, pool index of the last member,
    # offset of the combination's window start).
    frontier: list[tuple[tuple[int, ...], int, int, int]] = []
    if seed_size == 0:
        emitted.append(pattern(fixed, sequences_fn(base_bits, start)[0]))
        frontier.append((fixed, base_bits, -1, 0))
    else:
        repeated_oids = len(set(pool_oids)) != n
        for seed in combinations(range(n), seed_size):
            if repeated_oids and any(
                pool_oids[a] == pool_oids[b] for a, b in zip(seed, seed[1:])
            ):
                continue
            evaluations += 1
            bits = base_bits
            for index in seed:
                bits &= pool_bits[index]
            if not bits:
                continue
            offset = max([pool_offsets[index] for index in seed])
            sequences = sequences_fn(bits >> offset, start + offset)
            if sequences:
                members = tuple([pool_oids[index] for index in seed])
                if fixed[-1] < members[0]:
                    objects = fixed + members
                else:
                    objects = tuple(sorted(fixed + members))
                emitted.append(pattern(objects, sequences[0]))
                frontier.append((objects, bits, seed[-1], offset))
    while frontier:
        grown: list[tuple[tuple[int, ...], int, int, int]] = []
        for objects, bits, last, offset in frontier:
            # The pool ascends by oid and excludes ``fixed``, so the only
            # oid an extension could repeat is the last member's.
            first = last + 1
            if last >= 0:
                last_oid = pool_oids[last]
                while first < n and pool_oids[first] == last_oid:
                    first += 1
            evaluations += n - first
            top = objects[-1]
            for index in range(first, n):
                combined = bits & pool_bits[index]
                if not combined:
                    continue
                shift = pool_offsets[index]
                if shift < offset:
                    shift = offset
                sequences = sequences_fn(combined >> shift, start + shift)
                if sequences:
                    oid = pool_oids[index]
                    if oid > top:
                        extended = objects + (oid,)
                    else:
                        at = bisect_right(objects, oid)
                        extended = objects[:at] + (oid,) + objects[at:]
                    emitted.append(pattern(extended, sequences[0]))
                    grown.append((extended, combined, index, shift))
        frontier = grown
    return emitted, evaluations


def grow_window(
    anchor: int,
    start: int,
    candidate_bits: dict[int, int],
    constraints: PatternConstraints,
    sequences_fn: SequencesFn,
) -> tuple[list[CoMovementPattern], int]:
    """Algorithm 4, lines 9-17: growth over one window's candidate set.

    ``candidate_bits`` maps each candidate oid (the anchor excluded) to
    its already validated Definition-13 bit string anchored at ``start``.
    Patterns are seeded at cardinality M - 1 and grown by candidates with
    a strictly larger id; every valid combination is emitted with the
    anchor included.
    """
    oids = sorted(candidate_bits)
    return grow(
        (anchor,),
        oids,
        [candidate_bits[oid] for oid in oids],
        [0] * len(oids),
        -1,
        constraints.m - 1,
        start,
        sequences_fn,
    )


class WindowCover:
    """Per-anchor candidate sets whose FBA window emitted every pattern.

    The rule: before growing anchor ``a``'s window over candidate set
    ``C``, skip it if ``C <= E`` for a set ``E`` recorded here.  ``E`` is
    recorded when a window over exactly ``E`` emitted ``{a} | E`` itself.
    That emission means ``AND(E)`` held a valid sequence, so every subset
    of ``{a} | E`` that contains ``a`` and has at least M objects did too
    (AND-monotonicity, the property apriori pruning rests on); every
    member was a candidate there, and growth is complete over the
    candidates, so that earlier window emitted all of them.  A window
    over ``C <= E`` can only emit such subsets again, and
    :class:`~repro.enumeration.base.PatternCollector` keeps the first
    emission per object set, so skipping it changes neither the result
    nor the order of fresh patterns.

    Recorded sets per anchor form an antichain (a new set replaces those
    it contains).  The owner drops an anchor's sets via :meth:`discard`
    once the anchor has no pending window, which bounds the cover by the
    live anchors; both FBA paths apply that same eviction point, so their
    raw per-anchor emissions stay identical.
    """

    __slots__ = ("_sets",)

    def __init__(self) -> None:
        self._sets: dict[int, list[frozenset[int]]] = {}

    def covers(self, anchor: int, oids: Iterable[int]) -> bool:
        """Whether ``oids`` (the anchor excluded) lie inside a recorded set.

        Asked of a window's candidates this is the rule.  Asked first of
        the window's base partition — a superset of its candidates — a
        yes settles the rule before any bit string is built.
        """
        for covered in self._sets.get(anchor, ()):
            if covered.issuperset(oids):
                return True
        return False

    def record(
        self,
        anchor: int,
        candidates: Collection[int],
        emitted: Sequence[CoMovementPattern],
    ) -> None:
        """Remember ``candidates`` if their window emitted ``{anchor} | candidates``.

        Growth is level by level, so that set — the only one of its size —
        is emitted last when it is emitted at all.
        """
        if not emitted or len(emitted[-1].objects) != len(candidates) + 1:
            return
        new = frozenset(candidates)
        kept = [s for s in self._sets.get(anchor, ()) if not s <= new]
        kept.append(new)
        self._sets[anchor] = kept

    def discard(self, anchor: int) -> None:
        """Forget ``anchor``'s sets (it has no pending window left)."""
        self._sets.pop(anchor, None)

    def __len__(self) -> int:
        return sum(len(sets) for sets in self._sets.values())

    def snapshot_state(self) -> dict[int, list[tuple[int, ...]]]:
        """Recorded sets as sorted tuples, anchors ascending."""
        return {
            anchor: [tuple(sorted(s)) for s in self._sets[anchor]]
            for anchor in sorted(self._sets)
        }

    def restore_state(self, payload: dict[int, list[tuple[int, ...]]]) -> None:
        """Adopt a payload produced by :meth:`snapshot_state`."""
        self._sets = {
            anchor: [frozenset(s) for s in sets]
            for anchor, sets in payload.items()
        }


class CandidatePool(NamedTuple):
    """One VBA growth's inputs: the arguments :func:`grow` takes for a new
    closed candidate, less the seed size and the extraction hook."""

    fixed: tuple[int, ...]
    oids: list[int]
    bits: list[int]
    offsets: list[int]
    base_bits: int
    start: int


def candidate_pool(
    anchor: int,
    new: ClosedBitString,
    candidates: Iterable[ClosedBitString],
    k: int,
) -> CandidatePool:
    """Algorithm 5, line 18: the frame-aligned pool of one new candidate.

    The pool is the global candidate list after Lemma 8 (length-corrected:
    the window a string shares with ``new`` must be able to hold K times),
    ordered by ``(oid, start)`` and shifted into ``new``'s frame.
    """
    origin, end, oid = new.start, new.end, new.oid
    pool = sorted(
        (
            other
            for other in candidates
            if other.oid != oid
            and min(other.end, end) - max(other.start, origin) + 1 >= k
        ),
        key=lambda s: (s.oid, s.start),
    )
    return CandidatePool(
        (anchor, oid) if anchor < oid else (oid, anchor),
        [s.oid for s in pool],
        [
            s.bits << (s.start - origin)
            if s.start > origin
            else s.bits >> (origin - s.start)
            for s in pool
        ],
        [max(s.start - origin, 0) for s in pool],
        new.bits,
        origin,
    )


def grow_candidate(
    anchor: int,
    new: ClosedBitString,
    candidates: Sequence[ClosedBitString],
    constraints: PatternConstraints,
    sequences_fn: SequencesFn,
) -> tuple[list[CoMovementPattern], int]:
    """Algorithm 5, lines 15-21: growth of one new closed candidate.

    Seeds take M - 2 strings of :func:`candidate_pool` besides ``new``
    and the anchor.
    """
    return grow_pool(
        candidate_pool(anchor, new, candidates, constraints.k),
        constraints.m - 2,
        sequences_fn,
    )


def grow_pool(
    pool: CandidatePool, seed_size: int, sequences_fn: SequencesFn
) -> tuple[list[CoMovementPattern], int]:
    """:func:`grow` over one :class:`CandidatePool`."""
    return grow(
        pool.fixed,
        pool.oids,
        pool.bits,
        pool.offsets,
        pool.base_bits,
        seed_size,
        pool.start,
        sequences_fn,
    )
