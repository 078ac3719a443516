"""VBA — Variable-length Bit Compression based Algorithm (Section 6.3).

One variable-length bit string per trajectory per subtask, over *all*
times (Definition 14).  A string closes when G + 1 trailing zeros make any
extension impossible (Lemma 7); closed strings containing a valid
(K, L, G) sequence become candidates with maximal pattern time sequences
(Definition 15).  Each new candidate is enumerated against the global
candidate list, pruning combinations whose aligned window cannot hold K
times (Lemma 8).  Every snapshot is verified exactly once — the
latency-for-throughput trade the paper describes.

This module owns the per-anchor state (open strings, the candidate list,
retention); the Lemma-8 pool and the combination growth of each new
candidate are :func:`repro.enumeration.growth.grow_candidate`, the engine
FBA shares.

Two documented deviations from the paper's pseudocode (Algorithm 5):

* line 18 prunes when ``min(et) - max(st) < K``; the window *length* is
  ``min(et) - max(st) + 1``, so the literal formula would discard patterns
  whose valid sequence exactly fills a K-long window.  We prune on window
  length, which is the sound variant.
* candidates that close in the same round are merged into C one by one
  while the round is processed; the literal pseudocode (merge after the
  whole round, line 21) would never enumerate combinations of two
  same-round candidates — e.g. a cluster dissolving at once would lose all
  its patterns.
"""

from __future__ import annotations

from typing import Sequence

from repro.enumeration.base import AnchorEnumerator
from repro.enumeration.bitstring import (
    CLOSED_INVALID,
    CLOSED_VALID,
    ClosedBitString,
    VariableBitString,
    valid_sequences_of_bits,
)
from repro.enumeration.growth import grow_candidate
from repro.model.constraints import PatternConstraints
from repro.model.pattern import CoMovementPattern


class VBAEnumerator(AnchorEnumerator):
    """Stateful per-anchor enumeration over variable-length bit strings."""

    def __init__(
        self,
        anchor: int,
        constraints: PatternConstraints,
        candidate_retention: int | None = None,
        sequences_fn=None,
    ):
        """``candidate_retention``: drop global candidates whose end time is
        more than this many time units in the past *and* that no future
        candidate can combine with (None = keep forever, the paper's
        semantics; see :meth:`evict` for the output-preservation
        argument).
        ``sequences_fn``: overrides the maximal-valid-sequence extraction
        used during enumeration (``(bits, start) -> sequences``, same
        contract as :func:`valid_sequences_of_bits` bound to the
        constraints); a memoized extractor is output-invariant because
        the decomposition is a pure function of ``(bits, start)``."""
        super().__init__(anchor, constraints)
        self.candidate_retention = candidate_retention
        if sequences_fn is None:
            sequences_fn = lambda bits, start: valid_sequences_of_bits(
                bits, start, constraints.k, constraints.l, constraints.g
            )
        self._sequences = sequences_fn
        self._open: dict[int, VariableBitString] = {}
        self._candidates: list[ClosedBitString] = []
        self._last_time: int | None = None
        # Work counters for the harness.
        self.candidates_created = 0
        self.and_evaluations = 0
        #: G-expired candidates dropped by the retention policy.
        self.candidates_evicted = 0

    def on_partition(
        self, time: int, members: frozenset[int]
    ) -> list[CoMovementPattern]:
        """Consume ``P_time(anchor)``: append bits, close strings, enumerate (Algorithm 5)."""
        if self._last_time is not None and time <= self._last_time:
            raise ValueError(
                f"times must increase: got {time} after {self._last_time}"
            )
        # Bit strings are positional: absent intermediate times are zeros.
        # Padding can itself close strings (Lemma 7 fires mid-gap), so the
        # closures it produces feed the same candidate round.
        closed: list = []
        if self._last_time is not None:
            for missing in range(self._last_time + 1, time):
                closed.extend(self._append_all(missing, frozenset()))
        self._last_time = time
        closed.extend(self._append_all(time, members))
        return self.enumerate_candidates(time, closed)

    def finish(self) -> list[CoMovementPattern]:
        """Force-close every open string and enumerate the late candidates."""
        c = self.constraints
        closed: list[ClosedBitString] = []
        for oid in sorted(self._open):
            string = self._open[oid]
            if string.bits and valid_sequences_of_bits(
                string.bits, string.start, c.k, c.l, c.g
            ):
                closed.append(string.trimmed().with_oid(oid))
        self._open.clear()
        return self.enumerate_closed(closed)

    def enumerate_closed(
        self, fresh: list[ClosedBitString]
    ) -> list[CoMovementPattern]:
        """One candidate round (lines 15-21) without retention pruning,
        as :meth:`finish` runs it."""
        return self._process_candidates(fresh)

    def enumerate_candidates(
        self, time: int, fresh: list[ClosedBitString]
    ) -> list[CoMovementPattern]:
        """One full per-time candidate round: enumerate, then :meth:`evict`.

        Equivalent to the tail of :meth:`on_partition` at ``time``:
        enumerate the fresh candidates against the global list, merge
        them, and (when ``candidate_retention`` is set) evict candidates
        whose end time fell behind the horizon — pruning runs *after* the
        round, so the enumeration pool matches the paper's semantics.
        """
        emitted = self._process_candidates(fresh)
        self.evict(time)
        return emitted

    def evict(self, time: int, earliest_open_start: int | None = None) -> None:
        """The retention half of a round at ``time`` (a no-op without
        ``candidate_retention``).

        Eviction is *output-preserving*: besides being older than the
        horizon, a candidate is only dropped when no future candidate
        can combine with it under Lemma 8.  Every future closed string
        starts at or after the earliest currently-open string (strings
        opened later start later), so a candidate whose end cannot
        overlap that start by K times is provably dead — the retention
        knob bounds memory without ever dropping a confirmable pattern.

        ``earliest_open_start`` lets the numpy kernel, which keeps open
        strings outside this object, supply that bound; by default it is
        read from ``self._open``.
        """
        if self.candidate_retention is None:
            return
        horizon = time - self.candidate_retention
        if earliest_open_start is None:
            earliest_open_start = min(
                (s.start for s in self._open.values()), default=time + 1
            )
        cutoff = min(horizon, earliest_open_start + self.constraints.k - 1)
        before = len(self._candidates)
        self._candidates = [c for c in self._candidates if c.end >= cutoff]
        self.candidates_evicted += before - len(self._candidates)

    @property
    def candidates(self) -> Sequence[ClosedBitString]:
        """The global candidate list C in merge order (read-only)."""
        return self._candidates

    def merge_round(
        self, fresh: Sequence[ClosedBitString], and_evaluations: int
    ) -> None:
        """Adopt a round grown outside this object.

        ``fresh`` is the round in ``(oid, start)`` order, each string
        grown against :attr:`candidates` plus the strings before it —
        what :meth:`enumerate_closed` would have grown; it joins C and
        its AND count joins the work counter.  The numpy kernel's
        vectorised pass grows a whole snapshot's rounds at once and
        merges them here.
        """
        self._candidates.extend(fresh)
        self.and_evaluations += and_evaluations

    def is_idle(self) -> bool:
        """No open strings: zero-appends (even across a gap) are no-ops.

        ``on_partition`` pads skipped times with zeros for *open* strings
        only, so an idle VBA subtask can safely miss absence ticks — the
        global candidate list is inert until a new candidate closes.
        """
        return not self._open

    def protected_oids(self) -> frozenset[int]:
        """Anchor plus every object with an unclosed bit string.

        Open strings are the partial matches shedding must not starve:
        dropping a record for an open oid would flip a co-clustering
        bit to zero and could close (or invalidate) a string that was
        on its way to candidacy.  With no open strings the global
        candidate list is inert and nothing needs protection.
        """
        if not self._open:
            return frozenset()
        return frozenset({self.anchor, *self._open})

    def forming_candidates(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Descriptors for every unclosed variable-length bit string.

        ``ones`` is the string's trailing run of consecutive
        co-clustered snapshots (zero the moment a gap opens);
        ``remaining`` is ``-1`` — a variable-length string has no
        horizon until Lemma 7 closes it.
        """
        out: list[tuple[int, int, int, int, int]] = []
        for oid in sorted(self._open):
            string = self._open[oid]
            if string.trailing_zeros or not string.length:
                ones = 0
            else:
                ones = 0
                for position in range(string.length - 1, -1, -1):
                    if string.bits >> position & 1:
                        ones += 1
                    else:
                        break
            out.append((self.anchor, oid, string.start, ones, -1))
        return tuple(out)

    def snapshot_state(self) -> dict:
        """Open strings, closed candidates and counters as plain data.

        Bit strings are Python ints, so multi-word (> 64 time) strings
        serialise exactly; closed candidates round-trip as
        ``(oid, start, end, bits)`` tuples.
        """
        return {
            "open": {
                oid: (s.start, s.bits, s.length, s.trailing_zeros)
                for oid, s in sorted(self._open.items())
            },
            "candidates": [
                (c.oid, c.start, c.end, c.bits) for c in self._candidates
            ],
            "last_time": self._last_time,
            "candidates_created": self.candidates_created,
            "and_evaluations": self.and_evaluations,
            "candidates_evicted": self.candidates_evicted,
        }

    def restore_state(self, payload: dict) -> None:
        """Adopt a payload produced by :meth:`snapshot_state`."""
        self._open = {
            oid: VariableBitString(
                start=start, bits=bits, length=length, trailing_zeros=tz
            )
            for oid, (start, bits, length, tz) in payload["open"].items()
        }
        self._candidates = [
            ClosedBitString(oid=oid, start=start, end=end, bits=bits)
            for oid, start, end, bits in payload["candidates"]
        ]
        self._last_time = payload["last_time"]
        self.candidates_created = payload["candidates_created"]
        self.and_evaluations = payload["and_evaluations"]
        self.candidates_evicted = payload["candidates_evicted"]

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting: open strings, candidate pool, evictions."""
        return {
            "open_strings": len(self._open),
            "candidates": len(self._candidates),
            "candidates_evicted": self.candidates_evicted,
        }

    # ------------------------------------------------------------------ state

    def _append_all(
        self, time: int, members: frozenset[int]
    ) -> list[ClosedBitString]:
        """Lines 2-14 of Algorithm 5 for one time step."""
        c = self.constraints
        closed: list[ClosedBitString] = []
        leftover = set(members)
        for oid in list(self._open):
            string = self._open[oid]
            present = oid in leftover
            if present:
                leftover.discard(oid)
            string.append(present)
            tag = string.status(c.k, c.l, c.g)
            if tag == CLOSED_VALID:
                closed.append(string.trimmed().with_oid(oid))
                self.candidates_created += 1
                del self._open[oid]
            elif tag == CLOSED_INVALID:
                del self._open[oid]
        for oid in leftover:
            self._open[oid] = VariableBitString.opened_at(time)
        return closed

    # ------------------------------------------------------------ enumeration

    def _process_candidates(
        self, fresh: list[ClosedBitString]
    ) -> list[CoMovementPattern]:
        """Lines 15-21: enumerate each fresh candidate against C, then merge.

        Fresh candidates are merged one at a time so that same-round pairs
        are still enumerated (see the module docstring).
        """
        emitted: list[CoMovementPattern] = []
        for candidate in sorted(fresh, key=lambda s: (s.oid, s.start)):
            patterns, and_evaluations = grow_candidate(
                self.anchor,
                candidate,
                self._candidates,
                self.constraints,
                self._sequences,
            )
            self.and_evaluations += and_evaluations
            emitted.extend(patterns)
            self._candidates.append(candidate)
        return emitted
