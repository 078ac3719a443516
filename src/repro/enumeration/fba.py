"""FBA — Fixed-length Bit Compression based Algorithm (Section 6.2, Alg. 4).

Per eta-window starting at each time ``t`` with a non-empty partition:

1. every trajectory of ``P_t(o)`` gets an eta-length bit string recording
   its co-clustering with the anchor over the window (Definition 13);
2. the *candidate set* C keeps only trajectories whose own bit string
   satisfies (K, L, G) — a superset filter justified by AND-monotonicity;
3. patterns are enumerated apriori-style directly from cardinality M - 1
   (combinations of C), growing each valid pattern by candidates with a
   larger id; bit strings are combined with bitwise AND.  The growth
   loop is :func:`repro.enumeration.growth.grow_window` — the engine VBA
   shares; a window's strings already sit in one frame, so FBA is its
   special case without alignment.  In front of it sits the anchor's
   :class:`~repro.enumeration.growth.WindowCover`: consecutive windows
   overlap in eta - 1 snapshots, so a window whose candidate set lies
   inside one this anchor already enumerated completely (its window
   emitted the anchor plus every candidate) is skipped — every pattern
   it could emit was emitted there first.  This step is beyond the
   paper and leaves the collected result and its order unchanged.

Storage per window is O(eta * |P|) instead of BA's O(2^|P|); enumeration
touches only candidate combinations whose every prefix is valid.
"""

from __future__ import annotations

from repro.enumeration.base import AnchorEnumerator
from repro.enumeration.bitstring import valid_sequences_of_bits
from repro.enumeration.growth import WindowCover, grow_window
from repro.model.constraints import PatternConstraints
from repro.model.pattern import CoMovementPattern


class FBAEnumerator(AnchorEnumerator):
    """Sliding-window enumeration over fixed-length bit strings."""

    def __init__(self, anchor: int, constraints: PatternConstraints):
        super().__init__(anchor, constraints)
        self._sequences = lambda bits, start: valid_sequences_of_bits(
            bits, start, constraints.k, constraints.l, constraints.g
        )
        self._window: dict[int, frozenset[int]] = {}
        self._pending_starts: list[int] = []
        self._last_time: int | None = None
        self._cover = WindowCover()
        # Work counters for the benchmark harness and the bit-compression
        # ablation: candidate bit strings built, AND evaluations performed.
        self.bitstrings_built = 0
        self.and_evaluations = 0

    def on_partition(
        self, time: int, members: frozenset[int]
    ) -> list[CoMovementPattern]:
        """Consume ``P_time(anchor)``; run windows that completed (Algorithm 4)."""
        if self._last_time is not None and time <= self._last_time:
            raise ValueError(
                f"times must increase: got {time} after {self._last_time}"
            )
        self._last_time = time
        if members:
            self._window[time] = members
            self._pending_starts.append(time)
        eta = self.constraints.eta
        emitted: list[CoMovementPattern] = []
        while self._pending_starts and self._pending_starts[0] + eta - 1 <= time:
            start = self._pending_starts.pop(0)
            emitted.extend(self._run_window(start))
        self._evict(time)
        if not self._pending_starts:
            self._cover.discard(self.anchor)
        return emitted

    def finish(self) -> list[CoMovementPattern]:
        """Flush pending windows at end of stream."""
        emitted: list[CoMovementPattern] = []
        while self._pending_starts:
            emitted.extend(self._run_window(self._pending_starts.pop(0)))
        self._window.clear()
        self._cover.discard(self.anchor)
        return emitted

    def is_idle(self) -> bool:
        """True when no window is pending."""
        return not self._pending_starts

    def protected_oids(self) -> frozenset[int]:
        """Anchor plus every member of a still-open eta-window.

        While windows are pending, any retained partition member may
        yet complete a pattern, so all of them (and the anchor itself)
        are protected from shedding; once every window has run the
        anchor holds no partial matches and reports nothing.
        """
        if not self._pending_starts:
            return frozenset()
        members: set[int] = {self.anchor}
        for partition in self._window.values():
            members.update(partition)
        return frozenset(members)

    def forming_candidates(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Descriptors for every member of a still-open eta-window.

        For each pending window start ``s`` and each member of the base
        partition ``P_s``, reports the member's trailing run of
        consecutive co-clustered snapshots ending at the last processed
        time, and how many snapshots the window can still absorb
        (``s + eta - 1 - now``).  Side-effect free: bit probes here do
        not touch the ``bitstrings_built`` work counter.
        """
        if not self._pending_starts or self._last_time is None:
            return ()
        eta = self.constraints.eta
        now = self._last_time
        out: list[tuple[int, int, int, int, int]] = []
        for start in self._pending_starts:
            base = self._window.get(start)
            if not base:
                continue
            observed = min(now, start + eta - 1)
            remaining = max(0, start + eta - 1 - now)
            for oid in sorted(base):
                ones = 0
                for t in range(observed, start - 1, -1):
                    partition = self._window.get(t)
                    if partition is not None and oid in partition:
                        ones += 1
                    else:
                        break
                out.append((self.anchor, oid, start, ones, remaining))
        return tuple(out)

    def snapshot_state(self) -> dict:
        """Window contents, pending starts, cover and work counters."""
        return {
            "window": {
                t: tuple(sorted(self._window[t])) for t in sorted(self._window)
            },
            "pending_starts": list(self._pending_starts),
            "last_time": self._last_time,
            "cover": self._cover.snapshot_state(),
            "bitstrings_built": self.bitstrings_built,
            "and_evaluations": self.and_evaluations,
        }

    def restore_state(self, payload: dict) -> None:
        """Adopt a payload produced by :meth:`snapshot_state`.

        Payloads written before the window cover existed restore with an
        empty one: the next windows are grown in full and re-record it.
        """
        self._window = {
            t: frozenset(members) for t, members in payload["window"].items()
        }
        self._pending_starts = list(payload["pending_starts"])
        self._last_time = payload["last_time"]
        self._cover.restore_state(payload.get("cover", {}))
        self.bitstrings_built = payload["bitstrings_built"]
        self.and_evaluations = payload["and_evaluations"]

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting: window entries, pending starts, cover sets."""
        return {
            "window_entries": len(self._window),
            "pending_windows": len(self._pending_starts),
            "cover_sets": len(self._cover),
        }

    def _evict(self, now: int) -> None:
        if not self._pending_starts:
            horizon = now - self.constraints.eta + 1
        else:
            horizon = self._pending_starts[0]
        for t in [t for t in self._window if t < horizon]:
            del self._window[t]

    def _build_bits(self, oid: int, start: int) -> int:
        """Definition 13 bit string of ``oid`` over ``[start, start+eta)``."""
        bits = 0
        for offset in range(self.constraints.eta):
            partition = self._window.get(start + offset)
            if partition and oid in partition:
                bits |= 1 << offset
        self.bitstrings_built += 1
        return bits

    def _run_window(self, start: int) -> list[CoMovementPattern]:
        base = self._window.get(start)
        if not base or self._cover.covers(self.anchor, base):
            return []
        # Lines 2-8: bit strings, then the (K, L, G) candidate filter.
        candidate_bits: dict[int, int] = {}
        for oid in sorted(base):
            bits = self._build_bits(oid, start)
            if self._sequences(bits, start):
                candidate_bits[oid] = bits
        if self._cover.covers(self.anchor, candidate_bits):
            return []
        # Lines 9-17: seed at |O| = M - 1, grow valid patterns by candidates
        # with a strictly larger id (the Apriori Enumerator ordering).
        emitted, and_evaluations = grow_window(
            self.anchor, start, candidate_bits, self.constraints, self._sequences
        )
        self._cover.record(self.anchor, candidate_bits, emitted)
        self.and_evaluations += and_evaluations
        return emitted
