"""NumPy-vectorized pattern enumeration (the ``numpy`` kernel strategy).

The per-anchor bit-string state machines of Section 6 (FBA's
Definition-13 windows, VBA's Definition-14 variable strings) spend most
of their time on membership bookkeeping: one Python dict probe per
(anchor, trajectory, time) to build a bit, one Python object walk per
string per time to append and check Lemma 7.  This kernel batches *all*
anchors hosted by one enumerate subtask into contiguous arrays:

1. **Pack** — each snapshot's partitions arrive as one
   :class:`~repro.model.batch.PartitionBatch`: a sorted int64 key array
   (``anchor << 32 | oid``) plus the sorted anchors, so every membership
   question becomes one :func:`numpy.searchsorted` probe.  The kernel
   clustering stage emits it that way; ``(anchor, members)`` pairs are
   packed on arrival by :meth:`~repro.model.batch.PartitionBatch.from_pairs`.
2. **Membership bitmaps** — bit strings live in a ``(rows, words)``
   uint64 matrix, one row per (anchor, trajectory) pair, bit ``j`` of
   the row covering time ``start + j`` (multi-word rows support windows
   and open strings longer than 64 times).
3. **FBA** — when windows complete, every due (anchor, member) row is
   built in one pass per window column, and a vectorized popcount
   screen (``popcount >= K`` is necessary for any valid sequence)
   discards non-candidates before the exact predicate runs.  Anchors
   the shared :class:`~repro.enumeration.growth.WindowCover` already
   covers are settled before their rows are built.
4. **VBA** — appends are one vectorized scatter per snapshot; the
   Lemma-7 closing condition (``G + 1`` trailing zeros) is one array
   compare; only rows that actually close are screened and exact-checked.
5. **Batched sequence extraction** — the Definition-15 decomposition of
   a bit string into maximal valid sequences is evaluated once per
   distinct ``(bits, start)`` across the whole batch
   (:class:`_SequenceCache`): co-moving groups make the combination
   growth re-derive the same ANDed strings tens of times, and the
   decomposition is a pure function, so memoization is output-invariant.

The emitted pattern stream is bit-for-bit identical to the reference
kernel: the vectorized layers only *build* bit strings and *screen*
candidates with necessary conditions — the exact validity predicate
(:func:`~repro.enumeration.bitstring.valid_sequences_of_bits`) and the
apriori growth engine (:mod:`repro.enumeration.growth` — called here as
:func:`~repro.enumeration.growth.grow_window` per FBA window, and by the
:class:`~repro.enumeration.vba.VBAEnumerator` shells' candidate rounds)
are the same code the reference path runs, in the same per-anchor
order.  Kernel equivalence therefore says nothing about the engine
itself; ``tests/enumeration/test_growth_engine.py`` holds it to the
retained pre-engine loops and to a brute-force oracle instead.
"""

from __future__ import annotations

import numpy as np

from repro.enumeration.bitstring import ClosedBitString, valid_sequences_of_bits
from repro.enumeration.growth import WindowCover, grow_window
from repro.enumeration.kernels.base import EnumerationKernel, Partitions
from repro.enumeration.vba import VBAEnumerator
from repro.model.batch import PartitionBatch
from repro.model.constraints import PatternConstraints
from repro.model.pattern import CoMovementPattern

#: Enumerators with a batched bitmap form.  BA has none: it materialises
#: explicit subsets instead of per-trajectory bit strings, so there is
#: nothing column-shaped to vectorize.
BITMAP_ENUMERATORS = ("fba", "vba")


def _isin_sorted(sorted_keys, queries):
    """Boolean membership of ``queries`` in an ascending key array."""
    if sorted_keys.size == 0:
        return np.zeros(queries.shape, dtype=bool)
    pos = np.searchsorted(sorted_keys, queries)
    pos = np.minimum(pos, sorted_keys.size - 1)
    return sorted_keys[pos] == queries


def _popcount_rows(words):
    """Set-bit count per row of a uint64 word matrix."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def _words_to_int(row) -> int:
    """One bitmap row (little-endian uint64 words) as a Python int."""
    return int.from_bytes(row.astype("<u8").tobytes(), "little")


class _SequenceCache:
    """Memoized maximal-valid-sequence extraction for a batch of anchors.

    The combination growth evaluates the same ANDed bit strings over and
    over — co-moving groups produce near-identical membership strings, so
    one subtask's windows routinely repeat a few hundred distinct values
    tens of times each.  The decomposition into maximal valid sequences
    (Definition 15) is a pure function of ``(bits, start)``, so caching
    it is output-invariant; the returned lists are treated as immutable
    by every caller.  A size cap bounds memory on unbounded streams (the
    cache resets wholesale — repeated values repopulate it immediately).
    """

    def __init__(self, constraints: PatternConstraints, max_entries: int = 1 << 16):
        self._constraints = constraints
        self._max_entries = max_entries
        self._cache: dict[tuple[int, int], list] = {}
        self.calls = 0
        self.misses = 0

    def __call__(self, bits: int, start: int) -> list:
        self.calls += 1
        key = (bits, start)
        hit = self._cache.get(key)
        if hit is None:
            if len(self._cache) >= self._max_entries:
                self._cache.clear()
            c = self._constraints
            self.misses += 1
            hit = self._cache[key] = valid_sequences_of_bits(
                bits, start, c.k, c.l, c.g
            )
        return hit


def _summed(rests: list[dict], counter: str, primary: bool) -> int:
    """A work counter for a re-joined payload: the total on subtask 0."""
    return sum(rest[counter] for rest in rests) if primary else 0


# ------------------------------------------------------------------ FBA batch


class _FBAWindows:
    """Batched Definition-13 windows for every anchor of one subtask.

    Mirrors :class:`~repro.enumeration.fba.FBAEnumerator` semantics: a
    non-empty partition at time ``s`` opens the window ``[s, s + eta)``
    for its anchor, the window runs once time reaches ``s + eta - 1``,
    and enumeration sees exactly the candidate bit strings the reference
    builds — here built column-wise for all due anchors at once.
    """

    def __init__(
        self, constraints: PatternConstraints, sequences_fn: _SequenceCache
    ):
        self.constraints = constraints
        self.sequences_fn = sequences_fn
        self.eta = constraints.eta
        self.words = (self.eta + 63) // 64
        #: time -> sorted packed (anchor, oid) keys of that snapshot.
        self._time_keys: dict[int, "np.ndarray"] = {}
        #: window start -> [(anchor, sorted member oids)], insertion order.
        self._pending: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        #: anchor -> its pending windows; an anchor leaves the cover when
        #: its count reaches zero, as an FBAEnumerator drops its own.
        self._open: dict[int, int] = {}
        self._cover = WindowCover()
        self.rows_built = 0
        self.and_evaluations = 0

    def on_snapshot(
        self, time: int, batch: PartitionBatch
    ) -> list[CoMovementPattern]:
        """Record the snapshot, run every window that completed."""
        if batch.keys.size:
            self._time_keys[time] = batch.keys
        entries = batch.member_runs()
        if entries:
            self._pending[time] = entries
            for anchor, _members in entries:
                self._open[anchor] = self._open.get(anchor, 0) + 1
        emitted: list[CoMovementPattern] = []
        for start in sorted(self._pending):
            if start + self.eta - 1 > time:
                break
            emitted.extend(self._run_start(start))
        # Every window starting at or before time - eta + 1 has run, so
        # no window reads keys that old: what remains is exactly the
        # keys of pending windows, however anchors share subtasks.
        horizon = min(self._pending) if self._pending else time - self.eta + 2
        for stale in [t for t in self._time_keys if t < horizon]:
            del self._time_keys[stale]
        return emitted

    def finish(self) -> list[CoMovementPattern]:
        """Run every still-pending window (bounded evaluation only)."""
        emitted: list[CoMovementPattern] = []
        for start in sorted(self._pending):
            emitted.extend(self._run_start(start))
        self._time_keys.clear()
        return emitted

    def protected_oids(self) -> frozenset[int]:
        """Anchors and members of every still-pending window.

        Mirrors :meth:`FBAEnumerator.protected_oids`: while windows are
        pending, the opening partitions (``_pending``) and every
        retained snapshot's packed keys (``_time_keys``) may yet
        complete a pattern; with nothing pending the batch holds no
        partial matches.
        """
        if not self._pending:
            return frozenset()
        protected: set[int] = set()
        for entries in self._pending.values():
            for anchor, members in entries:
                protected.add(anchor)
                protected.update(members)
        for keys in self._time_keys.values():
            protected.update(
                int(a) for a in np.unique(keys >> np.int64(32))
            )
            protected.update(
                int(o) for o in np.unique(keys & np.int64(0xFFFFFFFF))
            )
        return frozenset(protected)

    def forming_candidates(
        self, now: int
    ) -> tuple[tuple[int, int, int, int, int], ...]:
        """Descriptors of every member of a still-pending window.

        Mirrors :meth:`FBAEnumerator.forming_candidates` over the
        batched state: per pending start and opening-partition member,
        the trailing run of co-clustered snapshots ending at ``now``
        (probed against the retained packed key arrays) and the window
        slots still to come.
        """
        out: list[tuple[int, int, int, int, int]] = []
        for start in sorted(self._pending):
            observed = min(now, start + self.eta - 1)
            remaining = max(0, start + self.eta - 1 - now)
            for anchor, members in self._pending[start]:
                for oid in members:
                    row_key = np.array([(anchor << 32) | oid], dtype=np.int64)
                    ones = 0
                    for t in range(observed, start - 1, -1):
                        keys = self._time_keys.get(t)
                        if keys is not None and bool(
                            _isin_sorted(keys, row_key)[0]
                        ):
                            ones += 1
                        else:
                            break
                    out.append((anchor, oid, start, ones, remaining))
        return tuple(sorted(out))

    def snapshot_state(self) -> dict:
        """Key arrays as raw bytes plus pending windows, cover and counters."""
        return {
            "time_keys": {
                t: self._time_keys[t].tobytes()
                for t in sorted(self._time_keys)
            },
            "pending": {
                t: list(self._pending[t]) for t in sorted(self._pending)
            },
            "cover": self._cover.snapshot_state(),
            "rows_built": self.rows_built,
            "and_evaluations": self.and_evaluations,
        }

    def restore_state(self, payload: dict) -> None:
        """Adopt a payload produced by :meth:`snapshot_state` (one written
        before the window cover existed restores with an empty cover)."""
        self._time_keys = {
            t: np.frombuffer(data, dtype=np.int64).copy()
            for t, data in payload["time_keys"].items()
        }
        self._pending = {
            t: [
                (anchor, tuple(members))
                for anchor, members in entries
            ]
            for t, entries in payload["pending"].items()
        }
        self._open = {}
        for entries in self._pending.values():
            for anchor, _members in entries:
                self._open[anchor] = self._open.get(anchor, 0) + 1
        self._cover.restore_state(payload.get("cover", {}))
        self.rows_built = payload["rows_built"]
        self.and_evaluations = payload["and_evaluations"]

    @staticmethod
    def split_state(payload: dict) -> tuple[dict, dict[int, dict]]:
        """Per-anchor pieces of a :meth:`snapshot_state` payload.

        A piece holds the anchor's packed keys per time (a contiguous
        run of each sorted key array), its pending windows and its
        cover sets; the rest holds the work counters.
        """
        pieces: dict[int, dict] = {}

        def piece(anchor: int) -> dict:
            return pieces.setdefault(
                anchor, {"time_keys": {}, "pending": {}, "cover": []}
            )

        for t, data in payload["time_keys"].items():
            keys = np.frombuffer(data, dtype=np.int64)
            anchors = keys >> np.int64(32)
            cuts = np.flatnonzero(anchors[1:] != anchors[:-1]) + 1
            for run in np.split(keys, cuts):
                piece(int(run[0]) >> 32)["time_keys"][t] = run
        for t, entries in payload["pending"].items():
            for anchor, members in entries:
                piece(anchor)["pending"][t] = members
        for anchor, sets in payload.get("cover", {}).items():
            piece(anchor)["cover"] = sets
        rest = {
            "rows_built": payload["rows_built"],
            "and_evaluations": payload["and_evaluations"],
        }
        return rest, pieces

    @staticmethod
    def join_state(
        rests: list[dict], pieces: dict[int, dict], primary: bool
    ) -> dict:
        """One subtask's payload from the anchor pieces routed to it.

        Anchors join in ascending order, so each time's concatenated
        keys stay sorted and each start's pending entries keep the
        cluster stage's anchor order.
        """
        time_keys: dict[int, list] = {}
        pending: dict[int, list] = {}
        cover: dict[int, list] = {}
        for anchor in sorted(pieces):
            share = pieces[anchor]
            for t, keys in share["time_keys"].items():
                time_keys.setdefault(t, []).append(keys)
            for t, members in share["pending"].items():
                pending.setdefault(t, []).append((anchor, tuple(members)))
            if share["cover"]:
                cover[anchor] = share["cover"]
        return {
            "time_keys": {
                t: np.concatenate(time_keys[t]).tobytes()
                for t in sorted(time_keys)
            },
            "pending": {t: pending[t] for t in sorted(pending)},
            "cover": cover,
            "rows_built": _summed(rests, "rows_built", primary),
            "and_evaluations": _summed(rests, "and_evaluations", primary),
        }

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting: key snapshots, pending windows, cover sets."""
        return {
            "window_entries": len(self._time_keys),
            "pending_windows": len(self._pending),
            "cover_sets": len(self._cover),
        }

    def _run_start(self, start: int) -> list[CoMovementPattern]:
        """Build all bitmaps of one window start; screen; enumerate.

        An anchor whose base partition the cover already holds is settled
        before its rows are built: its candidates are a subset of it.
        """
        cover = self._cover
        entries = []
        for anchor, members in self._pending.pop(start):
            if cover.covers(anchor, members):
                self._window_done(anchor)
            else:
                entries.append((anchor, members))
        if not entries:
            return []
        sizes = [len(members) for _, members in entries]
        anchors = np.repeat(
            np.array([anchor for anchor, _ in entries], dtype=np.int64), sizes
        )
        oids = np.array(
            [oid for _, members in entries for oid in members], dtype=np.int64
        )
        row_keys = (anchors << np.int64(32)) | oids
        n = row_keys.size
        bits = np.zeros((n, self.words), dtype=np.uint64)
        for offset in range(self.eta):
            keys = self._time_keys.get(start + offset)
            if keys is None:
                continue
            present = _isin_sorted(keys, row_keys)
            if present.any():
                bits[present, offset >> 6] |= np.uint64(1 << (offset & 63))
        self.rows_built += n
        c = self.constraints
        survivor = _popcount_rows(bits) >= c.k  # necessary for validity

        emitted: list[CoMovementPattern] = []
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        for index, (anchor, _members) in enumerate(entries):
            candidate_bits: dict[int, int] = {}
            for row in range(int(bounds[index]), int(bounds[index + 1])):
                if not survivor[row]:
                    continue
                value = _words_to_int(bits[row])
                if self.sequences_fn(value, start):
                    candidate_bits[int(oids[row])] = value
            if not cover.covers(anchor, candidate_bits):
                patterns, ands = grow_window(
                    anchor, start, candidate_bits, c, self.sequences_fn
                )
                cover.record(anchor, candidate_bits, patterns)
                self.and_evaluations += ands
                emitted.extend(patterns)
            self._window_done(anchor)
        return emitted

    def _window_done(self, anchor: int) -> None:
        """Count one of ``anchor``'s windows run; with none left pending,
        drop its cover — the point where an FBAEnumerator drops its own."""
        left = self._open[anchor] - 1
        if left:
            self._open[anchor] = left
        else:
            del self._open[anchor]
            self._cover.discard(anchor)


# ------------------------------------------------------------------ VBA batch


class _VBAStrings:
    """Batched Definition-14 variable strings for one subtask's anchors.

    Open strings across *all* anchors live in parallel arrays (packed
    key, start, length, trailing zeros) plus one uint64 bitmap matrix
    whose word count grows with the longest open string.  Appends,
    Lemma-7 closing and new-string opening are single vectorized passes
    per time step; each closed-and-valid string feeds the per-anchor
    candidate round of a plain :class:`VBAEnumerator` shell, whose
    global candidate list and Lemma-8 combination growth are exactly
    the reference code path.
    """

    def __init__(
        self,
        constraints: PatternConstraints,
        sequences_fn: _SequenceCache,
        candidate_retention: int | None = None,
    ):
        self.constraints = constraints
        self.sequences_fn = sequences_fn
        self.candidate_retention = candidate_retention
        self._keys = np.empty(0, dtype=np.int64)
        self._start = np.empty(0, dtype=np.int64)
        self._length = np.empty(0, dtype=np.int64)
        self._tz = np.empty(0, dtype=np.int64)
        self._bits = np.empty((0, 1), dtype=np.uint64)
        self._shells: dict[int, VBAEnumerator] = {}
        self._last_time: int | None = None
        self.candidates_created = 0

    @property
    def and_evaluations(self) -> int:
        """AND combinations evaluated across every anchor's shell."""
        return sum(shell.and_evaluations for shell in self._shells.values())

    def on_snapshot(
        self, time: int, batch: PartitionBatch
    ) -> list[CoMovementPattern]:
        """Advance all strings one (or more, padding gaps) time steps."""
        # Anchors the reference would process this snapshot: a record
        # arrived, or open state exists (the non-idle absence tick).
        # Only this set gets the post-round retention pruning, so it is
        # not worth computing under the default keep-forever semantics.
        active: set[int] = set()
        if self.candidate_retention is not None:
            active = set(batch.anchors.tolist())
            if self._keys.size:
                active.update(
                    int(a) for a in np.unique(self._keys >> np.int64(32))
                )
        closed: dict[int, list[ClosedBitString]] = {}
        empty = np.empty(0, dtype=np.int64)
        if self._last_time is not None:
            # Bit strings are positional: skipped snapshot times append
            # zeros, and Lemma 7 may fire mid-gap — those closures join
            # the same candidate round (reference on_partition padding).
            for missing in range(self._last_time + 1, time):
                self._advance(missing, empty, closed)
        self._last_time = time
        self._advance(time, batch.keys, closed)

        emitted: list[CoMovementPattern] = []
        for anchor in sorted(closed):
            emitted.extend(
                self._shell(anchor).enumerate_candidates(
                    time,
                    closed[anchor],
                    earliest_open_start=self._earliest_open_start(
                        anchor, time
                    ),
                )
            )
        if self.candidate_retention is not None:
            for anchor in sorted(active - set(closed)):
                shell = self._shells.get(anchor)
                if shell is not None:
                    shell.enumerate_candidates(
                        time,
                        [],
                        earliest_open_start=self._earliest_open_start(
                            anchor, time
                        ),
                    )
        return emitted

    def _earliest_open_start(self, anchor: int, time: int) -> int:
        """Start of this anchor's oldest open string (rows live here, not
        in the shell), bounding the shell's output-preserving eviction."""
        if self._keys.size:
            mask = (self._keys >> np.int64(32)) == anchor
            if mask.any():
                return int(self._start[mask].min())
        return time + 1

    def finish(self) -> list[CoMovementPattern]:
        """Force-close every open string; run the late candidate rounds."""
        c = self.constraints
        by_anchor: dict[int, list[int]] = {}
        for row in range(self._keys.size):
            by_anchor.setdefault(int(self._keys[row]) >> 32, []).append(row)
        emitted: list[CoMovementPattern] = []
        survivor = (
            _popcount_rows(self._bits) >= c.k
            if self._keys.size
            else np.empty(0, dtype=bool)
        )
        for anchor in sorted(by_anchor):
            closed: list[ClosedBitString] = []
            for row in by_anchor[anchor]:
                if not survivor[row]:
                    continue
                value = _words_to_int(self._bits[row])
                start = int(self._start[row])
                if not self.sequences_fn(value, start):
                    continue
                closed.append(
                    ClosedBitString(
                        oid=int(self._keys[row]) & 0xFFFFFFFF,
                        start=start,
                        end=start + value.bit_length() - 1,
                        bits=value,
                    )
                )
            emitted.extend(self._shell(anchor).enumerate_closed(closed))
        self._keys = np.empty(0, dtype=np.int64)
        self._start = np.empty(0, dtype=np.int64)
        self._length = np.empty(0, dtype=np.int64)
        self._tz = np.empty(0, dtype=np.int64)
        self._bits = np.empty((0, 1), dtype=np.uint64)
        return emitted

    def _shell(self, anchor: int) -> VBAEnumerator:
        shell = self._shells.get(anchor)
        if shell is None:
            shell = self._shells[anchor] = VBAEnumerator(
                anchor,
                self.constraints,
                candidate_retention=self.candidate_retention,
                sequences_fn=self.sequences_fn,
            )
        return shell

    def protected_oids(self) -> frozenset[int]:
        """Anchors and oids of every unclosed bit string.

        Mirrors :meth:`VBAEnumerator.protected_oids` over the batched
        row arrays: both halves of each packed open-string key are
        protected (shells hold only closed candidates, which need no
        protection — dropping a record cannot un-close a string).
        """
        if not self._keys.size:
            return frozenset()
        protected = {
            int(a) for a in np.unique(self._keys >> np.int64(32))
        }
        protected.update(
            int(o) for o in np.unique(self._keys & np.int64(0xFFFFFFFF))
        )
        return frozenset(protected)

    def forming_candidates(
        self, now: int
    ) -> tuple[tuple[int, int, int, int, int], ...]:
        """Descriptors of every unclosed row (``now`` is unused here).

        Mirrors :meth:`VBAEnumerator.forming_candidates` over the
        batched row arrays: the trailing-ones run is read from each
        row's bitmap (zero as soon as trailing zeros accumulate) and
        ``remaining`` is ``-1`` — variable strings have no horizon.
        """
        out: list[tuple[int, int, int, int, int]] = []
        for row in range(self._keys.size):
            key = int(self._keys[row])
            tz = int(self._tz[row])
            length = int(self._length[row])
            if tz or not length:
                ones = 0
            else:
                value = _words_to_int(self._bits[row])
                ones = 0
                for position in range(length - 1, -1, -1):
                    if value >> position & 1:
                        ones += 1
                    else:
                        break
            out.append(
                (key >> 32, key & 0xFFFFFFFF, int(self._start[row]), ones, -1)
            )
        return tuple(sorted(out))

    def snapshot_state(self) -> dict:
        """Parallel arrays as raw bytes plus per-anchor shell payloads.

        The uint64 bitmap matrix serialises with its word width so
        multi-word (> 64 time) open strings restore exactly; shells
        round-trip through :meth:`VBAEnumerator.snapshot_state` and are
        rebuilt with the kernel's shared memoized sequence extractor.
        """
        return {
            "keys": self._keys.tobytes(),
            "start": self._start.tobytes(),
            "length": self._length.tobytes(),
            "tz": self._tz.tobytes(),
            "bits": (self._bits.tobytes(), self._bits.shape[1]),
            "shells": {
                anchor: self._shells[anchor].snapshot_state()
                for anchor in sorted(self._shells)
            },
            "last_time": self._last_time,
            "candidates_created": self.candidates_created,
        }

    def restore_state(self, payload: dict) -> None:
        """Adopt a payload produced by :meth:`snapshot_state`."""
        self._keys = np.frombuffer(payload["keys"], dtype=np.int64).copy()
        self._start = np.frombuffer(payload["start"], dtype=np.int64).copy()
        self._length = np.frombuffer(payload["length"], dtype=np.int64).copy()
        self._tz = np.frombuffer(payload["tz"], dtype=np.int64).copy()
        bits_data, words = payload["bits"]
        self._bits = (
            np.frombuffer(bits_data, dtype=np.uint64)
            .reshape(self._keys.size, words)
            .copy()
            if self._keys.size
            else np.empty((0, max(words, 1)), dtype=np.uint64)
        )
        self._shells = {}
        for anchor, shell_payload in payload["shells"].items():
            shell = self._shell(anchor)
            shell.restore_state(shell_payload)
        self._last_time = payload["last_time"]
        self.candidates_created = payload["candidates_created"]

    @staticmethod
    def split_state(payload: dict) -> tuple[dict, dict[int, dict]]:
        """Per-anchor pieces of a :meth:`snapshot_state` payload.

        A piece holds the anchor's open-string rows (keys, start,
        length, trailing zeros, bitmap, in row order) and its shell;
        the rest holds the clock and the work counter.
        """
        keys = np.frombuffer(payload["keys"], dtype=np.int64)
        columns = [keys] + [
            np.frombuffer(payload[name], dtype=np.int64)
            for name in ("start", "length", "tz")
        ]
        bits_data, words = payload["bits"]
        columns.append(
            np.frombuffer(bits_data, dtype=np.uint64).reshape(keys.size, words)
        )
        pieces: dict[int, dict] = {}
        anchors = keys >> np.int64(32)
        order = np.argsort(anchors, kind="stable")
        ordered = anchors[order]
        cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
        for rows in np.split(order, cuts) if keys.size else ():
            pieces[int(anchors[rows[0]])] = {
                "rows": [column[rows] for column in columns],
                "shell": None,
            }
        for anchor, shell in payload["shells"].items():
            pieces.setdefault(anchor, {"rows": None, "shell": None})[
                "shell"
            ] = shell
        rest = {
            "last_time": payload["last_time"],
            "candidates_created": payload["candidates_created"],
        }
        return rest, pieces

    @staticmethod
    def join_state(
        rests: list[dict], pieces: dict[int, dict], primary: bool
    ) -> dict:
        """One subtask's payload from the anchor pieces routed to it.

        Rows are ordered by ``(start, key)`` — the order the vectorized
        appends keep them in at any fan-out — and the bitmap takes the
        widest piece's word count (narrower rows pad with zero words).
        """
        shares = [
            pieces[anchor]["rows"]
            for anchor in sorted(pieces)
            if pieces[anchor]["rows"] is not None
        ]
        words = max((share[4].shape[1] for share in shares), default=1)
        if shares:
            keys, start, length, tz = (
                np.concatenate([share[i] for share in shares])
                for i in range(4)
            )
            bits = np.concatenate(
                [
                    np.pad(share[4], ((0, 0), (0, words - share[4].shape[1])))
                    for share in shares
                ]
            )
            order = np.lexsort((keys, start))
            keys, start, length, tz, bits = (
                column[order] for column in (keys, start, length, tz, bits)
            )
        else:
            keys = start = length = tz = np.empty(0, dtype=np.int64)
            bits = np.empty((0, words), dtype=np.uint64)
        clocks = [r["last_time"] for r in rests if r["last_time"] is not None]
        return {
            "keys": keys.tobytes(),
            "start": start.tobytes(),
            "length": length.tobytes(),
            "tz": tz.tobytes(),
            "bits": (bits.tobytes(), words),
            "shells": {
                anchor: pieces[anchor]["shell"]
                for anchor in sorted(pieces)
                if pieces[anchor]["shell"] is not None
            },
            "last_time": max(clocks, default=None),
            "candidates_created": _summed(rests, "candidates_created", primary),
        }

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting: open rows, bitmap words, shell candidates."""
        metrics = {
            "open_strings": int(self._keys.size),
            "bitmap_words": int(self._bits.size),
            "anchors": len(self._shells),
        }
        for shell in self._shells.values():
            for key, value in shell.state_metrics().items():
                if key == "open_strings":
                    continue  # shells never hold open state here
                metrics[key] = metrics.get(key, 0) + value
        return metrics

    def _advance(
        self,
        time: int,
        snap_keys,
        closed_out: dict[int, list[ClosedBitString]],
    ) -> None:
        """One time step: append to open strings, close, open new ones."""
        c = self.constraints
        n = self._keys.size
        if n:
            present = _isin_sorted(snap_keys, self._keys)
            need_words = int(self._length.max() >> 6) + 1
            if need_words > self._bits.shape[1]:
                pad = np.zeros(
                    (n, need_words - self._bits.shape[1]), dtype=np.uint64
                )
                self._bits = np.concatenate([self._bits, pad], axis=1)
            rows = np.flatnonzero(present)
            if rows.size:
                words = self._length[rows] >> 6
                masks = np.left_shift(
                    np.uint64(1), (self._length[rows] & 63).astype(np.uint64)
                )
                self._bits[rows, words] |= masks
            self._tz = np.where(present, 0, self._tz + 1)
            self._length += 1
            closing = self._tz == c.g + 1  # Lemma 7: no extension possible
            if closing.any():
                self._close_rows(np.flatnonzero(closing), closed_out)
                keep = ~closing
                self._keys = self._keys[keep]
                self._start = self._start[keep]
                self._length = self._length[keep]
                self._tz = self._tz[keep]
                self._bits = self._bits[keep]
        if snap_keys.size:
            if self._keys.size:
                fresh = snap_keys[
                    ~_isin_sorted(np.sort(self._keys), snap_keys)
                ]
            else:
                fresh = snap_keys
            if fresh.size:
                self._keys = np.concatenate([self._keys, fresh])
                self._start = np.concatenate(
                    [self._start, np.full(fresh.size, time, dtype=np.int64)]
                )
                self._length = np.concatenate(
                    [self._length, np.ones(fresh.size, dtype=np.int64)]
                )
                self._tz = np.concatenate(
                    [self._tz, np.zeros(fresh.size, dtype=np.int64)]
                )
                opened = np.zeros(
                    (fresh.size, self._bits.shape[1]), dtype=np.uint64
                )
                opened[:, 0] = 1
                self._bits = np.concatenate([self._bits, opened])

    def _close_rows(
        self, rows, closed_out: dict[int, list[ClosedBitString]]
    ) -> None:
        """Screen closing rows; exact-check survivors into candidates."""
        c = self.constraints
        screen = _popcount_rows(self._bits[rows]) >= c.k
        for row, passed in zip(rows.tolist(), screen.tolist()):
            if not passed:
                continue
            value = _words_to_int(self._bits[row])
            start = int(self._start[row])
            if not self.sequences_fn(value, start):
                continue
            key = int(self._keys[row])
            closed_out.setdefault(key >> 32, []).append(
                ClosedBitString(
                    oid=key & 0xFFFFFFFF,
                    start=start,
                    end=start + value.bit_length() - 1,
                    bits=value,
                )
            )
            self.candidates_created += 1


# ------------------------------------------------------------------- kernel


class NumpyEnumerationKernel(EnumerationKernel):
    """Array-native batched enumeration for one subtask's anchors."""

    name = "numpy"

    def __init__(
        self,
        enumerator: str,
        constraints: PatternConstraints,
        vba_candidate_retention: int | None = None,
    ):
        if enumerator not in BITMAP_ENUMERATORS:
            raise ValueError(
                "the 'numpy' enumeration kernel batches membership bit "
                f"strings and supports {BITMAP_ENUMERATORS}; enumerator "
                f"{enumerator!r} has no bitmap form — use "
                "enumeration_kernel='python'"
            )
        self.enumerator = enumerator
        self.constraints = constraints
        self._last_time: int | None = None
        #: Shared memoized Definition-15 decomposition — the batched
        #: counterpart of per-call extraction (see :class:`_SequenceCache`).
        self.sequence_cache = _SequenceCache(constraints)
        if enumerator == "fba":
            self._state: _FBAWindows | _VBAStrings = _FBAWindows(
                constraints, self.sequence_cache
            )
        else:
            self._state = _VBAStrings(
                constraints,
                self.sequence_cache,
                candidate_retention=vba_candidate_retention,
            )

    @property
    def and_evaluations(self) -> int:
        """AND combinations evaluated so far (work counter)."""
        return self._state.and_evaluations

    def on_snapshot(
        self, time: int, partitions: Partitions | PartitionBatch
    ) -> list[CoMovementPattern]:
        """Advance the batch state by one snapshot's packed keys.

        A :class:`~repro.model.batch.PartitionBatch` is consumed as it
        is; ``(anchor, members)`` pairs are packed first
        (:meth:`PartitionBatch.from_pairs`).
        """
        if self._last_time is not None and time <= self._last_time:
            raise ValueError(
                f"times must increase: got {time} after {self._last_time}"
            )
        self._last_time = time
        if not isinstance(partitions, PartitionBatch):
            partitions = PartitionBatch.from_pairs(time, partitions)
        return self._state.on_snapshot(time, partitions)

    def finish(self) -> list[CoMovementPattern]:
        """Flush pending windows / open strings at end of stream."""
        return self._state.finish()

    def protected_oids(self) -> frozenset[int]:
        """Shed-protected oids, delegated to the batch state."""
        return self._state.protected_oids()

    def forming_candidates(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Forming descriptors, delegated to the batch state."""
        if self._last_time is None:
            return ()
        return self._state.forming_candidates(self._last_time)

    def snapshot_state(self) -> dict:
        """The batch state's payload plus the kernel clock.

        The memoized sequence cache is deliberately absent: it is a pure
        function of its inputs, so a restored kernel repopulates it on
        demand with identical results.
        """
        return {
            "enumerator": self.enumerator,
            "last_time": self._last_time,
            "state": self._state.snapshot_state(),
        }

    def restore_state(self, payload: dict) -> None:
        """Adopt a payload produced by :meth:`snapshot_state`."""
        self._check_enumerator(payload)
        self._last_time = payload["last_time"]
        self._state.restore_state(payload["state"])

    def split_state(self, payload: dict) -> tuple[dict, dict[int, dict]]:
        """Per-anchor pieces of the batch state; the clock stays in the rest."""
        self._check_enumerator(payload)
        rest, pieces = self._state.split_state(payload["state"])
        return {"last_time": payload["last_time"], "state": rest}, pieces

    def join_state(
        self, rests: list[dict], pieces: dict[int, dict], primary: bool
    ) -> dict:
        """One subtask's payload; its clock is the latest of the inputs'."""
        clocks = [r["last_time"] for r in rests if r["last_time"] is not None]
        return {
            "enumerator": self.enumerator,
            "last_time": max(clocks, default=None),
            "state": self._state.join_state(
                [r["state"] for r in rests], pieces, primary
            ),
        }

    def _check_enumerator(self, payload: dict) -> None:
        if payload["enumerator"] != self.enumerator:
            raise ValueError(
                f"cannot restore {payload['enumerator']!r} kernel state "
                f"into a {self.enumerator!r} kernel"
            )

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting delegated to the batch state."""
        return self._state.state_metrics()
