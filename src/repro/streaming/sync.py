"""Time synchronisation via "last time" chaining (Section 4).

Flink does not guarantee that records are processed in event-time order,
but pattern detection requires ascending snapshots.  The paper attaches to
every record the *last time* — the discretized time of the trajectory's
previous report — so the operator can (i) restore each trajectory's order
exactly, and (ii) decide whether a snapshot still has to wait: a record
whose ``last_time`` names an unreleased predecessor proves that snapshot
``last_time`` is incomplete; conversely a chain that jumps from time 3 to
time 5 proves the trajectory reported nothing at time 4.

New trajectories (``last_time is None``) cannot be anticipated by chains
alone, so the operator additionally assumes *bounded delay*: a record with
event time ``tau`` arrives before any record with event time greater than
``tau + max_delay`` is fed.  Snapshot ``t`` is emitted once

* the discovery watermark has passed (``max_seen_time > t + max_delay``),
  so no unseen record for time <= t can still arrive, and
* no trajectory chain is blocked on a missing predecessor at a time <= t.

``flush()`` emits every remaining snapshot at end of stream.

The state is flat arrays.  The known oids form a sorted array with
parallel ``released_up_to`` and creation ordinal; one *pool* holds the
unreleased rows of all chains as five columns ``(oid, time, x, y,
last)`` kept in ``(oid, time, arrival)`` order; and per building
snapshot there is a list of released column chunks.  ``feed_batch``
concatenates pool and batch, stable-sorts by ``(oid, time)``, takes each
row's predecessor from the row before it (the chain's
``released_up_to`` for a chain's first row) and marks a row *bad* when
its ``last`` disagrees.  A chain releases exactly its rows before its
first bad one, so ``cumsum(bad)`` minus its value at the chain start
being zero *is* the release mask — the paper's per-record chain walk as
one segmented prefix.  The rest is the next pool, and the smallest
``last`` among the pool's chain heads is the only thing that can hold
the watermark back, so emission never scans chains.  A single record
whose chain is idle and in order is a scalar update of the same arrays
(``feed``, one-row batches); anything else is a one-row array pass.
``tests/streaming/reference_sync.py`` keeps the record-at-a-time walk
(one chain object per trajectory, a sorted pending list each) that the
differential test replays every call against.

**Row order inside a snapshot is part of the contract**, because the
seeded ``random`` and ``pattern_aware`` shedding policies draw per row
index: rows appear by the call that released them, within a call by the
position at which their chain first occurs in that batch, within a
chain by arrival; ``flush`` appends what was pending by chain creation
order.  The array pass reproduces it with one more stable sort of the
released rows on ``(time, first position)``.  A re-reported ``(oid,
time)`` keeps the first row's position and the last row's coordinates.

``feed``, ``feed_batch`` and ``flush`` all return columnar
:class:`~repro.model.batch.SnapshotBatch` envelopes (``to_snapshot()``
gives the object form).  Feeding the same records through either
ingest call, in any batching, yields the identical snapshot
contents; deferring emission to the batch boundary can only move an
emission to a later call (released pending records always carry times
strictly above any snapshot already emittable).  Checkpoints use one
:meth:`~TimeSyncOperator.snapshot_state` schema, written in the chain
walk's terms, so payloads taken before the array state existed still
restore.
"""

from __future__ import annotations

import numpy as _np

from repro.model.batch import NO_LAST_TIME, RecordBatch, SnapshotBatch
from repro.model.records import StreamRecord

#: A pending record row: ``(time, seq, oid, x, y, last_time-or-None)``.
_Row = tuple


class TimeSyncOperator:
    """Reorders a trajectory stream into complete, ascending snapshots.

    Known trajectories are three parallel arrays sorted by oid
    (``_oids``, ``_released`` with :data:`NO_LAST_TIME` for "nothing
    released", ``_ordinal`` = creation rank); unreleased rows of every
    chain share one *pool* of five columns kept sorted by ``(oid, time,
    arrival)``; ``_building`` maps a time to the column chunks released
    into it so far.
    """

    def __init__(self, max_delay: int = 0, trajectory_ttl: int | None = None):
        """``max_delay``: bounded-delay guarantee of the source, in
        discretized time units.  0 means the stream is already in
        event-time order across trajectories (records of one snapshot may
        still interleave arbitrarily).

        ``trajectory_ttl`` bounds chain state: a trajectory idle for more
        than this many time units behind the watermark is evicted, and a
        later reappearance is treated as a brand-new object (its
        ``last_time`` back-reference into the evicted past is dropped).
        Must exceed ``max_delay`` so eviction can never race records the
        bounded-delay contract still allows to arrive."""
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        if trajectory_ttl is not None and trajectory_ttl <= max_delay:
            raise ValueError(
                f"trajectory_ttl must be > max_delay ({max_delay}), "
                f"got {trajectory_ttl}"
            )
        self.max_delay = max_delay
        self.trajectory_ttl = trajectory_ttl
        self._max_seen: int | None = None
        self._emitted_up_to: int | None = None
        #: Times at or below this are evicted history: a ``last_time``
        #: pointing into it is dropped (the record opens a fresh chain).
        self._eviction_horizon: int | None = None
        #: Total chains evicted by the TTL policy.
        self.chains_evicted = 0
        self._oids = _np.empty(0, dtype=_np.int64)
        self._released = _np.empty(0, dtype=_np.int64)
        self._ordinal = _np.empty(0, dtype=_np.int64)
        self._next_ordinal = 0
        self._set_pool(*_empty_pool())
        #: time -> ``(oids, xs, ys)`` chunks in release order.  A chunk is
        #: three arrays (:meth:`_stage`) or three lists of single rows
        #: (:meth:`_feed_row`, which appends to a list chunk only while
        #: it is the last of its time).  Readers go through
        #: ``np.concatenate`` / :class:`SnapshotBatch`, which take both,
        #: so nothing else looks at a chunk's type.
        self._building: dict[int, list[tuple]] = {}

    # ------------------------------------------------------------------ ingest

    def feed(self, record: StreamRecord) -> list[SnapshotBatch]:
        """Accept one record; return any snapshots that became complete."""
        last = record.last_time
        self._feed_row(
            record.oid,
            record.time,
            float(record.x),
            float(record.y),
            NO_LAST_TIME if last is None else last,
        )
        return self._emit_ready()

    def feed_batch(self, batch: RecordBatch) -> list[SnapshotBatch]:
        """Accept a whole columnar batch; return completed snapshots.

        Every chain the batch touches advances once and the watermark is
        evaluated once at the batch boundary — equivalent to feeding
        every record through :meth:`feed` in order, except that a
        bounded-delay violation *inside* one batch (a record
        arriving after its own batch made its snapshot emittable) is
        absorbed into the still-pending snapshot instead of raising
        mid-batch.

        Raises:
            ValueError: when any record's time is at or below a snapshot
                already emitted by a previous call (the same staleness
                contract as :meth:`feed`); the operator is unchanged.
        """
        n = len(batch)
        if not n:
            return []
        if n == 1:
            self._feed_row(
                int(batch.oids[0]),
                int(batch.times[0]),
                float(batch.xs[0]),
                float(batch.ys[0]),
                int(batch.last_times[0]),
            )
            return self._emit_ready()
        times = batch.times
        self._check_not_stale(int(times.min()))
        lasts = batch.last_times
        if self._eviction_horizon is not None:
            # NO_LAST_TIME is below every horizon, so it maps to itself.
            lasts = _np.where(
                lasts <= self._eviction_horizon, NO_LAST_TIME, lasts
            )
        self._advance(batch.oids, times, batch.xs, batch.ys, lasts)
        self._saw(int(times.max()))
        return self._emit_ready()

    def flush(self) -> list[SnapshotBatch]:
        """End of stream: release everything and emit remaining snapshots.

        Chains blocked on a predecessor that never arrived indicate data
        loss; releasing in time order is the best-effort semantics.
        """
        oids, times, xs, ys, _lasts = self._pool
        if len(oids):
            chain = _np.searchsorted(self._oids, oids)
            # Chain creation order, then the pool's (time, arrival) order.
            order = _np.lexsort((self._ordinal[chain], times))
            self._stage(times[order], oids[order], xs[order], ys[order])
            last_of_chain = _np.flatnonzero(
                _np.append(oids[1:] != oids[:-1], True)
            )
            self._released[chain[last_of_chain]] = times[last_of_chain]
            self._set_pool(*_empty_pool())
        return self._emit_through(None)

    def watermark_lag(self) -> int:
        """Event-time distance between ingest frontier and emission.

        ``max_seen - emitted_up_to``: how far the newest record seen is
        ahead of the newest snapshot emitted — the sync-operator lag the
        observability gauge ``repro_watermark_lag`` reports.  Zero until
        anything has been seen; ``max_seen`` itself until the first
        emission (relative to an implicit emitted time of ``-1``, so a
        stream that emits immediately reports a small, honest lag rather
        than its absolute timestamp).
        """
        if self._max_seen is None:
            return 0
        emitted = self._emitted_up_to if self._emitted_up_to is not None else -1
        return self._max_seen - emitted

    def _check_not_stale(self, time: int) -> None:
        if self._emitted_up_to is not None and time <= self._emitted_up_to:
            raise ValueError(
                f"record for t={time} arrived after snapshot "
                f"{self._emitted_up_to} was emitted; max_delay={self.max_delay} "
                "is too small for this stream"
            )

    def _saw(self, time: int) -> None:
        if self._max_seen is None or time > self._max_seen:
            self._max_seen = time

    def _feed_row(self, oid: int, time: int, x: float, y: float, last: int):
        """One record on the array state.

        The common case — the chain has nothing pending and the record
        names exactly its released predecessor — is a scalar update of
        the same arrays; every other case is a one-row :meth:`_advance`.
        """
        self._check_not_stale(time)
        horizon = self._eviction_horizon
        if horizon is not None and last <= horizon:
            last = NO_LAST_TIME
        known = self._oids
        at = int(known.searchsorted(oid))
        exists = at < len(known) and known[at] == oid
        pool_oids = self._pool[0]
        pending = False
        if len(pool_oids):
            j = int(pool_oids.searchsorted(oid))
            pending = j < len(pool_oids) and pool_oids[j] == oid
        if not pending and last == (
            self._released[at] if exists else NO_LAST_TIME
        ):
            if exists:
                self._released[at] = time
            else:
                self._oids = _np.insert(known, at, oid)
                self._released = _np.insert(self._released, at, time)
                self._ordinal = _np.insert(
                    self._ordinal, at, self._next_ordinal
                )
                self._next_ordinal += 1
            chunks = self._building.setdefault(time, [])
            if not chunks or type(chunks[-1][0]) is not list:
                chunks.append(([], [], []))
            tail = chunks[-1]
            tail[0].append(oid)
            tail[1].append(x)
            tail[2].append(y)
        else:
            self._advance(
                _np.array([oid], dtype=_np.int64),
                _np.array([time], dtype=_np.int64),
                _np.array([x], dtype=_np.float64),
                _np.array([y], dtype=_np.float64),
                _np.array([last], dtype=_np.int64),
            )
        self._saw(time)

    def _advance(self, oids, times, xs, ys, lasts) -> None:
        """Merge ``n`` arriving rows into the pool and release what is ready.

        One stable sort puts pool and batch rows in ``(oid, time,
        arrival)`` order (pool rows precede batch rows, both already in
        arrival order); a row is *bad* when its ``last`` differs from
        its predecessor's time (the chain's ``released_up_to`` for the
        first row of a chain), and the releasable rows of a chain are
        its prefix before the first bad row — a segmented cumulative AND.
        """
        n = len(oids)
        # Batch position; pool rows sort after every batch row so a
        # chain's key is its first position in *this* batch.
        position = _np.arange(n)
        if len(self._pool[0]):
            position = _np.concatenate(
                (_np.full(len(self._pool[0]), n), position)
            )
            oids, times, xs, ys, lasts = (
                _np.concatenate(columns)
                for columns in zip(self._pool, (oids, times, xs, ys, lasts))
            )
        order = _np.lexsort((times, oids))
        oids, times, lasts = oids[order], times[order], lasts[order]
        xs, ys, position = xs[order], ys[order], position[order]

        opens = _chain_heads(oids)
        starts = _np.flatnonzero(opens)
        group = _np.cumsum(opens) - 1
        first_position = _np.minimum.reduceat(position, starts)
        chain = self._chain_indices(oids[starts], first_position)

        previous = _np.empty_like(times)
        previous[1:] = times[:-1]
        previous[starts] = self._released[chain]
        bad = _np.cumsum(lasts != previous)
        bad_before_chain = bad[starts] - (lasts[starts] != previous[starts])
        # A chain the batch did not touch releases nothing: its first
        # pending row was already bad when it was left in the pool.
        release = bad == bad_before_chain[group]

        released = _np.add.reduceat(release, starts, dtype=_np.intp)
        advanced = _np.flatnonzero(released)
        if len(advanced):
            self._released[chain[advanced]] = times[
                starts[advanced] + released[advanced] - 1
            ]
            # Snapshot row order: time, then the chain's first position
            # in this batch, then arrival (kept by the stable sort).
            rows = _np.flatnonzero(release)
            rows = rows[_np.lexsort((first_position[group[rows]], times[rows]))]
            self._stage(times[rows], oids[rows], xs[rows], ys[rows])
            rows = _np.flatnonzero(~release)
            self._set_pool(
                oids[rows], times[rows], xs[rows], ys[rows], lasts[rows]
            )
        else:
            self._set_pool(oids, times, xs, ys, lasts)

    def _chain_indices(self, oids, first_position):
        """Indices of (sorted, distinct) ``oids`` in the chain arrays,
        creating missing chains in order of first appearance."""
        known = self._oids
        at = _np.searchsorted(known, oids)
        if len(known):
            missing = known[_np.minimum(at, len(known) - 1)] != oids
        else:
            missing = _np.ones(len(oids), dtype=bool)
        if not missing.any():
            return at
        ordinal = _np.empty(int(missing.sum()), dtype=_np.int64)
        ordinal[_np.argsort(first_position[missing])] = _np.arange(
            self._next_ordinal, self._next_ordinal + len(ordinal)
        )
        self._next_ordinal += len(ordinal)
        where = at[missing]
        self._oids = _np.insert(known, where, oids[missing])
        self._released = _np.insert(self._released, where, NO_LAST_TIME)
        self._ordinal = _np.insert(self._ordinal, where, ordinal)
        return _np.searchsorted(self._oids, oids)

    def _stage(self, times, oids, xs, ys) -> None:
        """Append released rows (ascending ``times``) to their snapshots."""
        cuts = (_np.flatnonzero(times[1:] != times[:-1]) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(times)]):
            self._building.setdefault(int(times[lo]), []).append(
                (oids[lo:hi], xs[lo:hi], ys[lo:hi])
            )

    def _set_pool(self, oids, times, xs, ys, lasts) -> None:
        """Adopt the pool columns (sorted by oid, time, arrival) and cache
        what the watermark needs: the earliest missing predecessor."""
        self._pool = (oids, times, xs, ys, lasts)
        self._blocked_at: int | None = None
        if len(oids):
            # A chain's first pending row never names its released
            # predecessor (it would have been released), so any real
            # ``last`` there is a snapshot still waiting for a record.
            waiting = lasts[_chain_heads(oids)]
            waiting = waiting[waiting != NO_LAST_TIME]
            if len(waiting):
                self._blocked_at = int(waiting.min())

    # ------------------------------------------------------------------ emit

    def _emit_ready(self) -> list[SnapshotBatch]:
        if self._max_seen is None:
            return []
        watermark = self._max_seen - self.max_delay - 1
        if self._blocked_at is not None and self._blocked_at - 1 < watermark:
            watermark = self._blocked_at - 1
        if self.trajectory_ttl is not None:
            self._evict_idle_chains(watermark)
        return self._emit_through(watermark)

    def _emit_through(self, watermark: int | None) -> list[SnapshotBatch]:
        """Emit building snapshots up to ``watermark`` (``None``: all)."""
        ready = sorted(
            t for t in self._building if watermark is None or t <= watermark
        )
        out: list[SnapshotBatch] = []
        for t in ready:
            chunks = self._building.pop(t)
            oids, xs, ys = (
                _np.concatenate(column) if len(column) > 1 else column[0]
                for column in zip(*chunks)
            )
            out.append(SnapshotBatch(t, oids, xs, ys))
        if ready:
            self._emitted_up_to = ready[-1]
        return out

    def _evict_idle_chains(self, watermark: int) -> None:
        """TTL policy: forget chains idle past ``watermark - ttl``.

        Only *idle* chains (nothing pending) are eligible — a chain with
        pending rows is still reassembling and holds the watermark back
        itself.  Every eviction advances the horizon, so a reappearing
        trajectory's ``last_time`` back-reference is dropped on ingest
        and the object starts a fresh chain instead of blocking forever
        on forgotten history.
        """
        horizon = watermark - self.trajectory_ttl
        if self._eviction_horizon is None or horizon > self._eviction_horizon:
            self._eviction_horizon = horizon
        idle = (self._released <= horizon) & (self._released != NO_LAST_TIME)
        if not idle.any():
            return
        if len(self._pool[0]):
            idle &= ~_np.isin(self._oids, self._pool[0])
        keep = ~idle
        self.chains_evicted += len(keep) - int(keep.sum())
        self._oids = self._oids[keep]
        self._released = self._released[keep]
        self._ordinal = self._ordinal[keep]

    # ------------------------------------------------------------------ state

    def snapshot_state(self) -> dict:
        """Serializable payload capturing every chain and building snapshot.

        The schema is the chain walk's: ``chains`` maps oid (in
        chain-creation order) to ``(released_up_to, pending rows,
        next_seq)`` with rows ``(time, seq, oid, x, y, last_time)``;
        ``building`` maps time to ``(oids, xs, ys)`` row lists.  ``seq``
        only orders same-time rows of one chain by arrival.
        """
        pool = [column.tolist() for column in self._pool]
        pending: dict[int, list[_Row]] = {}
        for oid, time, x, y, last in zip(*pool):
            rows = pending.setdefault(oid, [])
            rows.append(
                (time, len(rows), oid, x, y,
                 None if last == NO_LAST_TIME else last)
            )
        by_creation = _np.argsort(self._ordinal)
        chains = {}
        for oid, released in zip(
            self._oids[by_creation].tolist(),
            self._released[by_creation].tolist(),
        ):
            rows = pending.get(oid, [])
            chains[oid] = (
                None if released == NO_LAST_TIME else released,
                rows,
                len(rows),
            )
        return {
            "chains": chains,
            "building": {
                t: tuple(
                    _np.concatenate(column).tolist()
                    for column in zip(*chunks)
                )
                for t, chunks in self._building.items()
            },
            "max_seen": self._max_seen,
            "emitted_up_to": self._emitted_up_to,
            "eviction_horizon": self._eviction_horizon,
            "chains_evicted": self.chains_evicted,
        }

    def restore_state(self, payload: dict) -> None:
        """Adopt a payload produced by :meth:`snapshot_state`."""
        chains = payload["chains"]
        oids = _np.fromiter(chains, dtype=_np.int64, count=len(chains))
        by_oid = _np.argsort(oids, kind="stable")
        self._oids = oids[by_oid]
        self._released = _np.array(
            [
                NO_LAST_TIME if released is None else released
                for released, _rows, _seq in chains.values()
            ],
            dtype=_np.int64,
        )[by_oid]
        self._ordinal = by_oid.astype(_np.int64)
        self._next_ordinal = len(chains)
        rows = [
            row
            for oid in self._oids.tolist()
            for row in sorted(chains[oid][1])
        ]
        self._set_pool(
            _np.array([row[2] for row in rows], dtype=_np.int64),
            _np.array([row[0] for row in rows], dtype=_np.int64),
            _np.array([row[3] for row in rows], dtype=_np.float64),
            _np.array([row[4] for row in rows], dtype=_np.float64),
            _np.array(
                [NO_LAST_TIME if row[5] is None else row[5] for row in rows],
                dtype=_np.int64,
            ),
        )
        self._building = {
            t: [
                (
                    _np.array(oids, dtype=_np.int64),
                    _np.array(xs, dtype=_np.float64),
                    _np.array(ys, dtype=_np.float64),
                )
            ]
            for t, (oids, xs, ys) in payload["building"].items()
        }
        self._max_seen = payload["max_seen"]
        self._emitted_up_to = payload["emitted_up_to"]
        self._eviction_horizon = payload["eviction_horizon"]
        self.chains_evicted = payload["chains_evicted"]

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting: chain/pending/building sizes and evictions."""
        return {
            "chains": len(self._oids),
            "pending_records": len(self._pool[0]),
            "building_snapshots": len(self._building),
            "chains_evicted": self.chains_evicted,
        }


def _chain_heads(oids):
    """Mask of each chain's first row in (non-empty) oid-sorted rows."""
    heads = _np.empty(len(oids), dtype=bool)
    heads[0] = True
    _np.not_equal(oids[1:], oids[:-1], out=heads[1:])
    return heads


def _empty_pool() -> tuple:
    """Five empty pool columns ``(oid, time, x, y, last)``."""
    return (
        _np.empty(0, dtype=_np.int64),
        _np.empty(0, dtype=_np.int64),
        _np.empty(0, dtype=_np.float64),
        _np.empty(0, dtype=_np.float64),
        _np.empty(0, dtype=_np.int64),
    )
