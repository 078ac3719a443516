"""The record-at-a-time "last time" chain walk, kept verbatim.

``repro.streaming.sync.TimeSyncOperator`` holds every chain in flat
arrays and releases a whole batch with one sort-and-segment pass.  The
walk it replaced — one ``_Chain`` per trajectory with a sorted list of
pending ``(time, seq, oid, x, y, last_time)`` tuples, advanced record by
record — lives on here as the *specification* the array operator is
held to by ``tests/streaming/test_sync_columnar.py``, and as the
yardstick of ``benchmarks/bench_ingest_throughput.py``.

The bodies are the walk's own, with their copy of the few operator
methods they used (``__init__``, ``watermark_lag``, ``_check_not_stale``),
so a reference run never executes a line of the code it judges.  The one
edit: ``feed_batch`` converts the batch columns to lists itself.  Both
read and write one ``snapshot_state`` schema, so a checkpoint taken on
either restores on the other.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from repro.model.batch import NO_LAST_TIME, RecordBatch, SnapshotBatch
from repro.model.records import Location, StreamRecord
from repro.model.snapshot import Snapshot

_Row = tuple


class _SnapshotBuilder:
    """Accumulates one building snapshot's released rows as columns."""

    __slots__ = ("oids", "xs", "ys")

    def __init__(self) -> None:
        self.oids: list[int] = []
        self.xs: list[float] = []
        self.ys: list[float] = []

    def append(self, oid: int, x: float, y: float) -> None:
        """Register one released row (re-reports resolve at emit time)."""
        self.oids.append(oid)
        self.xs.append(x)
        self.ys.append(y)

    def to_snapshot(self, time: int) -> Snapshot:
        """Materialise the object form (dict last-wins, like ``add``)."""
        snapshot = Snapshot(time)
        for oid, x, y in zip(self.oids, self.xs, self.ys):
            snapshot.add(oid, Location(x, y))
        return snapshot

    def to_snapshot_batch(self, time: int) -> SnapshotBatch:
        """Materialise the columnar form (same last-wins dedup rule)."""
        return SnapshotBatch.from_rows(time, self.oids, self.xs, self.ys)


@dataclass(slots=True)
class _Chain:
    """Per-trajectory reassembly state."""

    released_up_to: int | None = None
    pending: list[_Row] = field(default_factory=list)
    _seq: int = 0

    def push(self, record: StreamRecord) -> None:
        """Insert one record into the time-sorted pending list.

        The sequence number breaks ordering ties between same-time
        records, preserving arrival order.
        """
        insort(
            self.pending,
            (
                record.time,
                self._seq,
                record.oid,
                record.x,
                record.y,
                record.last_time,
            ),
        )
        self._seq += 1

    def push_rows(self, rows: list[_Row]) -> None:
        """Merge a group of already-sequenced rows into the pending list.

        ``rows`` arrive in arrival order (sequence numbers assigned by
        the caller from this chain's counter); a single sort restores
        the ``(time, seq)`` pending order.
        """
        if self.pending:
            self.pending.extend(rows)
            self.pending.sort()
        else:
            rows.sort()
            self.pending = rows

    def next_seq(self, count: int) -> int:
        """Reserve ``count`` sequence numbers; returns the first."""
        first = self._seq
        self._seq += count
        return first

    def blocked_at(self) -> int | None:
        """Time of the missing predecessor, if the chain is blocked."""
        if not self.pending:
            return None
        last_time = self.pending[0][5]
        if last_time is None or last_time == self.released_up_to:
            return None
        return last_time

    def pop(self) -> _Row:
        """Release the earliest pending row and advance the chain."""
        row = self.pending.pop(0)
        self.released_up_to = row[0]
        return row


class _ChainWalkSync:
    """The row-at-a-time chain walk: one ``_Chain`` per trajectory.

    The reference the array operator is differentially tested against.
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
        self._chains: dict[int, _Chain] = {}
        self._building: dict[int, _SnapshotBuilder] = {}

    def feed(self, record: StreamRecord) -> list[Snapshot]:
        self._check_not_stale(record.time)
        chain = self._chains.setdefault(record.oid, _Chain())
        last = self._effective_last(record.last_time)
        if last is not record.last_time:
            record = StreamRecord(
                oid=record.oid,
                time=record.time,
                x=record.x,
                y=record.y,
                last_time=last,
            )
        chain.push(record)
        if self._max_seen is None or record.time > self._max_seen:
            self._max_seen = record.time
        self._release_chain(chain)
        return self._emit_ready()

    def feed_batch(self, batch: RecordBatch) -> list[SnapshotBatch]:
        if not len(batch):
            return []
        self._check_not_stale(batch.min_time())
        oids, xs, ys, times, lasts = (
            column.tolist()
            for column in (
                batch.oids, batch.xs, batch.ys, batch.times, batch.last_times
            )
        )
        n = len(oids)
        if n == 1:
            chain = self._chains.setdefault(oids[0], _Chain())
            last = lasts[0]
            chain.push_rows(
                [
                    (
                        times[0],
                        chain.next_seq(1),
                        oids[0],
                        xs[0],
                        ys[0],
                        self._effective_last(
                            None if last == NO_LAST_TIME else last
                        ),
                    )
                ]
            )
            self._release_chain(chain)
        else:
            # Group rows by oid, preserving arrival order within each
            # group so sequence numbers replay per-point tie-breaking.
            groups: dict[int, list[_Row]] = {}
            for i in range(n):
                last = lasts[i]
                row = (
                    times[i],
                    0,  # sequenced below, once the group is complete
                    oids[i],
                    xs[i],
                    ys[i],
                    self._effective_last(
                        None if last == NO_LAST_TIME else last
                    ),
                )
                group = groups.get(oids[i])
                if group is None:
                    groups[oids[i]] = [row]
                else:
                    group.append(row)
            for oid, rows in groups.items():
                chain = self._chains.setdefault(oid, _Chain())
                base = chain.next_seq(len(rows))
                chain.push_rows(
                    [
                        (row[0], base + j, *row[2:])
                        for j, row in enumerate(rows)
                    ]
                )
                self._release_chain(chain)
        max_time = batch.max_time()
        if self._max_seen is None or max_time > self._max_seen:
            self._max_seen = max_time
        return self._emit_ready(columnar=True)

    def flush(self, *, columnar: bool = False) -> list:
        for chain in self._chains.values():
            while chain.pending:
                time, _seq, oid, x, y, _last = chain.pop()
                self._builder(time).append(oid, x, y)
        snapshots = [
            self._building[t].to_snapshot_batch(t)
            if columnar
            else self._building[t].to_snapshot(t)
            for t in sorted(self._building)
        ]
        self._building.clear()
        if snapshots:
            self._emitted_up_to = snapshots[-1].time
        return snapshots

    # ------------------------------------------------------------------ internals

    def _builder(self, time: int) -> _SnapshotBuilder:
        builder = self._building.get(time)
        if builder is None:
            builder = self._building[time] = _SnapshotBuilder()
        return builder

    def _release_chain(self, chain: _Chain) -> None:
        """Release the chain's ready prefix into the building snapshots.

        Chains are independent (a release can only unblock records of
        the *same* trajectory), so only chains the current feed touched
        need advancing.
        """
        pending = chain.pending
        up_to = chain.released_up_to
        i = 0
        count = len(pending)
        while i < count:
            row = pending[i]
            if row[5] != up_to:
                break
            up_to = row[0]
            self._builder(row[0]).append(row[2], row[3], row[4])
            i += 1
        if i:
            chain.released_up_to = up_to
            del pending[:i]

    def _effective_last(self, last: int | None) -> int | None:
        """Drop back-references into evicted history (fresh-object rule)."""
        if (
            last is not None
            and self._eviction_horizon is not None
            and last <= self._eviction_horizon
        ):
            return None
        return last

    def _evict_idle_chains(self, watermark: int) -> None:
        """TTL policy: forget chains idle past ``watermark - ttl``.

        Only *idle* chains (nothing pending) are eligible — a chain with
        pending rows is still reassembling and holds the watermark back
        itself.  Every eviction advances the horizon so that a
        reappearing trajectory's ``last_time`` back-reference is dropped
        by :meth:`_effective_last` and the object starts a fresh chain
        instead of blocking forever on forgotten history.
        """
        horizon = watermark - self.trajectory_ttl
        if self._eviction_horizon is None or horizon > self._eviction_horizon:
            self._eviction_horizon = horizon
        evicted = [
            oid
            for oid, chain in self._chains.items()
            if not chain.pending
            and chain.released_up_to is not None
            and chain.released_up_to <= horizon
        ]
        for oid in evicted:
            del self._chains[oid]
        self.chains_evicted += len(evicted)

    def _emit_ready(self, columnar: bool = False):
        if self._max_seen is None:
            return []
        watermark = self._max_seen - self.max_delay - 1
        for chain in self._chains.values():
            blocked = chain.blocked_at()
            if blocked is not None and blocked - 1 < watermark:
                watermark = blocked - 1
        if self.trajectory_ttl is not None:
            self._evict_idle_chains(watermark)
        out: list = []
        for t in sorted(self._building):
            if t > watermark:
                break
            builder = self._building.pop(t)
            out.append(
                builder.to_snapshot_batch(t)
                if columnar
                else builder.to_snapshot(t)
            )
        if out:
            self._emitted_up_to = out[-1].time
        return out

    # ------------------------------------------------------------------ state

    def snapshot_state(self) -> dict:
        return {
            "chains": {
                oid: (chain.released_up_to, list(chain.pending), chain._seq)
                for oid, chain in self._chains.items()
            },
            "building": {
                t: (list(b.oids), list(b.xs), list(b.ys))
                for t, b in self._building.items()
            },
            "max_seen": self._max_seen,
            "emitted_up_to": self._emitted_up_to,
            "eviction_horizon": self._eviction_horizon,
            "chains_evicted": self.chains_evicted,
        }

    def restore_state(self, payload: dict) -> None:
        self._chains = {
            oid: _Chain(
                released_up_to=released, pending=list(rows), _seq=seq
            )
            for oid, (released, rows, seq) in payload["chains"].items()
        }
        self._building = {}
        for t, (oids, xs, ys) in payload["building"].items():
            builder = self._builder(t)
            builder.oids = list(oids)
            builder.xs = list(xs)
            builder.ys = list(ys)
        self._max_seen = payload["max_seen"]
        self._emitted_up_to = payload["emitted_up_to"]
        self._eviction_horizon = payload["eviction_horizon"]
        self.chains_evicted = payload["chains_evicted"]

    def state_metrics(self) -> dict[str, int]:
        return {
            "chains": len(self._chains),
            "pending_records": sum(
                len(chain.pending) for chain in self._chains.values()
            ),
            "building_snapshots": len(self._building),
            "chains_evicted": self.chains_evicted,
        }

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
