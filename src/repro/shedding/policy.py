"""Shed policies: which records of an incoming batch to drop.

A policy sees one ingest batch at a time — the record oids, the current
shed rate, and (for state-aware policies) the *protected set*: oids the
enumeration stage reports as participating in a partial match (an open
FBA window or an unclosed VBA bit string).  It returns the indices to
drop.  Semantics are Bernoulli per record rather than a floor quota, so
a 10% rate sheds ~10% of records even when batches arrive one record at
a time (``Session.feed``) where ``floor(0.1 * 1)`` would shed nothing.

Invariants every policy must honour (property-tested in
``tests/shedding/``):

* at rate ``<= 0`` no record is dropped **and the policy's RNG is not
  advanced** — a rate-0 run is byte-identical to a no-shedding run;
* :class:`PatternAwareShedPolicy` never returns the index of a record
  whose oid is in the protected set, at any rate.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Sequence


class ShedPolicy(ABC):
    """Per-batch drop-selection contract (the ``shed_policy`` axis).

    Subclasses set :attr:`name` and implement :meth:`select_drops`.
    Policies that consult the enumeration stage's protected set declare
    ``consults_state = True`` so the session only pays for the
    protected-set query when a policy will read it.
    """

    #: Registry selection name of the policy.
    name: str = "abstract"

    #: True when :meth:`select_drops` reads the protected set.
    consults_state: bool = False

    @abstractmethod
    def select_drops(
        self,
        oids: Sequence[int],
        rate: float,
        protected: frozenset[int],
    ) -> list[int]:
        """Indices (into ``oids``) of the records to drop.

        ``rate`` is the fraction of the batch the controller wants shed
        (``0 <= rate < 1``); ``protected`` is the enumeration stage's
        live protected set (always empty for policies with
        ``consults_state = False``).
        """

    def snapshot_state(self) -> dict:
        """Serialisable policy state (RNG position, counters)."""
        return {}

    def restore_state(self, payload: dict) -> None:
        """Adopt a payload produced by :meth:`snapshot_state`."""

    def state_metrics(self) -> dict[str, int]:
        """Memory accounting of retained policy state."""
        return {}


class NoShedPolicy(ShedPolicy):
    """The default: never drops anything, touches no RNG."""

    name = "none"

    def select_drops(
        self,
        oids: Sequence[int],
        rate: float,
        protected: frozenset[int],
    ) -> list[int]:
        """Always empty."""
        return []


class RandomShedPolicy(ShedPolicy):
    """Uniform Bernoulli shedding — the classical state-blind baseline.

    Every record of the batch is dropped independently with probability
    ``rate``.  Deterministic per seed, so differential tests can replay
    identical drop sequences.
    """

    name = "random"

    def __init__(self, seed: int | None = 0) -> None:
        self._rng = random.Random(seed)

    def select_drops(
        self,
        oids: Sequence[int],
        rate: float,
        protected: frozenset[int],
    ) -> list[int]:
        """Drop each index independently with probability ``rate``."""
        if rate <= 0.0:
            return []
        rng = self._rng
        return [i for i in range(len(oids)) if rng.random() < rate]

    def snapshot_state(self) -> dict:
        """The RNG position (pickled verbatim by the checkpoint codec)."""
        return {"rng": self._rng.getstate()}

    def restore_state(self, payload: dict) -> None:
        """Resume the drop sequence exactly where the snapshot left it."""
        self._rng.setstate(payload["rng"])


class PatternAwareShedPolicy(ShedPolicy):
    """Semantic shedding: drop only *cold* records, protect partial matches.

    A record is cold when its oid appears in no active anchor bit
    string — no open FBA window, no unclosed VBA candidate — so
    dropping it cannot break a pattern the enumerators are already
    assembling.  Protected records are never dropped, at any rate.

    To stay comparable with :class:`RandomShedPolicy` at equal
    configured rates, the Bernoulli probability over the cold records
    is inflated to ``min(1, rate * n / n_cold)``: the *expected shed
    volume* matches the configured rate whenever enough cold records
    exist, and saturates at "every cold record" when the protected set
    dominates the batch.
    """

    name = "pattern_aware"
    consults_state = True

    def __init__(self, seed: int | None = 0) -> None:
        self._rng = random.Random(seed)

    def select_drops(
        self,
        oids: Sequence[int],
        rate: float,
        protected: frozenset[int],
    ) -> list[int]:
        """Drop cold indices with the volume-matched probability."""
        if rate <= 0.0:
            return []
        cold = [i for i, oid in enumerate(oids) if oid not in protected]
        if not cold:
            return []
        probability = min(1.0, rate * len(oids) / len(cold))
        rng = self._rng
        return [i for i in cold if rng.random() < probability]

    def snapshot_state(self) -> dict:
        """The RNG position (pickled verbatim by the checkpoint codec)."""
        return {"rng": self._rng.getstate()}

    def restore_state(self, payload: dict) -> None:
        """Resume the drop sequence exactly where the snapshot left it."""
        self._rng.setstate(payload["rng"])
