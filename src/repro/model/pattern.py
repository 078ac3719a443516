"""Detected co-movement patterns.

A result of the enumeration phase: the object set O, its time sequence T,
and the subtask (anchor trajectory) that reported it.  Patterns compare by
value so result sets can be deduplicated and compared in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.constraints import PatternConstraints
from repro.model.timeseq import TimeSequence


@dataclass(frozen=True, slots=True)
class CoMovementPattern:
    """A concrete CP(M, K, L, G) instance: objects plus time sequence.

    Attributes:
        objects: the trajectory ids travelling together, sorted.
        times: the time sequence T witnessing the pattern.
    """

    objects: tuple[int, ...]
    times: TimeSequence

    def __post_init__(self) -> None:
        ordered = tuple(sorted(set(self.objects)))
        if ordered != self.objects:
            object.__setattr__(self, "objects", ordered)

    @classmethod
    def of(cls, objects, times) -> "CoMovementPattern":
        """Build from any iterables (ids and times)."""
        if not isinstance(times, TimeSequence):
            times = TimeSequence(times)
        return cls._from_sorted(tuple(sorted(set(objects))), times)

    @classmethod
    def _from_sorted(
        cls, objects: tuple[int, ...], times: TimeSequence
    ) -> "CoMovementPattern":
        """Trusted construction: ``objects`` is already a strictly
        ascending tuple, so the normalisation of the public constructor
        is skipped (the growth engine builds its tuples sorted)."""
        pattern = object.__new__(cls)
        object.__setattr__(pattern, "objects", objects)
        object.__setattr__(pattern, "times", times)
        return pattern

    @property
    def size(self) -> int:
        """Number of objects in the pattern."""
        return len(self.objects)

    @property
    def duration(self) -> int:
        """Number of times in the witness sequence."""
        return len(self.times)

    def satisfies(self, constraints: PatternConstraints) -> bool:
        """Full (M, K, L, G) check — closeness is the producer's burden."""
        return constraints.size_valid(self.size) and constraints.sequence_valid(
            self.times
        )

    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Hashable identity used for cross-algorithm result comparison."""
        return (self.objects, self.times.times)

    def __str__(self) -> str:
        ids = ", ".join(f"o{oid}" for oid in self.objects)
        return f"{{{ids}}} @ T={list(self.times)}"
