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
        is skipped (the growth engine builds its tuples sorted).

        Stores through the class's slot descriptors, which skips the
        frozen ``__setattr__`` and its attribute-name lookup."""
        pattern = _new(cls)
        _set_objects(pattern, objects)
        _set_times(pattern, times)
        return pattern

    def __reduce__(self):
        """Pickle as a call to :func:`_rebuild` (the trusted constructor).

        The frozen slots dataclass's own ``__setstate__`` walks
        ``fields()`` once per object, which dominated unpickling pattern
        lists on the ``process`` backend's reply pipe.  Pickles written
        through that path still load: the dataclass keeps it.
        """
        return (_rebuild, (self.objects, self.times))

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


_new = object.__new__
_set_objects = CoMovementPattern.objects.__set__
_set_times = CoMovementPattern.times.__set__


def _rebuild(objects: tuple[int, ...], times: TimeSequence) -> CoMovementPattern:
    """Unpickling hook: ``objects`` were sorted when the pattern was pickled."""
    return CoMovementPattern._from_sorted(objects, times)
