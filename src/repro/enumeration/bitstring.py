"""Bit-compressed cluster-membership strings (Definitions 13-14).

A bit string records, per discretized time, whether a trajectory shares the
anchor's cluster.  Bits are stored in a Python int: bit ``j`` (LSB = offset
0) corresponds to time ``start + j``.  Fixed-length strings cover one
eta-window (FBA); variable-length strings grow with the stream and close
when ``G + 1`` trailing zeros make any extension impossible (Lemma 7).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.timeseq import TimeSequence, maximal_valid_sequences

OPEN = 0
CLOSED_VALID = 1
CLOSED_INVALID = -1


def ones_positions(bits: int) -> list[int]:
    """Offsets of set bits, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def valid_sequences_of_bits(
    bits: int, start: int, duration: int, l_min: int, gap: int
) -> list[TimeSequence]:
    """Maximal (K, L, G)-valid sequences of a bit string anchored at ``start``."""
    times = [start + offset for offset in ones_positions(bits)]
    return maximal_valid_sequences(times, duration, l_min, gap)


@dataclass(slots=True)
class FixedBitString:
    """Definition 13: an eta-length membership string for one trajectory.

    ``bits`` bit ``j`` is 1 iff the trajectory shares the anchor's cluster
    at time ``start + j``; only offsets in ``[0, length)`` are meaningful.
    """

    start: int
    length: int
    bits: int = 0

    def set_time(self, time: int) -> None:
        """Set the bit of an absolute time inside the window."""
        offset = time - self.start
        if not 0 <= offset < self.length:
            raise ValueError(
                f"time {time} outside window [{self.start}, "
                f"{self.start + self.length - 1}]"
            )
        self.bits |= 1 << offset

    def get_time(self, time: int) -> bool:
        """Whether the bit of an absolute time is set (False outside)."""
        offset = time - self.start
        if not 0 <= offset < self.length:
            return False
        return bool(self.bits >> offset & 1)

    def times(self) -> list[int]:
        """Absolute times whose bits are set, ascending."""
        return [self.start + offset for offset in ones_positions(self.bits)]

    def valid_sequences(
        self, duration: int, l_min: int, gap: int
    ) -> list[TimeSequence]:
        """Maximal (K, L, G)-valid sequences contained in the string."""
        return valid_sequences_of_bits(
            self.bits, self.start, duration, l_min, gap
        )

    def is_valid(self, duration: int, l_min: int, gap: int) -> bool:
        """Whether the string contains at least one valid sequence."""
        return bool(self.valid_sequences(duration, l_min, gap))

    def __str__(self) -> str:
        return "".join(
            "1" if self.bits >> offset & 1 else "0"
            for offset in range(self.length)
        )


@dataclass(slots=True)
class VariableBitString:
    """Definition 14: an unbounded membership string ``<st, et, B>``.

    ``start`` is the time of the first (set) bit; ``length`` counts every
    appended bit, so the string currently covers times ``[start, start +
    length - 1]``.  The paper's ``et`` is :attr:`end` after :meth:`trimmed`.
    """

    start: int
    bits: int = 0
    length: int = 0
    trailing_zeros: int = 0

    @classmethod
    def opened_at(cls, time: int) -> "VariableBitString":
        """A fresh string whose first bit (a 1) is at ``time``."""
        return cls(start=time, bits=1, length=1, trailing_zeros=0)

    @property
    def end(self) -> int:
        """Time of the last appended bit."""
        if self.length == 0:
            raise ValueError("empty variable bit string has no end")
        return self.start + self.length - 1

    @property
    def last_one(self) -> int:
        """Time of the last set bit (``et`` of the trimmed string)."""
        if self.bits == 0:
            raise ValueError("bit string has no set bits")
        return self.start + self.bits.bit_length() - 1

    def append(self, present: bool) -> None:
        """Append one time step (line 4 / line 7 of Algorithm 5)."""
        if present:
            self.bits |= 1 << self.length
            self.trailing_zeros = 0
        else:
            self.trailing_zeros += 1
        self.length += 1

    def status(self, duration: int, l_min: int, gap: int) -> int:
        """Lemma 7 closure check (the paper's ``isValid`` tag).

        Returns ``CLOSED_VALID`` when ``G + 1`` trailing zeros have closed
        the string and it contains a valid sequence, ``CLOSED_INVALID``
        when closed without one, and ``OPEN`` otherwise.
        """
        if self.trailing_zeros < gap + 1:
            return OPEN
        if valid_sequences_of_bits(self.bits, self.start, duration, l_min, gap):
            return CLOSED_VALID
        return CLOSED_INVALID

    def trimmed(self) -> "ClosedBitString":
        """The closed ``<st, et, B>`` triple with trailing zeros removed."""
        if self.bits == 0:
            raise ValueError("cannot trim an all-zero bit string")
        return ClosedBitString(
            oid=-1, start=self.start, end=self.last_one, bits=self.bits
        )

    def __str__(self) -> str:
        return "".join(
            "1" if self.bits >> offset & 1 else "0"
            for offset in range(self.length)
        )


@dataclass(frozen=True, slots=True)
class ClosedBitString:
    """An immutable closed candidate ``<st, et, B>`` owned by ``oid``.

    Closed strings populate VBA's global candidate list ``C``; Lemma 8
    prunes combinations whose aligned window ``[max st, min et]`` is shorter
    than K.
    """

    oid: int
    start: int
    end: int
    bits: int

    def with_oid(self, oid: int) -> "ClosedBitString":
        """Copy of the closed string owned by ``oid``."""
        return ClosedBitString(oid=oid, start=self.start, end=self.end, bits=self.bits)

    def times(self) -> list[int]:
        """Absolute times whose bits are set, ascending."""
        return [self.start + offset for offset in ones_positions(self.bits)]

