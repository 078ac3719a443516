"""Bit-string algebra tests (Definitions 13-14, Lemma 7)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.enumeration.bitstring import (
    CLOSED_INVALID,
    CLOSED_VALID,
    OPEN,
    FixedBitString,
    VariableBitString,
    ones_positions,
    valid_sequences_of_bits,
)
from repro.model.timeseq import TimeSequence, maximal_valid_sequences


class TestOnesPositions:
    def test_empty(self):
        assert ones_positions(0) == []

    def test_pattern(self):
        assert ones_positions(0b101101) == [0, 2, 3, 5]

    def test_beyond_64_bits(self):
        """Python ints are unbounded; offsets past one uint64 word work."""
        bits = (1 << 200) | (1 << 64) | (1 << 63) | 0b101
        assert ones_positions(bits) == [0, 2, 63, 64, 200]

    def test_single_high_bit(self):
        assert ones_positions(1 << 100) == [100]

    @given(st.integers(min_value=0, max_value=2**64))
    def test_roundtrip(self, bits):
        rebuilt = 0
        for offset in ones_positions(bits):
            rebuilt |= 1 << offset
        assert rebuilt == bits

    @given(st.integers(min_value=0, max_value=2**200))
    def test_roundtrip_wide(self, bits):
        """The reconstruction property holds far past 64 bits."""
        rebuilt = 0
        for offset in ones_positions(bits):
            rebuilt |= 1 << offset
        assert rebuilt == bits


class TestFixedBitString:
    def test_paper_fig8(self):
        """P3(o4) bit strings: B[o5]=111111, B[o6]=110111, B[o7]=110011,
        B[o8]=100000 over the window starting at time 3 with eta=6."""
        memberships = {
            5: [3, 4, 5, 6, 7, 8],
            6: [3, 4, 6, 7, 8],
            7: [3, 4, 7, 8],
            8: [3],
        }
        rendered = {}
        for oid, times in memberships.items():
            bs = FixedBitString(start=3, length=6)
            for t in times:
                bs.set_time(t)
            rendered[oid] = str(bs)
        assert rendered == {
            5: "111111", 6: "110111", 7: "110011", 8: "100000"
        }

    def test_paper_fig8_validity(self):
        """Candidate filter under Definition 3's gap semantics.

        Fidelity note: the paper's Fig. 8 calls 110011 (times {3,4,7,8})
        valid under (K=4, L=2, G=2), which requires reading G as "missing
        slots between segments" (difference <= G+1).  That reading
        contradicts Definition 3 (``T[i+1] - T[i] <= G``) and the Lemma 6
        walk-through (6 - 3 = 3 > 2 discards), so this repository follows
        the formal definition: 110011's 4->7 jump (difference 3) breaks
        G-connectivity and no 4-long valid sequence remains.
        """
        valid = {
            "111111": True, "110111": True, "110011": False, "100000": False
        }
        for text, expected in valid.items():
            bs = FixedBitString(start=3, length=6)
            for offset, bit in enumerate(text):
                if bit == "1":
                    bs.set_time(3 + offset)
            assert bs.is_valid(4, 2, 2) is expected, text
        # Under the relaxed reading (difference <= G+1, i.e. G'=3 here),
        # 110011 is valid -- the setting Fig. 8 appears to use.
        bs = FixedBitString(start=3, length=6)
        for offset, bit in enumerate("110011"):
            if bit == "1":
                bs.set_time(3 + offset)
        assert bs.is_valid(4, 2, 3)

    def test_out_of_window_raises(self):
        bs = FixedBitString(start=5, length=3)
        with pytest.raises(ValueError):
            bs.set_time(8)
        with pytest.raises(ValueError):
            bs.set_time(4)

    def test_get_time(self):
        bs = FixedBitString(start=2, length=4)
        bs.set_time(3)
        assert bs.get_time(3) and not bs.get_time(2)
        assert not bs.get_time(99)


class TestPaperFig8AndSemantics:
    def _bits(self, text, start):
        value = 0
        for offset, bit in enumerate(text):
            if bit == "1":
                value |= 1 << offset
        return value

    def test_and_combination(self):
        """B[{o5,o6}] = 110111 and B[{o5,o6,o7}] = 110011 (Fig. 8).

        The AND algebra matches the figure exactly; the validity of the
        triple's string differs between Definition 3's gap semantics
        (invalid: 4 -> 7 jumps by 3 > G=2) and the figure's relaxed
        reading (valid with G'=3).  See test_paper_fig8_validity.
        """
        b5 = self._bits("111111", 3)
        b6 = self._bits("110111", 3)
        b7 = self._bits("110011", 3)
        assert b5 & b6 == b6
        assert b5 & b6 & b7 == b7
        # Validity of the combined strings under (K,L,G) = (4,2,2).
        assert valid_sequences_of_bits(b5 & b6, 3, 4, 2, 2)
        assert valid_sequences_of_bits(b5 & b6 & b7, 3, 4, 2, 2) == []
        [seq] = valid_sequences_of_bits(b5 & b6 & b7, 3, 4, 2, 3)
        assert seq == TimeSequence([3, 4, 7, 8])


class TestVariableBitString:
    def test_opened_at(self):
        vbs = VariableBitString.opened_at(5)
        assert vbs.start == 5 and vbs.length == 1 and str(vbs) == "1"
        assert vbs.end == 5 and vbs.last_one == 5

    def test_append_tracks_trailing_zeros(self):
        vbs = VariableBitString.opened_at(1)
        vbs.append(False)
        vbs.append(False)
        assert vbs.trailing_zeros == 2
        vbs.append(True)
        assert vbs.trailing_zeros == 0

    def test_lemma7_closure(self):
        """G+1 trailing zeros close the string (K=2, L=1, G=1)."""
        vbs = VariableBitString.opened_at(1)
        vbs.append(True)                      # 11
        assert vbs.status(2, 1, 1) == OPEN
        vbs.append(False)
        assert vbs.status(2, 1, 1) == OPEN    # one zero < G+1
        vbs.append(False)
        assert vbs.status(2, 1, 1) == CLOSED_VALID

    def test_closure_invalid_when_no_valid_sequence(self):
        vbs = VariableBitString.opened_at(1)  # single 1: K=2 unreachable
        vbs.append(False)
        vbs.append(False)
        assert vbs.status(2, 1, 1) == CLOSED_INVALID

    @pytest.mark.parametrize("gap", [1, 2, 3, 5])
    def test_lemma7_closes_exactly_at_gap_plus_one_zeros(self, gap):
        """The string stays OPEN through G trailing zeros and closes on
        the (G+1)-th — the exact Lemma-7 boundary, for every gap."""
        vbs = VariableBitString.opened_at(1)
        vbs.append(True)  # 11: valid for (K=2, L=1, G=gap)
        for _zeros in range(gap):
            vbs.append(False)
            assert vbs.status(2, 1, gap) == OPEN, vbs.trailing_zeros
        vbs.append(False)  # the (G+1)-th zero
        assert vbs.trailing_zeros == gap + 1
        assert vbs.status(2, 1, gap) == CLOSED_VALID

    def test_lemma7_reset_by_intervening_one(self):
        """A one arriving at G trailing zeros resets the counter, so the
        string survives and needs a fresh run of G+1 zeros to close."""
        gap = 2
        vbs = VariableBitString.opened_at(1)
        vbs.append(True)  # 11: valid prefix for (K=2, L=1, G=2)
        for _zeros in range(gap):
            vbs.append(False)
        assert vbs.trailing_zeros == gap
        vbs.append(True)  # resets at exactly G zeros -> still open
        assert vbs.trailing_zeros == 0
        for _zeros in range(gap):
            vbs.append(False)
            assert vbs.status(2, 1, gap) == OPEN
        vbs.append(False)  # fresh (G+1)-th zero finally closes
        assert vbs.status(2, 1, gap) == CLOSED_VALID

    def test_trimmed(self):
        vbs = VariableBitString.opened_at(2)
        for bit in (True, True, False, False):
            vbs.append(bit)
        closed = vbs.trimmed().with_oid(9)
        assert (closed.oid, closed.start, closed.end) == (9, 2, 4)
        assert closed.times() == [2, 3, 4]

    def test_paper_fig9_variable_strings(self):
        """Subtask of o4: <2,8,1111111>, <3,8,110111>, <3,8,110011>."""
        memberships = {
            5: (2, [2, 3, 4, 5, 6, 7, 8]),
            6: (3, [3, 4, 6, 7, 8]),
            7: (3, [3, 4, 7, 8]),
        }
        for oid, (start, times) in memberships.items():
            vbs = VariableBitString.opened_at(start)
            for t in range(start + 1, 9):
                vbs.append(t in times)
            closed = vbs.trimmed().with_oid(oid)
            assert closed.start == start and closed.end == 8
            assert closed.times() == times


class TestValidSequencesOfBits:
    def test_zero_bits(self):
        assert valid_sequences_of_bits(0, 5, 1, 1, 1) == []

    def test_sequence_at_window_start(self):
        """A valid run beginning at offset 0 maps to absolute ``start``."""
        [seq] = valid_sequences_of_bits(0b111, 10, 3, 1, 1)
        assert seq == TimeSequence([10, 11, 12])

    def test_sequence_at_window_end(self):
        """A run ending at the last meaningful offset of an eta window."""
        eta = 6
        bits = 0b111 << (eta - 3)  # offsets 3..5 of a 6-long window
        [seq] = valid_sequences_of_bits(bits, 3, 3, 2, 2)
        assert seq == TimeSequence([6, 7, 8])

    def test_exactly_k_times_spanning_whole_window(self):
        """A sequence exactly filling a K-long window is valid (the
        length-vs-difference boundary the VBA deviation note fixes)."""
        assert valid_sequences_of_bits(0b1111, 0, 4, 1, 1)
        assert valid_sequences_of_bits(0b111, 0, 4, 1, 1) == []

    def test_boundary_segments_chain_across_gap(self):
        """First and last window offsets chain when the gap fits."""
        # offsets 0,1 and 4,5: gap of 2 missing slots -> difference 3.
        bits = 0b110011
        assert valid_sequences_of_bits(bits, 0, 4, 2, 3)
        assert valid_sequences_of_bits(bits, 0, 4, 2, 2) == []

    def test_beyond_64_bit_window(self):
        """Sequences extract correctly past the first uint64 word."""
        bits = ((1 << 70) - 1) ^ ((1 << 5) - 1)  # offsets 5..69 set
        [seq] = valid_sequences_of_bits(bits, 100, 60, 2, 2)
        assert seq.times == tuple(range(105, 170))

    @given(st.integers(0, 2**20), st.integers(1, 5), st.integers(1, 3),
           st.integers(1, 3))
    def test_matches_timeseq_decomposition(self, bits, k, l, g):
        if l > k:
            return
        start = 7
        times = [start + o for o in ones_positions(bits)]
        assert valid_sequences_of_bits(bits, start, k, l, g) == (
            maximal_valid_sequences(times, k, l, g)
        )
