"""Unit and property tests for repro.utils.bitvec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bitvec import (
    BitVector,
    PackedPatterns,
    as_packed,
    ints_to_bitvectors,
    pack_patterns,
    pack_patterns_scalar,
    unpack_words,
    unpack_words_scalar,
)


class TestBitVectorConstruction:
    def test_value_and_width(self):
        v = BitVector(0b1010, 4)
        assert v.value == 10
        assert v.width == 4
        assert len(v) == 4

    def test_value_is_masked_to_width(self):
        assert BitVector(0b11111, 3).value == 0b111

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            BitVector(0, 0)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            BitVector(-1, 4)

    def test_from_bits_lsb_first(self):
        v = BitVector.from_bits([0, 1, 0, 1])
        assert v.value == 0b1010

    def test_from_bits_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitVector.from_bits([0, 2])

    def test_from_bits_rejects_empty(self):
        with pytest.raises(ValueError):
            BitVector.from_bits([])

    def test_from_string_msb_first(self):
        assert BitVector.from_string("1010").value == 10

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError):
            BitVector.from_string("10x0")

    @given(st.text(alphabet="01_ b2\u0661", max_size=12))
    def test_from_string_matches_per_character_rule(self, text):
        """Acceptance and value follow the per-character rule: after
        stripping and dropping underscores, the text is non-empty and
        every character is 0 or 1 (an Arabic-Indic one, which ``int``
        would read as 1, is rejected)."""
        stripped = text.strip().replace("_", "")
        if stripped and all(c in "01" for c in stripped):
            vector = BitVector.from_string(text)
            assert (vector.value, vector.width) == (int(stripped, 2), len(stripped))
        else:
            with pytest.raises(ValueError, match="not a binary string"):
                BitVector.from_string(text)

    def test_zeros_and_ones(self):
        assert BitVector.zeros(5).value == 0
        assert BitVector.ones(5).value == 31

    def test_random_respects_width(self, rng):
        for _ in range(50):
            assert BitVector.random(7, rng).value < 128


class TestBitVectorAccess:
    def test_bit_indexing(self):
        v = BitVector(0b0110, 4)
        assert [v[i] for i in range(4)] == [0, 1, 1, 0]

    def test_bit_out_of_range(self):
        with pytest.raises(IndexError):
            BitVector(0, 4).bit(4)

    def test_bits_roundtrip(self):
        bits = [1, 0, 0, 1, 1]
        assert BitVector.from_bits(bits).bits() == bits

    def test_set_bit(self):
        v = BitVector(0b0000, 4).set_bit(2, 1)
        assert v.value == 0b0100
        assert v.set_bit(2, 0).value == 0

    def test_set_bit_is_nonmutating(self):
        v = BitVector(0, 4)
        v.set_bit(0, 1)
        assert v.value == 0

    def test_popcount(self):
        assert BitVector(0b1011, 4).popcount() == 3

    def test_slice(self):
        v = BitVector(0b110100, 6)
        assert v.slice(2, 3).value == 0b101

    def test_slice_out_of_range(self):
        with pytest.raises(ValueError):
            BitVector(0, 4).slice(2, 4)

    def test_concat_low_bits_first(self):
        low = BitVector(0b01, 2)
        high = BitVector(0b11, 2)
        assert low.concat(high).value == 0b1101

    def test_resized_extends_and_truncates(self):
        v = BitVector(0b101, 3)
        assert v.resized(5).value == 0b101
        assert v.resized(2).value == 0b01

    def test_to_string_msb_first(self):
        assert BitVector(0b0011, 4).to_string() == "0011"


class TestBitVectorArithmetic:
    def test_add_wraps(self):
        a = BitVector(0b1111, 4)
        assert (a + BitVector(1, 4)).value == 0

    def test_sub_wraps(self):
        a = BitVector(0, 4)
        assert (a - BitVector(1, 4)).value == 15

    def test_mul_wraps(self):
        a = BitVector(5, 4)
        assert (a * BitVector(5, 4)).value == 25 % 16

    def test_bitwise_ops(self):
        a, b = BitVector(0b1100, 4), BitVector(0b1010, 4)
        assert (a & b).value == 0b1000
        assert (a | b).value == 0b1110
        assert (a ^ b).value == 0b0110
        assert (~a).value == 0b0011

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BitVector(0, 4) + BitVector(0, 5)

    def test_equality_requires_width(self):
        assert BitVector(1, 4) != BitVector(1, 5)
        assert BitVector(1, 4) == BitVector(1, 4)

    def test_hashable(self):
        assert len({BitVector(1, 4), BitVector(1, 4), BitVector(2, 4)}) == 2


class TestPacking:
    def test_pack_empty(self):
        assert pack_patterns([], 4).shape == (4, 0)

    def test_pack_single_pattern(self):
        words = pack_patterns([BitVector(0b101, 3)], 3)
        assert words.shape == (3, 1)
        assert int(words[0, 0]) == 1  # bit 0 of pattern 0 -> word bit 0
        assert int(words[1, 0]) == 0
        assert int(words[2, 0]) == 1

    def test_pack_width_mismatch(self):
        with pytest.raises(ValueError):
            pack_patterns([BitVector(0, 3)], 4)

    def test_pack_crosses_word_boundary(self):
        patterns = [BitVector(i & 1, 1) for i in range(70)]
        words = pack_patterns(patterns, 1)
        assert words.shape == (1, 2)
        recovered = unpack_words(words, 70)
        assert recovered == patterns

    @given(
        st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=130)
    )
    def test_pack_unpack_roundtrip(self, values):
        patterns = ints_to_bitvectors(values, 8)
        words = pack_patterns(patterns, 8)
        assert unpack_words(words, len(patterns)) == patterns

    def test_words_dtype(self):
        words = pack_patterns([BitVector(1, 2)], 2)
        assert words.dtype == np.uint64


#: Pattern-list strategy over the widths the satellite audit calls out:
#: 1..130 covers sub-byte, byte-, word- and multi-word-wide patterns.
@st.composite
def pattern_lists(draw):
    width = draw(st.integers(min_value=1, max_value=130))
    n_patterns = draw(st.integers(min_value=0, max_value=140))
    rnd = draw(st.randoms(use_true_random=False))
    return [
        BitVector(rnd.getrandbits(width), width) for _ in range(n_patterns)
    ], width


class TestVectorizedScalarDifferential:
    """The vectorized pack/unpack must be bit-identical to the scalar
    reference, including at pattern counts ≢ 0 (mod 64) and widths that
    straddle byte and word boundaries."""

    @given(pattern_lists())
    def test_pack_matches_scalar(self, patterns_width):
        patterns, width = patterns_width
        vectorized = pack_patterns(patterns, width)
        scalar = pack_patterns_scalar(patterns, width)
        assert vectorized.dtype == scalar.dtype == np.uint64
        np.testing.assert_array_equal(vectorized, scalar)

    @given(pattern_lists())
    def test_unpack_matches_scalar_and_roundtrips(self, patterns_width):
        patterns, width = patterns_width
        words = pack_patterns(patterns, width)
        n_patterns = len(patterns)
        assert (
            unpack_words(words, n_patterns)
            == unpack_words_scalar(words, n_patterns)
            == patterns
        )

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64, 65, 130])
    @pytest.mark.parametrize("n_patterns", [1, 63, 64, 65, 128, 129])
    def test_word_boundary_grid(self, width, n_patterns):
        patterns = [
            BitVector((i * 0x9E3779B97F4A7C15) & ((1 << width) - 1), width)
            for i in range(n_patterns)
        ]
        np.testing.assert_array_equal(
            pack_patterns(patterns, width), pack_patterns_scalar(patterns, width)
        )
        assert unpack_words(pack_patterns(patterns, width), n_patterns) == patterns

    def test_unpack_rejects_overflow(self):
        with pytest.raises(ValueError):
            unpack_words(np.zeros((3, 1), dtype=np.uint64), 65)


class TestPackedPatterns:
    def _patterns(self, n, width=5, seed=99):
        return [
            BitVector((i * 73 + seed) & ((1 << width) - 1), width)
            for i in range(n)
        ]

    def test_from_patterns_and_len(self):
        patterns = self._patterns(70)
        packed = PackedPatterns.from_patterns(patterns, 5)
        assert len(packed) == 70 and packed.width == 5 and packed.n_words == 2
        assert packed.unpack() == patterns

    def test_bool_and_empty(self):
        assert not PackedPatterns.from_patterns([], 4)
        assert PackedPatterns.from_patterns(self._patterns(1), 5)

    def test_tail_mask(self):
        packed = PackedPatterns.from_patterns(self._patterns(65), 5)
        mask = packed.tail_mask()
        assert mask.shape == (2,)
        assert int(mask[0]) == 0xFFFFFFFFFFFFFFFF and int(mask[1]) == 1

    def test_tail_mask_oversize_buffer(self):
        """A buffer with more words than n_patterns needs must mask the
        surplus words to zero, not misplace the tail."""
        packed = PackedPatterns(np.zeros((2, 3), dtype=np.uint64), 10)
        mask = packed.tail_mask()
        assert mask.tolist() == [(1 << 10) - 1, 0, 0]

    @pytest.mark.parametrize(
        "start,stop", [(0, 0), (0, 64), (0, 70), (64, 70), (3, 70), (65, 69), (1, 2)]
    )
    def test_slice_matches_list_slice(self, start, stop):
        patterns = self._patterns(70)
        packed = PackedPatterns.from_patterns(patterns, 5)
        assert packed.slice(start, stop).unpack() == patterns[start:stop]

    @given(
        n=st.integers(0, 140),
        cut=st.tuples(st.integers(0, 140), st.integers(0, 140)),
    )
    def test_slice_property(self, n, cut):
        start, stop = sorted((min(c, n) for c in cut))
        patterns = self._patterns(n, width=9)
        packed = PackedPatterns.from_patterns(patterns, 9)
        assert packed.slice(start, stop).unpack() == patterns[start:stop]

    def test_slice_out_of_range(self):
        packed = PackedPatterns.from_patterns(self._patterns(10), 5)
        with pytest.raises(ValueError):
            packed.slice(3, 11)

    def test_as_packed_passthrough_and_width_check(self):
        packed = PackedPatterns.from_patterns(self._patterns(10), 5)
        assert as_packed(packed, 5) is packed
        with pytest.raises(ValueError):
            as_packed(packed, 6)

    def test_as_packed_packs_sequences(self):
        patterns = self._patterns(10)
        packed = as_packed(patterns, 5)
        np.testing.assert_array_equal(
            packed.words, pack_patterns(patterns, 5)
        )
