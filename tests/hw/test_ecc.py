"""Unit and property-based tests for the ECC/CRC primitives."""

import pytest
from hypothesis import given, strategies as st

from repro.hw import ecc


class TestHammingBasics:
    def test_round_trip_no_error(self):
        for byte in (0x00, 0x01, 0x55, 0xAA, 0xFF):
            word = ecc.hamming_encode(byte)
            result = ecc.hamming_decode(word)
            assert result.data == byte
            assert not result.corrected
            assert not result.uncorrectable

    def test_encode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ecc.hamming_encode(256)
        with pytest.raises(ValueError):
            ecc.hamming_encode(-1)

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ecc.hamming_decode(1 << 13)


class TestHammingProperties:
    @given(st.integers(0, 255))
    def test_round_trip(self, byte):
        assert ecc.hamming_decode(ecc.hamming_encode(byte)).data == byte

    @given(st.integers(0, 255), st.integers(0, 12))
    def test_single_flip_corrected(self, byte, bit):
        word = ecc.hamming_encode(byte) ^ (1 << bit)
        result = ecc.hamming_decode(word)
        assert result.data == byte
        assert result.corrected
        assert not result.uncorrectable

    @given(
        st.integers(0, 255),
        st.integers(0, 12),
        st.integers(0, 12),
    )
    def test_double_flip_detected(self, byte, bit_a, bit_b):
        if bit_a == bit_b:
            return  # flips cancel; nothing to detect
        word = ecc.hamming_encode(byte) ^ (1 << bit_a) ^ (1 << bit_b)
        result = ecc.hamming_decode(word)
        assert result.uncorrectable

    @given(st.integers(0, 255))
    def test_codewords_have_min_distance_related_uniqueness(self, byte):
        # Two different data bytes never share a codeword.
        word = ecc.hamming_encode(byte)
        other = (byte + 1) & 0xFF
        assert ecc.hamming_encode(other) != word


class TestParity:
    def test_even_parity(self):
        assert ecc.parity_bit(0b0000) == 0
        assert ecc.parity_bit(0b0001) == 1
        assert ecc.parity_bit(0b0011) == 0
        assert ecc.parity_bit(0xFF) == 0

    @given(st.integers(0, 2**16 - 1), st.integers(0, 15))
    def test_flip_changes_parity(self, value, bit):
        before = ecc.parity_bit(value, width=16)
        after = ecc.parity_bit(value ^ (1 << bit), width=16)
        assert before != after


class TestCrc15:
    def test_empty_sequence(self):
        assert ecc.crc15([]) == 0

    def test_known_nonzero(self):
        assert ecc.crc15([1]) == 0x4599

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64))
    def test_deterministic(self, bits):
        assert ecc.crc15(bits) == ecc.crc15(bits)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=64), st.data())
    def test_single_bit_flip_detected(self, bits, data):
        index = data.draw(st.integers(0, len(bits) - 1))
        flipped = list(bits)
        flipped[index] ^= 1
        assert ecc.crc15(bits) != ecc.crc15(flipped)

    def test_fits_in_15_bits(self):
        for pattern in ([1] * 64, [0, 1] * 32, [1, 0, 0, 1] * 16):
            assert 0 <= ecc.crc15(pattern) < (1 << 15)


class TestCrc8:
    def test_deterministic_and_8bit(self):
        value = ecc.crc8(b"\x01\x02\x03")
        assert value == ecc.crc8(b"\x01\x02\x03")
        assert 0 <= value <= 0xFF

    @given(st.binary(min_size=1, max_size=32), st.data())
    def test_byte_corruption_detected(self, payload, data):
        index = data.draw(st.integers(0, len(payload) - 1))
        bit = data.draw(st.integers(0, 7))
        corrupted = bytearray(payload)
        corrupted[index] ^= 1 << bit
        assert ecc.crc8(payload) != ecc.crc8(corrupted)


class TestHammingTables:
    """The table-driven fast path vs. the bitwise reference.

    ``hamming_encode``/``hamming_decode`` answer from precomputed
    lookup tables (they sit on the campaign hot path — one decode per
    ECC-protected read); the bitwise implementations survive as
    ``_hamming_encode_ref``/``_hamming_decode_ref``.  The spaces are
    small enough to check *exhaustively*, so no table entry can drift
    from the reference semantics unnoticed.
    """

    def test_encode_table_matches_reference_exhaustively(self):
        for byte in range(256):
            assert ecc.hamming_encode(byte) == ecc._hamming_encode_ref(byte)

    def test_decode_table_matches_reference_exhaustively(self):
        for word in range(1 << ecc._TOTAL_BITS):
            assert ecc.hamming_decode(word) == ecc._hamming_decode_ref(word)

    def test_tables_are_built_once(self):
        ecc.hamming_encode(0)
        ecc.hamming_decode(0)
        assert ecc._ENCODE_TABLE is ecc._encode_table()
        assert ecc._DECODE_TABLE is ecc.decode_table()
