"""Error-correcting and error-detecting codes.

Protection mechanisms are central to the paper's stress-test story: the
interesting (rare) failures are those that *bypass* ECC, parity, CRC and
voters.  This module provides the codes the hardware models use:

* :func:`hamming_encode` / :func:`hamming_decode` — SEC-DED Hamming code
  over a single data byte (8 data bits, 4 parity bits + overall parity,
  13 bits total).  Corrects any single bit flip, detects double flips.
* :func:`parity_bit` — even parity over arbitrary-width words.
* :func:`crc15` — the CAN bus CRC-15 polynomial, bit-accurate.
* :func:`crc8` — SAE J1850 CRC-8 used by the sensor message models.
"""

from __future__ import annotations

import typing as _t

# Positions 1..13 (1-indexed); powers of two are parity bits.
_TOTAL_BITS = 13
_PARITY_POSITIONS = (1, 2, 4, 8)
_DATA_POSITIONS = tuple(
    p for p in range(1, _TOTAL_BITS) if p not in _PARITY_POSITIONS
)  # eight positions for the data byte
_OVERALL_POSITION = _TOTAL_BITS  # appended overall parity for DED


def _hamming_encode_ref(byte: int) -> int:
    """Bit-level reference encoder (the spec the table is built from)."""
    bits = [0] * (_TOTAL_BITS + 1)  # 1-indexed
    for i, pos in enumerate(_DATA_POSITIONS):
        bits[pos] = (byte >> i) & 1
    for parity_pos in _PARITY_POSITIONS:
        acc = 0
        for pos in range(1, _OVERALL_POSITION):
            if pos != parity_pos and (pos & parity_pos):
                acc ^= bits[pos]
        bits[parity_pos] = acc
    bits[_OVERALL_POSITION] = 0
    bits[_OVERALL_POSITION] = sum(bits[1:]) & 1  # even overall parity
    word = 0
    for pos in range(1, _TOTAL_BITS + 1):
        word |= bits[pos] << (pos - 1)
    return word


class DecodeResult(_t.NamedTuple):
    """Outcome of a SEC-DED decode."""

    data: int
    corrected: bool  # a single-bit error was corrected
    uncorrectable: bool  # a double-bit error was detected


def _hamming_decode_ref(word: int) -> DecodeResult:
    """Bit-level reference decoder (the spec the table is built from)."""
    bits = [0] * (_TOTAL_BITS + 1)
    for pos in range(1, _TOTAL_BITS + 1):
        bits[pos] = (word >> (pos - 1)) & 1
    syndrome = 0
    for parity_pos in _PARITY_POSITIONS:
        acc = 0
        for pos in range(1, _OVERALL_POSITION):
            if pos & parity_pos:
                acc ^= bits[pos]
        if acc:
            syndrome |= parity_pos
    overall = sum(bits[1:]) & 1  # zero when parity consistent

    corrected = False
    uncorrectable = False
    if syndrome and overall:
        # Single-bit error at position `syndrome` (may be a parity bit).
        if syndrome <= _TOTAL_BITS:
            bits[syndrome] ^= 1
        corrected = True
    elif syndrome and not overall:
        uncorrectable = True
    elif not syndrome and overall:
        # Overall parity bit itself flipped; data unharmed.
        corrected = True

    data = 0
    for i, pos in enumerate(_DATA_POSITIONS):
        data |= bits[pos] << i
    return DecodeResult(data, corrected, uncorrectable)


# ----------------------------------------------------------------------
# Table-driven fast paths.
#
# The ECC memory decodes every byte of every parameter read — in the
# airbag campaign that is four decodes per 1 ms control cycle, which made
# the bit-loop decoder the single hottest function of the whole stress
# loop (~35% of serial run time).  The code spaces are tiny (256 data
# bytes, 8192 codewords), so both directions are precomputed from the
# bit-level reference above; the exhaustive table-vs-reference
# consistency check lives in tests/hw/test_ecc.py.  Tables build lazily
# on first use to keep worker-process import time flat.
# ----------------------------------------------------------------------

_ENCODE_TABLE: _t.Optional[_t.List[int]] = None
_DECODE_TABLE: _t.Optional[_t.List[DecodeResult]] = None


def _encode_table() -> _t.List[int]:
    global _ENCODE_TABLE
    if _ENCODE_TABLE is None:
        _ENCODE_TABLE = [_hamming_encode_ref(b) for b in range(256)]
    return _ENCODE_TABLE


def decode_table() -> _t.List[DecodeResult]:
    """Every codeword's :class:`DecodeResult`, indexed by codeword.

    Hot readers index it directly instead of calling
    :func:`hamming_decode` per byte; the index must be a 13-bit
    codeword, which is all an ECC memory can hold.
    """
    global _DECODE_TABLE
    if _DECODE_TABLE is None:
        _DECODE_TABLE = [
            _hamming_decode_ref(w) for w in range(1 << _TOTAL_BITS)
        ]
    return _DECODE_TABLE


def hamming_encode(byte: int) -> int:
    """Encode one data byte into a 13-bit SEC-DED codeword."""
    table = _ENCODE_TABLE
    if table is None:
        table = _encode_table()
    if not 0 <= byte <= 0xFF:
        raise ValueError(f"data byte out of range: {byte}")
    return table[byte]


def hamming_decode(word: int) -> DecodeResult:
    """Decode a 13-bit codeword, correcting single-bit errors.

    For an uncorrectable (double) error the returned data is the best
    effort extraction and must not be trusted — exactly like a real
    SEC-DED memory, which flags the access instead.
    """
    table = _DECODE_TABLE
    if table is None:
        table = decode_table()
    if not 0 <= word < (1 << _TOTAL_BITS):
        raise ValueError(f"codeword out of range: {word:#x}")
    return table[word]


def parity_bit(value: int, width: int = 8) -> int:
    """Even-parity bit over the low *width* bits of *value*."""
    acc = 0
    for i in range(width):
        acc ^= (value >> i) & 1
    return acc


def crc15(bits: _t.Sequence[int]) -> int:
    """CAN CRC-15 (polynomial 0x4599) over a bit sequence (MSB first)."""
    crc = 0
    for bit in bits:
        crc_next = ((crc >> 14) & 1) ^ (bit & 1)
        crc = (crc << 1) & 0x7FFF
        if crc_next:
            crc ^= 0x4599
    return crc


def crc8(data: _t.Iterable[int]) -> int:
    """SAE J1850 CRC-8 (polynomial 0x1D, init 0xFF, xorout 0xFF)."""
    crc = 0xFF
    for byte in data:
        crc ^= byte & 0xFF
        for _ in range(8):
            if crc & 0x80:
                crc = ((crc << 1) ^ 0x1D) & 0xFF
            else:
                crc = (crc << 1) & 0xFF
    return crc ^ 0xFF
