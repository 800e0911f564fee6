"""Posting-list compression codecs (related work: Zobel, Moffat &
Sacks-Davis).

The paper's evaluation folds compression into two knobs — ``BlockPosting``
"implicitly models the efficiency of the compression algorithm applied to
long lists" — and its related-work section points at Zobel et al.'s
compression methods as complementary.  This module supplies the classic
gap-compression family those methods build on, so the implicit knob can be
grounded in measured bytes per posting:

* **varint** (LEB128 on gaps) — the codec the content-mode disks use;
* **Elias gamma** — unary length prefix + binary remainder; excellent for
  the tiny gaps of frequent words' lists;
* **Elias delta** — gamma-coded length + binary remainder; better for the
  larger gaps of rare words' lists.

All codecs operate on strictly increasing doc-id sequences via their gap
transform (``gap = id - prev - 1``), and all are exact inverses (property
tested).  :func:`implied_block_postings` converts a measured bytes/posting
rate into the ``BlockPosting`` value it implies for a given block size —
connecting the measurement back to the paper's parameter.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .postings import decode_doc_ids, encode_doc_ids


class BitWriter:
    """Append bits MSB-first into a growing byte buffer."""

    def __init__(self) -> None:
        self._out = bytearray()
        self._bit = 0  # bits used in the trailing byte

    def write_bit(self, bit: int) -> None:
        if self._bit == 0:
            self._out.append(0)
        if bit:
            self._out[-1] |= 1 << (7 - self._bit)
        self._bit = (self._bit + 1) % 8

    def write_bits(self, value: int, nbits: int) -> None:
        for shift in range(nbits - 1, -1, -1):
            self.write_bit((value >> shift) & 1)

    def write_unary(self, n: int) -> None:
        """``n`` zeros followed by a one."""
        for _ in range(n):
            self.write_bit(0)
        self.write_bit(1)

    def getvalue(self) -> bytes:
        return bytes(self._out)


class BitReader:
    """Read bits MSB-first from a byte buffer."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0  # absolute bit position

    def read_bit(self) -> int:
        if self._pos >= len(self._data) * 8:
            raise ValueError("bit stream exhausted")
        byte = self._data[self._pos // 8]
        bit = (byte >> (7 - self._pos % 8)) & 1
        self._pos += 1
        return bit

    def read_bits(self, nbits: int) -> int:
        value = 0
        for _ in range(nbits):
            value = (value << 1) | self.read_bit()
        return value

    def read_unary(self) -> int:
        n = 0
        while self.read_bit() == 0:
            n += 1
        return n


# -- Elias gamma / delta over positive integers ----------------------------------


def _gamma_write(writer: BitWriter, value: int) -> None:
    """Gamma-code a positive integer: unary(len-1) + low bits."""
    if value <= 0:
        raise ValueError("gamma codes positive integers only")
    nbits = value.bit_length()
    writer.write_unary(nbits - 1)
    writer.write_bits(value - (1 << (nbits - 1)), nbits - 1)


def _gamma_read(reader: BitReader) -> int:
    nbits = reader.read_unary() + 1
    return (1 << (nbits - 1)) | reader.read_bits(nbits - 1)


def _delta_write(writer: BitWriter, value: int) -> None:
    """Delta-code a positive integer: gamma(len) + low bits."""
    if value <= 0:
        raise ValueError("delta codes positive integers only")
    nbits = value.bit_length()
    _gamma_write(writer, nbits)
    writer.write_bits(value - (1 << (nbits - 1)), nbits - 1)


def _delta_read(reader: BitReader) -> int:
    nbits = _gamma_read(reader)
    return (1 << (nbits - 1)) | reader.read_bits(nbits - 1)


def _encode_gaps(doc_ids: Sequence[int], write) -> bytes:
    writer = BitWriter()
    prev = -1
    for doc in doc_ids:
        if doc <= prev:
            raise ValueError(
                f"doc ids must be strictly increasing; {doc} after {prev}"
            )
        write(writer, doc - prev)  # gaps >= 1: gamma/delta-friendly
        prev = doc
    return writer.getvalue()


def _decode_gaps(data: bytes, count: int, read) -> list[int]:
    reader = BitReader(data)
    out: list[int] = []
    prev = -1
    for _ in range(count):
        prev = prev + read(reader)
        out.append(prev)
    return out


def gamma_encode(doc_ids: Sequence[int]) -> bytes:
    """Elias-gamma gap encoding of a strictly increasing sequence."""
    return _encode_gaps(doc_ids, _gamma_write)


def gamma_decode(data: bytes, count: int) -> list[int]:
    """Decode ``count`` doc ids from a gamma stream."""
    return _decode_gaps(data, count, _gamma_read)


def delta_encode(doc_ids: Sequence[int]) -> bytes:
    """Elias-delta gap encoding of a strictly increasing sequence."""
    return _encode_gaps(doc_ids, _delta_write)


def delta_decode(data: bytes, count: int) -> list[int]:
    """Decode ``count`` doc ids from a delta stream."""
    return _decode_gaps(data, count, _delta_read)


CODECS = {
    "varint": (
        lambda ids: encode_doc_ids(ids),
        lambda data, count: decode_doc_ids(data),
    ),
    "gamma": (gamma_encode, gamma_decode),
    "delta": (delta_encode, delta_decode),
}


def bytes_per_posting(codec: str, doc_ids: Sequence[int]) -> float:
    """Measured compression rate of one list under a codec."""
    if not doc_ids:
        return 0.0
    encode, _ = CODECS[codec]
    return len(encode(doc_ids)) / len(doc_ids)


def implied_block_postings(
    bytes_per_posting_rate: float, block_size: int
) -> int:
    """The ``BlockPosting`` value a compression rate implies.

    The paper's Table-4 knob made concrete: a 4 KB block holds
    ``block_size / rate`` postings at the measured rate.
    """
    if bytes_per_posting_rate <= 0 or block_size <= 0:
        raise ValueError("rate and block_size must be > 0")
    return max(1, int(block_size / bytes_per_posting_rate))
