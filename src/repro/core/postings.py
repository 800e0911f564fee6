"""Posting payloads: the contents of inverted lists.

The paper evaluates its index using only list *sizes* ("we do not need to
know the contents of each inverted list, only its size", Section 4.2), while
a real retrieval system stores document identifiers.  To keep one code path
for both — so that the evaluated algorithms and the usable library cannot
diverge — buckets and long lists operate on a *payload* abstraction with two
implementations:

* :class:`CountPostings` — a bare posting count; what the paper's pipeline
  manipulates.  Constant-size, fast: the benchmarks use it.
* :class:`DocPostings` — a strictly increasing sequence of document ids
  (documents are numbered in arrival order, so appends keep lists sorted —
  the property the paper's merge-based query processing relies on).  Encodes
  to bytes with delta + varint compression for the content-mode disks.

Payloads support the operations the dual-structure algorithms need:
``len``, ``extend`` (append a newer payload), and ``split`` (used by the
``fill`` style's WRITE primitive, which peels off at most one extent's worth
of postings at a time).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, Protocol, runtime_checkable


# ---------------------------------------------------------------------------
# varint codec (LEB128, unsigned)
# ---------------------------------------------------------------------------


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError(f"varint requires value >= 0, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one varint from ``data`` at ``offset``.

    Returns ``(value, next_offset)``.  Raises ``ValueError`` on truncation.
    """
    value = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        byte = data[pos]
        value |= (byte & 0x7F) << shift
        pos += 1
        if not byte & 0x80:
            return value, pos
        shift += 7


# Byte -> id-step table for blocks whose gaps all fit one varint byte:
# a stored byte ``b`` (gap - 1) is an id step of ``b + 1``.
_PLUS_ONE = bytes(range(1, 256)) + b"\x00"


def encode_doc_ids(doc_ids: Iterable[int]) -> bytes:
    """Delta + varint encode a strictly increasing doc-id sequence.

    The leading id is stored absolute, every later one as ``gap - 1``.
    """
    return encode_gaps(-1, doc_ids)


def encode_gaps(last: int, doc_ids: Iterable[int]) -> bytes:
    """The bytes strictly increasing ``doc_ids`` add to the encoding of
    a sequence that ends at ``last``: ``encode_doc_ids(a + b) ==
    encode_doc_ids(a) + encode_gaps(a[-1], b)``.  Every id is stored as
    its gap from the one before it, minus one, so a leading id stored
    absolute is its gap from -1 and ``encode_doc_ids(b)`` is
    ``encode_gaps(-1, b)``."""
    out = bytearray()
    for doc in doc_ids:
        gap = doc - last - 1
        if gap < 0:
            raise ValueError(
                f"doc ids must be strictly increasing; {doc} after {last}"
            )
        while gap > 0x7F:
            out.append(gap & 0x7F | 0x80)
            gap >>= 7
        out.append(gap)
        last = doc
    return bytes(out)


def decode_doc_ids(data: bytes) -> list[int]:
    """Inverse of :func:`encode_doc_ids`."""
    if not data:
        return []
    if data[-1] & 0x80:
        raise ValueError("truncated varint")
    first = shift = 0
    for pos, byte in enumerate(data, 1):
        first |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
    tail = data[pos:]
    if tail.isascii():
        # Every gap is one byte — each block of a frequent word.
        return list(accumulate(tail.translate(_PLUS_ONE), initial=first))
    out = [first]
    gap = shift = 0
    for byte in tail:
        if byte & 0x80:
            gap |= (byte & 0x7F) << shift
            shift += 7
        else:
            first += (gap | byte << shift) + 1
            out.append(first)
            gap = shift = 0
    return out


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------


@runtime_checkable
class PostingPayload(Protocol):
    """What buckets and long lists need from list contents."""

    def __len__(self) -> int: ...

    def extend(self, other: "PostingPayload") -> None:
        """Append a newer payload (documents arrive in id order)."""

    def split(self, npostings: int) -> tuple["PostingPayload", "PostingPayload"]:
        """Return ``(head, tail)`` with ``len(head) == min(npostings, len)``."""

    def copy(self) -> "PostingPayload": ...


class CountPostings:
    """Size-only payload: exactly what the paper's pipeline tracks."""

    __slots__ = ("count",)

    def __init__(self, count: int) -> None:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"CountPostings({self.count})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CountPostings) and other.count == self.count

    def extend(self, other: "CountPostings") -> None:
        if not isinstance(other, CountPostings):
            raise TypeError("cannot mix payload kinds in one index")
        self.count += other.count

    def add_count(self, count: int) -> None:
        """Fold ``count`` postings in without building a temporary payload.

        Fast path for the batch-loading hot loop; equivalent to
        ``extend(CountPostings(count))``.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self.count += count

    def split(self, npostings: int) -> tuple["CountPostings", "CountPostings"]:
        if npostings < 0:
            raise ValueError("split point must be >= 0")
        head = min(npostings, self.count)
        return CountPostings(head), CountPostings(self.count - head)

    def copy(self) -> "CountPostings":
        return CountPostings(self.count)


class DocPostings:
    """Real payload: strictly increasing document ids."""

    __slots__ = ("doc_ids",)

    def __init__(self, doc_ids: Iterable[int] = ()) -> None:
        ids = list(doc_ids)
        if ids:
            for prev, cur in zip(ids, ids[1:]):
                if cur <= prev:
                    raise ValueError(
                        "doc ids must be strictly increasing; "
                        f"{cur} after {prev}"
                    )
            if ids[0] < 0:
                raise ValueError("doc ids must be >= 0")
        self.doc_ids = ids

    def __len__(self) -> int:
        return len(self.doc_ids)

    def __repr__(self) -> str:
        return f"DocPostings({self.doc_ids!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DocPostings) and other.doc_ids == self.doc_ids

    def extend(self, other: "DocPostings") -> None:
        if not isinstance(other, DocPostings):
            raise TypeError("cannot mix payload kinds in one index")
        if other.doc_ids:
            if self.doc_ids and other.doc_ids[0] <= self.doc_ids[-1]:
                raise ValueError(
                    "appended postings must have larger doc ids "
                    f"({other.doc_ids[0]} after {self.doc_ids[-1]})"
                )
            self.doc_ids.extend(other.doc_ids)

    def split(self, npostings: int) -> tuple["DocPostings", "DocPostings"]:
        if npostings < 0:
            raise ValueError("split point must be >= 0")
        head, tail = DocPostings(), DocPostings()
        head.doc_ids = self.doc_ids[:npostings]
        tail.doc_ids = self.doc_ids[npostings:]
        return head, tail

    def copy(self) -> "DocPostings":
        out = DocPostings()
        out.doc_ids = list(self.doc_ids)
        return out

    def without_docs(self, doc_ids) -> "DocPostings":
        """A copy with the given documents removed (deletion sweeps)."""
        out = DocPostings()
        out.doc_ids = [d for d in self.doc_ids if d not in doc_ids]
        return out

    def encode(self) -> bytes:
        """Delta + varint bytes for the content-mode disk blocks."""
        return encode_doc_ids(self.doc_ids)

    @classmethod
    def decode(cls, data: bytes) -> "DocPostings":
        out = cls()
        out.doc_ids = decode_doc_ids(data)
        return out


def empty_like(payload: PostingPayload) -> PostingPayload:
    """A fresh empty payload of the same kind as ``payload``.

    Works for any class implementing the payload protocol with a no-arg
    constructor (DocPostings, PositionalPostings, ...); CountPostings is
    special-cased for its required argument.
    """
    if isinstance(payload, CountPostings):
        return CountPostings(0)
    if not isinstance(payload, PostingPayload):
        raise TypeError(f"unknown payload kind {type(payload)!r}")
    return type(payload)()
