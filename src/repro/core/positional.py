"""Positional and region-tagged postings (paper §1).

"Each posting may include a variety of information, such as the word
offset (within the document) where w occurs or the region where w occurs
(title, abstract, author list, etc.)" — and the query side: "the query may
also give additional conditions, such as requiring that 'cat' and 'dog'
occur within so many words of each other, or that 'mouse' occur within a
title region."

:class:`PositionalPostings` is a drop-in payload for the dual-structure
machinery: ``len()`` still counts *postings* (word–document pairs), so
bucket sizing, policy accounting and all evaluation metrics are unchanged;
each posting simply carries its occurrence positions and a region bitmask.
The wire encoding extends the delta+varint scheme:

    per posting: doc-id gap | region mask | #positions | position gaps

Region vocabulary follows the paper's examples (title, abstract, author,
body as the catch-all); masks are bit-ors so a word seen in both title and
body carries both flags.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

from .postings import decode_varint, encode_varint


class Region(enum.IntFlag):
    """Document regions a posting can be tagged with (paper §1)."""

    BODY = 1
    TITLE = 2
    ABSTRACT = 4
    AUTHOR = 8


@dataclass(frozen=True)
class PositionalPosting:
    """One posting: a document plus where the word occurs in it."""

    doc_id: int
    positions: tuple[int, ...]
    regions: Region = Region.BODY

    def __post_init__(self) -> None:
        if self.doc_id < 0:
            raise ValueError("doc_id must be >= 0")
        if not self.positions:
            raise ValueError("a posting needs at least one position")
        if any(
            b <= a for a, b in zip(self.positions, self.positions[1:])
        ) or self.positions[0] < 0:
            raise ValueError("positions must be strictly increasing and >= 0")
        if int(self.regions) <= 0:
            raise ValueError("a posting needs at least one region flag")


class PositionalPostings:
    """A strictly doc-id-increasing sequence of positional postings.

    Implements the same payload protocol as :class:`DocPostings`
    (``len``/``extend``/``split``/``copy``/``encode``/``decode``) so the
    entire index stack works unchanged.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[PositionalPosting] = ()) -> None:
        items = list(entries)
        for prev, cur in zip(items, items[1:]):
            if cur.doc_id <= prev.doc_id:
                raise ValueError(
                    "doc ids must be strictly increasing; "
                    f"{cur.doc_id} after {prev.doc_id}"
                )
        self.entries = items

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"PositionalPostings({self.entries!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PositionalPostings)
            and other.entries == self.entries
        )

    @property
    def doc_ids(self) -> list[int]:
        """Document ids only — what boolean/vector queries consume."""
        return [p.doc_id for p in self.entries]

    def extend(self, other: "PositionalPostings") -> None:
        if not isinstance(other, PositionalPostings):
            raise TypeError("cannot mix payload kinds in one index")
        if other.entries:
            if (
                self.entries
                and other.entries[0].doc_id <= self.entries[-1].doc_id
            ):
                raise ValueError(
                    "appended postings must have larger doc ids "
                    f"({other.entries[0].doc_id} after "
                    f"{self.entries[-1].doc_id})"
                )
            self.entries.extend(other.entries)

    def split(
        self, npostings: int
    ) -> tuple["PositionalPostings", "PositionalPostings"]:
        if npostings < 0:
            raise ValueError("split point must be >= 0")
        head, tail = PositionalPostings(), PositionalPostings()
        head.entries = self.entries[:npostings]
        tail.entries = self.entries[npostings:]
        return head, tail

    def copy(self) -> "PositionalPostings":
        out = PositionalPostings()
        out.entries = list(self.entries)
        return out

    def without_docs(self, doc_ids) -> "PositionalPostings":
        """A copy with the given documents removed (deletion sweeps)."""
        out = PositionalPostings()
        out.entries = [e for e in self.entries if e.doc_id not in doc_ids]
        return out

    # -- codec ---------------------------------------------------------------

    def encode(self) -> bytes:
        out = bytearray()
        prev_doc = -1
        for posting in self.entries:
            out += encode_varint(posting.doc_id - prev_doc - 1)
            prev_doc = posting.doc_id
            out += encode_varint(int(posting.regions))
            out += encode_varint(len(posting.positions))
            prev_pos = -1
            for pos in posting.positions:
                out += encode_varint(pos - prev_pos - 1)
                prev_pos = pos
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "PositionalPostings":
        out = cls()
        offset = 0
        prev_doc = -1
        while offset < len(data):
            gap, offset = decode_varint(data, offset)
            doc = prev_doc + 1 + gap
            prev_doc = doc
            regions_raw, offset = decode_varint(data, offset)
            npositions, offset = decode_varint(data, offset)
            positions = []
            prev_pos = -1
            for _ in range(npositions):
                pgap, offset = decode_varint(data, offset)
                prev_pos = prev_pos + 1 + pgap
                positions.append(prev_pos)
            out.entries.append(
                PositionalPosting(doc, tuple(positions), Region(regions_raw))
            )
        return out

    # -- construction helpers -----------------------------------------------------

    @classmethod
    def single(
        cls,
        doc_id: int,
        positions: Iterable[int],
        regions: Region = Region.BODY,
    ) -> "PositionalPostings":
        return cls([PositionalPosting(doc_id, tuple(positions), regions)])

    def positions_for(self, doc_id: int) -> tuple[int, ...] | None:
        """Positions of the word in ``doc_id`` (binary search)."""
        lo, hi = 0, len(self.entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.entries[mid].doc_id < doc_id:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self.entries) and self.entries[lo].doc_id == doc_id:
            return self.entries[lo].positions
        return None
