"""Documents, batches, and the paper's document-level filters (§4.1).

The paper's News pipeline applies two filters before indexing:

* documents shorter than ~1024 characters are dropped ("to increase the
  average document size to a more typical range of about 2K characters");
* non-English documents — chiefly encoded binaries and pictures — are
  filtered out.

We reproduce both.  The binary/non-English heuristic checks the fraction of
characters that are ASCII letters or common punctuation; uuencoded blocks
and base64 blobs fail it decisively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Document:
    """One raw text document with an externally assigned identity."""

    doc_id: int
    text: str

    def __post_init__(self) -> None:
        if self.doc_id < 0:
            raise ValueError("doc_id must be >= 0")


@dataclass(frozen=True)
class FilterConfig:
    """Document admission rules (paper §4.1)."""

    min_length: int = 1024
    #: Minimum fraction of "texty" characters (letters, spaces, common
    #: punctuation) for a document to count as English prose.
    min_text_fraction: float = 0.75

    def __post_init__(self) -> None:
        if self.min_length < 0:
            raise ValueError("min_length must be >= 0")
        if not 0.0 <= self.min_text_fraction <= 1.0:
            raise ValueError("min_text_fraction must be in [0, 1]")


_TEXTY = set(" \t\n.,;:!?'\"()-")


def text_fraction(text: str) -> float:
    """Fraction of characters that look like English prose."""
    if not text:
        return 0.0
    good = sum(
        1 for ch in text if (ch.isascii() and ch.isalpha()) or ch in _TEXTY
    )
    return good / len(text)


def admit(doc: Document, config: FilterConfig | None = None) -> bool:
    """True when the document passes the paper's filters."""
    cfg = config or FilterConfig()
    if len(doc.text) < cfg.min_length:
        return False
    return text_fraction(doc.text) >= cfg.min_text_fraction


@dataclass
class DocumentBatch:
    """One day's worth of admitted documents (the paper's batch unit)."""

    day: int
    documents: list[Document] = field(default_factory=list)

    @property
    def ndocs(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)


def filter_batch(day: int, documents: Iterable[Document]) -> DocumentBatch:
    """Apply the paper's admission filters to a day's raw documents."""
    cfg = FilterConfig()
    batch = DocumentBatch(day=day)
    for doc in documents:
        if admit(doc, cfg):
            batch.documents.append(doc)
    return batch
