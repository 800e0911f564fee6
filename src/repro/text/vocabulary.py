"""Word ⇄ integer mapping (paper §4.2).

"At this point all words in batch updates are converted to unique integers
to simplify the remaining computations.  (Words are numbered
alphabetically.)"

True alphabetical numbering requires knowing the whole vocabulary up front;
an *incremental* system cannot renumber on every new word.  We provide both:

* :class:`Vocabulary` — arrival-order ids, the incremental mapping the
  library uses; and
* :func:`alphabetical_ids` — the paper's batch renumbering, used by the
  pipeline when reproducing the exact trace formats of Figures 5 and 6.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class _Ids(dict):
    """word -> id, where looking up an unseen word assigns it the next id
    and appends it to the vocabulary's ``words``."""

    def __missing__(self, word: str) -> int:
        word_id = self[word] = len(self.words)
        self.words.append(word)
        return word_id


class Vocabulary:
    """Bidirectional word ⇄ id mapping with arrival-order ids."""

    def __init__(self) -> None:
        self._words: list[str] = []
        self._ids = _Ids()
        self._ids.words = self._words

    def __len__(self) -> int:
        return len(self._words)

    def __contains__(self, word: str) -> bool:
        return word in self._ids

    def id_of(self, word: str) -> int:
        """The id for ``word``, assigning a fresh one if unseen."""
        return self._ids[word]

    def lookup(self, word: str) -> int | None:
        """The id for ``word`` if it has one, else None (no assignment)."""
        return self._ids.get(word)

    def word_of(self, word_id: int) -> str:
        """Inverse lookup; raises ``IndexError`` on unknown ids."""
        return self._words[word_id]

    def ids_of(self, words: Iterable[str]) -> list[int]:
        """Map many words, assigning ids as needed: what an :meth:`id_of`
        loop returns, in one pass that reads ``words`` once."""
        return list(map(self._ids.__getitem__, words))

    def words(self) -> Iterator[str]:
        """All words in id order."""
        return iter(self._words)

    def words_since(self, start: int) -> list[str]:
        """The words with ids ``start`` and up, in id order."""
        return self._words[start:]


class VocabularyView:
    """Read-only, size-bounded view of a live :class:`Vocabulary`.

    The writer's vocabulary is append-only: existing ids never change,
    new words only extend it.  A published snapshot can therefore share
    the writer's dict and list outright as long as it (a) never assigns
    ids and (b) ignores words assigned after the snapshot was taken.
    This view enforces both, bounding every lookup at the vocabulary
    size captured at publish time — O(1) publication cost regardless of
    vocabulary size.

    Reading a dict entry while the writer inserts another is atomic
    under CPython, so concurrent readers need no locking.
    """

    __slots__ = ("_base", "_size")

    def __init__(self, base: Vocabulary) -> None:
        self._base = base
        self._size = len(base)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, word: str) -> bool:
        return self.lookup(word) is not None

    def id_of(self, word: str) -> int:
        word_id = self.lookup(word)
        if word_id is None:
            raise TypeError(
                "cannot assign new word ids through a published "
                "vocabulary view"
            )
        return word_id

    def lookup(self, word: str) -> int | None:
        word_id = self._base._ids.get(word)
        if word_id is None or word_id >= self._size:
            return None
        return word_id

    def word_of(self, word_id: int) -> str:
        if not 0 <= word_id < self._size:
            raise IndexError(
                f"word id {word_id} outside view of size {self._size}"
            )
        return self._base._words[word_id]

    def ids_of(self, words: Iterable[str]) -> list[int]:
        return [self.id_of(w) for w in words]

    def words(self) -> Iterator[str]:
        return iter(self._base._words[: self._size])

    def words_since(self, start: int) -> list[str]:
        return self._base._words[start : self._size]


def alphabetical_ids(words: Iterable[str]) -> dict[str, int]:
    """The paper's numbering: distinct words sorted, then numbered from 1.

    (Figure 5 reserves ``0 0`` as the end-of-batch marker, so numbering
    starts at 1.)
    """
    return {
        word: i + 1 for i, word in enumerate(sorted(set(words)))
    }
