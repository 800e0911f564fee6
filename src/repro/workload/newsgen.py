"""Render synthetic documents as actual text articles.

The evaluation pipeline consumes word-occurrence pairs directly, but the
library's text-facing API (tokenizer → vocabulary → index) deserves an
end-to-end exercise with real text.  This module renders the synthetic
workload's word-id documents into NetNews-looking articles — headers the
tokenizer must skip, a body of pseudo-words — such that tokenizing the
article recovers exactly the generated word set.

Word ids map to pseudo-words bijectively (``1 → "ba"``, base-25 consonant/
vowel syllables), so the words are lowercase alphabetic, pronounceable-ish,
and round-trip through the tokenizer unchanged.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..text.documents import Document
from .synthetic import SyntheticNews

_CONSONANTS = "bcdfghjklmnpqrstvwxz"  # 20
_VOWELS = "aeiou"  # 5


def word_for_id(word_id: int) -> str:
    """Deterministic pseudo-word for a word id (>= 1).

    Ids map to syllable strings in a bijective base-100 numeration
    (consonant+vowel pairs), so distinct ids give distinct words and every
    word tokenizes back to itself.
    """
    if word_id < 1:
        raise ValueError("word ids start at 1")
    n = word_id
    syllables: list[str] = []
    while n > 0:
        n -= 1
        digit = n % 100
        n //= 100
        syllables.append(_CONSONANTS[digit // 5] + _VOWELS[digit % 5])
    return "".join(reversed(syllables))


def id_for_word(word: str) -> int:
    """Inverse of :func:`word_for_id`."""
    if not word or len(word) % 2 != 0:
        raise ValueError(f"not a generated word: {word!r}")
    n = 0
    for i in range(0, len(word), 2):
        c, v = word[i], word[i + 1]
        ci = _CONSONANTS.find(c)
        vi = _VOWELS.find(v)
        if ci < 0 or vi < 0:
            raise ValueError(f"not a generated word: {word!r}")
        n = n * 100 + (ci * 5 + vi) + 1
    return n


#: Words per line of a rendered article body.
WORDS_PER_LINE = 10


def render_article(doc_id: int, word_ids: Iterable[int], day: int = 0) -> str:
    """Render one document's word ids as a News-style article."""
    words = [word_for_id(int(w)) for w in word_ids]
    lines = [
        f"Path: news.example.org!synthetic!day{day}",
        f"Message-ID: <{doc_id}@synthetic.example>",
        f"Date: day {day} of the synthetic run",
        "",
    ]
    for i in range(0, len(words), WORDS_PER_LINE):
        lines.append(" ".join(words[i : i + WORDS_PER_LINE]))
    return "\n".join(lines) + "\n"


def generate_articles(
    news: SyntheticNews, day: int, first_doc_id: int = 0
) -> Iterator[Document]:
    """Yield the day's documents as rendered text articles."""
    for offset, word_ids in enumerate(news.day_documents(day)):
        doc_id = first_doc_id + offset
        yield Document(
            doc_id=doc_id,
            text=render_article(doc_id, word_ids.tolist(), day=day),
        )
