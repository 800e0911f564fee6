"""Lexical analysis of documents (paper Section 4.2).

"To generate a batch update, each document in the batch is lexically
analyzed to produce a token stream.  Sequences of letters and sequences of
numbers are tokens — all other characters are ignored.  Certain lines of a
document (such as 'Date:' lines) are also ignored.  Finally, duplicate
tokens for a document are dropped. ... Tokens are converted to words by
converting upper case letters to lower case."

The tokenizer reproduces those rules:

* a token is a maximal run of ASCII letters **or** a maximal run of
  characters :meth:`str.isdigit` accepts, which takes in the decimal
  digits of every script and also superscript, subscript and circled
  digits such as ``²`` and ``①`` (a mixed run like ``abc123`` yields two
  tokens, ``abc`` and ``123``);
* every other character separates tokens, non-ASCII letters included
  (``café`` yields ``caf``);
* lines (:meth:`str.splitlines`) that start, after leading whitespace and
  lowercased, with an ignored header (``Date:`` and friends,
  configurable) contribute nothing;
* tokens longer than ``max_token_length`` characters are dropped whole;
* tokens are lowercased into *words*, and stop words are matched after
  lowercasing;
* per-document deduplication happens one level up (the in-memory index and
  the batch builder both deduplicate), but :func:`tokenize_document`
  offers it directly for convenience.

One compiled pattern does the lexing for every entry point here and in
:mod:`repro.text.occurrences`.  ``tests/reference_tokenizer.py`` holds a
per-character lexer with the same rules, the oracle the differential
tests compare against.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

#: Header lines the paper's lexer skips; NetNews/RFC-822 style headers.
DEFAULT_IGNORED_PREFIXES = (
    "date:",
    "message-id:",
    "path:",
    "references:",
    "xref:",
    "received:",
    "nntp-posting-host:",
)


#: A small English stop list for full-text configurations.  The paper (§1)
#: notes that a full text index covers "every word occurring in documents
#: (minus perhaps some stop words)"; stopping is off by default because the
#: abstracts-style evaluation keeps everything.
DEFAULT_STOP_WORDS = frozenset(
    "a an and are as at be by for from has he in is it its of on that the "
    "to was were will with".split()
)


@dataclass(frozen=True)
class TokenizerConfig:
    """Tokenizer rules; defaults follow the paper."""

    ignored_prefixes: tuple[str, ...] = DEFAULT_IGNORED_PREFIXES
    lowercase: bool = True
    #: Maximum token length kept (guards against binary garbage; the paper
    #: filtered encoded binaries out at the document level, see documents.py).
    max_token_length: int = 64
    #: Words dropped from the token stream (paper §1: "minus perhaps some
    #: stop words").  Empty by default.  Matched after lowercasing.
    stop_words: frozenset[str] = frozenset()

    @classmethod
    def full_text(cls) -> "TokenizerConfig":
        """A full-text configuration with the default English stop list."""
        return cls(stop_words=DEFAULT_STOP_WORDS)


#: The characters :meth:`str.isdigit` accepts that ``re``'s ``\d`` (which is
#: :meth:`str.isdecimal`) does not: 128 superscript, subscript, circled,
#: parenthesized and other digits, ``²`` and ``①`` among them.  Written
#: out because deriving it scans every code point, ~70 ms each process
#: would pay at import; ``tests/text/test_tokenizer_differential.py``
#: checks it against the running Python's Unicode database.
_OTHER_DIGITS = (
    r"\u00b2\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079\u2080-\u2089"
    r"\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea\u24f5-\u24fd\u24ff"
    r"\u2776-\u277e\u2780-\u2788\u278a-\u2792"
    r"\U00010a40-\U00010a43\U00010e60-\U00010e68\U00011052-\U0001105a"
    r"\U0001f100-\U0001f10a"
)

#: A token: a maximal run of ASCII letters or of ``str.isdigit`` characters.
_TOKEN = re.compile(r"[A-Za-z]+|[\d" + _OTHER_DIGITS + "]+")


def _kept_lines(text: str, cfg: TokenizerConfig) -> list[str]:
    """``text``'s lines, minus those starting with an ignored header."""
    prefixes = cfg.ignored_prefixes
    return [
        line
        for line in text.splitlines()
        if not line.lstrip().lower().startswith(prefixes)
    ]


def _words(text: str, cfg: TokenizerConfig) -> list[str]:
    """The kept words of ``text`` in order; ignored lines are the caller's.

    No token crosses a line break, so ``text`` may be many lines joined.
    """
    if not cfg.lowercase:
        tokens = _TOKEN.findall(text)
    elif text.isascii():
        tokens = _TOKEN.findall(text.lower())
    else:
        # Lowercasing first would invent tokens: 'İ' lowers to 'i' plus a
        # combining dot, and the Kelvin sign to 'k'.
        tokens = [token.lower() for token in _TOKEN.findall(text)]
    limit = cfg.max_token_length
    stop_words = cfg.stop_words
    if not stop_words:
        return [token for token in tokens if len(token) <= limit]
    return [
        token
        for token in tokens
        if len(token) <= limit and token.lower() not in stop_words
    ]


def tokenize_line(line: str, config: TokenizerConfig | None = None) -> Iterator[str]:
    """Yield the tokens of one line: letter runs and digit runs."""
    return iter(_words(line, config or TokenizerConfig()))


def tokenize(text: str, config: TokenizerConfig | None = None) -> Iterator[str]:
    """Yield all tokens of a document, skipping ignored header lines."""
    cfg = config or TokenizerConfig()
    return iter(_words("\n".join(_kept_lines(text, cfg)), cfg))


def tokenize_document(
    text: str, config: TokenizerConfig | None = None
) -> list[str]:
    """The document's distinct words, in first-appearance order.

    This is the unit the abstracts-style index stores: one posting per
    (word, document) pair.
    """
    return list(dict.fromkeys(tokenize(text, config)))
