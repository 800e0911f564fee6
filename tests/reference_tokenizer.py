"""The §4.2 lexer as it stood before it moved to one compiled pattern: the oracle.

Verbatim from db2ebe5 (``text/tokenizer.py``, and ``tokenize_occurrences``
from ``text/occurrences.py``): one Python iteration per character, one
list per token, one generator per token.  ``test_tokenizer_differential``
holds the tokenizer in ``src/`` to these, token for token, position for
position and region for region.  Not collected (no ``test_`` prefix);
edit nothing here but imports.
"""

from __future__ import annotations

from typing import Iterator

from repro.text.occurrences import Occurrence, RegionRules
from repro.text.tokenizer import TokenizerConfig

# -- text/tokenizer.py ----------------------------------------------------------


def _line_ignored(line: str, prefixes: tuple[str, ...]) -> bool:
    stripped = line.lstrip().lower()
    return any(stripped.startswith(p) for p in prefixes)


def tokenize_line(line: str, config: TokenizerConfig | None = None) -> Iterator[str]:
    """Yield the tokens of one line: letter runs and digit runs."""
    cfg = config or TokenizerConfig()
    token: list[str] = []
    mode = ""  # "alpha", "digit", or "" outside a token

    def finish() -> Iterator[str]:
        nonlocal token
        if token and len(token) <= cfg.max_token_length:
            text = "".join(token)
            if cfg.lowercase:
                text = text.lower()
            if text.lower() not in cfg.stop_words:
                yield text
        token = []

    for ch in line:
        if ch.isascii() and ch.isalpha():
            kind = "alpha"
        elif ch.isdigit():
            kind = "digit"
        else:
            kind = ""
        if kind and kind == mode:
            token.append(ch)
        else:
            yield from finish()
            mode = kind
            if kind:
                token.append(ch)
    yield from finish()


def tokenize(text: str, config: TokenizerConfig | None = None) -> Iterator[str]:
    """Yield all tokens of a document, skipping ignored header lines."""
    cfg = config or TokenizerConfig()
    for line in text.splitlines():
        if _line_ignored(line, cfg.ignored_prefixes):
            continue
        yield from tokenize_line(line, cfg)


def tokenize_document(
    text: str, config: TokenizerConfig | None = None
) -> list[str]:
    """The document's distinct words, in first-appearance order.

    This is the unit the abstracts-style index stores: one posting per
    (word, document) pair.
    """
    seen: set[str] = set()
    out: list[str] = []
    for token in tokenize(text, config):
        if token not in seen:
            seen.add(token)
            out.append(token)
    return out


# -- text/occurrences.py --------------------------------------------------------


def tokenize_occurrences(
    text: str,
    config: TokenizerConfig | None = None,
    rules: RegionRules | None = None,
) -> Iterator[Occurrence]:
    """Yield every kept token with its position and region.

    Positions number the kept tokens of the document consecutively from 0
    (the paper's "word offset within the document"); skipped header lines
    do not advance the counter.
    """
    cfg = config or TokenizerConfig()
    region_rules = rules or RegionRules()
    position = 0
    for line in text.splitlines():
        if _line_ignored(line, cfg.ignored_prefixes):
            continue
        region, content = region_rules.region_of(line)
        for token in tokenize_line(content, cfg):
            yield Occurrence(token, position, region)
            position += 1
