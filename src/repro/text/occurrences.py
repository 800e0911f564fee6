"""Occurrence-level tokenization: positions and regions (paper §1).

Extends the §4.2 lexer with the two posting attributes the paper names:
the **word offset** within the document (a running token index over the
kept tokens) and the **region** the word occurs in (title, abstract,
author, body).

Region detection is line-based, matching News/RFC-822 structure:

* lines matching an *ignored* prefix (``Date:`` etc.) contribute nothing,
  exactly as before;
* lines matching a *region* prefix (``Subject:`` → TITLE, ``From:`` →
  AUTHOR, ``Summary:``/``Keywords:`` → ABSTRACT by default) are indexed
  into that region, with the header tag itself stripped;
* all other lines are BODY.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..core.positional import Region
from .tokenizer import TokenizerConfig, _kept_lines, _words

#: Default region-tagged header prefixes for News articles.
DEFAULT_REGION_PREFIXES: dict[str, Region] = {
    "subject:": Region.TITLE,
    "title:": Region.TITLE,
    "from:": Region.AUTHOR,
    "author:": Region.AUTHOR,
    "summary:": Region.ABSTRACT,
    "keywords:": Region.ABSTRACT,
    "abstract:": Region.ABSTRACT,
}


@dataclass(frozen=True)
class Occurrence:
    """One word occurrence: the token, its offset, and its region."""

    word: str
    position: int
    region: Region


@dataclass(frozen=True)
class RegionRules:
    """Line-prefix → region mapping (case-insensitive)."""

    prefixes: dict[str, Region] = field(
        default_factory=lambda: dict(DEFAULT_REGION_PREFIXES)
    )

    def region_of(self, line: str) -> tuple[Region, str]:
        """The line's region and the line text with any matched header
        prefix stripped."""
        stripped = line.lstrip()
        lowered = stripped.lower()
        for prefix, region in self.prefixes.items():
            if lowered.startswith(prefix):
                return region, stripped[len(prefix):]
        return Region.BODY, line


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
    for line in _kept_lines(text, cfg):
        region, content = region_rules.region_of(line)
        for token in _words(content, cfg):
            yield Occurrence(token, position, region)
            position += 1
