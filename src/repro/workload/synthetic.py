"""Synthetic News workload: the corpus substrate for the evaluation.

The paper indexed 73 daily batches of NetNews articles (Nov 13 1993 –
Jan 31 1994, one day missing, one day's gathering interrupted).  We do not
have 1993 NetNews; per DESIGN.md we substitute a seeded generator that
reproduces the distributional properties the evaluation depends on:

* **Zipf word frequencies** — ranks drawn from an unbounded Zipf law, so a
  handful of frequent words carry the vast majority of postings (paper
  Table 1) while the tail supplies an endless stream of rare words;
* **new-word arrival** — deep-tail ranks are previously unseen words, so
  every update contains new words even late in the run (paper Figure 7's
  "new words" curve stabilizing well above zero);
* **per-document deduplication** — a document contributes one posting per
  distinct word, the abstracts-index convention of the paper;
* **weekly periodicity** — Saturday/Sunday batches are smaller, producing
  Figure 7's seven-day peaks on the long-words curve;
* **one interrupted day** — a near-empty batch mid-run, reproducing the
  spike the paper attributes to "an interruption in the gathering of data".

Every quantity is derived from a deterministic per-day RNG, so batches can
be generated independently, lazily, and reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..text.batchupdate import BatchUpdate

#: Day-of-week factors, day 0 being a Saturday (the paper's run started on
#: Saturday, November 13th, 1993).
_WEEK_PROFILE = (0.45, 0.65, 1.0, 1.05, 1.0, 1.0, 0.95)


@dataclass(frozen=True)
class SyntheticNewsConfig:
    """Parameters of the synthetic News corpus.

    The default scale targets roughly one million postings over the run —
    about 1/20 of the paper's corpus — which keeps the full experiment
    suite tractable in pure Python while leaving every curve's shape
    intact.  ``scale`` multiplies the per-day document counts.
    """

    days: int = 73
    docs_per_day: int = 160
    scale: float = 1.0
    zipf_s: float = 1.3
    #: Lognormal parameters of per-document token counts (before dedup).
    tokens_per_doc_mu: float = 4.85  # median ≈ 128 tokens
    tokens_per_doc_sigma: float = 0.55
    #: The day whose gathering was interrupted (paper: update 31).
    interrupted_day: int = 31
    interrupted_factor: float = 0.04
    seed: int = 1994

    def __post_init__(self) -> None:
        if self.days <= 0 or self.docs_per_day <= 0:
            raise ValueError("days and docs_per_day must be > 0")
        if self.scale <= 0:
            raise ValueError("scale must be > 0")
        if self.zipf_s <= 1.0:
            raise ValueError("zipf_s must be > 1 for the unbounded law")
        if not 0 <= self.interrupted_day:
            raise ValueError("interrupted_day must be >= 0")


class SyntheticNews:
    """Deterministic generator of daily document batches."""

    def __init__(self, config: SyntheticNewsConfig | None = None) -> None:
        self.config = config or SyntheticNewsConfig()

    # -- sizing ------------------------------------------------------------

    def docs_on_day(self, day: int) -> int:
        """Documents gathered on ``day`` (weekly profile + interruption)."""
        cfg = self.config
        if not 0 <= day < cfg.days:
            raise ValueError(f"day {day} outside [0, {cfg.days})")
        base = cfg.docs_per_day * cfg.scale * _WEEK_PROFILE[day % 7]
        if day == cfg.interrupted_day:
            base *= cfg.interrupted_factor
        return max(1, int(round(base)))

    def _rng(self, day: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence((self.config.seed, day))
        )

    # -- documents -----------------------------------------------------------

    def day_documents(self, day: int) -> list[np.ndarray]:
        """The day's documents, each as a sorted array of distinct word ids.

        Word ids are Zipf ranks (>= 1): small ids are the frequent words,
        deep-tail ids appear once and rarely recur.
        """
        cfg = self.config
        rng = self._rng(day)
        ndocs = self.docs_on_day(day)
        sizes = rng.lognormal(
            cfg.tokens_per_doc_mu, cfg.tokens_per_doc_sigma, size=ndocs
        )
        sizes = np.maximum(8, sizes.astype(np.int64))
        all_tokens = rng.zipf(cfg.zipf_s, size=int(sizes.sum()))
        docs: list[np.ndarray] = []
        offset = 0
        for size in sizes:
            tokens = all_tokens[offset : offset + size]
            offset += size
            docs.append(np.unique(tokens))
        return docs

    def batch_update(self, day: int) -> BatchUpdate:
        """The day's word-occurrence pairs (the paper's batch update)."""
        docs = self.day_documents(day)
        words = np.concatenate(docs) if docs else np.empty(0, dtype=np.int64)
        ids, counts = np.unique(words, return_counts=True)
        pairs = [(int(w), int(c)) for w, c in zip(ids, counts)]
        return BatchUpdate(day=day, pairs=pairs, ndocs=len(docs))

    def batches(self) -> Iterator[BatchUpdate]:
        """All daily batch updates in order."""
        for day in range(self.config.days):
            yield self.batch_update(day)

    # -- whole-corpus statistics -------------------------------------------------

    def word_counts(self) -> dict[int, int]:
        """Total postings per word across the whole run."""
        counts: dict[int, int] = {}
        for update in self.batches():
            for word, count in update.pairs:
                counts[word] = counts.get(word, 0) + count
        return counts
