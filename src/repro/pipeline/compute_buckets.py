"""ComputeBuckets process: batch updates → long-list update trace (§4.3).

"The compute buckets process takes the sequence of batch updates as inputs,
runs the bucket algorithm described in Section 2 on the sequence (we use a
modular arithmetic hash function for h(w)), and generates a single trace
file of updates to long lists.  Each update in the file indicates the word
involved and the number of postings to be added to the corresponding long
list on disk.  (Note that the postings for an update can come from the new
postings in a batch or from previous postings in a bucket.)"

This stage is **policy-independent**: the experiment runner executes it
once and replays its output against every long-list policy — the exact
economy the paper's staged design buys.

Alongside the trace, the stage records the Figure-7 word-category counts
per update and (optionally) the Figure-1 bucket animation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, TextIO

from ..analysis.metrics import CategoryCounts
from ..core.buckets import BucketManager, BucketSample
from ..core.postings import CountPostings
from ..core.rebalance import BucketGrower, GrowthEvent, GrowthPolicy
from ..text.batchupdate import BatchUpdate


@dataclass(frozen=True)
class LongListUpdate:
    """One long-list update event: append ``npostings`` to ``word``."""

    word: int
    npostings: int

    def __post_init__(self) -> None:
        if self.word <= 0 or self.npostings <= 0:
            raise ValueError(f"malformed long-list update: {self!r}")


class LongListTrace:
    """The single trace file of long-list updates, batch by batch.

    Text format is the paper's Figure 5: ``<word> <npostings>`` lines with
    ``0 0`` terminating each batch.
    """

    END_MARKER = "0 0"

    def __init__(self) -> None:
        self.batches: list[list[LongListUpdate]] = []

    @property
    def nbatches(self) -> int:
        return len(self.batches)

    @property
    def nupdates(self) -> int:
        return sum(len(b) for b in self.batches)

    @property
    def npostings(self) -> int:
        return sum(u.npostings for b in self.batches for u in b)

    def write_text(self, fp: TextIO) -> None:
        for batch in self.batches:
            for update in batch:
                fp.write(f"{update.word} {update.npostings}\n")
            fp.write(self.END_MARKER + "\n")

    @classmethod
    def read_text(cls, fp: TextIO) -> "LongListTrace":
        trace = cls()
        current: list[LongListUpdate] = []
        for raw in fp:
            line = raw.strip()
            if not line:
                continue
            word_s, count_s = line.split()
            word, count = int(word_s), int(count_s)
            if (word, count) == (0, 0):
                trace.batches.append(current)
                current = []
            else:
                current.append(LongListUpdate(word, count))
        if current:
            trace.batches.append(current)
        return trace


@dataclass
class BucketStageResult:
    """Everything the ComputeBuckets stage produces."""

    trace: LongListTrace
    categories: list[CategoryCounts]
    manager: BucketManager
    #: Figure-1 samples for watched buckets (bucket id → history).
    animations: dict[int, list[BucketSample]] = field(default_factory=dict)
    #: Bucket growth events (when a grower is attached, paper §7).
    growth_events: list[GrowthEvent] = field(default_factory=list)

    @property
    def category_fraction_series(
        self,
    ) -> tuple[list[float], list[float], list[float]]:
        """(new, bucket, long) fraction series across updates (Figure 7)."""
        new, bucket, long_ = [], [], []
        for counts in self.categories:
            n, b, lo = counts.fractions()
            new.append(n)
            bucket.append(b)
            long_.append(lo)
        return new, bucket, long_


class ComputeBucketsProcess:
    """Runs the §2 bucket algorithm over a sequence of batch updates."""

    def __init__(
        self,
        nbuckets: int,
        bucket_size: int,
        watch_buckets: Iterable[int] = (),
        growth: GrowthPolicy | None = None,
    ) -> None:
        self.manager = BucketManager(nbuckets, bucket_size)
        self.grower = BucketGrower(growth) if growth is not None else None
        self._long_words: set[int] = set()
        for bucket_id in watch_buckets:
            self.manager.watch(bucket_id)

    def process_update(
        self, update: BatchUpdate
    ) -> tuple[list[LongListUpdate], CategoryCounts]:
        """Apply one batch update; return its long-list events and the
        Figure-7 category tallies."""
        events: list[LongListUpdate] = []
        long_words = self._long_words

        def to_long(word: int, payload: CountPostings) -> None:
            long_words.add(word)
            events.append(LongListUpdate(word, len(payload)))

        new, bucket, long_, _, _ = self.manager.merge(
            ((word, CountPostings(npostings)) for word, npostings in update),
            long_words.__contains__,
            to_long,
            None,
        )
        return events, CategoryCounts(new, bucket, long_)

    def run(self, updates: Iterable[BatchUpdate]) -> BucketStageResult:
        """Process all batch updates and collect the stage outputs."""
        trace = LongListTrace()
        categories: list[CategoryCounts] = []
        for batch_no, update in enumerate(updates):
            events, counts = self.process_update(update)
            trace.batches.append(events)
            categories.append(counts)
            if self.grower is not None:
                self.grower.maybe_grow(self.manager, batch=batch_no)
        animations = {
            bucket_id: self.manager.history(bucket_id)
            for bucket_id in self.manager._watched
        }
        return BucketStageResult(
            trace=trace,
            categories=categories,
            manager=self.manager,
            animations=animations,
            growth_events=(
                list(self.grower.events) if self.grower is not None else []
            ),
        )
