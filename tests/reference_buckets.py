"""The §2 bucket algorithm as it stood before it became one fused merge: the oracle.

Verbatim from 5cdef53, with ``self`` made a parameter: ``BucketManager.insert``
(``core/buckets.py``), ``DualStructureIndex.classify`` and ``flush_batch``'s
word loop (``core/index.py``), and ``ComputeBucketsProcess.process_update``
(``pipeline/compute_buckets.py``) — classify, insert, evict, one word and one
method call at a time.  ``test_bucket_merge_differential`` holds
``BucketManager.merge`` to these.  Not collected (no ``test_`` prefix); edit
nothing here but imports and the parameters standing in for the index.
"""

from __future__ import annotations

from repro.analysis.metrics import CategoryCounts
from repro.core.buckets import BucketManager
from repro.core.index import WordCategory
from repro.core.postings import CountPostings, PostingPayload
from repro.pipeline.compute_buckets import LongListUpdate

# -- core/buckets.py: BucketManager.insert ---------------------------------------


def insert(
    self: BucketManager, word: int, payload: PostingPayload
) -> list[tuple[int, PostingPayload]]:
    """Insert an in-memory list into the word's bucket.

    Returns the migrations caused: while the bucket overflows, its
    longest short list is evicted and reported for promotion to a long
    list.  (An in-memory list larger than the whole bucket simply passes
    straight through as its own migration.)
    """
    if self.frozen:
        from repro.core.delta import FrozenStateError

        raise FrozenStateError(
            "attempt to insert into a frozen (published) bucket manager"
        )
    bucket_id = self.bucket_of(word)
    bucket = self.buckets[bucket_id]
    if self.journal is not None:
        self.journal.note_bucket(bucket_id)
        self.journal.note_word(word)
    bucket.insert(word, payload)
    self._record(bucket_id)
    migrations: list[tuple[int, PostingPayload]] = []
    while bucket.overflowing:
        evicted = bucket.remove_longest()
        migrations.append(evicted)
        self._record(bucket_id)
    return migrations


# -- core/index.py: DualStructureIndex.classify and flush_batch's loop -----------


def classify(directory, buckets: BucketManager, word: int) -> WordCategory:
    """Categorize a word as the paper's Figure 7 does: long if the
    directory knows it, bucket if a bucket holds it, new otherwise."""
    if word in directory:
        return WordCategory.LONG
    if buckets.contains(word):
        return WordCategory.BUCKET
    return WordCategory.NEW


def flush_loop(buckets: BucketManager, items, directory, append, crash_point):
    """``flush_batch``'s word loop; ``directory``, ``append`` and
    ``crash_point`` stand in for ``self.longlists.directory``,
    ``self.longlists.append`` and ``faults.crash_point(CP_BEFORE_WORD)``.
    Returns what ``merge`` returns."""
    counts = {c: 0 for c in WordCategory}
    npostings = 0
    migrations = 0

    for word, payload in items:
        crash_point()
        category = classify(directory, buckets, word)
        counts[category] += 1
        npostings += len(payload)
        if category is WordCategory.LONG:
            append(word, payload)
        else:
            for mword, mpayload in insert(buckets, word, payload):
                migrations += 1
                append(mword, mpayload)

    return (
        counts[WordCategory.NEW],
        counts[WordCategory.BUCKET],
        counts[WordCategory.LONG],
        migrations,
        npostings,
    )


# -- pipeline/compute_buckets.py: ComputeBucketsProcess.process_update -----------


def process_update(self, update):
    """Apply one batch update; return its long-list events and the
    Figure-7 category tallies."""
    events: list[LongListUpdate] = []
    counts = CategoryCounts()
    for word, npostings in update:
        if word in self._long_words:
            counts.long += 1
            events.append(LongListUpdate(word, npostings))
            continue
        if self.manager.contains(word):
            counts.bucket += 1
        else:
            counts.new += 1
        migrations = insert(self.manager, word, CountPostings(npostings))
        for mword, mpayload in migrations:
            self._long_words.add(mword)
            events.append(LongListUpdate(mword, len(mpayload)))
    return events, counts
