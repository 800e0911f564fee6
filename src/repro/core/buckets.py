"""Buckets: the short-list half of the dual-structure index (paper §2).

Every inverted list starts life as a *short list* inside a bucket — a
fixed-size region of disk holding the lists of many words.  Sizes are
measured in *units*: one unit per word plus one unit per posting stored in
the bucket ("for each inverted list in the bucket, we need to store the word
it represents plus all of its postings").

When an insertion overflows a bucket, the longest short list is evicted and
becomes a *long list*; the bucket is left partially empty.  The buckets thus
**dynamically discover the frequent words** — the central idea of the paper.

:class:`BucketManager` also supports the per-bucket animation capture behind
the paper's Figure 1: when a bucket is watched, every change to it (new word
inserted, postings appended, word evicted) appends a ``(words, postings)``
sample to its history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .postings import DocPostings, PostingPayload


@dataclass
class BucketSample:
    """One Figure-1 animation sample: bucket contents after a change."""

    step: int
    nwords: int
    npostings: int

    @property
    def size(self) -> int:
        """Occupied units: words + postings."""
        return self.nwords + self.npostings


class Bucket:
    """One fixed-capacity bucket of short lists.

    The capacity is in units (words + postings).  ``insert`` may leave the
    bucket over capacity; the manager resolves overflow by evicting longest
    lists, because eviction decisions (and the resulting long-list creation)
    belong one level up.
    """

    __slots__ = ("capacity", "lists", "npostings")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("bucket capacity must be > 0")
        self.capacity = capacity
        self.lists: dict[int, PostingPayload] = {}
        self.npostings = 0

    @property
    def nwords(self) -> int:
        return len(self.lists)

    @property
    def size(self) -> int:
        """Occupied units: one per word plus one per posting."""
        return self.nwords + self.npostings

    @property
    def overflowing(self) -> bool:
        return self.size > self.capacity

    def insert(self, word: int, payload: PostingPayload) -> None:
        """Add (or append to) the short list for ``word``."""
        existing = self.lists.get(word)
        if existing is None:
            self.lists[word] = payload.copy()
        else:
            existing.extend(payload)
        self.npostings += len(payload)

    def remove_longest(self) -> tuple[int, PostingPayload]:
        """Evict and return the longest short list (ties: lowest word id,
        making experiments deterministic; the paper chooses arbitrarily)."""
        if not self.lists:
            raise ValueError("cannot evict from an empty bucket")
        word = min(
            self.lists, key=lambda w: (-len(self.lists[w]), w)
        )
        payload = self.lists.pop(word)
        self.npostings -= len(payload)
        return word, payload

    def remove(self, word: int) -> PostingPayload:
        """Remove a specific word's short list."""
        payload = self.lists.pop(word)
        self.npostings -= len(payload)
        return payload


def modular_hash(nbuckets: int) -> Callable[[int], int]:
    """The paper's bucket hash: modular arithmetic on the word id."""

    def h(word: int) -> int:
        return word % nbuckets

    return h


class BucketManager:
    """All buckets plus the overflow/eviction algorithm of paper §2.

    :meth:`merge` runs the algorithm over one batch and hands every long
    word and every evicted short list — a short list promoted to a long
    list — to the caller's ``to_long``; the index facade and
    ComputeBuckets route those to their long lists.  This class knows
    nothing about disks.
    """

    #: Delta-journal hook (attached by ``DualStructureIndex``); ``frozen``
    #: is set on published snapshots by the debug-mode write barrier
    #: (``invariants.freeze_index``).  Bucket instances are
    #: shared between consecutive snapshots, so mutation is policed at the
    #: manager level (``Bucket`` uses ``__slots__`` and stays flag-free).
    journal = None
    frozen = False
    #: The words whose payloads are the writer's own: the delta journal's
    #: ``dirty_words``, noted since the last publish.  Any other resident
    #: payload may be shared with a published snapshot, so :meth:`merge`
    #: extends a copy of it.  ``None``: nothing is ever shared.
    owned = None

    def __init__(
        self,
        nbuckets: int,
        bucket_size: int,
        hash_fn: Callable[[int], int] | None = None,
    ) -> None:
        if nbuckets <= 0:
            raise ValueError("nbuckets must be > 0")
        self.nbuckets = nbuckets
        self.bucket_size = bucket_size
        self.buckets = [Bucket(bucket_size) for _ in range(nbuckets)]
        self.hash_fn = hash_fn or modular_hash(nbuckets)
        self._watched: dict[int, list[BucketSample]] = {}
        self._step = 0

    # -- animation (Figure 1) ---------------------------------------------

    def watch(self, bucket_id: int) -> None:
        """Start recording Figure-1 samples for ``bucket_id``."""
        self._watched.setdefault(bucket_id, [])

    def history(self, bucket_id: int) -> list[BucketSample]:
        """Recorded samples for a watched bucket."""
        return self._watched[bucket_id]

    def _record(self, bucket_id: int) -> None:
        samples = self._watched.get(bucket_id)
        if samples is not None:
            bucket = self.buckets[bucket_id]
            samples.append(
                BucketSample(self._step, bucket.nwords, bucket.npostings)
            )
        self._step += 1

    # -- core algorithm -----------------------------------------------------

    def bucket_of(self, word: int) -> int:
        """h(w): which bucket holds (or would hold) the word's short list."""
        bucket_id = self.hash_fn(word)
        if not 0 <= bucket_id < self.nbuckets:
            raise ValueError(
                f"hash function returned {bucket_id} outside "
                f"[0, {self.nbuckets})"
            )
        return bucket_id

    def contains(self, word: int) -> bool:
        """True when the word currently has a short list."""
        return word in self.buckets[self.bucket_of(word)].lists

    def get(self, word: int) -> PostingPayload | None:
        """The word's short-list payload, or None."""
        return self.buckets[self.bucket_of(word)].lists.get(word)

    def merge(
        self,
        items: Iterable[tuple[int, PostingPayload]],
        is_long: Callable[[int], bool],
        to_long: Callable[[int, PostingPayload], object],
        before_word: Callable[[], object] | None,
    ) -> tuple[int, int, int, int, int]:
        """Run §2 over one batch of in-memory lists, in the caller's order.

        A word ``is_long`` reports goes to ``to_long(word, payload)``.  Any
        other word's list is inserted into bucket h(w), and while that
        bucket overflows its longest short list is evicted; once it fits,
        that word's evictions go to ``to_long`` in eviction order, so a
        ``to_long`` that raises leaves the bucket fully drained, as the
        per-word loop did.  ``before_word``, unless None, is called before
        every word.

        Returns ``(new, bucket, long, migrations, npostings)``: the
        Figure-7 tallies (a *bucket* word already had a short list, a
        *new* one did not), the evictions, and the postings merged.

        The journal's bucket hook fires once per bucket, before that
        bucket's first mutation in this call — its consumers capture on
        first touch — and the word hook fires for every bucket word.  A
        resident list whose word is not :attr:`owned` is extended on a
        copy, so a snapshot sharing it never sees the batch.
        """
        if self.frozen:
            from .delta import FrozenStateError

            raise FrozenStateError(
                "attempt to insert into a frozen (published) bucket manager"
            )
        buckets, nbuckets, hash_fn = self.buckets, self.nbuckets, self.hash_fn
        journal, watched, owned = self.journal, self._watched, self.owned
        if journal is not None:
            note_bucket, note_word = journal.note_bucket, journal.note_word
        noted: set[int] = set()
        new = in_bucket = nlong = migrations = npostings = 0
        for word, payload in items:
            if before_word is not None:
                before_word()
            # DocPostings are copied and extended inline, with extend's
            # check and message; other payload kinds use their methods.
            ids = payload.doc_ids if type(payload) is DocPostings else None
            n = len(payload) if ids is None else len(ids)
            npostings += n
            if is_long(word):
                nlong += 1
                to_long(word, payload)
                continue
            bucket_id = hash_fn(word)
            if not 0 <= bucket_id < nbuckets:
                raise ValueError(
                    f"hash function returned {bucket_id} outside "
                    f"[0, {nbuckets})"
                )
            bucket = buckets[bucket_id]
            lists = bucket.lists
            shared = owned is not None and word not in owned
            if journal is not None:
                if bucket_id not in noted:
                    noted.add(bucket_id)
                    note_bucket(bucket_id)
                note_word(word)
            existing = lists.get(word)
            if existing is None:
                new += 1
                if ids is None:
                    lists[word] = payload.copy()
                else:
                    # No __init__: the ids were checked when they arrived.
                    copy = object.__new__(DocPostings)
                    copy.doc_ids = ids[:]
                    lists[word] = copy
            else:
                in_bucket += 1
                if shared:
                    existing = lists[word] = existing.copy()
                if ids is None or type(existing) is not DocPostings:
                    existing.extend(payload)
                elif ids:
                    held = existing.doc_ids
                    if held and ids[0] <= held[-1]:
                        raise ValueError(
                            "appended postings must have larger doc ids "
                            f"({ids[0]} after {held[-1]})"
                        )
                    held += ids
            bucket.npostings += n
            if watched:
                self._record(bucket_id)
            else:
                self._step += 1
            if len(lists) + bucket.npostings > bucket.capacity:
                evicted = []
                while len(lists) + bucket.npostings > bucket.capacity:
                    evicted.append(bucket.remove_longest())
                    migrations += 1
                    if watched:
                        self._record(bucket_id)
                    else:
                        self._step += 1
                for mword, mpayload in evicted:
                    to_long(mword, mpayload)
        return new, in_bucket, nlong, migrations, npostings

    # -- statistics ----------------------------------------------------------

    @property
    def total_words(self) -> int:
        return sum(b.nwords for b in self.buckets)

    @property
    def total_postings(self) -> int:
        return sum(b.npostings for b in self.buckets)

    @property
    def total_units(self) -> int:
        """Occupied units across all buckets."""
        return self.total_words + self.total_postings

    @property
    def capacity_units(self) -> int:
        """Total capacity: nbuckets × bucket_size (the paper's BucketTotal)."""
        return self.nbuckets * self.bucket_size

    def occupancy(self) -> float:
        """Fraction of bucket capacity in use."""
        return self.total_units / self.capacity_units

    def words(self) -> Iterator[int]:
        """All words currently holding short lists."""
        for bucket in self.buckets:
            yield from bucket.lists

    def flush_blocks(self, block_size: int, unit_bytes: int = 4) -> int:
        """Disk blocks one full flush of the bucket region occupies.

        Buckets live in a fixed-size region regardless of occupancy.  A
        unit (one word or one posting) costs ``unit_bytes`` on disk — the
        paper notes that BucketSize "implicitly models the efficiency of
        the compression algorithm applied to in-memory inverted lists",
        i.e. units are compressed bytes, not raw postings.
        """
        if block_size <= 0 or unit_bytes <= 0:
            raise ValueError("block_size and unit_bytes must be > 0")
        total_bytes = self.nbuckets * self.bucket_size * unit_bytes
        return -(-total_bytes // block_size)
