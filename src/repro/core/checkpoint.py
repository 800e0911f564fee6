"""Checkpoint and restore of a dual-structure index.

The paper relies on periodic flushes of the buckets and directory so that
"the incremental update of the index can be restarted if it is aborted"
(§1).  This module makes that concrete for the library: a checkpoint is a
self-contained binary snapshot of everything the index needs to resume —
configuration, directory, bucket contents, free-space maps, flush-region
bookkeeping, the RELEASE list, counters, and (in content mode) the
simulated disks' block payloads.

Checkpoints are only taken at batch boundaries (the in-memory batch must be
empty), matching the paper's recovery granularity: work since the last flush
is replayed, never half-applied.

One codec writes and reads the index state.  A *redo record* (magic
``DSRD``, :func:`save_record` / :func:`apply_record`) carries an index
from one batch boundary of a writer to a later one at the cost of what
the batches in between dirtied.  A *checkpoint* (magic ``DSIX``,
:func:`save` / :func:`load`) is the record cut from the empty index —
every key dirty — under a header naming the configuration that empty
index is built from.  So a restore point is a checkpoint plus a chain of
records (DESIGN.md §19).  Both are framed with the length-checked
``_w_*`` / ``_r_*`` helpers, so every truncation raises
:class:`CheckpointError`.  ``save``/``load`` work on file paths or binary
file objects.
"""

from __future__ import annotations

import io
import struct
from itertools import chain, starmap
from typing import BinaryIO

from dataclasses import replace as _dc_replace

from ..storage import faults
from ..storage.block import Chunk
from ..storage.blockmap import ABSENT, LayeredBlocks
from ..storage.diskarray import DiskArray
from ..storage.freelist import BuddyFreeList
from ..storage.iotrace import IOTrace
from ..storage.profiles import PROFILES, SEAGATE_SCSI_1994
from .buckets import Bucket, BucketManager
from .delta import DeltaJournal
from .directory import LongListEntry
from .flush import FlushManager
from .index import DualStructureIndex, IndexConfig
from .longlists import LongListManager
from .memindex import InMemoryIndex
from .policy import Alloc, Limit, Policy, Style
from .positional import PositionalPostings
from .postings import (
    CountPostings,
    DocPostings,
    decode_doc_ids,
    encode_doc_ids,
    encode_gaps,
)

_MAGIC = b"DSIX"
_RECORD_MAGIC = b"DSRD"
_VERSION = 2

CP_BEGIN_SAVE = faults.register_crash_point(
    "checkpoint.begin-save", "checkpoint save started, header not written"
)
CP_MID_SAVE = faults.register_crash_point(
    "checkpoint.mid-save",
    "configuration header written, index state not yet",
)
CP_END_SAVE = faults.register_crash_point(
    "checkpoint.end-save", "all sections written, save about to return"
)
CP_COW_PUBLISH = faults.register_crash_point(
    "checkpoint.cow-publish",
    "incremental clone assembly started, nothing published yet",
)


class CheckpointError(Exception):
    """Raised on malformed checkpoints or un-checkpointable state."""


# -- low-level helpers ---------------------------------------------------------

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")
_CHUNK = struct.Struct("<IQQQQ")
#: A keyed entry's head: the u64 key and a u32 (a chunk or byte count).
_KEY_U32 = struct.Struct("<QI")
#: An update-size estimate: the word and its f64.
_KEY_F64 = struct.Struct("<Qd")
#: A short list's entry head: the word, the payload tag, the byte count
#: of a ``D``/``P`` payload or a ``C`` payload's count.
_LIST_BYTES = struct.Struct("<QcI")
_LIST_COUNT = struct.Struct("<QcQ")
#: A bucket named by a record: its id and its head's entry count; a
#: base's buckets have no head, so the tail's count follows.
_BUCKET = struct.Struct("<II")
_BASE_BUCKET = struct.Struct("<III")


def _w_u32(fp: BinaryIO, value: int) -> None:
    fp.write(_U32.pack(value))


def _w_u64(fp: BinaryIO, value: int) -> None:
    fp.write(_U64.pack(value))


def _w_f64(fp: BinaryIO, value: float) -> None:
    fp.write(_F64.pack(value))


def _w_bytes(fp: BinaryIO, data: bytes) -> None:
    _w_u32(fp, len(data))
    fp.write(data)


def _w_str(fp: BinaryIO, text: str) -> None:
    _w_bytes(fp, text.encode("utf-8"))


def _r_u32(fp: BinaryIO) -> int:
    data = fp.read(4)
    if len(data) != 4:
        raise CheckpointError("truncated checkpoint (u32)")
    return struct.unpack("<I", data)[0]


def _r_u64(fp: BinaryIO) -> int:
    data = fp.read(8)
    if len(data) != 8:
        raise CheckpointError("truncated checkpoint (u64)")
    return struct.unpack("<Q", data)[0]


def _r_f64(fp: BinaryIO) -> float:
    data = fp.read(8)
    if len(data) != 8:
        raise CheckpointError("truncated checkpoint (f64)")
    return struct.unpack("<d", data)[0]


def _r_exact(fp: BinaryIO, n: int) -> bytes:
    data = fp.read(n)
    if len(data) != n:
        raise CheckpointError("truncated checkpoint (bytes)")
    return data


def _r_bytes(fp: BinaryIO) -> bytes:
    return _r_exact(fp, _r_u32(fp))


def _r_str(fp: BinaryIO) -> str:
    return _r_bytes(fp).decode("utf-8")


def _pack_chunk(chunk: Chunk) -> bytes:
    return _CHUNK.pack(
        chunk.disk, chunk.start, chunk.nblocks, chunk.npostings, chunk.reserved
    )


def _w_chunk(fp: BinaryIO, chunk: Chunk) -> None:
    fp.write(_pack_chunk(chunk))


def _r_chunk(fp: BinaryIO) -> Chunk:
    data = fp.read(36)
    if len(data) != 36:
        raise CheckpointError("truncated checkpoint (chunk)")
    disk, start, nblocks, npostings, reserved = struct.unpack("<IQQQQ", data)
    return Chunk(
        disk=disk,
        start=start,
        nblocks=nblocks,
        npostings=npostings,
        reserved=reserved,
    )


def _w_chunks(fp: BinaryIO, chunks: list[Chunk]) -> None:
    fp.write(_U32.pack(len(chunks)) + b"".join(map(_pack_chunk, chunks)))


def _r_chunks(fp: BinaryIO) -> list[Chunk]:
    return [_r_chunk(fp) for _ in range(_r_u32(fp))]


def _pack_entry(word: int, entry: LongListEntry) -> bytes:
    """A directory entry: the word and its chunk records."""
    chunks = entry.chunks
    return _KEY_U32.pack(word, len(chunks)) + b"".join(
        map(_pack_chunk, chunks)
    )


def _pack_block(block: int, data: bytes) -> bytes:
    return _KEY_U32.pack(block, len(data)) + data


def _list_entries(seen: dict, encoded: dict, lists: dict, words) -> list:
    """The entries of the short lists ``lists[word]`` for ``words``, in
    order: each word as a u64 key, then its payload's tag and bytes.
    The one place a checkpoint makes payload bytes.

    A :class:`DocPostings` list's entry is kept in ``encoded`` as
    ``(length, last id, entry)``.  An entry found in ``seen`` is reused
    while ``ids[length - 1] == last``: a word's short list only loses ids
    or gains the ids of documents added later, so that test pins the
    first ``length`` ids (DESIGN.md §19), and only the ids after them
    are encoded.
    """
    out = []
    for word in words:
        payload = lists[word]
        if not isinstance(payload, DocPostings):
            out.append(_other_entry(word, payload))
            continue
        ids = payload.doc_ids
        known = seen.get(word)
        if known is not None:
            length, last, entry = known
            if len(ids) >= length and ids[length - 1] == last:
                if len(ids) > length:
                    gaps = encode_gaps(last, ids[length:])
                    data = memoryview(entry)[_LIST_BYTES.size :]
                    entry = b"".join(
                        (
                            _LIST_BYTES.pack(
                                word, b"D", len(data) + len(gaps)
                            ),
                            data,
                            gaps,
                        )
                    )
                    known = (len(ids), ids[-1], entry)
                encoded[word] = known
                out.append(entry)
                continue
        data = encode_gaps(-1, ids)
        entry = _LIST_BYTES.pack(word, b"D", len(data)) + data
        if ids:
            encoded[word] = (len(ids), ids[-1], entry)
        out.append(entry)
    return out


def _other_entry(word: int, payload) -> bytes:
    """:func:`_list_entries` for a payload that is not a DocPostings."""
    if isinstance(payload, CountPostings):
        return _LIST_COUNT.pack(word, b"C", payload.count)
    if isinstance(payload, PositionalPostings):
        data = payload.encode()
        return _LIST_BYTES.pack(word, b"P", len(data)) + data
    raise CheckpointError(f"cannot checkpoint payload {type(payload)!r}")


def _r_payload(fp: BinaryIO):
    tag = fp.read(1)
    if tag == b"C":
        return CountPostings(_r_u64(fp))
    if tag == b"D":
        return DocPostings.decode(_r_bytes(fp))
    if tag == b"P":
        return PositionalPostings.decode(_r_bytes(fp))
    raise CheckpointError(f"unknown payload tag {tag!r}")


def _check_boundary(index: DualStructureIndex) -> None:
    """The one boundary rule of a checkpoint, a record and a cow clone:
    an empty in-memory batch and an interval-shaped allocator."""
    if len(index.memory) != 0:
        raise CheckpointError(
            "a checkpoint requires an empty in-memory batch; call "
            "flush_batch() first"
        )
    for disk in index.array.disks:
        if isinstance(disk.freelist, BuddyFreeList):
            raise CheckpointError("buddy allocator state is not checkpointable")


# -- the configuration header ----------------------------------------------------
#
# What a copy of an index carries of its configuration: fault plans,
# crash safety and bucket growth are the host's, never the checkpoint's.


def _w_config(fp: BinaryIO, cfg: IndexConfig) -> None:
    _w_u32(fp, cfg.nbuckets)
    _w_u32(fp, cfg.bucket_size)
    _w_u32(fp, cfg.block_postings)
    _w_u32(fp, cfg.ndisks)
    _w_str(fp, cfg.allocator)
    _w_str(fp, cfg.policy.style.value)
    _w_str(fp, cfg.policy.limit.value)
    _w_str(fp, cfg.policy.alloc.value)
    _w_f64(fp, cfg.policy.k)
    _w_u32(fp, cfg.policy.extent_blocks)
    _w_u32(fp, 1 if cfg.store_contents else 0)
    _w_u32(fp, 1 if cfg.positional else 0)
    _w_u64(fp, cfg.nblocks_override or 0)
    _w_u32(fp, 1 if cfg.trace_enabled else 0)
    _w_u32(fp, cfg.directory_entry_bytes)
    _w_str(fp, (cfg.profile or SEAGATE_SCSI_1994).name)


def _r_config(fp: BinaryIO) -> IndexConfig:
    return IndexConfig(
        nbuckets=_r_u32(fp),
        bucket_size=_r_u32(fp),
        block_postings=_r_u32(fp),
        ndisks=_r_u32(fp),
        allocator=_r_str(fp),
        policy=Policy(
            style=Style(_r_str(fp)),
            limit=Limit(_r_str(fp)),
            alloc=Alloc(_r_str(fp)),
            k=_r_f64(fp),
            extent_blocks=_r_u32(fp),
        ),
        store_contents=bool(_r_u32(fp)),
        positional=bool(_r_u32(fp)),
        nblocks_override=_r_u64(fp) or None,
        trace_enabled=bool(_r_u32(fp)),
        directory_entry_bytes=_r_u32(fp),
        profile=PROFILES.get(_r_str(fp), SEAGATE_SCSI_1994),
    )


def save_header(index: DualStructureIndex, fp: BinaryIO) -> None:
    """Write a checkpoint's header: magic, version and the configuration
    of the empty index its body — :func:`save_record` with every key
    dirty — applies to.

    The bucket count is taken from the *live* manager, not the config:
    bucket growth enlarges the manager and re-syncs the config, but the
    manager is authoritative if they ever disagree (a header that
    under-counts buckets would build a manager too small for the grown
    bucket ids).
    """
    _check_boundary(index)
    faults.crash_point(CP_BEGIN_SAVE)
    fp.write(_MAGIC)
    fp.write(bytes([_VERSION]))
    _w_config(fp, _dc_replace(index.config, nbuckets=index.buckets.nbuckets))
    faults.crash_point(CP_MID_SAVE)


def load_header(fp: BinaryIO) -> IndexConfig:
    """The configuration a :func:`save_header` header names."""
    if fp.read(4) != _MAGIC:
        raise CheckpointError("not a dual-structure index checkpoint")
    version = fp.read(1)
    if version != bytes([_VERSION]):
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    return _r_config(fp)


# -- checkpoints -------------------------------------------------------------------


def save(index: DualStructureIndex, fp: BinaryIO) -> None:
    """Write a checkpoint of ``index`` to a binary file object.

    Raises :class:`CheckpointError` when the in-memory batch is not empty
    (checkpoints happen at batch boundaries) or the array uses a buddy
    allocator (whose internal state is not interval-shaped).
    """
    save_header(index, fp)
    save_record(index, None, fp, {})


def load(fp: BinaryIO) -> DualStructureIndex:
    """Reconstruct a :class:`DualStructureIndex` from a checkpoint."""
    index = DualStructureIndex(load_header(fp))
    apply_record(index, fp)
    return index


# -- redo records -------------------------------------------------------------------
#
# A record takes a writer's state to a later batch boundary: the
# post-image of exactly the dirty set a DeltaJournal names.  Every
# ordered mapping of the state (directory entries, each bucket's short
# lists, each disk's blocks, update-size estimates) travels as a
# *delta*, so that the state a record restores saves to the writer's own
# bytes, iteration order included.
#
# Why a delta can carry the order: every key outside the dirty set was
# untouched, so it still sits where it sat.  A key inserted since (new,
# or removed and put back) went to the end of the mapping, after all of
# those.  Cut the longest run of dirty keys off the end — the *tail* —
# and every other dirty key still in the mapping (the *head*) was only
# reassigned in place.  The restore drops every dirty key that is not in
# the head, assigns the head in place and appends the tail in order.  A
# dirty set that over-records is still exact: an untouched key marked
# dirty lands in the head, or in a tail that re-appends it where it was.
#
# A checkpoint's body is the record cut from the empty index: every key
# is dirty (``None`` below), so each mapping has no head and is written
# whole as its tail, with no per-key membership test or sort, and the
# restore fills the empty mapping with one ``update``.

#: A dirty-key list's length word meaning "every key" (a checkpoint).
_EVERY = 0xFFFFFFFF


def _w_dirty(fp: BinaryIO, keys) -> None:
    """A dirty key set, or ``None`` for every key."""
    if keys is None:
        _w_u32(fp, _EVERY)
    else:
        _w_bytes(fp, encode_doc_ids(sorted(keys)))


def _r_dirty(fp: BinaryIO) -> list[int] | None:
    n = _r_u32(fp)
    if n == _EVERY:
        return None
    data = _r_exact(fp, n)
    try:
        return decode_doc_ids(data)
    except ValueError as exc:
        raise CheckpointError(f"corrupt redo record ({exc})") from exc


def _dirty_tail(mapping, dirty) -> list:
    """``mapping``'s longest run of ``dirty`` keys at its end, in its
    order: every key it gained since the boundary ``dirty`` covers (a
    dict appends), while every other dirty key kept its place."""
    keys = []
    for key in reversed(mapping):
        if key not in dirty:
            break
        keys.append(key)
    keys.reverse()
    return keys


def _w_delta(fp: BinaryIO, mapping, dirty, pack) -> None:
    """Head then tail entries of ``mapping`` over the keys ``dirty``,
    each entry ``pack(key, value)``, in one write."""
    if dirty is None:
        head, tail = (), mapping
        tail_entries = starmap(pack, mapping.items())
    else:
        tail = _dirty_tail(mapping, dirty)
        in_tail = set(tail)
        head = sorted(
            k for k in dirty if k in mapping and k not in in_tail
        )
        tail_entries = map(pack, tail, map(mapping.__getitem__, tail))
    fp.write(
        b"".join(
            [
                _U32.pack(len(head)),
                *map(pack, head, map(mapping.__getitem__, head)),
                _U32.pack(len(tail)),
                *tail_entries,
            ]
        )
    )


def _r_delta(fp: BinaryIO, mapping: dict, dirty, read_value) -> list:
    """Inverse of :func:`_w_delta`, applied to ``mapping`` in place;
    returns the entries it assigned."""
    head = [(_r_u64(fp), read_value(fp)) for _ in range(_r_u32(fp))]
    tail = [(_r_u64(fp), read_value(fp)) for _ in range(_r_u32(fp))]
    if dirty is not None:
        kept = {key for key, _ in head}
        for key in dirty:
            if key not in kept:
                mapping.pop(key, None)
    for key, value in head:
        if key not in mapping:
            raise CheckpointError(
                "redo record does not chain onto this state"
            )
        mapping[key] = value
    mapping.update(tail)
    return head + tail


def _by_bucket(buckets: BucketManager, words) -> dict[int, set[int] | None]:
    """The dirty key set of each bucket's lists: the dirty words grouped
    by the bucket that holds (or would hold) each one's short list, or
    every key of every bucket when ``words`` is ``None``."""
    if words is None:
        return dict.fromkeys(range(buckets.nbuckets))
    groups: dict[int, set[int]] = {}
    for word in words:
        groups.setdefault(buckets.bucket_of(word), set()).add(word)
    return groups


def _w_buckets(
    fp: BinaryIO, buckets: BucketManager, words, encoded: dict
) -> None:
    """The short lists of a record: for each bucket a dirty word hashes
    to, in bucket order, the :func:`_w_delta` of its lists over the
    dirty words; for a base (``words`` is ``None``) every bucket that
    holds lists, each written whole.

    The dirty words are grouped by bucket in one pass, and the tail test
    asks the whole dirty set (every word in a bucket's lists hashes to
    that bucket).  A base rebuilds ``encoded`` from the entries it
    writes, so a word no longer in a bucket leaves it.
    """
    parts = []
    if words is None:
        seen = encoded.copy()
        encoded.clear()
        ngroups = 0
        for bucket_id, bucket in enumerate(buckets.buckets):
            lists = bucket.lists
            if lists:
                ngroups += 1
                parts.append(_BASE_BUCKET.pack(bucket_id, 0, len(lists)))
                parts += _list_entries(seen, encoded, lists, lists)
    else:
        hash_fn = buckets.hash_fn
        groups: dict[int, list[int]] = {}
        for word in sorted(words):
            groups.setdefault(hash_fn(word), []).append(word)
        ngroups = len(groups)
        for bucket_id in sorted(groups):
            lists = buckets.buckets[bucket_id].lists
            tail = _dirty_tail(lists, words)
            in_tail = set(tail)
            head = [
                word
                for word in groups[bucket_id]
                if word in lists and word not in in_tail
            ]
            parts.append(_BUCKET.pack(bucket_id, len(head)))
            parts += _list_entries(encoded, encoded, lists, head)
            parts.append(_U32.pack(len(tail)))
            parts += _list_entries(encoded, encoded, lists, tail)
    _w_u32(fp, ngroups)
    fp.write(b"".join(parts))


# Sections a record carries whole: each is small and rewritten by every
# batch.


def _w_regions(fp: BinaryIO, index: DualStructureIndex) -> None:
    """The chunks no directory entry owns: flush regions (shadow
    bookkeeping) and the RELEASE list a deletion sweep leaves for the
    next flush to free."""
    _w_chunks(fp, index.flusher._bucket_regions)
    have_dir = index.flusher._directory_region is not None
    _w_u32(fp, 1 if have_dir else 0)
    if have_dir:
        _w_chunk(fp, index.flusher._directory_region)
    _w_chunks(fp, index.longlists.release)


def _r_regions(fp: BinaryIO, index: DualStructureIndex) -> None:
    index.flusher._bucket_regions = _r_chunks(fp)
    index.flusher._directory_region = _r_chunk(fp) if _r_u32(fp) else None
    index.longlists.release = _r_chunks(fp)


def _w_freelists(fp: BinaryIO, index: DualStructureIndex) -> None:
    """Free lists: the allocated state stored as free intervals."""
    for disk in index.array.disks:
        intervals = [*chain.from_iterable(disk.freelist.intervals())]
        fp.write(
            struct.pack(
                f"<QQ{len(intervals)}Q",
                disk.freelist.nblocks,
                len(intervals) // 2,
                *intervals,
            )
        )


def _r_freelists(fp: BinaryIO, index: DualStructureIndex) -> None:
    for disk in index.array.disks:
        nblocks = _r_u64(fp)
        if nblocks != disk.freelist.nblocks:
            raise CheckpointError(
                "checkpoint disk capacity does not match configuration"
            )
        nintervals = _r_u64(fp)
        disk.freelist._starts = []
        disk.freelist._lengths = []
        for _ in range(nintervals):
            disk.freelist._starts.append(_r_u64(fp))
            disk.freelist._lengths.append(_r_u64(fp))
        disk.freelist.check_invariants()


_COUNTERS = (
    "appends",
    "appends_to_existing",
    "in_place_updates",
    "reads",
    "writes",
    "blocks_read",
    "blocks_written",
    "lists_created",
    "whole_moves",
)


def _w_counters(fp: BinaryIO, index: DualStructureIndex) -> None:
    c = index.longlists.counters
    fp.write(
        struct.pack(
            f"<{len(_COUNTERS)}Q", *[getattr(c, name) for name in _COUNTERS]
        )
    )


def _r_counters(fp: BinaryIO, index: DualStructureIndex) -> None:
    c = index.longlists.counters
    for name in _COUNTERS:
        setattr(c, name, _r_u64(fp))


def save_record(
    index: DualStructureIndex,
    dirty: DeltaJournal | None,
    fp,
    encoded: dict,
) -> None:
    """Write the redo record from an earlier boundary of ``index`` to now.

    ``dirty`` is a journal covering every mutation since that boundary
    (a union of publish journals).  Only its dirty words' short lists and
    directory entries, its dirty blocks and the small whole sections
    (flush regions, the RELEASE list, free intervals, counters, progress)
    are written, so the record costs what the batches since touched.
    ``dirty=None`` cuts the record from the empty index, every key dirty:
    a checkpoint's body, and the full copy ``index``'s journal covers
    from (:meth:`DualStructureIndex.begin_journal`).  Same boundary rule
    as :func:`save`; raises :class:`CheckpointError` when the journal
    cannot vouch for the divergence (bucket growth, crash recovery) —
    the caller takes a full checkpoint instead.

    ``encoded`` holds the short-list entries earlier saves of this same
    ``index`` wrote (:func:`_list_entries`); the save reuses and
    refreshes them.  Pass a fresh dict to keep none.
    """
    _check_boundary(index)
    if dirty is None:
        index.begin_journal()
        words = None
        blocks = [None] * len(index.array.disks)
    else:
        if dirty.requires_full:
            raise CheckpointError(
                "the journal cannot vouch for a redo record (structure "
                "change or crash recovery since the chained boundary)"
            )
        if not index.config.store_contents:
            raise CheckpointError("a redo record requires content mode")
        words = dirty.dirty_words
        blocks = [set() for _ in index.array.disks]
        for disk_id, block in dirty.dirty_blocks:
            blocks[disk_id].add(block)
    buckets = index.buckets
    fp.write(
        _RECORD_MAGIC
        + bytes([_VERSION])
        + struct.pack(
            "<IQQI",
            buckets.nbuckets,
            index._batches,
            index._next_doc_id,
            index.array._next_disk,
        )
    )
    _w_dirty(fp, words)
    longlists = index.longlists
    _w_delta(fp, longlists.directory._entries, words, _pack_entry)
    _w_buckets(fp, buckets, words, encoded)
    _w_delta(fp, longlists._update_sizes, words, _KEY_F64.pack)
    _w_regions(fp, index)
    _w_freelists(fp, index)
    for disk, dirty_blocks in zip(index.array.disks, blocks):
        _w_dirty(fp, dirty_blocks)
        _w_delta(fp, disk._blocks, dirty_blocks, _pack_block)
    _w_counters(fp, index)
    if dirty is None:
        faults.crash_point(CP_END_SAVE)


def apply_record(index: DualStructureIndex, fp) -> None:
    """Apply one :func:`save_record` record to ``index`` in place.

    ``index`` must hold exactly the state the record was cut from (for a
    checkpoint's body, the empty index :func:`load` builds; otherwise
    the restored state with the records before this one applied);
    raises :class:`CheckpointError` on a truncated or foreign record and
    where the state visibly does not match.
    """
    if fp.read(4) != _RECORD_MAGIC:
        raise CheckpointError("not a redo record")
    version = fp.read(1)
    if version != bytes([_VERSION]):
        raise CheckpointError(f"unsupported redo record version {version!r}")
    buckets = index.buckets
    if _r_u32(fp) != buckets.nbuckets:
        raise CheckpointError("redo record was cut from another bucket space")
    index._batches = _r_u64(fp)
    index._next_doc_id = _r_u64(fp)
    index.array._next_disk = _r_u32(fp)
    words = _r_dirty(fp)
    longlists = index.longlists
    entries = longlists.directory._entries
    for word, chunks in _r_delta(fp, entries, words, _r_chunks):
        entries[word] = LongListEntry(word=word, chunks=chunks)
    groups = _by_bucket(buckets, words)
    for _ in range(_r_u32(fp)):
        bucket_id = _r_u32(fp)
        if bucket_id not in groups:
            raise CheckpointError("corrupt redo record (bucket id)")
        bucket = buckets.buckets[bucket_id]
        _r_delta(fp, bucket.lists, groups[bucket_id], _r_payload)
        bucket.npostings = sum(map(len, bucket.lists.values()))
    _r_delta(fp, longlists._update_sizes, words, _r_f64)
    _r_regions(fp, index)
    _r_freelists(fp, index)
    for disk in index.array.disks:
        _r_delta(fp, disk._blocks, _r_dirty(fp), _r_bytes)
    _r_counters(fp, index)


def clone(index: DualStructureIndex) -> DualStructureIndex:
    """An independent deep copy of ``index`` via the checkpoint format.

    The serving layer's copy-on-publish primitive: the copy shares no
    mutable structure with the original (directory, buckets, free lists,
    disk block payloads are all rebuilt from the serialized form), so
    readers holding the copy never observe a half-flushed bucket or a
    partially relocated long list while the writer mutates the original.
    Same preconditions as :func:`save` — call at a batch boundary.
    """
    buf = io.BytesIO()
    save(index, buf)
    buf.seek(0)
    return load(buf)


# -- incremental copy-on-write clone -------------------------------------------


def _copy_chunks(chunks: list[Chunk]) -> list[Chunk]:
    """Fresh chunk records: the writer mutates its own in place."""
    return [
        Chunk(
            disk=c.disk,
            start=c.start,
            nblocks=c.nblocks,
            npostings=c.npostings,
            reserved=c.reserved,
        )
        for c in chunks
    ]


def _config_fingerprint(cfg: IndexConfig) -> bytes:
    """The structural parameters two clones of one index must agree on:
    the configuration header a checkpoint carries, so a full clone and an
    incremental clone of the same writer compare equal."""
    buf = io.BytesIO()
    _w_config(buf, cfg)
    return buf.getvalue()


def clone_incremental(
    index: DualStructureIndex,
    prev: DualStructureIndex,
    delta: DeltaJournal,
) -> DualStructureIndex:
    """An O(batch) clone of ``index`` sharing structure with ``prev``.

    ``prev`` must be the immediately preceding published clone of the
    same writer (itself produced by :func:`clone` or this function) and
    ``delta`` the journal of every writer mutation since ``prev`` was
    taken.  The result is equivalent to ``clone(index)`` but deep-copies
    only the dirty set:

    * untouched ``Bucket`` objects, directory entries, and chunk records
      are shared with ``prev`` by reference;
    * untouched disk blocks are shared through a
      :class:`~repro.storage.blockmap.LayeredBlocks` overlay whose only
      own entries are the batch's dirty blocks (rewrites carry the
      writer's bytes, frees are masked with ``ABSENT``);
    * dirty words' directory entries, flush regions and the RELEASE
      list are copied fresh from the writer, never aliased to it;
    * a dirty bucket gets a fresh list table holding the writer's own
      short-list payloads: the writer extends a payload in place only
      while its word is noted in ``delta``, which the publish clears, so
      from then on it extends a copy (``BucketManager.owned``).

    Shared state is safe because published clones are never mutated —
    enforced in debug mode by ``invariants.freeze_index``.  Raises
    :class:`CheckpointError` whenever the delta cannot vouch for the
    divergence (bucket growth, crash recovery, bookkeeping mismatch) —
    callers fall back to the full :func:`clone`, which doubles as the
    differential-testing oracle for this fast path.
    """
    cfg = prev.config
    if delta is None:
        raise CheckpointError("incremental clone requires a delta journal")
    if delta.recovered:
        raise CheckpointError(
            "crash recovery since the previous publish: the delta journal "
            "cannot vouch for sharing; use a full clone"
        )
    if delta.structure_changed:
        raise CheckpointError(
            "bucket growth since the previous publish: the delta journal "
            "cannot vouch for sharing; use a full clone"
        )
    if not cfg.store_contents:
        raise CheckpointError("incremental clone requires content mode")
    _check_boundary(index)
    if _config_fingerprint(cfg) != _config_fingerprint(index.config):
        raise CheckpointError(
            "previous clone was built from a different configuration"
        )
    if prev._batches + delta.batches != index._batches:
        raise CheckpointError(
            f"delta journal covers {delta.batches} batch(es) but the "
            f"writer advanced from {prev._batches} to {index._batches}; "
            "the journal was cleared at the wrong boundary"
        )
    faults.crash_point(CP_COW_PUBLISH)

    out = DualStructureIndex.__new__(DualStructureIndex)
    out.config = cfg
    out.trace = IOTrace() if cfg.trace_enabled else None

    # Disks: writer free-space intervals, block maps layered over prev.
    # A full clone always reconstructs a plain (fault-free) DiskArray,
    # so the incremental path does the same for exact parity.
    out.array = DiskArray(cfg.array_config())
    out.array._next_disk = index.array._next_disk
    # The overlay ends with the blocks the writer's map gained, in its
    # order, and a block it freed and wrote again is masked below the
    # overlay first, so the snapshot's map iterates (and saves) in the
    # writer's order.
    dirty_by_disk: dict[int, set[int]] = {}
    for disk_id, block in delta.dirty_blocks:
        dirty_by_disk.setdefault(disk_id, set()).add(block)
    for disk_id, disk in enumerate(out.array.disks):
        writer_disk = index.array.disks[disk_id]
        disk.freelist._starts = list(writer_disk.freelist._starts)
        disk.freelist._lengths = list(writer_disk.freelist._lengths)
        disk.freelist.check_invariants()
        writer_blocks = writer_disk._blocks
        dirty = dirty_by_disk.get(disk_id, set())
        tail = _dirty_tail(writer_blocks, dirty)
        base = prev.array.disks[disk_id]._blocks
        moved = {block: ABSENT for block in tail if block in base}
        if moved:
            base = LayeredBlocks.over(base, moved)
        overlay = {
            block: writer_blocks.get(block, ABSENT)
            for block in dirty.difference(tail)
        }
        overlay.update((block, writer_blocks[block]) for block in tail)
        disk._blocks = LayeredBlocks.over(base, overlay)

    # Buckets: share every untouched Bucket object with prev; a dirty
    # bucket gets a fresh list table in the writer's order, sharing the
    # writer's payloads.  The manager is assembled without building
    # nbuckets empty Buckets only to replace them.
    shared_buckets = list(prev.buckets.buckets)
    for bucket_id in delta.dirty_buckets:
        source = index.buckets.buckets[bucket_id]
        fresh = shared_buckets[bucket_id] = Bucket(source.capacity)
        fresh.lists = dict(source.lists)
        fresh.npostings = source.npostings
    out.buckets = object.__new__(BucketManager)
    vars(out.buckets).update(
        vars(prev.buckets), buckets=shared_buckets, _watched={}, frozen=False
    )
    # No payload is the copy's own: it shares them with the writer.
    out.buckets.journal, out.buckets.owned = None, set()

    # Long lists: share untouched directory entries (and their Chunk
    # records) with prev; dirty words get fresh entries with fresh chunk
    # copies — in-place updates mutate Chunk.npostings on the writer, so
    # chunk records of dirty words must never be aliased.
    content_cls = PositionalPostings if cfg.positional else DocPostings
    out.longlists = LongListManager(
        cfg.policy,
        out.array,
        cfg.block_postings,
        trace=out.trace,
        content_cls=content_cls,
    )
    # The writer's words, in its order: prev's entries, dirty ones next.
    writer_entries = index.longlists.directory._entries
    shared = prev.longlists.directory._entries
    entries = dict(zip(writer_entries, map(shared.get, writer_entries)))
    for word in delta.dirty_words:
        source_entry = writer_entries.get(word)
        if source_entry is not None:
            entries[word] = LongListEntry(
                word=word, chunks=_copy_chunks(source_entry.chunks)
            )
    out.longlists.directory._entries = entries
    out.longlists.counters = _dc_replace(index.longlists.counters)
    out.longlists._update_sizes = dict(index.longlists._update_sizes)

    # Flush regions and the RELEASE list: small, always rewritten each
    # batch — copy fresh.  FlushCounters stay zero, matching what a load
    # reconstructs.
    out.flusher = FlushManager(
        out.array,
        cfg.block_postings,
        trace=out.trace,
        directory_entry_bytes=cfg.directory_entry_bytes,
    )
    out.flusher._bucket_regions = _copy_chunks(index.flusher._bucket_regions)
    if index.flusher._directory_region is not None:
        out.flusher._directory_region = _copy_chunks(
            [index.flusher._directory_region]
        )[0]
    out.longlists.release = _copy_chunks(index.longlists.release)
    out.memory = InMemoryIndex()
    out.grower = None
    out._batches = index._batches
    out._next_doc_id = index._next_doc_id
    out._aborted_batch = None
    out._aborted_next_doc_id = 0
    out.delta = None
    out._undo = None
    return out
