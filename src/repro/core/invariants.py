"""Whole-index self-verification: the dual-structure invariants, checked.

The paper's correctness argument rests on structural properties it states
but never mechanically verifies: a word never has both a short and a long
list (§2), bucket contents never exceed BucketSize (§2), every chunk the
directory points at is allocated disk space (§3), and the RELEASE list plus
shadow flush regions account for every other allocated block (§3).  This
module turns those sentences into :func:`check_index`, which any test,
recovery path, or operator can run against a live index.

``check_index`` recomputes every quantity from the primary structures and
compares — it never trusts a cached counter, so it also catches accounting
drift in :class:`~repro.core.index.IndexStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..storage.block import blocks_for_postings
from ..storage.freelist import BuddyFreeList
from .delta import FrozenStateError

__all__ = [
    "FrozenStateError",
    "InvariantError",
    "InvariantReport",
    "Violation",
    "check_index",
    "freeze_index",
]


class InvariantError(Exception):
    """Raised by :meth:`InvariantReport.raise_if_failed` on violations."""

    def __init__(self, report: "InvariantReport") -> None:
        super().__init__(str(report))
        self.report = report


@dataclass(frozen=True)
class Violation:
    """One broken invariant: a short machine code plus the evidence."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.detail}"


@dataclass
class InvariantReport:
    """Outcome of one :func:`check_index` run."""

    violations: list[Violation] = field(default_factory=list)
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code: str, detail: str) -> None:
        self.violations.append(Violation(code, detail))

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise InvariantError(self)

    def __str__(self) -> str:
        if self.ok:
            return f"ok ({self.checks} checks)"
        lines = [f"{len(self.violations)} violation(s) in {self.checks} checks:"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def _check_structure_exclusivity(index, report: InvariantReport) -> None:
    """§2: a word never has both a short list and a long list."""
    for word in index.longlists.directory.words():
        report.checks += 1
        if index.buckets.contains(word):
            report.add(
                "dual-structure",
                f"word {word} has both a bucket short list and a long list",
            )


def _check_buckets(index, report: InvariantReport) -> None:
    """Bucket occupancy and per-bucket posting accounting."""
    for bucket_id, bucket in enumerate(index.buckets.buckets):
        report.checks += 1
        if bucket.size > bucket.capacity:
            report.add(
                "bucket-overflow",
                f"bucket {bucket_id} holds {bucket.size} units, capacity "
                f"{bucket.capacity}",
            )
        actual = sum(len(p) for p in bucket.lists.values())
        if actual != bucket.npostings:
            report.add(
                "bucket-accounting",
                f"bucket {bucket_id} caches npostings={bucket.npostings}, "
                f"lists hold {actual}",
            )


def _live_chunks(index):
    """Every chunk the index believes it owns, labelled by owner."""
    for entry in index.longlists.directory.entries():
        for chunk in entry.chunks:
            yield f"word {entry.word}", chunk
    for chunk in index.longlists.release:
        yield "RELEASE", chunk
    for chunk in index.flusher._bucket_regions:
        yield "bucket region", chunk
    if index.flusher._directory_region is not None:
        yield "directory region", index.flusher._directory_region


def _check_chunk_geometry(index, report: InvariantReport) -> None:
    """Chunks lie inside their disks, don't overflow, don't overlap."""
    block_postings = index.config.block_postings
    per_disk: dict[int, list[tuple[str, object]]] = {}
    for owner, chunk in _live_chunks(index):
        report.checks += 1
        if not 0 <= chunk.disk < index.array.ndisks:
            report.add(
                "chunk-disk", f"{owner}: chunk on unknown disk {chunk.disk}"
            )
            continue
        nblocks = index.array.disks[chunk.disk].profile.nblocks
        if chunk.start < 0 or chunk.start + chunk.nblocks > nblocks:
            report.add(
                "chunk-bounds",
                f"{owner}: chunk [{chunk.start}, "
                f"{chunk.start + chunk.nblocks}) outside disk {chunk.disk} "
                f"of {nblocks} blocks",
            )
        if chunk.npostings > chunk.capacity(block_postings):
            report.add(
                "chunk-overfull",
                f"{owner}: chunk holds {chunk.npostings} postings, capacity "
                f"{chunk.capacity(block_postings)}",
            )
        per_disk.setdefault(chunk.disk, []).append((owner, chunk))
    for disk_id, chunks in per_disk.items():
        chunks.sort(key=lambda oc: oc[1].start)
        for (owner_a, a), (owner_b, b) in zip(chunks, chunks[1:]):
            report.checks += 1
            if a.start + a.nblocks > b.start:
                report.add(
                    "chunk-overlap",
                    f"disk {disk_id}: {owner_a} chunk [{a.start}, "
                    f"{a.start + a.nblocks}) overlaps {owner_b} chunk at "
                    f"{b.start}",
                )


def _check_allocation_partition(index, report: InvariantReport) -> None:
    """Free space and the index's chunks partition each disk exactly.

    Every live chunk must avoid the free intervals, and together the live
    chunks must account for every allocated block — a mismatch means leaked
    or double-counted disk space.
    """
    owned: dict[int, int] = {}
    intervals_by_disk: dict[int, list[tuple[int, int]]] = {}
    for disk_id, disk in enumerate(index.array.disks):
        report.checks += 1
        try:
            disk.freelist.check_invariants()
        except AssertionError as exc:
            report.add("freelist", f"disk {disk_id}: {exc}")
        if not isinstance(disk.freelist, BuddyFreeList):
            intervals_by_disk[disk_id] = list(disk.freelist.intervals())
    for owner, chunk in _live_chunks(index):
        owned[chunk.disk] = owned.get(chunk.disk, 0) + chunk.nblocks
        for start, length in intervals_by_disk.get(chunk.disk, ()):
            if chunk.start < start + length and start < chunk.start + chunk.nblocks:
                report.add(
                    "chunk-in-free-space",
                    f"{owner}: chunk [{chunk.start}, "
                    f"{chunk.start + chunk.nblocks}) on disk {chunk.disk} "
                    f"intersects free interval [{start}, {start + length})",
                )
    for disk_id, disk in enumerate(index.array.disks):
        report.checks += 1
        # Buddy allocation rounds requests up to powers of two, so owned
        # chunk sizes legitimately undercount allocated blocks there.
        if isinstance(disk.freelist, BuddyFreeList):
            continue
        if owned.get(disk_id, 0) != disk.allocated_blocks:
            report.add(
                "space-leak",
                f"disk {disk_id}: free list says {disk.allocated_blocks} "
                f"blocks allocated, live chunks own {owned.get(disk_id, 0)}",
            )


def _check_contents(index, report: InvariantReport) -> None:
    """Chunk payloads decode to what the directory claims."""
    content_cls = index.longlists.content_cls
    block_postings = index.config.block_postings
    for entry in index.longlists.directory.entries():
        report.checks += 1
        decoded = content_cls()
        for chunk in entry.chunks:
            data_blocks = blocks_for_postings(chunk.npostings, block_postings)
            chunk_postings = content_cls()
            # Read the raw block store directly: no trace ops, no fault-plan
            # counters — the checker must never perturb what it verifies.
            store = index.array.disks[chunk.disk]._blocks
            for raw in (
                store.get(b, b"")
                for b in range(chunk.start, chunk.start + data_blocks)
            ):
                try:
                    chunk_postings.extend(content_cls.decode(raw))
                except ValueError as exc:
                    report.add(
                        "content-corrupt",
                        f"word {entry.word}: undecodable block in chunk at "
                        f"disk {chunk.disk} start {chunk.start}: {exc}",
                    )
                    break
            else:
                if len(chunk_postings) != chunk.npostings:
                    report.add(
                        "content-count",
                        f"word {entry.word}: chunk at disk {chunk.disk} "
                        f"start {chunk.start} decodes to "
                        f"{len(chunk_postings)} postings, directory says "
                        f"{chunk.npostings}",
                    )
                try:
                    decoded.extend(chunk_postings)
                except ValueError as exc:
                    report.add(
                        "content-order",
                        f"word {entry.word}: postings not increasing across "
                        f"chunks: {exc}",
                    )


def _check_posting_totals(index, report: InvariantReport) -> None:
    """Per-word totals seen by queries match the structures' own counts."""
    words = set(index.longlists.directory.words())
    words.update(index.buckets.words())
    words.update(w for w, _ in index.memory.items())
    for word in words:
        report.checks += 1
        expected = 0
        entry = index.longlists.directory.get(word)
        if entry is not None:
            expected += sum(c.npostings for c in entry.chunks)
        short = index.buckets.get(word)
        if short is not None:
            expected += len(short)
        pending = index.memory.get(word)
        if pending is not None:
            expected += len(pending)
        got = index.posting_count(word)
        if got != expected:
            report.add(
                "posting-total",
                f"word {word}: posting_count() says {got}, structures hold "
                f"{expected}",
            )


def _check_stats(index, report: InvariantReport) -> None:
    """IndexStats utilization accounting matches recomputed ground truth."""
    stats = index.stats()
    directory = index.longlists.directory
    entries = list(directory.entries())
    ground = {
        "long_words": len(entries),
        "long_chunks": sum(e.nchunks for e in entries),
        "long_postings": sum(
            sum(c.npostings for c in e.chunks) for e in entries
        ),
        "long_blocks": sum(
            sum(c.nblocks for c in e.chunks) for e in entries
        ),
        "bucket_words": sum(b.nwords for b in index.buckets.buckets),
        "bucket_postings": sum(
            sum(len(p) for p in b.lists.values())
            for b in index.buckets.buckets
        ),
        "disk_allocated_blocks": sum(
            d.freelist.allocated_blocks for d in index.array.disks
        ),
        "disk_total_blocks": sum(
            d.profile.nblocks for d in index.array.disks
        ),
    }
    for name, truth in ground.items():
        report.checks += 1
        if getattr(stats, name) != truth:
            report.add(
                "stats-drift",
                f"IndexStats.{name} = {getattr(stats, name)}, recomputed "
                f"ground truth = {truth}",
            )
    report.checks += 1
    long_blocks = ground["long_blocks"]
    truth_util = (
        1.0
        if long_blocks == 0
        else ground["long_postings"]
        / (long_blocks * index.config.block_postings)
    )
    if abs(stats.long_utilization - truth_util) > 1e-12:
        report.add(
            "stats-drift",
            f"IndexStats.long_utilization = {stats.long_utilization}, "
            f"recomputed = {truth_util}",
        )


def freeze_index(index) -> None:
    """Arm the publish-time write barrier on a cloned index.

    Incremental copy-on-write publication shares untouched buckets,
    chunks, directory entries, and block maps between consecutive
    snapshots, so a published snapshot must never be mutated.  Freezing
    sets a flag the mutation entry points check — the disks
    (write/free/allocate), the bucket manager (insert/remove), the
    long-list manager (append/rewrite/end_batch), the flush path, and
    the deletion manager — turning any sharing violation into an
    immediate :class:`FrozenStateError` instead of silent corruption of
    other snapshots.

    Reads stay unrestricted, and a query advances no counter or trace
    the index saves (``LongListManager.query_postings``).  Intended for
    debug/check mode; the flag costs one attribute test per mutation
    when armed.
    """
    index.frozen = True
    index.buckets.frozen = True
    index.longlists.frozen = True
    for disk in index.array.disks:
        disk.frozen = True


def check_index(index) -> InvariantReport:
    """Verify every dual-structure invariant of a live index.

    Read-only and side-effect free (content reads bypass the I/O trace by
    going straight to the disks' block store), so it can run between any
    two batches — or after a recovery — without perturbing the experiment.
    """
    report = InvariantReport()
    _check_structure_exclusivity(index, report)
    _check_buckets(index, report)
    _check_chunk_geometry(index, report)
    _check_allocation_partition(index, report)
    _check_contents(index, report)
    _check_posting_totals(index, report)
    _check_stats(index, report)
    return report
