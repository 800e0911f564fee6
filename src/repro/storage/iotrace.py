"""I/O trace records and the paper's Figure-6 style text format.

The ComputeDisks process (paper Section 4.4) does not perform I/O; it emits
a *trace* — the exact sequence of read/write system calls an implementation
would make for a given policy.  The trace is then executed by the
ExerciseDisks process.  Decoupling the two is a deliberate design point of
the paper (each stage's output can be saved, inspected, and re-run), so we
preserve it: traces are first-class values with a line-oriented text
serialization closely following the paper's Figure 6::

    write bucket disk 0 start 0 size 1367
    write directory disk 3 start 0 size 1
    write list word 134416 postings 1034 disk 0 start 4576 size 7
    read list word 134416 postings 1034 disk 0 start 4576 size 7
    end batch
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, TextIO


class OpKind(enum.Enum):
    """Direction of a traced I/O operation."""

    READ = "read"
    WRITE = "write"


class Target(enum.Enum):
    """What structure the operation touches."""

    BUCKET = "bucket"
    DIRECTORY = "directory"
    LONG_LIST = "list"


@dataclass(frozen=True)
class TraceOp:
    """One traced I/O system call.

    ``word`` and ``npostings`` are only meaningful for long-list operations
    (they appear in the paper's trace lines and make traces auditable); for
    bucket and directory flushes they are ``None``.
    """

    kind: OpKind
    target: Target
    disk: int
    start: int
    nblocks: int
    word: int | None = None
    npostings: int | None = None

    def __post_init__(self) -> None:
        if self.disk < 0 or self.start < 0 or self.nblocks <= 0:
            raise ValueError(f"malformed trace op: {self!r}")

    def to_line(self) -> str:
        """Serialize to the Figure-6 style text line."""
        if self.target is Target.LONG_LIST:
            return (
                f"{self.kind.value} list word {self.word} "
                f"postings {self.npostings} disk {self.disk} "
                f"start {self.start} size {self.nblocks}"
            )
        return (
            f"{self.kind.value} {self.target.value} disk {self.disk} "
            f"start {self.start} size {self.nblocks}"
        )

    @classmethod
    def from_line(cls, line: str) -> "TraceOp":
        """Parse a text line produced by :meth:`to_line`."""
        parts = line.split()
        try:
            kind = OpKind(parts[0])
            if parts[1] == "list":
                if (
                    parts[2] != "word"
                    or parts[4] != "postings"
                    or parts[6] != "disk"
                    or parts[8] != "start"
                    or parts[10] != "size"
                ):
                    raise ValueError
                return cls(
                    kind=kind,
                    target=Target.LONG_LIST,
                    word=int(parts[3]),
                    npostings=int(parts[5]),
                    disk=int(parts[7]),
                    start=int(parts[9]),
                    nblocks=int(parts[11]),
                )
            target = Target(parts[1])
            if parts[2] != "disk" or parts[4] != "start" or parts[6] != "size":
                raise ValueError
            return cls(
                kind=kind,
                target=target,
                disk=int(parts[3]),
                start=int(parts[5]),
                nblocks=int(parts[7]),
            )
        except (ValueError, IndexError):
            raise ValueError(f"malformed trace line: {line!r}") from None


class IOTrace:
    """An ordered sequence of trace ops partitioned into batch updates.

    The batch structure matters: the exerciser flushes (synchronizes the
    per-disk streams) at every batch boundary, because the paper flushes all
    buckets and the directory at the end of each batch update.
    """

    END_BATCH = "end batch"

    def __init__(self) -> None:
        self._ops: list[TraceOp] = []
        self._batch_bounds: list[int] = []

    def append(self, op: TraceOp) -> None:
        """Append one operation to the current (open) batch."""
        self._ops.append(op)

    def end_batch(self) -> None:
        """Close the current batch (empty batches are recorded too)."""
        self._batch_bounds.append(len(self._ops))

    @property
    def nbatches(self) -> int:
        return len(self._batch_bounds)

    @property
    def nops(self) -> int:
        return len(self._ops)

    def ops(self) -> Iterator[TraceOp]:
        """All operations in order, ignoring batch structure."""
        yield from self._ops

    def batches(self) -> Iterator[list[TraceOp]]:
        """Yield each batch's operations as a list."""
        prev = 0
        for bound in self._batch_bounds:
            yield self._ops[prev:bound]
            prev = bound
        if prev < len(self._ops):
            # Trailing ops in an unclosed batch are still visible.
            yield self._ops[prev:]

    # -- text serialization ------------------------------------------------

    def write_text(self, fp: TextIO) -> None:
        """Write the trace in the line-oriented text format."""
        prev = 0
        for bound in self._batch_bounds:
            for op in self._ops[prev:bound]:
                fp.write(op.to_line() + "\n")
            fp.write(self.END_BATCH + "\n")
            prev = bound
        for op in self._ops[prev:]:
            fp.write(op.to_line() + "\n")

    @classmethod
    def read_text(cls, fp: TextIO) -> "IOTrace":
        """Parse a trace from the text format."""
        trace = cls()
        for raw in fp:
            line = raw.strip()
            if not line:
                continue
            if line == cls.END_BATCH:
                trace.end_batch()
            else:
                trace.append(TraceOp.from_line(line))
        return trace

    # -- summary -----------------------------------------------------------

    def count_ops(self, target: Target | None = None) -> int:
        """Number of ops, optionally filtered by target."""
        if target is None:
            return len(self._ops)
        return sum(1 for op in self._ops if op.target is target)

    def count_blocks(self, kind: OpKind | None = None) -> int:
        """Total blocks moved, optionally filtered by direction."""
        return sum(
            op.nblocks for op in self._ops if kind is None or op.kind is kind
        )
