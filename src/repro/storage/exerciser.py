"""ExerciseDisks: execute an I/O trace against the simulated disk array.

Mirrors the paper's Section 4.5 exerciser:

* requests for each disk are serviced by an **independent stream** ("requests
  to each disk are issued by independent processes to achieve maximum
  parallelism") — within one batch, a batch's elapsed time is the maximum of
  the per-disk stream times;
* the exerciser **coalesces adjacent requests** in trace order, without
  reordering, when they are on the same disk, in the same direction, and
  physically contiguous — bounded by ``BufferBlock`` blocks per request
  ("to be faithful to real systems with a finite amount of buffering");
* at each batch boundary (after the buckets and the directory are written)
  all streams synchronize — the flush the paper performs to charge every
  policy its full I/O cost.

The exerciser does not allocate space; the trace already carries physical
addresses.  It *does* validate that every address fits the physical disks,
which is how the ``fill 0`` policy is detected as infeasible on realistic
capacities (the paper could not run it either).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .disk import DiskFullError, SimulatedDisk
from .faults import FaultPlan, FaultyDisk, TransientIOError
from .iotrace import IOTrace, OpKind, TraceOp
from .profiles import DiskProfile


@dataclass
class BatchTiming:
    """Timing outcome of one batch update."""

    batch: int
    elapsed_s: float
    per_disk_s: list[float]
    ops_issued: int
    ops_after_coalescing: int
    blocks_moved: int
    #: Transient I/O failures retried during this batch (fault injection).
    retries: int = 0


@dataclass
class ExerciseResult:
    """Full outcome of exercising a trace."""

    batch_timings: list[BatchTiming] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return sum(b.elapsed_s for b in self.batch_timings)

    @property
    def cumulative_s(self) -> list[float]:
        """Cumulative elapsed time after each batch (paper Figure 13)."""
        out: list[float] = []
        total = 0.0
        for b in self.batch_timings:
            total += b.elapsed_s
            out.append(total)
        return out

    @property
    def per_update_s(self) -> list[float]:
        """Elapsed time of each batch (paper Figure 14)."""
        return [b.elapsed_s for b in self.batch_timings]

    @property
    def total_ops_issued(self) -> int:
        return sum(b.ops_issued for b in self.batch_timings)

    @property
    def total_ops_serviced(self) -> int:
        return sum(b.ops_after_coalescing for b in self.batch_timings)

    @property
    def total_retries(self) -> int:
        return sum(b.retries for b in self.batch_timings)


#: Backoff charged to a disk's stream per retry of a transiently failed
#: request, linear in the attempt (``1×``, ``2×``, ``3×``, ...).
RETRY_BACKOFF_S = 0.002


@dataclass
class _PendingRequest:
    """A coalescing-in-progress request for one disk stream."""

    kind: OpKind
    start: int
    nblocks: int

    def can_absorb(self, op: TraceOp, buffer_blocks: int) -> bool:
        return (
            op.kind is self.kind
            and op.start == self.start + self.nblocks
            and self.nblocks + op.nblocks <= buffer_blocks
        )


class DiskExerciser:
    """Executes :class:`IOTrace` objects on a bank of simulated disks.

    A fresh bank of disks is built per :meth:`run` call so that the timing
    model starts from a clean head position, mirroring the paper's practice
    of running each policy's trace as an independent experiment.
    """

    def __init__(
        self,
        profile: DiskProfile,
        ndisks: int,
        buffer_blocks: int = 256,
        fault_plan: FaultPlan | None = None,
        max_retries: int = 4,
    ) -> None:
        if ndisks <= 0:
            raise ValueError("ndisks must be > 0")
        if buffer_blocks <= 0:
            raise ValueError("buffer_blocks must be > 0")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.profile = profile
        self.ndisks = ndisks
        self.buffer_blocks = buffer_blocks
        self.fault_plan = fault_plan
        self.max_retries = max_retries

    def _make_disks(self) -> list[SimulatedDisk]:
        if self.fault_plan is None:
            return [SimulatedDisk(self.profile) for _ in range(self.ndisks)]
        return [
            FaultyDisk(self.profile, plan=self.fault_plan, fault_id=i)
            for i in range(self.ndisks)
        ]

    def run(self, trace: IOTrace) -> ExerciseResult:
        """Execute the trace; raises :class:`DiskFullError` when any traced
        address lies outside the physical disks."""
        disks = self._make_disks()
        result = ExerciseResult()
        for batch_no, ops in enumerate(trace.batches()):
            result.batch_timings.append(
                self._run_batch(batch_no, ops, disks)
            )
        return result

    def _run_batch(
        self, batch_no: int, ops: list[TraceOp], disks: list[SimulatedDisk]
    ) -> BatchTiming:
        per_disk_s = [0.0] * self.ndisks
        pending: list[_PendingRequest | None] = [None] * self.ndisks
        serviced = 0
        blocks = 0
        retries = 0

        def service_with_retry(disk_id: int, req: _PendingRequest) -> float:
            """One request, with bounded retry + linear backoff on
            transient failures (the recovery a real driver performs)."""
            nonlocal retries
            elapsed = 0.0
            for attempt in range(self.max_retries + 1):
                try:
                    return elapsed + disks[disk_id].service(
                        req.start, req.nblocks, req.kind is OpKind.WRITE
                    )
                except TransientIOError:
                    if attempt == self.max_retries:
                        raise
                    retries += 1
                    elapsed += RETRY_BACKOFF_S * (attempt + 1)
            raise AssertionError("unreachable")

        def flush(disk_id: int) -> None:
            nonlocal serviced, blocks
            req = pending[disk_id]
            if req is None:
                return
            if req.start + req.nblocks > disks[disk_id].profile.nblocks:
                raise DiskFullError(
                    f"trace address {req.start}+{req.nblocks} exceeds disk "
                    f"capacity {disks[disk_id].profile.nblocks} "
                    f"(policy does not fit the physical disks)"
                )
            per_disk_s[disk_id] += service_with_retry(disk_id, req)
            serviced += 1
            blocks += req.nblocks
            pending[disk_id] = None

        for op in ops:
            if op.disk >= self.ndisks:
                raise ValueError(
                    f"trace references disk {op.disk} but exerciser has "
                    f"{self.ndisks}"
                )
            req = pending[op.disk]
            if req is not None and req.can_absorb(op, self.buffer_blocks):
                req.nblocks += op.nblocks
            else:
                flush(op.disk)
                pending[op.disk] = _PendingRequest(op.kind, op.start, op.nblocks)
        for disk_id in range(self.ndisks):
            flush(disk_id)

        return BatchTiming(
            batch=batch_no,
            elapsed_s=max(per_disk_s, default=0.0),
            per_disk_s=per_disk_s,
            ops_issued=len(ops),
            ops_after_coalescing=serviced,
            blocks_moved=blocks,
            retries=retries,
        )
