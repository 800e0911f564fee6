"""ExerciseDisks stage wrapper: I/O trace → wall-clock timings (§4.5).

Thin orchestration over :class:`~repro.storage.exerciser.DiskExerciser`:
runs a policy's trace on the *physical* disk profile and classifies the
outcome.  A trace whose addresses exceed the physical capacity is reported
infeasible — the paper's fate for ``fill 0``: "our disks were not large
enough to store the long lists for this policy due to gross
underutilization of disk space."
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage.disk import DiskFullError
from ..storage.exerciser import DiskExerciser, ExerciseResult
from ..storage.faults import FaultPlan
from ..storage.iotrace import IOTrace
from ..storage.profiles import SEAGATE_SCSI_1994, DiskProfile


@dataclass(frozen=True)
class ExerciseConfig:
    """Physical execution parameters (paper Table 4: Disks, BufferBlock).

    A ``fault_plan`` injects transient I/O failures into the exercised
    disks; each failed request is retried with linear backoff charged to
    the failing disk's stream time
    (:class:`~repro.storage.exerciser.DiskExerciser`).
    """

    profile: DiskProfile | None = None
    ndisks: int = 4
    buffer_blocks: int = 256
    fault_plan: FaultPlan | None = None


@dataclass
class ExerciseOutcome:
    """Result of exercising one policy's trace."""

    feasible: bool
    result: ExerciseResult | None = None
    reason: str = ""

    @property
    def total_s(self) -> float:
        if not self.feasible or self.result is None:
            raise RuntimeError(f"policy was infeasible: {self.reason}")
        return self.result.total_s


class ExerciseDisksProcess:
    """Runs traces on the physical disk model."""

    def __init__(self, config: ExerciseConfig | None = None) -> None:
        self.config = config or ExerciseConfig()

    def run(self, trace: IOTrace) -> ExerciseOutcome:
        profile = self.config.profile or SEAGATE_SCSI_1994
        exerciser = DiskExerciser(
            profile,
            self.config.ndisks,
            self.config.buffer_blocks,
            fault_plan=self.config.fault_plan,
        )
        try:
            result = exerciser.run(trace)
        except DiskFullError as exc:
            return ExerciseOutcome(feasible=False, reason=str(exc))
        return ExerciseOutcome(feasible=True, result=result)
