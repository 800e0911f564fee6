"""The experiment runner: the full Figure-3 data flow, end to end.

``News → InvertIndex → ComputeBuckets → ComputeDisks → ExerciseDisks``

An :class:`Experiment` owns one workload and caches the policy-independent
stages (workload generation and the bucket stage run once; every policy
replays the same long-list trace) — the same decoupling the paper's design
is built around.  Each benchmark constructs an experiment at an appropriate
scale and asks for the policy runs it needs.  Everything runs in-process
and serially: the whole Table-2 comparison is seconds of work (see
``benchmarks/results/TRIAL_sweep.txt``).
"""

from __future__ import annotations

import os
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

from ..core.policy import Policy
from ..storage import faults
from ..storage.faults import FaultPlan
from ..text.batchupdate import BatchUpdate
from ..workload.synthetic import SyntheticNews, SyntheticNewsConfig
from .compute_buckets import BucketStageResult, ComputeBucketsProcess
from .compute_disks import ComputeDisksProcess, DiskStageConfig, DiskStageResult
from .exercise import ExerciseConfig, ExerciseDisksProcess, ExerciseOutcome
from .stats import CorpusStats, corpus_stats


@dataclass(frozen=True)
class ExperimentConfig:
    """Base-case experimental parameters (paper Tables 4, reconstructed).

    The bucket sizing is calibrated so the buckets fill within the first
    ~10–20 updates of the default workload and then steadily overflow —
    the regime all of the paper's figures live in.
    """

    workload: SyntheticNewsConfig = field(default_factory=SyntheticNewsConfig)
    nbuckets: int = 256
    bucket_size: int = 1024
    block_postings: int = 64
    bucket_unit_bytes: int = 4
    block_size: int = 4096
    ndisks: int = 4
    virtual_blocks: int = 4_194_304
    buffer_blocks: int = 256
    #: Template for fault injection (the ``--inject-faults`` knob): every
    #: policy run gets its own copy, re-seeded from the policy
    #: (:meth:`Experiment.fault_plan_for`), installed around ComputeDisks
    #: so named crash points fire, and handed to ExerciseDisks, where
    #: failed requests are retried with backoff.
    fault_plan: FaultPlan | None = None

    @property
    def bucket_flush_blocks(self) -> int:
        """Blocks one bucket-region flush writes (fixed-size region)."""
        total_bytes = self.nbuckets * self.bucket_size * self.bucket_unit_bytes
        return -(-total_bytes // self.block_size)

    @classmethod
    def at_scale(cls, scale: float) -> "ExperimentConfig":
        """The paper's experiment with the corpus scaled by ``scale``.

        Bucket space scales with the corpus: the paper's §7 point that the
        short/long division must be rebalanced as the database grows
        ("given the correct parameters, our algorithms scale well" [10]).
        A fixed region at 4x the corpus floods the long-list trace with
        prematurely migrated small lists (extension X2).
        """
        return cls(
            workload=SyntheticNewsConfig(scale=scale),
            nbuckets=max(32, int(256 * scale)),
        )

    @property
    def physical_blocks(self) -> int:
        """Per-disk capacity of the physical disks ExerciseDisks times.

        The paper's 2 GB drives ÷ ~20 at scale 1, in 4 KB blocks, scaled
        with the corpus so that the ``fill 0`` layout does not fit — as on
        the paper's hardware (DESIGN.md §7).
        """
        return max(1024, int(8192 * self.workload.scale))


@dataclass
class PolicyRun:
    """Joined outcome of ComputeDisks (+ optionally ExerciseDisks) for one
    policy."""

    policy: Policy
    disks: DiskStageResult
    exercise: ExerciseOutcome | None = None


def default_scale() -> float:
    """Workload scale factor for the benchmark suite.

    Controlled by ``REPRO_SCALE`` (default 1.0); the full paper-shaped run
    is ``1.0``, smaller values keep CI fast, larger values stress-test.
    """
    return float(os.environ.get("REPRO_SCALE", "1.0"))


class Experiment:
    """One workload, many policies, every stage memoized in-process."""

    def __init__(self, config: ExperimentConfig | None = None) -> None:
        self.config = config or ExperimentConfig()
        self._updates: list[BatchUpdate] | None = None
        self._bucket_result: BucketStageResult | None = None
        self._policy_runs: dict[tuple, PolicyRun] = {}

    # -- cached stages -------------------------------------------------------

    def updates(self) -> list[BatchUpdate]:
        """The workload's batch updates (generated once)."""
        if self._updates is None:
            self._updates = list(SyntheticNews(self.config.workload).batches())
        return self._updates

    def stats(self, frequent_fraction: float = 0.002) -> CorpusStats:
        """Table-1 statistics of the workload."""
        return corpus_stats(self.updates(), frequent_fraction)

    def bucket_stage(self) -> BucketStageResult:
        """ComputeBuckets output (run once; shared by all policies)."""
        if self._bucket_result is None:
            process = ComputeBucketsProcess(
                self.config.nbuckets, self.config.bucket_size
            )
            self._bucket_result = process.run(self.updates())
        return self._bucket_result

    # -- per-policy stages -----------------------------------------------------

    def run_policy(self, policy: Policy, exercise: bool = False) -> PolicyRun:
        """ComputeDisks (and optionally ExerciseDisks) for one policy.

        Under a configured fault plan the policy's own plan
        (:meth:`fault_plan_for`) is installed around both stages, so a
        named crash point inside the long-list replay raises
        :class:`~repro.storage.faults.InjectedCrash` out of here, and the
        transient faults the exerciser retries depend on the policy alone
        — not on which policies ran before it.
        """
        key = (policy, exercise)
        cached = self._policy_runs.get(key)
        if cached is not None:
            return cached
        # Reuse the disk stage from a non-exercised run of the same policy.
        base = self._policy_runs.get((policy, False))
        # The bucket stage is policy-independent: it runs outside the plan.
        trace = self.bucket_stage().trace
        plan = self.fault_plan_for(policy)
        with faults.injected(plan) if plan is not None else nullcontext():
            if base is not None:
                disks = base.disks
            else:
                process = ComputeDisksProcess(self.disk_stage_config(policy))
                disks = process.run(trace)
            outcome = None
            if exercise:
                exerciser = ExerciseDisksProcess(self.exercise_config(plan))
                outcome = exerciser.run(disks.trace)
        run = PolicyRun(policy=policy, disks=disks, exercise=outcome)
        self._policy_runs[key] = run
        return run

    def run_policies(
        self, policies: list[Policy], exercise: bool = False
    ) -> dict[str, PolicyRun]:
        """Run many policies; keyed by :attr:`Policy.name`."""
        return {p.name: self.run_policy(p, exercise=exercise) for p in policies}

    # -- stage-config plumbing -------------------------------------------------

    def fault_plan_for(self, policy: Policy) -> FaultPlan | None:
        """A fresh copy of the configured fault plan for one policy run.

        A :class:`FaultPlan` is stateful (trigger counters, RNG), so one
        shared instance would make each policy's faults depend on the
        policies that ran before it.  The seed is a function of the base
        seed and the policy's name — not its position in a list.
        """
        base = self.config.fault_plan
        if base is None:
            return None
        seed = zlib.crc32(f"{base.seed}:{policy.name}".encode())
        return replace(base, seed=seed)

    def disk_stage_config(self, policy: Policy) -> DiskStageConfig:
        """The ComputeDisks parameters this experiment implies for a policy."""
        return DiskStageConfig(
            policy=policy,
            ndisks=self.config.ndisks,
            block_postings=self.config.block_postings,
            bucket_flush_blocks=self.config.bucket_flush_blocks,
            virtual_blocks=self.config.virtual_blocks,
        )

    def exercise_config(
        self, fault_plan: FaultPlan | None = None
    ) -> ExerciseConfig:
        """The ExerciseDisks parameters (``fault_plan``: the run's own)."""
        return ExerciseConfig(
            ndisks=self.config.ndisks,
            buffer_blocks=self.config.buffer_blocks,
            fault_plan=fault_plan,
        )
