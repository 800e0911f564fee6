"""The Figure-3 experiment pipeline: invert → buckets → disks → exercise."""

from .compute_buckets import (
    BucketStageResult,
    ComputeBucketsProcess,
    LongListTrace,
    LongListUpdate,
)
from .compute_disks import ComputeDisksProcess, DiskStageConfig, DiskStageResult
from .content import build_content_index
from .exercise import ExerciseConfig, ExerciseDisksProcess, ExerciseOutcome
from .experiment import Experiment, ExperimentConfig, PolicyRun, default_scale
from .invert import InvertIndexProcess
from .profiling import HitMissCounters
from .rebuild import PeriodicRebuildBaseline, RebuildResult
from .stats import CorpusStats, corpus_stats

__all__ = [
    "BucketStageResult",
    "ComputeBucketsProcess",
    "ComputeDisksProcess",
    "CorpusStats",
    "DiskStageConfig",
    "DiskStageResult",
    "ExerciseConfig",
    "ExerciseDisksProcess",
    "ExerciseOutcome",
    "Experiment",
    "ExperimentConfig",
    "HitMissCounters",
    "InvertIndexProcess",
    "LongListTrace",
    "LongListUpdate",
    "PeriodicRebuildBaseline",
    "PolicyRun",
    "RebuildResult",
    "build_content_index",
    "corpus_stats",
    "default_scale",
]
