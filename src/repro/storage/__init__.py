"""Disk substrate: blocks, free lists, simulated disks, traces, exerciser.

This subpackage stands in for the raw SCSI disks of the paper's testbed.
See DESIGN.md ("Substitutions") for how the timing model preserves the
behaviours the paper's evaluation depends on.
"""

from .atomic import atomic_write
from .block import BlockRange, Chunk, blocks_for_postings
from .blockmap import ABSENT, LayeredBlocks
from .btree import BTree, BTreeConfig
from .buffercache import BlockBufferCache
from .disk import DiskCounters, DiskFullError, SimulatedDisk
from .diskarray import DiskArray, DiskArrayConfig
from .exerciser import BatchTiming, DiskExerciser, ExerciseResult
from .faults import (
    FaultPlan,
    FaultyDisk,
    FaultyDiskArray,
    InjectedCrash,
    TransientIOError,
    crash_point,
    injected,
    install,
    register_crash_point,
    registered_crash_points,
    uninstall,
)
from .freelist import (
    ALLOCATORS,
    BestFitFreeList,
    BuddyFreeList,
    FirstFitFreeList,
    FreeListError,
    make_freelist,
)
from .iotrace import IOTrace, OpKind, Target, TraceOp
from .profiles import (
    FAST_SCSI_1996,
    MODERN_HDD,
    OPTICAL_1994,
    PROFILES,
    SEAGATE_SCSI_1994,
    DiskProfile,
)

__all__ = [
    "ABSENT",
    "ALLOCATORS",
    "BTree",
    "BTreeConfig",
    "BatchTiming",
    "BestFitFreeList",
    "BlockBufferCache",
    "BlockRange",
    "LayeredBlocks",
    "BuddyFreeList",
    "Chunk",
    "DiskArray",
    "DiskArrayConfig",
    "DiskCounters",
    "DiskExerciser",
    "DiskFullError",
    "DiskProfile",
    "ExerciseResult",
    "FAST_SCSI_1996",
    "FaultPlan",
    "FaultyDisk",
    "FaultyDiskArray",
    "FirstFitFreeList",
    "FreeListError",
    "IOTrace",
    "InjectedCrash",
    "MODERN_HDD",
    "OPTICAL_1994",
    "OpKind",
    "PROFILES",
    "SEAGATE_SCSI_1994",
    "SimulatedDisk",
    "Target",
    "TraceOp",
    "TransientIOError",
    "atomic_write",
    "blocks_for_postings",
    "crash_point",
    "injected",
    "install",
    "make_freelist",
    "register_crash_point",
    "registered_crash_points",
    "uninstall",
]
