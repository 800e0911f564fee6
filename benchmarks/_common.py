"""Shared infrastructure for the benchmark/reproduction harness.

Each ``bench_*`` module regenerates one table or figure of the paper (see
DESIGN.md §4 for the index).  The pattern is:

* the *policy-independent* stages (workload generation, ComputeBuckets) run
  once per session via :func:`base_experiment` — the same economy the
  paper's staged pipeline buys;
* the benchmarked callable regenerates the figure's policy-dependent work
  from the shared long-list trace, so the timing is honest;
* the rendered table/series is printed (visible through pytest's capture
  via ``capfd.disabled``) and archived under ``benchmarks/results/``;
* shape assertions encode the paper's qualitative findings, so a failed
  reproduction fails the bench.

Set ``REPRO_SCALE`` to shrink or grow the workload (default 1.0 ≈ 1/20 of
the paper's corpus; see DESIGN.md "Substitutions").  Every bench runs
in-process and serially: the thirteen paper artifacts together take ~14 s,
and fanning them out over a process pool took 2.6x as long
(``benchmarks/results/TRIAL_sweep.txt``).
"""

from __future__ import annotations

import functools
import pathlib

from repro.core.policy import Limit, Policy, Style
from repro.pipeline.experiment import (
    Experiment,
    ExperimentConfig,
    default_scale,
)
from repro.storage.profiles import SEAGATE_SCSI_1994
from repro.workload.synthetic import SyntheticNewsConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def physical_blocks() -> int:
    """Physical per-disk capacity for the ExerciseDisks figures.

    Scaled with the corpus (the paper's 2 GB drives ÷ ~20 at scale 1, in
    4 KB blocks) so that the ``fill 0`` layout does not fit — exactly as
    on the paper's hardware — at any ``REPRO_SCALE``.
    """
    return max(1024, int(8192 * default_scale()))


@functools.lru_cache(maxsize=None)
def base_config() -> ExperimentConfig:
    """Base experimental parameters at the requested REPRO_SCALE.

    Bucket space scales with the corpus — the paper's §7 point that the
    short/long division must be rebalanced as the database grows ("given
    the correct parameters, our algorithms scale well" [10]); without
    this, larger scales drown in prematurely migrated small lists.
    """
    scale = default_scale()
    return ExperimentConfig(
        workload=SyntheticNewsConfig(scale=scale),
        nbuckets=max(32, int(256 * scale)),
    )


@functools.lru_cache(maxsize=None)
def base_experiment() -> Experiment:
    """The session-shared experiment (workload + bucket stage cached)."""
    experiment = Experiment(base_config())
    experiment.bucket_stage()
    return experiment


def physical_exercise_config():
    from repro.pipeline.exercise import ExerciseConfig

    return ExerciseConfig(
        profile=SEAGATE_SCSI_1994.with_capacity(physical_blocks()),
        ndisks=base_config().ndisks,
        buffer_blocks=base_config().buffer_blocks,
    )


def figure_policies() -> dict[str, Policy]:
    """The five curves of Figures 8–10 (whole 0 ≡ whole z in op counts)."""
    return {
        "new 0": Policy(style=Style.NEW, limit=Limit.ZERO),
        "new z": Policy(style=Style.NEW, limit=Limit.Z),
        "fill 0": Policy(style=Style.FILL, limit=Limit.ZERO),
        "fill z": Policy(style=Style.FILL, limit=Limit.Z),
        "whole 0&z": Policy(style=Style.WHOLE, limit=Limit.ZERO),
    }


def timing_policies() -> dict[str, Policy]:
    """The curves of Figures 13–14 (whole 0 and whole z differ in time;
    fill 0 is reported infeasible on the physical disks)."""
    return {
        "new 0": Policy(style=Style.NEW, limit=Limit.ZERO),
        "new z": Policy(style=Style.NEW, limit=Limit.Z),
        "fill 0": Policy(style=Style.FILL, limit=Limit.ZERO),
        "fill z": Policy(style=Style.FILL, limit=Limit.Z),
        "whole 0": Policy(style=Style.WHOLE, limit=Limit.ZERO),
        "whole z": Policy(style=Style.WHOLE, limit=Limit.Z),
    }


def report(name: str, text: str, capfd=None) -> None:
    """Print a reproduction artifact and archive it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    banner = f"\n=== {name} ===\n{text}\n"
    if capfd is not None:
        with capfd.disabled():
            print(banner)
    else:
        print(banner)
