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
the paper's corpus; see DESIGN.md "Substitutions"); the bucket region and
the physical disks scale with it by ``ExperimentConfig.at_scale``, the
rule ``repro experiment --scale`` and ``repro figure`` use too.  Every
bench runs in-process and serially: the thirteen paper artifacts together
take ~14 s, and fanning them out over a process pool took 2.6x as long
(``benchmarks/results/TRIAL_sweep.txt``).
"""

from __future__ import annotations

import functools
import pathlib

from repro.pipeline.experiment import (
    Experiment,
    ExperimentConfig,
    default_scale,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def base_config() -> ExperimentConfig:
    """The paper's experiment at the requested REPRO_SCALE."""
    return ExperimentConfig.at_scale(default_scale())


@functools.lru_cache(maxsize=None)
def base_experiment() -> Experiment:
    """The session-shared experiment (workload + bucket stage cached)."""
    experiment = Experiment(base_config())
    experiment.bucket_stage()
    return experiment


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
