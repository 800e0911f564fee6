"""Programmatic regeneration of every table and figure in the paper.

Each ``table_*`` / ``figure_*`` function reruns the relevant slice of the
evaluation pipeline against an :class:`~repro.pipeline.Experiment` and
returns a :class:`FigureResult` holding both the machine-readable data and
the rendered fixed-width text.  The benchmark suite asserts the paper's
claims on the data; the CLI (``repro figure <id>``) and any downstream
user can regenerate an artifact directly::

    from repro.figures import regenerate
    print(regenerate("fig8").rendered)

All functions share the experiment's cached policy-independent stages, so
regenerating several figures costs little more than regenerating one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .analysis.reporting import format_series, format_table
from .core.policy import Alloc, Limit, Policy, Style
from .pipeline.compute_buckets import ComputeBucketsProcess
from .pipeline.exercise import ExerciseConfig, ExerciseDisksProcess
from .pipeline.experiment import Experiment, ExperimentConfig, default_scale
from .storage.profiles import SEAGATE_SCSI_1994
from .workload.synthetic import SyntheticNews, SyntheticNewsConfig


@dataclass
class FigureResult:
    """One regenerated artifact: identifier, rendered text, raw data."""

    name: str
    title: str
    rendered: str
    data: dict = field(default_factory=dict)


def _series_policies() -> dict[str, Policy]:
    """The five curves of Figures 8–10 (whole 0 ≡ whole z in op counts)."""
    return {
        "new 0": Policy(style=Style.NEW, limit=Limit.ZERO),
        "new z": Policy(style=Style.NEW, limit=Limit.Z),
        "fill 0": Policy(style=Style.FILL, limit=Limit.ZERO),
        "fill z": Policy(style=Style.FILL, limit=Limit.Z),
        "whole 0&z": Policy(style=Style.WHOLE, limit=Limit.ZERO),
    }


def timing_policies() -> dict[str, Policy]:
    """The six policies of Figures 13–14 (whole 0 ≠ whole z in time)."""
    return {
        "new 0": Policy(style=Style.NEW, limit=Limit.ZERO),
        "new z": Policy(style=Style.NEW, limit=Limit.Z),
        "fill 0": Policy(style=Style.FILL, limit=Limit.ZERO),
        "fill z": Policy(style=Style.FILL, limit=Limit.Z),
        "whole 0": Policy(style=Style.WHOLE, limit=Limit.ZERO),
        "whole z": Policy(style=Style.WHOLE, limit=Limit.Z),
    }


def default_exercise_config(experiment: Experiment) -> ExerciseConfig:
    """The experiment's physical disks
    (:attr:`~repro.pipeline.experiment.ExperimentConfig.physical_blocks`)."""
    return ExerciseConfig(
        profile=SEAGATE_SCSI_1994.with_capacity(
            experiment.config.physical_blocks
        ),
        ndisks=experiment.config.ndisks,
        buffer_blocks=experiment.config.buffer_blocks,
    )


# -- Table 1 ---------------------------------------------------------------------


def table1(experiment: Experiment) -> FigureResult:
    """Corpus statistics of the (synthetic) News database."""
    stats = experiment.stats(frequent_fraction=0.002)
    top1 = experiment.stats(frequent_fraction=0.01)
    return FigureResult(
        name="table1",
        title="Table 1: corpus statistics",
        rendered=stats.as_table(),
        data={"stats": stats, "top1_share": top1.frequent_postings_share},
    )


# -- Figure 1 --------------------------------------------------------------------


def figure1(
    days: int = 30,
    docs_per_day: int = 400,
    nbuckets: int = 100,
    bucket_size: int = 8000,
) -> FigureResult:
    """Bucket animation on the paper's small 100-bucket system."""
    watched = 5
    news = SyntheticNews(
        SyntheticNewsConfig(days=days, docs_per_day=docs_per_day)
    )
    process = ComputeBucketsProcess(
        nbuckets=nbuckets, bucket_size=bucket_size, watch_buckets=(watched,)
    )
    result = process.run(news.batches())
    history = result.animations[watched]
    rendered = format_series(
        {
            "words": [s.nwords for s in history],
            "postings": [s.npostings for s in history],
            "words+postings": [s.size for s in history],
        },
        xlabel="change",
        max_points=16,
        title=(
            f"Figure 1: bucket {watched} contents per change "
            f"(capacity {bucket_size} units)"
        ),
    )
    return FigureResult(
        name="fig1",
        title="Figure 1: bucket animation",
        rendered=rendered,
        data={"history": history, "capacity": bucket_size},
    )


# -- Figure 7 --------------------------------------------------------------------


def figure7(experiment: Experiment) -> FigureResult:
    """Fraction of words per update in each category."""
    new, bucket, long_ = (
        experiment.bucket_stage().category_fraction_series
    )
    rendered = format_series(
        {"new": new, "bucket": bucket, "long": long_},
        max_points=15,
        title="Figure 7: fraction of words per update in each category",
    )
    return FigureResult(
        name="fig7",
        title="Figure 7: word categories per update",
        rendered=rendered,
        data={"new": new, "bucket": bucket, "long": long_},
    )


# -- Figures 8, 9, 10 ---------------------------------------------------------------


def _series_figure(
    experiment: Experiment, attr: str, name: str, title: str
) -> FigureResult:
    runs = {
        label: experiment.run_policy(policy)
        for label, policy in _series_policies().items()
    }
    series = {
        label: getattr(run.disks.series, attr) for label, run in runs.items()
    }
    return FigureResult(
        name=name,
        title=title,
        rendered=format_series(series, max_points=15, title=title),
        data={"series": series, "runs": runs},
    )


def figure8(experiment: Experiment) -> FigureResult:
    """Cumulative I/O operations per policy."""
    return _series_figure(
        experiment,
        "io_ops",
        "fig8",
        "Figure 8: cumulative I/O operations per policy",
    )


def figure9(experiment: Experiment) -> FigureResult:
    """Long-list disk utilization per policy."""
    return _series_figure(
        experiment,
        "utilization",
        "fig9",
        "Figure 9: long-list disk utilization per policy",
    )


def figure10(experiment: Experiment) -> FigureResult:
    """Average read operations per long list."""
    return _series_figure(
        experiment,
        "avg_reads",
        "fig10",
        "Figure 10: average read operations per long list",
    )


# -- Tables 5 and 6 -------------------------------------------------------------------


TABLE5_STRATEGIES: tuple[tuple[Alloc, float], ...] = (
    (Alloc.CONSTANT, 50),
    (Alloc.CONSTANT, 100),
    (Alloc.BLOCK, 1),
    (Alloc.BLOCK, 4),
    (Alloc.PROPORTIONAL, 1.5),
    (Alloc.PROPORTIONAL, 2.0),
)

TABLE6_STRATEGIES: tuple[tuple[Alloc, float], ...] = (
    (Alloc.CONSTANT, 0),
    (Alloc.CONSTANT, 100),
    (Alloc.CONSTANT, 200),
    (Alloc.BLOCK, 1),
    (Alloc.BLOCK, 4),
    (Alloc.BLOCK, 8),
    (Alloc.PROPORTIONAL, 1.1),
    (Alloc.PROPORTIONAL, 1.2),
    (Alloc.PROPORTIONAL, 1.5),
)


def _alloc_table(
    experiment: Experiment,
    style: Style,
    strategies,
    name: str,
    title: str,
    with_reads: bool,
) -> FigureResult:
    policies = {
        (alloc, k): Policy(style=style, limit=Limit.Z, alloc=alloc, k=k)
        for alloc, k in strategies
    }
    rows = {
        key: experiment.run_policy(policy).disks
        for key, policy in policies.items()
    }
    headers = (
        ("Allocation", "k", "Read", "Util", "In-place", "Frac")
        if with_reads
        else ("Allocation", "k", "Util", "In-place", "Frac")
    )
    table_rows = []
    for (alloc, k), disks in rows.items():
        row = [alloc.value, k]
        if with_reads:
            row.append(round(disks.final_avg_reads, 2))
        row.extend(
            [
                round(disks.final_utilization, 2),
                disks.counters.in_place_updates,
                round(disks.counters.in_place_fraction, 2),
            ]
        )
        table_rows.append(tuple(row))
    return FigureResult(
        name=name,
        title=title,
        rendered=format_table(headers, table_rows, title=title),
        data={"rows": rows},
    )


def table5(experiment: Experiment) -> FigureResult:
    """Allocation strategies for the new style."""
    return _alloc_table(
        experiment,
        Style.NEW,
        TABLE5_STRATEGIES,
        "table5",
        "Table 5: allocation strategies, new style",
        with_reads=True,
    )


def table6(experiment: Experiment) -> FigureResult:
    """Allocation strategies for the whole style."""
    return _alloc_table(
        experiment,
        Style.WHOLE,
        TABLE6_STRATEGIES,
        "table6",
        "Table 6: allocation strategies, whole style",
        with_reads=False,
    )


# -- Figures 11 and 12 -----------------------------------------------------------------


FIGURE11_KS = (1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0)
FIGURE12_KS = (1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0)


def _k_sweep(experiment: Experiment, ks, metric: Callable) -> dict:
    out = {"new": [], "whole": []}
    for k in ks:
        for style_name, style in (("new", Style.NEW), ("whole", Style.WHOLE)):
            policy = Policy(
                style=style, limit=Limit.Z, alloc=Alloc.PROPORTIONAL, k=k
            )
            out[style_name].append(metric(experiment.run_policy(policy).disks))
    fill = metric(
        experiment.run_policy(
            Policy(style=Style.FILL, limit=Limit.Z, extent_blocks=4)
        ).disks
    )
    out["fill (e=4)"] = [fill] * len(ks)
    return out


def figure11(experiment: Experiment) -> FigureResult:
    """Utilization vs the proportional constant k."""
    sweep = _k_sweep(
        experiment, FIGURE11_KS, lambda d: d.final_utilization
    )
    rows = [
        (
            k,
            round(sweep["new"][i], 3),
            round(sweep["whole"][i], 3),
            round(sweep["fill (e=4)"][i], 3),
        )
        for i, k in enumerate(FIGURE11_KS)
    ]
    title = "Figure 11: long-list utilization vs proportional k"
    return FigureResult(
        name="fig11",
        title=title,
        rendered=format_table(
            ("k", "new", "whole", "fill (e=4)"), rows, title=title
        ),
        data={"sweep": sweep, "ks": FIGURE11_KS},
    )


def figure12(experiment: Experiment) -> FigureResult:
    """Cumulative in-place updates vs the proportional constant k."""
    sweep = _k_sweep(
        experiment, FIGURE12_KS, lambda d: d.counters.in_place_updates
    )
    rows = [
        (k, sweep["new"][i], sweep["whole"][i], sweep["fill (e=4)"][i])
        for i, k in enumerate(FIGURE12_KS)
    ]
    title = "Figure 12: cumulative in-place updates vs proportional k"
    return FigureResult(
        name="fig12",
        title=title,
        rendered=format_table(
            ("k", "new", "whole", "fill (e=4)"), rows, title=title
        ),
        data={"sweep": sweep, "ks": FIGURE12_KS},
    )


# -- Figures 13 and 14 -----------------------------------------------------------------


def _exercise_all(experiment: Experiment):
    exerciser = ExerciseDisksProcess(default_exercise_config(experiment))
    outcomes = {}
    for name, policy in timing_policies().items():
        disks = experiment.run_policy(policy).disks
        outcomes[name] = (disks, exerciser.run(disks.trace))
    return outcomes


def figure13(experiment: Experiment) -> FigureResult:
    """Cumulative build time on the physical disk model."""
    outcomes = _exercise_all(experiment)
    feasible = {
        name: ex.result.cumulative_s
        for name, (_, ex) in outcomes.items()
        if ex.feasible
    }
    infeasible = [
        name for name, (_, ex) in outcomes.items() if not ex.feasible
    ]
    title = (
        "Figure 13: cumulative time (seconds, simulated 1994 SCSI array)"
    )
    parts = [format_series(feasible, max_points=15, title=title)]
    if infeasible:
        parts.append(
            format_table(
                ("policy", "outcome"),
                [(n, "did not fit physical disks") for n in infeasible],
            )
        )
    return FigureResult(
        name="fig13",
        title=title,
        rendered="\n\n".join(parts),
        data={
            "series": feasible,
            "infeasible": infeasible,
            "outcomes": outcomes,
        },
    )


def figure14(experiment: Experiment) -> FigureResult:
    """Time per update on the physical disk model."""
    outcomes = _exercise_all(experiment)
    series = {
        name: ex.result.per_update_s
        for name, (_, ex) in outcomes.items()
        if ex.feasible
    }
    title = "Figure 14: time per update (seconds, simulated)"
    return FigureResult(
        name="fig14",
        title=title,
        rendered=format_series(series, max_points=15, title=title),
        data={"series": series, "outcomes": outcomes},
    )


# -- registry ---------------------------------------------------------------------------


REGISTRY: dict[str, Callable] = {
    "table1": table1,
    "fig1": figure1,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "table5": table5,
    "table6": table6,
    "fig11": figure11,
    "fig12": figure12,
    "fig13": figure13,
    "fig14": figure14,
}


def regenerate(name: str) -> FigureResult:
    """Regenerate one artifact by id (``fig8``, ``table5``, ...).

    ``fig1`` builds its own small system; everything else runs against
    a fresh experiment at ``REPRO_SCALE``
    (:meth:`~repro.pipeline.experiment.ExperimentConfig.at_scale`).
    """
    try:
        fn = REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown artifact {name!r}; choose from {sorted(REGISTRY)}"
        ) from None
    if name == "fig1":
        return fn()
    return fn(Experiment(ExperimentConfig.at_scale(default_scale())))
