"""Extension X13 — incremental updates vs the traditional rebuild baseline.

The paper's opening argument: traditional systems rebuild the whole index
periodically, which is (a) a massive operation and (b) leaves the newest
documents unsearchable until the next rebuild — unacceptable for news,
mail, and stock feeds.  This bench quantifies the argument on our workload
by running the rebuild baseline at several periods against the
dual-structure index under the recommended new-style policy:

* a *weekly* rebuild writes several times the incremental index's block
  volume and leaves postings unsearchable for days on average;
* a *daily* rebuild fixes freshness but writes an order of magnitude more
  than weekly — the rebuild cost the paper calls massive, now paid daily;
* the incremental index is fresh at batch granularity (staleness 0 by
  construction) with bounded writes — the paper's motivation, measured.
"""

from _common import base_config, base_experiment, report
from repro.analysis.reporting import format_table
from repro.core.policy import Policy
from repro.figures import default_exercise_config
from repro.pipeline.exercise import ExerciseDisksProcess
from repro.pipeline.rebuild import PeriodicRebuildBaseline
from repro.storage.iotrace import OpKind

PERIODS = (1, 7, 30)


def run_comparison():
    config = base_config()
    experiment = base_experiment()
    updates = experiment.updates()
    exerciser = ExerciseDisksProcess(default_exercise_config(experiment))

    incremental = experiment.run_policy(
        Policy.recommended_new(), exercise=False
    )
    inc_blocks = incremental.disks.trace.count_blocks(OpKind.WRITE)
    inc_time = exerciser.run(incremental.disks.trace).total_s

    rows = {
        "incremental (new z prop-2)": (inc_blocks, 0.0, inc_time)
    }
    for period in PERIODS:
        baseline = PeriodicRebuildBaseline(
            period_days=period,
            block_postings=config.block_postings,
            ndisks=config.ndisks,
        )
        result = baseline.run(updates)
        time_s = exerciser.run(result.trace).total_s
        rows[f"rebuild every {period}d"] = (
            result.total_blocks_written,
            result.mean_staleness_days,
            time_s,
        )
    return rows


def test_ext_rebuild_baseline(benchmark, capfd):
    rows = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    table = [
        (
            name,
            blocks,
            round(staleness, 2),
            round(time_s, 1),
        )
        for name, (blocks, staleness, time_s) in rows.items()
    ]
    report(
        "ext_rebuild_baseline",
        format_table(
            (
                "strategy",
                "blocks written",
                "mean staleness (days)",
                "build time (s)",
            ),
            table,
            title="X13: incremental maintenance vs periodic full rebuilds",
        ),
        capfd,
    )

    inc_blocks, inc_staleness, _ = rows["incremental (new z prop-2)"]
    daily_blocks, daily_staleness, _ = rows["rebuild every 1d"]
    weekly_blocks, weekly_staleness, _ = rows["rebuild every 7d"]
    monthly_blocks, monthly_staleness, _ = rows["rebuild every 30d"]

    # Incremental: fresh at batch granularity.
    assert inc_staleness == 0.0
    # Matching incremental freshness with rebuilds (daily) costs an order
    # of magnitude more writing than the incremental index.
    assert daily_staleness == 0.0
    assert daily_blocks > 8 * inc_blocks
    # Slower rebuild schedules trade freshness for volume.
    assert daily_blocks > weekly_blocks > monthly_blocks
    assert monthly_staleness > weekly_staleness > daily_staleness
    assert weekly_staleness > 2.5  # days of unsearchable news
    # Even the weekly schedule writes more than incremental maintenance.
    assert weekly_blocks > inc_blocks
