"""Figure 13 — cumulative wall time to build the final index
(ExerciseDisks on the physical disk model).

Paper claims reproduced: ``fill 0`` does not fit the physical disks at all
(gross under-utilization); policy times vary by a much larger factor than
operation counts (paper: ×8 vs ×2) because the append-only policy's writes
coalesce into sequential streams; the ordering from fastest to slowest is
new 0 < new z < fill z < whole z < whole 0; new 0 grows almost linearly.
"""

from _common import base_experiment, report
from repro import figures
from repro.analysis.reporting import ratio


def test_fig13_cumulative_build_time(benchmark, capfd):
    result = benchmark.pedantic(
        lambda: figures.figure13(base_experiment()), rounds=1, iterations=1
    )
    series = result.data["series"]
    infeasible = result.data["infeasible"]
    outcomes = result.data["outcomes"]
    report("fig13_cumulative_time", result.rendered, capfd)

    # fill 0 is infeasible on the physical disks, as on the paper's.
    assert infeasible == ["fill 0"]

    totals = {name: s[-1] for name, s in series.items()}
    # Ordering fastest → slowest matches the paper's Figure 13.
    order = sorted(totals, key=totals.get)
    assert order == ["new 0", "new z", "fill z", "whole z", "whole 0"]
    # Times spread much wider than operation counts.
    ops = {
        name: outcomes[name][0].series.io_ops[-1] for name in totals
    }
    time_spread = ratio(max(totals.values()), min(totals.values()))
    ops_spread = ratio(max(ops.values()), min(ops.values()))
    assert time_spread > 2 * ops_spread
    assert time_spread > 4  # the paper saw ×8; we accept ≥×4

    # new 0 grows almost linearly: its slope increase is mild compared to
    # whole 0's.
    def slope_growth(values):
        steps = [b - a for a, b in zip(values, values[1:])]
        q = max(1, len(steps) // 4)
        return (sum(steps[-q:]) / q) / max(sum(steps[:q]) / q, 1e-9)

    assert slope_growth(series["new 0"]) < slope_growth(series["whole 0"])
