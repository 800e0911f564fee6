"""Figure 14 — time per update (the non-cumulative view of Figure 13).

Paper claims reproduced: per-update times grow as the index accumulates
long lists; the growth for new-0 is slight (its writes coalesce); the
whole-z policy is the one whose per-update time is most sensitive to the
size of the update (it moves whole lists, and small Saturday updates move
fewer postings).
"""

import numpy as np

from _common import base_experiment, report
from repro import figures


def test_fig14_time_per_update(benchmark, capfd):
    result = benchmark.pedantic(
        lambda: figures.figure14(base_experiment()), rounds=1, iterations=1
    )
    series = result.data["series"]
    report("fig14_time_per_update", result.rendered, capfd)

    updates = base_experiment().updates()
    update_sizes = np.array([u.npostings for u in updates], dtype=float)

    def late_over_early(values):
        v = np.asarray(values)
        return v[-10:].mean() / max(v[1:11].mean(), 1e-9)

    # Per-update times grow for every policy...
    for name, values in series.items():
        assert late_over_early(values) > 1.05, name
    # ...but only slightly for new 0 compared to whole 0.
    assert late_over_early(series["new 0"]) < late_over_early(
        series["whole 0"]
    )

    # whole z is the policy most correlated with update size (paper: the
    # only policy whose per-update time tracks the update's posting count).
    # Both signals trend upward as the index grows, so correlate the
    # residuals after removing a quadratic trend.
    def size_correlation(values):
        v = np.asarray(values[10:], dtype=float)
        s = update_sizes[10:]
        x = np.arange(v.size, dtype=float)
        v_res = v - np.polyval(np.polyfit(x, v, 2), x)
        s_res = s - np.polyval(np.polyfit(x, s, 2), x)
        return float(np.corrcoef(v_res, s_res)[0, 1])

    correlations = {name: size_correlation(v) for name, v in series.items()}
    assert correlations["whole z"] == max(correlations.values())
    assert correlations["whole z"] > 0.4
