"""Extension X6 — adaptive allocation (related work, Faloutsos & Jagadish).

The paper's related-work section maps one of Faloutsos & Jagadish's schemes
to "our new style with an adaptive allocation scheme (not studied here)".
We study it: reserve space per word, sized by ``k`` × the word's observed
(EWMA) update size — history-based instead of the proportional strategy's
"k × whatever was just written".

Expected/asserted behaviour: at a matched in-place fraction, adaptive
reserves less dead space than proportional — especially on the large
one-shot bucket migrations that proportional doubles but adaptive (with no
history) leaves unpadded — giving equal-or-better utilization with
comparable read cost.
"""

from _common import base_experiment, report
from repro.analysis.reporting import format_table
from repro.core.policy import Alloc, Limit, Policy, Style

POLICIES = {
    "prop k=1.5": Policy(
        style=Style.NEW, limit=Limit.Z, alloc=Alloc.PROPORTIONAL, k=1.5
    ),
    "prop k=2.0": Policy(
        style=Style.NEW, limit=Limit.Z, alloc=Alloc.PROPORTIONAL, k=2.0
    ),
    "adaptive k=1": Policy.adaptive_new(k=1.0),
    "adaptive k=2": Policy.adaptive_new(k=2.0),
}


def run_policies():
    experiment = base_experiment()
    runs = experiment.run_policies(list(POLICIES.values()))
    return {
        name: runs[policy.name].disks for name, policy in POLICIES.items()
    }


def test_ext_adaptive_allocation(benchmark, capfd):
    results = benchmark.pedantic(run_policies, rounds=1, iterations=1)
    rows = [
        (
            name,
            round(d.final_avg_reads, 2),
            round(d.final_utilization, 3),
            round(d.counters.in_place_fraction, 3),
        )
        for name, d in results.items()
    ]
    report(
        "ext_adaptive",
        format_table(
            ("policy", "reads/list", "util", "in-place frac"),
            rows,
            title="X6: adaptive vs proportional allocation (new style)",
        ),
        capfd,
    )

    # Pair each adaptive config with the proportional config of similar
    # in-place fraction and require equal-or-better utilization.
    def closest_prop(frac):
        return min(
            (d for n, d in results.items() if n.startswith("prop")),
            key=lambda d: abs(d.counters.in_place_fraction - frac),
        )

    for name in ("adaptive k=1", "adaptive k=2"):
        adaptive = results[name]
        rival = closest_prop(adaptive.counters.in_place_fraction)
        assert adaptive.final_utilization >= rival.final_utilization - 0.02, (
            name
        )
    # More adaptive reserve ⇒ more in-place updates.
    assert (
        results["adaptive k=2"].counters.in_place_updates
        > results["adaptive k=1"].counters.in_place_updates
    )
