"""Section 6 — quantitative comparison with contemporary systems.

The paper compares its index-build times with figures cited from the
literature by normalizing everything to its 259 MB database: Zobel,
Moffat & Sacks-Davis (merge-built, scaled to ≈135 min, halved to ≈67 min
for CPU progress), Fox & Lee (non-incremental merge), Harman & Candela
(8 h for 200-ish MB on a minicomputer), and its own freeWAIS measurement
(≈7 h for a fraction of the database).  Against those, the paper "predicts
a range of index build times from about 14 to 270 minutes depending on the
policy used" — the dual-structure index spans from competitive-with-batch
to slower-but-incremental, while delivering in-place updates nobody else
offered.

We regenerate that comparison at our scale: normalize our measured policy
build times to MB/minute and set them against the cited systems' rates
(also normalized per MB, which is how the paper compares).  Asserted
shape: our fastest policy beats every cited non-incremental rate, our
slowest stays within the range the cited batch systems span — i.e., the
paper's conclusion that incrementality does not cost an order of
magnitude.
"""

from _common import base_experiment, report
from repro.analysis.reporting import format_table
from repro.figures import default_exercise_config, timing_policies
from repro.pipeline.exercise import ExerciseDisksProcess

#: Our synthetic corpus stands in for ≈1/20 of the paper's 259 MB.
CORPUS_MB = 259 / 20

#: Cited systems, normalized to minutes per 259 MB as the paper does
#: (§6), converted to MB/min.
CITED_RATES_MB_MIN = {
    "Zobel/Moffat/Sacks-Davis (scaled, halved)": 259 / 67,
    "Fox & Lee (merge, non-incremental)": 259 / 40,
    "Harman & Candela (minicomputer)": 259 / 480,
    "freeWAIS (measured by the authors)": 259 / 420,
}


def run_policies():
    experiment = base_experiment()
    exerciser = ExerciseDisksProcess(default_exercise_config(experiment))
    rates = {}
    for name, policy in timing_policies().items():
        if name == "fill 0":
            continue  # infeasible on the physical disks (Figure 13)
        outcome = exerciser.run(experiment.run_policy(policy).disks.trace)
        rates[name] = CORPUS_MB / (outcome.total_s / 60.0)
    return rates


def test_related_work_comparison(benchmark, capfd):
    ours = benchmark.pedantic(run_policies, rounds=1, iterations=1)
    rows = [
        (f"this work: {name}", "incremental", round(rate, 1))
        for name, rate in sorted(ours.items(), key=lambda kv: -kv[1])
    ] + [
        (name, "batch rebuild", round(rate, 1))
        for name, rate in CITED_RATES_MB_MIN.items()
    ]
    report(
        "related_work",
        format_table(
            ("system", "update model", "MB/min"),
            rows,
            title=(
                "Section 6: index build rates vs systems cited by the "
                "paper (cited rates normalized to the paper's 259 MB "
                "database; ours measured on the simulated array)"
            ),
        ),
        capfd,
    )

    fastest = max(ours.values())
    slowest = min(ours.values())
    best_cited = max(CITED_RATES_MB_MIN.values())
    worst_cited = min(CITED_RATES_MB_MIN.values())
    # The paper's headline: the fastest policy beats every cited system
    # while remaining incremental.
    assert fastest > best_cited
    # Even the slowest (query-optimal whole) stays above the slowest
    # cited batch systems — incrementality isn't an order of magnitude.
    assert slowest > worst_cited
    # And the spread brackets a wide policy range, as §6 reports
    # ("from about 14 to 270 minutes depending on the policy").
    assert fastest / slowest > 4
