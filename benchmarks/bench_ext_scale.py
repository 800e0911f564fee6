"""Extension X2 — scaling to larger synthetic databases (paper §7, [10]).

The paper extrapolates its results to larger synthetic databases and
reports that "given the correct parameters, our algorithms scale well".
This bench doubles the corpus and checks that the qualitative policy
ordering is scale-invariant while the index quality metrics degrade only
with the *log-ish* growth of long lists, not with raw volume — and that
scaling bucket space with the corpus restores the short/long balance.
"""

from _common import report
from repro.analysis.reporting import format_table
from repro.core.policy import Limit, Policy, Style
from repro.pipeline.experiment import Experiment, ExperimentConfig

SCALES = [0.5, 1.0, 2.0]


def run_scales():
    rows = []
    for scale in SCALES:
        # Absolute corpus scales, independent of REPRO_SCALE; bucket space
        # scales with the corpus ("the correct parameters").
        experiment = Experiment(ExperimentConfig.at_scale(scale))
        new0 = experiment.run_policy(Policy(style=Style.NEW, limit=Limit.ZERO))
        newz = experiment.run_policy(Policy(style=Style.NEW, limit=Limit.Z))
        whole = experiment.run_policy(
            Policy(style=Style.WHOLE, limit=Limit.ZERO)
        )
        total_postings = sum(u.npostings for u in experiment.updates())
        rows.append(
            (
                scale,
                total_postings,
                new0.disks.series.io_ops[-1],
                newz.disks.series.io_ops[-1],
                whole.disks.series.io_ops[-1],
                round(newz.disks.final_avg_reads, 2),
                round(newz.disks.final_utilization, 2),
            )
        )
    return rows


def test_ext_scaling(benchmark, capfd):
    rows = benchmark.pedantic(run_scales, rounds=1, iterations=1)
    report(
        "ext_scale",
        format_table(
            (
                "scale",
                "postings",
                "io new0",
                "io newz",
                "io whole",
                "reads newz",
                "util newz",
            ),
            rows,
            title="X2: scaling the synthetic database",
        ),
        capfd,
    )
    for row in rows:
        _, _, io_new0, io_newz, io_whole, reads, util = row
        # Policy ordering is scale-invariant.
        assert io_new0 < io_newz <= io_whole * 1.05
        # Index quality stays healthy when buckets scale with the corpus.
        assert util > 0.6
        assert reads < 12
    # I/O volume grows with the corpus.
    assert rows[0][2] < rows[1][2] < rows[2][2]
