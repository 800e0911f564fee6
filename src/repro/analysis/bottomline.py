"""The paper's "Bottom Line": turning measurements into a recommendation.

Section 5.4 closes each style's discussion with a bottom line — use the
new style when update time matters and query time does not; use fill when
a disk array wants bounded extents; use whole when query time is critical.
:func:`bottom_line` reproduces that decision logic over a set of measured
policy runs, and :func:`comparison_table` renders the three-way trade-off
(build time, reads per list, utilization) the recommendation rests on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.policy import Policy
from .reporting import format_table


class Preference(enum.Enum):
    """What the deployment cares about most (the §5.4 framing)."""

    UPDATE_TIME = "update time"
    QUERY_TIME = "query time"
    BALANCED = "balanced"


@dataclass(frozen=True)
class PolicyMeasurement:
    """The three numbers the paper's bottom lines weigh."""

    policy: Policy
    build_time_s: float
    reads_per_list: float
    utilization: float

    def __post_init__(self) -> None:
        if self.build_time_s < 0 or self.reads_per_list < 0:
            raise ValueError("measurements must be >= 0")
        if not 0 <= self.utilization <= 1:
            raise ValueError("utilization must be in [0, 1]")


@dataclass(frozen=True)
class Recommendation:
    """A chosen policy plus the reasoning, in the paper's voice."""

    policy: Policy
    reason: str


def bottom_line(
    measurements: list[PolicyMeasurement],
    preference: Preference,
    min_utilization: float = 0.5,
) -> Recommendation:
    """Choose a policy the way §5.4 does.

    * ``UPDATE_TIME``: fastest build; but policies with unusable space
      efficiency (below ``min_utilization``) are excluded — the paper
      calls the extreme update-optimized layouts "unrealistic due to the
      resulting extremely poor utilization rates" unless update time is
      truly the only concern, in which case pass ``min_utilization=0``.
    * ``QUERY_TIME``: fewest reads per list; ties break to faster builds
      (the whole styles all read once, so build time separates them).
    * ``BALANCED``: minimize (normalized build time + normalized reads),
      subject to the utilization floor — the fill/new-with-reserve middle
      ground the paper lands on.
    """
    if not measurements:
        raise ValueError("no measurements supplied")
    usable = [
        m for m in measurements if m.utilization >= min_utilization
    ] or measurements
    if preference is Preference.UPDATE_TIME:
        best = min(usable, key=lambda m: m.build_time_s)
        return Recommendation(
            best.policy,
            f"fastest feasible build ({best.build_time_s:.1f} s) at "
            f"{best.utilization:.0%} utilization",
        )
    if preference is Preference.QUERY_TIME:
        best = min(usable, key=lambda m: (m.reads_per_list, m.build_time_s))
        return Recommendation(
            best.policy,
            f"best read cost ({best.reads_per_list:.2f} reads/list); "
            f"build costs {best.build_time_s:.1f} s",
        )
    max_time = max(m.build_time_s for m in usable) or 1.0
    max_reads = max(m.reads_per_list for m in usable) or 1.0
    best = min(
        usable,
        key=lambda m: m.build_time_s / max_time + m.reads_per_list / max_reads,
    )
    return Recommendation(
        best.policy,
        f"best combined cost: {best.build_time_s:.1f} s build, "
        f"{best.reads_per_list:.2f} reads/list, "
        f"{best.utilization:.0%} utilization",
    )


def comparison_table(measurements: list[PolicyMeasurement]) -> str:
    """Render the §5.4 trade-off table, fastest build first."""
    rows = [
        (
            m.policy.name,
            round(m.build_time_s, 1),
            round(m.reads_per_list, 2),
            f"{m.utilization:.0%}",
        )
        for m in sorted(measurements, key=lambda m: m.build_time_s)
    ]
    return format_table(
        ("policy", "build time (s)", "reads/list", "utilization"),
        rows,
        title="Update time vs query time vs space (paper §5.4)",
    )
