"""Per-update measurement series: the data behind the paper's figures.

Each experiment produces, per policy, one :class:`UpdateSeries` whose lists
are indexed by update number ("the index after update", the x-axis of
Figures 7–10 and 13–14).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CategoryCounts:
    """Word-category tallies for one update (paper Figure 7)."""

    new: int = 0
    bucket: int = 0
    long: int = 0

    @property
    def total(self) -> int:
        return self.new + self.bucket + self.long

    def fractions(self) -> tuple[float, float, float]:
        """(new, bucket, long) fractions; zeros for an empty update."""
        total = self.total
        if total == 0:
            return (0.0, 0.0, 0.0)
        return (self.new / total, self.bucket / total, self.long / total)


@dataclass
class UpdateSeries:
    """Per-update measurements for one policy run."""

    #: Cumulative I/O operations after each update (Figure 8).
    io_ops: list[int] = field(default_factory=list)
    #: Long-list internal utilization after each update (Figure 9).
    utilization: list[float] = field(default_factory=list)
    #: Average read ops per long list after each update (Figure 10).
    avg_reads: list[float] = field(default_factory=list)
    #: Cumulative in-place updates after each update (Figure 12's y-axis).
    in_place: list[int] = field(default_factory=list)
    #: Number of words with long lists after each update.
    long_words: list[int] = field(default_factory=list)
    #: Blocks allocated to long lists after each update.
    long_blocks: list[int] = field(default_factory=list)

    @property
    def nupdates(self) -> int:
        return len(self.io_ops)


def increasing_slope(values: list[int] | list[float]) -> bool:
    """True when a cumulative series is convex-ish: the mean step in the
    last quarter exceeds the mean step in the first quarter.

    Used by the benchmark shape assertions for the paper's "all the curves
    have increasing slope" observation.
    """
    if len(values) < 8:
        raise ValueError("need at least 8 points to judge slope growth")
    steps = [b - a for a, b in zip(values, values[1:])]
    quarter = max(1, len(steps) // 4)
    head = sum(steps[:quarter]) / quarter
    tail = sum(steps[-quarter:]) / quarter
    return tail > head
