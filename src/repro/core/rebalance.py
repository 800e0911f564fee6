"""Dynamic bucket-space growth (paper §7's open problem).

"We also need to study how to dynamically grow the bucket space since,
unfortunately, as the size of the index grows from the addition of more
documents, the performance of the index degrades.  This implies that we
need a strategy to rebalance the division between short and long lists for
any number of incremental updates — i.e., periodically, as the buckets are
read, they can be expanded and written in a larger region of disk."

:class:`BucketGrower` implements the strategy the paper sketches:

* a **trigger**: when bucket occupancy at a flush exceeds a threshold, the
  bucket space has stopped absorbing the infrequent-word mass and eviction
  pressure is pushing moderately-rare words into long lists prematurely;
* an **action**: double the number of buckets and re-hash every short list
  into the enlarged space (the modular hash adapts automatically).  Since
  the buckets are all in memory during an update and are rewritten to a
  fresh disk region at every flush anyway (shadow flushes), growth costs
  one larger flush — exactly the "expanded and written in a larger region
  of disk" the paper anticipates.

Growth never demotes existing long lists — the division rebalances going
forward, which is the paper's stated goal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .buckets import BucketManager, modular_hash


@dataclass
class GrowthEvent:
    """Record of one bucket-space expansion."""

    batch: int
    old_nbuckets: int
    new_nbuckets: int
    occupancy_before: float


#: A growth step doubles the bucket count (the action sketched above).
GROWTH_FACTOR = 2


@dataclass
class GrowthPolicy:
    """When to expand the bucket space."""

    #: Grow when occupancy at a flush exceeds this fraction.
    occupancy_threshold: float = 0.85

    def __post_init__(self) -> None:
        if not 0.0 < self.occupancy_threshold < 1.0:
            raise ValueError("occupancy_threshold must be in (0, 1)")


class BucketGrower:
    """Applies a :class:`GrowthPolicy` to a :class:`BucketManager`."""

    def __init__(self, policy: GrowthPolicy | None = None) -> None:
        self.policy = policy or GrowthPolicy()
        self.events: list[GrowthEvent] = []

    def should_grow(self, manager: BucketManager) -> bool:
        return manager.occupancy() > self.policy.occupancy_threshold

    def grow(self, manager: BucketManager, batch: int = -1) -> GrowthEvent:
        """Expand the manager in place: twice the buckets, re-hashed.

        Every short list moves to its new home bucket; capacities per
        bucket are unchanged, so total bucket space multiplies.  Returns
        the recorded event.
        """
        event = GrowthEvent(
            batch=batch,
            old_nbuckets=manager.nbuckets,
            new_nbuckets=manager.nbuckets * GROWTH_FACTOR,
            occupancy_before=manager.occupancy(),
        )
        old_buckets = manager.buckets
        manager.nbuckets = event.new_nbuckets
        manager.hash_fn = modular_hash(manager.nbuckets)
        manager.buckets = [
            type(old_buckets[0])(manager.bucket_size)
            for _ in range(manager.nbuckets)
        ]
        for bucket in old_buckets:
            for word, payload in bucket.lists.items():
                home = manager.buckets[manager.bucket_of(word)]
                home.lists[word] = payload
                home.npostings += len(payload)
        # Growth cannot overflow: per-word loads are unchanged and every
        # destination bucket holds a subset of one old bucket's words.
        self.events.append(event)
        return event

    def maybe_grow(self, manager: BucketManager, batch: int = -1):
        """Grow if the trigger fires; returns the event or None."""
        if self.should_grow(manager):
            return self.grow(manager, batch=batch)
        return None


class RebuildScheduler:
    """Staggers bucket-space rebuilds so at most one shard pays one per
    flush round.

    Growth rehashes a shard's entire bucket space and forces its next
    publish to a full clone — an O(index) latency spike.  When every
    shard crosses the occupancy threshold in the same flush round (the
    common case under uniform document routing), unscheduled growth
    makes *every* shard spike at once and the round's publish latency is
    the sum of the spikes.  The scheduler serializes them: each round,
    shards that want to grow enter a FIFO queue and the head of the
    queue is granted; the rest flush without growing and are granted in
    a later round.  Deferral is safe — an
    over-threshold shard keeps absorbing batches exactly as it did
    before growth existed, just with more eviction pressure.

    Deterministic on purpose: grants depend only on the sequence of
    ``grant()`` calls and their ``wants`` arguments, so two executions
    fed the same flush/occupancy history (e.g. every replica of a shard,
    or a rebuilt replica replaying its op log) grow at identical batch
    boundaries.
    """

    def __init__(self) -> None:
        self._queue: list = []  # FIFO of shard ids awaiting a grant
        self.rounds = 0
        self.granted = 0
        self.deferred = 0

    @property
    def pending(self) -> tuple:
        """Shard ids queued for a future round (FIFO order)."""
        return tuple(self._queue)

    def grant(self, wants) -> frozenset:
        """One flush round: merge ``wants`` into the queue, pop grants.

        ``wants`` is the set of shard ids whose occupancy trigger fired
        this round (re-announcing a queued shard is idempotent).
        Returns the shard ids allowed to grow this round (at most one).
        """
        self.rounds += 1
        queued = set(self._queue)
        for shard_id in wants:
            if shard_id not in queued:
                self._queue.append(shard_id)
                queued.add(shard_id)
        grants = self._queue[:1]
        del self._queue[:1]
        self.granted += len(grants)
        self.deferred += len(self._queue)
        return frozenset(grants)

    def as_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "granted": self.granted,
            "deferred": self.deferred,
            "pending": list(self._queue),
        }


#: The planner never splits past this many active shards: every split
#: spawns ``replicas`` worker processes that nothing retires.
MAX_SHARDS = 16


@dataclass
class RebalancePolicy:
    """When shard-level doc skew justifies a structural move.

    All thresholds are over *live* per-shard document counts sampled at
    a flush boundary.  Imbalance is max/mean: 1.0 is perfect balance,
    and a bound of ``max_imbalance`` tolerates the hottest shard holding
    that multiple of the mean before a split is planned.
    """

    #: Split the hottest shard when max/mean exceeds this bound.
    max_imbalance: float = 1.5
    #: Plan nothing until the collection holds this many live docs
    #: (tiny collections are all skew).
    min_docs: int = 64
    #: Never split a shard holding fewer live docs than this.
    min_shard_docs: int = 16
    #: Flush rounds to sit out after a structural move (lets the moved
    #: mass settle before the next plan reads the counts).
    cooldown: int = 2

    def __post_init__(self) -> None:
        if self.max_imbalance <= 1.0:
            raise ValueError("max_imbalance must be > 1.0")
        if self.min_docs < 0 or self.min_shard_docs < 0:
            raise ValueError("doc floors must be >= 0")
        if self.cooldown < 0:
            raise ValueError("cooldown must be >= 0")


class RebalancePlanner(RebuildScheduler):
    """A rebuild scheduler that also plans shard splits.

    Extends :class:`RebuildScheduler` so a gateway runs *one* scheduler:
    bucket-growth grants keep their FIFO staggering (inherited
    unchanged), and :meth:`plan` adds at most one structural move per
    eligible flush round.  Deterministic on purpose — the plan depends
    only on the policy and the observed count history, so replaying the
    same ingest reproduces the same split schedule.
    """

    def __init__(self, policy: RebalancePolicy | None = None) -> None:
        super().__init__()
        self.policy = policy or RebalancePolicy()
        self._cooldown_left = 0

    @staticmethod
    def imbalance(counts) -> float:
        """max/mean over per-shard live-doc counts (0.0 when empty).

        Accepts the ``{shard_id: count}`` mapping :meth:`plan` takes or
        a bare sequence of counts.
        """
        live = list(
            counts.values() if hasattr(counts, "values") else counts
        )
        total = sum(live)
        if not live or total == 0:
            return 0.0
        return max(live) / (total / len(live))

    def plan(self, counts: dict) -> int | None:
        """At most one split for this flush round.

        ``counts`` maps each *active* shard id to its live-doc count.
        Returns the shard to split (the hottest, once it exceeds the
        imbalance bound) or ``None``.  A returned victim starts the
        cooldown clock.
        """
        policy = self.policy
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return None
        total = sum(counts.values())
        if not counts or total < policy.min_docs:
            return None
        mean = total / len(counts)
        victim = max(counts, key=lambda s: (counts[s], -s))
        if (
            len(counts) < MAX_SHARDS
            and counts[victim] > policy.max_imbalance * mean
            and counts[victim] >= policy.min_shard_docs
        ):
            self._cooldown_left = policy.cooldown
            return victim
        return None
