"""Shard replication: k replicas per shard behind the asyncio gateway.

PR 6's gateway runs one worker process per shard, which leaves a single
point of unavailability: a SIGKILLed worker makes its shard's documents
unreadable until checkpoint restore + op-log replay completes.  This
module adds the replica layer the gateway composes:

* :class:`Replica` — one worker process serving one copy of a shard,
  with its own stream connection, request sequencing, health state, and
  bookkeeping of how far through the shard's op log it has applied.
* :class:`ReplicaSet` — the k replicas of one shard plus the shared
  recovery material (one op log, one restore point of base + redo
  records — the journal is a property of the *shard's write history*,
  not of any replica) and the round-robin read rotation with
  eligibility filtering.
* :class:`ReplicationStats` — the counters the serving report surfaces.

The replication protocol (DESIGN.md §15) in brief:

**Writes** journal once per shard (journal-before-RPC) and every
replica *follows* the journal: per-replica ``log_pos`` counts the prefix
it has applied, and one catch-up loop applies the rest under the
replica's lock.  A live write catches up every ``HEALTHY`` replica; a
replica whose connection breaks is marked ``RECOVERING`` and rebuilt in
the background — restore point plus the same catch-up — while its
siblings keep absorbing writes and serving reads.  An op is applied
once whichever path reaches it first, since both start at ``log_pos``.

**Reads** rotate round-robin over *eligible* replicas: ``HEALTHY``,
fully caught up on the op log, and at (or past) the published version
vector entry — a replica lagging one publish epoch is excluded from
rotation outright.  Every read travels as a member of a batch frame
whose reply carries one ``version`` stamp; the gateway validates the
stamp against the published vector before trusting the answer and
discards stale responses (the replica is then resynced).  The stamp is
the shard's batch counter on both read tiers — a value checkpoint
restore and op-log replay reproduce, so a rebuilt replica carries the
one its siblings do.  (The memory tier's epoch is no such value: it
counts one process's mutations, so a replica rebuilt between flushes
restarts it near zero.  Guarding reads with it left every rebuilt
replica healthy but ineligible until the next flush; DESIGN.md §15.)  A
replica that misses its deadline or dies mid-read fails over
transparently to a sibling; only when *no* replica of a shard is
serviceable does a read wait for a rebuild — which is exactly the k=1
degenerate case, i.e. PR 6's behavior.

**Rebuild staggering**: each flush outcome reports whether the shard's
bucket occupancy crossed the growth threshold; the gateway feeds those
wants into a :class:`~repro.core.rebalance.RebuildScheduler` so at most
one shard grows (and pays the rehash + full-clone publish spike) per
flush round.  The grant rides the journaled flush op, so every replica
of a shard — including one rebuilt later from checkpoint + replay —
grows at the identical batch boundary.
"""

from __future__ import annotations

import asyncio
import enum
import itertools
from dataclasses import dataclass, replace as dc_replace

from .worker import WorkerSpec


class ReplicaState(enum.Enum):
    """The failover state machine (transitions in DESIGN.md §15).

    ``HEALTHY`` —(connection breaks / stale stamp)→ ``RECOVERING``
    —(rebuild completes)→ ``HEALTHY``; a rebuild that cannot complete
    (respawn keeps failing) parks the replica at ``FAILED``, and nothing
    moves it out: it serves no reads, takes no writes and has no replay
    in flight, so the op log is truncated past it.
    """

    HEALTHY = "healthy"
    RECOVERING = "recovering"
    FAILED = "failed"


class Replica:
    """One worker process serving one copy of a shard.

    Owns the per-connection machinery (streams, request sequence,
    serialization lock) plus the replication bookkeeping: health state,
    the last version stamp the gateway recorded for it, and ``log_pos``
    — how many ops of the shard's journal it has applied.
    The asyncio plumbing that *drives* a replica lives in the gateway;
    this object is the state it operates on.
    """

    def __init__(self, shard_id: int, replica_id: int, spec: WorkerSpec):
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.spec = spec
        self.worker = None  # WorkerProcess, attached by the gateway
        self.reader = None
        self.writer = None
        self.seq = itertools.count(1)
        #: One lock for the replica's lifetime: tasks queued on it across
        #: a respawn must not race a new lock's holders onto one stream.
        self.lock = asyncio.Lock()
        self.state = ReplicaState.HEALTHY
        #: Shard version (writer batch counter) after this replica's last
        #: acknowledged flush or rebuild.
        self.version = 0
        #: Ops of the shard's journal this replica has applied.
        self.log_pos = 0
        #: Occupancy trigger from the last flush outcome.
        self.wants_grow = False
        #: The in-flight background rebuild, if any.
        self.rebuild_task = None
        #: Lazily attached per-replica read micro-batcher (the gateway's
        #: ``_ReadBatcher``).  It lives on the *replica*, not the shard:
        #: the read rotation picks a replica per logical read first, so
        #: each member of one batch frame is bound for exactly this
        #: connection — batching never defeats the round-robin spread or
        #: the per-answer version-vector validation.  The batcher holds
        #: no connection state of its own (it addresses ``writer`` /
        #: ``reader`` under ``lock`` at flush time), so it survives
        #: respawns untouched.
        self.batcher = None

    @property
    def name(self) -> str:
        return f"shard {self.shard_id}/r{self.replica_id}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Replica({self.name}, {self.state.value}, "
            f"version={self.version}, log_pos={self.log_pos})"
        )


class ReplicaSet:
    """The k replicas of one shard plus their shared recovery material.

    The op log and the restore point live here — not per replica —
    because they describe the shard's write history, which is
    replica-invariant: any replica can be rebuilt from the one restore
    point plus the one log.  The restore point is a full checkpoint
    ``base`` plus the ``chain`` of redo records taken since, and
    ``token`` names the checkpoint answer the chain ends on (DESIGN.md
    §19).  The log is truncated only when no replica is mid-rebuild and
    every healthy one is fully caught up (otherwise an in-flight rebuild
    would lose its tail), so the invariant "the journal holds exactly
    the ops since the stored restore point" holds for every replica
    that can still be rebuilt or written to.
    """

    def __init__(
        self, shard_id: int, specs: list[WorkerSpec]
    ) -> None:
        self.shard_id = shard_id
        self.replicas = [
            Replica(shard_id, j, spec) for j, spec in enumerate(specs)
        ]
        self.oplog: list[tuple] = []
        self.base: bytes | None = None
        self.chain: list[bytes] = []
        self.token: int | None = None
        #: Published version-vector entry for this shard; rotation
        #: excludes replicas trailing it.
        self.expected_version = 0
        #: Memory-tier epoch of the last flush outcome adopted (0 on the
        #: snapshot tier); reported only: it is per process (module doc).
        self.mem_epoch = 0
        self._cursor = 0

    @property
    def wants_grow(self) -> bool:
        """The shard's growth trigger: any current replica reported it.

        Healthy replicas agree (same ops, same occupancy); the ``any``
        covers windows where some replicas are mid-rebuild.
        """
        return any(
            r.wants_grow
            for r in self.replicas
            if r.state is ReplicaState.HEALTHY
        )

    def eligible(self, replica: Replica) -> bool:
        """May this replica serve a read right now?

        Healthy and not trailing the published version vector — the
        guard that keeps a replica lagging one publish epoch out of the
        rotation.  ``log_pos`` is deliberately *not* required to be at
        the journal head: a healthy replica behind the head just has
        writes in flight on its connection, and a read queues behind
        them on the connection lock, landing on the boundary state —
        exactly the single-worker queueing semantics.
        """
        return (
            replica.state is ReplicaState.HEALTHY
            and replica.version >= self.expected_version
        )

    def rotation(self) -> list[Replica]:
        """Eligible replicas in round-robin order (read load balancing).

        Each call starts one position later than the previous, so
        consecutive reads spread across the set; ineligible replicas are
        filtered out, preserving order.
        """
        n = len(self.replicas)
        start = self._cursor
        self._cursor = (self._cursor + 1) % n
        ordered = [self.replicas[(start + k) % n] for k in range(n)]
        return [r for r in ordered if self.eligible(r)]

    def healthy(self) -> list[Replica]:
        return [
            r for r in self.replicas if r.state is ReplicaState.HEALTHY
        ]

    def caught_up(self) -> bool:
        """No replica mid-rebuild and every healthy one at the end of
        the op log — the only state in which the log may be truncated.
        A ``FAILED`` replica has no replay in flight and never leaves
        that state, so it does not hold the log."""
        return all(
            r.state is ReplicaState.FAILED
            or (
                r.state is ReplicaState.HEALTHY
                and r.log_pos == len(self.oplog)
            )
            for r in self.replicas
        )

    def restore_point(self) -> tuple[bytes, ...] | None:
        """``(base, *chain)`` — what a respawn restores from — or None
        before the first checkpoint."""
        if self.base is None:
            return None
        return (self.base, *self.chain)

    def adopt(self, reply) -> None:
        """Install a checkpoint answer as the new restore point: a
        record extends the chain, a base replaces it."""
        if reply.record:
            self.chain.append(reply.blob)
        else:
            self.base, self.chain = reply.blob, []
        self.token = reply.token

    def adopt_flush(self, outcome) -> None:
        """Take a flush outcome as the shard's published state."""
        self.expected_version = outcome.version
        self.mem_epoch = outcome.mem_epoch

    def wants_base(self) -> bool:
        """The one compaction rule: once the chain's bytes reach the
        base's, the next checkpoint is a base (so the restore point never
        exceeds about twice a base, in bytes and in restore work)."""
        return sum(map(len, self.chain)) >= len(self.base or b"")

@dataclass
class ReplicationStats:
    """Replication-layer counters (the report's ``replication`` section)."""

    #: Stamped answers served (one per logical read per shard).
    reads_served: int = 0
    #: Reads that skipped at least one replica (death, deadline, or
    #: ineligibility with a live sibling picking up the query).
    read_failovers: int = 0
    #: Stamped answers discarded because they trailed the published
    #: version vector; each discard also resyncs the offending replica.
    stale_discarded: int = 0
    #: Reads that found no serviceable replica and had to wait for a
    #: rebuild (the k=1 full-recovery-latency path).
    reads_waited_for_rebuild: int = 0
    rebuilds_started: int = 0
    rebuilds_completed: int = 0
    rebuild_failures: int = 0
    #: Checkpoint rounds skipped because a replica was mid-rebuild (the
    #: op log must be retained for its catch-up replay).
    checkpoints_deferred: int = 0
    #: Checkpoint answers adopted as full bases / as redo records
    #: (DESIGN.md §19).
    checkpoint_bases: int = 0
    checkpoint_records: int = 0
    #: Healthy replicas of one shard disagreeing on a flush outcome —
    #: always 0 unless the determinism contract is broken.
    replica_divergences: int = 0


def replica_specs(
    base: WorkerSpec,
    replicas: int,
    fault_plans: dict | None,
    shard_id: int,
) -> list[WorkerSpec]:
    """Derive the per-replica specs for one shard.

    ``fault_plans`` is keyed by ``(shard, replica)``: the chaos battery
    leans on this to SIGKILL exactly one replica of a replicated shard.
    """
    plans = fault_plans or {}
    return [
        dc_replace(base, fault_plan=plans.get((shard_id, j)))
        for j in range(replicas)
    ]
