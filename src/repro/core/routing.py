"""Versioned document routing: the epoch-stamped hash-slice → shard map.

The static router :func:`~repro.core.shard.shard_of` pins every document
to ``mix(doc_id) mod nshards`` forever, so document-hash skew permanently
unbalances flush and query load.  :class:`RoutingTable` generalizes it
into *slots*: documents hash into ``nslots`` slots with the same
splitmix64 mix, and an ``owners`` vector maps each slot to the shard that
currently owns it.  The degenerate epoch-0 table (``nslots == nshards``,
identity owners) reproduces ``shard_of`` routing *exactly*, so a stack
built on the table behaves frame-for-frame like the static router until
the first rebalance.

One structural move changes the map (and bumps ``epoch``):
**split(victim, new_shard)** halves the victim's slot set and hands the
upper half to a new shard.  When the victim owns a single slot the
table first *refines*: ``nslots`` doubles and ``owners'[j] =
owners[j % n]``.  Refinement is routing-preserving because the mix is
computed once over the full 64-bit state and only reduced mod
``nslots``: for ``nslots' = 2n``, ``(mix mod 2n) mod n == mix mod n``,
so every document stays on its shard and only the *granularity* of
ownership changes.  The collection only grows, so nothing hands slots
back: there is no merge (DESIGN.md §17).

The epoch is the routing half of the serving stack's version vector: a
cached answer or an incremental checkpoint stamped with epoch *e* is
invalid under any *e' != e* (documents moved; per-shard complements and
deltas no longer line up).

:class:`Placement` is the one ledger both sharded writers (the
in-process :class:`~repro.core.sharded.ShardedTextIndex` and the
gateway) keep over that table: the next id, the holes explicit ids
skipped and the user deletions, so the rules that ids only increase
and that an id is live until deleted (paper §3) are decided once.
"""

from __future__ import annotations

from .shard import shard_of


class RoutingTable:
    """An immutable epoch-stamped slot → shard ownership map.

    Structural operations return *new* tables (epoch + 1); readers keep
    routing on the table they captured, which is what lets a rebalance
    cut over atomically by publishing the next table.
    """

    __slots__ = ("epoch", "seed", "nslots", "owners")

    def __init__(
        self, epoch: int, seed: int, nslots: int, owners: tuple[int, ...]
    ) -> None:
        if nslots < 1 or len(owners) != nslots:
            raise ValueError("owners must map every slot")
        self.epoch = epoch
        self.seed = seed
        self.nslots = nslots
        self.owners = owners

    # -- construction -----------------------------------------------------

    @classmethod
    def initial(cls, nshards: int, seed: int = 0) -> "RoutingTable":
        """The epoch-0 table: identity owners, one slot per shard.

        Routes exactly like ``shard_of(doc_id, nshards, seed)``,
        including the ``nshards <= 1`` degenerate case (one slot, owner
        0 — ``shard_of`` short-circuits to 0 there too).
        """
        n = max(1, nshards)
        return cls(0, seed, n, tuple(range(n)))

    # -- routing ----------------------------------------------------------

    def route(self, doc_id: int) -> int:
        """The shard owning ``doc_id`` under this epoch's map."""
        return self.owners[shard_of(doc_id, self.nslots, self.seed)]

    # -- introspection ----------------------------------------------------

    @property
    def shard_ids(self) -> tuple[int, ...]:
        """Shard ids owning at least one slot, ascending."""
        return tuple(sorted(set(self.owners)))

    @property
    def nshards(self) -> int:
        """Count of shards owning at least one slot."""
        return len(set(self.owners))

    def slots_of(self, shard_id: int) -> tuple[int, ...]:
        """Slots owned by ``shard_id``, ascending."""
        return tuple(
            j for j, owner in enumerate(self.owners) if owner == shard_id
        )

    def layout(self) -> tuple:
        """The identity an incremental checkpoint must match: same
        seed, same slot count, same ownership vector."""
        return (self.seed, self.nslots, self.owners)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutingTable):
            return NotImplemented
        return (
            self.epoch == other.epoch
            and self.layout() == other.layout()
        )

    def __hash__(self) -> int:
        return hash((self.epoch, self.layout()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RoutingTable(epoch={self.epoch}, nslots={self.nslots}, "
            f"owners={self.owners})"
        )

    # -- structural moves -------------------------------------------------

    def _refined(self) -> "RoutingTable":
        """Refinement step without an epoch bump (internal to split)."""
        return RoutingTable(
            self.epoch, self.seed, self.nslots * 2, self.owners * 2
        )

    def split(self, victim: int, new_shard_id: int) -> "RoutingTable":
        """Hand the upper half of ``victim``'s slots to ``new_shard_id``.

        Refines first if the victim owns a single slot, so a split is
        always possible.  The documents that move are exactly those
        whose slot lands in the reassigned half — the caller relocates
        them (checkpoint-spawn + tombstones) before publishing the
        returned table.
        """
        if new_shard_id in self.owners:
            raise ValueError(f"shard {new_shard_id} already owns slots")
        table = self
        slots = table.slots_of(victim)
        if not slots:
            raise ValueError(f"shard {victim} owns no slots")
        if len(slots) == 1:
            table = table._refined()
            slots = table.slots_of(victim)
        moved = slots[len(slots) // 2:]
        owners = list(table.owners)
        for j in moved:
            owners[j] = new_shard_id
        return RoutingTable(
            self.epoch + 1, table.seed, table.nslots, tuple(owners)
        )


class Placement:
    """Which shard holds each global doc id, and whether it is live.

    Ids are claimed in increasing order, which keeps every per-shard
    posting list sorted and append-only.  ``holes`` are the ids an
    explicit-id add skipped: they exist on no shard, so they are
    neither deletable nor counted.  ``deleted`` holds *user* deletions
    only; a split's tombstones hide a volume's stale copy of a document
    that is still alive elsewhere, so they never enter it.
    """

    __slots__ = ("routing", "next_id", "holes", "deleted")

    def __init__(self, nshards: int, seed: int) -> None:
        self.routing = RoutingTable.initial(nshards, seed)
        self.next_id = 0
        self.holes: set[int] = set()
        self.deleted: set[int] = set()

    def claim(self, doc_id: int | None) -> tuple[int, int]:
        """``(doc_id, shard)`` for the next add, the next id when
        ``doc_id`` is None.  Changes nothing: see :meth:`admit`."""
        if doc_id is None:
            doc_id = self.next_id
        elif doc_id < self.next_id:
            raise ValueError(
                f"doc id {doc_id} below next id {self.next_id}: "
                "ids must be non-decreasing"
            )
        return doc_id, self.routing.route(doc_id)

    def admit(self, doc_id: int) -> None:
        """Record an add its shard accepted.  Only an accepted add
        leaves holes: a refused one must not hide ids the next
        documents will be given."""
        self.holes.update(range(self.next_id, doc_id))
        self.next_id = doc_id + 1

    def owner(self, doc_id: int) -> int:
        """The shard a delete of ``doc_id`` goes to; refused for an id
        out of range or in a hole."""
        if not 0 <= doc_id < self.next_id:
            raise ValueError(f"doc id {doc_id} outside [0, {self.next_id})")
        if doc_id in self.holes:
            raise ValueError(f"doc id {doc_id} was never added")
        return self.routing.route(doc_id)

    def _live(self):
        return (
            doc_id
            for doc_id in range(self.next_id)
            if doc_id not in self.deleted and doc_id not in self.holes
        )

    def counts(self, shards) -> dict[int, int]:
        """Live documents per shard of ``shards`` (every shard the table
        routes to).  An O(ndocs) scan; planners sample it at flush
        boundaries, where the flush amortizes it."""
        counts = dict.fromkeys(shards, 0)
        for doc_id in self._live():
            counts[self.routing.route(doc_id)] += 1
        return counts

    def split(self, victim: int, new_id: int) -> tuple:
        """``(table, movers, stayers)``: the next table with the upper
        half of ``victim``'s slots on ``new_id``, and the victim's live
        documents that move and that stay.  The caller installs
        ``table`` as :attr:`routing` at its cutover."""
        table = self.routing.split(victim, new_id)
        movers, stayers = [], []
        for doc_id in self._live():
            if self.routing.route(doc_id) == victim:
                moves = table.route(doc_id) == new_id
                (movers if moves else stayers).append(doc_id)
        return table, movers, stayers

    def copy(self) -> "Placement":
        """An independent copy for a published snapshot (the table is
        immutable and shared)."""
        copy = Placement.__new__(Placement)
        copy.routing = self.routing
        copy.next_id = self.next_id
        copy.holes = set(self.holes)
        copy.deleted = set(self.deleted)
        return copy
