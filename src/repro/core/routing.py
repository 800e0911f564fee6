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

    def doc_share(self, shard_id: int) -> float:
        """Fraction of the hash space this shard owns (slots are
        equal-measure under the mix, so this is the expected doc share
        of an unskewed id stream)."""
        return len(self.slots_of(shard_id)) / self.nslots

    def layout(self) -> tuple:
        """The identity an incremental checkpoint must match: same
        seed, same slot count, same ownership vector."""
        return (self.seed, self.nslots, self.owners)

    def as_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "seed": self.seed,
            "nslots": self.nslots,
            "owners": list(self.owners),
        }

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

    def refine(self) -> "RoutingTable":
        """Double the slot space without moving any document.

        ``(mix mod 2n) mod n == mix mod n``, so slot ``j`` of the new
        table routes the documents that hashed to slot ``j % n`` of the
        old one — assigning it the same owner preserves every route.
        Bumps the epoch (the *slice identity* changed even though no
        document moved) — callers that only refine as a step of a split
        use :meth:`_refined` to avoid double-bumping.
        """
        return RoutingTable(
            self.epoch + 1, self.seed, self.nslots * 2, self.owners * 2
        )

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
