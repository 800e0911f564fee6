"""Fault injection for the storage substrate and the index update paths.

The paper assumes reliable hardware but leans on a recovery story: shadow
flushes and the RELEASE list mean "the incremental update of the index can
be restarted if it is aborted" (§1, §3).  This module supplies the machinery
to *exercise* that claim instead of trusting it:

* :class:`FaultPlan` — a seeded schedule of injected failures.  It can
  crash on the Nth disk read/write/allocate/free, crash when execution
  reaches a *named crash point* (see below), tear a write (persist only a
  prefix of the block payloads before dying), and inject transient I/O
  errors that succeed on retry.
* :class:`FaultyDisk` / :class:`FaultyDiskArray` — drop-in subclasses of
  :class:`~repro.storage.disk.SimulatedDisk` and
  :class:`~repro.storage.diskarray.DiskArray` that consult the plan on
  every operation.
* **Named crash points** — modules on the update path (``core/flush.py``,
  ``core/longlists.py``, ``core/checkpoint.py``, ``core/index.py``) register
  points at import time and call :func:`crash_point` when execution passes
  them.  With no plan installed the call is a dict lookup and a ``None``
  check — cheap enough to leave in production paths.  Tests install a plan
  (:func:`install` / :func:`injected`), pick a point, and get a
  deterministic :class:`InjectedCrash` mid-update.

The crash-point registry is what makes the recovery test *exhaustive*:
``registered_crash_points()`` enumerates every place the implementation can
die, so the sweep in ``tests/core/test_crash_recovery.py`` cannot silently
miss a new one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from .disk import SimulatedDisk
from .diskarray import DiskArray


class InjectedCrash(Exception):
    """A deliberate, planned crash (process death in the fault model)."""


class TransientIOError(Exception):
    """A retryable I/O failure (e.g. a recoverable bus timeout)."""


# -- crash-point registry ------------------------------------------------------

#: name -> human description of every compiled-in crash point.
CRASH_POINTS: dict[str, str] = {}

_ACTIVE: "FaultPlan | None" = None


def register_crash_point(name: str, description: str) -> str:
    """Register a named crash point (module import time); returns ``name``.

    Re-registration with the same description is idempotent so modules can
    be reloaded; conflicting descriptions are a programming error.
    """
    existing = CRASH_POINTS.get(name)
    if existing is not None and existing != description:
        raise ValueError(f"crash point {name!r} already registered")
    CRASH_POINTS[name] = description
    return name


def registered_crash_points() -> list[str]:
    """All registered crash-point names, sorted (sweep-test enumeration)."""
    return sorted(CRASH_POINTS)


def crash_point(name: str) -> None:
    """Mark that execution reached ``name``; crashes when a plan says so."""
    if _ACTIVE is not None:
        _ACTIVE.reach(name)


def armed(name: str):
    """:func:`crash_point` at ``name`` while a plan is installed, else None."""
    return None if _ACTIVE is None else partial(crash_point, name)


def install(plan: "FaultPlan") -> None:
    """Make ``plan`` the active plan consulted by :func:`crash_point`."""
    global _ACTIVE
    _ACTIVE = plan


def uninstall() -> None:
    """Deactivate the current plan (crash points become no-ops again)."""
    global _ACTIVE
    _ACTIVE = None


class injected:
    """Context manager: install a plan for the duration of a block."""

    def __init__(self, plan: "FaultPlan") -> None:
        self.plan = plan

    def __enter__(self) -> "FaultPlan":
        install(self.plan)
        return self.plan

    def __exit__(self, *exc_info) -> None:
        uninstall()


# -- the plan ------------------------------------------------------------------


@dataclass
class FaultPlan:
    """A deterministic, seeded schedule of injected failures.

    Triggers are 1-based ("crash on the Nth write"); ``None`` disables a
    trigger.  ``crash_at`` names a registered crash point and fires on its
    ``crash_at_hit``-th arrival, so a point inside a loop can be crashed at
    any iteration.  All counters survive across batches — the plan describes
    one process lifetime.
    """

    seed: int = 0
    crash_at: str | None = None
    crash_at_hit: int = 1
    crash_on_read: int | None = None
    crash_on_write: int | None = None
    crash_on_alloc: int | None = None
    crash_on_free: int | None = None
    #: When a write crash fires, persist a random prefix of the payload
    #: blocks first — the torn-write failure mode of real disks.
    torn_writes: bool = False
    #: Probability that a disk service op fails transiently (retryable).
    transient_rate: float = 0.0
    #: A single op never fails transiently more than this many times, so
    #: bounded retry always converges.
    max_transient_per_op: int = 2

    # observability (mutated during the run)
    fired: str | None = field(default=None, init=False)
    reads: int = field(default=0, init=False)
    writes: int = field(default=0, init=False)
    allocs: int = field(default=0, init=False)
    frees: int = field(default=0, init=False)
    transients_injected: int = field(default=0, init=False)
    point_hits: dict[str, int] = field(default_factory=dict, init=False)
    _transient_counts: dict[tuple, int] = field(
        default_factory=dict, init=False, repr=False
    )
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.crash_at is not None and self.crash_at not in CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {self.crash_at!r}; registered: "
                f"{registered_crash_points()}"
            )
        if not 0.0 <= self.transient_rate <= 1.0:
            raise ValueError("transient_rate must be in [0, 1]")
        self._rng = random.Random(self.seed)

    # -- triggers ----------------------------------------------------------

    def _crash(self, what: str) -> None:
        self.fired = what
        raise InjectedCrash(what)

    def reach(self, name: str) -> None:
        """Called by :func:`crash_point` for every named point passed."""
        if name not in CRASH_POINTS:
            raise ValueError(f"unregistered crash point {name!r}")
        hits = self.point_hits.get(name, 0) + 1
        self.point_hits[name] = hits
        if self.crash_at == name and hits == self.crash_at_hit:
            self._crash(f"crash point {name} (hit {hits})")

    def note_read(self) -> None:
        self.reads += 1
        if self.crash_on_read is not None and self.reads == self.crash_on_read:
            self._crash(f"read #{self.reads}")

    def note_write(self) -> None:
        self.writes += 1
        if (
            self.crash_on_write is not None
            and self.writes == self.crash_on_write
        ):
            self._crash(f"write #{self.writes}")

    def note_alloc(self) -> None:
        self.allocs += 1
        if (
            self.crash_on_alloc is not None
            and self.allocs == self.crash_on_alloc
        ):
            self._crash(f"alloc #{self.allocs}")

    def note_free(self) -> None:
        self.frees += 1
        if self.crash_on_free is not None and self.frees == self.crash_on_free:
            self._crash(f"free #{self.frees}")

    def torn_prefix(self, nblocks: int) -> int:
        """How many payload blocks a torn write persists before dying."""
        if not self.torn_writes or nblocks <= 0:
            return 0
        return self._rng.randrange(nblocks)

    def transient_failure(self, key: tuple) -> bool:
        """Whether the op identified by ``key`` fails transiently now.

        ``key`` must be stable across retries of the same op; the per-op
        counter caps consecutive failures at ``max_transient_per_op``.
        """
        if self.transient_rate <= 0.0:
            return False
        failures = self._transient_counts.get(key, 0)
        if failures >= self.max_transient_per_op:
            return False
        if self._rng.random() < self.transient_rate:
            self._transient_counts[key] = failures + 1
            self.transients_injected += 1
            return True
        return False


# -- faulty storage ------------------------------------------------------------


class FaultyDisk(SimulatedDisk):
    """A :class:`SimulatedDisk` whose every operation consults a plan.

    Implemented as a subclass so the rest of the system (free lists, block
    payloads, counters, head position) behaves identically when no trigger
    fires — the faulty path differs from the real one only at the injected
    failure itself.
    """

    def __init__(
        self,
        profile,
        allocator: str = "first-fit",
        store_contents: bool = False,
        plan: FaultPlan | None = None,
        fault_id: int = 0,
    ) -> None:
        super().__init__(
            profile, allocator=allocator, store_contents=store_contents
        )
        self.plan = plan or FaultPlan()
        self.fault_id = fault_id
        self._op_seq = 0

    # space ---------------------------------------------------------------

    def allocate(self, nblocks: int):
        self.plan.note_alloc()
        return super().allocate(nblocks)

    def free(self, start: int, nblocks: int) -> None:
        self.plan.note_free()
        super().free(start, nblocks)

    # timing --------------------------------------------------------------

    def service(self, start: int, nblocks: int, is_write: bool) -> float:
        key = (self.fault_id, self._op_seq)
        if self.plan.transient_failure(key):
            raise TransientIOError(
                f"disk {self.fault_id}: transient failure servicing "
                f"[{start}, {start + nblocks})"
            )
        self._op_seq += 1
        return super().service(start, nblocks, is_write)

    # contents ------------------------------------------------------------

    def write_blocks(self, start: int, payloads: list[bytes]) -> None:
        try:
            self.plan.note_write()
        except InjectedCrash:
            # Torn write: a prefix of the blocks reaches the platter, the
            # rest never does — then the process dies.
            persisted = self.plan.torn_prefix(len(payloads))
            if persisted:
                super().write_blocks(start, payloads[:persisted])
            raise
        super().write_blocks(start, payloads)

    def read_blocks(self, start: int, nblocks: int) -> list[bytes]:
        self.plan.note_read()
        return super().read_blocks(start, nblocks)


class FaultyDiskArray(DiskArray):
    """A :class:`DiskArray` whose member disks share one fault plan."""

    def __init__(self, config, plan: FaultPlan) -> None:
        super().__init__(config)
        self.plan = plan
        self.disks = [
            FaultyDisk(
                self.profile,
                allocator=config.allocator,
                store_contents=config.store_contents,
                plan=plan,
                fault_id=i,
            )
            for i in range(config.ndisks)
        ]
