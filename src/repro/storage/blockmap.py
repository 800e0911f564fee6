"""Layered copy-on-write view of a disk's stored-block map.

A full checkpoint clone materializes every block into a fresh dict.  The
incremental publisher instead stacks a small *overlay* — just the blocks
the batch wrote or freed — on top of the previous snapshot's (immutable)
map.  Readers resolve a block by walking overlays newest-first; a freed
block is masked by the ``ABSENT`` sentinel so the stale content below it
can never resurface.

The layers are immutable by protocol: the writer's map is always a plain
dict, and a published snapshot's map is never mutated (enforced in debug
mode by the freeze barrier in ``core.invariants``), so overlay stacking
is safe under concurrent readers without locks.

To keep lookup cost bounded as snapshots chain, ``over`` compacts: once
the stack exceeds ``MAX_LAYERS`` the overlays are merged into one, and
once the merged overlay rivals half the base it is folded into a fresh
base dict.  Both merges copy only overlay entries (plus one base copy
amortized over at least base/2 dirtied blocks), preserving the O(batch)
publish bound.
"""

from __future__ import annotations

from typing import Iterator


class _Absent:
    """Sentinel masking a freed block in an overlay."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<ABSENT>"


ABSENT = _Absent()
_MISSING = object()

#: Overlay stack depth that triggers an overlay merge.
MAX_LAYERS = 16


class LayeredBlocks:
    """Immutable stack of block overlays over a base ``{block: bytes}``.

    Implements the read-side mapping surface the rest of the system uses
    on ``SimulatedDisk._blocks``: ``get``, ``__getitem__``,
    ``__contains__``, ``items``, ``keys``, ``__iter__``, ``__len__``.
    Iteration and ``len`` materialize a merged dict lazily (O(index)) —
    they only serve checkpointing and diagnostics, never the query path,
    which resolves single blocks through ``get``.
    """

    __slots__ = ("_layers", "_merged")

    def __init__(self, layers: list[dict]) -> None:
        # ``layers`` is newest-first; the last element is the base map.
        self._layers = layers
        self._merged: dict | None = None

    @classmethod
    def over(cls, base, overlay: dict) -> "LayeredBlocks":
        """Stack ``overlay`` (bytes or ABSENT values) over ``base``.

        ``base`` may be a plain dict (the first incremental publish over
        a full clone) or another ``LayeredBlocks`` (a snapshot chain).
        Neither is mutated; compaction builds fresh dicts.
        """
        if isinstance(base, LayeredBlocks):
            layers = [overlay, *base._layers]
        else:
            layers = [overlay, base]
        if len(layers) > MAX_LAYERS:
            layers = cls._compact(layers)
        return cls(layers)

    @staticmethod
    def _compact(layers: list[dict]) -> list[dict]:
        # Replay the overlays oldest first as _materialize does, keeping
        # base blocks rewritten in place apart from blocks appended after
        # the base (in order) and base blocks freed on the way (masked).
        base = layers[-1]
        kept, added, masked = {}, {}, {}
        for overlay in reversed(layers[:-1]):
            for block, payload in overlay.items():
                if block in base and block not in masked:
                    if payload is ABSENT:
                        masked[block] = ABSENT
                        kept.pop(block, None)
                    else:
                        kept[block] = payload
                elif payload is ABSENT:
                    added.pop(block, None)
                else:
                    added[block] = payload
        merged = {**kept, **added}
        if (len(merged) + len(masked)) * 2 >= len(base):
            # The dirty volume rivals the base: fold into a fresh base.
            folded = dict(base)
            for block in masked:
                del folded[block]
            folded.update(merged)
            return [folded]
        return [merged, masked, base] if masked else [merged, base]

    # ------------------------------------------------------------------
    # Single-block resolution (query path)
    # ------------------------------------------------------------------
    def get(self, block, default=None):
        for layer in self._layers:
            payload = layer.get(block, _MISSING)
            if payload is _MISSING:
                continue
            if payload is ABSENT:
                return default
            return payload
        return default

    def __getitem__(self, block):
        payload = self.get(block, _MISSING)
        if payload is _MISSING:
            raise KeyError(block)
        return payload

    def __contains__(self, block) -> bool:
        return self.get(block, _MISSING) is not _MISSING

    # ------------------------------------------------------------------
    # Whole-map views (checkpoint / diagnostics only)
    # ------------------------------------------------------------------
    def _materialize(self) -> dict:
        merged = self._merged
        if merged is None:
            merged = dict(self._layers[-1])
            for overlay in reversed(self._layers[:-1]):
                for block, payload in overlay.items():
                    if payload is ABSENT:
                        merged.pop(block, None)
                    else:
                        merged[block] = payload
            self._merged = merged  # idempotent; safe under racing readers
        return merged

    def items(self):
        return self._materialize().items()

    def keys(self):
        return self._materialize().keys()

    def __iter__(self) -> Iterator:
        return iter(self._materialize())

    def __len__(self) -> int:
        return len(self._materialize())
