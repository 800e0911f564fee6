"""Lifecycle events: one structured record per decision, as it is made.

Every batch-boundary decision the serving stack takes without a word —
a flush, a cow publish or its fallback to the full clone and why, a
crash rolled back and replayed, a replica rebuilt, a split cut over —
is an :func:`event` on the ``repro.events`` logger, emitted beside the
counter bump it explains.  ``src/`` installs no handler; a caller that
wants the trail attaches one, with :class:`JsonLines` for one JSON
object per line::

    handler = logging.StreamHandler()
    handler.setFormatter(JsonLines())
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
"""

from __future__ import annotations

import json
import logging

logger = logging.getLogger("repro.events")


class JsonLines(logging.Formatter):
    """``{"ts", "pid", "event", **fields}`` as one JSON line."""

    def format(self, record: logging.LogRecord) -> str:
        return json.dumps(
            {
                "ts": round(record.created, 6),
                "pid": record.process,
                "event": record.msg,
                **getattr(record, "fields", {}),
            },
            default=str,
        )


def event(name: str, **fields) -> None:
    """Emit lifecycle event ``name``; returns at once unless INFO is
    enabled on ``repro.events``."""
    if logger.isEnabledFor(logging.INFO):
        logger.info(name, extra={"fields": fields})
