"""A whole core index saved, loaded and cloned through the checkpoint
format, for tests that work below ``TextDocumentIndex``.

A save is the configuration header plus the redo record cut from the
empty index (``checkpoint.save_record(index, None, ...)``), which is the
body ``TextDocumentIndex.save`` wraps; a load applies that record to an
empty index.  Not collected (no ``test_`` prefix).
"""

from __future__ import annotations

import io

from repro.core import checkpoint
from repro.core.index import DualStructureIndex


def save(index: DualStructureIndex, fp) -> None:
    checkpoint.save_header(index, fp)
    checkpoint.save_record(index, None, fp, {})


def load(fp) -> DualStructureIndex:
    index = DualStructureIndex(checkpoint.load_header(fp))
    checkpoint.apply_record(index, fp)
    return index


def clone(index: DualStructureIndex) -> DualStructureIndex:
    buf = io.BytesIO()
    save(index, buf)
    buf.seek(0)
    return load(buf)
