"""Replace a file's contents without ever destroying its last good copy.

A truncating ``open`` destroys the old bytes before the new ones exist,
so a crash, a ``kill -9`` or a full disk mid-write leaves neither.
:func:`atomic_write` writes a sibling temp file instead, makes it
durable, and renames it over the target: a reader finds the old file or
the new one, whole, and never a torn one (the restartability the
paper's §1 asks of the index holds for its snapshots too).
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager

from . import faults

CP_BEFORE_REPLACE = faults.register_crash_point(
    "atomic.before-replace",
    "new file written and synced beside the target, target not replaced",
)


@contextmanager
def atomic_write(path):
    """Yield a binary file whose bytes replace ``path`` when the block
    exits cleanly: write a sibling temp file, flush, ``fsync``,
    ``os.replace``, then ``fsync`` the directory.  On any failure the
    temp file is removed and ``path`` is untouched."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(
        directory,
        f".{os.path.basename(path)}.{secrets.token_hex(4)}.tmp",
    )
    # os.open rather than mkstemp: the new file gets the umask's mode, as
    # a plain open would give it, not mkstemp's 0600.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fp:
            yield fp
            fp.flush()
            os.fsync(fp.fileno())
        faults.crash_point(CP_BEFORE_REPLACE)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
