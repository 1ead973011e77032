"""Advisory file locking for the on-disk stores.

The sweep cache, the trace store, and the predictor artifact all write with
the same atomic discipline — ``*.tmp-<pid>`` then :func:`os.replace` — so
a *single* writer can never corrupt an entry.  Two writers on one machine
are a different story: concurrent garbage collection can unlink another
process's entry between its write and its rename, two servers can
double-run GC and double-count reclaimed bytes, and quarantine moves can
race the writer they are quarantining.  An advisory ``fcntl.flock`` on a
hidden ``.lock`` file inside each store directory serializes exactly
those multi-step sections, at the cost of one ``open`` + ``flock`` per
write — microseconds next to the serialized numpy archive it guards.

The lock is *advisory* (readers that only ever see complete, renamed
files deliberately skip it) and *best-effort portable*: on platforms
without ``fcntl`` (Windows) the context manager degrades to a no-op, which
restores the pre-locking behavior instead of breaking single-process use.
Lock files are named with a leading dot so the stores' ``glob`` patterns
(``trace-*.npz``, ``sweep-*.pkl``) never pick them up.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Union

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - Windows
    fcntl = None  # type: ignore[assignment]

__all__ = ["advisory_lock", "store_lock", "LOCK_FILE_NAME"]

PathLike = Union[str, Path]

#: Hidden lock-file name used inside every store directory.
LOCK_FILE_NAME = ".lock"


@contextmanager
def advisory_lock(lock_path: PathLike, *, shared: bool = False) -> Iterator[bool]:
    """Hold an advisory ``flock`` on ``lock_path`` for the ``with`` body.

    Creates the lock file (and its parent directory) if missing.  Yields
    ``True`` while the lock is held, ``False`` when the platform has no
    ``fcntl`` and the section runs unserialized.  The lock is released on
    exit even if the body raises; a crashed holder releases it
    automatically when the kernel closes its descriptors, so a dead
    process can never wedge the store.
    """
    if fcntl is None:  # pragma: no cover - Windows
        yield False
        return
    path = Path(lock_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_SH if shared else fcntl.LOCK_EX)
        yield True
    finally:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)


def store_lock(directory: PathLike, *, shared: bool = False):
    """The advisory lock guarding one store directory's writers.

    One lock per directory (not per entry): the sections it guards — GC
    scans, quarantine moves, tmp/rename cycles — span multiple files, and
    a per-entry lock could not order a GC unlink against a concurrent
    rename of the same entry.
    """
    return advisory_lock(Path(directory) / LOCK_FILE_NAME, shared=shared)
