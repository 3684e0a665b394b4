"""Sharded on-disk layout for the run store.

Entries fan out across a fixed set of :data:`SHARDS` prefix-keyed
subdirectories, so concurrent writers do not all contend on one
directory inode (directory-entry creation serializes inside the
filesystem) and per-entry lock files never pile up in one place::

    REPRO_STORE_DIR/
      .shard-000.lock    <- per-shard publish locks (fixed set, root level)
      s000/sim-03ac....json
      s001/sim-8f21....json
      ...

Design points:

* **One layout.** An entry's home is a pure function of its digest:
  ``s{int(digest[:8], 16) % 16:03d}/<stem>.json``. There is no layout
  marker and no knob, so every process agrees on where an entry lives.
  A file found anywhere else (say, at the store root) is never read;
  its key is a miss and is recomputed into its home. Such *stranded*
  files are listed by :func:`iter_stranded_paths`, counted by
  ``store info`` and deleted by every ``store gc``.
* **Per-shard publish locks.** Publishing locks only the entry's
  shard (``.shard-NNN.lock``), so writers on different shards never
  serialize, and the lock files are a small fixed set instead of
  one-per-entry litter. Infrastructure files are all dot-prefixed;
  anything else ending in ``.lock`` inside a shard is a reapable
  per-entry compute lock (see :mod:`repro.store.runstore`).
"""

from __future__ import annotations

import itertools
import os
import re
from typing import Iterator

try:  # POSIX file locking; Windows falls back to atomic-rename only.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

__all__ = [
    "SHARDS",
    "FileLock",
    "shard_index",
    "shard_dir",
    "entry_path",
    "entry_lock_path",
    "shard_lock_path",
    "iter_entry_paths",
    "iter_stranded_paths",
    "iter_stale_locks",
]

#: Number of shard subdirectories every store uses.
SHARDS = 16

_SHARD_DIR_RE = re.compile(r"^s(\d{3,})$")
_ENTRY_RE = re.compile(r"^(?P<stem>[^.].*-(?P<digest>[0-9a-f]{8,}))\.json$")


# ----------------------------------------------------------------------
# path geometry
# ----------------------------------------------------------------------
def shard_index(digest: str) -> int:
    """Shard of a digest: stable prefix keying, uniform for hex digests."""
    return int(digest[:8], 16) % SHARDS


def shard_dir(root: str, index: int) -> str:
    return os.path.join(root, f"s{index:03d}")


def entry_path(root: str, stem: str, digest: str) -> str:
    """The one location of an entry."""
    return os.path.join(shard_dir(root, shard_index(digest)), stem + ".json")


def entry_lock_path(root: str, stem: str, digest: str) -> str:
    """Per-entry compute lock; lives beside the entry, reaped after publish."""
    return entry_path(root, stem, digest)[: -len(".json")] + ".lock"


def shard_lock_path(root: str, digest: str) -> str:
    """Per-shard publish lock (root-level dotfile)."""
    return os.path.join(root, f".shard-{shard_index(digest):03d}.lock")


# ----------------------------------------------------------------------
# locking
# ----------------------------------------------------------------------
class FileLock:
    """An exclusive ``fcntl`` file lock usable as a context manager.

    ``acquire(blocking=False)`` returns False instead of waiting, which
    is how the run store detects -- and counts -- another process
    already computing the same entry. On platforms without ``fcntl``
    the lock degrades to a no-op (atomic renames still keep entries
    consistent; only cross-process coalescing is lost).
    """

    def __init__(self, path: str):
        self.path = path
        self._fh = None

    def acquire(self, blocking: bool = True) -> bool:
        self._fh = open(self.path, "a")
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            return True
        flags = fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB)
        try:
            fcntl.flock(self._fh, flags)
            return True
        except OSError:
            self._fh.close()
            self._fh = None
            return False

    def release(self) -> None:
        if self._fh is None:
            return
        try:
            if fcntl is not None:
                fcntl.flock(self._fh, fcntl.LOCK_UN)
        finally:
            self._fh.close()
            self._fh = None

    def unlink_then_release(self) -> None:
        """Reap the lock file, then release.

        Unlinking while still holding the lock is safe here because the
        lock only guards "compute if the entry is missing": a waiter
        blocked on the old inode re-checks the (now published) entry
        after acquiring, and a fresh opener finds the entry before ever
        creating a new lock file.
        """
        try:
            os.unlink(self.path)
        except OSError:
            pass
        self.release()

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


# ----------------------------------------------------------------------
# walking
# ----------------------------------------------------------------------
def _iter_shard_files(root: str, keep) -> Iterator[str]:
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return
    for name in names:
        path = os.path.join(root, name)
        if not (_SHARD_DIR_RE.match(name) and os.path.isdir(path)):
            continue
        try:
            subnames = sorted(os.listdir(path))
        except OSError:
            continue
        for sub in subnames:
            if keep(sub):
                yield os.path.join(path, sub)


def _is_home(path: str) -> bool:
    """True when a shard file sits in its digest's shard directory."""
    digest = _ENTRY_RE.match(os.path.basename(path)).group("digest")
    return os.path.basename(os.path.dirname(path)) == f"s{shard_index(digest):03d}"


def iter_entry_paths(root: str) -> Iterator[str]:
    """Every entry file that sits in its home shard directory."""
    return filter(_is_home, _iter_shard_files(root, _ENTRY_RE.match))


def iter_stranded_paths(root: str) -> Iterator[str]:
    """Entry files no lookup ever reads: those at the store root (the
    retired flat layout) and shard files outside their home shard (a
    store written with another shard count)."""
    try:
        names = sorted(os.listdir(root))
    except OSError:
        return
    for name in names:
        path = os.path.join(root, name)
        if _ENTRY_RE.match(name) and os.path.isfile(path):
            yield path
    yield from itertools.filterfalse(_is_home, _iter_shard_files(root, _ENTRY_RE.match))


def iter_stale_locks(root: str) -> Iterator[str]:
    """Per-entry ``.lock`` files (the reapable kind, never dotfiles)."""
    return _iter_shard_files(
        root, lambda name: name.endswith(".lock") and not name.startswith(".")
    )
