"""Shared-memory broadcast of read-only arrays to pool workers.

``parallel_map`` fans tasks out to a process pool, and before this
module every task that needed a large array (the padded neighbor table
of the blocked-BFS engine, the percolation engine's slot tables) had it
pickled into the task tuple -- once per chunk, per worker, per call.
For an n = 65536 sweep that is megabytes of redundant serialization on
every dispatch.

Here the publisher copies each array into a POSIX shared-memory
segment (:mod:`multiprocessing.shared_memory`) exactly once and ships
only a tiny :class:`ShmRef` descriptor (segment name, shape, dtype)
with the task. Workers attach lazily on first use, cache the mapping
per process, and reuse it for every later task -- including tasks from
*later* ``parallel_map`` calls, because the pool is persistent (see
:mod:`repro.util.parallel`) and the attach cache is module-level.

Contracts:

* **Byte-identical fallback.** ``REPRO_SHM=off`` (or a platform
  without shared memory) ships the arrays by pickle instead; the
  arrays a task observes are equal either way, so results are
  bit-identical across the setting -- pinned by ``tests/test_shm.py``
  and ``tests/test_percolation.py``.
* **No leaked segments.** Segments are owned (and unlinked) by the
  publishing process: ``parallel_map`` releases its broadcast in a
  ``finally``, :class:`Broadcast` is refcounted for shared long-lived
  handles, and an ``atexit`` hook force-unlinks anything still live.
  Workers *unregister* their attachments from the resource tracker so
  a worker exit (even a crash) never unlinks or double-frees a segment
  it does not own.
* **Read-only views.** Worker-side arrays are marked non-writable;
  the broadcast is for fan-out of inputs, not shared mutable state.
"""

from __future__ import annotations

import atexit
import os
import secrets
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - exotic platform
    _shared_memory = None

__all__ = [
    "ShmRef",
    "Broadcast",
    "shm_enabled",
    "publish",
    "activate",
    "get",
    "live_segments",
    "detach_all",
]

#: Segment-name prefix; tests scan /dev/shm for it to prove no leaks.
NAME_PREFIX = "repro-shm"

_lock = threading.RLock()
_counter = 0


def shm_enabled() -> bool:
    """False when ``REPRO_SHM`` is ``off``/``0``/``false`` (or no OS support)."""
    if _shared_memory is None:
        return False
    return os.environ.get("REPRO_SHM", "on").strip().lower() not in ("off", "0", "false")


def _unique_name() -> str:
    global _counter
    with _lock:
        _counter += 1
        seq = _counter
    return f"{NAME_PREFIX}-{os.getpid()}-{seq}-{secrets.token_hex(4)}"


def _attach_segment(name: str):
    """Attach to a segment *without* registering it with the resource
    tracker: the publisher owns (and unlinks) the segment, so a worker
    registering its attachment would make some tracker unlink it a
    second time -- or, with a fork-shared tracker, un-account the
    publisher's own registration. Python 3.13+ exposes ``track=False``
    for exactly this; earlier versions need the registration suppressed
    around the attach."""
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        pass
    from multiprocessing import resource_tracker

    with _lock:
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return _shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


@dataclass(frozen=True)
class ShmRef:
    """Picklable descriptor of one published array (a few dozen bytes)."""

    name: str
    shape: tuple
    dtype: str


# ----------------------------------------------------------------------
# publisher side
# ----------------------------------------------------------------------
_LIVE: "set[Broadcast]" = set()


class Broadcast:
    """A refcounted set of named arrays published for worker fan-out.

    Create via :func:`publish`. With shared memory enabled each array
    lives in one segment; :meth:`payload` is what rides in the task
    pickle (tiny refs, or the plain arrays on the fallback path).
    ``acquire``/``release`` let several overlapping ``parallel_map``
    calls share one handle; the last release unlinks. Only the
    creating process ever unlinks (fork-inherited copies are inert).
    """

    def __init__(self, arrays: Mapping[str, np.ndarray], use_shm: bool | None = None):
        if use_shm is None:
            use_shm = shm_enabled()
        self.arrays: dict[str, np.ndarray] = {
            name: np.ascontiguousarray(a) for name, a in arrays.items()
        }
        self._pid = os.getpid()
        self._refs = 1
        self._segments: dict[str, _SegmentHandle] = {}
        if use_shm and self.arrays:
            try:
                for name, arr in self.arrays.items():
                    self._segments[name] = _SegmentHandle(arr)
            except OSError:  # /dev/shm full or unavailable: pickle fallback
                self._unlink_all()
        if self._segments:
            with _lock:
                _LIVE.add(self)

    @property
    def shared(self) -> bool:
        return bool(self._segments)

    def payload(self) -> dict[str, "np.ndarray | ShmRef"]:
        """What a task carries: refs when shared, the arrays otherwise."""
        if self._segments:
            return {name: h.ref for name, h in self._segments.items()}
        return dict(self.arrays)

    def acquire(self) -> "Broadcast":
        with _lock:
            if self._refs <= 0:
                raise ValueError("broadcast already closed")
            self._refs += 1
        return self

    def release(self) -> None:
        with _lock:
            self._refs -= 1
            done = self._refs <= 0
        if done:
            self._force_close()

    close = release

    def _unlink_all(self) -> None:
        if os.getpid() != self._pid:  # fork-inherited copy: not the owner
            return
        for handle in self._segments.values():
            handle.destroy()
        self._segments = {}

    def _force_close(self) -> None:
        self._unlink_all()
        with _lock:
            _LIVE.discard(self)

    def __enter__(self) -> "Broadcast":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class _SegmentHandle:
    """One owned segment: create, copy the array in, unlink on destroy."""

    def __init__(self, arr: np.ndarray):
        self._seg = _shared_memory.SharedMemory(
            create=True, size=max(1, arr.nbytes), name=_unique_name()
        )
        np.ndarray(arr.shape, dtype=arr.dtype, buffer=self._seg.buf)[...] = arr
        self.ref = ShmRef(self._seg.name, tuple(arr.shape), arr.dtype.str)

    def destroy(self) -> None:
        try:
            self._seg.close()
        except BufferError:  # pragma: no cover - a live view in this process
            pass
        try:
            self._seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            pass
        except OSError:  # pragma: no cover - platform quirk; best-effort
            pass


def publish(arrays: Mapping[str, np.ndarray]) -> Broadcast:
    """Publish named arrays for broadcast (see :class:`Broadcast`)."""
    return Broadcast(arrays)


def live_segments() -> list[str]:
    """Names of segments this process currently owns (for tests)."""
    with _lock:
        return sorted(
            h.ref.name for bc in _LIVE for h in bc._segments.values()
        )


@atexit.register
def _cleanup_at_exit() -> None:  # pragma: no cover - interpreter teardown
    for bc in list(_LIVE):
        bc._force_close()


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: Per-process attach cache: segment name -> (SharedMemory, readonly view).
_ATTACHED: "OrderedDict[str, tuple[object, np.ndarray]]" = OrderedDict()
_ATTACH_CAP = 64

#: Stack of active name -> array|ShmRef mappings (innermost last).
_ACTIVE: list[Mapping[str, "np.ndarray | ShmRef"]] = []


def _attach(ref: ShmRef) -> np.ndarray:
    with _lock:
        hit = _ATTACHED.get(ref.name)
        if hit is not None:
            _ATTACHED.move_to_end(ref.name)
    if hit is None:
        seg = _attach_segment(ref.name)
        with _lock:
            hit = _ATTACHED.setdefault(ref.name, (seg, None))
            _ATTACHED.move_to_end(ref.name)
            while len(_ATTACHED) > _ATTACH_CAP:
                _, (old_seg, _old) = _ATTACHED.popitem(last=False)
                try:
                    old_seg.close()
                except BufferError:  # view still referenced somewhere
                    pass
        if hit[0] is not seg:  # racing thread attached first
            try:
                seg.close()
            except BufferError:  # pragma: no cover
                pass
    seg = hit[0]
    view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf)
    view.flags.writeable = False
    return view


@contextmanager
def activate(payload: Mapping[str, "np.ndarray | ShmRef"] | None) -> Iterator[None]:
    """Make ``payload`` resolvable through :func:`get` for the duration.

    Mappings nest (a task may run a serial inner ``parallel_map`` with
    its own broadcast); lookup walks the stack innermost-first.
    """
    if not payload:
        yield
        return
    _ACTIVE.append(payload)
    try:
        yield
    finally:
        _ACTIVE.pop()


def get(name: str) -> np.ndarray:
    """The broadcast array ``name`` of the innermost active mapping.

    In the publishing process this is the original array; in a worker
    it is a cached read-only shared-memory view (or the pickled copy on
    the ``REPRO_SHM=off`` path) -- equal bytes in every case.
    """
    for payload in reversed(_ACTIVE):
        if name in payload:
            value = payload[name]
            if isinstance(value, ShmRef):
                return _attach(value)
            return value
    raise KeyError(f"no broadcast array named {name!r} is active")


def detach_all() -> None:
    """Drop this process's attach cache (tests; safe mid-run)."""
    with _lock:
        items = list(_ATTACHED.items())
        _ATTACHED.clear()
    for _name, (seg, _view) in items:
        try:
            seg.close()
        except BufferError:  # pragma: no cover - live external view
            pass


class BroadcastTask:
    """Picklable wrapper giving ``fn`` access to a broadcast payload.

    With shared memory on, the payload is refs (bytes on the wire per
    chunk: tiny); on the fallback path it is the arrays themselves --
    the exact pre-broadcast cost, and the same observed values.
    """

    def __init__(self, fn, payload: Mapping[str, "np.ndarray | ShmRef"]):
        self.fn = fn
        self.payload = dict(payload)

    def __call__(self, item):
        with activate(self.payload):
            return self.fn(item)
