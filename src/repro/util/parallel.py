"""Optional process-level parallelism for experiment sweeps.

Figure sweeps are embarrassingly parallel over network sizes, so the
drivers route their maps through :func:`parallel_map`. Parallelism is
*opt-in* (set ``REPRO_WORKERS`` to a worker count, or pass ``workers``)
because the default serial path is deterministic, dependency-free and
fast enough for the reduced benchmark configuration; the knob exists
for full-scale sweeps on many-core machines.

Two fan-out amortizations live here:

* **A persistent pool.** The executor is created once and reused by
  every later call with the same worker count, working directory and
  ``REPRO_*`` environment (the fingerprint that decides what forked
  workers observe), instead of paying pool startup per call. A call
  under a changed environment transparently gets a fresh pool, so the
  semantics match the old pool-per-call behavior exactly; a broken
  pool (crashed worker) is discarded and rebuilt on the next call.
* **Shared-memory broadcast.** ``broadcast={"name": array, ...}``
  publishes large read-only arrays through :mod:`repro.util.shm` so
  tasks carry tiny segment descriptors instead of pickled megabytes;
  workers attach once per process and reuse the mapping across tasks
  and calls. Task functions read them back with ``shm.get("name")``.
  Pass a pre-built :class:`repro.util.shm.Broadcast` to share one
  publication across many calls. ``REPRO_SHM=off`` falls back to
  pickling with byte-identical results.

Worker functions must be picklable (module-level functions with
picklable arguments) -- the drivers in :mod:`repro.experiments` are
written that way.

With telemetry enabled (``REPRO_TELEMETRY=1`` or
:func:`repro.telemetry.enable`), worker-process telemetry rides home
with each result: tasks are bracketed with delta snapshots
(:mod:`repro.telemetry.merge`) and folded into the parent registry, so
counters/histograms are invariant across ``REPRO_WORKERS``. With
telemetry disabled the map path is byte-for-byte the old one.
"""

from __future__ import annotations

import atexit
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from repro import telemetry
from repro.telemetry import merge as _tmerge
from repro.util import shm

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["parallel_map", "default_workers", "shutdown_pool"]


class _TelemetryTask:
    """Picklable wrapper shipping a task's telemetry delta to the parent.

    Only constructed when the parent has telemetry on. The child may be
    forked (inherits enabled state and parent counts) or spawned
    (inherits neither): :func:`repro.telemetry.enable` covers spawn, and
    the begin/end delta bracket makes fork-inherited counts and chunked
    multi-task workers report each task's own contribution exactly once.
    """

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, item):
        telemetry.enable()
        _tmerge.begin_task()
        result = self.fn(item)
        return result, _tmerge.end_task()


def default_workers() -> int:
    """Worker count from ``REPRO_WORKERS`` (0/unset = serial).

    ``REPRO_WORKERS=auto`` means one worker per CPU core; negative or
    unparsable values fall back to serial.
    """
    raw = os.environ.get("REPRO_WORKERS", "0").strip().lower()
    if raw == "auto":
        return os.cpu_count() or 1
    try:
        return max(0, int(raw))
    except ValueError:
        return 0


# ----------------------------------------------------------------------
# persistent pool
# ----------------------------------------------------------------------
_pool: ProcessPoolExecutor | None = None
_pool_key: tuple | None = None


def _pool_fingerprint(workers: int) -> tuple:
    """What forked workers observe at startup: recreate the pool when
    it changes, so reuse is invisible to callers that tweak the
    environment (tests, the timing gates) between maps."""
    env = tuple(
        sorted((k, v) for k, v in os.environ.items() if k.startswith("REPRO_"))
    )
    return (workers, os.getcwd(), env)


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _pool, _pool_key
    key = _pool_fingerprint(workers)
    if _pool is not None:
        broken = getattr(_pool, "_broken", False)
        if _pool_key == key and not broken:
            return _pool
        shutdown_pool()
    _pool = ProcessPoolExecutor(max_workers=workers)
    _pool_key = key
    return _pool


def shutdown_pool() -> None:
    """Tear down the persistent pool (idempotent; tests and atexit)."""
    global _pool, _pool_key
    pool, _pool, _pool_key = _pool, None, None
    if pool is not None:
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - already-broken pool
            pass


atexit.register(shutdown_pool)


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    workers: int | None = None,
    broadcast: "Mapping | shm.Broadcast | None" = None,
) -> list[R]:
    """Map ``fn`` over ``items``, optionally with a process pool.

    Results keep input order. ``workers=None`` consults
    ``REPRO_WORKERS``; ``workers in (0, 1)`` runs serially in-process.

    ``broadcast`` makes large read-only arrays available to ``fn``
    through :func:`repro.util.shm.get` -- shared memory on the pool
    path (published here, released in a ``finally``), direct references
    on the serial path, pickled copies under ``REPRO_SHM=off``; the
    observed values are identical in every mode.

    Work is handed out in chunks of roughly ``len(items) / (4 *
    workers)`` so per-item IPC overhead amortizes while the tail still
    load-balances (uneven item costs are the norm: sweep sizes grow
    geometrically).
    """
    items_list: Sequence[T] = list(items)
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(items_list) <= 1:
        if broadcast is None:
            return [fn(x) for x in items_list]
        arrays = broadcast.arrays if isinstance(broadcast, shm.Broadcast) else broadcast
        with shm.activate(arrays):
            return [fn(x) for x in items_list]
    effective = min(workers, len(items_list))
    chunksize = max(1, math.ceil(len(items_list) / (effective * 4)))

    published: shm.Broadcast | None = None
    task: Callable = fn
    if broadcast is not None:
        if isinstance(broadcast, shm.Broadcast):
            published = broadcast.acquire()
        else:
            published = shm.publish(broadcast)
        task = shm.BroadcastTask(fn, published.payload())
    merge_telemetry = telemetry.enabled()
    if merge_telemetry:
        task = _TelemetryTask(task)
    try:
        pool = _get_pool(workers)
        try:
            out = list(pool.map(task, items_list, chunksize=chunksize))
        except BrokenProcessPool:
            shutdown_pool()  # next call gets a fresh pool
            raise
    finally:
        if published is not None:
            published.release()
    if merge_telemetry:
        for _, snap in out:
            _tmerge.merge_snapshot(snap)
        return [r for r, _ in out]
    return out
