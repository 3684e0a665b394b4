"""Persistent run store: never simulate the same point twice.

PR 1's artifact cache proved fingerprint-keyed reuse pays 30x+ at the
topology layer; this module lifts the idea one layer up, to whole
simulation results. Every experiment entry point (`fig10`,
``run_curve``, ``saturation_search``, the robustness and degradation
sweeps) asks the store before running a point and publishes what it
computed, so repeated figures, resumed sweeps and overlapping searches
share work instead of repeating it -- the way cluster-comparison
studies amortize thousands of near-identical evaluations across one
campaign. The serving daemon (:mod:`repro.serve`) answers HTTP queries
straight out of this store.

Two tiers:

* an in-process LRU (capacity :data:`MEMORY_CAPACITY` entries)
  holding, per digest, the stored key payload and the ``result``
  rendered once as JSON text. :func:`put` renders it and builds the
  disk entry from the same text; :func:`fetch_text` hands it to the
  serving daemon unparsed, and :func:`fetch` parses only that text, so
  every hit still gets fresh objects and a caller mutating a returned
  result can never pollute later hits. Every hit, memory or disk,
  checks the stored payload against the requested key;
* an optional on-disk JSON tier under ``REPRO_STORE_DIR`` -- one
  human-auditable file per point (the canonical key payload is stored
  beside the result), fanned out across 16 fixed prefix-keyed
  subdirectories (:mod:`repro.store.shards`), shared by worker
  processes and surviving the process, which is what makes killed
  sweeps resumable. ``python -m repro store info|gc`` inspects and
  prunes it.

Concurrency, three layers deep:

* **Publish** is atomic (``mkstemp`` + ``os.replace``) and serialized
  by a per-*shard* ``fcntl`` lock with a first-writer-wins existence
  check -- concurrent workers never corrupt or duplicate an entry, and
  writers on different shards never contend.
* **Compute** is coalesced. Within a process, :func:`get_or_run` runs
  a single-flight table: concurrent threads asking for the same key
  wait for the first one's result instead of recomputing. Across
  processes (disk tier on), the computing leader holds a per-entry
  lock for the duration of the compute; a second process that misses
  on the same key blocks on that lock, then re-reads the entry the
  leader published -- exactly one compute per key, cluster-wide. The
  per-entry lock file is *reaped* after a successful publish, so a
  long campaign leaves no lock litter behind.
* Within one batch, the in-flight dedup scheduler (:func:`dedup_map`)
  collapses identical points before they are dispatched, so duplicates
  run once even on the cold path.

``REPRO_STORE=off`` bypasses both tiers entirely. Every
:class:`StoreStats` field is mirrored into the telemetry registry
(``store.memory_hits`` / ``store.disk_hits`` / ``store.misses`` /
``store.stores`` / ``store.bytes_read`` / ``store.bytes_written`` /
``store.inflight_dedup`` / ``store.thread_coalesced`` /
``store.lock_waits``, plus the legacy ``store.hits`` / ``store.bytes``
aggregates) when telemetry is enabled, so the daemon's ``/metrics``
endpoint reports cache effectiveness for free.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from repro import telemetry
from repro.store import shards as _shards
from repro.store.codec import decode_result, encode_result
from repro.store.keys import RunKey

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "StoreStats",
    "store_enabled",
    "store_dir",
    "store_stats",
    "reset_store_stats",
    "clear_store",
    "disk_entry_path",
    "find_disk_entry",
    "get",
    "fetch",
    "fetch_text",
    "put",
    "record_misses",
    "get_or_run",
    "cached_sim",
    "cached_value",
    "dedup_map",
    "GcReport",
    "gc_store",
]


@dataclass
class StoreStats:
    """Hit/miss/byte accounting for both store tiers."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0  #: entries written to the disk tier
    bytes_written: int = 0
    bytes_read: int = 0
    inflight_dedup: int = 0  #: duplicate points collapsed inside batches
    thread_coalesced: int = 0  #: threads served by another thread's compute
    lock_waits: int = 0  #: processes that waited out another's compute

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def copy(self) -> "StoreStats":
        return StoreStats(
            self.memory_hits, self.disk_hits, self.misses, self.stores,
            self.bytes_written, self.bytes_read, self.inflight_dedup,
            self.thread_coalesced, self.lock_waits,
        )

    def as_dict(self) -> dict:
        """Plain-JSON view (every field plus the derived aggregates)."""
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "stores": self.stores,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "inflight_dedup": self.inflight_dedup,
            "thread_coalesced": self.thread_coalesced,
            "lock_waits": self.lock_waits,
        }


#: Capacity (entries) of the in-process LRU tier.
MEMORY_CAPACITY = 512

_stats = StoreStats()
_lock = threading.RLock()
#: digest -> (namespace, key payload, result rendered as JSON text)
_memory: OrderedDict[str, tuple[str, str, str]] = OrderedDict()
_inflight: dict[str, threading.Event] = {}  # digest -> single-flight latch


# ----------------------------------------------------------------------
# configuration (env read at call time, so tests and CLI flags can
# toggle tiers without reimporting)
# ----------------------------------------------------------------------
def store_enabled() -> bool:
    """False when ``REPRO_STORE`` is set to ``off``/``0``/``false``."""
    return os.environ.get("REPRO_STORE", "on").strip().lower() not in ("off", "0", "false")


def store_dir() -> str | None:
    """Disk-tier directory (``REPRO_STORE_DIR``), or None for memory-only."""
    d = os.environ.get("REPRO_STORE_DIR", "").strip()
    return d or None


def store_stats() -> StoreStats:
    """Snapshot of the counters (monotonic since process start/reset)."""
    with _lock:
        return _stats.copy()


def reset_store_stats() -> None:
    with _lock:
        _stats.__init__()


def clear_store(disk: bool = False) -> None:
    """Drop the in-process tier (and optionally the disk tier)."""
    with _lock:
        _memory.clear()
    if disk:
        d = store_dir()
        if d and os.path.isdir(d):
            for path in [*_shards.iter_entry_paths(d), *_shards.iter_stranded_paths(d),
                         *_shards.iter_stale_locks(d)]:
                try:
                    os.unlink(path)
                except OSError:
                    pass


# ----------------------------------------------------------------------
# tier plumbing
# ----------------------------------------------------------------------
def _memory_get(digest: str) -> tuple[str, str, str] | None:
    with _lock:
        entry = _memory.get(digest)
        if entry is not None:
            _memory.move_to_end(digest)
        return entry


def _memory_put(key: RunKey, result_text: str) -> None:
    with _lock:
        _memory[key.digest] = (key.namespace, key.payload, result_text)
        _memory.move_to_end(key.digest)
        while len(_memory) > MEMORY_CAPACITY:
            _memory.popitem(last=False)


def disk_entry_path(key: RunKey, d: str | None = None) -> str | None:
    """Disk location of ``key`` (whether or not it exists yet)."""
    d = d or store_dir()
    if d is None:
        return None
    return _shards.entry_path(d, key.stem, key.digest)


def find_disk_entry(key: RunKey, d: str | None = None) -> str | None:
    """The existing on-disk file holding ``key``, or None."""
    path = disk_entry_path(key, d)
    return path if path is not None and os.path.exists(path) else None


def _disk_load(key: RunKey) -> str | None:
    path = disk_entry_path(key)
    if path is None:
        return None
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError:
        return None


def _entry_text(key: RunKey, result_text: str) -> str:
    """The disk entry document, spliced from the rendered result: the
    same bytes as ``json.dumps({"ns", "key", "result"}, allow_nan=True)``."""
    return (f'{{"ns": {json.dumps(key.namespace)}, "key": {json.dumps(key.payload)}, '
            f'"result": {result_text}}}')


def _disk_store(key: RunKey, result_text: str) -> None:
    """Write one entry: per-shard exclusive lock, first writer wins,
    atomic tmp-write + rename. Best-effort on read-only/full disks.

    An existing file that does not parse as this key's entry (corrupt,
    truncated or of another shape) is replaced, not kept."""
    d = store_dir()
    if d is None:
        return
    text = _entry_text(key, result_text)
    try:
        path = _shards.entry_path(d, key.stem, key.digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with _shards.FileLock(_shards.shard_lock_path(d, key.digest)):
            existing = _disk_load(key)
            if existing is not None and _parse(key, existing) is not None:
                return  # another process/worker already published it
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".json.tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(text)
                os.replace(tmp, path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
        with _lock:
            _stats.stores += 1
            _stats.bytes_written += len(text)
        telemetry.count("store.stores")
        telemetry.count("store.bytes", len(text))
        telemetry.count("store.bytes_written", len(text))
    except OSError:
        pass


def _parse(key: RunKey, text: str) -> dict | None:
    """Decode an entry document; None on corruption, a document that is
    not an object holding a ``result``, or a key mismatch.

    The stored canonical payload must match the requested key exactly
    -- a digest collision (or a hand-edited file) degrades to a miss,
    never to a wrong result.
    """
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    if not (isinstance(doc, dict) and "result" in doc):
        return None
    if doc.get("ns") != key.namespace or doc.get("key") != key.payload:
        return None
    return doc


# ----------------------------------------------------------------------
# public get / put / get-or-run
# ----------------------------------------------------------------------
def _lookup(key: RunKey):
    """The tier walk behind :func:`fetch` and :func:`fetch_text`.

    Returns ``(result_text, result, tier)`` or None on a miss.
    ``result`` is the freshly parsed document on a disk hit and None on
    a memory hit (where only the text is kept). Either tier's stored
    payload must equal the key's.
    """
    if not store_enabled():
        return None
    entry = _memory_get(key.digest)
    if entry is not None:
        if entry[0] != key.namespace or entry[1] != key.payload:
            return None
        return entry[2], None, "memory"
    text = _disk_load(key)
    if text is None:
        return None
    with _lock:
        _stats.bytes_read += len(text)
    telemetry.count("store.bytes_read", len(text))
    doc = _parse(key, text)
    if doc is None:
        return None
    return json.dumps(doc["result"], allow_nan=True), doc["result"], "disk"


def _record_hit(key: RunKey, result_text: str, tier: str) -> None:
    with _lock:
        if tier == "memory":
            _stats.memory_hits += 1
        else:
            _stats.disk_hits += 1
    telemetry.count("store.hits")
    telemetry.count(f"store.{tier}_hits")
    if tier == "disk":
        _memory_put(key, result_text)


def fetch(key: RunKey, decode: Callable[[dict], object] | None = None):
    """Look a point up; returns ``(value, tier)``.

    ``tier`` is ``"memory"`` or ``"disk"`` on a hit and ``None`` on a
    miss (then ``value`` is ``None`` too). :func:`get` is the value-only
    wrapper. A memory hit parses the stored result text, so the value
    is always a fresh object.
    """
    found = _lookup(key)
    if found is None:
        return None, None
    text, result, tier = found
    if tier == "memory":
        result = json.loads(text)
    value = result if decode is None else decode(result)
    if value is None:  # unknown codec version: treat as a miss
        return None, None
    _record_hit(key, text, tier)
    return value, tier


def fetch_text(key: RunKey):
    """Look a point up without decoding it; returns ``(result_text, tier)``.

    ``result_text`` is the stored ``result`` as JSON text, equal to
    ``json.dumps(result, allow_nan=True)`` of what :func:`fetch` returns
    -- the serving daemon splices it into its response unparsed. Hits,
    misses and the payload check count exactly as in :func:`fetch`; a
    null result is a miss there and here.
    """
    found = _lookup(key)
    if found is None or found[0] == "null":
        return None, None
    text, _, tier = found
    _record_hit(key, text, tier)
    return text, tier


def get(key: RunKey, decode: Callable[[dict], object] | None = None):
    """Look a point up (memory tier, then disk). None on a miss.

    ``decode`` maps the stored ``result`` document back to a value;
    default is the identity (plain JSON values).
    """
    return fetch(key, decode=decode)[0]


def put(key: RunKey, value, encode: Callable[[object], dict] | None = None) -> None:
    """Publish a computed point to both tiers (no-op when disabled)."""
    if not store_enabled():
        return
    result_text = json.dumps(value if encode is None else encode(value), allow_nan=True)
    _memory_put(key, result_text)
    _disk_store(key, result_text)


def record_misses(count: int = 1) -> None:
    """Count ``count`` lookups that missed and that the caller computes
    itself (callers pairing :func:`get` / :func:`put` by hand instead
    of going through :func:`get_or_run`)."""
    with _lock:
        _stats.misses += count
    telemetry.count("store.misses", count)


def _compute_and_publish(
    key: RunKey,
    compute: Callable[[], T],
    encode: Callable[[T], dict] | None,
    decode: Callable[[dict], T] | None,
) -> T:
    """The miss path of :func:`get_or_run`, cross-process coalesced.

    With a disk tier, the computing leader holds the per-entry lock for
    the duration of the compute. A process that finds the lock taken is
    racing a leader elsewhere: it blocks (counted as ``lock_waits``),
    then re-reads the entry the leader published -- a disk hit, not a
    second compute. The lock file is reaped after a successful publish
    (under the lock; see :meth:`~repro.store.shards.FileLock.
    unlink_then_release` for why that is race-free), so sweeps leave no
    stale locks behind. Without ``fcntl`` or a disk tier this reduces
    to plain compute-and-publish.
    """
    d = store_dir()
    if d is None or _shards.fcntl is None:
        record_misses()
        value = compute()
        put(key, value, encode=encode)
        return value
    lock = _shards.FileLock(_shards.entry_lock_path(d, key.stem, key.digest))
    try:
        os.makedirs(os.path.dirname(lock.path), exist_ok=True)
        if not lock.acquire(blocking=False):
            with _lock:
                _stats.lock_waits += 1
            telemetry.count("store.lock_waits")
            lock.acquire(blocking=True)
    except OSError:  # unlockable filesystem: fall back to plain compute
        record_misses()
        value = compute()
        put(key, value, encode=encode)
        return value
    try:
        value = get(key, decode=decode)  # leader elsewhere may have published
        if value is not None:
            return value
        record_misses()
        value = compute()
        put(key, value, encode=encode)
        lock.unlink_then_release()
        return value
    finally:
        lock.release()  # no-op when already reaped-and-released


def get_or_run(
    key: RunKey,
    compute: Callable[[], T],
    encode: Callable[[T], dict] | None = None,
    decode: Callable[[dict], T] | None = None,
) -> T:
    """The store's main verb: serve a stored point or compute-and-publish.

    Concurrent callers of the same key coalesce: threads in this
    process wait on a single-flight latch for the first caller's
    result, and processes sharing a disk tier serialize on the
    per-entry lock -- either way the point is computed exactly once
    and every caller decodes the same stored bytes.
    """
    if not store_enabled():
        return compute()
    while True:
        value = get(key, decode=decode)
        if value is not None:
            return value
        with _lock:
            latch = _inflight.get(key.digest)
            if latch is None:
                _inflight[key.digest] = latch = threading.Event()
                leader = True
            else:
                leader = False
        if not leader:
            with _lock:
                _stats.thread_coalesced += 1
            telemetry.count("store.thread_coalesced")
            latch.wait()
            continue  # leader published to the memory tier (or failed)
        try:
            return _compute_and_publish(key, compute, encode, decode)
        finally:
            with _lock:
                _inflight.pop(key.digest, None)
            latch.set()


def cached_sim(key: RunKey, compute: Callable[[], object]):
    """:func:`get_or_run` specialized to :class:`~repro.sim.metrics.SimResult`."""
    return get_or_run(key, compute, encode=encode_result, decode=decode_result)


def cached_value(key: RunKey, compute: Callable[[], object]):
    """:func:`get_or_run` for plain-JSON values (lists/dicts/scalars)."""
    return get_or_run(key, compute)


@dataclass
class GcReport:
    """What :func:`gc_store` did."""

    root: str
    max_bytes: int
    scanned: int = 0
    total_bytes: int = 0  #: disk-tier size before eviction
    evicted: int = 0
    evicted_bytes: int = 0
    kept_bytes: int = 0
    reaped_locks: int = 0  #: stale per-entry compute locks removed
    stranded: int = 0  #: entry files outside their home shard removed
    errors: list[str] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.errors is None:
            self.errors = []

    @property
    def ok(self) -> bool:
        return not self.errors

    def summary(self) -> str:
        return (
            f"gc {self.root} to <= {self.max_bytes} bytes: "
            f"{self.evicted}/{self.scanned} entries evicted "
            f"({self.evicted_bytes} bytes freed, {self.kept_bytes} kept), "
            f"{self.stranded} stranded file(s) removed, "
            f"{self.reaped_locks} stale lock(s) reaped"
            + (f", {len(self.errors)} error(s)" if self.errors else "")
        )


def gc_store(d: str | None = None, max_bytes: int = 0) -> GcReport:
    """Prune the disk tier down to a byte budget, oldest entries first.

    Long campaigns (percolation sweeps at dozens of fractions x trials)
    accrete entries without bound; this evicts least-recently-*written*
    entries (mtime order -- publishes are atomic renames, so mtime is
    the publish time) until the tier fits ``max_bytes``. Each unlink is
    taken under the entry's per-shard lock, so gc is safe to run beside
    active writers; evicted digests are dropped from the in-process
    memory tier too, so a later ``get`` recomputes instead of serving a
    value the disk no longer backs.

    Stranded entry files (at the store root, or in a shard directory
    that is not their home; see :func:`~repro.store.shards.
    iter_stranded_paths`) can never be served, so they are deleted
    whatever the budget and do not count against it. Afterwards every
    per-entry compute lock left behind by a killed compute is reaped.
    A lock a live compute holds fails the non-blocking acquire and is
    left alone.
    """
    d = d or store_dir()
    if d is None:
        raise ValueError("no store directory (pass one or set REPRO_STORE_DIR)")
    if max_bytes < 0:
        raise ValueError("max_bytes must be >= 0")
    report = GcReport(root=d, max_bytes=max_bytes)
    if not os.path.isdir(d):
        return report
    for path in list(_shards.iter_stranded_paths(d)):
        try:
            os.unlink(path)
        except FileNotFoundError:
            continue  # another gc got it
        except OSError as exc:
            report.errors.append(f"{path}: {exc}")
            continue
        report.stranded += 1
    entries: list[tuple[float, str, int, str]] = []  # (mtime, path, size, digest)
    for path in _shards.iter_entry_paths(d):
        m = _shards._ENTRY_RE.match(os.path.basename(path))
        try:
            st = os.stat(path)
        except OSError:
            continue  # raced with a concurrent gc/clear
        entries.append((st.st_mtime, path, st.st_size, m.group("digest")))
    entries.sort(key=lambda e: (e[0], e[1]))
    report.scanned = len(entries)
    report.total_bytes = sum(e[2] for e in entries)
    excess = report.total_bytes - max_bytes
    for mtime, path, size, digest in entries:
        if excess <= 0:
            break
        lock = _shards.FileLock(_shards.shard_lock_path(d, digest))
        lock.acquire()
        try:
            try:
                os.unlink(path)
            except FileNotFoundError:
                excess -= size  # another gc got it; budget-wise it is gone
                continue
            except OSError as exc:
                report.errors.append(f"{path}: {exc}")
                continue
        finally:
            lock.release()
        with _lock:
            _memory.pop(digest, None)
        report.evicted += 1
        report.evicted_bytes += size
        excess -= size
    report.kept_bytes = report.total_bytes - report.evicted_bytes
    for path in list(_shards.iter_stale_locks(d)):
        lock = _shards.FileLock(path)
        try:
            if not lock.acquire(blocking=False):
                continue  # a live compute holds it
        except OSError:
            continue
        lock.unlink_then_release()
        report.reaped_locks += 1
    return report


# ----------------------------------------------------------------------
# in-flight dedup scheduler
# ----------------------------------------------------------------------
def dedup_map(
    fn: Callable[[T], R],
    jobs: Iterable[T],
    workers: int | None = None,
    broadcast=None,
) -> list[R]:
    """Map ``fn`` over ``jobs`` running each *distinct* job exactly once.

    Jobs must be hashable and fully determine their result (the
    contract every store-backed point function already satisfies: equal
    args imply an equal run key). Distinct jobs keep first-appearance
    order and fan out through :func:`repro.util.parallel.parallel_map`;
    duplicates are filled in from the single computed result, so two
    identical points requested in one batch run once -- even with the
    store disabled or cold. ``broadcast`` is forwarded to
    ``parallel_map`` (shared-memory fan-out of large read-only arrays).
    """
    from repro.util.parallel import parallel_map

    jobs_list: Sequence[T] = list(jobs)
    index: dict[T, int] = {}
    unique: list[T] = []
    for job in jobs_list:
        if job not in index:
            index[job] = len(unique)
            unique.append(job)
    duplicates = len(jobs_list) - len(unique)
    if duplicates:
        with _lock:
            _stats.inflight_dedup += duplicates
        telemetry.count("store.inflight_dedup", duplicates)
    results = parallel_map(fn, unique, workers=workers, broadcast=broadcast)
    return [results[index[job]] for job in jobs_list]
