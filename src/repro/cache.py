"""Per-topology artifact cache: compute once, reuse everywhere.

Every figure of the paper is driven by the same handful of expensive
per-topology artifacts -- the all-pairs distance matrix, the minimal
next-hop table, the minimal-path-count matrix and the up*/down* escape
tables -- yet the seed code recomputed them independently at every call
site. This module memoizes them behind a stable *topology fingerprint*
(name, n, hash of the sorted edge list with link classes), with two
tiers:

* an in-process LRU (always on; capacity ``REPRO_CACHE_MEM`` entries,
  default 128, bounded to a byte budget of ``REPRO_CACHE_MEM_MB``
  megabytes, default 1024), shared by all call sites in ``routing/``,
  ``sim/``, ``experiments/`` and ``analysis/``;
* an optional on-disk ``.npz`` tier enabled by setting
  ``REPRO_CACHE_DIR`` -- this is what lets ``parallel_map`` worker
  processes and repeated CLI invocations share one precomputation.

Distance matrices are held in memory in int16 (like the disk tier) and
converted to float64 only at the consumer edge, quartering their
resident size. Artifacts whose size alone exceeds the byte budget are
never admitted to the memory tier, and :func:`hop_stats` -- the single
dispatch behind ``analysis.metrics.analyze`` and the Fig. 7/8 drivers
-- switches from the dense matrix to the blocked streaming BFS engine
(:mod:`repro.analysis.blocked`) when the dense computation would not
fit the budget, so large-n sweeps degrade to O(n) memory instead of
failing.

Set ``REPRO_CACHE=off`` to bypass both tiers (the seed behaviour).
Artifacts are derived deterministically from the topology, so a cache
hit returns bit-identical arrays to a fresh computation; the
determinism tests in ``tests/test_cache.py`` pin this.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import telemetry
from repro.topologies.base import Topology

__all__ = [
    "CacheStats",
    "topology_fingerprint",
    "distance_matrix",
    "hop_stats",
    "dense_distance_allowed",
    "memory_budget_bytes",
    "shortest_path_table",
    "path_count_matrix",
    "updown_routing",
    "memo_topology",
    "cache_enabled",
    "cache_stats",
    "reset_cache_stats",
    "clear_cache",
]


@dataclass
class CacheStats:
    """Hit/miss accounting for both cache tiers."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    disk_stores: int = 0
    evictions: int = 0

    def copy(self) -> "CacheStats":
        return CacheStats(
            self.memory_hits, self.disk_hits, self.misses, self.disk_stores, self.evictions
        )


_stats = CacheStats()
_lock = threading.RLock()
_memory: OrderedDict[tuple, tuple[object, int]] = OrderedDict()  # key -> (value, bytes)
_memory_bytes = 0

_FP_ATTR = "_repro_fingerprint"


# ----------------------------------------------------------------------
# configuration (read from the environment at call time so tests and the
# benchmarks can toggle tiers without reimporting)
# ----------------------------------------------------------------------
def cache_enabled() -> bool:
    """False when ``REPRO_CACHE`` is set to ``off``/``0``/``false``."""
    return os.environ.get("REPRO_CACHE", "on").strip().lower() not in ("off", "0", "false")


def _cache_dir() -> str | None:
    d = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return d or None


def _memory_capacity() -> int:
    try:
        return max(1, int(os.environ.get("REPRO_CACHE_MEM", "128")))
    except ValueError:
        return 128


def memory_budget_bytes() -> int:
    """Byte budget of the in-process tier (``REPRO_CACHE_MEM_MB``, MB).

    Also gates the dense-vs-streaming dispatch of :func:`hop_stats`.
    Values <= 0 (or unparsable) fall back to the 1024 MB default.
    """
    try:
        mb = int(os.environ.get("REPRO_CACHE_MEM_MB", "1024"))
    except ValueError:
        mb = 1024
    if mb <= 0:
        mb = 1024
    return mb * (1 << 20)


def dense_distance_allowed(n: int) -> bool:
    """Whether an n x n dense distance computation fits the byte budget.

    Gated on the float64 matrix :func:`scipy.sparse.csgraph.shortest_path`
    materializes while computing (8 bytes/pair) -- the true peak -- not
    on the int16 form the cache retains afterwards.
    """
    return n * n * 8 <= memory_budget_bytes()


def cache_stats() -> CacheStats:
    """Snapshot of the counters (monotonic since process start/reset)."""
    with _lock:
        return _stats.copy()


def reset_cache_stats() -> None:
    with _lock:
        _stats.__init__()


def clear_cache(disk: bool = False) -> None:
    """Drop the in-process tier (and optionally the disk tier)."""
    global _memory_bytes
    with _lock:
        _memory.clear()
        _memory_bytes = 0
    if disk:
        d = _cache_dir()
        if d and os.path.isdir(d):
            for name in os.listdir(d):
                if name.endswith(".npz"):
                    os.unlink(os.path.join(d, name))


# ----------------------------------------------------------------------
# fingerprint
# ----------------------------------------------------------------------
def topology_fingerprint(topo: Topology) -> str:
    """Stable identity of a topology: name, n, sorted edge+class hash.

    Two independently built topologies with the same construction
    parameters (and seed, for random families) fingerprint identically;
    the digest is cached on the (immutable) topology object.
    """
    fp = getattr(topo, _FP_ATTR, None)
    if fp is not None:
        return fp
    h = hashlib.sha256()
    h.update(topo.name.encode())
    h.update(str(topo.n).encode())
    edges = np.array([(l.u, l.v) for l in topo.links], dtype=np.int64)
    h.update(edges.tobytes())
    h.update("|".join(l.cls.value for l in topo.links).encode())
    fp = h.hexdigest()[:32]
    try:
        setattr(topo, _FP_ATTR, fp)
    except AttributeError:  # __slots__ subclass; just recompute next time
        pass
    return fp


# ----------------------------------------------------------------------
# tier plumbing
# ----------------------------------------------------------------------
def _approx_nbytes(value, depth: int = 0) -> int:
    """Estimate an entry's resident size (arrays it holds, one level deep)."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if depth >= 2:
        return 256
    if isinstance(value, dict):
        return 256 + sum(_approx_nbytes(v, depth + 1) for v in value.values())
    if isinstance(value, (tuple, list)):
        return 256 + sum(_approx_nbytes(v, depth + 1) for v in value)
    inner = getattr(value, "__dict__", None)
    if inner:
        return 256 + sum(_approx_nbytes(v, depth + 1) for v in inner.values())
    return 256


def _memory_get(key: tuple):
    with _lock:
        entry = _memory.get(key)
        if entry is not None:
            _memory.move_to_end(key)
            _stats.memory_hits += 1
            telemetry.count("cache.memory.hits")
            return entry[0]
    return None


def _peek(key: tuple):
    """Read an entry without touching LRU order or hit counters."""
    with _lock:
        entry = _memory.get(key)
        return None if entry is None else entry[0]


def _memory_put(key: tuple, value) -> None:
    global _memory_bytes
    nbytes = _approx_nbytes(value)
    budget = memory_budget_bytes()
    with _lock:
        if nbytes > budget:
            # Admitting it would evict everything and still exceed the
            # budget; leave the tier as-is.
            return
        old = _memory.pop(key, None)
        if old is not None:
            _memory_bytes -= old[1]
        _memory[key] = (value, nbytes)
        _memory_bytes += nbytes
        cap = _memory_capacity()
        while _memory and (len(_memory) > cap or _memory_bytes > budget):
            _, (_, evicted_bytes) = _memory.popitem(last=False)
            _memory_bytes -= evicted_bytes
            _stats.evictions += 1
            telemetry.count("cache.evictions")
        telemetry.gauge_set("cache.memory_bytes", float(_memory_bytes))
        telemetry.gauge_set("cache.memory_entries", float(len(_memory)))


def _disk_load(stem: str) -> dict | None:
    d = _cache_dir()
    if d is None:
        return None
    path = os.path.join(d, stem + ".npz")
    if not os.path.exists(path):
        return None
    try:
        with np.load(path) as z:
            return {k: z[k] for k in z.files}
    except (OSError, ValueError):  # truncated/corrupt entry: recompute
        return None


def _disk_store(stem: str, arrays: dict) -> None:
    d = _cache_dir()
    if d is None:
        return
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, os.path.join(d, stem + ".npz"))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        with _lock:
            _stats.disk_stores += 1
        telemetry.count("cache.disk.stores")
    except OSError:  # read-only/full disk: caching stays best-effort
        pass


def _get(
    key: tuple,
    stem: str | None,
    compute: Callable[[], object],
    pack: Callable[[object], dict] | None = None,
    unpack: Callable[[dict], object] | None = None,
):
    """Memory -> disk -> compute (then backfill both tiers)."""
    if not cache_enabled():
        return compute()
    value = _memory_get(key)
    if value is not None:
        return value
    if stem is not None and unpack is not None:
        raw = _disk_load(stem)
        if raw is not None:
            value = unpack(raw)
            with _lock:
                _stats.disk_hits += 1
            telemetry.count("cache.disk.hits")
            _memory_put(key, value)
            return value
    with _lock:
        _stats.misses += 1
    telemetry.count("cache.misses")
    value = compute()
    _memory_put(key, value)
    if stem is not None and pack is not None:
        _disk_store(stem, pack(value))
    return value


# ----------------------------------------------------------------------
# distance matrix
# ----------------------------------------------------------------------
def _pack_dist(dist: np.ndarray) -> dict:
    m = dist.max() if dist.size else 0.0
    if np.isfinite(m) and m < np.iinfo(np.int16).max:
        return {"dist_i16": dist.astype(np.int16)}
    return {"dist_f64": dist}


def _unpack_dist(raw: dict) -> np.ndarray:
    if "dist_i16" in raw:
        return raw["dist_i16"].astype(np.float64)
    return raw["dist_f64"]


def _dist_packed(topo: Topology) -> dict:
    """The cached packed form: ``{"dist_i16": ...}`` for connected
    small-diameter graphs (the normal case), ``{"dist_f64": ...}``
    otherwise. Both tiers store this form, so the resident entry is
    one quarter the float64 size."""
    from repro.analysis.metrics import shortest_path_matrix

    fp = topology_fingerprint(topo)
    return _get(
        (fp, "dist"),
        f"{fp}-dist",
        lambda: _pack_dist(shortest_path_matrix(topo)),
        pack=lambda packed: packed,
        unpack=lambda raw: raw,
    )


def distance_matrix(topo: Topology) -> np.ndarray:
    """All-pairs hop-count matrix (float64, ``inf`` for disconnected
    pairs), identical to :func:`repro.analysis.metrics.shortest_path_matrix`.

    The cache holds the int16 packed form; the float64 conversion
    happens here, at the consumer edge, on every call."""
    return _unpack_dist(_dist_packed(topo))


# ----------------------------------------------------------------------
# hop statistics (the Fig. 7/8 dispatch: dense within budget, blocked
# streaming BFS above it)
# ----------------------------------------------------------------------
def hop_stats(topo: Topology, workers: int | None = None):
    """Exact :class:`repro.analysis.blocked.HopStats` for ``topo``.

    The single entry point behind ``analysis.metrics.analyze`` and the
    Fig. 7/8 experiment drivers. Dispatch order:

    1. a distance matrix already resident in the memory tier is reduced
       directly (no recompute, no float64 blow-up);
    2. within :func:`dense_distance_allowed`, the dense matrix is
       computed through :func:`distance_matrix` (populating both cache
       tiers for other consumers) and reduced;
    3. otherwise the blocked streaming BFS engine runs, never
       allocating an n x n array.

    All three paths produce bit-identical statistics; the result itself
    (O(n) bytes) is memoized in both tiers.
    """
    from repro.analysis import blocked

    fp = topology_fingerprint(topo)

    def compute():
        packed = _peek((fp, "dist"))
        if packed is not None:
            raw = packed.get("dist_i16", packed.get("dist_f64"))
            return blocked.hop_stats_from_dense(raw)
        if dense_distance_allowed(topo.n):
            return blocked.hop_stats_from_dense(distance_matrix(topo))
        return blocked.streaming_hop_stats(topo, workers=workers)

    def pack(hs) -> dict:
        return {
            "total_hops": np.asarray(hs.total_hops, dtype=np.int64),
            "ecc": hs.ecc.astype(np.int32),
            "hist": hs.hist,
        }

    def unpack(raw: dict):
        total = int(raw["total_hops"])
        hist = raw["hist"].astype(np.int64)
        n = len(raw["ecc"])
        return blocked.HopStats(
            n=n,
            diameter=len(hist) - 1,
            total_hops=total,
            aspl=total / (n * (n - 1)),
            ecc=raw["ecc"].astype(np.int64),
            hist=hist,
        )

    return _get((fp, "hops"), f"{fp}-hops", compute, pack=pack, unpack=unpack)


# ----------------------------------------------------------------------
# minimal routing table (+ CSR next-hop arrays)
# ----------------------------------------------------------------------
def shortest_path_table(topo: Topology):
    """Shared :class:`repro.routing.table.ShortestPathTable` with its
    next-hop CSR table prebuilt (and disk-cached)."""
    from repro.routing.table import ShortestPathTable

    fp = topology_fingerprint(topo)
    key = (fp, "spt")
    table = _memory_get(key)
    if table is not None:
        return table

    # Feed the packed (usually int16) form straight in: the table casts
    # to int32 anyway, so the float64 intermediate would be pure waste.
    packed = _dist_packed(topo)
    table = ShortestPathTable(topo, dist=packed.get("dist_i16", packed.get("dist_f64")))
    nh = _get(
        (fp, "nh"),
        f"{fp}-nexthop",
        lambda: table.next_hop_arrays(),
        pack=lambda v: {"indptr": v[0], "indices": v[1]},
        unpack=lambda raw: (raw["indptr"], raw["indices"]),
    )
    table.set_next_hop_arrays(*nh)
    if cache_enabled():
        _memory_put(key, table)
    return table


def path_count_matrix(topo: Topology) -> np.ndarray:
    """Minimal-path-count matrix (float64, exact integers)."""
    fp = topology_fingerprint(topo)
    return _get(
        (fp, "pcm"),
        f"{fp}-pathcount",
        lambda: shortest_path_table(topo).path_count_matrix(),
        pack=lambda v: {"counts": v},
        unpack=lambda raw: raw["counts"],
    )


# ----------------------------------------------------------------------
# up*/down* escape tables (the acyclic escape CDG of Section VII-A)
# ----------------------------------------------------------------------
def updown_routing(topo: Topology, root: int | None = None):
    """Shared :class:`repro.routing.updown.UpDownRouting` instance."""
    from repro.routing.updown import UpDownRouting

    fp = topology_fingerprint(topo)
    key = (fp, "updown", -1 if root is None else int(root))

    def compute():
        return UpDownRouting(topo, root=root)

    def pack(ud) -> dict:
        return {
            "root": np.int64(ud.root),
            "depth": ud._depth.astype(np.int32),
            "next_node": ud._next_node.astype(np.int32),
            "next_phase": ud._next_phase.astype(np.int8),
            "dist": ud._dist.astype(np.int32),
        }

    def unpack(raw: dict):
        return UpDownRouting._restore(
            topo,
            int(raw["root"]),
            raw["depth"].astype(np.int64),
            raw["next_node"].astype(np.int32),
            raw["next_phase"].astype(np.int8),
            raw["dist"].astype(np.int32),
        )

    stem = f"{fp}-updown{'' if root is None else root}"
    return _get(key, stem, compute, pack=pack, unpack=unpack)


# ----------------------------------------------------------------------
# in-process topology memoization (recipe-keyed; objects are immutable)
# ----------------------------------------------------------------------
def memo_topology(recipe: tuple, builder: Callable[[], Topology]) -> Topology:
    """Memoize a deterministic topology construction by its recipe
    (e.g. ``(kind, n, seed)``). In-process only: rebuilding from a
    recipe is cheap relative to the artifacts, and returning the same
    object lets every artifact lookup above short-circuit on the
    fingerprint already stamped on it."""
    if not cache_enabled():
        return builder()
    key = ("topo",) + recipe
    topo = _memory_get(key)
    if topo is None:
        with _lock:
            _stats.misses += 1
        telemetry.count("cache.misses")
        topo = builder()
        _memory_put(key, topo)
    return topo
