"""Per-topology artifact cache: compute once, reuse everywhere.

Every figure of the paper is driven by the same handful of expensive
per-topology artifacts -- the all-pairs distance matrix, the minimal
next-hop table, the minimal-path-count matrix and the up*/down* escape
tables -- yet the seed code recomputed them independently at every call
site. This module memoizes them behind a stable *topology fingerprint*
(name, n, hash of the sorted edge list with link classes) in one
in-process LRU, shared by all call sites in ``routing/``, ``sim/``,
``experiments/`` and ``analysis/``. It holds at most
:data:`MEMORY_CAPACITY` entries within a byte budget of
:data:`MEMORY_BUDGET_BYTES`. Entries are live objects (tables with
their CSR next-hop arrays prebuilt), so there is no disk tier: results
that outlive the process belong in the run store (:mod:`repro.store`).

Distance matrices are held in int16 and converted to float64 only at
the consumer edge, quartering their resident size. Artifacts whose
size alone exceeds the byte budget are never admitted, and
:func:`hop_stats` -- the single dispatch behind
``analysis.metrics.analyze`` and the Fig. 7/8 drivers -- switches from
the dense matrix to the blocked streaming BFS engine
(:mod:`repro.analysis.blocked`) when the dense computation would not
fit the budget, so large-n sweeps degrade to O(n) memory instead of
failing.

Artifacts are derived deterministically from the topology, so a cache
hit returns bit-identical arrays to a fresh computation; the
determinism tests in ``tests/test_cache.py`` pin this. Hits, misses and
evictions are counted by the telemetry counters ``cache.memory.hits``,
``cache.misses`` and ``cache.evictions``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro import telemetry
from repro.topologies.base import Topology

__all__ = [
    "MEMORY_CAPACITY",
    "MEMORY_BUDGET_BYTES",
    "topology_fingerprint",
    "distance_matrix",
    "hop_stats",
    "dense_distance_allowed",
    "shortest_path_table",
    "path_count_matrix",
    "updown_routing",
    "memo_topology",
    "clear_cache",
]

#: Capacity (entries) of the in-process LRU.
MEMORY_CAPACITY = 128
#: Byte budget of the in-process LRU; also the dense-vs-streaming split
#: of :func:`hop_stats`.
MEMORY_BUDGET_BYTES = 1 << 30

_lock = threading.RLock()
_memory: OrderedDict[tuple, tuple[object, int]] = OrderedDict()  # key -> (value, bytes)
_memory_bytes = 0

_FP_ATTR = "_repro_fingerprint"


def dense_distance_allowed(n: int) -> bool:
    """Whether an n x n dense distance computation fits the byte budget.

    Gated on the float64 matrix
    :func:`repro.analysis.metrics.shortest_path_matrix` returns (8
    bytes/pair) -- the peak is that output plus one int16 source block
    of the BFS -- not on the int16 form the cache retains afterwards.
    """
    return n * n * 8 <= MEMORY_BUDGET_BYTES


def clear_cache() -> None:
    """Drop every memoized artifact."""
    global _memory_bytes
    with _lock:
        _memory.clear()
        _memory_bytes = 0


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
# LRU plumbing
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


def _peek(key: tuple):
    """Read an entry without touching LRU order or hit counters."""
    with _lock:
        entry = _memory.get(key)
        return None if entry is None else entry[0]


def _memory_put(key: tuple, value) -> None:
    global _memory_bytes
    nbytes = _approx_nbytes(value)
    with _lock:
        if nbytes > MEMORY_BUDGET_BYTES:
            # Admitting it would evict everything and still exceed the
            # budget; leave the tier as-is.
            return
        old = _memory.pop(key, None)
        if old is not None:
            _memory_bytes -= old[1]
        _memory[key] = (value, nbytes)
        _memory_bytes += nbytes
        while _memory and (len(_memory) > MEMORY_CAPACITY or _memory_bytes > MEMORY_BUDGET_BYTES):
            _, (_, evicted_bytes) = _memory.popitem(last=False)
            _memory_bytes -= evicted_bytes
            telemetry.count("cache.evictions")
        telemetry.gauge_set("cache.memory_bytes", float(_memory_bytes))
        telemetry.gauge_set("cache.memory_entries", float(len(_memory)))


def _get(key: tuple, compute: Callable[[], object]):
    """The memoized value of ``key``, computing and admitting it on a miss."""
    with _lock:
        entry = _memory.get(key)
        if entry is not None:
            _memory.move_to_end(key)
            telemetry.count("cache.memory.hits")
            return entry[0]
    telemetry.count("cache.misses")
    value = compute()
    _memory_put(key, value)
    return value


# ----------------------------------------------------------------------
# distance matrix
# ----------------------------------------------------------------------
def _pack_dist(dist: np.ndarray) -> dict:
    m = dist.max() if dist.size else 0.0
    if np.isfinite(m) and m < np.iinfo(np.int16).max:
        return {"dist_i16": dist.astype(np.int16)}
    return {"dist_f64": dist}


def _dist_packed(topo: Topology) -> dict:
    """The resident form: ``{"dist_i16": ...}`` for connected
    small-diameter graphs (the normal case), ``{"dist_f64": ...}``
    otherwise, so the entry is one quarter the float64 size."""
    from repro.analysis.metrics import shortest_path_matrix

    return _get((topology_fingerprint(topo), "dist"),
                lambda: _pack_dist(shortest_path_matrix(topo)))


def distance_matrix(topo: Topology) -> np.ndarray:
    """All-pairs hop-count matrix (float64, ``inf`` for disconnected
    pairs), identical to :func:`repro.analysis.metrics.shortest_path_matrix`.

    The cache holds the int16 packed form; the float64 conversion
    happens here, at the consumer edge, on every call."""
    packed = _dist_packed(topo)
    if "dist_i16" in packed:
        return packed["dist_i16"].astype(np.float64)
    return packed["dist_f64"]


# ----------------------------------------------------------------------
# hop statistics (the Fig. 7/8 dispatch: dense within budget, blocked
# streaming BFS above it)
# ----------------------------------------------------------------------
def hop_stats(topo: Topology, workers: int | None = None):
    """Exact :class:`repro.analysis.blocked.HopStats` for ``topo``.

    The single entry point behind ``analysis.metrics.analyze`` and the
    Fig. 7/8 experiment drivers. Dispatch order:

    1. a distance matrix already resident in the cache is reduced
       directly (no recompute, no float64 blow-up);
    2. within :func:`dense_distance_allowed`, the dense matrix is
       computed through :func:`distance_matrix` (memoizing it for other
       consumers) and reduced;
    3. otherwise the blocked streaming BFS engine runs, never
       allocating an n x n array.

    All three paths produce bit-identical statistics; the result itself
    (O(n) bytes) is memoized.
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

    return _get((fp, "hops"), compute)


# ----------------------------------------------------------------------
# minimal routing table (+ CSR next-hop arrays)
# ----------------------------------------------------------------------
def shortest_path_table(topo: Topology):
    """Shared :class:`repro.routing.table.ShortestPathTable` with its
    next-hop CSR table prebuilt."""
    from repro.routing.table import ShortestPathTable

    def compute():
        # Feed the packed (usually int16) form straight in: the table
        # casts to int32 anyway, so a float64 intermediate would be waste.
        packed = _dist_packed(topo)
        table = ShortestPathTable(topo, dist=packed.get("dist_i16", packed.get("dist_f64")))
        table.next_hop_arrays()
        return table

    return _get((topology_fingerprint(topo), "spt"), compute)


def path_count_matrix(topo: Topology) -> np.ndarray:
    """Minimal-path-count matrix (float64, exact integers)."""
    return _get((topology_fingerprint(topo), "pcm"),
                lambda: shortest_path_table(topo).path_count_matrix())


# ----------------------------------------------------------------------
# up*/down* escape tables (the acyclic escape CDG of Section VII-A)
# ----------------------------------------------------------------------
def updown_routing(topo: Topology, root: int | None = None):
    """Shared :class:`repro.routing.updown.UpDownRouting` instance."""
    from repro.routing.updown import UpDownRouting

    key = (topology_fingerprint(topo), "updown", -1 if root is None else int(root))
    return _get(key, lambda: UpDownRouting(topo, root=root))


# ----------------------------------------------------------------------
# topology memoization (recipe-keyed; objects are immutable)
# ----------------------------------------------------------------------
def memo_topology(recipe: tuple, builder: Callable[[], Topology]) -> Topology:
    """Memoize a deterministic topology construction by its recipe
    (e.g. ``(kind, n, seed)``). Returning the same object lets every
    artifact lookup above short-circuit on the fingerprint already
    stamped on it."""
    return _get(("topo",) + recipe, builder)
