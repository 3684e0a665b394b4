"""Blocked all-pairs hop-metric engine for large networks.

The dense metrics path materializes the full n x n distance matrix --
8 GB of float64 at n = 32768 -- which caps the Fig. 7-8 scaling sweeps
far below the sizes the paper's comparisons (and the related large-n
ASPL literature) care about. This module computes the same quantities
-- ASPL, diameter, per-node eccentricities and the hop histogram --
from multi-source BFS over source blocks, keeping only O(B * n / 8)
bytes of BFS state per block and never allocating an n x n array.

The kernel is *bit-parallel*: each uint64 word of the frontier/visited
state carries one bit per source of the block, so one vectorized pull
step (gather neighbor words, OR-reduce, mask off visited) advances up
to 64 sources at once. Per level the work is ``n * max_degree * W``
word operations (W = block_rows / 64) regardless of how many sources
the block holds, which is why wide blocks amortize so well on the
low-degree topologies this repo studies; per-level pair counts come
from ``np.bitwise_count`` so no distances are ever stored. The same
level loop also yields explicit distance blocks
(:func:`source_distances`) for the dense matrix and the design pass's
channel loads.

All accumulators are exact integers (Python ints / int64), so the
result is bit-identical to the dense path and independent of block
size and worker count -- the properties ``tests/test_blocked.py`` and
``tests/test_parallel.py`` pin. Source blocks are independent and
fan out through :func:`repro.util.parallel.parallel_map`
(``REPRO_WORKERS``).

Most callers should go through :func:`repro.cache.hop_stats`, which
picks the dense or streaming engine based on the cache's byte budget
(``repro.cache.MEMORY_BUDGET_BYTES``) and memoizes the (tiny) result.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.topologies.base import Topology
from repro.util import shm
from repro.util.parallel import parallel_map

__all__ = [
    "HopStats",
    "hop_stats_from_dense",
    "streaming_hop_stats",
    "default_block_rows",
    "block_hop_kernel",
    "source_distances",
    "padded_neighbors",
    "popcount_u64",
]

_DISCONNECTED_MSG = "topology is disconnected; hop metrics are undefined"

#: Default number of BFS sources per block (64 sources per uint64 lane).
_DEFAULT_BLOCK_ROWS = 2048

#: Broadcast name the block tasks read the padded neighbor table from.
_PAD_BROADCAST = "bfs.pad"

if hasattr(np, "bitwise_count"):
    def popcount_u64(a: np.ndarray) -> np.ndarray:
        """Per-element set-bit counts of a uint64 array."""
        return np.bitwise_count(a)

    def _popcount_sum(a: np.ndarray) -> int:
        """Total set bits of a uint64 array."""
        return int(np.bitwise_count(a).sum(dtype=np.int64))
else:  # numpy < 2.0: 16-bit lookup table
    _POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)

    def popcount_u64(a: np.ndarray) -> np.ndarray:
        """Per-element set-bit counts of a uint64 array."""
        lanes = np.ascontiguousarray(a).view(np.uint16).reshape(a.shape + (4,))
        return _POP16[lanes].sum(axis=-1, dtype=np.int64)

    def _popcount_sum(a: np.ndarray) -> int:
        """Total set bits of a uint64 array."""
        return int(_POP16[np.ascontiguousarray(a).view(np.uint16)].sum(dtype=np.int64))


@dataclass(frozen=True, eq=False)
class HopStats:
    """Exact all-pairs hop statistics of one connected topology.

    ``total_hops`` is the integer sum of shortest-path lengths over all
    ordered pairs; ``aspl`` is always ``total_hops / (n * (n - 1))`` so
    every engine (dense, streaming, cache rehydration) produces the
    same float. ``hist[h]`` counts ordered pairs at distance ``h``
    (``hist[0] == 0``); ``ecc[v]`` is node ``v``'s eccentricity.
    """

    n: int
    diameter: int
    total_hops: int
    aspl: float
    ecc: np.ndarray = field(repr=False)
    hist: np.ndarray = field(repr=False)

    def same_as(self, other: "HopStats") -> bool:
        """Exact (bit-level) equality of every statistic."""
        return (
            self.n == other.n
            and self.diameter == other.diameter
            and self.total_hops == other.total_hops
            and self.aspl == other.aspl
            and np.array_equal(self.ecc, other.ecc)
            and np.array_equal(self.hist, other.hist)
        )


def _aspl(total_hops: int, n: int) -> float:
    return total_hops / (n * (n - 1))


def _require_small_n(n: int) -> None:
    if n < 2:
        raise ValueError("hop metrics need n >= 2 (no ordered pairs otherwise)")


# ----------------------------------------------------------------------
# dense reductions (shared with analysis.metrics; no n^2 temporaries)
# ----------------------------------------------------------------------
def dense_max_finite(dist: np.ndarray) -> int:
    """Max entry of a distance matrix, raising on inf (disconnected)."""
    m = dist.max()
    if not np.isfinite(m):
        raise ValueError(_DISCONNECTED_MSG)
    return int(m)


def dense_histogram(dist: np.ndarray, diameter: int) -> np.ndarray:
    """Ordered-pair hop histogram from a dense matrix, by row blocks.

    Only a row-chunk-sized integer copy is live at a time (none at all
    when ``dist`` is already an integer matrix)."""
    n = dist.shape[0]
    hist = np.zeros(diameter + 1, dtype=np.int64)
    step = max(1, (1 << 22) // n)
    integral = np.issubdtype(dist.dtype, np.integer)
    for i in range(0, n, step):
        chunk = dist[i : i + step]
        if not integral:
            chunk = chunk.astype(np.int64)
        hist += np.bincount(chunk.ravel(), minlength=diameter + 1)
    hist[0] -= n  # the diagonal's self-pairs
    return hist


def hop_stats_from_dense(dist: np.ndarray) -> HopStats:
    """Exact :class:`HopStats` from a dense all-pairs matrix.

    Accepts the float64 :func:`repro.analysis.metrics.shortest_path_matrix`
    output or the cache's int16 form; all
    reductions are running (sum / max / blocked bincount), so no second
    n x n array is allocated."""
    n = dist.shape[0]
    _require_small_n(n)
    diam = dense_max_finite(dist)
    total = int(dist.sum(dtype=np.int64))
    ecc = dist.max(axis=1).astype(np.int64)
    hist = dense_histogram(dist, diam)
    return HopStats(
        n=n, diameter=diam, total_hops=total, aspl=_aspl(total, n), ecc=ecc, hist=hist
    )


# ----------------------------------------------------------------------
# bit-parallel blocked BFS
# ----------------------------------------------------------------------
def default_block_rows(n: int) -> int:
    """Sources per block: ``REPRO_BFS_BLOCK`` or 2048, clamped to n.

    A set value that is not a positive integer is a ``ValueError``
    naming it (a zero or negative value would otherwise mean one-source
    blocks, a silent slowdown)."""
    raw = os.environ.get("REPRO_BFS_BLOCK", "").strip()
    if not raw:
        return max(1, min(n, _DEFAULT_BLOCK_ROWS))
    try:
        rows = int(raw)
    except ValueError:
        rows = 0
    if rows < 1:
        raise ValueError(f"REPRO_BFS_BLOCK must be a positive integer, got {raw!r}")
    return max(1, min(n, rows))


def padded_neighbors(topo: Topology) -> np.ndarray:
    """Neighbor table as an (n, max_degree) int32 array, padded with n.

    The pad value indexes the kernel's sentinel frontier row (always
    zero), so padded slots are no-ops in the OR-reduce."""
    adj = topo.adjacency_csr
    n = topo.n
    indptr = adj.indptr.astype(np.int64)
    deg = np.diff(indptr)
    maxdeg = int(deg.max()) if n else 0
    pad = np.full((n, maxdeg), n, dtype=np.int32)
    starts = indptr[:-1]
    for k in range(maxdeg):
        sel = deg > k
        pad[sel, k] = adj.indices[starts[sel] + k]
    return pad


def _seed_block(n: int, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Initial ``(frontier, visited)`` words of one source block: bit
    ``j % 64`` of word ``j // 64`` is set on source ``j``'s own row.

    Row n of the frontier is the pad sentinel: always zero, so padded
    neighbor slots contribute nothing to the OR-reduce."""
    b = len(sources)
    w = (b + 63) // 64
    frontier = np.zeros((n + 1, w), dtype=np.uint64)
    visited = np.zeros((n, w), dtype=np.uint64)
    loc = np.arange(b)
    bits = np.uint64(1) << (loc % 64).astype(np.uint64)
    frontier[sources, loc // 64] = bits
    visited[sources, loc // 64] = bits
    return frontier, visited


def _levels(pad: np.ndarray, frontier: np.ndarray, visited: np.ndarray):
    """The BFS level loop: yield ``(level, new)`` per level.

    ``new`` holds the (node, source) bits first reached at ``level``.
    It is a view of the frontier, overwritten by the next level, so
    consumers read it before resuming the loop. ``visited`` and
    ``frontier`` are updated in place; the loop stops at the first
    level that reaches nothing new.
    """
    n, w = visited.shape
    cols = [np.ascontiguousarray(pad[:, k]) for k in range(pad.shape[1])]
    if not cols:
        return
    unvisited = np.empty((n, w), dtype=np.uint64)
    new = frontier[:n]
    level = 0
    while True:
        level += 1
        # Pull step: a node's next-frontier word is the OR of its
        # neighbors' current-frontier words, one neighbor slot at a time.
        nxt = frontier[cols[0]]
        for col in cols[1:]:
            nxt |= frontier[col]
        np.invert(visited, out=unvisited)
        np.bitwise_and(nxt, unvisited, out=new)
        if not new.any():
            return
        visited |= new
        yield level, new


def block_hop_kernel(
    pad: np.ndarray, n: int, start: int, stop: int
) -> tuple[int, np.ndarray, np.ndarray, int]:
    """Bit-parallel BFS of one source block over a padded neighbor table.

    Returns ``(total_hops, per-level pair counts, eccentricities of the
    block's sources, number of (source, node) pairs reached incl. the
    sources themselves)``. Pure: no telemetry, no broadcast lookup --
    the percolation engine reuses it on survivor tables directly.
    """
    b = stop - start
    frontier, visited = _seed_block(n, np.arange(start, stop))
    one = np.uint64(1)
    shifts = np.arange(64, dtype=np.uint64)
    ecc = np.zeros(b, dtype=np.int64)
    counts = [0]  # level 0: sources themselves, not ordered pairs
    total = 0
    for level, new in _levels(pad, frontier, visited):
        cnt = _popcount_sum(new)
        total += level * cnt
        counts.append(cnt)
        anyw = np.bitwise_or.reduce(new, axis=0)
        has_new = ((anyw[:, None] >> shifts) & one).astype(bool).ravel()[:b]
        ecc[has_new] = level
    reached = _popcount_sum(visited)
    return total, np.asarray(counts, dtype=np.int64), ecc, reached


def _unpack_bits(words: np.ndarray, b: int) -> np.ndarray:
    """(n, W) uint64 bit words -> (n, b) uint8 0/1, column j = bit j."""
    raw = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw, axis=1, count=b, bitorder="little")


def source_distances(pad: np.ndarray, n: int, sources) -> np.ndarray:
    """Hop distances from each of ``sources`` to every node, by the
    bit-parallel BFS of :func:`block_hop_kernel`.

    Returns an ``(n, len(sources))`` array whose column ``j`` holds the
    distances from ``sources[j]``, with -1 for unreached nodes. Each
    level's new bits are ORed into binary bit planes (plane ``k`` holds
    bit ``k`` of the level, so about log2(diameter) of them) and the
    planes are unpacked once at the end. The dtype is int16 unless the
    deepest level needs more than 15 bits (then int32).
    """
    sources = np.asarray(sources, dtype=np.int64)
    b = len(sources)
    frontier, visited = _seed_block(n, sources)
    planes: list[np.ndarray] = []
    for level, new in _levels(pad, frontier, visited):
        if level >> len(planes):
            planes.append(np.zeros_like(visited))
        for k in range(len(planes)):
            if (level >> k) & 1:
                planes[k] |= new
    dtype = np.int16 if len(planes) < 16 else np.int32
    dist = np.zeros((n, b), dtype=dtype)
    for k, plane in enumerate(planes):
        bits = _unpack_bits(plane, b).astype(dtype)
        bits <<= k
        dist |= bits
    if _popcount_sum(visited) != n * b:
        dist[_unpack_bits(visited, b) == 0] = -1
    return dist


def _block_hop_partial(args: tuple) -> tuple[int, np.ndarray, np.ndarray, int]:
    """BFS one source block; module-level for process-pool pickling.

    ``args`` is ``(n, start, stop)``: the padded neighbor table arrives
    out-of-band as the ``bfs.pad`` broadcast array (shared memory on
    the pool path), not in the task tuple.
    """
    n, start, stop = args
    t0 = time.perf_counter()
    pad = shm.get(_PAD_BROADCAST)
    out = block_hop_kernel(pad, n, start, stop)
    telemetry.count("bfs.blocks")
    telemetry.count("bfs.pairs_reached", out[3])
    telemetry.observe("bfs.block_s", time.perf_counter() - t0)
    return out


def streaming_hop_stats(
    topo: Topology,
    block_rows: int | None = None,
    workers: int | None = None,
) -> HopStats:
    """All-pairs hop statistics without materializing the n x n matrix.

    Runs the bit-parallel BFS kernel over source blocks of
    ``block_rows`` rows (default :func:`default_block_rows`), optionally
    fanned out over ``workers`` processes via ``parallel_map``. The
    result is bit-identical to :func:`hop_stats_from_dense` on the
    dense matrix, for every block size and worker count.
    """
    n = topo.n
    _require_small_n(n)
    pad = padded_neighbors(topo)
    rows = default_block_rows(n) if block_rows is None else max(1, min(n, int(block_rows)))
    blocks = [(n, s, min(s + rows, n)) for s in range(0, n, rows)]
    t0 = time.perf_counter()
    with telemetry.span("analysis.streaming_hop_stats"):
        parts = parallel_map(
            _block_hop_partial,
            blocks,
            workers=workers,
            broadcast={_PAD_BROADCAST: pad},
        )
    wall = time.perf_counter() - t0
    if wall > 0:
        # Block throughput: (source, node) pairs settled per second.
        telemetry.gauge_set("bfs.pairs_per_s", sum(p[3] for p in parts) / wall)

    if sum(p[3] for p in parts) != n * n:
        raise ValueError(_DISCONNECTED_MSG)
    total = sum(p[0] for p in parts)
    depth = max(len(p[1]) for p in parts)
    hist = np.zeros(depth, dtype=np.int64)
    for p in parts:
        hist[: len(p[1])] += p[1]
    ecc = np.concatenate([p[2] for p in parts])
    return HopStats(
        n=n,
        diameter=depth - 1,
        total_hops=total,
        aspl=_aspl(total, n),
        ecc=ecc,
        hist=hist,
    )
