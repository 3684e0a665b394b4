"""All-pairs minimal routing tables.

``ShortestPathTable`` precomputes, for every (node, destination) pair,
the set of neighbors that lie on a minimal path -- the candidate set
the Duato-style adaptive routing draws from, and the "ideal minimal
routing" baseline of the balance analysis. Distances come from the
bit-parallel BFS of :func:`repro.analysis.metrics.shortest_path_matrix`
(no per-pair Python search); the minimal
next-hop sets are materialized once into a CSR-style int32 array (one
vectorized pass over ``dist`` and the adjacency structure), so the
per-packet lookups on the simulator hot path are plain array slices.

Tables are expensive to build and immutable once built -- prefer
:func:`repro.cache.shortest_path_table` over constructing one directly
when the same topology is analyzed or simulated more than once.
"""

from __future__ import annotations

import time

import numpy as np

from repro import telemetry
from repro.analysis.metrics import shortest_path_matrix
from repro.topologies.base import Topology
from repro.util import make_rng

__all__ = ["ShortestPathTable", "build_next_hop_csr"]


def build_next_hop_csr(topo: Topology, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimal next-hop sets for all ordered pairs, as one CSR table.

    Returns ``(indptr, indices)``: the minimal next hops of pair
    ``(u, t)`` are ``indices[indptr[u * n + t] : indptr[u * n + t + 1]]``
    (int32, ascending). Built with one vectorized comparison over all
    directed edges x destinations instead of a per-pair Python scan.
    """
    n = topo.n
    adj = topo.adjacency_csr
    degs = np.diff(adj.indptr)
    rows = np.repeat(np.arange(n, dtype=np.int32), degs)
    cols = adj.indices.astype(np.int32, copy=False)

    # ok[e, t]: edge e = (rows[e] -> cols[e]) is a minimal step toward t.
    ok = dist[cols, :] == dist[rows, :] - 1

    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, rows, ok)
    indptr = np.zeros(n * n + 1, dtype=np.int64)
    np.cumsum(counts.ravel(), out=indptr[1:])

    # indices ordered by (u, t, neighbor); neighbors stay ascending
    # because adjacency rows are sorted.
    parts = []
    for u in range(n):
        s, e = adj.indptr[u], adj.indptr[u + 1]
        sel = ok[s:e, :].T  # (n, deg)
        parts.append(np.broadcast_to(cols[s:e], sel.shape)[sel])
    indices = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int32)
    return indptr, np.ascontiguousarray(indices, dtype=np.int32)


class ShortestPathTable:
    """Minimal next-hop sets for every ordered pair of a topology."""

    def __init__(self, topo: Topology, dist: np.ndarray | None = None):
        self.topo = topo
        if dist is None:
            dist = shortest_path_matrix(topo)
        self.dist = np.asarray(dist).astype(np.int32, copy=False)
        self._nh_indptr: np.ndarray | None = None
        self._nh_indices: np.ndarray | None = None

    # ------------------------------------------------------------------
    # next-hop table (built lazily)
    # ------------------------------------------------------------------
    def _ensure_next_hops(self) -> None:
        if self._nh_indptr is None:
            t0 = time.perf_counter()
            self._nh_indptr, self._nh_indices = build_next_hop_csr(self.topo, self.dist)
            telemetry.observe("routing.next_hop_build_s", time.perf_counter() - t0)
            telemetry.count("routing.next_hop_builds")
            telemetry.gauge_set(
                "routing.next_hop_csr_bytes",
                float(self._nh_indptr.nbytes + self._nh_indices.nbytes),
            )
            telemetry.gauge_set("routing.next_hop_entries", float(len(self._nh_indices)))

    def next_hop_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The raw ``(indptr, indices)`` CSR next-hop table."""
        self._ensure_next_hops()
        return self._nh_indptr, self._nh_indices

    # ------------------------------------------------------------------
    def distance(self, s: int, t: int) -> int:
        return int(self.dist[s, t])

    def next_hops_array(self, u: int, t: int) -> np.ndarray:
        """Neighbors of ``u`` on a minimal path to ``t`` (int32 view,
        ascending; empty when ``u == t``). The hot-path lookup."""
        self._ensure_next_hops()
        base = u * self.topo.n + t
        return self._nh_indices[self._nh_indptr[base] : self._nh_indptr[base + 1]]

    def next_hops(self, u: int, t: int) -> list[int]:
        """Neighbors of ``u`` on a minimal path to ``t`` (sorted)."""
        if u == t:
            return []
        return self.next_hops_array(u, t).tolist()

    def path(self, s: int, t: int, seed: int | None = None) -> list[int]:
        """One minimal path; deterministic lowest-id tie-break by default,
        or a uniform random choice among minimal next hops if ``seed``
        is given (used to spread load in the balance analysis)."""
        self._ensure_next_hops()
        rng = make_rng(seed) if seed is not None else None
        n = self.topo.n
        indptr, indices = self._nh_indptr, self._nh_indices
        path = [s]
        u = s
        while u != t:
            lo, hi = indptr[u * n + t], indptr[u * n + t + 1]
            u = int(indices[lo + rng.integers(hi - lo)]) if rng is not None else int(indices[lo])
            path.append(u)
        return path

    def path_count_matrix(self) -> np.ndarray:
        """Number of distinct minimal paths for every ordered pair.

        Path diversity is one of the small-world selling points the
        paper mentions ("short routes ... are abundantly provided").
        Computed by dynamic programming over increasing distance, with
        each distance round batched over all directed edges at once.
        """
        n = self.topo.n
        adj = self.topo.adjacency_csr
        rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(adj.indptr))
        cols = adj.indices.astype(np.int32, copy=False)
        dist = self.dist
        counts = np.zeros((n, n), dtype=np.float64)
        np.fill_diagonal(counts, 1.0)
        maxd = int(dist.max())
        for d in range(1, maxd + 1):
            # Pairs finalized this round read only round d-1 values, so
            # the batched scatter-add equals the sequential DP exactly.
            onpath = (dist[rows, :] == d) & (dist[cols, :] == d - 1)
            np.add.at(counts, rows, np.where(onpath, counts[cols, :], 0.0))
        return counts
