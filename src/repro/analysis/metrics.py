"""Graph metrics: diameter, average shortest path length, hop histograms.

These are the quantities of the paper's Figs. 7-8 ("Hops" vs network
size). When a caller passes an explicit dense distance matrix the
reductions here run directly over it -- as running sums/maxes and
row-blocked bincounts, never allocating a second n x n temporary.
Without one, every function routes through :func:`repro.cache.hop_stats`,
the single dispatch that picks the dense matrix or the blocked
streaming engine (:mod:`repro.analysis.blocked`) based on the cache's
byte budget (``repro.cache.MEMORY_BUDGET_BYTES``) -- so the same call
scales from the paper's n = 2048 sweeps to n >= 10^5 without an 8 GB
matrix. Both engines run the same bit-parallel BFS: the dense matrix
of :func:`shortest_path_matrix` is filled from its per-source distance
blocks, the streaming engine reduces its levels on the fly.

ASPL is computed as the exact integer hop total divided by the ordered
pair count, so the dense and streaming engines agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from repro.analysis.blocked import (
    default_block_rows,
    dense_histogram,
    dense_max_finite,
    padded_neighbors,
    source_distances,
)
from repro.topologies.base import Topology

__all__ = [
    "GraphMetrics",
    "shortest_path_matrix",
    "diameter",
    "average_shortest_path_length",
    "eccentricities",
    "hop_histogram",
    "analyze",
]


def shortest_path_matrix(topo: Topology) -> np.ndarray:
    """All-pairs hop-count matrix (float64, ``inf`` for disconnected pairs).

    Filled one source block at a time from the bit-parallel BFS
    (:func:`repro.analysis.blocked.source_distances`): the graph is
    undirected, so the distances from sources ``[s, e)`` are also
    columns ``s..e``. Besides the output, only one int-typed source
    block is live."""
    n = topo.n
    pad = padded_neighbors(topo)
    rows = default_block_rows(n)
    dist = np.empty((n, n))
    for s in range(0, n, rows):
        block = source_distances(pad, n, np.arange(s, min(s + rows, n)))
        cols = dist[:, s : s + block.shape[1]]
        cols[...] = block
        if block.min(initial=0) < 0:
            cols[block < 0] = np.inf
    return dist


def _hop_stats(topo: Topology):
    from repro import cache  # deferred: cache sits above this module

    return cache.hop_stats(topo)


def _check(dist: np.ndarray) -> int:
    """Connectivity/size check on a dense matrix; returns the diameter."""
    if dist.shape[0] < 2:
        raise ValueError("hop metrics need n >= 2 (no ordered pairs otherwise)")
    return dense_max_finite(dist)


def diameter(topo: Topology, dist: np.ndarray | None = None) -> int:
    """Maximum shortest-path hop count over all node pairs."""
    if dist is None:
        return _hop_stats(topo).diameter
    return _check(dist)


def average_shortest_path_length(topo: Topology, dist: np.ndarray | None = None) -> float:
    """Mean shortest-path hop count over all ordered pairs (s != t).

    Exact: the integer hop total over the ordered-pair count, with the
    all-zero diagonal contributing nothing to the sum."""
    if dist is None:
        return _hop_stats(topo).aspl
    _check(dist)
    n = dist.shape[0]
    return int(dist.sum(dtype=np.int64)) / (n * (n - 1))


def eccentricities(topo: Topology, dist: np.ndarray | None = None) -> np.ndarray:
    """Per-node eccentricity (max hop distance to any other node)."""
    if dist is None:
        return _hop_stats(topo).ecc
    _check(dist)
    return dist.max(axis=1).astype(np.int64)


def hop_histogram(topo: Topology, dist: np.ndarray | None = None) -> np.ndarray:
    """``hist[h]`` = number of ordered pairs at hop distance ``h``."""
    if dist is None:
        return _hop_stats(topo).hist
    return dense_histogram(dist, _check(dist))


@dataclass(frozen=True)
class GraphMetrics:
    """Summary of one topology, one row of the Fig. 7/8 sweeps."""

    name: str
    n: int
    num_links: int
    diameter: int
    aspl: float
    average_degree: float
    min_degree: int
    max_degree: int

    def row(self) -> list:
        return [
            self.name,
            self.n,
            self.num_links,
            self.diameter,
            round(self.aspl, 3),
            round(self.average_degree, 3),
            self.min_degree,
            self.max_degree,
        ]


def analyze(topo: Topology) -> GraphMetrics:
    """Compute the full metric summary for one topology.

    Hop statistics go through :func:`repro.cache.hop_stats`, so repeated
    analysis of the same topology (e.g. the Fig. 7 and Fig. 8 sweeps
    back to back) pays for one BFS pass -- dense or streaming, per the
    memory budget."""
    stats = _hop_stats(topo)
    return GraphMetrics(
        name=topo.name,
        n=topo.n,
        num_links=topo.num_links,
        diameter=stats.diameter,
        aspl=stats.aspl,
        average_degree=topo.average_degree,
        min_degree=topo.min_degree,
        max_degree=topo.max_degree,
    )
