"""Up*/down* routing (Silla & Duato, the paper's refs [13], [24]).

The topology-agnostic deadlock-free routing used by the paper's
simulation (Section VII-A) as the escape path. A BFS spanning tree
orients every channel either *up* (toward the root: to a node of
smaller BFS depth, ties broken by smaller id) or *down*; a legal route
never takes an up channel after a down channel, which makes the channel
dependency graph acyclic.

Because legality depends on the up/down history, the next-hop tables
are indexed by ``(phase, node, destination)`` where phase records
whether up channels are still allowed. Tables are built with one
backward BFS per destination over the 2n-state phase graph.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.topologies.base import Topology

__all__ = ["UpDownRouting"]

_UP_OK = 0  #: phase: up channels still permitted
_DOWN_ONLY = 1  #: phase: a down channel was taken; only down permitted


class UpDownRouting:
    """Deadlock-free up*/down* routing over an arbitrary topology.

    Parameters
    ----------
    topo:
        Any connected topology.
    root:
        Root of the BFS spanning tree. Defaults to a minimum-eccentricity
        node approximation: the node with the highest degree (a common
        heuristic; the paper does not specify its root choice).
    """

    def __init__(self, topo: Topology, root: int | None = None):
        self.topo = topo
        if root is None:
            root = int(np.argmax(topo.degrees))
        if not (0 <= root < topo.n):
            raise ValueError(f"root {root} out of range")
        self.root = root
        self._depth = self._bfs_depths(topo, root)
        self._dist = self._build_tables()

    # ------------------------------------------------------------------
    @staticmethod
    def _bfs_depths(topo: Topology, root: int) -> np.ndarray:
        depth = np.full(topo.n, -1, dtype=np.int64)
        depth[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            for v in topo.neighbors(u):
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    q.append(v)
        if (depth < 0).any():
            raise ValueError("topology is disconnected; up*/down* undefined")
        return depth

    def is_up(self, u: int, v: int) -> bool:
        """True iff the directed channel ``u -> v`` is an *up* channel."""
        du, dv = self._depth[u], self._depth[v]
        return bool(dv < du or (dv == du and v < u))

    # ------------------------------------------------------------------
    def _build_tables(self):
        """Backward BFS per destination over (node, phase) states.

        Forward transitions: from ``(u, UP_OK)`` an up channel keeps
        ``UP_OK`` and a down channel moves to ``DOWN_ONLY``; from
        ``(u, DOWN_ONLY)`` only down channels are legal.
        """
        topo = self.topo
        n = topo.n
        # dist[phase][u][t], next_node[phase][u][t], next_phase[...]
        dist = np.full((2, n, n), -1, dtype=np.int32)
        next_node = np.full((2, n, n), -1, dtype=np.int32)
        next_phase = np.full((2, n, n), -1, dtype=np.int8)

        # Reverse transitions into state (v, ph_v):
        #   up channel u->v:   (u, UP_OK) -> (v, UP_OK)         [ph_v == UP_OK]
        #   down channel u->v: (u, UP_OK) -> (v, DOWN_ONLY)
        #                      (u, DOWN_ONLY) -> (v, DOWN_ONLY) [ph_v == DOWN_ONLY]
        for t in range(n):
            q: deque[tuple[int, int]] = deque()
            for ph in (_UP_OK, _DOWN_ONLY):
                dist[ph][t][t] = 0
                q.append((t, ph))
            while q:
                v, ph_v = q.popleft()
                d = dist[ph_v][v][t]
                for u in topo.neighbors(v):
                    if self.is_up(u, v):
                        preds = [(u, _UP_OK)] if ph_v == _UP_OK else []
                    else:
                        preds = [(u, _UP_OK), (u, _DOWN_ONLY)] if ph_v == _DOWN_ONLY else []
                    for pu, pph in preds:
                        if dist[pph][pu][t] < 0:
                            dist[pph][pu][t] = d + 1
                            next_node[pph][pu][t] = v
                            next_phase[pph][pu][t] = ph_v
                            q.append((pu, pph))
        if (dist[_UP_OK] < 0).any():
            raise AssertionError("up*/down* failed to reach some pair; tree broken")
        self._next_node = next_node
        self._next_phase = next_phase
        return dist

    # ------------------------------------------------------------------
    def distance(self, s: int, t: int) -> int:
        """Length of the shortest *legal* path (>= graph distance)."""
        return int(self._dist[_UP_OK][s][t])

    def path(self, s: int, t: int) -> list[int]:
        """One shortest legal path (deterministic)."""
        path = [s]
        u, ph = s, _UP_OK
        while u != t:
            v = int(self._next_node[ph][u][t])
            ph = int(self._next_phase[ph][u][t])
            if v < 0:
                raise AssertionError(f"no legal up*/down* step from {u} to {t}")
            path.append(v)
            u = v
        return path

    def next_hops(self, u: int, t: int, down_only: bool = False) -> list[tuple[int, bool]]:
        """All legal next hops from ``u`` toward ``t`` that lie on *some*
        shortest legal path, as ``(neighbor, next_down_only)`` tuples."""
        ph = _DOWN_ONLY if down_only else _UP_OK
        if u == t:
            return []
        d = int(self._dist[ph][u][t])
        out = []
        for v in self.topo.neighbors(u):
            if self.is_up(u, v):
                if ph != _UP_OK:
                    continue
                nph = _UP_OK
            else:
                nph = _DOWN_ONLY
            if int(self._dist[nph][v][t]) == d - 1:
                out.append((v, nph == _DOWN_ONLY))
        return out

    def average_path_length(self) -> float:
        """Mean legal-path length over all ordered pairs (s != t).

        Exact: the integer distance total over the ordered-pair count
        (the all-zero diagonal contributes nothing), with no n x n
        temporary -- the old mask-based mean allocated two."""
        d = self._dist[_UP_OK]
        n = self.topo.n
        return float(d.sum(dtype=np.int64)) / (n * (n - 1))
