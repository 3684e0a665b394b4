"""Distributed Loop Networks: DLN-x and the random-shortcut DLN-x-y.

DLN-x (Koibuchi et al., ISCA 2012, the paper's ref [3]) arranges ``n``
vertices in a ring and adds a deterministic shortcut from every vertex
``i`` to ``j = (i + ceil(n/2^k)) mod n`` for ``k = 1..x-2``, giving
degree ``x``. With ``x = log n`` every node can always halve its
distance to any destination, hence logarithmic diameter -- this is the
distance-halving scheme that DSN distributes over super nodes.

DLN-x-y adds ``y`` random link endpoints to every node of a DLN-x.
**DLN-2-2** (plain ring + 2 random endpoints per node, exact degree 4)
is the paper's RANDOM baseline in Figs. 7-10.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.topologies.base import Link, LinkClass, Topology
from repro.topologies.ring import ring_links
from repro.util import ceil_div, make_rng

__all__ = ["DLNTopology", "DLNRandomTopology", "dln_shortcut_links", "random_regular_links"]


def dln_shortcut_links(n: int, x: int) -> list[Link]:
    """Deterministic DLN shortcuts ``(i, i + ceil(n/2^k) mod n)``, k=1..x-2."""
    links: list[Link] = []
    for k in range(1, x - 1):
        span = ceil_div(n, 2**k)
        if span <= 1 or span >= n - 1:
            # Degenerate spans would duplicate ring links or self-loop.
            continue
        for i in range(n):
            links.append(Link(i, (i + span) % n, LinkClass.SHORTCUT))
    return links


def random_regular_links(
    n: int,
    y: int,
    rng: np.random.Generator,
    forbidden: set[tuple[int, int]] | None = None,
    max_attempts: int = 500,
) -> list[Link]:
    """``y`` random link endpoints per node: a random y-regular graph.

    Realized with a configuration-model pairing; resampled until the
    graph has no self-loops, no duplicate links, and no link already in
    ``forbidden`` (so the union with the base topology keeps every node
    at exactly base-degree + y, the paper's "exact degree 4" for
    DLN-2-2).
    """
    if y < 1:
        return []
    if (n * y) % 2 != 0:
        raise ValueError(f"n*y must be even to form a y-regular graph (n={n}, y={y})")
    forbidden = forbidden or set()
    for attempt in range(max_attempts):
        seed = int(rng.integers(0, 2**31 - 1))
        g = nx.random_regular_graph(y, n, seed=seed)
        ok = all(
            (min(u, v), max(u, v)) not in forbidden for u, v in g.edges()
        )
        if ok:
            return [Link(u, v, LinkClass.RANDOM) for u, v in g.edges()]
    raise RuntimeError(
        f"could not sample a y-regular graph avoiding {len(forbidden)} base links "
        f"after {max_attempts} attempts (n={n}, y={y})"
    )


class DLNTopology(Topology):
    """DLN-x: ring plus deterministic distance-halving shortcuts, degree x."""

    def __init__(self, n: int, x: int):
        if x < 2:
            raise ValueError(f"DLN-x requires x >= 2 (x=2 is the plain ring), got {x}")
        self.x = x
        links = ring_links(n) + dln_shortcut_links(n, x)
        super().__init__(n, links, name=f"DLN-{x}-{n}")


class DLNRandomTopology(Topology):
    """DLN-x-y: DLN-x plus ``y`` random link endpoints per node.

    ``DLNRandomTopology(n, 2, 2, seed)`` is the paper's RANDOM baseline:
    an n-ring where every node additionally gets two random endpoints,
    for an exact degree of 4.
    """

    def __init__(self, n: int, x: int = 2, y: int = 2, seed: int | np.random.Generator | None = 0):
        if x < 2:
            raise ValueError(f"DLN-x-y requires x >= 2, got {x}")
        self.x = x
        self.y = y
        rng = make_rng(seed)
        base = ring_links(n) + dln_shortcut_links(n, x)
        forbidden = {(min(l.u, l.v), max(l.u, l.v)) for l in base}
        rand = random_regular_links(n, y, rng, forbidden=forbidden)
        super().__init__(n, base + rand, name=f"DLN-{x}-{y}-{n}")
