"""Shared experiment plumbing: topology factory and size sweeps.

Every figure of the paper compares the same three topologies -- DSN
(x = p-1), the most-square 2-D torus, and DLN-2-2 ("RANDOM") -- over
network sizes 2^5..2^11. The factory gives each driver one authoritative
way to build them (plus the extension/related-work topologies for the
ablation experiments).
"""

from __future__ import annotations

from typing import Callable

from repro.core import DSNDTopology, DSNETopology, DSNTopology, DSNVTopology
from repro.topologies import (
    CubeConnectedCyclesTopology,
    DeBruijnTopology,
    DLNRandomTopology,
    DLNTopology,
    HypercubeTopology,
    KleinbergTopology,
    RandomRegularTopology,
    RingTopology,
    Topology,
    TorusTopology,
)
from repro.util import is_power_of_two

__all__ = ["PAPER_SIZES", "PAPER_TRIO", "make_topology", "paper_trio"]

#: Network sizes of Figs. 7-9: log2 N = 5 .. 11.
PAPER_SIZES = tuple(2**k for k in range(5, 12))

#: The three topology kinds every paper figure compares.
PAPER_TRIO = ("torus", "random", "dsn")


def make_topology(kind: str, n: int, seed: int = 0, **kwargs) -> Topology:
    """Build a topology by kind name.

    Kinds: ``dsn``, ``dsn_e``, ``dsn_v``, ``dsn_d``, ``torus``,
    ``torus3d``, ``mesh``, ``random`` (DLN-2-2), ``dln`` (DLN-x,
    ``x`` defaults to ``ceil(log2 n)``),
    ``random_regular``, ``kleinberg``, ``ring``, ``hypercube``,
    ``debruijn``, ``ccc``.

    Construction is deterministic in ``(kind, n, seed, kwargs)``, so
    the result is memoized in-process (see :mod:`repro.cache`);
    repeated sweeps over the same sizes share one immutable object.
    """
    from repro import cache

    kind = kind.lower()
    try:
        recipe = (kind, n, seed, tuple(sorted(kwargs.items())))
        hash(recipe)
    except TypeError:  # unhashable kwarg: skip memoization
        return _build_topology(kind, n, seed, **kwargs)
    return cache.memo_topology(recipe, lambda: _build_topology(kind, n, seed, **kwargs))


def _build_topology(kind: str, n: int, seed: int, **kwargs) -> Topology:
    if kind == "dsn":
        return DSNTopology(n, **kwargs)
    if kind == "dsn_e":
        return DSNETopology(n)
    if kind == "dsn_v":
        return DSNVTopology(n)
    if kind == "dsn_d":
        return DSNDTopology(n, **kwargs)
    if kind == "torus":
        return TorusTopology.square(n, 2)
    if kind == "torus3d":
        return TorusTopology.square(n, 3)
    if kind == "mesh":
        from repro.topologies import MeshTopology, balanced_dims

        return MeshTopology(balanced_dims(n, 2))
    if kind == "random":
        return DLNRandomTopology(n, 2, 2, seed=seed)
    if kind == "dln":
        # Default x: DLN-log n, the Section IV-A baseline (DLN-10 at n=1024).
        return DLNTopology(n, kwargs.get("x", max(2, (n - 1).bit_length())))
    if kind == "random_regular":
        return RandomRegularTopology(n, kwargs.get("degree", 4), seed=seed)
    if kind == "kleinberg":
        side = int(round(n**0.5))
        if side * side != n:
            raise ValueError(f"kleinberg needs a square size, got {n}")
        return KleinbergTopology(side, seed=seed, **kwargs)
    if kind == "ring":
        return RingTopology(n)
    if kind == "hypercube":
        if not is_power_of_two(n):
            raise ValueError(f"hypercube needs a power-of-two size, got {n}")
        return HypercubeTopology(n.bit_length() - 1)
    if kind == "debruijn":
        return DeBruijnTopology(kwargs.get("b", 2), kwargs.get("k", 6))
    if kind == "ccc":
        return CubeConnectedCyclesTopology(kwargs.get("k", 4))
    raise ValueError(f"unknown topology kind {kind!r}")


def paper_trio(n: int, seed: int = 0) -> list[Topology]:
    """The Fig. 7-10 comparison set for one network size."""
    return [make_topology(kind, n, seed=seed) for kind in PAPER_TRIO]
