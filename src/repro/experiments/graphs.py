"""Experiment drivers for Figs. 7 and 8: hop metrics vs network size.

``fig7_diameter()`` / ``fig8_aspl()`` regenerate the two graph-analysis
figures: diameter and average shortest path length of DSN, 2-D torus
and RANDOM (DLN-2-2) for N = 32..2048 switches.

Every row goes through :func:`repro.cache.hop_stats`, which swaps the
dense distance matrix for the blocked streaming BFS engine above the
cache's byte budget (``repro.cache.MEMORY_BUDGET_BYTES``) -- so the
same drivers extend the sweeps to n >= 10^5 (``python -m repro fig8
--sizes 65536``) in O(n) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import analyze
from repro.experiments.sweeps import PAPER_SIZES, PAPER_TRIO, make_topology
from repro.util import format_table
from repro.util.parallel import parallel_map

__all__ = [
    "HopSweepRow",
    "fig7_diameter",
    "fig8_aspl",
    "hop_sweep",
    "format_hop_sweep",
    "hop_distribution_table",
]


@dataclass(frozen=True)
class HopSweepRow:
    """One network size: hop metric of each compared topology."""

    n: int
    log2_n: int
    values: dict[str, float]  #: kind -> metric value

    def row(self) -> list:
        return [self.log2_n, self.n] + [self.values[k] for k in sorted(self.values)]


def _hop_sweep_one(args: tuple) -> HopSweepRow:
    """One size of the sweep (module-level for process-pool pickling)."""
    metric, n, kinds, seed = args
    values = {}
    for kind in kinds:
        m = analyze(make_topology(kind, n, seed=seed))
        values[kind] = float(getattr(m, metric))
    return HopSweepRow(n=n, log2_n=n.bit_length() - 1, values=values)


def hop_sweep(
    metric: str,
    sizes: tuple[int, ...] = PAPER_SIZES,
    kinds: tuple[str, ...] = PAPER_TRIO,
    seed: int = 0,
    workers: int | None = None,
) -> list[HopSweepRow]:
    """Sweep ``metric`` ("diameter" or "aspl") over sizes and kinds.

    Sizes are independent; set ``workers`` (or ``REPRO_WORKERS``) to
    compute them in parallel processes.
    """
    if metric not in ("diameter", "aspl"):
        raise ValueError(f"metric must be 'diameter' or 'aspl', got {metric!r}")
    return parallel_map(
        _hop_sweep_one, [(metric, n, kinds, seed) for n in sizes], workers=workers
    )


def fig7_diameter(
    sizes: tuple[int, ...] = PAPER_SIZES, seed: int = 0, workers: int | None = None
) -> list[HopSweepRow]:
    """Figure 7: diameter vs network size."""
    return hop_sweep("diameter", sizes=sizes, seed=seed, workers=workers)


def fig8_aspl(
    sizes: tuple[int, ...] = PAPER_SIZES, seed: int = 0, workers: int | None = None
) -> list[HopSweepRow]:
    """Figure 8: average shortest path length vs network size."""
    return hop_sweep("aspl", sizes=sizes, seed=seed, workers=workers)


def format_hop_sweep(rows: list[HopSweepRow], title: str) -> str:
    """Render a sweep as the paper-style table."""
    kinds = sorted(rows[0].values)
    return format_table(["log2N", "N", *kinds], [r.row() for r in rows], title=title)


def hop_distribution_table(
    n: int = 256,
    kinds: tuple[str, ...] = PAPER_TRIO,
    seed: int = 0,
) -> str:
    """Per-hop pair-count distribution (the histogram behind Figs. 7-8).

    Shows *why* DSN's averages are low: its pair distances concentrate
    in a tight logarithmic band while the torus's tail out to its large
    diameter carries real probability mass.
    """
    from repro import cache

    hists = {}
    max_h = 0
    for kind in kinds:
        h = cache.hop_stats(make_topology(kind, n, seed=seed)).hist
        hists[kind] = h
        max_h = max(max_h, len(h) - 1)

    total = n * (n - 1)
    rows = []
    for hop in range(1, max_h + 1):
        row = [hop]
        for kind in sorted(hists):
            h = hists[kind]
            frac = h[hop] / total if hop < len(h) else 0.0
            row.append(f"{frac:.1%}" if frac else "")
        rows.append(row)
    return format_table(
        ["hops", *sorted(hists)],
        rows,
        title=f"Pair-distance distribution at n={n} (fraction of ordered pairs)",
    )
