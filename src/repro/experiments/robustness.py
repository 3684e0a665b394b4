"""Extended experiment: fault tolerance and bisection of the trio.

Not a paper figure -- it backs two of the paper's motivating claims:
low-degree networks need good fault behaviour (Section I), and the
Fig. 10 "similar throughput" observation reflects comparable bisections
at equal degree.
"""

from __future__ import annotations

from repro.analysis.bisection import BisectionEstimate, bisection_estimate
from repro.experiments.sweeps import paper_trio
from repro.faults.degradation import DegradationPoint, degradation_curves
from repro.util import format_table

__all__ = ["fault_table", "bisection_table", "rerouting_table"]


def fault_table(
    n: int = 256,
    fractions: tuple[float, ...] = (0.01, 0.05, 0.10),
    trials: int = 15,
    seed: int = 0,
) -> tuple[str, list[DegradationPoint]]:
    """Link-failure degradation rows for torus / RANDOM / DSN.

    The same trio x fractions x trials experiment as
    :func:`repro.faults.degradation_curves`, under this report's title;
    every (trial, fraction) point is store-backed, so a repeated or
    resumed robustness run recomputes only what is missing.
    """
    _, points = degradation_curves(n=n, fractions=fractions, trials=trials, seed=seed)
    table = format_table(
        list(DegradationPoint.HEADERS),
        [p.row() for p in points],
        title=f"Link-failure degradation at n={n} ({trials} trials each)",
    )
    return table, points


def rerouting_table(
    n: int = 128,
    fail_fraction: float = 0.05,
    trials: int = 5,
    seed: int = 0,
) -> tuple[str, list[dict]]:
    """Fault recovery via up*/down* recomputation.

    The practical fault story for these networks: after link failures,
    the (topology-agnostic) up*/down* routing is rebuilt on the
    survivor graph. This measures the resulting *path stretch* --
    average up*/down* path length after failures vs before -- for each
    topology in the trio. Trials whose survivor graph disconnects are
    counted separately (rerouting cannot help those).

    Fault draws go through :func:`repro.faults.models.sample_link_faults`
    (the shared :func:`repro.util.sample_indices` sampler; bit-compatible
    with the historical hand-rolled ``rng.choice``) and routings through
    :func:`repro.cache.updown_routing`, so the intact baseline is shared
    with every other consumer and each survivor's tables are derived
    fresh under its own fingerprint.
    """
    import numpy as np

    from repro import cache
    from repro.faults.models import sample_link_faults
    from repro.util import make_rng

    rng = make_rng(seed)
    rows: list[dict] = []
    for topo in paper_trio(n, seed=seed):
        baseline = cache.updown_routing(topo).average_path_length()
        stretches = []
        disconnected = 0
        for _ in range(trials):
            faults = sample_link_faults(topo, fail_fraction, seed=rng)
            survivor = faults.apply(topo)
            if not survivor.is_connected():
                disconnected += 1
                continue
            after = cache.updown_routing(survivor).average_path_length()
            stretches.append(after / baseline)
        rows.append({
            "name": topo.name,
            "baseline": baseline,
            "stretch": float(np.mean(stretches)) if stretches else float("nan"),
            "disconnected": disconnected,
            "trials": trials,
        })
    table = format_table(
        ["topology", "updown_avg_path", "stretch_after_faults", "disconnected"],
        [
            [r["name"], round(r["baseline"], 3),
             round(r["stretch"], 3) if r["stretch"] == r["stretch"] else "-",
             f"{r['disconnected']}/{r['trials']}"]
            for r in rows
        ],
        title=f"up*/down* rerouting after {fail_fraction:.0%} link failures (n={n})",
    )
    return table, rows


def bisection_table(n: int = 256, seed: int = 0) -> tuple[str, list[BisectionEstimate]]:
    """Bisection bounds for torus / RANDOM / DSN."""
    ests = [bisection_estimate(t, seed=seed) for t in paper_trio(n, seed=seed)]
    table = format_table(
        ["topology", "spectral_lower", "heuristic_upper", "per_node"],
        [e.row() for e in ests],
        title=f"Bisection width bounds at n={n}",
    )
    return table, ests
