"""Degradation curves: metric decay of the paper trio under link loss.

The `python -m repro faults` experiment, and the link-failure rows of
``python -m repro robustness``. For each topology kind in the paper's
Fig. 7-10 comparison set (torus / RANDOM / DSN) and each fail fraction
in the sweep, it reports:

* ``connected_fraction`` -- how often the survivor graph holds together;
* ``mean_diameter`` / ``mean_aspl`` -- hop metrics over connected trials;
* ``throughput_retention`` -- the uniform-traffic capacity proxy
  ``theta = 2 * links / (n * aspl)`` of the survivor relative to the
  intact network (every delivered packet occupies ``aspl`` of the
  ``2 * links`` directed channels on average, so ``theta`` bounds the
  per-node injection rate; the ratio cancels the units).

The curves are a view over :func:`repro.faults.percolation.percolation_sweep`:
trial ``t`` kills every link whose :func:`~repro.faults.percolation.link_field`
value falls below the fraction, so fault sets nest across fractions and
every point shares its store key with the percolation experiment -- a
``faults`` run is served from points a ``percolation`` run stored.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from repro.faults.percolation import DEFAULT_TRIALS, percolation_sweep, validate_fractions
from repro.util import format_table

__all__ = [
    "DegradationPoint",
    "DEFAULT_FRACTIONS",
    "degradation_point",
    "degradation_curves",
    "degradation_artifact",
]

#: Fail fractions of the default sweep (0 anchors the intact baseline).
DEFAULT_FRACTIONS = (0.0, 0.01, 0.02, 0.05, 0.10)


@dataclass(frozen=True)
class DegradationPoint:
    """One (topology, fail fraction) point of a degradation curve."""

    HEADERS: ClassVar[tuple[str, ...]] = (
        "topology", "fail_frac", "P(connected)", "diameter", "aspl", "thr_retention",
    )

    name: str
    kind: str
    n: int
    fail_fraction: float
    trials: int
    connected_fraction: float
    mean_diameter: float  #: over connected trials (nan if none)
    mean_aspl: float  #: over connected trials (nan if none)
    #: mean survivor capacity proxy relative to the intact network,
    #: over connected trials (nan if none).
    throughput_retention: float

    def row(self) -> list:
        def fmt(x: float, nd: int) -> object:
            return round(x, nd) if x == x else "-"

        return [
            self.name,
            self.fail_fraction,
            round(self.connected_fraction, 3),
            fmt(self.mean_diameter, 2),
            fmt(self.mean_aspl, 3),
            fmt(self.throughput_retention, 3),
        ]


def _mean(values: list) -> float:
    return float(np.mean(values)) if values else float("nan")


def degradation_curves(
    n: int = 1024,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    trials: int | None = None,
    seed: int = 0,
    kinds: tuple[str, ...] | None = None,
    workers: int | None = None,
) -> tuple[str, list[DegradationPoint]]:
    """Full degradation sweep: kinds x fractions, formatted + raw.

    One percolation sweep over ``fractions`` (plus an internal 0.0
    baseline when the grid lacks one); each point then aggregates the
    raw per-trial rows: a trial is connected when its largest component
    spans all ``n`` switches, and diameter, ASPL and retention
    ``kept/(kept+dead) * aspl_0/aspl_f`` average over connected trials.
    """
    fractions = validate_fractions(fractions)
    trials = DEFAULT_TRIALS if trials is None else max(1, int(trials))
    grid = fractions if fractions[0] == 0.0 else (0.0,) + fractions
    _, perc_points, raw = percolation_sweep(
        n=n, fractions=grid, trials=trials, seed=seed, kinds=kinds, workers=workers,
    )
    names = {p.kind: p.name for p in perc_points}
    skip = len(grid) - len(fractions)
    points: list[DegradationPoint] = []
    for kind, per_trial in raw.items():
        for fi, frac in enumerate(fractions, start=skip):
            ok = [(t[fi], t[0]) for t in per_trial if t[fi]["lcc"] == n]
            retention = [
                r["kept_links"] / (r["kept_links"] + r["dead_links"])
                * base["aspl"] / r["aspl"]
                for r, base in ok
            ]
            points.append(
                DegradationPoint(
                    name=names[kind],
                    kind=kind,
                    n=n,
                    fail_fraction=frac,
                    trials=trials,
                    connected_fraction=len(ok) / trials,
                    mean_diameter=_mean([r["diameter"] for r, _ in ok]),
                    mean_aspl=_mean([r["aspl"] for r, _ in ok]),
                    throughput_retention=_mean(retention),
                )
            )
    table = format_table(
        list(DegradationPoint.HEADERS),
        [p.row() for p in points],
        title=f"Degradation curves at n={n} ({trials} coupled trials/point)",
    )
    return table, points


def degradation_point(
    kind: str,
    n: int,
    fail_fraction: float,
    trials: int | None = None,
    seed: int = 0,
    workers: int | None = None,
) -> DegradationPoint:
    """The degradation curve of ``kind`` at one fail fraction."""
    _, points = degradation_curves(
        n=n, fractions=(fail_fraction,), trials=trials, seed=seed,
        kinds=(kind,), workers=workers,
    )
    return points[0]


def degradation_artifact(
    path: str | Path,
    n: int = 1024,
    fractions: tuple[float, ...] = DEFAULT_FRACTIONS,
    trials: int | None = None,
    seed: int = 0,
    kinds: tuple[str, ...] | None = None,
    workers: int | None = None,
) -> tuple[str, list[DegradationPoint]]:
    """Run :func:`degradation_curves` and write the JSON artifact."""
    table, points = degradation_curves(
        n=n, fractions=fractions, trials=trials, seed=seed,
        kinds=kinds, workers=workers,
    )
    payload = {
        "experiment": "degradation_curves",
        "n": n,
        "fractions": [float(f) for f in fractions],
        "trials": points[0].trials,
        "seed": seed,
        "engine": "percolation",
        "points": [asdict(p) for p in points],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return table, points
