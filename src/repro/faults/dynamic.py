"""Live rerouting: adapter factories and a fault-run convenience.

The flit-level simulator reacts to a mid-run link failure by rebuilding
its routing adapter on the survivor graph. It cannot do that alone --
adapters are built from a *routing* (Duato adaptive + up*/down* escape,
DSN-Routing, ...) that itself derives tables from a topology -- so the
simulator takes an ``adapter_factory``: a callable mapping a survivor
:class:`~repro.topologies.base.Topology` to a fresh
:class:`~repro.sim.adapters.RoutingAdapter`. This module provides the
standard factories plus :func:`run_with_faults`, the one-call way to
run a fault schedule.

Every factory routes table derivation through :mod:`repro.cache`.
Because a survivor topology's edge list differs from the intact
network's, its fingerprint differs too, and the cache *derives* fresh
tables rather than serving the intact network's -- stale next-hop
tables for a degraded graph are impossible by construction (tested in
``tests/test_faults.py``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import telemetry
from repro.faults.schedule import FaultSchedule
from repro.topologies.base import Topology

# The sim/routing imports stay inside the functions: this module is
# re-exported by ``repro.faults``, which ``repro.experiments.robustness``
# imports at module level -- pulling ``repro.routing.adaptive`` in here
# at import time would make every fault-table import load the simulator
# and risk a circular import.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.adapters import RoutingAdapter
    from repro.sim.config import SimConfig
    from repro.sim.metrics import SimResult
    from repro.traffic.patterns import TrafficPattern

__all__ = [
    "adaptive_escape_factory",
    "dsn_custom_factory",
    "run_with_faults",
]

AdapterFactory = Callable[[Topology], "RoutingAdapter"]


def adaptive_escape_factory(
    config: SimConfig | None = None,
    seed: int = 0,
    escape_only: bool = False,
) -> AdapterFactory:
    """Factory for the paper's reference routing: minimal-adaptive VCs
    over an up*/down* escape VC (Duato's methodology, Section VII-A).

    Each call of the returned factory re-derives shortest-path and
    up*/down* tables on the topology it is given and reseeds the
    adaptive tie-break RNG with ``seed``, so a rebuild after a fault is
    deterministic: same survivor graph, same seed, same adapter.
    """
    from repro.routing.adaptive import DuatoAdaptiveRouting
    from repro.sim.adapters import AdaptiveEscapeAdapter
    from repro.sim.config import SimConfig

    cfg = config or SimConfig()

    def build(topo: Topology) -> RoutingAdapter:
        return AdaptiveEscapeAdapter(
            DuatoAdaptiveRouting(topo),
            cfg.num_vcs,
            np.random.default_rng(seed),
            escape_only=escape_only,
        )

    return build


def dsn_custom_factory(
    config: SimConfig | None = None,
    seed: int = 0,
) -> AdapterFactory:
    """Factory for the DSN custom routing: minimal-adaptive VCs over
    the deadlock-free extended DSN-Routing escape (paper Section V).

    Note the DSN escape walks tree/shortcut link classes; a survivor
    graph keeps every surviving link's class, so the rebuilt escape is
    well-defined as long as the tree stays connected -- prefer
    :func:`adaptive_escape_factory` for aggressive fault fractions.
    """
    from repro.sim.adapters import MinimalCustomEscapeAdapter
    from repro.sim.config import SimConfig

    cfg = config or SimConfig()

    def build(topo: Topology) -> RoutingAdapter:
        return MinimalCustomEscapeAdapter(
            topo, cfg.num_vcs, np.random.default_rng(seed)
        )

    return build


def run_with_faults(
    topo: Topology,
    schedule: FaultSchedule,
    pattern: TrafficPattern | str = "uniform",
    offered_gbps: float = 2.0,
    config: SimConfig | None = None,
    factory: AdapterFactory | None = None,
    buffer_flits: int | None = None,
) -> SimResult:
    """Run the flit simulator under a timed fault schedule.

    Builds the initial adapter with ``factory`` (default
    :func:`adaptive_escape_factory`) on the intact ``topo``, hands the
    same factory to the engine for post-fault rebuilds, and returns the
    :class:`~repro.sim.metrics.SimResult` -- whose ``fault_records``,
    ``dropped_fraction`` and ``post_fault_accepted_gbps`` carry the
    resilience story. Deterministic for fixed inputs: the engine is
    single-process, so ``REPRO_WORKERS`` cannot change the outcome.
    """
    from repro.sim.config import SimConfig
    from repro.sim.flitsim import FlitLevelSimulator
    from repro.traffic.patterns import make_pattern

    cfg = config or SimConfig()
    if isinstance(pattern, str):
        pattern = make_pattern(pattern, topo.n * cfg.hosts_per_switch)
    factory = factory or adaptive_escape_factory(cfg)
    with telemetry.span("faults.run_with_faults"):
        sim = FlitLevelSimulator(
            topo,
            factory(topo),
            pattern,
            offered_gbps,
            config=cfg,
            buffer_flits=buffer_flits,
            fault_schedule=schedule,
            adapter_factory=factory,
        )
        result = sim.run()
    for rec in result.fault_records:
        if math.isfinite(rec.recovery_ns):
            telemetry.observe("faults.recovery_ns", rec.recovery_ns, edges=(
                1e2, 1e3, 1e4, 1e5, 1e6, 1e7))
    return result
