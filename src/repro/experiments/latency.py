"""Experiment driver for Fig. 10: latency vs accepted traffic.

Reproduces the paper's Section VII simulation: 64 switches x 4 hosts,
virtual cut-through, 4 VCs, topology-agnostic minimal-adaptive routing
with an up*/down* escape, under uniform / bit-reversal / neighboring
traffic. One latency-throughput curve per topology per pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import store
from repro.experiments.sweeps import PAPER_TRIO, make_topology
from repro.routing import DuatoAdaptiveRouting
from repro.sim import (
    AdaptiveEscapeAdapter,
    FlitLevelSimulator,
    NetworkSimulator,
    SimConfig,
    SimResult,
    dsn_custom_adapter,
)
from repro.traffic import make_pattern
from repro.util import format_table
from repro.util.parallel import parallel_map

__all__ = [
    "LatencyCurve",
    "run_curve",
    "fig10",
    "format_curves",
    "saturation_search",
    "DEFAULT_LOADS",
]

#: Offered loads (Gbit/s/host) swept by default; the paper's x-axis
#: spans 0..12 Gbit/s/host.
DEFAULT_LOADS = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)


@dataclass
class LatencyCurve:
    """One latency-vs-accepted-traffic curve (a line in Fig. 10)."""

    topology: str
    pattern: str
    points: list[SimResult] = field(default_factory=list)

    def accepted(self) -> list[float]:
        return [p.accepted_gbps for p in self.points]

    def latency(self) -> list[float]:
        return [p.avg_latency_ns for p in self.points]

    def low_load_latency(self) -> float:
        """Latency of the lowest-load point (the Fig. 10 left edge)."""
        return self.points[0].avg_latency_ns

    def saturation_gbps(self) -> float:
        """Largest accepted traffic before saturation (paper's throughput)."""
        ok = [p.accepted_gbps for p in self.points if not p.saturated]
        return max(ok) if ok else max(p.accepted_gbps for p in self.points)


def _sim_topology(kind: str, n: int, seed: int, routing: str):
    """The (memoized) topology a curve simulates on.

    The custom-routing schemes need the DSN-V virtual-channel policy;
    other kinds are swapped for DSN-V when they lack one.
    """
    topo = make_topology(kind, n, seed=seed)
    if routing in ("custom", "minimal_custom") and not hasattr(topo, "policy"):
        topo = make_topology("dsn_v", n)
    return topo


#: Per-process source-route memo for the custom scheme: n -> {(s, t): route}.
_custom_routes: dict[int, dict] = {}


def _make_adapter(topo, routing: str, cfg: SimConfig, rng):
    if routing == "custom":
        from repro.core import dsn_route_extended

        route_cache = _custom_routes.setdefault(topo.n, {})

        def route_fn(s: int, t: int):
            key = (s, t)
            if key not in route_cache:
                route_cache[key] = dsn_route_extended(topo, s, t)
            return route_cache[key]

        return dsn_custom_adapter(route_fn, num_vcs=cfg.num_vcs)
    if routing == "minimal_custom":
        from repro.sim import MinimalCustomEscapeAdapter

        return MinimalCustomEscapeAdapter(topo, cfg.num_vcs, rng)
    if routing == "dor":
        from repro.sim import DORAdapter

        return DORAdapter(topo, cfg.num_vcs)
    if routing == "updown":
        return AdaptiveEscapeAdapter(
            DuatoAdaptiveRouting(topo), cfg.num_vcs, rng, escape_only=True
        )
    if routing == "adaptive":
        return AdaptiveEscapeAdapter(DuatoAdaptiveRouting(topo), cfg.num_vcs, rng)
    raise ValueError(f"unknown routing scheme {routing!r}")


def _curve_point(args: tuple) -> SimResult:
    """One (kind, load) simulation -- module-level so a process pool can
    pickle it. Each point draws from its own ``(seed, load)``-keyed RNG,
    so serial and parallel execution produce identical results; the
    topology and routing tables are shared through :mod:`repro.cache`
    within each process, and the whole point result goes through
    :mod:`repro.store` -- a previously simulated point (this process,
    an earlier sweep, or another worker via ``REPRO_STORE_DIR``) is
    served from the store bit-identically instead of re-run.

    ``args`` is ``(kind, pattern, load, n, cfg, seed, routing)`` plus an
    optional trailing ``sim_engine``: ``"network"`` (packet-level,
    default) or ``"flit"`` (flit-level, on its event-driven run loop;
    the cycle-scan reference is bit-identical, so the loop never
    affects the store key)."""
    kind, pattern_name, load, n, cfg, seed, routing = args[:7]
    sim_engine = args[7] if len(args) > 7 else "network"
    topo = _sim_topology(kind, n, seed, routing)

    def compute() -> SimResult:
        rng = np.random.default_rng((seed, int(load * 1000)))
        num_hosts = n * cfg.hosts_per_switch
        # Synthetic permutations act on switch addresses (see
        # repro.traffic.patterns._PermutationTraffic): each host sends to
        # its same-offset counterpart at the permuted switch.
        pattern_kwargs = (
            {"group_size": cfg.hosts_per_switch}
            if pattern_name in ("bit_reversal", "bit_complement", "transpose")
            else {}
        )
        pattern = make_pattern(pattern_name, num_hosts, **pattern_kwargs)
        adapter = _make_adapter(topo, routing, cfg, rng)
        if sim_engine == "flit":
            sim = FlitLevelSimulator(topo, adapter, pattern, load, cfg)
        else:
            sim = NetworkSimulator(topo, adapter, pattern, load, cfg)
        return sim.run()

    if not store.store_enabled():
        return compute()
    key = store.sim_run_key(
        topo, routing, pattern_name, load, cfg, seed, engine=sim_engine
    )
    return store.cached_sim(key, compute)


def run_curve(
    kind: str,
    pattern_name: str,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    n: int = 64,
    config: SimConfig | None = None,
    seed: int = 0,
    custom_routing: bool = False,
    routing: str = "adaptive",
    workers: int | None = None,
    sim_engine: str = "network",
) -> LatencyCurve:
    """Simulate one topology kind under one pattern across loads.

    ``sim_engine`` picks the simulator: ``"network"`` (packet-level,
    default) or ``"flit"`` (flit-level credit/crossbar model on the
    event-driven run loop, for either router model in
    ``config.router``). ``routing`` selects the scheme:

    * ``"adaptive"`` -- minimal-adaptive + up*/down* escape (the paper's
      Section VII configuration, default);
    * ``"updown"`` -- pure up*/down* on all VCs;
    * ``"dor"`` -- dimension-order routing with VC datelines (torus/mesh
      native routing, ablation);
    * ``"custom"`` -- deadlock-free DSN custom routing, source-routed on
      DSN-V virtual channels (Section VII-B);
    * ``"minimal_custom"`` -- minimal-adaptive with the DSN custom
      routing as escape (the paper's Section VIII future work).

    ``custom_routing=True`` is a backward-compatible alias for
    ``routing="custom"``. Loads are independent simulations; set
    ``workers`` (or ``REPRO_WORKERS``) to run them in parallel
    processes with identical results. Points flow through
    :mod:`repro.store`: duplicates in ``loads`` run once, and
    previously stored points are not re-simulated.
    """
    cfg = config or SimConfig()
    if custom_routing:
        routing = "custom"
    topo = _sim_topology(kind, n, seed, routing)
    curve = LatencyCurve(topology=topo.name, pattern=pattern_name)
    curve.points = store.dedup_map(
        _curve_point,
        [(kind, pattern_name, load, n, cfg, seed, routing, sim_engine) for load in loads],
        workers=workers,
    )
    return curve


def fig10(
    pattern_name: str,
    loads: tuple[float, ...] = DEFAULT_LOADS,
    n: int = 64,
    config: SimConfig | None = None,
    seed: int = 0,
    kinds: tuple[str, ...] = PAPER_TRIO,
    workers: int | None = None,
    sim_engine: str = "network",
) -> list[LatencyCurve]:
    """One Fig. 10 subplot: curves for torus, RANDOM and DSN.

    All ``kinds x loads`` points fan out through one
    :func:`repro.store.dedup_map`, so a worker pool stays busy across
    the whole subplot instead of draining per curve, identical points
    run once, and a warm re-run against a populated ``REPRO_STORE_DIR``
    serves every point from the store. ``sim_engine`` picks the
    simulator as in :func:`run_curve`.
    """
    cfg = config or SimConfig()
    jobs = [
        (kind, pattern_name, load, n, cfg, seed, "adaptive", sim_engine)
        for kind in kinds
        for load in loads
    ]
    points = store.dedup_map(_curve_point, jobs, workers=workers)
    curves = []
    for i, kind in enumerate(kinds):
        topo = _sim_topology(kind, n, seed, "adaptive")
        curve = LatencyCurve(topology=topo.name, pattern=pattern_name)
        curve.points = points[i * len(loads) : (i + 1) * len(loads)]
        curves.append(curve)
    return curves


def _probe_at(kind, pattern_name, n, cfg, seed, routing, load) -> SimResult:
    """One saturation probe (partial-able; load is the trailing arg)."""
    return _curve_point((kind, pattern_name, load, n, cfg, seed, routing))


def saturation_search(
    kind: str,
    pattern_name: str = "uniform",
    n: int = 64,
    config: SimConfig | None = None,
    seed: int = 0,
    routing: str = "adaptive",
    workers: int | None = None,
    start_gbps: float = 4.0,
    max_gbps: float = 64.0,
    resolution_gbps: float = 1.0,
):
    """Measure saturation throughput for one topology kind.

    Wraps :func:`repro.sim.find_saturation` with a picklable probe, so
    with ``workers`` (or ``REPRO_WORKERS``) the bracketing ladder runs
    as one parallel batch; each probe seeds its RNG from ``(seed,
    load)``, making serial and parallel searches identical. Probes are
    store-backed (:mod:`repro.store`): a repeated search finds its
    ladder already persisted and skips straight to bisection, and the
    bisection probes themselves are never simulated twice.
    """
    import functools

    from repro.sim import find_saturation
    from repro.util.parallel import default_workers

    cfg = config or SimConfig()
    run_at = functools.partial(_probe_at, kind, pattern_name, n, cfg, seed, routing)
    w = workers if workers is not None else default_workers()
    map_fn = (lambda f, xs: parallel_map(f, xs, workers=w)) if w > 1 else None
    return find_saturation(
        run_at,
        start_gbps=start_gbps,
        max_gbps=max_gbps,
        resolution_gbps=resolution_gbps,
        map_fn=map_fn,
    )


def format_curves(curves: list[LatencyCurve], title: str) -> str:
    rows = []
    for c in curves:
        for p in c.points:
            rows.append(p.row())
    return format_table(SimResult.headers(), rows, title=title)
