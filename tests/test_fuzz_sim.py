"""Fuzz tests: random small configurations must always deliver.

A final safety net over the whole simulation stack: random topology
kind, random routing adapter, random pattern and load -- every measured
packet must be delivered (no deadlock, no loss, no stuck waiters) and
basic accounting must stay consistent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DSNTopology, DSNVTopology
from repro.routing import DuatoAdaptiveRouting, lash_adapter, lash_layering
from repro.sim import (
    AdaptiveEscapeAdapter,
    MinimalCustomEscapeAdapter,
    NetworkSimulator,
    SimConfig,
)
from repro.topologies import TorusTopology
from repro.traffic import make_pattern

PATTERNS = ["uniform", "neighboring", "hotspot"]
ADAPTERS = ["adaptive", "updown", "minimal_custom", "lash"]


def build(topo_kind: str, adapter_kind: str, seed: int):
    if topo_kind == "dsn":
        topo = DSNVTopology(16) if adapter_kind == "minimal_custom" else DSNTopology(16)
    else:
        topo = TorusTopology((4, 4))
    rng = np.random.default_rng(seed)
    if adapter_kind == "adaptive":
        adapter = AdaptiveEscapeAdapter(DuatoAdaptiveRouting(topo), 4, rng)
    elif adapter_kind == "updown":
        adapter = AdaptiveEscapeAdapter(DuatoAdaptiveRouting(topo), 4, rng, escape_only=True)
    elif adapter_kind == "minimal_custom":
        adapter = MinimalCustomEscapeAdapter(topo, 4, rng)
    else:
        adapter = lash_adapter(lash_layering(topo))
    return topo, adapter


PIPELINED_ADAPTERS = ["custom", "minimal_custom", "adaptive", "updown"]


def build_pipelined(adapter_kind: str, seed: int):
    """A DSN-V source-routed (``custom``) or :func:`build` DSN network
    for the pipelined-router fuzz arms."""
    if adapter_kind != "custom":
        return build("dsn", adapter_kind, seed)
    from repro.core.extensions import dsn_route_extended
    from repro.sim import dsn_custom_adapter

    topo = DSNVTopology(16)
    return topo, dsn_custom_adapter(lambda s, t: dsn_route_extended(topo, s, t))


class TestFuzzDelivery:
    @settings(max_examples=12, deadline=None)
    @given(
        topo_kind=st.sampled_from(["dsn", "torus"]),
        adapter_kind=st.sampled_from(ADAPTERS),
        pattern=st.sampled_from(PATTERNS),
        load=st.floats(min_value=0.5, max_value=6.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_always_delivers(self, topo_kind, adapter_kind, pattern, load, seed):
        if topo_kind == "torus" and adapter_kind == "minimal_custom":
            return  # adapter requires a DSN-V topology
        topo, adapter = build(topo_kind, adapter_kind, seed)
        # Generous drain: single-VC deterministic schemes (LASH) drain a
        # hotspot backlog slowly; a genuine deadlock still fails. Sources
        # stop at the end of the measurement window, so the backlog is
        # finite and this bound is sound even beyond saturation.
        cfg = SimConfig(warmup_ns=1500, measure_ns=4000, drain_ns=80000, seed=seed)
        pat = make_pattern(pattern, topo.n * cfg.hosts_per_switch)
        r = NetworkSimulator(topo, adapter, pat, load, cfg).run()
        assert r.delivered_fraction == 1.0, (topo_kind, adapter_kind, pattern, load)
        if r.latencies_ns:
            lats = np.array(r.latencies_ns)
            assert (lats > 0).all()
            assert r.avg_hops >= 0


class TestFuzzPipelinedRouter:
    """The pipelined router must stay deadlock-free under random configs.

    Random DSN-V (custom source-routing and minimal-custom-escape) and
    DSN-E (adaptive / up-down escape) configurations with random
    pipeline depths and buffer regimes (VCT and wormhole): every packet
    must drain (no VA/SA/credit deadlock) and flit accounting must
    conserve packets (delivered + dropped == generated; no faults are
    scheduled here, so dropped stays 0).
    """

    @settings(max_examples=10, deadline=None)
    @given(
        adapter_kind=st.sampled_from(PIPELINED_ADAPTERS),
        pattern=st.sampled_from(PATTERNS),
        load=st.floats(min_value=0.5, max_value=6.0),
        lag=st.integers(min_value=2, max_value=12),
        buf=st.sampled_from([4, 8, 33, None]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_pipelined_deadlock_free_and_conserving(
        self, adapter_kind, pattern, load, lag, buf, seed
    ):
        import dataclasses

        from repro.sim import FlitLevelSimulator, RouterConfig

        topo, adapter = build_pipelined(adapter_kind, seed)
        cfg = SimConfig(
            warmup_ns=1500,
            measure_ns=4000,
            drain_ns=80000,
            seed=seed,
            router=RouterConfig.with_depth(lag, vc_buffer_flits=buf),
        )
        pat = make_pattern(pattern, topo.n * cfg.hosts_per_switch)
        r = FlitLevelSimulator(topo, adapter, pat, load, cfg).run()
        assert r.delivered_fraction == 1.0, (adapter_kind, pattern, load, lag, buf)
        assert r.delivered_measured + r.dropped_measured == r.generated_measured
        assert r.packets_dropped == 0


class TestFuzzEngineEquivalence:
    """The event-driven flit engine must match the cycle scan bit for bit.

    Random topology/adapter/pattern/load/seed: both run loops must
    produce structurally identical :class:`SimResult` objects. Fresh
    adapters per run keep the RNG streams independent and aligned.
    """

    @settings(max_examples=8, deadline=None)
    @given(
        topo_kind=st.sampled_from(["dsn", "torus"]),
        adapter_kind=st.sampled_from(ADAPTERS),
        pattern=st.sampled_from(PATTERNS),
        load=st.floats(min_value=0.1, max_value=6.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_engines_bit_identical(self, topo_kind, adapter_kind, pattern, load, seed):
        if topo_kind == "torus" and adapter_kind == "minimal_custom":
            return  # adapter requires a DSN-V topology
        import dataclasses

        from repro.sim import FlitLevelSimulator

        cfg = SimConfig(warmup_ns=1000, measure_ns=2500, drain_ns=40000, seed=seed)
        results = []
        for engine in ("cycle", "event"):
            topo, adapter = build(topo_kind, adapter_kind, seed)
            pat = make_pattern(pattern, topo.n * cfg.hosts_per_switch)
            sim = FlitLevelSimulator(topo, adapter, pat, load, cfg, engine=engine)
            results.append(dataclasses.asdict(sim.run()))
        assert results[0] == results[1], (topo_kind, adapter_kind, pattern, load)

    @settings(max_examples=8, deadline=None)
    @given(
        adapter_kind=st.sampled_from(PIPELINED_ADAPTERS),
        pattern=st.sampled_from(PATTERNS),
        load=st.floats(min_value=0.05, max_value=8.0),
        lag=st.integers(min_value=2, max_value=44),
        buf=st.sampled_from([4, 8, 33, None]),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_pipelined_engines_bit_identical(self, adapter_kind, pattern, load, lag, buf, seed):
        """The pipelined router runs on the event loop by default; the
        cycle scan stays its reference."""
        import dataclasses

        from repro.sim import FlitLevelSimulator, RouterConfig

        cfg = SimConfig(
            warmup_ns=1000,
            measure_ns=2500,
            drain_ns=40000,
            seed=seed,
            router=RouterConfig.with_depth(lag, vc_buffer_flits=buf),
        )
        results = []
        for engine in ("cycle", None):
            topo, adapter = build_pipelined(adapter_kind, seed)
            pat = make_pattern(pattern, topo.n * cfg.hosts_per_switch)
            sim = FlitLevelSimulator(topo, adapter, pat, load, cfg, engine=engine)
            results.append(dataclasses.asdict(sim.run()))
        assert results[0] == results[1], (adapter_kind, pattern, load, lag, buf)
