"""Tests for the flit-level simulator: model behavior, plus the
bit-identity contract between its event-driven run loop (default) and
the linear cycle scan it replaced."""

import dataclasses

import numpy as np
import pytest

from repro.core import DSNTopology
from repro.routing import DuatoAdaptiveRouting
from repro.sim import (
    AdaptiveEscapeAdapter,
    FlitLevelSimulator,
    NetworkSimulator,
    SimConfig,
)
from repro.topologies import TorusTopology
from repro.traffic import make_pattern

CFG = SimConfig(warmup_ns=2000, measure_ns=6000, drain_ns=12000, seed=3)


def run_flit(topo, load, buffer_flits=None, cfg=CFG, seed=0, pattern="uniform",
             engine=None):
    routing = DuatoAdaptiveRouting(topo)
    adapter = AdaptiveEscapeAdapter(routing, cfg.num_vcs, np.random.default_rng(seed))
    pat = make_pattern(pattern, topo.n * cfg.hosts_per_switch)
    return FlitLevelSimulator(
        topo, adapter, pat, load, cfg, buffer_flits=buffer_flits, engine=engine
    ).run()


def run_event(topo, load, cfg=CFG, seed=0, pattern="uniform"):
    routing = DuatoAdaptiveRouting(topo)
    adapter = AdaptiveEscapeAdapter(routing, cfg.num_vcs, np.random.default_rng(seed))
    pat = make_pattern(pattern, topo.n * cfg.hosts_per_switch)
    return NetworkSimulator(topo, adapter, pat, load, cfg).run()


class TestCrossValidation:
    """The flit engine and the event engine must agree where their
    models coincide (VCT, low load)."""

    def test_zero_load_latency_agreement(self):
        topo = DSNTopology(16)
        rf = run_flit(topo, 0.5)
        re = run_event(topo, 0.5)
        assert rf.avg_latency_ns == pytest.approx(re.avg_latency_ns, rel=0.05)

    def test_zero_load_matches_analytic(self):
        topo = DSNTopology(16)
        r = run_flit(topo, 0.5)
        predicted = CFG.zero_load_latency_ns(r.avg_hops)
        # cycle quantization rounds the router/link delays up slightly
        assert r.avg_latency_ns == pytest.approx(predicted, rel=0.05)

    def test_hop_agreement(self):
        topo = TorusTopology((4, 4))
        rf = run_flit(topo, 1.0)
        re = run_event(topo, 1.0)
        assert rf.avg_hops == pytest.approx(re.avg_hops, abs=0.25)


class TestDelivery:
    def test_all_measured_delivered(self):
        r = run_flit(DSNTopology(16), 2.0)
        assert r.delivered_fraction == 1.0
        assert r.generated_measured > 0

    def test_flit_conservation_under_load(self):
        """No flits lost even at high load (every measured packet that
        is delivered has exactly the configured size accounted)."""
        r = run_flit(DSNTopology(16), 10.0)
        assert r.delivered_fraction == 1.0

    def test_deterministic(self):
        a = run_flit(DSNTopology(16), 3.0, seed=5)
        b = run_flit(DSNTopology(16), 3.0, seed=5)
        assert a.avg_latency_ns == b.avg_latency_ns


class TestWormhole:
    def test_small_buffers_increase_latency(self):
        """Buffers below the credit round trip stretch serialization --
        the classic wormhole stall."""
        topo = DSNTopology(16)
        vct = run_flit(topo, 6.0, buffer_flits=33)
        worm = run_flit(topo, 6.0, buffer_flits=4)
        assert worm.avg_latency_ns > vct.avg_latency_ns

    def test_wormhole_still_delivers(self):
        r = run_flit(DSNTopology(16), 8.0, buffer_flits=4)
        assert r.delivered_fraction == 1.0

    def test_buffer_validation(self):
        topo = DSNTopology(16)
        routing = DuatoAdaptiveRouting(topo)
        adapter = AdaptiveEscapeAdapter(routing, 4, np.random.default_rng(0))
        pat = make_pattern("uniform", 64)
        with pytest.raises(ValueError):
            FlitLevelSimulator(topo, adapter, pat, 1.0, CFG, buffer_flits=0)


class TestValidation:
    def test_pattern_mismatch(self):
        topo = DSNTopology(16)
        routing = DuatoAdaptiveRouting(topo)
        adapter = AdaptiveEscapeAdapter(routing, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            FlitLevelSimulator(topo, adapter, make_pattern("uniform", 32), 1.0, CFG)


class TestFastForward:
    """The idle fast-forward must be invisible: jumping over cycles in
    which the network would do nothing cannot change any result."""

    @staticmethod
    def _run(load, ff, buffer_flits=None, pattern="uniform"):
        topo = DSNTopology(16)
        routing = DuatoAdaptiveRouting(topo)
        adapter = AdaptiveEscapeAdapter(routing, CFG.num_vcs, np.random.default_rng(0))
        pat = make_pattern(pattern, topo.n * CFG.hosts_per_switch)
        # The fast-forward flag only concerns the linear cycle scan;
        # the event engine never visits idle cycles in the first place.
        sim = FlitLevelSimulator(
            topo, adapter, pat, load, CFG, buffer_flits=buffer_flits, engine="cycle"
        )
        sim._fast_forward = ff
        return sim.run(), sim._ff_cycles_skipped

    @pytest.mark.parametrize("load", [0.25, 1.0, 4.0])
    def test_bit_identical_to_linear_scan(self, load):
        linear, _ = self._run(load, False)
        fast, skipped = self._run(load, True)
        assert fast.latencies_ns == linear.latencies_ns
        assert fast.hop_counts == linear.hop_counts
        assert fast.generated_measured == linear.generated_measured
        assert fast.delivered_measured == linear.delivered_measured
        assert fast.delivered_in_window_bits == linear.delivered_in_window_bits
        assert fast.delivered_in_window_count == linear.delivered_in_window_count
        assert fast.channel_busy_ns == linear.channel_busy_ns
        if load <= 1.0:
            assert skipped > 0  # low load actually has idle stretches

    def test_bit_identical_wormhole(self):
        linear, _ = self._run(1.0, False, buffer_flits=4)
        fast, _ = self._run(1.0, True, buffer_flits=4)
        assert fast.latencies_ns == linear.latencies_ns
        assert fast.channel_busy_ns == linear.channel_busy_ns

    def test_linear_scan_never_skips(self):
        _, skipped = self._run(0.25, False)
        assert skipped == 0

    def test_fast_forward_is_default(self):
        assert FlitLevelSimulator._fast_forward is True


def _as_dict(result):
    """Every SimResult field (nested dataclasses included) for exact
    byte-for-byte comparison."""
    return dataclasses.asdict(result)


class TestEngineEquivalence:
    """The tentpole contract: the event-driven run loop must produce
    byte-identical SimResults to the linear cycle scan across the whole
    configuration matrix -- loads from near-zero to saturation, VCT and
    wormhole, mid-run faults, telemetry sampling, and tracing."""

    @staticmethod
    def _pair(load, buffer_flits=None, pattern="uniform", cfg=CFG, seed=0, **kw):
        topo = DSNTopology(16)

        def run(engine):
            routing = DuatoAdaptiveRouting(topo)
            adapter = AdaptiveEscapeAdapter(
                routing, cfg.num_vcs, np.random.default_rng(seed)
            )
            pat = make_pattern(pattern, topo.n * cfg.hosts_per_switch)
            return FlitLevelSimulator(
                topo, adapter, pat, load, cfg,
                buffer_flits=buffer_flits, engine=engine, **kw,
            ).run()

        return run("cycle"), run("event")

    @pytest.mark.parametrize("load", [0.05, 0.5, 2.0, 8.0])
    def test_bit_identical_vct(self, load):
        cyc, evt = self._pair(load)
        assert _as_dict(cyc) == _as_dict(evt)

    @pytest.mark.parametrize("load", [0.5, 4.0])
    def test_bit_identical_wormhole(self, load):
        cyc, evt = self._pair(load, buffer_flits=4)
        assert _as_dict(cyc) == _as_dict(evt)

    def test_bit_identical_nonuniform_pattern(self):
        cyc, evt = self._pair(2.0, pattern="neighboring")
        assert _as_dict(cyc) == _as_dict(evt)

    def test_bit_identical_zero_traffic(self):
        """A horizon with no measured deliveries still terminates the
        same way (drain probes are events too)."""
        cyc, evt = self._pair(0.001)
        assert _as_dict(cyc) == _as_dict(evt)

    def test_bit_identical_with_midrun_faults(self):
        from repro.faults import adaptive_escape_factory, random_link_schedule

        topo = DSNTopology(32)
        sched = random_link_schedule(topo, [3000.0, 5000.0], 0.04, seed=11)
        factory = adaptive_escape_factory(CFG)
        pat = make_pattern("uniform", topo.n * CFG.hosts_per_switch)

        def run(engine):
            return FlitLevelSimulator(
                topo, factory(topo), pat, 4.0, CFG,
                fault_schedule=sched, adapter_factory=factory, engine=engine,
            ).run()

        cyc, evt = run("cycle"), run("event")
        d_cyc, d_evt = _as_dict(cyc), _as_dict(evt)
        for d in (d_cyc, d_evt):
            for record in d["fault_records"]:
                # Wall-clock self-measurement of the adapter rebuild;
                # everything simulated must still match exactly.
                record.pop("reroute_wall_s")
        assert d_cyc == d_evt
        assert cyc.fault_records  # the schedule actually fired

    def test_bit_identical_with_sampler(self):
        from repro import telemetry

        was = telemetry.enabled()
        telemetry.enable()
        try:
            cyc, evt = self._pair(2.0)
        finally:
            if not was:
                telemetry.disable()
        assert cyc.telemetry  # sampler actually attached
        d_cyc, d_evt = _as_dict(cyc), _as_dict(evt)
        # Wall-clock self-measurements legitimately differ between runs.
        for d in (d_cyc, d_evt):
            d["telemetry"] = {
                k: v for k, v in d["telemetry"].items() if "wall" not in k
            }
        assert d_cyc == d_evt

    def test_bit_identical_pipelined_with_midrun_faults_and_sampler(self):
        """The pipelined router on the default (event) loop against the
        cycle-scan oracle, with live rerouting and telemetry sampling."""
        from repro import telemetry
        from repro.faults import adaptive_escape_factory, random_link_schedule
        from repro.sim import RouterConfig

        # Deep SA/ST stages: the send lag differs from the ideal
        # router's, so any cycle the event loop skips while units are
        # busy shows up in the results.
        rcfg = RouterConfig(
            mode="pipelined", rc_cycles=2, sa_cycles=2, st_cycles=2, vc_buffer_flits=8
        )
        cfg = dataclasses.replace(CFG, router=rcfg)
        topo = DSNTopology(32)
        sched = random_link_schedule(topo, [3000.0, 5000.0], 0.04, seed=11)
        factory = adaptive_escape_factory(cfg)
        pat = make_pattern("uniform", topo.n * cfg.hosts_per_switch)

        def run(engine):
            return FlitLevelSimulator(
                topo, factory(topo), pat, 4.0, cfg,
                fault_schedule=sched, adapter_factory=factory, engine=engine,
            ).run()

        was = telemetry.enabled()
        telemetry.enable()
        try:
            cyc, evt = run("cycle"), run(None)
        finally:
            if not was:
                telemetry.disable()
        assert cyc.fault_records and cyc.telemetry  # faults fired, sampler attached
        d_cyc, d_evt = _as_dict(cyc), _as_dict(evt)
        for d in (d_cyc, d_evt):
            for record in d["fault_records"]:
                record.pop("reroute_wall_s")
            d["telemetry"] = {k: v for k, v in d["telemetry"].items() if "wall" not in k}
        assert d_cyc == d_evt

    def test_bit_identical_with_tracer(self):
        from repro.sim.trace import TraceRecorder

        traces = {}

        def run(engine):
            topo = DSNTopology(16)
            routing = DuatoAdaptiveRouting(topo)
            adapter = AdaptiveEscapeAdapter(routing, CFG.num_vcs, np.random.default_rng(0))
            pat = make_pattern("uniform", topo.n * CFG.hosts_per_switch)
            tracer = TraceRecorder()
            res = FlitLevelSimulator(
                topo, adapter, pat, 2.0, CFG, tracer=tracer, engine=engine
            ).run()
            traces[engine] = tracer.events
            return res

        cyc, evt = run("cycle"), run("event")
        assert _as_dict(cyc) == _as_dict(evt)
        assert traces["cycle"] == traces["event"]

    def test_bit_identical_cycle_without_fast_forward(self):
        """The event engine matches the plain linear scan too, not just
        the fast-forwarding one."""
        topo = DSNTopology(16)

        def run(engine, ff):
            routing = DuatoAdaptiveRouting(topo)
            adapter = AdaptiveEscapeAdapter(routing, CFG.num_vcs, np.random.default_rng(0))
            pat = make_pattern("uniform", topo.n * CFG.hosts_per_switch)
            sim = FlitLevelSimulator(topo, adapter, pat, 0.5, CFG, engine=engine)
            sim._fast_forward = ff
            return sim.run()

        assert _as_dict(run("cycle", False)) == _as_dict(run("event", True))


class TestEngineSelection:
    """``engine=`` is the only run-loop selector: the event loop is the
    default (and the only production loop), ``cycle`` the reference
    oracle. No environment variable chooses between them."""

    @staticmethod
    def _sim(**kw):
        topo = DSNTopology(16)
        routing = DuatoAdaptiveRouting(topo)
        adapter = AdaptiveEscapeAdapter(routing, CFG.num_vcs, np.random.default_rng(0))
        pat = make_pattern("uniform", topo.n * CFG.hosts_per_switch)
        return FlitLevelSimulator(topo, adapter, pat, 1.0, CFG, **kw)

    def test_default_is_event(self):
        assert self._sim().engine == "event"

    def test_env_selects_cycle(self, monkeypatch):
        """The retired ``REPRO_FLIT_ENGINE`` variable no longer selects
        the cycle scan: the default stays the event loop."""
        monkeypatch.setenv("REPRO_FLIT_ENGINE", "cycle")
        assert self._sim().engine == "event"

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLIT_ENGINE", "event")
        assert self._sim(engine="cycle").engine == "cycle"

    def test_invalid_engine_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLIT_ENGINE", "warp")
        self._sim()  # the variable is ignored, not validated
        with pytest.raises(ValueError, match="warp") as exc:
            self._sim(engine="warp")
        assert "event" in str(exc.value) and "cycle" in str(exc.value)

    def test_env_default_and_override_agree_bitwise(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLIT_ENGINE", "cycle")
        via_env = run_flit(DSNTopology(16), 1.0)
        monkeypatch.delenv("REPRO_FLIT_ENGINE")
        via_default = run_flit(DSNTopology(16), 1.0)
        assert _as_dict(via_env) == _as_dict(via_default)

    def test_env_leaves_run_key_unchanged(self, monkeypatch):
        """Neither retired variable reaches a flit run's store key."""
        from repro import store

        def key():
            return store.sim_run_key(
                DSNTopology(16), "adaptive", "uniform", 1.0, SimConfig(), 1, engine="flit"
            )

        base = key()
        monkeypatch.setenv("REPRO_FLIT_ENGINE", "cycle")
        monkeypatch.setenv("REPRO_ROUTER", "pipelined")
        assert key() == base


class TestBusyUnits:
    """The incremental sorted busy set must track a plain sorted set
    exactly under any interleaving of adds and discards."""

    def test_matches_reference_under_random_ops(self):
        from repro.sim.flitsim import _BusyUnits

        rng = np.random.default_rng(42)
        busy = _BusyUnits()
        ref: set[int] = set()
        for _ in range(3000):
            uid = int(rng.integers(0, 64))
            if rng.random() < 0.55:
                busy.add(uid)
                ref.add(uid)
            else:
                busy.discard(uid)
                ref.discard(uid)
            assert bool(busy) == bool(ref)
        assert list(busy.snapshot()) == sorted(ref)
        assert list(busy) == sorted(ref)

    def test_snapshot_is_stable_while_mutating(self):
        from repro.sim.flitsim import _BusyUnits

        busy = _BusyUnits()
        for uid in (5, 1, 9):
            busy.add(uid)
        snap = busy.snapshot()
        busy.discard(1)
        busy.add(7)
        assert list(snap) == [1, 5, 9]  # the iteration copy is immutable
        assert list(busy.snapshot()) == [5, 7, 9]
