"""Tests for the pipelined multi-VC router (repro.sim.router).

Pins the subsystem's contracts:

* resolver errors name the accepted values (router modes, and the
  same contract on flit engines); no environment variable picks either;
* RouterConfig validation and depth accounting;
* deterministic LRG arbitration (starvation-freedom, canonical
  tie-break, per-resource independence);
* zero-load timing: a lag-matched pipelined run is byte-identical to
  the ideal model, and any other depth differs by exactly the closed
  form ``(hops + 1) * (lag - ideal_cycles) * flit_time_ns``;
* DSN-V channel-class enforcement: fewer VCs than Section V-A's four
  classes is rejected with a clear error;
* store keys carry pipelined parameters but ignore inert ideal ones;
* ``router.*`` telemetry counters; engine-spelling equivalence; the
  router design-space sweep's shape.
"""

import dataclasses

import numpy as np
import pytest

from repro import store, telemetry
from repro.core.extensions import DSNVTopology, dsn_route_extended
from repro.sim import (
    FlitLevelSimulator,
    LRGArbiter,
    ROUTER_MODES,
    RouterConfig,
    SimConfig,
    dsn_custom_adapter,
    resolve_flit_engine,
    resolve_router,
)
from repro.sim.adapters import DSN_V_MIN_VCS
from repro.traffic import make_pattern

#: The ideal router's lumped lag at the default parameters:
#: ceil(100 ns / (256 bit / 96 Gbps)) cycles.
IDEAL_CYCLES = 38

BASE = dict(warmup_ns=1500, measure_ns=6000, drain_ns=12000, seed=3)


def _run(rcfg, load=0.1, num_vcs=4, drain=None, topo=None):
    """One DSN-V custom-routing flit run under the given router config."""
    base = dict(BASE)
    if drain is not None:
        base["drain_ns"] = drain
    cfg = SimConfig(router=rcfg, num_vcs=num_vcs, **base)
    topo = topo or DSNVTopology(16)
    adapter = dsn_custom_adapter(
        lambda s, t: dsn_route_extended(topo, s, t), num_vcs=cfg.num_vcs
    )
    pattern = make_pattern("uniform", topo.n * cfg.hosts_per_switch)
    return FlitLevelSimulator(topo, adapter, pattern, load, cfg).run()


# ----------------------------------------------------------------------
# resolvers (satellite: clear errors naming the accepted values)
# ----------------------------------------------------------------------
class TestResolvers:
    """Only explicit arguments choose the router model or the flit run
    loop; the retired ``REPRO_ROUTER`` / ``REPRO_FLIT_ENGINE``
    variables are ignored."""

    def test_router_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ROUTER", "pipelined")
        assert resolve_router("ideal") == "ideal"
        assert resolve_router(" Pipelined ") == "pipelined"

    def test_router_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_ROUTER", raising=False)
        assert resolve_router() == "ideal"
        monkeypatch.setenv("REPRO_ROUTER", "pipelined")
        assert resolve_router() == "ideal"
        assert RouterConfig().mode == "ideal"

    def test_router_unknown_names_accepted_values(self):
        with pytest.raises(ValueError) as exc:
            RouterConfig(mode="warp")
        msg = str(exc.value)
        assert "warp" in msg
        for mode in ROUTER_MODES:
            assert mode in msg

    def test_router_unknown_env_value(self, monkeypatch):
        """An unknown value in the retired variable is ignored, not
        validated: the default stays ``ideal``."""
        monkeypatch.setenv("REPRO_ROUTER", "bogus")
        assert resolve_router() == "ideal"

    def test_flit_engine_unknown_names_accepted_values(self):
        with pytest.raises(ValueError) as exc:
            resolve_flit_engine("quantum")
        msg = str(exc.value)
        assert "quantum" in msg
        assert "event" in msg and "cycle" in msg

    def test_flit_engine_unknown_env_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLIT_ENGINE", "warp")
        assert resolve_flit_engine() == "event"

    def test_simconfig_ignores_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ROUTER", "pipelined")
        assert not SimConfig().router.pipelined
        assert SimConfig().router == SimConfig(router=RouterConfig(mode="ideal")).router

    def test_env_leaves_run_loop_and_results_unchanged(self, monkeypatch):
        base = dataclasses.asdict(_run(RouterConfig()))
        monkeypatch.setenv("REPRO_ROUTER", "pipelined")
        monkeypatch.setenv("REPRO_FLIT_ENGINE", "cycle")
        assert dataclasses.asdict(_run(RouterConfig())) == base


# ----------------------------------------------------------------------
# RouterConfig
# ----------------------------------------------------------------------
class TestRouterConfig:
    def test_depth_accounting(self):
        rc = RouterConfig(mode="pipelined", rc_cycles=3, va_cycles=2, sa_cycles=2, st_cycles=1)
        assert rc.depth == 8
        assert rc.hop_lag_cycles == 6  # rc + va + (sa-1) + (st-1)

    def test_with_depth_exact_lag(self):
        for lag in (2, 10, 38):
            rc = RouterConfig.with_depth(lag)
            assert rc.pipelined and rc.hop_lag_cycles == lag

    def test_with_depth_floor(self):
        with pytest.raises(ValueError, match="at least 2"):
            RouterConfig.with_depth(1)

    def test_stage_depths_positive(self):
        with pytest.raises(ValueError):
            RouterConfig(mode="pipelined", rc_cycles=0)

    def test_vc_buffer_validated(self):
        with pytest.raises(ValueError, match="vc_buffer_flits"):
            RouterConfig(mode="pipelined", vc_buffer_flits=0)
        assert RouterConfig(vc_buffer_flits=None).vc_buffer_flits is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="turbo"):
            RouterConfig(mode="turbo")


# ----------------------------------------------------------------------
# LRG arbitration
# ----------------------------------------------------------------------
class TestLRGArbiter:
    def test_tiebreak_lowest_id(self):
        assert LRGArbiter().grant(0, [7, 3, 5]) == 3

    def test_rotates_under_persistent_requests(self):
        arb = LRGArbiter()
        grants = [arb.grant(0, [1, 2, 3]) for _ in range(9)]
        # Starvation-free: every requester granted equally often, in
        # the deterministic aging order.
        assert grants == [1, 2, 3] * 3

    def test_new_requester_ranks_oldest(self):
        arb = LRGArbiter()
        arb.grant(0, [1, 2])
        arb.grant(0, [1, 2])
        assert arb.grant(0, [1, 2, 9]) == 9  # never granted -> oldest

    def test_resources_independent(self):
        arb = LRGArbiter()
        assert arb.grant(0, [1, 2]) == 1
        assert arb.grant(1, [1, 2]) == 1  # history on resource 0 irrelevant
        assert arb.grant(0, [1, 2]) == 2

    def test_last_grant_seq(self):
        arb = LRGArbiter()
        assert arb.last_grant_seq(0, 1) == -1
        arb.grant(0, [1])
        assert arb.last_grant_seq(0, 1) == 1


# ----------------------------------------------------------------------
# zero-load timing (the bench gate's contract, in miniature)
# ----------------------------------------------------------------------
class TestZeroLoadTiming:
    def test_lag_matched_pipelined_is_byte_identical_to_ideal(self):
        ideal = _run(RouterConfig(mode="ideal"))
        matched = _run(RouterConfig.with_depth(IDEAL_CYCLES))
        assert dataclasses.asdict(ideal) == dataclasses.asdict(matched)

    @pytest.mark.parametrize("lag", [2, 10, 44])
    def test_closed_form_depth_offset(self, lag):
        flit_ns = SimConfig().flit_time_ns
        ideal = _run(RouterConfig(mode="ideal"))
        piped = _run(RouterConfig.with_depth(lag))
        adjusted = sorted(
            lat - (hops + 1) * (lag - IDEAL_CYCLES) * flit_ns
            for lat, hops in zip(piped.latencies_ns, piped.hop_counts)
        )
        reference = sorted(ideal.latencies_ns)
        assert len(adjusted) == len(reference) > 0
        assert all(abs(a - b) < 1e-6 for a, b in zip(adjusted, reference))

    def test_engine_spellings_identical_in_pipelined_mode(self):
        cfg = SimConfig(router=RouterConfig.with_depth(4), **BASE)
        topo = DSNVTopology(16)
        results = []
        for engine in ("cycle", "event"):
            adapter = dsn_custom_adapter(
                lambda s, t: dsn_route_extended(topo, s, t), num_vcs=cfg.num_vcs
            )
            pattern = make_pattern("uniform", topo.n * cfg.hosts_per_switch)
            sim = FlitLevelSimulator(topo, adapter, pattern, 2.0, cfg, engine=engine)
            results.append(dataclasses.asdict(sim.run()))
        assert results[0] == results[1]

    def test_wormhole_pipelined_delivers(self):
        r = _run(
            RouterConfig.with_depth(4, vc_buffer_flits=4),
            load=2.0,
            drain=80000,
        )
        assert r.delivered_fraction == 1.0
        assert r.delivered_measured > 0


# ----------------------------------------------------------------------
# DSN-V channel-class enforcement
# ----------------------------------------------------------------------
class TestDSNVChannelClasses:
    def test_adapter_rejects_too_few_vcs(self):
        topo = DSNVTopology(16)
        with pytest.raises(ValueError) as exc:
            dsn_custom_adapter(lambda s, t: dsn_route_extended(topo, s, t), num_vcs=3)
        msg = str(exc.value)
        assert "Section V-A" in msg and str(DSN_V_MIN_VCS) in msg

    def test_simulator_rejects_config_below_min_vcs(self):
        topo = DSNVTopology(16)
        adapter = dsn_custom_adapter(lambda s, t: dsn_route_extended(topo, s, t))
        cfg = SimConfig(num_vcs=2, **BASE)
        pattern = make_pattern("uniform", topo.n * cfg.hosts_per_switch)
        with pytest.raises(ValueError, match="virtual channels"):
            FlitLevelSimulator(topo, adapter, pattern, 1.0, cfg)

    def test_min_vcs_satisfied_runs(self):
        r = _run(RouterConfig.with_depth(2), load=1.0, num_vcs=DSN_V_MIN_VCS)
        assert r.delivered_fraction == 1.0


# ----------------------------------------------------------------------
# store keys
# ----------------------------------------------------------------------
class TestStoreKeys:
    def _key(self, rcfg):
        topo = DSNVTopology(16)
        cfg = SimConfig(router=rcfg, **BASE)
        return store.sim_run_key(topo, "custom", "uniform", 2.0, cfg, 3, engine="flit")

    def test_pipelined_params_reach_keys(self):
        assert (
            self._key(RouterConfig.with_depth(2)).digest
            != self._key(RouterConfig.with_depth(38)).digest
        )
        assert (
            self._key(RouterConfig.with_depth(2, vc_buffer_flits=4)).digest
            != self._key(RouterConfig.with_depth(2, vc_buffer_flits=8)).digest
        )

    def test_ideal_keys_ignore_inert_params(self):
        assert (
            self._key(RouterConfig(mode="ideal")).digest
            == self._key(RouterConfig(mode="ideal", rc_cycles=7, vc_buffer_flits=4)).digest
        )

    def test_modes_never_collide(self):
        assert (
            self._key(RouterConfig(mode="ideal")).digest
            != self._key(RouterConfig.with_depth(IDEAL_CYCLES)).digest
        )


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
class TestRouterTelemetry:
    def test_counters_recorded(self):
        telemetry.reset()
        telemetry.enable()
        try:
            _run(RouterConfig.with_depth(4), load=2.0)
            reg = telemetry.get_registry()
            assert reg.counter("router.rc_done").value > 0
            assert reg.counter("router.va_requests").value >= reg.counter(
                "router.va_grants"
            ).value > 0
            assert reg.counter("router.sa_grants").value > 0
        finally:
            telemetry.reset()
            telemetry.refresh_from_env()

    def test_results_identical_with_telemetry(self):
        off = _run(RouterConfig.with_depth(4), load=2.0)
        telemetry.reset()
        telemetry.enable()
        try:
            on = _run(RouterConfig.with_depth(4), load=2.0)
        finally:
            telemetry.reset()
            telemetry.refresh_from_env()
        assert off.latencies_ns == on.latencies_ns
        assert off.hop_counts == on.hop_counts
        assert not off.telemetry and bool(on.telemetry)


# ----------------------------------------------------------------------
# router design-space sweep
# ----------------------------------------------------------------------
class TestRouterSweep:
    def test_shape_and_reference_rows(self):
        from repro.experiments import router_sweep

        rows = router_sweep(
            vcs=(4,), buffers=(33,), depths=(2, 38),
            load=0.1, n=16, config=SimConfig(**BASE), seed=1, workers=0,
        )
        assert len(rows) == 3  # 1 ideal reference + 2 grid points
        ideal_rows = [r for r in rows if r.hop_lag_cycles is None]
        assert len(ideal_rows) == 1 and ideal_rows[0].vc_buffer_flits is None
        assert all(r.delivered > 0 for r in rows)
        # At contention-free load with a VCT-depth buffer, the
        # lag-matched grid point reproduces the ideal reference.
        matched = next(r for r in rows if r.hop_lag_cycles == 38)
        assert matched.avg_latency_ns == pytest.approx(ideal_rows[0].avg_latency_ns)
        shallow = next(r for r in rows if r.hop_lag_cycles == 2)
        assert shallow.avg_latency_ns < matched.avg_latency_ns

    def test_format(self):
        from repro.experiments import format_router_sweep, router_sweep

        rows = router_sweep(
            vcs=(4,), buffers=(8,), depths=(2,),
            load=1.0, n=16, config=SimConfig(**BASE), seed=1, workers=0,
        )
        text = format_router_sweep(rows)
        assert "hop lag" in text and "ideal" in text
