"""Tests for the fault-injection subsystem (repro.faults).

The contracts under test, in order of importance:

1. every fault model is a pure function of (topology, params, seed);
2. a degraded topology can never be served the intact network's cached
   routing artifacts (fingerprint-keyed invalidation);
3. the flit simulator under a fault schedule is deterministic, drops
   only what sat on dead links, reroutes the rest, and its results are
   invariant to ``REPRO_WORKERS`` / ``REPRO_BFS_BLOCK``.
"""

import numpy as np
import pytest

from repro import cache
from repro.core import DSNTopology
from repro.faults import (
    FaultEvent,
    FaultSchedule,
    FaultSet,
    adaptive_escape_factory,
    bernoulli_link_faults,
    bernoulli_switch_faults,
    cabinet_burst_faults,
    cabinet_faults,
    degradation_point,
    induced_survivor,
    random_link_schedule,
    run_with_faults,
    sample_link_faults,
)
from repro.sim import SimConfig
from repro.topologies import RingTopology, TorusTopology


@pytest.fixture(autouse=True)
def fresh_cache():
    cache.clear_cache()
    yield
    cache.clear_cache()


QUICK = SimConfig(warmup_ns=2000, measure_ns=6000, drain_ns=12000, seed=3)


class TestFaultSet:
    def test_canonical_form(self):
        fs = FaultSet(dead_links=((5, 2), (1, 3), (2, 5)), dead_switches=(4, 4, 1))
        assert fs.dead_links == ((1, 3), (2, 5))
        assert fs.dead_switches == (1, 4)

    def test_apply_removes_links_keeps_nodes(self):
        t = DSNTopology(32)
        fs = sample_link_faults(t, 0.1, seed=0)
        s = fs.apply(t)
        assert s.n == t.n
        assert s.num_links == t.num_links - fs.num_dead_links
        for u, v in fs.dead_links:
            assert not s.has_link(u, v)

    def test_apply_rejects_unknown_elements(self):
        t = RingTopology(8)
        with pytest.raises(ValueError):
            FaultSet(dead_links=((0, 4),)).apply(t)  # not a ring link
        with pytest.raises(ValueError):
            FaultSet(dead_switches=(99,)).apply(t)

    def test_dead_switch_kills_incident_links(self):
        t = RingTopology(8)
        fs = FaultSet(dead_switches=(3,))
        s = fs.apply(t)
        assert s.num_links == 6  # ring loses both links at node 3
        assert s.degree(3) == 0

    def test_induced_survivor_excludes_dead_switches(self):
        t = RingTopology(8)
        surv, live = induced_survivor(t, FaultSet(dead_switches=(3,)))
        assert surv.n == 7
        assert 3 not in live.tolist()
        # path 2-3-4 is rerouted the long way round, so still connected
        assert surv.is_connected()


class TestModelDeterminism:
    @pytest.mark.parametrize("model,kwargs", [
        (bernoulli_link_faults, {"p": 0.08}),
        (bernoulli_switch_faults, {"p": 0.08}),
        (sample_link_faults, {"fail_fraction": 0.08}),
        (cabinet_burst_faults, {"bursts": 2}),
    ])
    def test_seed_stable(self, model, kwargs):
        t = DSNTopology(64)
        assert model(t, seed=7, **kwargs) == model(t, seed=7, **kwargs)
        # a different seed must (for these sizes) give a different set
        assert model(t, seed=7, **kwargs) != model(t, seed=8, **kwargs)

    def test_sample_exact_count(self):
        t = DSNTopology(64)
        fs = sample_link_faults(t, 0.1, seed=1)
        assert fs.num_dead_links == round(0.1 * t.num_links)

    def test_burst_is_spatially_clustered(self):
        """A burst's dead links concentrate around few cabinets; the
        same count of uniform faults spreads across many more."""
        from repro.layout import Floorplan

        t = TorusTopology.square(256, 2)
        burst = cabinet_burst_faults(t, seed=3, bursts=1, radius_m=2.0, decay_m=None)
        assert burst.num_dead_links > 0
        plan = Floorplan(t.n)
        cabs = {plan.cabinet_of(u) for u, v in burst.dead_links} | {
            plan.cabinet_of(v) for u, v in burst.dead_links
        }
        frac = round(burst.num_dead_links / t.num_links, 3)
        unif = sample_link_faults(t, frac, seed=3)
        cabs_u = {plan.cabinet_of(u) for u, v in unif.dead_links} | {
            plan.cabinet_of(v) for u, v in unif.dead_links
        }
        assert len(cabs) < len(cabs_u)

    def test_cabinet_faults_deterministic_kill(self):
        from repro.layout import Floorplan

        t = TorusTopology.square(64, 2)
        fs = cabinet_faults(t, [0])
        plan = Floorplan(t.n)
        for link in t.links:
            touching = plan.cabinet_of(link.u) == 0 or plan.cabinet_of(link.v) == 0
            assert fs.kills_link(link.u, link.v) == touching


class TestSchedule:
    def test_sorted_and_cumulative(self):
        t = DSNTopology(32)
        l0, l1 = t.links[0].endpoints(), t.links[5].endpoints()
        sched = FaultSchedule([
            FaultEvent(2000.0, FaultSet(dead_links=(l1,))),
            FaultEvent(1000.0, FaultSet(dead_links=(l0,))),
        ])
        assert [e.time_ns for e in sched] == [1000.0, 2000.0]
        assert sched.cumulative().dead_links == tuple(sorted((l0, l1)))

    def test_validate_rejects_duplicate_link(self):
        t = DSNTopology(32)
        l0 = t.links[0].endpoints()
        sched = FaultSchedule([
            FaultEvent(1000.0, FaultSet(dead_links=(l0,))),
            FaultEvent(2000.0, FaultSet(dead_links=(l0,))),
        ])
        with pytest.raises(ValueError, match="two events"):
            sched.validate(t)

    def test_validate_rejects_disconnection(self):
        r = RingTopology(8)
        sched = FaultSchedule([
            FaultEvent(1000.0, FaultSet(dead_links=(r.links[0].endpoints(),))),
            FaultEvent(2000.0, FaultSet(dead_links=(r.links[4].endpoints(),))),
        ])
        with pytest.raises(ValueError, match="disconnects"):
            sched.validate(r)

    def test_random_schedule_deterministic_and_disjoint(self):
        t = DSNTopology(64)
        a = random_link_schedule(t, [1000.0, 2000.0], 0.03, seed=9)
        b = random_link_schedule(t, [1000.0, 2000.0], 0.03, seed=9)
        assert [e.faults for e in a] == [e.faults for e in b]
        all_links = [l for e in a for l in e.faults.dead_links]
        assert len(all_links) == len(set(all_links))
        assert a.final_topology(t).is_connected()


class TestCacheInvalidation:
    """A degraded topology must never be served stale routing tables."""

    def test_survivor_fingerprint_differs(self):
        t = DSNTopology(64)
        fs = sample_link_faults(t, 0.05, seed=2)
        assert cache.topology_fingerprint(t) != cache.topology_fingerprint(fs.apply(t))

    def test_next_hops_avoid_dead_links(self):
        """With the cache hot for the intact network, the survivor's
        tables must be freshly derived: no next hop may use a dead link,
        in either the shortest-path or up*/down* tables."""
        t = DSNTopology(64)
        cache.shortest_path_table(t)  # memoize the intact graph's tables
        cache.updown_routing(t)

        fs = sample_link_faults(t, 0.05, seed=4)
        survivor = fs.apply(t)
        assert survivor.is_connected()
        dead = set(fs.dead_links)

        spt = cache.shortest_path_table(survivor)
        for dst in range(0, survivor.n, 7):
            for src in range(survivor.n):
                if src == dst:
                    continue
                for nh in spt.next_hops_array(src, dst):
                    pair = (src, int(nh)) if src < int(nh) else (int(nh), src)
                    assert pair not in dead, f"stale next hop {src}->{int(nh)}"

        ud = cache.updown_routing(survivor)
        for src in range(0, survivor.n, 5):
            for dst in range(0, survivor.n, 5):
                if src == dst:
                    continue
                path = ud.path(src, dst)
                for a, b in zip(path, path[1:]):
                    pair = (a, b) if a < b else (b, a)
                    assert pair not in dead, f"stale up*/down* hop {a}->{b}"


class TestDynamicFaults:
    def _run(self, seed=5, offered=4.0, schedule_seed=11):
        topo = DSNTopology(32)
        sched = random_link_schedule(
            topo, [3000.0, 5000.0], 0.04, seed=schedule_seed
        )
        return run_with_faults(topo, sched, offered_gbps=offered, config=QUICK), sched

    def test_requires_factory(self):
        from repro.sim import FlitLevelSimulator
        from repro.traffic import make_pattern

        topo = DSNTopology(32)
        sched = random_link_schedule(topo, [3000.0], 0.04, seed=1)
        factory = adaptive_escape_factory(QUICK)
        pattern = make_pattern("uniform", topo.n * QUICK.hosts_per_switch)
        with pytest.raises(ValueError, match="adapter_factory"):
            FlitLevelSimulator(
                topo, factory(topo), pattern, 2.0, QUICK, fault_schedule=sched
            )

    def test_rejects_switch_faults(self):
        from repro.sim import FlitLevelSimulator
        from repro.traffic import make_pattern

        topo = DSNTopology(32)
        sched = FaultSchedule([FaultEvent(1000.0, FaultSet(dead_switches=(3,)))])
        factory = adaptive_escape_factory(QUICK)
        pattern = make_pattern("uniform", topo.n * QUICK.hosts_per_switch)
        with pytest.raises(ValueError, match="link faults only"):
            FlitLevelSimulator(
                topo, factory(topo), pattern, 2.0, QUICK,
                fault_schedule=sched, adapter_factory=factory,
            )

    def test_deterministic_across_runs(self):
        r1, _ = self._run()
        r2, _ = self._run()
        assert r1.delivered_measured == r2.delivered_measured
        assert r1.packets_dropped == r2.packets_dropped
        assert r1.flits_dropped == r2.flits_dropped
        assert r1.latencies_ns == r2.latencies_ns
        assert [f.recovery_ns for f in r1.fault_records] == [
            f.recovery_ns for f in r2.fault_records
        ]

    def test_worker_env_invariant(self, monkeypatch):
        """The engine is single-process by design; REPRO_WORKERS must
        not leak into its results."""
        monkeypatch.setenv("REPRO_WORKERS", "1")
        r1, _ = self._run()
        monkeypatch.setenv("REPRO_WORKERS", "4")
        r2, _ = self._run()
        assert r1.latencies_ns == r2.latencies_ns
        assert r1.packets_dropped == r2.packets_dropped

    def test_every_measured_packet_accounted(self):
        r, sched = self._run()
        assert r.delivered_measured + r.dropped_measured == r.generated_measured
        assert len(r.fault_records) == len(sched.events)

    def test_recovery_and_post_fault_metrics(self):
        r, _ = self._run()
        for f in r.fault_records:
            assert f.links_failed > 0
            assert f.in_flight_at_fault >= 0
            # recovery resolved (the run drains fully at this load)
            assert f.recovery_ns == f.recovery_ns
            assert f.recovery_ns >= 0.0
        assert r.post_fault_window_ns > 0
        assert r.post_fault_accepted_gbps > 0

    def test_faults_actually_drop_at_high_load(self):
        r, _ = self._run(offered=8.0, schedule_seed=13)
        # At saturation the dead links are busy; something must die.
        assert r.packets_dropped > 0
        assert r.flits_dropped >= r.packets_dropped

    def test_no_faults_matches_plain_run(self):
        """An empty schedule must not perturb the engine."""
        from repro.sim import FlitLevelSimulator
        from repro.traffic import make_pattern

        topo = DSNTopology(32)
        factory = adaptive_escape_factory(QUICK)
        pattern = make_pattern("uniform", topo.n * QUICK.hosts_per_switch)
        plain = FlitLevelSimulator(topo, factory(topo), pattern, 4.0, QUICK).run()
        empty = FlitLevelSimulator(
            topo, factory(topo), pattern, 4.0, QUICK,
            fault_schedule=FaultSchedule([]), adapter_factory=factory,
        ).run()
        assert plain.latencies_ns == empty.latencies_ns
        assert plain.delivered_measured == empty.delivered_measured
        assert empty.packets_dropped == 0


def _reference_point(kind, n, fraction, trials, seed):
    """Degradation point from survivors rebuilt by ``FaultSet.apply`` at
    the trials' ``link_field`` thresholds, measured by the streaming BFS."""
    from repro.analysis.blocked import streaming_hop_stats
    from repro.experiments.sweeps import make_topology
    from repro.faults import DegradationPoint, link_field
    from repro.faults.percolation import canonical_links

    topo = make_topology(kind, n, seed=seed)
    uv = canonical_links(topo)
    base = streaming_hop_stats(topo)
    diams, aspls, retention = [], [], []
    for t in range(trials):
        field = link_field(len(uv), seed, t)
        dead = tuple((int(u), int(v)) for u, v in uv[field < fraction])
        survivor = FaultSet(dead_links=dead).apply(topo)
        if not survivor.is_connected():
            continue
        stats = streaming_hop_stats(survivor)
        diams.append(stats.diameter)
        aspls.append(stats.aspl)
        retention.append(survivor.num_links / topo.num_links * base.aspl / stats.aspl)
    mean = lambda xs: float(np.mean(xs)) if xs else float("nan")
    return DegradationPoint(
        name=topo.name, kind=kind, n=n, fail_fraction=fraction, trials=trials,
        connected_fraction=len(diams) / trials, mean_diameter=mean(diams),
        mean_aspl=mean(aspls), throughput_retention=mean(retention),
    )


class TestDegradationExperiment:
    @pytest.mark.parametrize("fraction", [0.05, 0.25])
    @pytest.mark.parametrize("kind", ["dsn", "torus"])
    def test_view_matches_faultset_oracle(self, kind, fraction):
        # At 25% loss some torus trials disconnect: the view must skip them.
        pt = degradation_point(kind, 64, fraction, trials=3, seed=0, workers=1)
        assert pt.connected_fraction > 0
        assert pt == _reference_point(kind, 64, fraction, trials=3, seed=0)

    def test_default_trials_ignore_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_TRIALS", "2")
        pt = degradation_point("dsn", 32, 0.05, seed=0, workers=1)
        assert pt.trials == 10

    def test_faults_resume_served_from_percolation_points(self, tmp_path, monkeypatch):
        from repro import store
        from repro.faults import degradation_curves, percolation_sweep

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_STORE", raising=False)
        kw = dict(n=32, trials=2, seed=0, workers=0)
        percolation_sweep(fractions=(0.0, 0.02, 0.05), **kw)
        store.clear_store()
        store.reset_store_stats()
        degradation_curves(fractions=(0.02, 0.05), **kw)
        stats = store.store_stats()
        assert stats.misses == 0 and stats.disk_hits > 0

    def test_worker_invariant(self):
        a = degradation_point("dsn", 64, 0.05, trials=3, seed=0, workers=1)
        b = degradation_point("dsn", 64, 0.05, trials=3, seed=0, workers=2)
        assert a == b

    def test_block_size_invariant(self, monkeypatch):
        monkeypatch.setenv("REPRO_BFS_BLOCK", "17")
        a = degradation_point("torus", 64, 0.05, trials=3, seed=0)
        monkeypatch.setenv("REPRO_BFS_BLOCK", "64")
        b = degradation_point("torus", 64, 0.05, trials=3, seed=0)
        assert a == b

    def test_zero_fraction_is_baseline(self):
        from repro.analysis import analyze

        pt = degradation_point("dsn", 64, 0.0, trials=2, seed=0, workers=1)
        m = analyze(DSNTopology(64))
        assert pt.connected_fraction == 1.0
        assert pt.mean_diameter == m.diameter
        assert pt.mean_aspl == pytest.approx(m.aspl)
        assert pt.throughput_retention == pytest.approx(1.0)

    def test_artifact_roundtrip(self, tmp_path):
        import json

        from repro.faults import degradation_artifact

        out = tmp_path / "deg.json"
        _, points = degradation_artifact(
            out, n=64, fractions=(0.0, 0.05), trials=2, kinds=("dsn",), workers=1
        )
        data = json.loads(out.read_text())
        assert data["engine"] == "percolation"
        assert len(data["points"]) == len(points) == 2
        assert data["points"][1]["fail_fraction"] == 0.05
