"""Tests for the per-topology artifact cache (repro.cache).

The cache must be invisible: every artifact it returns -- distance
matrices, next-hop tables, path counts, up*/down* tables, simulation
results built on them -- must be identical whether it came from a fresh
computation or a memoized entry. Hits, misses and evictions are read
from the telemetry counters.
"""

import numpy as np
import pytest

from repro import cache, telemetry
from repro.analysis import analyze
from repro.core import DSNTopology
from repro.experiments import make_topology
from repro.routing.table import ShortestPathTable
from repro.routing.updown import UpDownRouting
from repro.topologies import DLNRandomTopology, TorusTopology


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts with an empty cache and zeroed counters."""
    telemetry.reset()
    telemetry.enable()
    cache.clear_cache()
    yield
    cache.clear_cache()
    telemetry.reset()
    telemetry.refresh_from_env()


def _count(name: str) -> int:
    counter = telemetry.get_registry().counters.get(name)
    return 0 if counter is None else counter.value


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        a = DSNTopology(64)
        b = DSNTopology(64)
        assert a is not b
        assert cache.topology_fingerprint(a) == cache.topology_fingerprint(b)

    def test_stable_across_seeded_rebuilds(self):
        a = DLNRandomTopology(64, 2, 2, seed=5)
        b = DLNRandomTopology(64, 2, 2, seed=5)
        assert cache.topology_fingerprint(a) == cache.topology_fingerprint(b)

    def test_seed_changes_fingerprint(self):
        a = DLNRandomTopology(64, 2, 2, seed=5)
        b = DLNRandomTopology(64, 2, 2, seed=6)
        assert cache.topology_fingerprint(a) != cache.topology_fingerprint(b)

    def test_distinct_topologies_distinct(self):
        assert cache.topology_fingerprint(DSNTopology(64)) != cache.topology_fingerprint(
            TorusTopology.square(64, 2)
        )
        assert cache.topology_fingerprint(DSNTopology(64)) != cache.topology_fingerprint(
            DSNTopology(128)
        )


class TestAccounting:
    def test_miss_then_memory_hit(self):
        topo = DSNTopology(32)
        d1 = cache.distance_matrix(topo)
        assert (_count("cache.misses"), _count("cache.memory.hits")) == (1, 0)
        d2 = cache.distance_matrix(topo)
        assert (_count("cache.misses"), _count("cache.memory.hits")) == (1, 1)
        # The resident entry is the int16 pack; callers get equal fresh
        # float64 views unpacked from it, not one shared mutable array.
        np.testing.assert_array_equal(d1, d2)
        assert d1.dtype == d2.dtype == np.float64

    def test_rebuilt_topology_hits_by_fingerprint(self):
        d1 = cache.distance_matrix(DSNTopology(32))
        d2 = cache.distance_matrix(DSNTopology(32))
        assert _count("cache.memory.hits") == 1
        np.testing.assert_array_equal(d1, d2)

    def test_memory_tier_holds_int16_pack(self):
        topo = DSNTopology(32)
        cache.distance_matrix(topo)
        entry = cache._peek((cache.topology_fingerprint(topo), "dist"))
        assert entry is not None
        assert entry["dist_i16"].dtype == np.int16

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr(cache, "MEMORY_CAPACITY", 2)
        for n in (16, 32, 64):
            cache.distance_matrix(DSNTopology(n))
        assert _count("cache.evictions") == 1
        # The evicted (oldest) entry recomputes; the newest still hits.
        cache.distance_matrix(DSNTopology(64))
        assert _count("cache.memory.hits") == 1
        cache.distance_matrix(DSNTopology(16))
        assert _count("cache.misses") == 4


class TestArtifactsMatchFresh:
    """Cached artifacts == independently computed ones (the cache must
    never change numbers)."""

    def test_distance_matrix_matches_fresh(self):
        from repro.analysis.metrics import shortest_path_matrix

        topo = DSNTopology(48)
        cache.distance_matrix(topo)
        hit = cache.distance_matrix(DSNTopology(48))
        assert _count("cache.memory.hits") == 1
        np.testing.assert_array_equal(hit, shortest_path_matrix(topo))

    def test_next_hops_match_brute_force(self):
        topo = DSNTopology(24)
        table = cache.shortest_path_table(topo)
        dist = cache.distance_matrix(topo)
        neighbors = {u: sorted(topo.neighbors(u)) for u in range(topo.n)}
        for u in range(topo.n):
            for t in range(topo.n):
                expect = (
                    []
                    if u == t
                    else [v for v in neighbors[u] if dist[v, t] == dist[u, t] - 1]
                )
                assert table.next_hops(u, t) == expect, (u, t)

    def test_path_counts_match_brute_force(self):
        topo = DSNTopology(24)
        counts = cache.path_count_matrix(topo)
        dist = cache.distance_matrix(topo)
        n = topo.n
        # Sequential DP over increasing distance, one source at a time.
        expect = np.zeros((n, n))
        for s in range(n):
            expect[s, s] = 1.0
            order = sorted(range(n), key=lambda v: dist[s, v])
            for v in order:
                if v == s:
                    continue
                expect[s, v] = sum(
                    expect[s, w] for w in topo.neighbors(v) if dist[s, w] == dist[s, v] - 1
                )
        np.testing.assert_array_equal(counts, expect)

    def test_updown_rehydration_equals_fresh(self):
        """A memoized up*/down* instance, served to a rebuilt topology,
        equals one built from scratch."""
        topo = DSNTopology(32)
        cache.updown_routing(topo)
        restored = cache.updown_routing(DSNTopology(32))
        assert _count("cache.memory.hits") == 1
        fresh = UpDownRouting(topo)
        assert restored is not fresh and restored.root == fresh.root
        assert restored.average_path_length() == fresh.average_path_length()
        for s in range(topo.n):
            for t in range(topo.n):
                if s != t:
                    assert restored.path(s, t) == fresh.path(s, t)
                    assert restored.distance(s, t) == fresh.distance(s, t)
                    assert restored.next_hops(s, t) == fresh.next_hops(s, t)


class TestMemoTopology:
    def test_same_recipe_same_object(self):
        a = make_topology("dsn", 64)
        b = make_topology("dsn", 64)
        assert a is b

    def test_different_recipe_different_object(self):
        assert make_topology("dsn", 64) is not make_topology("dsn", 128)
        assert make_topology("random", 64, seed=1) is not make_topology(
            "random", 64, seed=2
        )


class TestDeterminism:
    """Cold runs (after :func:`repro.cache.clear_cache`) and warm runs
    (served from memoized artifacts) must produce identical results."""

    def test_graph_metrics_cold_vs_warm(self):
        """The Fig. 7-8 sweep points: the trio at n = 32..256."""
        def sweep():
            return [analyze(make_topology(k, n)) for n in (32, 64, 128, 256)
                    for k in ("dsn", "torus", "random")]

        cold = sweep()
        hits = _count("cache.memory.hits")
        warm = sweep()
        assert cold == warm
        assert _count("cache.memory.hits") > hits

    def test_sim_result_cold_vs_warm(self):
        from repro.routing import DuatoAdaptiveRouting
        from repro.sim import AdaptiveEscapeAdapter, NetworkSimulator, SimConfig
        from repro.traffic import make_pattern

        cfg = SimConfig(warmup_ns=2000, measure_ns=6000, drain_ns=12000, seed=3)

        def run():
            topo = make_topology("dsn", 16)
            routing = DuatoAdaptiveRouting(topo)
            adapter = AdaptiveEscapeAdapter(routing, cfg.num_vcs, np.random.default_rng(0))
            pattern = make_pattern("uniform", topo.n * cfg.hosts_per_switch)
            return NetworkSimulator(topo, adapter, pattern, 4.0, cfg).run()

        cold = run()
        misses = _count("cache.misses")
        warm = run()  # every artifact a memory hit
        assert _count("cache.misses") == misses
        assert cold.latencies_ns == warm.latencies_ns
        assert cold.hop_counts == warm.hop_counts
        assert cold.delivered_in_window_bits == warm.delivered_in_window_bits
        assert cold.generated_measured == warm.generated_measured


class TestSharedTable:
    def test_shortest_path_table_reused_across_call_sites(self):
        topo = make_topology("dsn", 32)
        from repro.routing.adaptive import DuatoAdaptiveRouting

        r1 = DuatoAdaptiveRouting(topo)
        r2 = DuatoAdaptiveRouting(topo)
        assert r1.table is r2.table
        assert r1.updown is r2.updown
        assert r1.table is cache.shortest_path_table(topo)

    def test_fresh_table_matches_cached(self):
        topo = DSNTopology(24)
        cached = cache.shortest_path_table(topo)
        fresh = ShortestPathTable(topo)
        p1, i1 = cached.next_hop_arrays()
        p2, i2 = fresh.next_hop_arrays()
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(i1, i2)
