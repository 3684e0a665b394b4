"""Tests for the large-n metrics engine (PR 2).

Covers the blocked bit-parallel BFS kernel (`analysis.blocked`), the
byte-budgeted cache tier and dense-vs-streaming dispatch
(`repro.cache`), vectorized distinct-pair sampling (`util.rng`), and
the batched Poisson arrival streams (`sim.arrivals`).
"""

import numpy as np
import pytest

from repro import cache
from repro.analysis.blocked import (
    HopStats,
    hop_stats_from_dense,
    streaming_hop_stats,
)
from repro.analysis.metrics import shortest_path_matrix
from repro.core import DSNTopology
from repro.experiments.sweeps import make_topology
from repro.sim.arrivals import PoissonGaps
from repro.topologies import RingTopology, TorusTopology
from repro.util import make_rng, sample_distinct_pairs


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_CACHE_MEM_MB", raising=False)
    monkeypatch.delenv("REPRO_BFS_BLOCK", raising=False)
    cache.clear_cache()
    cache.reset_cache_stats()
    yield
    cache.clear_cache()
    cache.reset_cache_stats()


def _dense_stats(topo) -> HopStats:
    return hop_stats_from_dense(shortest_path_matrix(topo))


class TestStreamingIdentity:
    """The streaming engine must be bit-identical to the dense path."""

    @pytest.mark.parametrize(
        "topo",
        [
            DSNTopology(64),
            DSNTopology(100),
            TorusTopology.square(64, 2),
            RingTopology(33),  # odd n: partial uint64 word
            RingTopology(3),  # smallest ring
        ],
        ids=lambda t: t.name,
    )
    def test_matches_dense(self, topo):
        assert _dense_stats(topo).same_as(streaming_hop_stats(topo))

    @pytest.mark.parametrize(
        "kind,n",
        [("dsn", 33), ("dsn", 64), ("torus", 64), ("random", 64), ("dsn", 256)],
    )
    def test_matches_dense_ragged_blocks(self, kind, n):
        """97-row blocks leave a ragged last block and partial bit words."""
        topo = make_topology(kind, n, seed=0)
        assert _dense_stats(topo).same_as(streaming_hop_stats(topo, block_rows=97))

    @pytest.mark.parametrize("block_rows", [1, 7, 63, 64, 65, 100, 1000])
    def test_block_size_invariant(self, block_rows):
        topo = DSNTopology(100)
        expect = _dense_stats(topo)
        assert expect.same_as(streaming_hop_stats(topo, block_rows=block_rows))

    def test_env_block_override(self, monkeypatch):
        topo = DSNTopology(64)
        expect = _dense_stats(topo)
        monkeypatch.setenv("REPRO_BFS_BLOCK", "13")
        assert expect.same_as(streaming_hop_stats(topo))

    def test_worker_invariant(self):
        topo = DSNTopology(100)
        serial = streaming_hop_stats(topo, block_rows=32, workers=None)
        parallel = streaming_hop_stats(topo, block_rows=32, workers=2)
        assert serial.same_as(parallel)

    def test_known_ring_values(self):
        # Ring of 8: distances 1,2,3,4 with 4 at multiplicity 1 per node.
        st = streaming_hop_stats(RingTopology(8))
        assert st.diameter == 4
        assert st.total_hops == 8 * (1 + 1 + 2 + 2 + 3 + 3 + 4)
        assert st.aspl == st.total_hops / (8 * 7)
        assert np.array_equal(st.ecc, np.full(8, 4))
        assert np.array_equal(st.hist, [0, 16, 16, 16, 8])

    def test_disconnected_raises_like_dense(self):
        from repro.topologies.base import Topology

        links = [(i, (i + 1) % 6) for i in range(6)]
        links += [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
        topo = Topology(12, links, name="two-rings")
        with pytest.raises(ValueError, match="disconnected"):
            streaming_hop_stats(topo)
        with pytest.raises(ValueError, match="disconnected"):
            hop_stats_from_dense(shortest_path_matrix(topo))

    def test_tiny_n_raises(self):
        class Tiny:
            n = 1

        with pytest.raises(ValueError, match="n >= 2"):
            streaming_hop_stats(Tiny())


class TestDispatch:
    def test_budget_forces_streaming(self, monkeypatch):
        # 64^2 float64 = 32 KB; a 1 MB... budget of 1 MB still allows it,
        # so shrink n^2*8 over budget by lying about the budget: n=512
        # needs 2 MB.
        topo = DSNTopology(512)
        monkeypatch.setenv("REPRO_CACHE_MEM_MB", "1")
        assert not cache.dense_distance_allowed(512)
        streamed = cache.hop_stats(topo)
        cache.clear_cache()
        monkeypatch.delenv("REPRO_CACHE_MEM_MB")
        assert cache.dense_distance_allowed(512)
        dense = cache.hop_stats(topo)
        assert streamed.same_as(dense)

    def test_resident_dense_matrix_is_reused(self):
        topo = DSNTopology(64)
        cache.distance_matrix(topo)
        misses_before = cache.cache_stats().misses
        st = cache.hop_stats(topo)
        # hop_stats itself is one more miss, but no second distance-matrix
        # computation happened (it reduced the resident int16 pack).
        assert cache.cache_stats().misses == misses_before + 1
        assert st.same_as(_dense_stats(topo))

    def test_hop_stats_disk_round_trip(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        topo = DSNTopology(64)
        first = cache.hop_stats(topo)
        cache.clear_cache()
        restored = cache.hop_stats(DSNTopology(64))
        assert cache.cache_stats().disk_hits >= 1
        assert first.same_as(restored)

    def test_analyze_matches_streaming(self, monkeypatch):
        """`analyze` routes through the dispatch; its hop metrics equal
        the streaming engine's bit-for-bit, in both budget regimes."""
        from repro.analysis import analyze

        topo = DSNTopology(512)
        streamed = streaming_hop_stats(topo)
        dense_m = analyze(topo)  # default budget: dense path
        cache.clear_cache()
        monkeypatch.setenv("REPRO_CACHE_MEM_MB", "1")
        streamed_m = analyze(topo)  # forced streaming path
        for m in (dense_m, streamed_m):
            assert m.diameter == streamed.diameter
            assert m.aspl == streamed.aspl


class TestByteBudget:
    def test_oversized_entry_not_admitted(self, monkeypatch):
        # n=1024 int16 pack is 2 MB > the 1 MB budget: computed and
        # returned, but never admitted to the memory tier.
        monkeypatch.setenv("REPRO_CACHE_MEM_MB", "1")
        topo = RingTopology(1024)
        d1 = cache.distance_matrix(topo)
        assert cache._peek((cache.topology_fingerprint(topo), "dist")) is None
        d2 = cache.distance_matrix(topo)  # recomputes: nothing resident
        assert cache.cache_stats().misses == 2
        np.testing.assert_array_equal(d1, d2)

    def test_eviction_on_budget_pressure(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MEM_MB", "1")
        # Each 256-node dist pack is 256^2*2 = 128 KB; eight fit in
        # 1 MB only after evictions start.
        for n in (250, 252, 254, 256, 258, 260, 262, 264):
            cache.distance_matrix(RingTopology(n))
        assert cache.cache_stats().evictions > 0
        assert cache._memory_bytes <= cache.memory_budget_bytes()


class TestSampleDistinctPairs:
    def test_distinct_and_valid(self):
        s, t = sample_distinct_pairs(10, 50, make_rng(0))
        assert len(s) == len(t) == 50
        assert np.all(s != t)
        assert s.min() >= 0 and s.max() < 10
        assert t.min() >= 0 and t.max() < 10
        assert len({(a, b) for a, b in zip(s.tolist(), t.tolist())}) == 50

    def test_k_capped_at_pair_count(self):
        s, t = sample_distinct_pairs(4, 1000, make_rng(0))
        assert len(s) == 4 * 3
        assert len({(a, b) for a, b in zip(s.tolist(), t.tolist())}) == 12

    def test_n1_raises_instead_of_hanging(self):
        with pytest.raises(ValueError, match="n >= 2"):
            sample_distinct_pairs(1, 5, make_rng(0))

    def test_large_flat_space_batched_path(self):
        # n^2 > 2^20 exercises the rejection-sampling branch.
        n = 2048
        s, t = sample_distinct_pairs(n, 500, make_rng(7))
        assert len(s) == 500
        assert np.all(s != t)
        assert len({(a, b) for a, b in zip(s.tolist(), t.tolist())}) == 500

    def test_deterministic(self):
        a = sample_distinct_pairs(64, 100, make_rng(3))
        b = sample_distinct_pairs(64, 100, make_rng(3))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestPoissonGaps:
    def test_deterministic_per_seed(self):
        g1 = PoissonGaps(5, 4, 2.0)
        g2 = PoissonGaps(5, 4, 2.0)
        for h in range(4):
            for _ in range(10):
                assert g1.next(h) == g2.next(h)

    def test_chunk_size_invariant(self):
        a = PoissonGaps(5, 3, 2.0, chunk=1)
        b = PoissonGaps(5, 3, 2.0, chunk=257)
        seq_a = [[a.next(h) for _ in range(300)] for h in range(3)]
        seq_b = [[b.next(h) for _ in range(300)] for h in range(3)]
        assert seq_a == seq_b

    def test_hosts_independent_of_interleaving(self):
        a = PoissonGaps(9, 2, 1.0)
        b = PoissonGaps(9, 2, 1.0)
        # a: drain host 0 then host 1; b: interleave. Same sequences.
        a0 = [a.next(0) for _ in range(20)]
        a1 = [a.next(1) for _ in range(20)]
        b0, b1 = [], []
        for _ in range(20):
            b0.append(b.next(0))
            b1.append(b.next(1))
        assert a0 == b0 and a1 == b1

    def test_mean_matches_scale(self):
        g = PoissonGaps(0, 1, 3.0, chunk=512)
        draws = np.array([g.next(0) for _ in range(20_000)])
        assert draws.mean() == pytest.approx(3.0, rel=0.05)
        assert np.all(draws >= 0)

    def test_generator_seed_accepted(self):
        rng1 = np.random.default_rng(11)
        rng2 = np.random.default_rng(11)
        g1 = PoissonGaps(rng1, 2, 1.0)
        g2 = PoissonGaps(rng2, 2, 1.0)
        assert [g1.next(0) for _ in range(5)] == [g2.next(0) for _ in range(5)]

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonGaps(0, 0, 1.0)
        with pytest.raises(ValueError):
            PoissonGaps(0, 1, 1.0, chunk=0)
