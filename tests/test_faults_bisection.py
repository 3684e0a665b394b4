"""Tests for link-failure sweeps and bisection estimation."""

import pytest

from repro.analysis import bisection_estimate, cut_links
from repro.core import DSNTopology
from repro.faults import FaultSet, degradation_curves, degradation_point, percolation_sweep
from repro.topologies import RingTopology, Topology, TorusTopology


class TestDegrade:
    """Degrading a topology is applying a :class:`FaultSet` to it."""

    def test_removes_exact_links(self):
        t = RingTopology(8)
        dead = [t.links[0], t.links[3]]
        d = FaultSet(dead_links=tuple(l.endpoints() for l in dead)).apply(t)
        assert d.num_links == 6
        for l in dead:
            assert not d.has_link(l.u, l.v)

    def test_no_failures_identity(self):
        t = DSNTopology(32)
        assert FaultSet().apply(t).num_links == t.num_links


class TestFaultSweep:
    """Link-failure sweeps through the degradation view and the
    percolation engine it aggregates."""

    def test_zero_fraction_matches_baseline(self):
        from repro.analysis import analyze
        from repro.experiments.sweeps import make_topology

        stats = degradation_point("dsn", 32, 0.0, trials=2, seed=0)
        m = analyze(make_topology("dsn", 32, seed=0))
        assert stats.connected_fraction == 1.0
        assert stats.mean_diameter == m.diameter
        assert stats.mean_aspl == pytest.approx(m.aspl)

    def test_metrics_degrade_with_failures(self):
        _, (base, hurt) = degradation_curves(
            n=64, fractions=(0.0, 0.10), trials=10, seed=0, kinds=("dsn",)
        )
        assert hurt.connected_fraction > 0
        assert hurt.mean_aspl >= base.mean_aspl

    def test_ring_disconnects_easily(self):
        """Two failed links disconnect a ring: P(connected) must be low."""
        _, points, _ = percolation_sweep(
            n=32, fractions=(0.08,), trials=20, seed=1, kinds=("ring",)
        )
        assert points[0].connected_fraction < 0.5

    def test_validation(self):
        for bad in (1.5, -0.01, float("nan")):
            with pytest.raises(ValueError, match="fraction"):
                degradation_point("dsn", 32, bad)

    def test_row_format_with_disconnection(self):
        stats = degradation_point("ring", 16, 0.3, trials=5, seed=0)
        assert stats.connected_fraction < 1.0
        row = stats.row()
        assert len(row) == 6
        if stats.connected_fraction == 0:
            assert row[3:] == ["-", "-", "-"]


class TestBisection:
    def test_ring_bisection_is_2(self):
        est = bisection_estimate(RingTopology(16), restarts=5, seed=0)
        assert est.heuristic_upper == 2
        assert est.spectral_lower <= 2

    def test_torus_bisection_closed_form(self):
        """k x k torus bisection = 2k crossing links."""
        est = bisection_estimate(TorusTopology((8, 8)), restarts=8, seed=0)
        assert est.heuristic_upper >= 16
        assert est.heuristic_upper <= 2 * 16  # heuristic may be off by 2x
        assert est.spectral_lower <= est.heuristic_upper

    def test_lower_never_exceeds_upper(self):
        for topo in (DSNTopology(64), TorusTopology((4, 8))):
            est = bisection_estimate(topo, seed=1)
            assert est.spectral_lower <= est.heuristic_upper + 1e-9

    def test_cut_links_manual(self):
        t = Topology(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert cut_links(t, {0, 1}) == 2
        assert cut_links(t, {0, 2}) == 4
