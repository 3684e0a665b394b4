"""Tests for DLN-x and the random-shortcut DLN-x-y (the paper's RANDOM)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import diameter
from repro.topologies import DLNRandomTopology, DLNTopology, LinkClass
from repro.util import ceil_div


class TestDLN:
    def test_dln2_is_plain_ring(self):
        t = DLNTopology(32, 2)
        assert t.num_links == 32
        assert t.degree_census() == {2: 32}

    def test_shortcut_spans(self):
        n, x = 64, 5
        t = DLNTopology(n, x)
        spans = {ceil_div(n, 2**k) for k in range(1, x - 1)}
        shortcut_spans = {
            min((l.v - l.u) % n, (l.u - l.v) % n)
            for l in t.links_of_class(LinkClass.SHORTCUT)
        }
        for s in spans:
            assert min(s, n - s) in shortcut_spans

    def test_dln_logn_logarithmic_diameter(self):
        # DLN-log n has logarithmic diameter (Section IV-A)
        n = 128
        t = DLNTopology(n, 7)
        assert diameter(t) <= 2 * 7

    def test_rejects_small_x(self):
        with pytest.raises(ValueError):
            DLNTopology(32, 1)


class TestDLNRandom:
    def test_exact_degree_4(self):
        """DLN-2-2 is the paper's RANDOM: ring + 2 random endpoints = exact degree 4."""
        t = DLNRandomTopology(64, 2, 2, seed=0)
        assert t.degree_census() == {4: 64}

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_exact_degree_any_seed(self, seed):
        t = DLNRandomTopology(32, 2, 2, seed=seed)
        assert t.degree_census() == {4: 32}

    def test_rare_rejection_seed_builds(self):
        """Seed 171 needs more than 50 resamples at n=32; extra attempts
        leave every other seed's links unchanged (same RNG prefix)."""
        assert DLNRandomTopology(32, 2, 2, seed=171).degree_census() == {4: 32}

    def test_seed_reproducible(self):
        a = DLNRandomTopology(64, seed=42)
        b = DLNRandomTopology(64, seed=42)
        assert a.links == b.links

    def test_different_seeds_differ(self):
        a = DLNRandomTopology(64, seed=1)
        b = DLNRandomTopology(64, seed=2)
        assert a.links != b.links

    def test_random_links_avoid_base(self):
        t = DLNRandomTopology(64, seed=3)
        ring = {(l.u, l.v) for l in t.links_of_class(LinkClass.LOCAL)}
        rand = {(l.u, l.v) for l in t.links_of_class(LinkClass.RANDOM)}
        assert not ring & rand

    def test_low_diameter_vs_ring(self):
        t = DLNRandomTopology(256, seed=0)
        assert diameter(t) <= 10  # vs 128 for the plain ring

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            DLNRandomTopology(33, 2, 1, seed=0)
