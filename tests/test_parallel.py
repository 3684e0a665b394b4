"""Tests for the optional process-pool mapper."""

import os

from repro.experiments.graphs import hop_sweep
from repro.util.parallel import default_workers, parallel_map


def _square(x):
    return x * x


class TestParallelMap:
    def test_serial_default(self):
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_order_preserved_with_pool(self):
        assert parallel_map(_square, list(range(10)), workers=2) == [
            x * x for x in range(10)
        ]

    def test_single_item_stays_serial(self):
        assert parallel_map(_square, [7], workers=8) == [49]

    def test_env_toggle(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "junk")
        assert default_workers() == 0
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() == 0

    def test_env_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        assert default_workers() == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_WORKERS", "AUTO")
        assert default_workers() == (os.cpu_count() or 1)

    def test_env_negative_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "-4")
        assert default_workers() == 0

    def test_chunked_pool_covers_all_items(self):
        # More items than workers*4 exercises the chunksize > 1 path.
        n = 40
        assert parallel_map(_square, list(range(n)), workers=2) == [
            x * x for x in range(n)
        ]


class TestSweepParallelEquivalence:
    def test_hop_sweep_same_results(self):
        for metric in ("diameter", "aspl"):
            serial = hop_sweep(metric, sizes=(32, 64, 128, 256), workers=0)
            parallel = hop_sweep(metric, sizes=(32, 64, 128, 256), workers=2)
            assert [r.values for r in serial] == [r.values for r in parallel], metric
