"""Tests for the sharded run-store disk layout (repro.store.shards).

The layout contract: an entry's home is a pure function of its digest
(16 fixed ``sNNN/`` shards), the store writes no layout marker, and a
file anywhere else is never served -- its key recomputes into its home.
"""

import json
import os

import pytest

from repro import store
from repro.store import shards


@pytest.fixture(autouse=True)
def fresh_store(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    store.clear_store()
    store.reset_store_stats()
    yield
    store.clear_store()
    store.reset_store_stats()


class TestLayout:
    def test_shard_index_stable_and_in_range(self):
        import hashlib

        digests = [hashlib.sha256(str(i).encode()).hexdigest()[:32] for i in range(100)]
        for d in digests:
            idx = shards.shard_index(d)
            assert 0 <= idx < shards.SHARDS == 16
            assert idx == int(d[:8], 16) % 16  # pure prefix keying
        # Prefix keying spreads hex digests across many shards.
        assert len({shards.shard_index(d) for d in digests}) > 8

    def test_sharded_put_lands_in_shard_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        key = store.run_key("sharded", {"x": 1})
        store.put(key, {"v": 2})
        home = store.find_disk_entry(key)
        rel = os.path.relpath(home, tmp_path)
        idx = shards.shard_index(key.digest)
        assert rel == os.path.join(f"s{idx:03d}", key.stem + ".json")

    def test_new_store_writes_no_marker(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        store.put(store.run_key("marker", {"x": 1}), {"v": 1})
        assert not (tmp_path / ".shards").exists()
        # Only the shard dir and its publish lock sit at the root.
        assert all(f.is_dir() or f.name.startswith(".shard-") for f in tmp_path.iterdir())

    def test_flat_root_entry_is_a_miss(self, tmp_path, monkeypatch):
        """An entry file at the store root (the retired flat layout) is
        never read: the key recomputes byte-identically into its shard."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        key = store.run_key("flat", {"x": 9})
        value = {"v": 99}
        flat = tmp_path / (key.stem + ".json")
        flat.write_text(json.dumps({"ns": key.namespace, "key": key.payload,
                                    "result": value}, allow_nan=True))
        assert store.get(key) is None and store.find_disk_entry(key) is None

        calls = []
        assert store.cached_value(key, lambda: calls.append(1) or value) == value
        assert calls == [1] and store.store_stats().disk_hits == 0
        home = store.find_disk_entry(key)
        assert home == shards.entry_path(str(tmp_path), key.stem, key.digest)
        with open(home) as fh:
            assert fh.read() == flat.read_text()

    def test_infrastructure_files_are_not_entries(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        key = store.run_key("walk", {"x": 1})
        store.put(key, {"v": 1})
        names = {os.path.basename(p) for p in shards.iter_entry_paths(str(tmp_path))}
        assert names == {key.stem + ".json"}
        # Shard locks exist but are never walked as entries.
        assert any(f.name.startswith(".shard-") for f in tmp_path.iterdir())
        assert list(shards.iter_stale_locks(str(tmp_path))) == []
