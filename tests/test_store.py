"""Tests for the persistent run store (repro.store).

The store's contract: a stored point is *bit-identical* to a fresh
computation -- across the memory tier, the disk tier, worker processes
racing on one entry, and killed-and-resumed sweeps. Anything less and
"never simulate the same point twice" would silently change results.
"""

import json
import math
import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro import store
from repro.core import DSNTopology
from repro.sim import SimConfig
from repro.sim.metrics import FaultRecord, SimResult
from repro.store import shards as store_shards_mod


@pytest.fixture(autouse=True)
def fresh_store(monkeypatch):
    """Each test starts with an empty memory tier, no disk, zero stats."""
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    store.clear_store()
    store.reset_store_stats()
    yield
    store.clear_store()
    store.reset_store_stats()


def _entry_files(root):
    """Every entry file in a store directory's shard dirs."""
    return sorted(store_shards_mod.iter_entry_paths(str(root)))


def _sample_result() -> SimResult:
    return SimResult(
        topology="DSN-3-16",
        pattern="uniform",
        offered_gbps=2.0,
        num_hosts=64,
        measure_window_ns=6000.0,
        generated_measured=10,
        delivered_measured=9,
        delivered_in_window_bits=4096.0,
        delivered_in_window_count=8,
        latencies_ns=[100.5, 200.25, 0.1 + 0.2],
        hop_counts=[2, 3, 4],
        packets_dropped=1,
        flits_dropped=4,
        dropped_measured=1,
        fault_records=[
            FaultRecord(
                time_ns=3000.0,
                links_failed=2,
                packets_dropped=1,
                flits_dropped=4,
                in_flight_at_fault=3,
                recovery_ns=float("nan"),
                reroute_wall_s=0.002,
            )
        ],
        post_fault_bits=128.0,
        post_fault_window_ns=3000.0,
        channel_busy_ns={(0, 1): 12.5, (5, 3): 0.75},
        telemetry={"counters": {"sim.delivered": 9}, "samples": [{"t_ns": 1.0}]},
    )


class TestCodec:
    def test_round_trip_exact(self):
        r = _sample_result()
        doc = store.encode_result(r)
        back = store.decode_result(json.loads(json.dumps(doc, allow_nan=True)))
        assert back.latencies_ns == r.latencies_ns
        assert back.hop_counts == r.hop_counts
        assert back.channel_busy_ns == r.channel_busy_ns
        assert back.telemetry == r.telemetry
        assert math.isnan(back.fault_records[0].recovery_ns)
        assert back.fault_records[0].time_ns == r.fault_records[0].time_ns
        # Everything else field by field, via a second encode.
        assert json.dumps(store.encode_result(back), sort_keys=True, allow_nan=True) == \
            json.dumps(doc, sort_keys=True, allow_nan=True)

    def test_numpy_values_become_plain_json(self):
        r = _sample_result()
        r.latencies_ns = [np.float64(1.5)]
        r.hop_counts = [np.int64(3)]
        r.telemetry = {"arr": np.arange(3), "scalar": np.float32(2.0)}
        doc = json.loads(json.dumps(store.encode_result(r), allow_nan=True))
        assert doc["latencies_ns"] == [1.5]
        assert doc["hop_counts"] == [3]
        assert doc["telemetry"]["arr"] == [0, 1, 2]
        assert doc["telemetry"]["scalar"] == 2.0

    def test_unknown_codec_version_is_a_miss(self):
        doc = store.encode_result(_sample_result())
        doc["codec"] = store.CODEC_VERSION + 1
        assert store.decode_result(doc) is None


class TestKeys:
    def test_canonical_payload_order(self):
        a = store.run_key("t", {"a": 1, "b": 2.5})
        b = store.run_key("t", {"b": 2.5, "a": 1})
        assert a.digest == b.digest
        assert a.payload == b.payload

    def test_namespace_and_payload_distinguish(self):
        base = store.run_key("t", {"a": 1})
        assert store.run_key("u", {"a": 1}).digest != base.digest
        assert store.run_key("t", {"a": 2}).digest != base.digest

    def test_sim_key_stable_across_topology_rebuilds(self):
        cfg = SimConfig(seed=3)
        a = store.sim_run_key(DSNTopology(16), "adaptive", "uniform", 2.0, cfg, 1)
        b = store.sim_run_key(DSNTopology(16), "adaptive", "uniform", 2.0, cfg, 1)
        assert a == b

    def test_sim_key_sensitive_to_every_axis(self):
        cfg = SimConfig(seed=3)
        topo = DSNTopology(16)
        base = store.sim_run_key(topo, "adaptive", "uniform", 2.0, cfg, 1)
        variants = [
            store.sim_run_key(DSNTopology(64), "adaptive", "uniform", 2.0, cfg, 1),
            store.sim_run_key(topo, "updown", "uniform", 2.0, cfg, 1),
            store.sim_run_key(topo, "adaptive", "bit_reversal", 2.0, cfg, 1),
            store.sim_run_key(topo, "adaptive", "uniform", 4.0, cfg, 1),
            store.sim_run_key(topo, "adaptive", "uniform", 2.0, SimConfig(seed=4), 1),
            store.sim_run_key(topo, "adaptive", "uniform", 2.0, cfg, 2),
            store.sim_run_key(topo, "adaptive", "uniform", 2.0, cfg, 1, engine="flit"),
            store.sim_run_key(topo, "adaptive", "uniform", 2.0, cfg, 1, buffer_flits=2),
        ]
        digests = {v.digest for v in variants}
        assert base.digest not in digests
        assert len(digests) == len(variants)

    def test_engine_normalization_collapses_flit_spellings(self):
        assert store.normalize_engine("flit") == "flit"
        assert store.normalize_engine("flit:event") == "flit"
        assert store.normalize_engine("flit:cycle") == "flit"
        assert store.normalize_engine(" Flit ") == "flit"
        # The packet-level simulator stays its own namespace.
        assert store.normalize_engine("network") == "network"

    def test_sim_key_shared_across_flit_run_loops(self):
        """The flit run loops are bit-identical by contract, so they must
        address the same stored entry; the packet-level sim must not."""
        cfg = SimConfig(seed=3)
        topo = DSNTopology(16)
        keys = [
            store.sim_run_key(topo, "adaptive", "uniform", 2.0, cfg, 1, engine=e)
            for e in ("flit", "flit:event", "flit:cycle")
        ]
        assert len({k.digest for k in keys}) == 1
        net = store.sim_run_key(topo, "adaptive", "uniform", 2.0, cfg, 1)
        assert net.digest != keys[0].digest

    def test_warm_hit_served_across_flit_engines(self):
        """A point stored under one flit spelling is a hit under any other."""
        cfg = SimConfig(seed=3)
        topo = DSNTopology(16)
        key_a = store.sim_run_key(topo, "adaptive", "uniform", 2.0, cfg, 1, engine="flit:cycle")
        store.cached_value(key_a, lambda: {"v": 7})
        store.reset_store_stats()
        key_b = store.sim_run_key(topo, "adaptive", "uniform", 2.0, cfg, 1, engine="flit:event")
        assert store.cached_value(key_b, lambda: {"v": -1}) == {"v": 7}
        assert store.store_stats().memory_hits == 1

    def test_schedule_fingerprint_ignores_labels(self):
        from repro.faults import FaultSchedule, FaultSet
        from repro.faults.schedule import FaultEvent

        a = FaultSchedule([FaultEvent(100.0, FaultSet(dead_links=((1, 2),), label="x"))])
        b = FaultSchedule([FaultEvent(100.0, FaultSet(dead_links=((1, 2),), label="y"))])
        assert store.schedule_fingerprint(a) == store.schedule_fingerprint(b)
        assert store.schedule_fingerprint(None) is None


class TestMemoryTier:
    def test_get_or_run_computes_once(self):
        key = store.run_key("t", {"x": 1})
        calls = []
        for _ in range(3):
            v = store.cached_value(key, lambda: calls.append(1) or {"v": 42})
            assert v == {"v": 42}
        assert len(calls) == 1
        s = store.store_stats()
        assert s.misses == 1 and s.memory_hits == 2 and s.disk_hits == 0

    def test_hits_are_decoded_fresh(self):
        """A caller mutating a returned value must not pollute later hits."""
        key = store.run_key("t", {"x": 2})
        first = store.cached_value(key, lambda: {"v": [1, 2]})
        first["v"].append(99)
        second = store.cached_value(key, lambda: {"v": [1, 2]})
        assert second == {"v": [1, 2]}

    def test_lru_capacity(self, monkeypatch):
        monkeypatch.setattr(store.runstore, "MEMORY_CAPACITY", 2)
        keys = [store.run_key("t", {"i": i}) for i in range(3)]
        for i, k in enumerate(keys):
            store.cached_value(k, lambda i=i: {"i": i})
        # key 0 was evicted; keys 2 and 1 are resident (probe most-recent
        # first so the probes themselves don't evict anything).
        store.reset_store_stats()
        for i in (2, 1, 0):
            store.cached_value(keys[i], lambda i=i: {"i": i})
        s = store.store_stats()
        assert s.misses == 1 and s.memory_hits == 2

    def test_get_results_are_fresh_objects(self):
        """Mutating what ``store.get`` returned must not change the next
        hit: each hit parses the rendered text anew."""
        key = store.run_key("t", {"x": 4})
        store.put(key, {"v": [1, 2], "w": {"a": 1}})
        got = store.get(key)
        got["v"].append(3)
        got["w"]["a"] = 666
        assert store.get(key) == {"v": [1, 2], "w": {"a": 1}}
        assert store.fetch_text(key) == ('{"v": [1, 2], "w": {"a": 1}}', "memory")

    def test_memory_entry_with_other_payload_is_a_miss(self):
        """The memory tier keeps each entry's payload and checks it on
        every hit, like the disk tier: a digest collision is a miss."""
        key = store.run_key("t", {"x": 5})
        store.put(key, {"v": 5})
        for impostor in (store.RunKey(key.namespace, key.payload + " ", key.digest),
                         store.RunKey("u", key.payload, key.digest)):
            assert store.fetch(impostor) == (None, None)
            assert store.fetch_text(impostor) == (None, None)
        s = store.store_stats()
        assert s.memory_hits == 0 and s.disk_hits == 0
        assert store.fetch(key) == ({"v": 5}, "memory")

    def test_fetch_text_is_dumps_of_fetch(self):
        key = store.run_key("t", {"x": 6})
        value = {"aspl": float("nan"), "inf": float("inf"), "name": "DSN-\u00e9", "l": [0.1 + 0.2]}
        store.put(key, value)
        text, tier = store.fetch_text(key)
        assert tier == "memory"
        assert text == json.dumps(value, allow_nan=True)
        assert text == json.dumps(store.get(key), allow_nan=True)
        assert store.store_stats().memory_hits == 2

    def test_null_result_is_a_miss_for_both_lookups(self):
        key = store.run_key("t", {"x": 8})
        store.put(key, None)
        assert store.fetch(key) == (None, None)
        assert store.fetch_text(key) == (None, None)

    def test_clear_store_drops_rendered_text(self):
        key = store.run_key("t", {"x": 7})
        store.put(key, {"v": 7})
        assert store.fetch_text(key)[0] == '{"v": 7}'
        store.clear_store()
        assert store.fetch_text(key) == (None, None)
        assert store.get(key) is None

    def test_disabled_bypasses_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        key = store.run_key("t", {"x": 3})
        calls = []
        for _ in range(2):
            store.cached_value(key, lambda: calls.append(1) or {"v": 1})
        assert len(calls) == 2
        s = store.store_stats()
        assert s.hits == 0 and s.misses == 0


class TestDiskTier:
    def test_round_trip_and_backfill(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        key = store.run_key("t", {"x": 1})
        store.cached_value(key, lambda: {"v": 7})
        entry = store.find_disk_entry(key)
        assert entry is not None and entry == store.disk_entry_path(key)
        doc = json.loads(open(entry).read())
        assert doc["ns"] == "t" and doc["key"] == key.payload and doc["result"] == {"v": 7}

        store.clear_store()  # drop memory: next get must come from disk
        store.reset_store_stats()
        assert store.cached_value(key, lambda: pytest.fail("should not run")) == {"v": 7}
        s = store.store_stats()
        assert s.disk_hits == 1 and s.bytes_read > 0
        # The disk hit backfilled memory.
        assert store.cached_value(key, lambda: pytest.fail("nope")) == {"v": 7}
        assert store.store_stats().memory_hits == 1

    @pytest.mark.parametrize("value", [
        {"v": 7},
        {"aspl": float("nan"), "lat": [float("inf"), -0.0, 1e16, 0.1 + 0.2]},
        {"name": "DSN-\u00e9\u2713", "nested": {"2": [True, None, "a\"b\\c"]}},
        [1, "two", 3.5],
    ])
    def test_entry_bytes_equal_whole_document_dumps(self, tmp_path, monkeypatch, value):
        """``put`` splices the entry from the rendered result; the file
        holds the same bytes as one ``json.dumps`` of the whole document,
        so stores written before and after the splice agree."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        key = store.run_key("bytes", {"x": 1, "s": "\u00e9"})
        store.put(key, value)
        with open(store.find_disk_entry(key)) as fh:
            assert fh.read() == json.dumps(
                {"ns": key.namespace, "key": key.payload, "result": value}, allow_nan=True)

    def test_disk_hit_text_and_values(self, tmp_path, monkeypatch):
        """A disk hit renders the result text once; a caller mutating the
        value it got cannot change the memory entry it backfilled."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        key = store.run_key("t", {"x": 9})
        value = {"v": [1, 2], "nan": float("nan")}
        store.put(key, value)
        store.clear_store()
        text, tier = store.fetch_text(key)
        assert tier == "disk" and text == json.dumps(value, allow_nan=True)
        store.clear_store()
        got, tier = store.fetch(key)
        assert tier == "disk"
        got["v"].append(3)
        assert store.fetch_text(key) == (json.dumps(value, allow_nan=True), "memory")
        assert store.get(key)["v"] == [1, 2]

    def test_corrupt_entry_degrades_to_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        key = store.run_key("t", {"x": 1})
        store.cached_value(key, lambda: {"v": 7})
        with open(store.find_disk_entry(key), "w") as fh:
            fh.write("{not json")
        store.clear_store()
        assert store.get(key) is None

    def test_wrong_payload_degrades_to_miss(self, tmp_path, monkeypatch):
        """A digest collision (or edited file) must never serve a wrong
        result: the stored canonical payload is checked against the key."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        key = store.run_key("t", {"x": 1})
        other = store.run_key("t", {"x": 2})
        doc = {"ns": "t", "key": other.payload, "result": {"v": 666}}
        path = store.disk_entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(doc))
        assert store.get(key) is None

    @pytest.mark.parametrize("shape", ["array", "no_result"])
    def test_entry_of_another_shape_is_a_miss_and_rewritten(self, tmp_path, monkeypatch,
                                                            shape):
        """Valid JSON that is not an entry object (an array, or an object
        with the right key but no ``result``) is a miss for every lookup,
        and ``get_or_run`` recomputes and replaces the file."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        key = store.run_key("t", {"x": 1})
        planted = [1, 2] if shape == "array" else {"ns": "t", "key": key.payload}
        path = store.disk_entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(planted))
        assert store.get(key) is None
        assert store.fetch_text(key) == (None, None)
        assert store.cached_value(key, lambda: {"v": 7}) == {"v": 7}
        assert store.store_stats().misses == 1
        with open(path) as fh:
            assert json.loads(fh.read())["result"] == {"v": 7}
        store.clear_store()
        assert store.fetch_text(key) == ('{"v": 7}', "disk")

    def test_clear_store_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        key = store.run_key("t", {"x": 1})
        store.cached_value(key, lambda: {"v": 7})
        store.clear_store(disk=True)
        assert _entry_files(tmp_path) == []

    def test_sim_result_disk_round_trip_bit_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        key = store.run_key("simtest", {"x": 1})
        r = _sample_result()
        store.put(key, r, encode=store.encode_result)
        store.clear_store()
        back = store.get(key, decode=store.decode_result)
        assert json.dumps(store.encode_result(back), sort_keys=True, allow_nan=True) == \
            json.dumps(store.encode_result(r), sort_keys=True, allow_nan=True)


class TestDedupMap:
    def test_duplicates_run_once_order_preserved(self):
        calls = []

        def fn(x):
            calls.append(x)
            return x * 10

        out = store.dedup_map(fn, [3, 1, 3, 2, 1, 3])
        assert out == [30, 10, 30, 20, 10, 30]
        assert calls == [3, 1, 2]
        assert store.store_stats().inflight_dedup == 3

    def test_no_duplicates_no_accounting(self):
        assert store.dedup_map(lambda x: x, [1, 2, 3]) == [1, 2, 3]
        assert store.store_stats().inflight_dedup == 0


# ----------------------------------------------------------------------
# concurrency: threads and processes racing on the same entry
# ----------------------------------------------------------------------
def _race_worker(args):
    """Compute-and-publish one point; returns the value and the stats
    this worker observed. Every actual compute appends one line to
    ``log_path``, so the parent can count computes across processes."""
    store_dir, salt, log_path = args
    os.environ["REPRO_STORE_DIR"] = store_dir
    from repro import store as st

    st.clear_store()
    st.reset_store_stats()
    key = st.run_key("race", {"point": 1})

    def compute():
        import time

        with open(log_path, "a") as fh:
            fh.write(f"compute:{os.getpid()}\n")
        time.sleep(0.05)  # widen the race window
        return {"value": 1234, "salt_ignored": salt % 1}

    value = st.cached_value(key, compute)
    s = st.store_stats()
    return value, s.stores, s.misses, s.lock_waits, s.disk_hits


class TestConcurrency:
    def test_threads_churning_the_rendered_tier(self, monkeypatch):
        """Threads putting and reading overlapping keys through a tiny
        memory tier: every hit is its own key's value, and a reader
        mutating what it got never shows up in another hit."""
        import random
        import sys

        monkeypatch.setattr(store.runstore, "MEMORY_CAPACITY", 3)
        keys = [store.run_key("churn", {"i": i}) for i in range(8)]
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(1500):
                i = rng.randrange(len(keys))
                expected = {"i": i, "x": [i, i]}
                op = rng.random()
                if op < 0.3:
                    store.put(keys[i], expected)
                elif op < 0.65:
                    text, _ = store.fetch_text(keys[i])
                    if text not in (None, json.dumps(expected)):
                        errors.append(text)
                else:
                    value = store.get(keys[i])
                    if value not in (None, expected):
                        errors.append(value)
                    if value is not None:
                        value["x"].append(-1)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert store.store_stats().memory_hits > 0

    def test_two_processes_race_one_compute(self, tmp_path):
        """Two processes racing one cold key coalesce on the per-entry
        lock: exactly one compute, one publish, and both decode the
        same stored bytes (ISSUE 7 coalescing contract)."""
        log = tmp_path / "computes.log"
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(2) as pool:
            results = pool.map(
                _race_worker,
                [(str(tmp_path), 1, str(log)), (str(tmp_path), 2, str(log))],
            )
        values = [r[0] for r in results]
        assert values[0] == values[1] == {"value": 1234, "salt_ignored": 0}
        # Exactly one compute happened, cluster-wide.
        assert len(log.read_text().splitlines()) == 1
        # Exactly one writer published; the loser waited out the lock
        # and was served the leader's entry as a disk hit.
        assert sum(r[1] for r in results) == 1
        assert sum(r[2] for r in results) == 1  # misses
        assert sum(r[3] for r in results) <= 1  # lock_waits (timing-dependent)
        assert sum(r[4] for r in results) == 1  # disk_hits
        key = store.run_key("race", {"point": 1})
        entries = _entry_files(tmp_path)
        assert [os.path.basename(e) for e in entries] == [key.stem + ".json"]
        doc = json.loads(open(entries[0]).read())
        assert doc["key"] == key.payload and doc["result"]["value"] == 1234
        # Byte-identical decoded results in both racers.
        assert json.dumps(values[0], sort_keys=True) == json.dumps(values[1], sort_keys=True)
        # The compute lock was reaped after the publish.
        assert list(store_shards_mod.iter_stale_locks(str(tmp_path))) == []
        # A third, warm lookup sees the entry without computing.
        value, *_ = _race_worker((str(tmp_path), 3, str(log)))
        assert value == {"value": 1234, "salt_ignored": 0}
        assert len(log.read_text().splitlines()) == 1

    def test_two_threads_race_one_compute(self):
        """Two threads racing one cold key coalesce on the in-process
        single-flight latch: one compute, byte-identical results."""
        import time

        key = store.run_key("t", {"x": "threads"})
        started = threading.Event()
        release = threading.Event()
        calls = []

        def compute():
            calls.append(1)
            started.set()
            release.wait(5.0)
            return {"v": [3, 1]}

        results = []

        def worker():
            results.append(store.cached_value(key, compute))

        t1 = threading.Thread(target=worker)
        t1.start()
        assert started.wait(5.0)  # leader is inside compute()
        t2 = threading.Thread(target=worker)
        t2.start()
        deadline = time.monotonic() + 5.0
        while store.store_stats().thread_coalesced < 1:  # t2 on the latch
            assert time.monotonic() < deadline
            time.sleep(0.005)
        release.set()
        t1.join(5.0)
        t2.join(5.0)
        assert len(calls) == 1
        assert results[0] == results[1] == {"v": [3, 1]}
        assert json.dumps(results[0], sort_keys=True) == json.dumps(results[1], sort_keys=True)
        s = store.store_stats()
        assert s.misses == 1 and s.thread_coalesced == 1 and s.memory_hits == 1

    def test_failed_leader_hands_off_to_waiter(self):
        """A waiter must not hang (or inherit the error) when the
        computing leader raises: it re-runs the compute itself."""
        key = store.run_key("t", {"x": "fail"})
        started = threading.Event()
        release = threading.Event()
        outcome = {}

        def bad_compute():
            started.set()
            release.wait(5.0)
            raise RuntimeError("leader died")

        def leader():
            try:
                store.cached_value(key, bad_compute)
            except RuntimeError as exc:
                outcome["leader"] = str(exc)

        def waiter():
            outcome["waiter"] = store.cached_value(key, lambda: {"v": 9})

        t1 = threading.Thread(target=leader)
        t1.start()
        assert started.wait(5.0)
        t2 = threading.Thread(target=waiter)
        t2.start()
        import time

        deadline = time.monotonic() + 5.0
        while store.store_stats().thread_coalesced < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        release.set()
        t1.join(5.0)
        t2.join(5.0)
        assert outcome["leader"] == "leader died"
        assert outcome["waiter"] == {"v": 9}


# ----------------------------------------------------------------------
# experiment wiring: warm curves, resume, saturation
# ----------------------------------------------------------------------
CFG = SimConfig(warmup_ns=2000, measure_ns=6000, drain_ns=12000, seed=3)


def _encode_curve(curve):
    return json.dumps(
        [store.encode_result(p) for p in curve.points],
        sort_keys=True,
        allow_nan=True,
    )


class TestExperimentWiring:
    def test_run_curve_warm_hits(self):
        from repro.experiments.latency import run_curve

        cold = run_curve("dsn", "uniform", loads=(1.0, 2.0), n=16, config=CFG, seed=1)
        assert store.store_stats().misses == 2
        warm = run_curve("dsn", "uniform", loads=(1.0, 2.0), n=16, config=CFG, seed=1)
        s = store.store_stats()
        assert s.memory_hits == 2 and s.misses == 2
        assert _encode_curve(cold) == _encode_curve(warm)

    def test_duplicate_loads_run_once(self):
        from repro.experiments.latency import run_curve

        curve = run_curve("dsn", "uniform", loads=(1.0, 1.0, 1.0), n=16, config=CFG, seed=1)
        s = store.store_stats()
        assert s.inflight_dedup == 2 and s.misses == 1
        assert len(curve.points) == 3
        assert curve.points[0] is curve.points[1] is curve.points[2]

    def test_resume_killed_sweep_byte_identical(self, tmp_path, monkeypatch):
        """A sweep that died after two points resumes from the store:
        only the missing points simulate, and the final curve is
        byte-identical to a never-interrupted run."""
        from repro.experiments.latency import run_curve

        loads = (1.0, 2.0, 4.0)
        # The reference: one uninterrupted, store-less run.
        monkeypatch.setenv("REPRO_STORE", "off")
        reference = run_curve("dsn", "uniform", loads=loads, n=16, config=CFG, seed=1)
        monkeypatch.delenv("REPRO_STORE")

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        # "Killed" sweep: only the first two points ever ran.
        run_curve("dsn", "uniform", loads=loads[:2], n=16, config=CFG, seed=1)
        assert len(_entry_files(tmp_path)) == 2

        # Resume in a "fresh process": empty memory tier, zeroed stats.
        store.clear_store()
        store.reset_store_stats()
        resumed = run_curve("dsn", "uniform", loads=loads, n=16, config=CFG, seed=1)
        s = store.store_stats()
        assert s.disk_hits == 2 and s.misses == 1
        assert _encode_curve(resumed) == _encode_curve(reference)

    def test_sweep_leaves_no_stale_locks(self, tmp_path, monkeypatch):
        """Regression (ISSUE 7): the disk tier used to leave one
        ``.lock`` file per entry forever; per-entry compute locks are
        now reaped after a successful publish, and the only lock files
        left are the fixed dot-prefixed shard/layout locks."""
        from repro.experiments.latency import run_curve

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        run_curve("dsn", "uniform", loads=(1.0, 2.0, 4.0), n=16, config=CFG, seed=1)
        assert len(_entry_files(tmp_path)) == 3
        assert list(store_shards_mod.iter_stale_locks(str(tmp_path))) == []
        leftover = [p for p in tmp_path.rglob("*.lock") if not p.name.startswith(".")]
        assert leftover == []

    def test_saturation_search_warm_no_misses(self):
        from repro.experiments.latency import saturation_search

        first = saturation_search("dsn", "uniform", n=16, config=CFG, seed=1,
                                  workers=1, max_gbps=16.0)
        store.reset_store_stats()
        second = saturation_search("dsn", "uniform", n=16, config=CFG, seed=1,
                                   workers=1, max_gbps=16.0)
        assert store.store_stats().misses == 0
        assert second == first

    def test_fault_trial_store_backed(self, tmp_path, monkeypatch):
        from repro.faults.degradation import degradation_point

        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        a = degradation_point("dsn", 64, 0.05, trials=2, seed=0, workers=1)
        store.clear_store()
        store.reset_store_stats()
        b = degradation_point("dsn", 64, 0.05, trials=2, seed=0, workers=1)
        # 2 trials x (the 0.05 point + its internal 0.0 baseline)
        assert store.store_stats().disk_hits == 4
        assert a == b

    def test_fault_table_store_backed(self):
        from repro.experiments.robustness import fault_table

        table_a, stats_a = fault_table(n=64, fractions=(0.05,), trials=2, seed=0)
        misses = store.store_stats().misses
        assert misses == 12  # 3 trio kinds x 2 trials x (0.05 + 0.0 baseline)
        table_b, stats_b = fault_table(n=64, fractions=(0.05,), trials=2, seed=0)
        assert store.store_stats().misses == misses
        assert table_a == table_b and stats_a == stats_b


class TestGcStore:
    def _populate(self, tmp_path, count):
        """Write `count` distinct entries, oldest first, with distinct
        mtimes; returns their paths in write (= mtime) order."""
        paths = []
        for i in range(count):
            key = store.run_key("gc", {"i": i})
            store.cached_value(key, lambda i=i: {"v": "x" * 50, "i": i})
            path = store.find_disk_entry(key)
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
            paths.append(path)
        return paths

    def test_evicts_oldest_first_until_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        paths = self._populate(tmp_path, 6)
        sizes = [os.path.getsize(p) for p in paths]
        budget = sum(sizes[2:])  # exactly the four newest
        report = store.gc_store(str(tmp_path), max_bytes=budget)
        assert report.ok
        assert report.scanned == 6 and report.evicted == 2
        assert report.evicted_bytes == sum(sizes[:2])
        assert report.kept_bytes == budget
        assert [p for p in paths if os.path.exists(p)] == paths[2:]
        assert "2/6 entries evicted" in report.summary()

    def test_evicted_entries_leave_memory_tier_too(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        self._populate(tmp_path, 3)
        report = store.gc_store(str(tmp_path), max_bytes=0)
        assert report.evicted == 3 and report.kept_bytes == 0
        # Neither tier serves an evicted digest: the next get recomputes.
        assert store.get(store.run_key("gc", {"i": 0})) is None
        calls = []
        store.cached_value(
            store.run_key("gc", {"i": 0}), lambda: calls.append(1) or {"v": 0}
        )
        assert calls == [1]

    def test_within_budget_is_a_no_op(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        paths = self._populate(tmp_path, 3)
        report = store.gc_store(str(tmp_path), max_bytes=10**9)
        assert report.evicted == 0 and report.evicted_bytes == 0
        assert all(os.path.exists(p) for p in paths)

    def test_missing_and_empty_dirs(self, tmp_path):
        report = store.gc_store(str(tmp_path / "never-created"), max_bytes=10)
        assert report.ok and report.scanned == 0
        with pytest.raises(ValueError):
            store.gc_store(str(tmp_path), max_bytes=-1)
        with pytest.raises(ValueError):
            store.gc_store(None, max_bytes=10)  # no dir configured

    def test_gc_leaves_no_stale_locks(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        self._populate(tmp_path, 4)
        store.gc_store(str(tmp_path), max_bytes=0)
        assert list(store_shards_mod.iter_stale_locks(str(tmp_path))) == []

    def _compute_lock(self, tmp_path):
        """The per-entry compute-lock path of a never-published key."""
        key = store.run_key("gc", {"killed": True})
        path = store_shards_mod.entry_lock_path(str(tmp_path), key.stem, key.digest)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def test_reaps_leftover_compute_lock(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        self._populate(tmp_path, 2)
        lock = self._compute_lock(tmp_path)
        open(lock, "w").close()  # left behind by a compute killed mid-run
        report = store.gc_store(str(tmp_path), max_bytes=10**9)
        assert report.ok and report.evicted == 0 and report.reaped_locks == 1
        assert not os.path.exists(lock)
        assert "1 stale lock(s) reaped" in report.summary()

    def _stranded(self, tmp_path):
        """One root-level entry (the retired flat layout) and one entry
        in a shard dir that is not its home; returns their paths."""
        flat_key = store.run_key("gc", {"flat": 1})
        flat = tmp_path / (flat_key.stem + ".json")
        flat.write_text(json.dumps({"ns": "gc", "key": flat_key.payload, "result": 1}))
        moved_key = store.run_key("gc", {"moved": 1})
        home = store_shards_mod.shard_index(moved_key.digest)
        wrong = tmp_path / f"s{(home + 1) % store_shards_mod.SHARDS:03d}"
        wrong.mkdir(exist_ok=True)
        moved = wrong / (moved_key.stem + ".json")
        moved.write_text(json.dumps({"ns": "gc", "key": moved_key.payload, "result": 2}))
        return [str(flat), str(moved)]

    def test_removes_stranded_files_whatever_the_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        paths = self._populate(tmp_path, 2)
        stranded = self._stranded(tmp_path)
        assert sorted(store_shards_mod.iter_stranded_paths(str(tmp_path))) == sorted(stranded)
        assert _entry_files(tmp_path) == sorted(paths)  # stranded files are not entries
        report = store.gc_store(str(tmp_path), max_bytes=10**9)
        assert report.ok and report.stranded == 2
        assert report.scanned == 2 and report.evicted == 0
        assert report.total_bytes == sum(os.path.getsize(p) for p in paths)
        assert not any(os.path.exists(p) for p in stranded)
        assert all(os.path.exists(p) for p in paths)
        assert "2 stranded file(s) removed" in report.summary()
        again = store.gc_store(str(tmp_path), max_bytes=10**9)
        assert again.stranded == 0

    def test_clear_store_disk_removes_stranded_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        stranded = self._stranded(tmp_path)
        store.clear_store(disk=True)
        assert not any(os.path.exists(p) for p in stranded)

    def test_lock_held_by_live_compute_survives(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        held = store_shards_mod.FileLock(self._compute_lock(tmp_path))
        assert held.acquire(blocking=False)
        try:
            report = store.gc_store(str(tmp_path), max_bytes=0)
            assert report.ok and report.reaped_locks == 0
            assert os.path.exists(held.path)
        finally:
            held.release()
