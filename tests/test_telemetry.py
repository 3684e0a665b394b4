"""Tests for the unified telemetry subsystem.

Pins the contracts the rest of the stack relies on: registry
semantics, the disabled no-op fast path, worker-merge identity across
``REPRO_WORKERS``, sampler determinism (simulation results are
bit-identical telemetry on vs off), and exporter round-trips.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro import telemetry
from repro.telemetry import export, merge
from repro.telemetry.registry import TelemetryRegistry
from repro.telemetry.samplers import SimSampler
from repro.util.parallel import parallel_map


@pytest.fixture
def tel():
    """Telemetry on with a clean registry; restored to env default after."""
    telemetry.reset()
    telemetry.enable()
    yield telemetry
    telemetry.reset()
    telemetry.refresh_from_env()


def _instrumented(x):
    """Deterministic per-item instrumentation (module-level: picklable)."""
    telemetry.count("t.items")
    telemetry.count("t.value", x)
    telemetry.observe("t.obs", float(x), edges=(1.0, 2.0, 4.0, 8.0))
    telemetry.gauge_set("t.last", float(x))
    return x * 2


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_create_or_get(self, tel):
        reg = telemetry.get_registry()
        c1 = reg.counter("a.b")
        c1.inc()
        c1.inc(4)
        assert reg.counter("a.b") is c1
        assert c1.value == 5

    def test_gauge_last_write_wins(self, tel):
        g = telemetry.get_registry().gauge("g")
        g.set(1.0)
        g.set(2.5, tag="w1")
        assert g.value == 2.5 and g.tag == "w1"

    def test_histogram_buckets(self, tel):
        h = telemetry.get_registry().histogram("h", edges=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        # le semantics: 1.0 falls in the le=1.0 bucket (bisect_left).
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(106.5)
        assert h.mean == pytest.approx(106.5 / 4)

    def test_histogram_rejects_unsorted_edges(self, tel):
        with pytest.raises(ValueError):
            telemetry.get_registry().histogram("bad", edges=(2.0, 1.0))

    def test_clear_and_len(self, tel):
        reg = telemetry.get_registry()
        reg.counter("c")
        reg.gauge("g")
        reg.histogram("h")
        assert len(reg) == 3
        reg.clear()
        assert len(reg) == 0

    def test_helpers_write_default_registry(self, tel):
        telemetry.count("x", 3)
        telemetry.gauge_set("y", 1.5, tag="t")
        telemetry.observe("z", 0.5)
        reg = telemetry.get_registry()
        assert reg.counters["x"].value == 3
        assert reg.gauges["y"].value == 1.5
        assert reg.histograms["z"].count == 1


class TestDisabledNoOp:
    def test_helpers_do_nothing_when_disabled(self):
        telemetry.reset()
        telemetry.disable()
        telemetry.count("nope")
        telemetry.gauge_set("nope", 1.0)
        telemetry.observe("nope", 1.0)
        assert len(telemetry.get_registry()) == 0

    def test_spans_do_not_attach_when_disabled(self):
        telemetry.reset()
        telemetry.disable()
        with telemetry.span("s") as sp:
            pass
        assert sp.seconds >= 0.0  # always times
        assert telemetry.trace_tree() == []

    def test_env_refresh(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert telemetry.refresh_from_env() is True
        monkeypatch.delenv("REPRO_TELEMETRY")
        assert telemetry.refresh_from_env() is False


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_builds_tree(self, tel):
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
            with telemetry.span("inner"):
                pass
        rows = dict((p, c) for p, _s, c in telemetry.span_rows())
        assert rows == {"outer": 1, "outer/inner": 2}

    def test_same_name_accumulates_one_node(self, tel):
        for _ in range(50):
            with telemetry.span("loop"):
                pass
        tree = telemetry.trace_tree()
        assert len(tree) == 1 and tree[0]["count"] == 50

    def test_decorator(self, tel):
        @telemetry.timed("deco")
        def f():
            return 7

        assert f() == 7
        assert [p for p, _s, _c in telemetry.span_rows()] == ["deco"]


# ----------------------------------------------------------------------
# worker merge
# ----------------------------------------------------------------------
class TestWorkerMerge:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_merge_identity_across_worker_counts(self, tel, workers):
        items = list(range(12))
        out = parallel_map(_instrumented, items, workers=workers)
        assert out == [x * 2 for x in items]
        reg = telemetry.get_registry()
        assert reg.counters["t.items"].value == len(items)
        assert reg.counters["t.value"].value == sum(items)
        h = reg.histograms["t.obs"]
        assert h.count == len(items)
        assert h.sum == pytest.approx(float(sum(items)))
        assert sum(h.counts) == len(items)
        # Last-write-wins gauge exists; pool runs carry a worker tag.
        assert "t.last" in reg.gauges
        if workers > 1:
            assert reg.gauges["t.last"].tag is not None

    def test_pool_counters_match_serial_exactly(self, tel):
        items = list(range(9))
        parallel_map(_instrumented, items, workers=1)
        serial = merge.snapshot()
        telemetry.reset()
        parallel_map(_instrumented, items, workers=3)
        pooled = merge.snapshot()
        assert serial["counters"] == pooled["counters"]
        sh, ph = serial["histograms"]["t.obs"], pooled["histograms"]["t.obs"]
        assert sh["counts"] == ph["counts"] and sh["count"] == ph["count"]

    def test_delta_excludes_preexisting_counts(self, tel):
        telemetry.count("pre", 100)
        base = merge.snapshot()
        telemetry.count("pre", 1)
        telemetry.count("new", 2)
        d = merge.delta(merge.snapshot(), base)
        assert d["counters"] == {"pre": 1, "new": 2}

    def test_merge_snapshot_semantics(self, tel):
        reg = TelemetryRegistry()
        snap = {
            "worker": 1234,
            "counters": {"c": 5},
            "gauges": {"g": (2.0, None)},
            "histograms": {
                "h": {"edges": (1.0, 2.0), "counts": [1, 0, 2], "sum": 9.0, "count": 3}
            },
        }
        merge.merge_snapshot(snap, registry=reg)
        merge.merge_snapshot(snap, registry=reg)
        assert reg.counters["c"].value == 10
        assert reg.gauges["g"].tag == "pid1234"
        h = reg.histograms["h"]
        assert h.counts == [2, 0, 4] and h.count == 6 and h.sum == 18.0

    def test_merge_rejects_edge_mismatch(self, tel):
        reg = TelemetryRegistry()
        reg.histogram("h", edges=(1.0, 2.0))
        snap = {
            "worker": 1,
            "counters": {},
            "gauges": {},
            "histograms": {
                "h": {"edges": (5.0,), "counts": [0, 0], "sum": 0.0, "count": 0}
            },
        }
        with pytest.raises(ValueError, match="edges differ"):
            merge.merge_snapshot(snap, registry=reg)


# ----------------------------------------------------------------------
# samplers + engine determinism
# ----------------------------------------------------------------------
def _run_flit(offered=2.0, tracer=None):
    from repro.core import DSNTopology
    from repro.routing import DuatoAdaptiveRouting
    from repro.sim import AdaptiveEscapeAdapter, FlitLevelSimulator, SimConfig
    from repro.traffic import make_pattern

    cfg = SimConfig(warmup_ns=1000, measure_ns=4000, drain_ns=8000, seed=3)
    topo = DSNTopology(16)
    adapter = AdaptiveEscapeAdapter(
        DuatoAdaptiveRouting(topo), cfg.num_vcs, np.random.default_rng(0)
    )
    pattern = make_pattern("uniform", topo.n * cfg.hosts_per_switch)
    return FlitLevelSimulator(topo, adapter, pattern, offered, cfg, tracer=tracer).run()


def _run_event(offered=2.0):
    from repro.core import DSNTopology
    from repro.routing import DuatoAdaptiveRouting
    from repro.sim import AdaptiveEscapeAdapter, NetworkSimulator, SimConfig
    from repro.traffic import make_pattern

    cfg = SimConfig(warmup_ns=1000, measure_ns=4000, drain_ns=8000, seed=3)
    topo = DSNTopology(16)
    adapter = AdaptiveEscapeAdapter(
        DuatoAdaptiveRouting(topo), cfg.num_vcs, np.random.default_rng(0)
    )
    pattern = make_pattern("uniform", topo.n * cfg.hosts_per_switch)
    return NetworkSimulator(topo, adapter, pattern, offered, cfg).run()


class TestSamplerDeterminism:
    def test_flit_results_identical_on_vs_off(self):
        telemetry.reset()
        telemetry.disable()
        off = _run_flit()
        telemetry.enable()
        try:
            on = _run_flit()
        finally:
            telemetry.reset()
            telemetry.refresh_from_env()
        assert off.latencies_ns == on.latencies_ns
        assert off.hop_counts == on.hop_counts
        assert off.delivered_measured == on.delivered_measured
        assert off.delivered_in_window_bits == on.delivered_in_window_bits
        assert off.telemetry == {}
        assert on.telemetry["engine"] == "flit"
        assert on.telemetry["num_samples"] == len(on.telemetry["samples"]) > 0

    def test_event_results_identical_on_vs_off(self):
        telemetry.reset()
        telemetry.disable()
        off = _run_event()
        telemetry.enable()
        try:
            on = _run_event()
        finally:
            telemetry.reset()
            telemetry.refresh_from_env()
        assert off.latencies_ns == on.latencies_ns
        assert off.delivered_measured == on.delivered_measured
        assert off.telemetry == {}
        assert on.telemetry["engine"] == "event"
        assert on.telemetry["num_samples"] > 0

    def test_enabled_runs_repeatable(self, tel):
        a = _run_flit()
        b = _run_flit()
        assert a.latencies_ns == b.latencies_ns
        assert a.telemetry["samples"] == b.telemetry["samples"]

    def test_sample_records_shape(self, tel):
        res = _run_flit()
        rec = res.telemetry["samples"][0]
        assert {"t_ns", "link_util", "queue_occ", "util_mean", "util_max",
                "occ_mean", "occ_max", "accepted_gbps", "offered_gbps"} <= set(rec)
        assert all(0.0 <= u <= 1.0 for u in rec["link_util"])

    def test_interval_env_knob(self, tel, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY_INTERVAL_NS", "250")
        fine = _run_flit()
        monkeypatch.setenv("REPRO_TELEMETRY_INTERVAL_NS", "2000")
        coarse = _run_flit()
        assert fine.telemetry["num_samples"] > coarse.telemetry["num_samples"]
        assert fine.latencies_ns == coarse.latencies_ns

    def test_tracer_wired_into_flit_engine(self, tel):
        from repro.sim import TraceRecorder

        tr = TraceRecorder()
        res = _run_flit(tracer=tr)
        kinds = {e.kind for e in tr.events}
        assert kinds == {"inject", "hop", "deliver"}
        delivers = [e for e in tr.events if e.kind == "deliver"]
        assert len(delivers) >= res.delivered_measured
        reg = telemetry.get_registry()
        assert reg.counters["trace.events.deliver"].value == len(delivers)

    def test_tracer_truncation_counted(self, tel):
        from repro.sim import TraceRecorder

        tr = TraceRecorder(max_events=10)
        _run_flit(tracer=tr)
        assert tr.truncated and len(tr.events) == 10
        reg = telemetry.get_registry()
        assert reg.counters["trace.dropped_events"].value > 0


class TestSimSamplerUnit:
    def test_fault_marks_and_hot_links(self, tel):
        s = SimSampler([(0, 1), (1, 2)], num_hosts=4, interval_ns=100.0)
        s.sample(100.0, chan_busy_ns=np.array([50.0, 0.0]))
        s.on_fault(150.0, links_failed=2)
        s.sample(200.0, chan_busy_ns=np.array([90.0, 10.0]))
        assert s.fault_marks == [{"t_ns": 150.0, "links_failed": 2}]
        hot = s.hot_links(k=1)
        assert hot[0][0] == 0 and hot[0][1] == 1
        summ = s.finalize("unit")
        assert summ["faults"] == s.fault_marks
        assert summ["num_samples"] == 2
        reg = telemetry.get_registry()
        assert reg.counters["unit.fault_marks"].value == 1
        assert reg.gauges["unit.samples"].value == 2


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExport:
    def test_jsonl_round_trip(self, tel, tmp_path):
        telemetry.count("c", 2)
        telemetry.gauge_set("g", 1.5, tag="w")
        telemetry.observe("h", 0.5, edges=(1.0,))
        with telemetry.span("sp"):
            pass
        path = tmp_path / "t.jsonl"
        n = export.write_jsonl(path, extra_records=[{"t_ns": 1.0, "x": 2}])
        recs = export.read_jsonl(path)
        assert len(recs) == n == 5
        by_type = {r["type"]: r for r in recs}
        assert by_type["counter"]["value"] == 2
        assert by_type["gauge"]["tag"] == "w"
        assert by_type["histogram"]["counts"] == [1, 0]
        assert by_type["span"]["count"] == 1
        assert by_type["sample"]["x"] == 2

    def test_prometheus_text(self, tel):
        telemetry.count("a.b", 3)
        telemetry.gauge_set("g", 2.0, tag="pid9")
        telemetry.observe("h", 1.0, edges=(1.0, 2.0))
        telemetry.observe("h", 5.0, edges=(1.0, 2.0))
        text = export.prometheus_text()
        assert "# TYPE repro_a_b counter\nrepro_a_b 3" in text
        assert 'repro_g{worker="pid9"} 2.0' in text
        assert 'repro_h_bucket{le="1.0"} 1' in text
        assert 'repro_h_bucket{le="2.0"} 1' in text
        assert 'repro_h_bucket{le="+Inf"} 2' in text
        assert "repro_h_count 2" in text

    def test_run_summary_and_table(self, tel):
        telemetry.count("c")
        telemetry.observe("h", 0.5)
        summ = export.run_summary()
        assert summ["counters"] == {"c": 1}
        assert summ["histograms"]["h"]["count"] == 1
        table = export.summary_table()
        assert "Counters" in table and "Histograms" in table

    def test_empty_summary_message(self):
        telemetry.reset()
        assert "no telemetry recorded" in export.summary_table(TelemetryRegistry())


# ----------------------------------------------------------------------
# instrumented layers + CLI
# ----------------------------------------------------------------------
class TestInstrumentedLayers:
    def test_cache_counters(self, tel):
        from repro import cache
        from repro.core import DSNTopology

        cache.clear_cache()
        topo = DSNTopology(32)
        cache.distance_matrix(topo)
        cache.distance_matrix(topo)
        reg = telemetry.get_registry()
        assert reg.counters["cache.misses"].value >= 1
        assert reg.counters["cache.memory.hits"].value >= 1
        assert reg.gauges["cache.memory_bytes"].value > 0

    def test_routing_table_build_metrics(self, tel):
        from repro.core import DSNTopology
        from repro.routing.table import ShortestPathTable

        ShortestPathTable(DSNTopology(32)).next_hop_arrays()
        reg = telemetry.get_registry()
        assert reg.counters["routing.next_hop_builds"].value == 1
        assert reg.histograms["routing.next_hop_build_s"].count == 1
        assert reg.gauges["routing.next_hop_csr_bytes"].value > 0

    def test_blocked_bfs_metrics(self, tel):
        from repro.analysis.blocked import streaming_hop_stats
        from repro.core import DSNTopology

        streaming_hop_stats(DSNTopology(64), block_rows=16)
        reg = telemetry.get_registry()
        assert reg.counters["bfs.blocks"].value == 4
        assert reg.counters["bfs.pairs_reached"].value == 64 * 64
        assert "analysis.streaming_hop_stats" in dict(
            (p, c) for p, _s, c in telemetry.span_rows()
        )

    def test_fault_path_metrics(self, tel):
        from repro.core import DSNTopology
        from repro.faults import run_with_faults
        from repro.faults.schedule import random_link_schedule
        from repro.sim import SimConfig

        cfg = SimConfig(warmup_ns=500, measure_ns=3000, drain_ns=6000, seed=1)
        topo = DSNTopology(16)
        sched = random_link_schedule(topo, [1500.0], 0.05, seed=5)
        res = run_with_faults(topo, sched, config=cfg)
        reg = telemetry.get_registry()
        assert reg.counters["faults.events"].value == 1
        assert reg.histograms["faults.reroute_s"].count == 1
        assert len(res.telemetry["faults"]) == 1
        assert res.telemetry["faults"][0]["links_failed"] >= 1


class TestCli:
    def test_telemetry_wrapper_subcommand(self, tmp_path):
        jsonl = tmp_path / "t.jsonl"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "telemetry",
             "--jsonl", str(jsonl), "--summary", "--", "info", "32"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert "Counters" in proc.stdout
        recs = export.read_jsonl(jsonl)
        assert any(r["type"] == "counter" for r in recs)

    def test_telemetry_cannot_wrap_itself(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "telemetry", "--", "telemetry"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
