"""Timing and memory gates: the checks that read a clock or a peak RSS.

Every byte-identity contract lives in the tier-1 suite (``tests/``);
what remains here cannot be tier-1 because it measures time or memory.
One test per gate, each in this one process, each timing with
interleaved min-of-N series so host noise hits both sides alike::

    PYTHONPATH=src python -m pytest -x -q benchmarks/test_gates.py

``REPRO_BENCH_FULL=1`` selects the full sizes (large-n at 65536, a
seven-load store sweep, an n=1024 design frontier); the default sizes
finish in well under a minute on a 2-CPU host.

The floors are CI-safe tolerances, not design targets: throttled
1-CPU containers swing wall clocks 2-3x (20-35% even on an A/A
comparison), so each gate only catches a lost order of magnitude or a
fast path that stopped being taken. Each test prints its measured value.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import store, telemetry
from repro.sim import SimConfig

#: The reduced simulation windows every small-run gate uses.
QUICK_CFG = SimConfig(warmup_ns=2000, measure_ns=6000, drain_ns=12000, seed=3)

#: Flit event engine vs the cycle-scan reference on a Fig. 10-style
#: sweep, split at the knee: at low load the cycle scan burns its time
#: on idle cycles, which is what the event core skips. Quiet machines
#: measure 4-8x low and 1.5-2.5x mid (design target 10x).
EVENT_SPEEDUP_LOADS_LOW = (0.1, 0.2)
EVENT_SPEEDUP_LOADS_MID = (1.0, 2.0)
EVENT_SPEEDUP_FLOOR_LOW = 2.5
EVENT_SPEEDUP_FLOOR_MID = 1.0

#: Incremental percolation (one coupled field per trial, all fractions
#: in one fused BFS) vs the naive per-point sweep, both under the same
#: ``REPRO_BFS_BLOCK`` so the ratio is setup and dispatch, not block
#: tuning (about 6.5x measured).
PERC_GATE_N = 256
PERC_GATE_TRIALS = 4
PERC_GATE_FRACTIONS = (0.0, 0.01, 0.02, 0.03, 0.05, 0.07, 0.10, 0.13, 0.16, 0.20)
PERC_GATE_BLOCK = "4096"
PERC_SPEEDUP_FLOOR = 5.0

#: A warm (fully stored) Fig. 10 subplot against the store-off run.
STORE_WARM_SPEEDUP = 10.0
STORE_WARM_HIT_RATE = 0.95
STORE_SWEEP_LOADS_QUICK = (1.0, 2.0, 4.0)
STORE_SWEEP_LOADS_FULL = (1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0)

#: A/A noise ceiling on two interleaved series of the *same* disabled
#: workload (quiet hardware stays within 2%).
OVERHEAD_RTOL = 0.50

#: A warm design frontier, served from the store, against the cold search.
DESIGN_WARM_SPEEDUP = 10.0
DESIGN_N_QUICK = 64
DESIGN_N_FULL = 1024

#: Warm replay of a zipf mix over a populated sharded store. Quiet
#: machines serve it at single-digit ms and hundreds of req/s.
SERVE_REQUESTS = 200
SERVE_CONCURRENCY = 8
SERVE_WARM_P99_MS = 500.0
SERVE_MIN_RPS = 25.0

#: Out-of-process large-n runs. At n=65536 even an int8 n x n matrix is
#: 4.3 GB, so a peak RSS under 2 GB proves none is ever materialized.
LARGE_N_QUICK = 8192
LARGE_N_FULL = 65536
LARGE_N_RSS_MB = 2048


@pytest.fixture(autouse=True)
def clean_store(monkeypatch):
    for name in ("REPRO_STORE", "REPRO_STORE_DIR", "REPRO_STORE_SHARDS"):
        monkeypatch.delenv(name, raising=False)
    store.clear_store()
    store.reset_store_stats()
    yield
    store.clear_store()


def _interleaved(reps, *fns):
    """Min-of-``reps`` seconds of each callable, the series interleaved.

    Returns ``(best_seconds, last_results)``, one entry per callable.
    """
    best = [math.inf] * len(fns)
    last = [None] * len(fns)
    for _ in range(reps):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            last[i] = fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best, last


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _flit_run(load, engine=None, cfg=SimConfig(seed=3)):
    """One flit-level run: DSN n=16, adaptive routing, uniform traffic."""
    from repro.core import DSNTopology
    from repro.routing import DuatoAdaptiveRouting
    from repro.sim import AdaptiveEscapeAdapter, FlitLevelSimulator
    from repro.traffic import make_pattern

    topo = DSNTopology(16)
    adapter = AdaptiveEscapeAdapter(
        DuatoAdaptiveRouting(topo), cfg.num_vcs, np.random.default_rng(0)
    )
    pattern = make_pattern("uniform", topo.n * cfg.hosts_per_switch)
    return FlitLevelSimulator(topo, adapter, pattern, load, cfg, engine=engine).run()


# ----------------------------------------------------------------------
# speedup floors
# ----------------------------------------------------------------------
def test_event_engine_speedup():
    """Per-segment geometric-mean speedup of the event loop over the
    cycle scan (paper-length windows, min of 2 per engine and load)."""
    speedups = {}
    for load in EVENT_SPEEDUP_LOADS_LOW + EVENT_SPEEDUP_LOADS_MID:
        (cycle_s, event_s), (res_c, res_e) = _interleaved(
            2, lambda: _flit_run(load, "cycle"), lambda: _flit_run(load, "event")
        )
        assert store.encode_result(res_c) == store.encode_result(res_e), load
        speedups[load] = cycle_s / event_s

    def geomean(loads):
        return math.exp(sum(math.log(speedups[x]) for x in loads) / len(loads))

    low, mid = geomean(EVENT_SPEEDUP_LOADS_LOW), geomean(EVENT_SPEEDUP_LOADS_MID)
    print(f"\nevent_engine_speedup: {low:.2f}x low (floor {EVENT_SPEEDUP_FLOOR_LOW}x), "
          f"{mid:.2f}x mid (floor {EVENT_SPEEDUP_FLOOR_MID}x)")
    assert low >= EVENT_SPEEDUP_FLOOR_LOW
    assert mid >= EVENT_SPEEDUP_FLOOR_MID


def test_percolation_sweep_speedup(monkeypatch):
    """Incremental engine against one standalone naive job per
    (trial, fraction) point, store off so both legs compute."""
    from repro.faults.percolation import _naive_point_job, percolation_sweep

    monkeypatch.setenv("REPRO_STORE", "off")
    monkeypatch.setenv("REPRO_BFS_BLOCK", PERC_GATE_BLOCK)
    monkeypatch.delenv("REPRO_SHM", raising=False)
    kw = dict(n=PERC_GATE_N, fractions=PERC_GATE_FRACTIONS,
              trials=PERC_GATE_TRIALS, seed=0, kinds=("dsn",))

    def naive():
        return {"dsn": [[_naive_point_job(("dsn", PERC_GATE_N, 0, 0, t, f))
                         for f in PERC_GATE_FRACTIONS]
                        for t in range(PERC_GATE_TRIALS)]}

    (naive_s, inc_s), (raw_naive, swept) = _interleaved(
        3, naive, lambda: percolation_sweep(workers=0, **kw)
    )
    assert json.dumps(raw_naive, sort_keys=True) == json.dumps(swept[2], sort_keys=True)
    speedup = naive_s / inc_s
    print(f"\npercolation_sweep_speedup: {speedup:.2f}x (floor {PERC_SPEEDUP_FLOOR}x)")
    assert speedup >= PERC_SPEEDUP_FLOOR


def test_store_warm_sweep(full_scale, monkeypatch, tmp_path):
    """A warm Fig. 10 subplot comes from the disk tier: identical
    curves, nearly every point a hit, and a 10x shorter wall time."""
    from repro.experiments.latency import fig10

    loads = STORE_SWEEP_LOADS_FULL if full_scale else STORE_SWEEP_LOADS_QUICK

    def subplot():
        return fig10("uniform", loads=loads, n=16, config=QUICK_CFG, seed=1)

    def encode(curves):
        return json.dumps([[store.encode_result(p) for p in c.points] for c in curves],
                          sort_keys=True)

    monkeypatch.setenv("REPRO_STORE", "off")
    cold, cold_s = _timed(subplot)
    monkeypatch.delenv("REPRO_STORE")
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    subplot()  # populate
    store.clear_store()  # memory tier only: warm hits must hit disk
    store.reset_store_stats()
    warm, warm_s = _timed(subplot)
    hit_rate = store.store_stats().hit_rate
    speedup = cold_s / warm_s
    print(f"\nstore_warm_sweep: {speedup:.1f}x (floor {STORE_WARM_SPEEDUP}x), "
          f"hit rate {hit_rate:.2f} (floor {STORE_WARM_HIT_RATE})")
    assert encode(cold) == encode(warm)
    assert hit_rate >= STORE_WARM_HIT_RATE
    assert speedup >= STORE_WARM_SPEEDUP


def test_design_frontier_warm(full_scale, monkeypatch, tmp_path):
    """A warm frontier is served from disk (no miss) 10x faster than
    the cold search."""
    from repro.design import compute_frontier, frontier_text

    n = DESIGN_N_FULL if full_scale else DESIGN_N_QUICK
    monkeypatch.setenv("REPRO_STORE", "off")
    cold, cold_s = _timed(lambda: frontier_text(compute_frontier(n, workers=0)))
    monkeypatch.delenv("REPRO_STORE")
    monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
    compute_frontier(n, workers=0)  # populate
    store.clear_store()  # memory tier only: the warm hit must hit disk
    store.reset_store_stats()
    warm, warm_s = _timed(lambda: frontier_text(compute_frontier(n, workers=0)))
    stats = store.store_stats()
    speedup = cold_s / warm_s
    print(f"\ndesign_frontier_warm: n={n} {speedup:.1f}x (floor {DESIGN_WARM_SPEEDUP}x), "
          f"{stats.disk_hits} disk hit(s), {stats.misses} miss(es)")
    assert cold == warm
    assert stats.disk_hits >= 1 and stats.misses == 0
    assert speedup >= DESIGN_WARM_SPEEDUP


# ----------------------------------------------------------------------
# disabled-path overhead (A/A noise ceilings)
# ----------------------------------------------------------------------
def test_telemetry_disabled_overhead():
    telemetry.disable()
    try:
        def run():
            return _flit_run(2.0, cfg=QUICK_CFG)

        run()  # warm caches out of the measurement
        (a_s, b_s), _ = _interleaved(3, run, run)
    finally:
        telemetry.reset()
        telemetry.refresh_from_env()
    ratio = b_s / a_s
    print(f"\ntelemetry_disabled_overhead: ratio {ratio:.3f} (ceiling {1 + OVERHEAD_RTOL})")
    assert ratio <= 1.0 + OVERHEAD_RTOL


def test_store_disabled_overhead(monkeypatch):
    from repro.experiments.latency import _curve_point

    monkeypatch.setenv("REPRO_STORE", "off")
    args = ("dsn", "uniform", 2.0, 16, QUICK_CFG, 1, "adaptive")

    def run():
        return _curve_point(args)

    run()  # warm topology/routing caches out of the measurement
    (a_s, b_s), _ = _interleaved(3, run, run)
    ratio = b_s / a_s
    print(f"\nstore_disabled_overhead: ratio {ratio:.3f} (ceiling {1 + OVERHEAD_RTOL})")
    assert ratio <= 1.0 + OVERHEAD_RTOL


# ----------------------------------------------------------------------
# serving tier: one warm replay, three gates
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serve_replay(tmp_path_factory):
    """Compute every candidate in-process into a sharded store, then
    replay a zipf mix over it against a daemon on a background thread.

    Returns ``(report, direct)``: the load-test report (first body per
    path captured) and each path's directly computed document.
    """
    from repro import serve

    with pytest.MonkeyPatch.context() as mp:
        for name in ("REPRO_STORE", "REPRO_STORE_SHARDS"):
            mp.delenv(name, raising=False)
        mp.setenv("REPRO_STORE_DIR", str(tmp_path_factory.mktemp("serve-store")))
        store.clear_store()
        candidates = serve.default_candidates(n=16)
        direct = {}
        for path in candidates:
            target, _, query = path.partition("?")
            params = dict(p.split("=", 1) for p in query.split("&"))
            direct[path] = serve.compute_job(serve.parse_query(target, params))
        mix = serve.build_mix(candidates, SERVE_REQUESTS, skew=1.1, seed=5)
        try:
            with serve.ServerThread(serve.ServeConfig(port=0)) as srv:
                report = serve.run_loadtest("127.0.0.1", srv.port, mix,
                                            concurrency=SERVE_CONCURRENCY, capture=True)
        finally:
            store.clear_store()
    return report, direct


def test_serve_warm_hits(serve_replay):
    report, _ = serve_replay
    print(f"\nserve_warm_hits: {report.warm_hit_rate:.2f}, {report.errors} error(s)")
    assert report.warm_hit_rate >= 1.0
    assert report.errors == 0


def test_serve_byte_identity(serve_replay):
    from repro.serve import result_text

    report, direct = serve_replay
    assert report.bodies
    for path, body in report.bodies.items():
        assert result_text(body["result"]) == result_text(direct[path]), path


def test_serve_latency_budget(serve_replay):
    report, _ = serve_replay
    print(f"\nserve_latency_budget: p99 {report.warm_p99_ms:.2f} ms "
          f"(ceiling {SERVE_WARM_P99_MS:.0f}), {report.throughput_rps:.0f} req/s "
          f"(floor {SERVE_MIN_RPS:.0f})")
    assert report.warm_p99_ms <= SERVE_WARM_P99_MS
    assert report.throughput_rps >= SERVE_MIN_RPS


# ----------------------------------------------------------------------
# large n, each in a fresh process so its peak RSS is its own
# ----------------------------------------------------------------------
_STREAMING_SCRIPT = """\
import json, resource, sys
from repro.analysis.blocked import streaming_hop_stats
from repro.experiments.sweeps import make_topology
n = int(sys.argv[1])
stats = streaming_hop_stats(make_topology("dsn", n, seed=0))
print(json.dumps({"n": n, "diameter": stats.diameter, "aspl": stats.aspl,
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024}))
"""

_PERCOLATION_SCRIPT = """\
import json, resource, sys
from repro.faults.percolation import percolation_trial
n = int(sys.argv[1])
rows = percolation_trial("dsn", n, fractions=(0.0, 0.05), seed=0, trial=0, workers=0)
print(json.dumps({"n": n, "lcc_fraction": rows[-1]["lcc"] / n, "aspl": rows[-1]["aspl"],
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024}))
"""


def _child(script: str, n: int) -> subprocess.CompletedProcess:
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, REPRO_STORE="off")
    return subprocess.run([sys.executable, "-c", script, str(n)],
                          env=env, capture_output=True, text=True)


@pytest.fixture(scope="module", params=["streaming", "percolation"])
def large_n_run(request, full_scale):
    script = {"streaming": _STREAMING_SCRIPT, "percolation": _PERCOLATION_SCRIPT}
    n = LARGE_N_FULL if full_scale else LARGE_N_QUICK
    return _child(script[request.param], n)


def test_large_n_completed(large_n_run):
    assert large_n_run.returncode == 0, large_n_run.stderr
    print(f"\nlarge_n_completed: {large_n_run.stdout.strip()}")


def test_large_n_memory_bounded(large_n_run):
    assert large_n_run.returncode == 0, large_n_run.stderr
    stats = json.loads(large_n_run.stdout.strip().splitlines()[-1])
    assert stats["maxrss_mb"] <= LARGE_N_RSS_MB
