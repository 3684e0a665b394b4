"""Tests for the serving tier (repro.serve).

The daemon's contract: a served answer is the stored document --
byte-identical to a direct in-process ``get_or_run`` and to
``json.dumps`` of the decoded document -- warm hits never compute, concurrent identical queries coalesce onto one fill,
and a saturated fill queue answers 429 instead of buffering without
bound.
"""

import asyncio
import json
import math
import threading
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import serve, store
from repro.serve import handlers
from repro.serve.daemon import Daemon, ServeConfig, ServerThread
from repro.store import keys


@pytest.fixture(autouse=True)
def fresh_store(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
    store.clear_store()
    store.reset_store_stats()
    yield
    store.clear_store()
    store.reset_store_stats()


def _get(url: str):
    """(status, headers, json_body) for one GET; errors don't raise."""
    try:
        with urllib.request.urlopen(url) as resp:
            return resp.status, dict(resp.headers), json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        body = exc.read()
        return exc.code, dict(exc.headers), json.loads(body) if body else {}


def _path_job(path: str) -> tuple:
    target, _, query = path.partition("?")
    params = {k: v[-1] for k, v in urllib.parse.parse_qs(query).items()}
    return handlers.parse_query(target, params)


# Small, fast queries used throughout (n=16, quick sim config).
TOPO_PATH = "/v1/topology?kind=dsn&n=16&seed=1"
LAT_PATH = ("/v1/latency?kind=dsn&pattern=uniform&load=1"
            "&n=16&seed=1&routing=adaptive&engine=network")


class TestQueryModel:
    def test_parse_round_trips_job_path(self):
        for job in (
            handlers.latency_job("dsn", "uniform", 2.0, n=16, seed=3),
            handlers.latency_job("torus", "bit_reversal", 4.0, n=64,
                                 routing="dor", engine="flit", full=True),
            handlers.topology_job("random", n=32, seed=7),
        ):
            assert _path_job(handlers.job_path(job)) == job

    def test_parse_rejects_garbage(self):
        cases = [
            ("/v1/latency", {}),  # missing everything
            ("/v1/latency", {"kind": "nope", "pattern": "uniform", "load": "1"}),
            ("/v1/latency", {"kind": "dsn", "pattern": "uniform", "load": "-3"}),
            ("/v1/latency", {"kind": "dsn", "pattern": "uniform", "load": "1",
                             "n": "999999"}),
            ("/v1/topology", {"kind": "dsn", "n": "abc"}),
            ("/v2/latency", {"kind": "dsn", "pattern": "uniform", "load": "1"}),
        ]
        for path, params in cases:
            with pytest.raises(handlers.QueryError):
                handlers.parse_query(path, params)
        # Out-of-range integers are rejected by name, before any compute.
        for path, params, field in [
            ("/v1/latency", {"kind": "dsn", "pattern": "uniform", "load": "1",
                             "seed": "-1"}, "seed"),
            ("/v1/topology", {"kind": "dsn", "seed": "-1"}, "seed"),
            ("/v1/design", {"n": "16", "sources": "-5"}, "sources"),
        ]:
            with pytest.raises(handlers.QueryError, match=field):
                handlers.parse_query(path, params)

    def test_every_pattern_builds(self):
        """Each accepted pattern name is one the traffic layer knows."""
        from repro.traffic import make_pattern

        for name in handlers.PATTERNS:
            assert make_pattern(name, 64).num_hosts == 64

    @pytest.mark.parametrize("n", [16, 64])
    def test_every_kind_builds(self, n):
        """Each accepted kind name builds through the topology factory
        with no extra arguments (``dln`` defaults to DLN-log n)."""
        from repro.experiments.sweeps import make_topology

        for kind in handlers.KINDS:
            assert make_topology(kind, n).n > 0, kind

    def test_every_kind_and_pattern_computes_at_n16(self, monkeypatch):
        """Every advertised latency query computes, including kinds
        that round n up (debruijn and ccc build 64 switches at n=16):
        the traffic pattern is sized from the built network."""
        monkeypatch.setenv("REPRO_STORE", "off")
        for kind in handlers.KINDS:
            for pattern in handlers.PATTERNS:
                job = handlers.latency_job(kind, pattern, 1.0, n=16)
                assert handlers.compute_job(job)["delivered_measured"] > 0, job

    def test_daemon_import_loads_latency_driver(self, monkeypatch):
        """The daemon has the latency driver before it accepts a
        connection: no first-request import races the fill thread."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, repro.serve.daemon; "
                "assert 'repro.experiments.latency' in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)

    def test_dln_defaults_to_log_n(self):
        from repro.experiments.sweeps import make_topology

        assert make_topology("dln", 1024).name == "DLN-10-1024"
        assert make_topology("dln", 16).name == "DLN-4-16"
        assert make_topology("dln", 16, x=3).name == "DLN-3-16"

    def test_latency_key_matches_experiment_driver(self):
        """The daemon must share store entries with ``run_curve``."""
        from repro.experiments.latency import _sim_topology

        job = handlers.latency_job("dsn", "uniform", 1.0, n=16, seed=1)
        topo = _sim_topology("dsn", 16, 1, "adaptive")
        expected = store.sim_run_key(
            topo, "adaptive", "uniform", 1.0, handlers.sim_config(False), 1,
            engine="network",
        )
        assert handlers.job_key(job).digest == expected.digest

    def test_compute_job_equals_stored_document(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        job = _path_job(TOPO_PATH)
        doc = handlers.compute_job(job)
        stored = store.get(handlers.job_key(job))
        assert handlers.result_text(doc) == handlers.result_text(stored)

    def test_safe_compute_job_contains_errors(self):
        status, payload = handlers.safe_compute_job(("latency", "dsn", "uniform",
                                                     1.0, -5, 1, "adaptive",
                                                     "network", False))
        assert status == "error" and payload


class TestDaemon:
    def test_neighboring_pattern_served(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        path = LAT_PATH.replace("pattern=uniform", "pattern=neighboring")
        with ServerThread(ServeConfig(port=0)) as srv:
            status, _, body = _get(srv.url + path)
            assert status == 200 and body["source"] == "computed"
            status, _, body = _get(srv.url + path.replace("neighboring", "neighbor"))
            assert status == 400 and "neighbor" in body["error"]
            status, _, body = _get(srv.url + LAT_PATH.replace("seed=1", "seed=-1"))
            assert status == 400 and "seed" in body["error"]

    def test_endpoints_and_sources(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        direct = handlers.compute_job(_path_job(TOPO_PATH))
        with ServerThread(ServeConfig(port=0)) as srv:
            status, _, body = _get(srv.url + "/healthz")
            assert status == 200 and body == {"ok": True}

            # Warm hit: served from the store, byte-identical to direct.
            status, headers, body = _get(srv.url + TOPO_PATH)
            assert status == 200
            assert headers["X-Repro-Source"] == body["source"] == "memory"
            assert handlers.result_text(body["result"]) == handlers.result_text(direct)

            # After dropping the memory tier the same query is a disk hit.
            store.clear_store()
            status, headers, body = _get(srv.url + TOPO_PATH)
            assert status == 200 and body["source"] == "disk"

            # Cold query: computed exactly once, then memory on re-query.
            cold = "/v1/topology?kind=torus&n=16&seed=1"
            status, _, body = _get(srv.url + cold)
            assert status == 200 and body["source"] == "computed"
            status, _, body = _get(srv.url + cold)
            assert status == 200 and body["source"] == "memory"

            # Unknown paths 400, non-GET 405.
            status, _, body = _get(srv.url + "/v1/nope")
            assert status == 400 and "error" in body
            req = urllib.request.Request(srv.url + "/healthz", method="POST")
            try:
                urllib.request.urlopen(req)
                status = 200
            except urllib.error.HTTPError as exc:
                status = exc.code
            assert status == 405

            # /stats reflects the traffic above.
            status, _, body = _get(srv.url + "/stats")
            assert status == 200
            assert body["serve"]["computed"] == 1
            assert body["serve"]["bad_requests"] == 1
            assert body["store"]["misses"] >= 1

    def test_design_endpoint(self, tmp_path, monkeypatch):
        """/v1/design serves precomputed frontiers: cold fill once,
        then warm hits byte-identical to the direct computation."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        path = "/v1/design?n=16&budget=5&seeds=1&sources=16"
        direct = handlers.compute_job(handlers.design_job(16, seeds=1, sources=16))
        with ServerThread(ServeConfig(port=0)) as srv:
            status, headers, body = _get(srv.url + path)
            assert status == 200
            assert headers["X-Repro-Source"] in ("memory", "disk")
            assert handlers.result_text(body["result"]) == handlers.result_text(direct)
            assert body["result"]["pareto"]

            status, _, body = _get(srv.url + "/v1/design?n=15")
            assert status == 400 and "error" in body
            status, _, body = _get(srv.url + "/v1/design?n=16&sources=-5")
            assert status == 400 and "sources" in body["error"]

    def test_metrics_exports_store_counters(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        handlers.compute_job(_path_job(TOPO_PATH))
        with ServerThread(ServeConfig(port=0)) as srv:
            _get(srv.url + TOPO_PATH)
            with urllib.request.urlopen(srv.url + "/metrics") as resp:
                text = resp.read().decode()
        lines = {l.split()[0]: l.split()[1] for l in text.splitlines()
                 if l and not l.startswith("#")}
        # StoreStats bridged into the registry (satellite: cache
        # effectiveness on /metrics for free).
        assert float(lines["repro_store_hits"]) >= 1
        assert float(lines["repro_store_memory_hits"]) >= 1
        assert "repro_store_misses" in lines
        assert float(lines["repro_store_bytes_written"]) > 0
        assert float(lines["repro_serve_requests"]) >= 1

    def test_coalescing_concurrent_identical_queries(self, tmp_path, monkeypatch):
        """N concurrent requests for one cold key: one compute, the
        rest coalesce (shared future), every body identical."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        fanin = 6
        with ServerThread(ServeConfig(port=0)) as srv:
            report = serve.run_loadtest(
                "127.0.0.1", srv.port, [TOPO_PATH] * fanin,
                concurrency=fanin, capture=True,
            )
            _, _, stats = _get(srv.url + "/stats")
        assert report.errors == 0
        assert stats["serve"]["computed"] == 1
        assert stats["store"]["misses"] == 1
        by = report.by_source
        assert by.get("computed", 0) == 1
        assert sum(by.values()) == fanin

    def test_backpressure_429_with_retry_after(self, tmp_path, monkeypatch):
        """With a zero-length fill queue every *distinct* cold query
        after the first is rejected with 429 + Retry-After."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        cfg = ServeConfig(port=0, queue_limit=1, retry_after_s=2.5)
        paths = [
            f"/v1/topology?kind=dsn&n={n}&seed=1" for n in (16, 20, 24, 28, 32, 36)
        ]
        rejected = 0
        with ServerThread(cfg) as srv:
            report = serve.run_loadtest(
                "127.0.0.1", srv.port, paths, concurrency=len(paths)
            )
            rejected = report.rejected
            # A direct probe sees the header when the queue is busy.
            deep = "/v1/topology?kind=random&n=40&seed=1"
            status, headers, _ = _get(srv.url + deep)
            if status == 429:
                assert headers["Retry-After"] == "2.5"
        # Backpressure engaged at least once across the burst (the
        # filler drains fast, so not every request can be rejected).
        assert rejected + (1 if status == 429 else 0) >= 1
        assert report.errors == rejected  # 429s are the only failures

    def test_daemon_shutdown_fails_pending_waiters(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        srv = ServerThread(ServeConfig(port=0)).start()
        srv.stop()
        with pytest.raises((ConnectionError, urllib.error.URLError, OSError)):
            urllib.request.urlopen(srv.url + "/healthz", timeout=2)


def _redumped(body: str) -> str:
    """What the daemon answered before the splice: ``json.dumps`` of
    the decoded document."""
    doc = json.loads(body)
    return json.dumps({"source": doc["source"], "digest": doc["digest"],
                       "result": doc["result"]}, allow_nan=True)


class TestHitPath:
    """A warm hit is a memoized key plus the stored result text spliced
    into the body; the bytes must not differ from re-encoding."""

    NAN_METRICS = {"name": "DSN-16", "n": 16, "aspl": float("nan"),
                   "diameter": 4, "ratio": 0.1 + 0.2}

    def test_bodies_identical_for_every_source(self, tmp_path, monkeypatch):
        """computed, coalesced, memory and disk answers: each body is the
        bytes of ``json.dumps`` of its decoded document, NaN included,
        and all four carry the same result text."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        gate = threading.Event()

        def slow_metrics(kind, n, seed):
            gate.wait(10.0)
            return dict(self.NAN_METRICS)

        monkeypatch.setattr(handlers, "_topo_metrics", slow_metrics)
        job = handlers.topology_job("dsn", n=16, seed=3)
        daemon = Daemon(ServeConfig(port=0))

        async def scenario():
            daemon._queue = asyncio.Queue(maxsize=4)
            filler = asyncio.create_task(daemon._filler())
            cold = [asyncio.create_task(daemon._answer(job)) for _ in range(3)]
            await asyncio.sleep(0.05)  # every request has claimed the fill
            gate.set()
            answers = await asyncio.gather(*cold)
            answers.append(await daemon._answer(job))
            store.clear_store()
            answers.append(await daemon._answer(job))
            filler.cancel()
            with pytest.raises(asyncio.CancelledError):
                await filler
            return answers

        answers = asyncio.run(scenario())
        sources = [extra[0][1] for _, _, _, extra in answers]
        assert sources == ["computed", "coalesced", "coalesced", "memory", "disk"]
        results = set()
        for status, body, _, _ in answers:
            assert status == 200
            assert body == _redumped(body)
            result = json.loads(body)["result"]
            assert math.isnan(result["aspl"])
            results.add(json.dumps(result, allow_nan=True))
        assert len(results) == 1

    def test_wire_bytes_are_the_spliced_document(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        key = handlers.job_key(_path_job(TOPO_PATH))
        store.put(key, self.NAN_METRICS)
        with ServerThread(ServeConfig(port=0)) as srv:
            for expected in ("memory", "disk"):
                if expected == "disk":
                    store.clear_store()
                with urllib.request.urlopen(srv.url + TOPO_PATH) as resp:
                    raw = resp.read()
                    assert resp.headers["X-Repro-Source"] == expected
                assert raw == _redumped(raw.decode()).encode()
                assert json.loads(raw)["digest"] == key.digest

    def test_memoized_job_key_equals_fresh_computation(self):
        jobs = [
            handlers.latency_job("dsn", "uniform", 1.0, n=16, seed=1),
            handlers.latency_job("torus", "bit_reversal", 4.0, n=16, seed=2,
                                 routing="dor", engine="flit", full=True),
            handlers.topology_job("dsn", n=16, seed=1),
            ("topo", "dsn", 16, True),  # equal to seed=1 as a tuple, not as a key
            handlers.design_job(16, budget=5, seeds=1, sources=16),
        ]
        handlers._job_key.cache_clear()
        for job in jobs:
            first = handlers.job_key(job)
            assert handlers.job_key(job) is first  # served from the memo
            assert first == handlers._job_key.__wrapped__(job, None)
        info = handlers._job_key.cache_info()
        assert info.hits == len(jobs) and info.maxsize == handlers.JOB_KEY_MEMO
        assert handlers.job_key(jobs[3]) != handlers.job_key(jobs[2])

    def test_warm_memory_hit_skips_parse_and_fingerprint(self, monkeypatch):
        """Mechanism pin (counts, not timings): a warm memory hit through
        ``Daemon._answer`` neither parses JSON nor fingerprints a config."""
        job = handlers.latency_job("dsn", "uniform", 1.0, n=16, seed=1)
        store.put(handlers.job_key(job), {"latencies_ns": [1.5, float("nan")]})
        calls = {"loads": 0, "config_fingerprint": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(json, "loads", counting("loads", json.loads))
        monkeypatch.setattr(keys, "config_fingerprint",
                            counting("config_fingerprint", keys.config_fingerprint))
        status, body, _, extra = asyncio.run(Daemon(ServeConfig(port=0))._answer(job))
        assert status == 200 and extra == [("X-Repro-Source", "memory")]
        assert calls == {"loads": 0, "config_fingerprint": 0}
        # The counters are live: a decoding fetch parses, a new job keys.
        store.fetch(handlers.job_key(job))
        handlers.job_key(handlers.latency_job("dsn", "uniform", 3.25, n=16, seed=7))
        assert calls["loads"] >= 1 and calls["config_fingerprint"] >= 1


class TestLoadtest:
    def test_percentile(self):
        xs = [float(i) for i in range(1, 101)]
        assert serve.percentile(xs, 0.0) == 1.0
        assert serve.percentile(xs, 0.50) == 51.0
        assert serve.percentile(xs, 0.99) == 99.0
        assert serve.percentile(xs, 1.0) == 100.0
        assert serve.percentile([], 0.5) == 0.0

    def test_build_mix_deterministic_and_skewed(self):
        candidates = [f"/v1/topology?kind=dsn&n={n}&seed=1" for n in range(16, 48)]
        mix_a = serve.build_mix(candidates, 500, skew=1.2, seed=9)
        mix_b = serve.build_mix(candidates, 500, skew=1.2, seed=9)
        assert mix_a == mix_b  # seeded: replays are reproducible
        assert set(mix_a) <= set(candidates)
        counts = sorted(
            (mix_a.count(c) for c in set(mix_a)), reverse=True
        )
        # Zipf skew: the hottest key dominates a uniform share.
        assert counts[0] > 500 / len(candidates) * 3

    def test_build_mix_rejects_empty(self):
        with pytest.raises(ValueError):
            serve.build_mix([], 10)

    def test_replay_warm_after_populate(self, tmp_path, monkeypatch):
        """The CI smoke contract, in-process: populate, replay, 100%
        warm hits, zero errors, bodies byte-identical to direct."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path))
        candidates = serve.default_candidates(
            n=16, kinds=("dsn",), patterns=("uniform",), loads=(1.0, 2.0)
        )
        serve.populate(candidates)
        direct = {p: handlers.compute_job(_path_job(p)) for p in candidates}
        mix = serve.build_mix(candidates, 60, skew=1.1, seed=2)
        with ServerThread(ServeConfig(port=0)) as srv:
            report = serve.run_loadtest(
                "127.0.0.1", srv.port, mix, concurrency=4, capture=True
            )
        assert report.requests == 60
        assert report.errors == 0
        assert report.warm_hit_rate == 1.0
        assert report.warm_p50_ms > 0 and report.warm_p99_ms >= report.warm_p50_ms
        assert report.throughput_rps > 0
        for path, body in report.bodies.items():
            assert handlers.result_text(body["result"]) == handlers.result_text(
                direct[path]
            )

    def test_report_dict_and_summary(self):
        report = serve.LoadtestReport(
            requests=10, errors=1, rejected=1,
            by_source={"memory": 7, "disk": 1, "computed": 1},
            warm_p50_ms=1.0, warm_p99_ms=2.0, miss_p99_ms=30.0,
            wall_s=0.5, throughput_rps=20.0,
        )
        assert report.warm_hits == 8
        assert report.warm_hit_rate == 0.8
        d = report.as_dict()
        assert d["warm_hit_rate"] == 0.8 and "bodies" not in d
        assert "warm hit rate 80.0%" in report.summary()
