"""The benchmark's workloads, and the process that runs one of them.

``run.py`` starts ``python -m perfbench.workloads`` once per set-up
sample and once for the measured run of each workload. The process
sets up, then runs timed passes for about ``--seconds``, checks the
outputs and writes one JSON result document. Every pass
starts cold -- the worker pool shut down, the in-process artifact
cache and run-store tiers emptied -- as a fresh command would, so
repeated passes measure the same work.

Workloads reach the program only through its public functions; the
simulation windows are shortened from the paper's (10/30/40 us warmup/
measure/drain) to 2/6/12 us so that a pass takes a few seconds.
"""

from __future__ import annotations

import argparse
import asyncio
import collections
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TMP_DIR = ROOT / ".perfbench" / "tmp"
REFERENCE = Path(__file__).resolve().parent / "reference" / "seed0.json"

#: Shortened simulation windows (ns); see the module docstring.
WINDOWS = dict(warmup_ns=2_000.0, measure_ns=6_000.0, drain_ns=12_000.0)
WORKERS = 2  # the benchmark host has 2 CPUs


def child_env(**extra: str) -> dict:
    """Environment for the processes the benchmark starts: the checkout's
    ``src`` (the program) and root (this package) come first on the
    path, and temporary files stay inside the checkout."""
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["TMPDIR"] = str(TMP_DIR)
    env.update(extra)
    return env


def digest(obj) -> str:
    """sha256 of canonical JSON, floats rounded to 10 significant digits
    (exact outputs, but immune to last-bit summation-order noise)."""
    def canon(x):
        if isinstance(x, float):
            return x if not math.isfinite(x) else float(f"{x:.10g}")
        if isinstance(x, dict):
            return {str(k): canon(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [canon(v) for v in x]
        return x

    text = json.dumps(canon(obj), sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def peak_rss_mb() -> float:
    """Largest RSS of this process and every child it has reaped."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
class Batch:
    """One call of a public entry point per pass."""

    name = ""
    full: dict = {}
    smoke: dict = {}
    #: False when the inputs do not depend on the seed (then the seed-0
    #: reference digest holds for every seed).
    seeded = True

    def setup(self, p: dict) -> None:
        """Import what the pass calls (part of the measured set-up)."""

    def call(self, p: dict, seed: int):
        raise NotImplementedError

    def items(self, p: dict, out) -> int:
        """Work items one pass completes (for ``ops_per_s``)."""
        raise NotImplementedError

    def canonical(self, out):
        """JSON-able form of the output that the digest covers."""
        raise NotImplementedError

    def invariants(self, p: dict, out) -> list[str]:
        """Seed-independent checks; returns the violations."""
        return []

    @contextlib.contextmanager
    def pass_context(self):
        yield


def _sim_config(router=None):
    from repro.sim import SimConfig

    return SimConfig(**WINDOWS) if router is None else SimConfig(router=router, **WINDOWS)


def _curve_violations(curves, cfg) -> list[str]:
    """Delivered <= generated at every load, and the lowest-load latency
    is not below the closed-form zero-load latency at its mean hop count
    by more than 5%. (The flit model pipelines flits through the
    router and link stages and lands 2-3% under the closed form.)"""
    errors = []
    for c in curves:
        for pt in c.points:
            if pt.delivered_measured > pt.generated_measured:
                errors.append(f"{c.topology} @ {pt.offered_gbps}: delivered "
                              f"{pt.delivered_measured} > generated {pt.generated_measured}")
        low = c.points[0]
        floor = 0.95 * cfg.zero_load_latency_ns(low.avg_hops)
        if not low.avg_latency_ns >= floor:
            errors.append(f"{c.topology}: lowest-load latency {low.avg_latency_ns} ns "
                          f"is more than 5% under the zero-load latency")
    return errors


def _encoded_curves(curves):
    from repro.store import encode_result

    return [[encode_result(pt) for pt in c.points] for c in curves]


class Fig10Flit(Batch):
    name = "fig10_flit"
    full = {"n": 64, "loads": [1.0, 4.0, 8.0, 12.0], "pattern": "uniform"}
    smoke = {"n": 16, "loads": [1.0, 8.0], "pattern": "uniform"}

    def setup(self, p):
        import repro.experiments.latency  # noqa: F401

    def call(self, p, seed):
        from repro.experiments import latency

        return latency.fig10(p["pattern"], loads=tuple(p["loads"]), n=p["n"],
                             config=_sim_config(), seed=seed, sim_engine="flit",
                             workers=WORKERS)

    def items(self, p, out):
        return sum(len(c.points) for c in out)

    def canonical(self, out):
        return _encoded_curves(out)

    def invariants(self, p, out):
        return _curve_violations(out, _sim_config())


class RouterPipelined(Batch):
    name = "router_pipelined"
    full = {"n": 64, "loads": [1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0], "depth": 38}
    smoke = {"n": 16, "loads": [1.0, 8.0], "depth": 38}

    def _config(self, p):
        from repro.sim.router import RouterConfig

        return _sim_config(RouterConfig.with_depth(p["depth"]))

    def setup(self, p):
        import repro.experiments.latency  # noqa: F401

    def call(self, p, seed):
        from repro.experiments import latency

        return [latency.run_curve("dsn", "uniform", loads=tuple(p["loads"]), n=p["n"],
                                  config=self._config(p), seed=seed, sim_engine="flit",
                                  workers=WORKERS)]

    def items(self, p, out):
        return len(out[0].points)

    def canonical(self, out):
        return _encoded_curves(out)

    def invariants(self, p, out):
        return _curve_violations(out, self._config(p))


class Percolation(Batch):
    name = "percolation"
    full = {"n": 4096, "trials": 2}
    smoke = {"n": 512, "trials": 1}

    def setup(self, p):
        import repro.faults.percolation  # noqa: F401

    def call(self, p, seed):
        from repro.faults import percolation

        return percolation.percolation_sweep(n=p["n"], trials=p["trials"], seed=seed,
                                             workers=WORKERS)

    def items(self, p, out):
        return sum(len(trials) for trials in out[2].values())

    def canonical(self, out):
        return out[2]

    def invariants(self, p, out):
        errors = []
        for kind, trials in out[2].items():
            for t, rows in enumerate(trials):
                fractions = [r["fraction"] for r in rows]
                lcc = [r["lcc"] for r in rows]
                if fractions != sorted(fractions):
                    errors.append(f"{kind} trial {t}: fractions out of order")
                if any(b > a for a, b in zip(lcc, lcc[1:])):
                    errors.append(f"{kind} trial {t}: largest component grows: {lcc}")
        return errors


class DesignFrontier(Batch):
    name = "design_frontier"
    full = {"n": 1024}
    smoke = {"n": 64}
    seeded = False

    def setup(self, p):
        import repro.design.frontier  # noqa: F401

    @contextlib.contextmanager
    def pass_context(self):
        """A fresh, empty disk store for every pass."""
        TMP_DIR.mkdir(parents=True, exist_ok=True)
        d = tempfile.mkdtemp(prefix="design-store-", dir=TMP_DIR)
        os.environ["REPRO_STORE_DIR"] = d
        try:
            yield
        finally:
            os.environ.pop("REPRO_STORE_DIR", None)
            shutil.rmtree(d, ignore_errors=True)

    def call(self, p, seed):
        from repro import design

        return design.compute_frontier(p["n"], workers=WORKERS)

    def items(self, p, out):
        return out["num_candidates"]

    def canonical(self, out):
        from repro.design.frontier import frontier_text

        return frontier_text(out)

    def invariants(self, p, out):
        labels = {ev["label"] for ev in out["evaluations"]}
        errors = []
        if not out["pareto"] or not set(out["pareto"]) <= labels:
            errors.append(f"bad pareto set {out['pareto']}")
        if len(out["evaluations"]) != out["num_candidates"]:
            errors.append("evaluation count differs from the candidate count")
        return errors


class Fig8Large(Batch):
    name = "fig8_large"
    #: 2048 is computed dense, 12288 streams (dense is allowed up to
    #: n ~ 11585 under the default 1 GB budget).
    full = {"sizes": [2048, 12288]}
    smoke = {"sizes": [256, 12288]}

    def setup(self, p):
        import repro.experiments.graphs  # noqa: F401

    def call(self, p, seed):
        from repro.experiments import graphs

        return graphs.fig8_aspl(sizes=tuple(p["sizes"]), seed=seed, workers=1)

    def items(self, p, out):
        return sum(len(r.values) for r in out)

    def canonical(self, out):
        return [[r.n, r.values] for r in out]

    def invariants(self, p, out):
        errors = []
        for r in out:
            for kind, aspl in r.values.items():
                if not 1.0 < aspl < r.n:
                    errors.append(f"n={r.n} {kind}: ASPL {aspl} out of range")
            if not r.values["dsn"] < r.values["torus"]:
                errors.append(f"n={r.n}: DSN ASPL {r.values['dsn']} not below "
                              f"torus {r.values['torus']}")
        return errors


@contextlib.contextmanager
def _tracing(tracer):
    """Tracer wrappers plus the program's own telemetry, for one pass."""
    from repro import telemetry

    os.environ["REPRO_TELEMETRY"] = "1"
    telemetry.reset()
    telemetry.enable()
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
        telemetry.disable()
        os.environ.pop("REPRO_TELEMETRY", None)


def _fresh_state() -> None:
    from repro import cache, store
    from repro.util.parallel import shutdown_pool

    shutdown_pool()
    cache.clear_cache()
    store.clear_store()
    gc.collect()


def run_batch(w: Batch, p: dict, seed: int, seconds: float, smoke: bool,
              tracer, reference: str | None) -> dict:
    """Timed passes of a batch workload; traced runs alternate untraced
    and traced passes so the tracing overhead is measured in-run."""
    from perfbench import trace as tr

    walls = {"untraced": [], "traced": []}
    totals: tuple[dict, dict] = ({}, {})
    errors: list[str] = []
    digests: list[str] = []
    items = 0
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        out = None
        with w.pass_context():
            _fresh_state()
            with _tracing(tracer) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    with tracer.root(f"pass{attempted}") if traced else contextlib.nullcontext():
                        out = w.call(p, seed)
                except Exception as exc:  # noqa: BLE001 - reported as a failed pass
                    errors.append(f"pass {attempted} raised {type(exc).__name__}: {exc}")
                dt = time.perf_counter() - t0
                if traced:
                    tr.add_into(totals, tr.registry_counts())
        if out is None:
            failed += 1
            break
        walls["traced" if traced else "untraced"].append(dt)
        items += w.items(p, out)
        pass_errors = w.invariants(p, out)
        if not traced:  # traced passes turn on telemetry, whose digest SimResults embed
            d = digest(w.canonical(out))
            if digests and d != digests[0]:
                pass_errors.append(f"pass {attempted} output differs from the first pass")
            if reference is not None and d != reference:
                pass_errors.append(f"digest {d[:16]} differs from the reference {reference[:16]}")
            digests.append(d)
        if pass_errors:
            failed += 1
            errors.extend(pass_errors)
            break
        # Stop before a pass that would likely end after --seconds.
        done = smoke or time.perf_counter() - start + dt > seconds
        if done and (tracer is None or attempted >= 2):  # traced: one pass of each kind
            break
    _fresh_state()
    untraced = walls["untraced"]
    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": digests[0] if digests else None,
        "pass_walls_s": walls,
    }
    if tracer is None and untraced:
        # The fastest pass: every pass does the same cold work, and on a
        # shared host the fastest is the least disturbed (see README).
        best = min(untraced)
        result["metrics"] = {
            "wall_s": best,
            "ops_per_s": items / attempted / best,
            "lat_p50_ms": best * 1e3,  # a pass is the one operation
            "lat_tail_ms": best * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
    elif tracer is not None and walls["traced"] and untraced:
        result["layers"] = tr.layer_metrics(totals, walls["traced"], untraced)
        result["functions"] = tr.function_calls(totals[0])
    return result


# ----------------------------------------------------------------------
# the serving workload
# ----------------------------------------------------------------------
class ServeMixed:
    """Closed loop over keep-alive connections against ``repro serve``:
    a zipf(1.1) mix over 90 candidate queries, half of them published
    to the store beforehand. A pass replays the mix against a freshly
    started daemon on a fresh copy of that store, so every pass does the
    same cold fills and the same memory and disk hits."""

    name = "serve_mixed"
    full = {"n": 16, "requests": 3000, "connections": 2, "identity_paths": 10}
    smoke = {"n": 16, "requests": 1000, "connections": 2, "identity_paths": 10}

    KINDS = ("dsn", "dsn_v", "torus", "random", "random_regular")
    PATTERNS = ("uniform", "bit_reversal", "bit_complement")
    LOADS = (1.0, 2.0, 4.0, 6.0, 8.0)
    TOPO_SIZES = (64, 256, 1024)

    def candidates(self, p) -> list[str]:
        from repro.serve import handlers

        paths = [handlers.job_path(handlers.latency_job(k, pat, load, n=p["n"]))
                 for k in self.KINDS for pat in self.PATTERNS for load in self.LOADS]
        paths += [handlers.job_path(handlers.topology_job(k, n=n))
                  for k in self.KINDS for n in self.TOPO_SIZES]
        return paths

    def ranked(self, p) -> list[str]:
        """The candidates in a fixed popularity order (shuffled once)."""
        import numpy as np

        ranked = self.candidates(p)
        np.random.default_rng(0).shuffle(ranked)
        return ranked

    def mix(self, p, seed: int) -> list[str]:
        """Zipf(1.1) requests over the fixed popularity order.

        The seed draws only the request sequence. ``loadtest.build_mix``
        also draws the popularity order from the seed, and the hot set
        decides what the mix costs (a hot 17 kB latency document or a
        hot 150 B topology one): req/s moved by 30% between seeds.
        """
        import numpy as np

        ranked = self.ranked(p)
        weights = 1.0 / np.arange(1, len(ranked) + 1) ** 1.1
        picks = np.random.default_rng(seed).choice(
            len(ranked), size=p["requests"], p=weights / weights.sum())
        return [ranked[i] for i in picks]

    def populated(self, p) -> list[str]:
        """The half published before the daemon starts: every other
        candidate in popularity order. A seeded half made the cold fills
        differ between seeds, and the fastest pass with them by 25%."""
        return self.ranked(p)[::2]

    def warmup_paths(self, p) -> list[str]:
        """One topology and one latency query for keys outside the mix:
        they load the query path's lazy imports before the timed phase."""
        from repro.serve import handlers

        return [handlers.job_path(handlers.topology_job("dsn", n=32)),
                handlers.job_path(handlers.latency_job("dsn", "uniform", 3.0, n=p["n"]))]


class _Daemon:
    """One ``repro serve`` child on a store directory."""

    def __init__(self, store_dir: str, traced: bool):
        module = "perfbench.serve_child" if traced else "repro"
        env = child_env(REPRO_TELEMETRY="1") if traced else child_env()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", module, "serve", "--store-dir", store_dir, "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, cwd=ROOT, env=env,
        )
        self.log: list[str] = []
        deadline = time.monotonic() + 60.0
        line = ""
        while not line.startswith("serving on http://"):
            line = self.proc.stdout.readline()
            if not line and self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"daemon did not start: {''.join(self.log)[-2000:]}")
            self.log.append(line)
        self.host, port = line.strip().rsplit("/", 1)[-1].rsplit(":", 1)
        self.port = int(port)
        # Keep draining the child's output so it can never block on a full pipe.
        self._drain = threading.Thread(target=self._read, daemon=True)
        self._drain.start()

    def _read(self):
        for line in self.proc.stdout:
            self.log.append(line)

    def get(self, path: str) -> tuple[int, bytes]:
        try:
            with urllib.request.urlopen(f"http://{self.host}:{self.port}{path}", timeout=120) as r:
                return r.status, r.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def counts(self) -> tuple[dict, dict]:
        """The per-layer counts on the daemon's ``/metrics`` page."""
        from perfbench import trace as tr

        return tr.parse_metrics_page(self.get("/metrics")[1].decode())

    def stop(self) -> bool:
        """SIGTERM, wait, reap; True when the daemon exited cleanly."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if hasattr(self, "_drain"):
            self._drain.join(timeout=10)
        return self.proc.returncode == 0


async def _http_get(reader, writer, path: str) -> tuple[int, str, bytes]:
    """One GET on a keep-alive connection: ``(status, X-Repro-Source, body)``."""
    writer.write(f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode())
    await writer.drain()
    head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
    headers = {}
    for line in head[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return int(head[0].split()[1]), headers.get("x-repro-source", ""), body


async def _replay(host, port, mix, connections, watch):
    """Closed loop: each connection sends the next request of the mix as
    soon as its previous one is answered. Returns ``(samples, bodies,
    failures, wall_s)`` with one ``(latency_s, status, source)`` per
    request, each timed from its send."""
    samples: list[tuple[float, int, str]] = []
    bodies: dict[str, bytes] = {}
    failures: list[str] = []
    cursor = iter(mix)

    async def connection():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for path in cursor:
                t0 = time.perf_counter()
                try:
                    status, source, body = await asyncio.wait_for(
                        _http_get(reader, writer, path), 120)
                except (asyncio.TimeoutError, ConnectionError, asyncio.IncompleteReadError,
                        asyncio.LimitOverrunError, ValueError, IndexError) as exc:
                    status, source, body = 0, "", repr(exc).encode()
                    writer.close()
                    reader, writer = await asyncio.open_connection(host, port)
                samples.append((time.perf_counter() - t0, status, source))
                if status != 200 and len(failures) < 5:
                    failures.append(f"{path} -> {status or 'transport'}: {body[:200]!r}")
                if status == 200 and path in watch and path not in bodies:
                    bodies[path] = body
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    start = time.perf_counter()
    await asyncio.gather(*(connection() for _ in range(connections)))
    return samples, bodies, failures, time.perf_counter() - start


def _identity_errors(paths: list[str], bodies: dict[str, bytes]) -> list[str]:
    """Recompute ``paths`` in this process (no disk store) and compare
    their result documents byte for byte with the served ones."""
    import urllib.parse

    from repro import telemetry
    from repro.serve import handlers

    errors = []
    for path in paths:
        if path not in bodies:
            errors.append(f"{path}: never answered 200")
            continue
        doc = json.loads(bodies[path])["result"]
        served = handlers.result_text(doc)
        target, _, query = path.partition("?")
        params = {k: v[-1] for k, v in urllib.parse.parse_qs(query).items()}
        # A fill computed with telemetry on embeds the sampler digest;
        # one computed with it off does not. Recompute under the same state.
        if doc.get("telemetry"):
            telemetry.enable()
        try:
            direct = handlers.result_text(
                handlers.compute_job(handlers.parse_query(target, params)))
        finally:
            telemetry.disable()
        if served != direct:
            errors.append(f"{path}: served result differs from an in-process compute")
    return errors


def run_serve(w: ServeMixed, p: dict, seed: int, seconds: float, smoke: bool,
              traced: bool, launch: float, setup_only: bool) -> dict:
    """Timed passes of ``serve_mixed``; traced runs alternate untraced
    and traced daemons, like :func:`run_batch` alternates passes."""
    import numpy as np

    from perfbench import trace as tr

    mix = w.mix(p, seed)
    distinct = list(dict.fromkeys(mix))
    picks = np.random.default_rng(seed).choice(
        len(distinct), size=min(p["identity_paths"], len(distinct)), replace=False)
    watch = {distinct[i] for i in picks}

    TMP_DIR.mkdir(parents=True, exist_ok=True)
    root = tempfile.mkdtemp(prefix="serve-", dir=TMP_DIR)
    populated = os.path.join(root, "store")
    daemon: _Daemon | None = None

    def start(n: int, traced_pass: bool) -> _Daemon:
        """A warmed-up daemon on a fresh copy of the populated store."""
        store_dir = os.path.join(root, f"pass{n}")
        shutil.copytree(populated, store_dir)
        d = _Daemon(store_dir, traced_pass)
        for path in w.warmup_paths(p):
            status, _ = d.get(path)
            if status != 200:
                d.stop()
                raise RuntimeError(f"warm-up query {path} answered {status}")
        return d

    result: dict = {"attempted": 0, "failed": 0, "errors": []}
    try:
        subprocess.run(
            [sys.executable, "-c",
             "import json, sys; from repro.serve import loadtest; "
             "loadtest.populate(json.load(sys.stdin))"],
            input=json.dumps(w.populated(p)), text=True, check=True,
            cwd=ROOT, env=child_env(REPRO_STORE_DIR=populated),
        )
        daemon = start(1, False)
        result["setup_s"] = time.monotonic() - launch
        if setup_only:
            return result

        walls = {"untraced": [], "traced": []}
        totals: tuple[dict, dict] = ({}, {})
        best = bodies = None
        traced_samples: list = []
        begin = time.perf_counter()
        n = 0
        while True:
            cycle = time.perf_counter()
            traced_pass = traced and n % 2 == 1
            n += 1
            daemon = daemon or start(n, traced_pass)
            before = daemon.counts() if traced_pass else None
            samples, served, failures, wall = asyncio.run(
                _replay(daemon.host, daemon.port, mix, p["connections"], watch))
            if traced_pass:
                tr.add_into(totals, tr.subtract(daemon.counts(), before))
                traced_samples += samples
            if not daemon.stop():
                result["errors"].append(f"daemon exited with {daemon.proc.returncode}")
            daemon = None
            failed = sum(1 for s in samples if s[1] != 200)
            result["attempted"] += len(samples)
            result["failed"] += failed
            result["errors"].extend(failures)
            walls["traced" if traced_pass else "untraced"].append(wall)
            bodies = bodies if bodies is not None else served
            if not traced_pass and (best is None or wall < best[1]):
                best = (samples, wall)
            # Stop before a pass (with its daemon restart) that would likely end late.
            cycle = time.perf_counter() - cycle
            done = smoke or time.perf_counter() - begin + cycle > seconds
            if done and (not traced or n >= 2):
                break
        if result["failed"]:
            result["errors"].append(f"{result['failed']} request(s) failed")
        result["errors"].extend(_identity_errors(sorted(watch), bodies))
        result["pass_walls_s"] = walls
        if not traced:
            # The fastest pass, as for the batch workloads.
            samples, wall = best
            latencies = [s[0] for s in samples]
            result["metrics"] = {
                "wall_s": wall,
                "ops_per_s": len(samples) / wall,
                "lat_p50_ms": quantile(latencies, 0.50) * 1e3,
                # A pass sends thousands of requests: well over ten lie beyond p99.
                "lat_tail_ms": quantile(latencies, 0.99) * 1e3,
                "peak_rss_mb": peak_rss_mb(),
            }
            result["by_source"] = dict(collections.Counter(s[2] for s in samples if s[1] == 200))
        else:
            latencies = [s[0] for s in traced_samples]
            result["layers"] = tr.layer_metrics(
                totals, walls["traced"], walls["untraced"],
                client_latency=(quantile(latencies, 0.50), quantile(latencies, 0.99)))
            result["functions"] = tr.function_calls(totals[0])
        return result
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(root, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Fig10Flit(), RouterPipelined(), Percolation(),
                                   DesignFrontier(), Fig8Large(), ServeMixed())}


def reference_digest(name: str, mode: str, seed: int) -> str | None:
    """The committed digest this run's output must match, if any."""
    w = WORKLOADS[name]
    if isinstance(w, ServeMixed) or (w.seeded and seed != 0):
        return None
    ref = json.loads(REFERENCE.read_text())
    return ref.get(mode, {}).get(name, "missing")


# ----------------------------------------------------------------------
# process entry
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--launch", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--result", required=True, help="where to write the JSON result")
    ap.add_argument("--spans", help="where a traced run writes its spans")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    mode = "smoke" if args.smoke else "full"
    p = w.smoke if args.smoke else w.full
    if isinstance(w, ServeMixed):
        result = run_serve(w, p, args.seed, args.seconds, args.smoke, args.trace,
                           args.launch, args.setup_only)
    else:
        w.setup(p)
        result = {"setup_s": time.monotonic() - args.launch}
        tracer = None
        if args.trace:
            from perfbench.trace import Tracer

            tracer = Tracer(w.name)
        if not args.setup_only:
            result.update(run_batch(w, p, args.seed, args.seconds, args.smoke, tracer,
                                    reference_digest(w.name, mode, args.seed)))
            if tracer is not None and args.spans:
                tracer.write_spans(args.spans)
    result.update(workload=w.name, seed=args.seed, mode=mode, params=p)
    Path(args.result).write_text(json.dumps(result, indent=1, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
