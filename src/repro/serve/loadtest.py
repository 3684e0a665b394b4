"""Load-test harness for the serving daemon: ``python -m repro loadtest``.

Replays a query mix against a running daemon (or one it spawns with
``--spawn``) and reports warm/miss latency percentiles and sustained
throughput -- the numbers the ``serve_*`` timing gates pin.

The mix models the mass-evaluation workloads the serving tier exists
for (thousands of overlapping candidate evaluations): a fixed
candidate set of query paths is sampled with **zipfian hot-key skew**
(request probability of the rank-``r`` candidate is proportional to
``1 / r**s``), so a handful of hot keys dominate -- exactly the
distribution request coalescing and the memory LRU are supposed to
win on. Sampling is seeded and deterministic: the same
``(candidates, requests, skew, seed)`` always replays the same mix.

The client is plain asyncio over keep-alive sockets -- ``concurrency``
connections each draining a shard of the mix -- so the harness needs
nothing beyond the standard library and measures the daemon, not an
HTTP client stack.
"""

from __future__ import annotations

import asyncio
import json
import signal
import subprocess
import sys
import time
import urllib.parse
from dataclasses import dataclass, field

import numpy as np

from repro.serve import handlers

__all__ = [
    "LoadtestReport",
    "default_candidates",
    "build_mix",
    "run_loadtest",
    "percentile",
    "spawn_daemon",
]

#: Warm sources (no compute happened on the request path).
WARM_SOURCES = ("memory", "disk")


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by nearest-rank; 0.0 for empty input."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


# ----------------------------------------------------------------------
# mix construction
# ----------------------------------------------------------------------
def default_candidates(
    n: int = 16,
    seed: int = 1,
    kinds: tuple[str, ...] = ("dsn", "torus", "random"),
    patterns: tuple[str, ...] = ("uniform", "bit_reversal"),
    loads: tuple[float, ...] = (1.0, 2.0, 4.0),
) -> list[str]:
    """The stock candidate set: every latency point of a small
    kinds x patterns x loads grid (quick config) plus one topology-
    metrics query per kind -- a miniature cluster-comparison study."""
    paths = [
        handlers.job_path(handlers.latency_job(kind, pattern, load, n=n, seed=seed))
        for kind in kinds
        for pattern in patterns
        for load in loads
    ]
    paths.extend(handlers.job_path(handlers.topology_job(kind, n=n, seed=seed))
                 for kind in kinds)
    return paths


def build_mix(candidates: list[str], requests: int, skew: float = 1.1,
              seed: int = 0) -> list[str]:
    """Sample ``requests`` paths from ``candidates`` with zipfian skew.

    ``skew=0`` degenerates to uniform. Rank order is a seeded shuffle
    of the candidate list, so which keys are "hot" is deterministic but
    not just "first in the grid".
    """
    if not candidates:
        raise ValueError("empty candidate set")
    rng = np.random.default_rng(seed)
    ranked = list(candidates)
    rng.shuffle(ranked)
    weights = 1.0 / np.arange(1, len(ranked) + 1, dtype=float) ** skew
    weights /= weights.sum()
    picks = rng.choice(len(ranked), size=requests, p=weights)
    return [ranked[i] for i in picks]


# ----------------------------------------------------------------------
# the client
# ----------------------------------------------------------------------
@dataclass
class LoadtestReport:
    """What one replay measured."""

    requests: int = 0
    errors: int = 0  #: non-200 responses and transport failures
    rejected: int = 0  #: 429 backpressure responses (subset of non-200)
    by_source: dict = field(default_factory=dict)  #: source -> count
    warm_p50_ms: float = 0.0
    warm_p99_ms: float = 0.0
    miss_p99_ms: float = 0.0
    wall_s: float = 0.0
    throughput_rps: float = 0.0
    bodies: dict = field(default_factory=dict)  #: path -> first body (capture=True)

    @property
    def warm_hits(self) -> int:
        return sum(self.by_source.get(s, 0) for s in WARM_SOURCES)

    @property
    def warm_hit_rate(self) -> float:
        return self.warm_hits / self.requests if self.requests else 0.0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "rejected": self.rejected,
            "by_source": dict(self.by_source),
            "warm_hit_rate": round(self.warm_hit_rate, 4),
            "warm_p50_ms": round(self.warm_p50_ms, 3),
            "warm_p99_ms": round(self.warm_p99_ms, 3),
            "miss_p99_ms": round(self.miss_p99_ms, 3),
            "wall_s": round(self.wall_s, 3),
            "throughput_rps": round(self.throughput_rps, 1),
        }

    def summary(self) -> str:
        return (
            f"{self.requests} requests in {self.wall_s:.2f}s "
            f"({self.throughput_rps:.0f} req/s), {self.errors} error(s), "
            f"{self.rejected} rejected, warm hit rate "
            f"{100 * self.warm_hit_rate:.1f}%, warm p50/p99 "
            f"{self.warm_p50_ms:.2f}/{self.warm_p99_ms:.2f} ms, "
            f"miss p99 {self.miss_p99_ms:.2f} ms"
        )


async def _get(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
               host: str, path: str) -> tuple[int, dict, bytes]:
    """One GET on an open keep-alive connection."""
    writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n\r\n".encode())
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body


async def _worker(host: str, port: int, paths: list[str], timeout: float,
                  samples: list, bodies: dict | None) -> None:
    """One connection draining its shard of the mix in order."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for path in paths:
            t0 = time.perf_counter()
            try:
                status, headers, body = await asyncio.wait_for(
                    _get(reader, writer, host, path), timeout=timeout
                )
            except (asyncio.TimeoutError, ConnectionError, asyncio.IncompleteReadError):
                samples.append((path, 0, "transport", time.perf_counter() - t0))
                reader, writer = await asyncio.open_connection(host, port)
                continue
            source = headers.get("x-repro-source", "")
            samples.append((path, status, source, time.perf_counter() - t0))
            if bodies is not None and status == 200 and path not in bodies:
                bodies[path] = json.loads(body.decode())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _replay(host: str, port: int, mix: list[str], concurrency: int,
                  timeout: float, capture: bool):
    samples: list = []
    bodies: dict | None = {} if capture else None
    shards: list[list[str]] = [[] for _ in range(max(1, concurrency))]
    for i, path in enumerate(mix):
        shards[i % len(shards)].append(path)
    t0 = time.perf_counter()
    await asyncio.gather(*(
        _worker(host, port, shard, timeout, samples, bodies)
        for shard in shards if shard
    ))
    return samples, bodies, time.perf_counter() - t0


def run_loadtest(host: str, port: int, mix: list[str], concurrency: int = 8,
                 timeout: float = 120.0, capture: bool = False) -> LoadtestReport:
    """Replay ``mix`` against a running daemon and measure it.

    ``capture=True`` keeps the first 200-response body per path (the
    ``serve_byte_identity`` gate compares them byte-for-byte against
    direct in-process computes). Latencies are split by the
    ``X-Repro-Source`` header: memory/disk responses are *warm*,
    computed/coalesced are *miss*.
    """
    samples, bodies, wall = asyncio.run(
        _replay(host, port, mix, concurrency, timeout, capture)
    )
    report = LoadtestReport(requests=len(samples), wall_s=wall)
    warm_ms: list[float] = []
    miss_ms: list[float] = []
    for _path, status, source, dt in samples:
        if status != 200:
            report.errors += 1
            if status == 429:
                report.rejected += 1
            continue
        report.by_source[source] = report.by_source.get(source, 0) + 1
        (warm_ms if source in WARM_SOURCES else miss_ms).append(dt * 1000.0)
    report.warm_p50_ms = percentile(warm_ms, 0.50)
    report.warm_p99_ms = percentile(warm_ms, 0.99)
    report.miss_p99_ms = percentile(miss_ms, 0.99)
    report.throughput_rps = report.requests / wall if wall > 0 else 0.0
    if bodies is not None:
        report.bodies = bodies
    return report


def populate(paths: list[str]) -> int:
    """Compute every distinct query directly in-process (publishing to
    the active ``REPRO_STORE_DIR``), so a subsequent replay is warm.
    Returns the number of distinct queries computed."""
    unique = list(dict.fromkeys(paths))
    for path in unique:
        target, _, query = path.partition("?")
        params = {k: v[-1] for k, v in urllib.parse.parse_qs(query).items()}
        handlers.compute_job(handlers.parse_query(target, params))
    return len(unique)


# ----------------------------------------------------------------------
# daemon spawning (CLI --spawn and the CI smoke step)
# ----------------------------------------------------------------------
class spawn_daemon:
    """Context manager running ``python -m repro serve`` as a child.

    Parses the daemon's ``serving on http://host:port`` announce line
    for the bound port, and on exit sends SIGTERM and checks the child
    exits cleanly (returncode 0) -- the CI smoke step's shutdown
    assertion."""

    def __init__(self, extra_args: list[str] | None = None, startup_timeout: float = 60.0):
        self.args = extra_args or []
        self.startup_timeout = startup_timeout
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0
        self.clean_exit: bool | None = None

    def __enter__(self) -> "spawn_daemon":
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *self.args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        deadline = time.monotonic() + self.startup_timeout
        while True:
            if time.monotonic() > deadline:
                self.proc.kill()
                raise RuntimeError("spawned daemon never announced its port")
            line = self.proc.stdout.readline()
            if not line and self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited at startup (rc={self.proc.returncode})")
            if line.startswith("serving on http://"):
                hostport = line.strip().rsplit("/", 1)[-1]
                self.host, port = hostport.rsplit(":", 1)
                self.port = int(port)
                return self

    def __exit__(self, *exc) -> None:
        if self.proc is None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10.0)
        self.clean_exit = self.proc.returncode == 0
