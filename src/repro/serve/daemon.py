"""The serving daemon: ``python -m repro serve``.

A long-lived asyncio HTTP/1.1 server answering topology-metric and
latency-curve queries out of the run store -- the "mass candidate
evaluation" tier the ROADMAP's cluster-comparison workloads need. The
hot path is read-mostly: a warm query is one store lookup (memory LRU,
then sharded disk) and never simulates. Misses flow through three
stages of coalescing:

1. the asyncio :class:`~repro.serve.coalescer.Coalescer` collapses
   concurrent identical requests onto one pending future;
2. the leader enqueues its job on a *bounded* queue; a single filler
   task drains the queue in batches and runs them through
   :func:`repro.store.dedup_map` (which fans out via ``parallel_map``
   with ``fill_workers`` workers) in a thread executor, keeping the
   event loop responsive while simulations run;
3. the store's own per-entry locks coalesce computes against other
   processes sharing ``REPRO_STORE_DIR``.

When the queue is full the daemon answers **429 + Retry-After**
instead of buffering unboundedly -- backpressure, not collapse.
Responses carry ``X-Repro-Source: memory|disk|computed|coalesced`` so
clients (and the load-test harness) can split warm/miss latencies.
``/metrics`` exports the telemetry registry as Prometheus text; the
store's stats are bridged into that registry, so cache effectiveness
comes for free. SIGTERM/SIGINT shut the daemon down cleanly (pending
waiters are failed, the socket closes, ``serve()`` returns).
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
import urllib.parse
from dataclasses import dataclass

from repro import store, telemetry
from repro.serve import handlers
from repro.serve.coalescer import Coalescer, QueueSaturated

__all__ = ["ServeConfig", "Daemon", "ServerThread", "serve_forever"]

_MAX_HEADER_BYTES = 32 * 1024


@dataclass
class ServeConfig:
    """Daemon knobs (CLI flags / ``REPRO_SERVE_*`` env map onto these)."""

    host: str = "127.0.0.1"
    port: int = 8351  #: 0 = ephemeral (bound port via ``Daemon.port``)
    fill_workers: int = 1  #: parallel_map workers for miss fills
    fill_batch: int = 8  #: max jobs drained into one fill batch
    queue_limit: int = 64  #: pending miss jobs before 429
    retry_after_s: float = 1.0  #: hint sent with 429 responses
    enable_telemetry: bool = True  #: turn the registry on at startup


class Daemon:
    """One serving instance; :meth:`serve` runs the full lifecycle."""

    def __init__(self, config: ServeConfig | None = None):
        self.cfg = config or ServeConfig()
        self.coalescer = Coalescer()
        self.port: int | None = None  #: bound port, set once listening
        #: always-on request accounting (exposed at ``/stats``; the
        #: telemetry registry mirrors these when enabled)
        self.counters = {
            "requests": 0, "memory": 0, "disk": 0, "computed": 0,
            "coalesced": 0, "rejected": 0, "errors": 0, "bad_requests": 0,
        }
        self._queue: asyncio.Queue | None = None
        self._stop: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def serve(self, ready=None, install_signals: bool = False) -> None:
        """Listen, answer, and block until :meth:`shutdown` (or a
        signal, with ``install_signals=True``). ``ready(port)`` fires
        once the socket is bound."""
        if self.cfg.enable_telemetry:
            telemetry.enable()
        self._stop = asyncio.Event()
        self._queue = asyncio.Queue(maxsize=self.cfg.queue_limit)
        loop = asyncio.get_running_loop()
        if install_signals:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(sig, self._stop.set)
        server = await asyncio.start_server(self._handle_conn, self.cfg.host, self.cfg.port)
        self.port = server.sockets[0].getsockname()[1]
        filler = asyncio.create_task(self._filler())
        if ready is not None:
            ready(self.port)
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            filler.cancel()
            try:
                await filler
            except asyncio.CancelledError:
                pass
            self.coalescer.fail_all(RuntimeError("daemon shutting down"))
            if install_signals:
                for sig in (signal.SIGTERM, signal.SIGINT):
                    loop.remove_signal_handler(sig)

    def shutdown(self) -> None:
        if self._stop is not None:
            self._stop.set()

    # ------------------------------------------------------------------
    # miss filling
    # ------------------------------------------------------------------
    async def _filler(self) -> None:
        """Drain the miss queue in batches through the worker pool.

        One fill batch = one ``dedup_map`` call (batch-level dedup plus
        ``parallel_map`` fan-out), run in a thread executor so the loop
        keeps serving warm hits while simulations run.
        """
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.cfg.fill_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            jobs = [job for job, _ in batch]
            telemetry.count("serve.fill_batches")
            t0 = time.perf_counter()
            try:
                outcomes = await loop.run_in_executor(
                    None, _fill_batch, jobs, self.cfg.fill_workers
                )
            except Exception as exc:  # noqa: BLE001 - keep the filler alive
                for _, digest in batch:
                    self.coalescer.fail(digest, exc)
            else:
                for (_, digest), (status, payload) in zip(batch, outcomes):
                    if status == "ok":
                        self.coalescer.resolve(digest, payload)
                    else:
                        self.coalescer.fail(digest, RuntimeError(payload))
            telemetry.observe("serve.fill_batch_s", time.perf_counter() - t0)
            for _ in batch:
                self._queue.task_done()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await _read_request(reader)
                if request is None:
                    break
                method, target, headers = request
                path, params = _split_target(target)
                t0 = time.perf_counter()
                status, body, ctype, extra = await self._dispatch(method, path, params)
                telemetry.observe("serve.request_s", time.perf_counter() - t0)
                keep_alive = headers.get("connection", "").lower() != "close"
                payload = body.encode()
                head = [
                    f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
                    f"Content-Type: {ctype}",
                    f"Content-Length: {len(payload)}",
                    f"Connection: {'keep-alive' if keep_alive else 'close'}",
                ]
                head.extend(f"{k}: {v}" for k, v in extra)
                writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, method: str, path: str, params: dict):
        """Route one request; returns ``(status, body, ctype, extra_headers)``."""
        self.counters["requests"] += 1
        telemetry.count("serve.requests")
        if method != "GET":
            return 405, _err("method not allowed"), "application/json", []
        if path == "/healthz":
            return 200, json.dumps({"ok": True}), "application/json", []
        if path == "/metrics":
            return 200, telemetry.prometheus_text(), "text/plain; version=0.0.4", []
        if path == "/stats":
            body = json.dumps({
                "serve": dict(self.counters),
                "store": store.store_stats().as_dict(),
                "queue_depth": self._queue.qsize() if self._queue else 0,
                "pending_fills": len(self.coalescer),
            })
            return 200, body, "application/json", []
        try:
            job = handlers.parse_query(path, params)
        except handlers.QueryError as exc:
            self.counters["bad_requests"] += 1
            telemetry.count("serve.bad_requests")
            return 400, _err(str(exc)), "application/json", []
        return await self._answer(job)

    async def _answer(self, job: tuple):
        """The query path: store lookup, then coalesced fill on a miss."""
        key = handlers.job_key(job)
        doc, tier = store.fetch(key)
        if doc is not None:
            source = tier  # "memory" | "disk"
        else:
            fut, leader = self.coalescer.claim(key.digest)
            if leader:
                try:
                    self._queue.put_nowait((job, key.digest))
                except asyncio.QueueFull:
                    self.coalescer.abandon(key.digest)
                    self.counters["rejected"] += 1
                    telemetry.count("serve.rejected")
                    retry = f"{self.cfg.retry_after_s:g}"
                    return (429, _err("fill queue saturated; retry later"),
                            "application/json", [("Retry-After", retry)])
            try:
                doc = await asyncio.shield(fut)
            except QueueSaturated:
                self.counters["rejected"] += 1
                telemetry.count("serve.rejected")
                return (429, _err("fill queue saturated; retry later"),
                        "application/json", [("Retry-After", f"{self.cfg.retry_after_s:g}")])
            except Exception as exc:  # noqa: BLE001 - compute failed
                self.counters["errors"] += 1
                telemetry.count("serve.errors")
                return 500, _err(str(exc)), "application/json", []
            source = "computed" if leader else "coalesced"
        self.counters[source] += 1
        telemetry.count(f"serve.{source}")
        body = json.dumps(
            {"source": source, "digest": key.digest, "result": doc}, allow_nan=True
        )
        return 200, body, "application/json", [("X-Repro-Source", source)]


def _fill_batch(jobs: list, workers: int) -> list:
    """One queue drain -> one deduped, fanned-out compute batch."""
    with telemetry.span("serve.fill"):
        telemetry.count("serve.fill_jobs", len(jobs))
        return store.dedup_map(handlers.safe_compute_job, jobs, workers=workers)


def _err(message: str) -> str:
    return json.dumps({"error": message})


_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    429: "Too Many Requests", 500: "Internal Server Error",
}


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request head; ``None`` on clean EOF. GET-only server:
    bodies are not read (none of the endpoints accept one)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise
    if len(head) > _MAX_HEADER_BYTES:
        raise ConnectionError("oversized request head")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ConnectionError(f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
    return method.upper(), target, headers


def _split_target(target: str) -> tuple[str, dict]:
    parsed = urllib.parse.urlsplit(target)
    params = {k: v[-1] for k, v in urllib.parse.parse_qs(parsed.query).items()}
    return parsed.path, params


# ----------------------------------------------------------------------
# embedding helpers
# ----------------------------------------------------------------------
class ServerThread:
    """A daemon on a background thread -- tests and the timing gates run
    a real socket server in-process::

        with ServerThread(ServeConfig(port=0)) as srv:
            urllib.request.urlopen(srv.url + "/healthz")
    """

    def __init__(self, config: ServeConfig | None = None):
        self.daemon = Daemon(config)
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None

    @property
    def port(self) -> int:
        return self.daemon.port or 0

    @property
    def url(self) -> str:
        return f"http://{self.daemon.cfg.host}:{self.port}"

    def start(self) -> "ServerThread":
        def _run():
            loop = asyncio.new_event_loop()
            self._loop = loop
            try:
                loop.run_until_complete(
                    self.daemon.serve(ready=lambda _port: self._ready.set())
                )
            finally:
                loop.close()

        self._thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("serve daemon failed to start")
        return self

    def stop(self) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.daemon.shutdown)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_forever(config: ServeConfig | None = None, announce=print) -> None:
    """CLI entry: run until SIGTERM/SIGINT. Prints one machine-readable
    ``serving on http://host:port`` line once bound (the load-test
    ``--spawn`` mode parses it)."""
    daemon = Daemon(config)

    def _ready(port: int) -> None:
        announce(f"serving on http://{daemon.cfg.host}:{port}", flush=True)

    asyncio.run(daemon.serve(ready=_ready, install_signals=True))
