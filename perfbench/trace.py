"""Per-layer tracing for traced benchmark runs (``run.py --trace``).

:class:`Tracer` wraps the callables that bound each layer -- where they
are defined and at every ``from ... import`` site in the loaded
``repro`` modules -- before any worker pool forks. Every call adds to
the ``perfbench.<layer>.calls``, ``.busy_ns`` and ``.self_ns`` counters
through :func:`repro.telemetry.count`, so counts made in pool workers
come home through ``parallel_map``'s telemetry merge, and counts made
in the serving daemon show up on its ``/metrics`` page.

* ``busy`` is the wall time of the outermost call of a layer (nested
  calls of the same layer are not counted twice); it is summed over
  processes, so parallel workers can make it exceed the pass time.
* ``self`` is a call's wall time minus the time of the wrapped calls it
  made in the same process, thread and asyncio task.

Spans of the benchmark process itself (name, start, end, parent) stay
in memory and are written out by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import statistics
import sys
import time

from repro import telemetry

SIM = ("fig10_flit", "router_pipelined")
STORE = SIM + ("percolation", "design_frontier", "serve_mixed")
ALL = STORE + ("fig8_large",)

#: (layer, "module:qualname", workloads whose traced run must call it).
#: ``percolation_sweep`` fans its trials out through ``_trial_job``, never
#: through the public ``percolation_trial``, so the per-trial boundary
#: of the faults layer is the job function; the daemon's request
#: boundary is ``Daemon._dispatch``, the span ``serve.request_s`` times.
TARGETS = (
    ("topologies", "repro.experiments.sweeps:make_topology", ALL),
    ("topologies", "repro.design.space:build_candidate", ("design_frontier",)),
    ("cache", "repro.cache:shortest_path_table", SIM),
    ("cache", "repro.cache:updown_routing", SIM),
    ("cache", "repro.cache:hop_stats", ("design_frontier", "fig8_large")),
    ("cache", "repro.cache:distance_matrix", ("design_frontier", "fig8_large")),
    ("routing", "repro.routing.table:build_next_hop_csr", SIM),
    ("routing", "repro.routing.adaptive:DuatoAdaptiveRouting.__init__", SIM),
    ("routing", "repro.routing.updown:UpDownRouting.__init__", SIM),
    ("sim.flit", "repro.sim.flitsim:FlitLevelSimulator.run", SIM),
    ("sim.network", "repro.sim.network:NetworkSimulator.run", ("serve_mixed",)),
    ("analysis", "repro.analysis.blocked:streaming_hop_stats", ("fig8_large",)),
    ("analysis", "repro.analysis.blocked:block_hop_kernel", ("fig8_large",)),
    ("analysis", "repro.analysis.blocked:hop_stats_from_dense",
     ("design_frontier", "fig8_large")),
    ("analysis", "repro.analysis.metrics:shortest_path_matrix",
     SIM + ("design_frontier", "fig8_large")),
    ("faults", "repro.faults.percolation:slot_tables", ("percolation",)),
    ("faults", "repro.faults.percolation:_trial_job", ("percolation",)),
    ("design", "repro.design.objectives:evaluate_candidate", ("design_frontier",)),
    ("design", "repro.design.objectives:channel_load_shares", ("design_frontier",)),
    ("store", "repro.store.runstore:fetch", STORE),
    ("store", "repro.store.runstore:put", STORE),
    ("store", "repro.store.runstore:get_or_run", SIM + ("design_frontier", "serve_mixed")),
    ("serve", "repro.serve.daemon:Daemon._dispatch", ("serve_mixed",)),
    ("serve", "repro.serve.handlers:job_key", ("serve_mixed",)),
    ("serve", "repro.serve.handlers:compute_job", ("serve_mixed",)),
    ("parallel", "repro.util.parallel:parallel_map", ALL),
    ("shm", "repro.util.shm:publish", ("percolation",)),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: Log-spaced histogram edges (10 us .. 10 s, ~12% apart) for the
#: daemon-side request time; the program's own ``serve.request_s``
#: buckets are a decade wide.
FINE_EDGES = tuple(10 ** (-5 + k / 20) for k in range(121))

#: Counters and histograms of the program that per-layer metrics read.
PROGRAM_COUNTERS = (
    "cache.memory.hits", "cache.disk.hits", "cache.misses",
    "store.hits", "store.misses", "store.bytes_read", "store.bytes_written",
    "store.lock_waits", "flit.event_full_cycles", "flit.event_micro_cycles",
    "router.va_grants", "router.sa_grants", "router.credit_stalls",
    "bfs.pairs_reached",
)
PROGRAM_HISTOGRAMS = ("serve.request_s", "serve.fill_batch_s")

_SPAN_CAP = 200_000
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_frame", default=None)


def fn_counter(target: str) -> str:
    return f"perfbench.fn.{target}.calls"


def counter_names() -> list[str]:
    """Every counter a per-layer metric or the call check reads."""
    names = [f"perfbench.{layer}.{k}" for layer in LAYERS
             for k in ("calls", "busy_ns", "self_ns")]
    names += [fn_counter(target) for _, target, _ in TARGETS]
    names += ["perfbench.toplevel_ns", "perfbench.sim.flit.packets", "perfbench.shm.bytes",
              "perfbench.parallel.worker_busy_ns", "perfbench.parallel.capacity_ns"]
    return names + list(PROGRAM_COUNTERS)


def histogram_names() -> list[str]:
    return ["perfbench.serve.dispatch_s", *PROGRAM_HISTOGRAMS]


class _Frame:
    __slots__ = ("layer", "pid", "parent", "start", "child_ns", "span_id")

    def __init__(self, layer, pid, parent, span_id):
        self.layer = layer
        self.pid = pid
        self.parent = parent
        self.child_ns = 0
        self.span_id = span_id
        self.start = time.perf_counter_ns()


class _TimedTask:
    """Picklable task wrapper adding each task's run time to the
    parallel layer's worker busy time (in whichever process runs it)."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        t0 = time.perf_counter_ns()
        try:
            return self.fn(item)
        finally:
            telemetry.count("perfbench.parallel.worker_busy_ns", time.perf_counter_ns() - t0)


def _timed_parallel_map(original):
    """``parallel_map`` that also accounts worker capacity (effective
    workers x wall time of the map) for ``parallel.utilization``."""
    from repro.util.parallel import default_workers

    @functools.wraps(original)
    def parallel_map(fn, items, workers=None, broadcast=None):
        items = list(items)
        w = default_workers() if workers is None else workers
        effective = min(w, len(items)) if w > 1 and len(items) > 1 else 1
        t0 = time.perf_counter_ns()
        out = original(_TimedTask(fn), items, workers=workers, broadcast=broadcast)
        telemetry.count("perfbench.parallel.capacity_ns",
                        effective * (time.perf_counter_ns() - t0))
        return out

    return parallel_map


def _after_flit_run(args, result, dur_ns):
    telemetry.count("perfbench.sim.flit.packets", result.delivered_measured)


def _after_publish(args, result, dur_ns):
    telemetry.count("perfbench.shm.bytes", sum(a.nbytes for a in args[0].values()))


def _after_dispatch(args, result, dur_ns):
    telemetry.observe("perfbench.serve.dispatch_s", dur_ns / 1e9, edges=FINE_EDGES)


_AFTER = {
    "repro.sim.flitsim:FlitLevelSimulator.run": _after_flit_run,
    "repro.util.shm:publish": _after_publish,
    "repro.serve.daemon:Daemon._dispatch": _after_dispatch,
}


def _resolve(target: str):
    """``(owner, attribute, original)`` for a ``module:qualname`` target."""
    modname, qual = target.split(":")
    owner = importlib.import_module(modname)
    attr = qual
    if "." in qual:
        cls, attr = qual.split(".")
        owner = getattr(owner, cls)
        return owner, attr, owner.__dict__[attr]
    return owner, attr, getattr(owner, attr)


def _program_modules():
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "repro" or name.startswith("repro.")):
            yield mod


class Tracer:
    """Wraps every :data:`TARGETS` callable while installed.

    ``record_spans`` keeps the spans of this process (the benchmark's
    workload process) for :meth:`write_spans`; the serving daemon only
    counts.
    """

    def __init__(self, workload: str, record_spans: bool = True):
        self.workload = workload
        self.pid = os.getpid()
        self.record_spans = record_spans
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._patched: list[tuple] = []
        self._originals: dict[int, object] = {}  # id(wrapper) -> original

    # -- install / uninstall ------------------------------------------
    def install(self) -> None:
        by_original = {}
        for layer, target, _ in TARGETS:
            owner, attr, original = _resolve(target)
            fn = _timed_parallel_map(original) if attr == "parallel_map" else original
            wrapper = self._wrap(fn, layer, target)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))
            self._originals[id(wrapper)] = original
            if isinstance(owner, type(sys)):
                by_original[id(original)] = (original, wrapper)
        # Rebind the names ``from ... import`` copied into other modules.
        for mod in _program_modules():
            for name, value in list(vars(mod).items()):
                hit = by_original.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])
                    self._patched.append((mod, name, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        # Modules imported while installed copied wrappers, not originals.
        for mod in _program_modules():
            for name, value in list(vars(mod).items()):
                original = self._originals.get(id(value))
                if original is not None:
                    setattr(mod, name, original)
        self._originals.clear()

    # -- frames ---------------------------------------------------------
    def _enter(self, layer):
        pid = os.getpid()
        parent = _CURRENT.get()
        if parent is not None and parent.pid != pid:
            parent = None  # inherited through fork: not this process's caller
        span_id = next(self._ids) if pid == self.pid else None
        frame = _Frame(layer, pid, parent, span_id)
        return frame, _CURRENT.set(frame)

    def _exit(self, frame, token, name) -> int:
        end = time.perf_counter_ns()
        _CURRENT.reset(token)
        dur = end - frame.start
        parent = frame.parent
        if parent is not None:
            parent.child_ns += dur
        if frame.layer is not None:
            prefix = "perfbench." + frame.layer
            telemetry.count(prefix + ".calls")
            telemetry.count(prefix + ".self_ns", dur - frame.child_ns)
            outer = parent
            while outer is not None and outer.layer != frame.layer:
                outer = outer.parent
            if outer is None:
                telemetry.count(prefix + ".busy_ns", dur)
            telemetry.count(fn_counter(name))
            if frame.pid == self.pid and (parent is None or parent.layer is None):
                telemetry.count("perfbench.toplevel_ns", dur)
        if self.record_spans and frame.span_id is not None and len(self.spans) < _SPAN_CAP:
            self.spans.append((name, frame.start, end,
                               None if parent is None else parent.span_id, frame.span_id))
        return dur

    def _wrap(self, fn, layer, name):
        after = _AFTER.get(name)
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                frame, token = self._enter(layer)
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    dur = self._exit(frame, token, name)
                    if after is not None:
                        after(args, result, dur)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame, token = self._enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = self._exit(frame, token, name)
                if after is not None:
                    after(args, result, dur)
                return result
        return wrapper

    @contextlib.contextmanager
    def root(self, name: str):
        """A span around one pass; layer calls inside it count as top-level."""
        frame, token = self._enter(None)
        try:
            yield
        finally:
            self._exit(frame, token, name)

    def write_spans(self, path: str) -> None:
        rows = [
            {"id": sid, "name": name, "start_ns": start, "end_ns": end,
             "parent": parent, "workload": self.workload}
            for name, start, end, parent, sid in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"workload": self.workload, "truncated": len(rows) >= _SPAN_CAP,
                       "spans": rows}, fh)


# ----------------------------------------------------------------------
# reading counts back
# ----------------------------------------------------------------------
def registry_counts() -> tuple[dict, dict]:
    """``(counters, histograms)`` of this process's telemetry registry."""
    snap = telemetry.snapshot()
    return dict(snap["counters"]), dict(snap["histograms"])


def _prom_name(dotted: str) -> str:
    return "repro_" + "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in dotted)


def parse_metrics_page(text: str) -> tuple[dict, dict]:
    """``(counters, histograms)`` read back from a daemon's ``/metrics``
    page, under the dotted names :func:`counter_names` and
    :func:`histogram_names` use."""
    values, buckets = {}, {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if "_bucket{le=" in name:
            base, _, le = name.partition("_bucket{le=")
            buckets.setdefault(base, []).append((le.strip('"}'), float(value)))
        else:
            values[name] = float(value)
    counters = {n: values[_prom_name(n)] for n in counter_names() if _prom_name(n) in values}
    hists = {}
    for n in histogram_names():
        cum = buckets.get(_prom_name(n))
        if not cum:
            continue
        edges = tuple(float(le) for le, _ in cum if le != "+Inf")
        running = [c for _, c in cum]
        counts = [b - a for a, b in zip([0.0] + running[:-1], running)]
        hists[n] = {"edges": edges, "counts": counts,
                    "sum": values.get(_prom_name(n) + "_sum", 0.0),
                    "count": values.get(_prom_name(n) + "_count", 0.0)}
    return counters, hists


def subtract(after: tuple[dict, dict], before: tuple[dict, dict]) -> tuple[dict, dict]:
    """What was counted between two ``(counters, histograms)`` readings."""
    c_after, h_after = after
    c_before, h_before = before
    counters = {k: v - c_before.get(k, 0) for k, v in c_after.items()}
    hists = {}
    for k, h in h_after.items():
        b = h_before.get(k)
        if b is None:
            hists[k] = h
            continue
        hists[k] = {"edges": h["edges"],
                    "counts": [x - y for x, y in zip(h["counts"], b["counts"])],
                    "sum": h["sum"] - b["sum"], "count": h["count"] - b["count"]}
    return counters, hists


def add_into(total: tuple[dict, dict], part: tuple[dict, dict]) -> None:
    """Accumulate one pass's ``(counters, histograms)`` into ``total``."""
    for k, v in part[0].items():
        total[0][k] = total[0].get(k, 0) + v
    for k, h in part[1].items():
        t = total[1].get(k)
        if t is None:
            total[1][k] = {"edges": tuple(h["edges"]), "counts": list(h["counts"]),
                           "sum": h["sum"], "count": h["count"]}
            continue
        t["counts"] = [x + y for x, y in zip(t["counts"], h["counts"])]
        t["sum"] += h["sum"]
        t["count"] += h["count"]


def hist_quantile(h: dict | None, q: float) -> float:
    """Quantile of a bucketed histogram, interpolated inside its bucket."""
    if not h or not h["count"]:
        return 0.0
    edges, counts = h["edges"], h["counts"]
    target = q * h["count"]
    seen = 0.0
    for i, c in enumerate(counts):
        if c and seen + c >= target:
            lo = edges[i - 1] if i > 0 else 0.0
            hi = edges[i] if i < len(edges) else edges[-1]
            return lo + (hi - lo) * (target - seen) / c
        seen += c
    return edges[-1]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(counts: tuple[dict, dict], traced_walls: list[float],
                  untraced_walls: list[float],
                  client_latency: tuple[float, float] | None = None) -> dict:
    """Per-layer metrics from the counts accumulated over the traced
    passes whose times are ``traced_walls``.

    Counts are per traced pass; times are shares of the traced pass
    time, so they compare across workloads and hosts (``busy`` is summed
    over processes and can exceed 1 with parallel workers).
    ``client_latency`` is the (p50, p99) request latency the client saw
    in the traced passes of ``serve_mixed``; the daemon-side quantiles
    are reported as shares of it. ``trace.overhead`` compares the median
    traced and untraced pass. ``trace.unattributed_share`` is the part
    of the traced passes no top-level layer call covers; for the daemon,
    the part of ``serve.request_s`` outside ``Daemon._dispatch``.
    """
    c, h = counts
    per = 1.0 / max(1, len(traced_walls))
    wall = sum(traced_walls)
    g = lambda name: float(c.get(name, 0))  # noqa: E731
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = g(f"perfbench.{layer}.calls") * per
        m[f"{layer}.busy_share"] = _ratio(g(f"perfbench.{layer}.busy_ns") / 1e9, wall)
        m[f"{layer}.self_share"] = _ratio(g(f"perfbench.{layer}.self_ns") / 1e9, wall)
    hits = g("cache.memory.hits") + g("cache.disk.hits")
    m["cache.hit_ratio"] = _ratio(hits, hits + g("cache.misses"))
    packets = g("perfbench.sim.flit.packets")
    m["sim.flit.packets_per_s"] = _ratio(packets, g("perfbench.sim.flit.busy_ns") / 1e9)
    full, micro = g("flit.event_full_cycles"), g("flit.event_micro_cycles")
    m["sim.flit.full_tick_share"] = _ratio(full, full + micro)
    for k in ("va_grants", "sa_grants", "credit_stalls"):
        m[f"sim.router.{k}_per_pkt"] = _ratio(g(f"router.{k}"), packets)
    m["analysis.pairs_reached"] = g("bfs.pairs_reached") * per
    m["store.hit_ratio"] = _ratio(g("store.hits"), g("store.hits") + g("store.misses"))
    for k in ("bytes_read", "bytes_written", "lock_waits"):
        m[f"store.{k}"] = g(f"store.{k}") * per
    dispatch = h.get("perfbench.serve.dispatch_s")
    p50, p99 = client_latency or (0.0, 0.0)
    m["serve.request_p50_share"] = _ratio(hist_quantile(dispatch, 0.50), p50)
    m["serve.request_p99_share"] = _ratio(hist_quantile(dispatch, 0.99), p99)
    fills = h.get("serve.fill_batch_s")
    m["serve.fill_share"] = _ratio(fills["sum"] if fills else 0.0, wall)
    m["parallel.utilization"] = _ratio(g("perfbench.parallel.worker_busy_ns"),
                                       g("perfbench.parallel.capacity_ns"))
    m["shm.bytes_published"] = g("perfbench.shm.bytes") * per
    if client_latency is not None:
        requests = h.get("serve.request_s")
        covered = dispatch["sum"] if dispatch else 0.0
        m["trace.unattributed_share"] = max(0.0, 1.0 - _ratio(covered, requests["sum"] if requests else 0.0))
    else:
        covered = g("perfbench.toplevel_ns") / 1e9
        m["trace.unattributed_share"] = max(0.0, 1.0 - _ratio(covered, wall))
    # The first pass of a process also pays first-call costs (lazy
    # imports); traced passes never come first, so leave it out too.
    untraced = statistics.median(untraced_walls[1:] or untraced_walls)
    m["trace.overhead"] = _ratio(statistics.median(traced_walls), untraced) - 1.0
    return m


def function_calls(counters: dict) -> dict:
    """Calls per wrapped function, keyed by ``module:qualname``."""
    return {target: int(counters.get(fn_counter(target), 0)) for _, target, _ in TARGETS}
