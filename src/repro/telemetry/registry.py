"""Process-local metrics registry: counters, gauges, histograms.

The registry is the substrate every other telemetry piece builds on.
Design constraints, in order of importance:

1. **Near-zero overhead when disabled.** Hot paths go through the
   module-level helpers (:func:`count`, :func:`gauge_set`,
   :func:`observe`), whose first statement is a plain module-global
   bool check -- no registry lookup, no allocation, no lock. The
   per-cycle simulator paths avoid even that by attaching a sampler
   only when telemetry is on (see :mod:`repro.telemetry.samplers`).
2. **Deterministic and side-effect free.** Metrics only *observe*;
   nothing in this package feeds back into simulation state or RNG
   draws, so results with telemetry on and off are bit-identical
   (pinned by ``tests/test_telemetry.py``).
3. **Picklable snapshots.** Worker processes report back through
   :mod:`repro.telemetry.merge`, so every metric reduces to plain
   ints/floats/tuples.

Telemetry is enabled by setting ``REPRO_TELEMETRY=1`` in the
environment (read once at import, re-read via :func:`refresh_from_env`)
or by calling :func:`enable` at runtime.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TelemetryRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "enabled",
    "enable",
    "disable",
    "refresh_from_env",
    "get_registry",
    "count",
    "gauge_set",
    "observe",
]

_TRUE_VALUES = ("1", "on", "true", "yes")

#: Default histogram edges for wall-clock durations in seconds
#: (1 us .. 100 s, roughly logarithmic; values above the last edge land
#: in the implicit +Inf bucket).
DEFAULT_SECONDS_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0
)


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TELEMETRY", "").strip().lower() in _TRUE_VALUES


_enabled = _env_enabled()


def enabled() -> bool:
    """Whether telemetry collection is currently on."""
    return _enabled


def enable() -> None:
    """Turn telemetry collection on for this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn telemetry collection off for this process."""
    global _enabled
    _enabled = False


def refresh_from_env() -> bool:
    """Re-read ``REPRO_TELEMETRY`` (tests toggle the env mid-process)."""
    global _enabled
    _enabled = _env_enabled()
    return _enabled


# ----------------------------------------------------------------------
# metric types
# ----------------------------------------------------------------------
class Counter:
    """A monotonically increasing integer/float total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value; merges last-write-wins with a worker tag."""

    __slots__ = ("name", "value", "tag")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0
        self.tag: str | None = None

    def set(self, value: float, tag: str | None = None) -> None:
        self.value = value
        self.tag = tag


class Histogram:
    """A fixed-bucket histogram (Prometheus ``le`` semantics).

    ``edges`` are inclusive upper bounds; an implicit +Inf bucket
    catches everything above the last edge, so ``counts`` has
    ``len(edges) + 1`` cells. Fixed edges are what makes cross-process
    merging exact (bucket counts simply add).
    """

    __slots__ = ("name", "edges", "counts", "sum", "count")

    def __init__(self, name: str, edges: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS):
        self.name = name
        self.edges = tuple(float(e) for e in edges)
        if list(self.edges) != sorted(self.edges):
            raise ValueError("histogram edges must be sorted ascending")
        self.counts = [0] * (len(self.edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TelemetryRegistry:
    """Create-or-get store of named metrics.

    Metric names are dotted lowercase paths (``cache.memory_hits``,
    ``sim.flit.link_util_max``). Creation is locked; updates on the
    returned metric objects are plain attribute arithmetic (the
    GIL-protected single-writer pattern every caller here follows).
    """

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -- create-or-get --------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            with self._lock:
                c = self.counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            with self._lock:
                g = self.gauges.setdefault(name, Gauge(name))
        return g

    def histogram(self, name: str, edges: tuple[float, ...] | None = None) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            with self._lock:
                h = self.histograms.setdefault(
                    name, Histogram(name, edges or DEFAULT_SECONDS_BUCKETS)
                )
        return h

    # -- bulk views ------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)


_registry = TelemetryRegistry()


def get_registry() -> TelemetryRegistry:
    """The process-local default registry."""
    return _registry


# ----------------------------------------------------------------------
# module-level fast-path helpers (the only API hot code should call)
# ----------------------------------------------------------------------
def count(name: str, n: int | float = 1) -> None:
    """Increment counter ``name`` by ``n``; no-op when disabled."""
    if not _enabled:
        return
    _registry.counter(name).inc(n)


def gauge_set(name: str, value: float, tag: str | None = None) -> None:
    """Set gauge ``name``; no-op when disabled."""
    if not _enabled:
        return
    _registry.gauge(name).set(value, tag)


def observe(name: str, value: float, edges: tuple[float, ...] | None = None) -> None:
    """Observe ``value`` into histogram ``name``; no-op when disabled."""
    if not _enabled:
        return
    _registry.histogram(name, edges).observe(value)
