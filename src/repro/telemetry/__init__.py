"""Unified telemetry: metrics registry, spans, samplers, exporters.

The observability subsystem every layer of the stack reports through:

``repro.telemetry.registry``
    Process-local counters / gauges / fixed-bucket histograms with a
    near-zero-overhead no-op fast path when disabled.
``repro.telemetry.spans``
    Nested wall-clock spans (context manager + decorator) building a
    run-scoped trace tree.
``repro.telemetry.samplers``
    Periodic in-simulation sampling (per-link utilization, queue
    occupancy, accepted-vs-offered load, fault-epoch markers) attached
    by both simulation engines when telemetry is on.
``repro.telemetry.export``
    JSONL and Prometheus-text exporters plus compact run summaries.
``repro.telemetry.merge``
    Snapshot/delta/merge so ``parallel_map`` workers report telemetry
    back to the parent (counters sum, histograms add, gauges
    last-write-wins with a worker tag).

Enable with ``REPRO_TELEMETRY=1``, :func:`enable`, or the CLI wrapper
``python -m repro telemetry <command>``. With telemetry disabled every
hook is a module-global bool check, and simulation results are
bit-identical to a build without the hooks (pinned by
``tests/test_telemetry.py``; ``benchmarks/test_gates.py`` times the
disabled path).
See ``docs/observability.md`` for the architecture tour.
"""

from repro.telemetry import export, merge, registry, samplers, spans
from repro.telemetry.export import (
    prometheus_text,
    read_jsonl,
    run_summary,
    summary_table,
    write_jsonl,
)
from repro.telemetry.merge import merge_snapshot, snapshot
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    TelemetryRegistry,
    count,
    disable,
    enable,
    enabled,
    gauge_set,
    get_registry,
    observe,
    refresh_from_env,
)
from repro.telemetry.samplers import SimSampler, default_interval_ns
from repro.telemetry.spans import Span, span, span_rows, timed, trace_tree

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TelemetryRegistry",
    "SimSampler",
    "Span",
    "count",
    "gauge_set",
    "observe",
    "enabled",
    "enable",
    "disable",
    "refresh_from_env",
    "get_registry",
    "reset",
    "span",
    "timed",
    "span_rows",
    "trace_tree",
    "snapshot",
    "merge_snapshot",
    "write_jsonl",
    "read_jsonl",
    "prometheus_text",
    "run_summary",
    "summary_table",
    "default_interval_ns",
    "export",
    "merge",
    "registry",
    "samplers",
    "spans",
]


def reset() -> None:
    """Clear the default registry and the span trace tree."""
    get_registry().clear()
    spans.clear()
