"""Serving tier: HTTP daemon over the sharded run store.

``python -m repro serve`` answers topology-metric and latency-curve
queries out of :mod:`repro.store` -- warm hits are one store lookup,
misses coalesce (asyncio futures in the daemon, per-entry locks across
processes) and fill through a bounded ``parallel_map`` worker pool,
and a saturated queue answers 429 + Retry-After instead of buffering
unboundedly. ``python -m repro loadtest`` replays a zipf-skewed query
mix against the daemon and reports warm/miss p50/p99 and throughput
(gated in ``benchmarks/test_gates.py``). See ``docs/serving.md``.
"""

from repro.serve.coalescer import Coalescer, QueueSaturated
from repro.serve.daemon import Daemon, ServeConfig, ServerThread, serve_forever
from repro.serve.handlers import (
    QueryError,
    compute_job,
    design_job,
    job_key,
    job_path,
    latency_job,
    parse_query,
    result_text,
    sim_config,
    topology_job,
)
from repro.serve.loadtest import (
    LoadtestReport,
    build_mix,
    default_candidates,
    percentile,
    populate,
    run_loadtest,
    spawn_daemon,
)

__all__ = [
    "Coalescer",
    "Daemon",
    "LoadtestReport",
    "QueryError",
    "QueueSaturated",
    "ServeConfig",
    "ServerThread",
    "build_mix",
    "compute_job",
    "default_candidates",
    "job_key",
    "job_path",
    "design_job",
    "latency_job",
    "parse_query",
    "percentile",
    "populate",
    "result_text",
    "run_loadtest",
    "serve_forever",
    "sim_config",
    "spawn_daemon",
    "topology_job",
]
