"""Persistent run store: content-addressed simulation results.

The layer above :mod:`repro.cache`: where the artifact cache memoizes
per-topology *inputs* (distance matrices, routing tables), the run
store memoizes whole per-point *outputs* -- one
:class:`~repro.sim.metrics.SimResult` per canonical
``(topology, routing, pattern, load, config, seed, engine,
buffer_flits, fault schedule)`` fingerprint, persisted as auditable
JSON under ``REPRO_STORE_DIR`` with an in-memory LRU front, atomic
locked writes, coalesced computes (thread single-flight in process,
per-entry locks across processes) and an in-flight dedup scheduler.
The disk tier fans entries across ``REPRO_STORE_SHARDS`` prefix-keyed
subdirectories (:mod:`repro.store.shards`); legacy flat stores stay
readable and ``python -m repro store migrate`` re-homes them. Every
experiment entry point consults the store, which makes sweeps
resumable (``python -m repro sweep --resume``), warm re-runs of a
whole Fig. 10 subplot 10x+ faster with bit-identical curves (the
``store_warm_sweep`` timing gate), and HTTP serving
(``python -m repro serve``, :mod:`repro.serve`) a read-mostly wrapper.

Knobs: ``REPRO_STORE`` (``off`` bypasses), ``REPRO_STORE_DIR`` (disk
tier), ``REPRO_STORE_MEM`` (LRU entries), ``REPRO_STORE_SHARDS``
(layout of a new store). See ``docs/API.md``.
"""

from repro.store.codec import CODEC_VERSION, decode_result, encode_result
from repro.store.keys import (
    RunKey,
    config_fingerprint,
    normalize_engine,
    run_key,
    schedule_fingerprint,
    sim_run_key,
)
from repro.store.runstore import (
    GcReport,
    StoreStats,
    cached_sim,
    cached_value,
    clear_store,
    dedup_map,
    disk_entry_path,
    fetch,
    find_disk_entry,
    gc_store,
    get,
    get_or_run,
    migrate_store,
    put,
    record_misses,
    reset_store_stats,
    store_dir,
    store_enabled,
    store_shards,
    store_stats,
)

__all__ = [
    "CODEC_VERSION",
    "GcReport",
    "RunKey",
    "StoreStats",
    "cached_sim",
    "cached_value",
    "clear_store",
    "config_fingerprint",
    "decode_result",
    "dedup_map",
    "disk_entry_path",
    "encode_result",
    "fetch",
    "find_disk_entry",
    "gc_store",
    "get",
    "get_or_run",
    "migrate_store",
    "put",
    "normalize_engine",
    "record_misses",
    "reset_store_stats",
    "run_key",
    "schedule_fingerprint",
    "sim_run_key",
    "store_dir",
    "store_enabled",
    "store_shards",
    "store_stats",
]
