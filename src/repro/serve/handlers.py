"""Query model for the serving daemon: parse, key, compute.

A *job* is a flat hashable tuple fully determining one answer --
exactly the contract :func:`repro.store.dedup_map` requires -- and
every layer (HTTP handler, load-test client, timing gates, direct
in-process calls) goes through the same three functions, which is what
makes the byte-identity acceptance check meaningful rather than
circular:

* :func:`latency_job` / :func:`topology_job` build the job tuple;
* :func:`job_key` maps a job to its :class:`~repro.store.keys.RunKey`
  (memoized per job) -- for latency queries this is *the same*
  ``sim_run_key`` the experiment drivers use, so the daemon serves
  entries a sweep published and vice versa;
* :func:`compute_job` computes (and publishes) the encoded result
  document for a job, module-level so a process pool can pickle it.

Latency queries default to the reduced ``quick`` simulation
configuration (CI-sized warmup/measure/drain); ``full=1`` selects the
paper's full :class:`~repro.sim.config.SimConfig`.
"""

from __future__ import annotations

import functools
import json

from repro import store
from repro.experiments import latency
from repro.sim import SimConfig
from repro.store.codec import encode_result

__all__ = [
    "QueryError",
    "KINDS",
    "PATTERNS",
    "ROUTINGS",
    "ENGINES",
    "sim_config",
    "latency_job",
    "topology_job",
    "design_job",
    "parse_query",
    "job_path",
    "job_key",
    "compute_job",
    "safe_compute_job",
    "result_text",
]

#: Accepted values per query field (closed vocabularies: a typo is a
#: 400, never a surprise cache entry).
KINDS = (
    "dsn", "dsn_e", "dsn_v", "dsn_d", "torus", "torus3d", "mesh", "random",
    "dln", "random_regular", "kleinberg", "ring", "hypercube", "debruijn", "ccc",
)
PATTERNS = ("uniform", "bit_reversal", "bit_complement", "transpose", "neighboring")
ROUTINGS = ("adaptive", "updown", "dor", "custom", "minimal_custom")
ENGINES = ("network", "flit")

#: Reduced simulation windows for interactive serving (mirrors the
#: tests' quick config; ``full=1`` selects the paper's defaults).
QUICK_CONFIG_KWARGS = dict(warmup_ns=2_000.0, measure_ns=6_000.0, drain_ns=12_000.0)


class QueryError(ValueError):
    """Malformed query: the daemon answers 400 with this message."""


def sim_config(full: bool = False) -> SimConfig:
    """The simulation configuration a latency query runs under."""
    return SimConfig() if full else SimConfig(**QUICK_CONFIG_KWARGS)


# ----------------------------------------------------------------------
# job construction / parsing
# ----------------------------------------------------------------------
def latency_job(
    kind: str,
    pattern: str,
    load: float,
    n: int = 64,
    seed: int = 0,
    routing: str = "adaptive",
    engine: str = "network",
    full: bool = False,
) -> tuple:
    """One latency-curve point as a hashable, picklable job tuple."""
    return ("latency", kind, pattern, float(load), int(n), int(seed),
            routing, engine, bool(full))


def topology_job(kind: str, n: int = 64, seed: int = 0) -> tuple:
    """One topology-metrics query as a job tuple."""
    return ("topo", kind, int(n), int(seed))


def design_job(n: int, budget: int = 5, seeds: int = 2, sources: int | None = None) -> tuple:
    """One design-frontier query as a job tuple.

    The answer is the whole frontier artifact for ``(n, budget,
    seeds)`` -- the read path over frontiers a ``python -m repro
    design`` run (or a cold fill here) precomputed.
    """
    if sources is None:
        from repro.design.objectives import design_sources

        sources = design_sources()
    return ("design", int(n), int(budget), int(seeds), int(sources))


def _field(params: dict, name: str, default=None, cast=str, choices=None):
    raw = params.get(name)
    if raw is None or raw == "":
        if default is None:
            raise QueryError(f"missing required parameter {name!r}")
        value = default
    else:
        try:
            value = cast(raw)
        except (TypeError, ValueError):
            raise QueryError(f"bad value for {name!r}: {raw!r}")
    if choices is not None and value not in choices:
        raise QueryError(f"unknown {name} {value!r} (choose from {', '.join(choices)})")
    return value


def _nonneg_field(params: dict, name: str) -> int:
    """An integer field that defaults to 0 and must not be negative."""
    value = _field(params, name, default=0, cast=int)
    if value < 0:
        raise QueryError(f"{name} out of range: {value}")
    return value


def _flag(params: dict, name: str) -> bool:
    return str(params.get(name, "")).strip().lower() in ("1", "true", "yes", "on")


def parse_query(path: str, params: dict) -> tuple:
    """Map an endpoint path + query parameters to a job tuple.

    Raises :class:`QueryError` on unknown paths or malformed fields.
    """
    if path == "/v1/latency":
        n = _field(params, "n", default=64, cast=int)
        if not 2 <= n <= 4096:
            raise QueryError(f"n out of range: {n}")
        load = _field(params, "load", cast=float)
        if not 0.0 < load <= 1024.0:
            raise QueryError(f"load out of range: {load}")
        return latency_job(
            kind=_field(params, "kind", choices=KINDS),
            pattern=_field(params, "pattern", choices=PATTERNS),
            load=load,
            n=n,
            seed=_nonneg_field(params, "seed"),
            routing=_field(params, "routing", default="adaptive", choices=ROUTINGS),
            engine=_field(params, "engine", default="network", choices=ENGINES),
            full=_flag(params, "full"),
        )
    if path == "/v1/topology":
        n = _field(params, "n", default=64, cast=int)
        if not 2 <= n <= 65536:
            raise QueryError(f"n out of range: {n}")
        return topology_job(
            kind=_field(params, "kind", choices=KINDS),
            n=n,
            seed=_nonneg_field(params, "seed"),
        )
    if path == "/v1/design":
        from repro.design.space import MIN_DESIGN_N

        n = _field(params, "n", default=64, cast=int)
        if not MIN_DESIGN_N <= n <= 65536:
            raise QueryError(f"n out of range: {n}")
        budget = _field(params, "budget", default=5, cast=int)
        if not 2 <= budget <= 64:
            raise QueryError(f"budget out of range: {budget}")
        seeds = _field(params, "seeds", default=2, cast=int)
        if not 1 <= seeds <= 16:
            raise QueryError(f"seeds out of range: {seeds}")
        sources = _nonneg_field(params, "sources") or None
        return design_job(n, budget=budget, seeds=seeds, sources=sources)
    raise QueryError(f"unknown query path {path!r}")


def job_path(job: tuple) -> str:
    """The HTTP path+query that parses back to ``job`` (for load-test
    mixes and docs; inverse of :func:`parse_query`)."""
    if job[0] == "latency":
        _, kind, pattern, load, n, seed, routing, engine, full = job
        path = (f"/v1/latency?kind={kind}&pattern={pattern}&load={load:g}"
                f"&n={n}&seed={seed}&routing={routing}&engine={engine}")
        return path + ("&full=1" if full else "")
    if job[0] == "topo":
        _, kind, n, seed = job
        return f"/v1/topology?kind={kind}&n={n}&seed={seed}"
    if job[0] == "design":
        _, n, budget, seeds, sources = job
        return f"/v1/design?n={n}&budget={budget}&seeds={seeds}&sources={sources}"
    raise ValueError(f"not a job tuple: {job!r}")


# ----------------------------------------------------------------------
# keys and computes
# ----------------------------------------------------------------------
#: Job tuples whose keys :func:`job_key` remembers (a serve mix has a
#: few hundred distinct queries at most; each key is ~1 kB).
JOB_KEY_MEMO = 1024


def job_key(job: tuple) -> store.RunKey:
    """The store key a job's answer lives under.

    Latency jobs key through the experiment drivers'
    :func:`~repro.store.keys.sim_run_key` (same topology fingerprint,
    same config fingerprint), so the daemon and ``run_curve`` share
    entries. A job tuple fully determines its key and nothing a key
    reads changes during a process's life, so keys are memoized per
    job in a bounded LRU (:data:`JOB_KEY_MEMO` entries): a repeated
    query skips the topology lookup, the config fingerprint and the
    payload's encoding and hash.
    """
    # The item types are part of the memo key: 1, 1.0 and True are
    # equal tuple items but encode to different payloads.
    return _job_key(job, tuple(map(type, job)))


@functools.lru_cache(maxsize=JOB_KEY_MEMO)
def _job_key(job: tuple, types: tuple) -> store.RunKey:
    if job[0] == "latency":
        _, kind, pattern, load, n, seed, routing, engine, full = job
        topo = latency._sim_topology(kind, n, seed, routing)
        return store.sim_run_key(
            topo, routing, pattern, load, sim_config(full), seed, engine=engine
        )
    if job[0] == "topo":
        _, kind, n, seed = job
        return store.run_key("topo_metrics", {"kind": kind, "n": n, "seed": seed, "v": 1})
    if job[0] == "design":
        from repro.design.frontier import frontier_key

        _, n, budget, seeds, sources = job
        return frontier_key(n, budget, seeds, sources)
    raise ValueError(f"not a job tuple: {job!r}")


def _topo_metrics(kind: str, n: int, seed: int) -> dict:
    from repro.analysis.metrics import analyze
    from repro.experiments.sweeps import make_topology

    m = analyze(make_topology(kind, n, seed=seed))
    return {
        "name": m.name,
        "n": m.n,
        "num_links": m.num_links,
        "diameter": m.diameter,
        "aspl": m.aspl,
        "average_degree": m.average_degree,
        "min_degree": m.min_degree,
        "max_degree": m.max_degree,
    }


def compute_job(job: tuple) -> dict:
    """Compute one job and return its *encoded result document* -- the
    very dict stored under the job's key, so a computed answer is
    byte-identical to the warm hit the next request gets.

    Goes through the store (:func:`~repro.store.cached_sim` /
    :func:`~repro.store.cached_value`), so the result is published for
    every later reader and concurrent computes coalesce on the store's
    per-entry locks. Module-level and tuple-argumented: picklable for
    ``dedup_map``'s process pool.
    """
    if job[0] == "latency":
        _, kind, pattern, load, n, seed, routing, engine, full = job
        result = latency._curve_point(
            (kind, pattern, load, n, sim_config(full), seed, routing, engine)
        )
        return encode_result(result)
    if job[0] == "topo":
        _, kind, n, seed = job
        return store.cached_value(job_key(job), lambda: _topo_metrics(kind, n, seed))
    if job[0] == "design":
        from repro.design.frontier import compute_frontier

        _, n, budget, seeds, sources = job
        # compute_frontier memoizes under job_key(job) itself; fills
        # run the evaluations serially (workers=0) inside the daemon's
        # fill pool rather than forking a nested pool per request.
        return compute_frontier(n, degree_budget=budget, seeds=seeds,
                                sources=sources, workers=0)
    raise ValueError(f"not a job tuple: {job!r}")


def safe_compute_job(job: tuple) -> tuple:
    """:func:`compute_job` that returns ``("ok", doc)`` or ``("error",
    message)`` instead of raising -- one bad job in a fill batch must
    not take down its batchmates (or the daemon's filler task)."""
    try:
        return "ok", compute_job(job)
    except Exception as exc:  # noqa: BLE001 - daemon robustness boundary
        return "error", f"{type(exc).__name__}: {exc}"


def result_text(doc: dict) -> str:
    """Canonical JSON for identity checks (sorted keys, no whitespace)."""
    return json.dumps(doc, sort_keys=True, allow_nan=True)
