"""Canonical run keys: the content address of one simulation point.

A run is identified by everything that determines its result bit for
bit: the topology fingerprint (name, n, sorted edge+class hash -- the
same identity :mod:`repro.cache` uses), the routing scheme, the
traffic pattern, the offered load, every :class:`~repro.sim.config.
SimConfig` field, the experiment seed, the engine (event-driven vs
flit-level), the buffer depth and the fault schedule. Two calls that
agree on all of these produce identical :class:`~repro.sim.metrics.
SimResult` objects (the determinism contract pinned since PR 1), so
one stored result can stand in for both.

Keys are small JSON-able dicts hashed into a hex digest. The payload
is serialized canonically (sorted keys, no whitespace, ``repr``-exact
floats via :func:`json.dumps`), so the digest is stable across
processes, machines and Python hash seeds. The payload itself is
persisted next to the result, which makes store entries auditable:
``REPRO_STORE_DIR/*.json`` says exactly which point it holds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

__all__ = [
    "RunKey",
    "run_key",
    "config_fingerprint",
    "schedule_fingerprint",
    "normalize_engine",
    "sim_run_key",
]


@dataclass(frozen=True)
class RunKey:
    """A content-addressed key: namespace + canonical payload + digest."""

    namespace: str
    payload: str  #: canonical JSON of the identifying fields
    digest: str  #: hex digest addressing the entry in both tiers

    @property
    def stem(self) -> str:
        """Filename stem of the on-disk entry."""
        return f"{self.namespace}-{self.digest}"


def _canonical(payload: dict) -> str:
    """Canonical JSON: sorted keys, compact, repr-exact floats."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=True)


def run_key(namespace: str, payload: dict) -> RunKey:
    """Build a :class:`RunKey` from a namespace and a JSON-able payload."""
    text = _canonical(payload)
    digest = hashlib.sha256((namespace + "\0" + text).encode()).hexdigest()[:32]
    return RunKey(namespace=namespace, payload=text, digest=digest)


def config_fingerprint(cfg) -> dict:
    """Every :class:`~repro.sim.config.SimConfig` field, JSON-able.

    Uses ``asdict`` so a new config field automatically changes every
    key (a conservative failure mode: old entries miss, nothing is
    served under a stale configuration).

    The nested router config is normalized to ``None`` in ``ideal``
    mode: the pipeline parameters are inert there (the ideal model
    reads none of them), so every ideal-mode key is independent of
    them. Pipelined mode keeps the full parameter dict -- each stage
    depth / VC buffer setting is its own simulation point.
    """
    d = {k: v for k, v in sorted(asdict(cfg).items())}
    router = d.get("router")
    if isinstance(router, dict) and router.get("mode") == "ideal":
        d["router"] = None
    return d


def schedule_fingerprint(schedule) -> list | None:
    """Canonical form of a :class:`~repro.faults.schedule.FaultSchedule`.

    ``None`` for no schedule. Each event contributes its timestamp and
    the canonical (sorted) dead-link/dead-switch tuples -- the label is
    cosmetic and excluded, so relabeled but physically identical
    schedules share entries.
    """
    if schedule is None or not len(schedule):
        return None
    return [
        {
            "t": float(e.time_ns),
            "links": sorted([int(u), int(v)] for u, v in e.faults.dead_links),
            "switches": sorted(int(s) for s in e.faults.dead_switches),
        }
        for e in schedule.events
    ]


def normalize_engine(engine: str) -> str:
    """Collapse engine spellings that are bit-identical by contract.

    The flit simulator's run loops (``engine="event"|"cycle"``)
    produce byte-identical results -- the contract
    ``tests/test_sim_flit.py`` pins -- so the run loop must never reach
    a key: ``"flit"``, ``"flit:event"``, ``"flit:cycle"`` (any
    ``flit``-prefixed spelling) all address the same stored entry, and
    a point simulated under either loop is served to both.
    ``"network"`` (the packet-level simulator) stays distinct; it is a
    different model with different results.
    """
    eng = engine.strip().lower()
    if eng.startswith("flit"):
        return "flit"
    return eng


def sim_run_key(
    topo,
    routing: str,
    pattern: str,
    offered_gbps: float,
    config,
    seed: int,
    engine: str = "network",
    buffer_flits: int | None = None,
    schedule=None,
    extra: dict | None = None,
) -> RunKey:
    """The key of one simulation point (the tentpole fingerprint).

    ``topo`` is the topology actually simulated (its fingerprint covers
    kind, n and construction seed); ``seed`` is the experiment seed the
    per-point RNG derives from; ``engine`` distinguishes the
    packet-level and flit-level simulators, whose results differ by
    design -- but not the flit simulator's run loops, which are
    bit-identical and share entries (see :func:`normalize_engine`).
    ``extra`` admits caller-specific fields (e.g. a pattern kwarg)
    without widening this signature.
    """
    from repro.cache import topology_fingerprint

    payload = {
        "topo": topology_fingerprint(topo),
        "routing": routing,
        "pattern": pattern,
        "load": float(offered_gbps),
        "config": config_fingerprint(config),
        "seed": int(seed),
        "engine": normalize_engine(engine),
        "buffer_flits": None if buffer_flits is None else int(buffer_flits),
        "faults": schedule_fingerprint(schedule),
    }
    if extra:
        payload["extra"] = extra
    return run_key("sim", payload)
