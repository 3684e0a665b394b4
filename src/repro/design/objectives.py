"""Objective functions for the design-space optimizer.

One candidate evaluation produces every axis the frontier trades off:

* **ASPL / diameter** -- exact integer hop statistics through
  :func:`repro.cache.hop_stats` (the dense-vs-blocked dispatch, so an
  n = 65536 candidate evaluates in O(n) memory);
* **cable cost** -- metres on the cabinet floorplan
  (:mod:`repro.layout.cable`) and the Section VI-B bill of materials
  (:func:`repro.layout.cost.interconnect_cost`);
* **saturation load** -- the analytic M/D/1 saturation point
  (:meth:`repro.sim.model.LatencyModel.saturation_gbps`) over channel
  load shares computed by a Brandes edge-betweenness pass: under
  uniform traffic with every minimal path equally likely, the expected
  load of a directed channel *is* its edge betweenness, which is what
  :func:`repro.sim.model.build_uniform_model` computes in O(C n^2) --
  too slow to sweep a design space. The Brandes accumulation here
  takes its distance rows from the bit-parallel BFS
  (:func:`repro.analysis.blocked.source_distances`) and runs a block of
  sources at once, one ``np.bincount`` per BFS level and pass, so its
  Python work is O(diameter) per block rather than per source: exact
  when every node is a source (the default up to
  ``REPRO_DESIGN_SOURCES`` nodes), a seed-stable estimate from a
  deterministic source sample above it.

Every evaluation is memoized through :func:`repro.store.get_or_run`
under a key built from the candidate *spec* (plus the floorplan, cost
model and source-count fingerprints) -- not from the built topology --
so a warm re-run never constructs the graph at all.
"""

from __future__ import annotations

import os
from dataclasses import asdict

import numpy as np

from repro import store, telemetry
from repro.analysis.blocked import _DISCONNECTED_MSG, padded_neighbors, source_distances
from repro.design.space import Candidate, build_candidate
from repro.layout.cable import cable_lengths
from repro.layout.cost import CostModel, interconnect_cost
from repro.layout.floorplan import Floorplan, FloorplanConfig
from repro.sim.config import SimConfig
from repro.sim.model import LatencyModel
from repro.topologies.base import Topology

__all__ = [
    "DESIGN_EVAL_VERSION",
    "design_sources",
    "channel_load_shares",
    "design_eval_key",
    "evaluate_candidate",
    "evaluation_job",
    "run_evaluation_job",
]

#: Bumped whenever an objective's definition changes: old store entries
#: miss instead of serving stale objectives.
DESIGN_EVAL_VERSION = 1

#: Source-sample ceiling of the exact-betweenness pass (see
#: :func:`design_sources`).
DEFAULT_DESIGN_SOURCES = 64

#: (sources x channels) entries one Brandes sub-block may hold: bounds
#: the pass's working set (2^18 entries is about 2 MB per float64 array).
BRANDES_BLOCK_ENTRIES = 1 << 18


def design_sources() -> int:
    """Betweenness source budget (``REPRO_DESIGN_SOURCES``, default 64).

    Candidates with ``n`` at or below the budget get the exact
    all-sources accumulation; larger ones use a deterministic sample of
    this many sources. The value is part of every evaluation's store
    key, so changing it can never serve a mismatched entry.
    """
    try:
        return max(1, int(os.environ.get("REPRO_DESIGN_SOURCES", DEFAULT_DESIGN_SOURCES)))
    except ValueError:
        return DEFAULT_DESIGN_SOURCES


# ----------------------------------------------------------------------
# channel load shares (sampled Brandes edge betweenness)
# ----------------------------------------------------------------------
def channel_load_shares(
    topo: Topology, sources: int | None = None, seed: int = 0
) -> tuple[np.ndarray, int]:
    """Per-directed-channel share of all packet-hops under uniform
    minimal routing; returns ``(shares, num_sources_used)``.

    Channel order is all forward directions of ``topo.links`` followed
    by all reverse directions (share ``i`` / ``num_links + i`` is link
    ``i``'s u->v / v->u channel). The all-sources result is pinned
    against :func:`repro.sim.model.build_uniform_model` -- which uses
    the same probabilities in interleaved order -- by
    ``tests/test_design.py``. A budget below one source or a
    disconnected topology raises ``ValueError``.
    """
    n = topo.n
    limit = sources if sources is not None else design_sources()
    if limit < 1:
        raise ValueError(f"sources must be >= 1, got {limit}")
    if n <= limit:
        src = np.arange(n)
    else:
        src = np.sort(np.random.default_rng(seed).permutation(n)[:limit])

    links = topo.links
    u = np.fromiter((l.u for l in links), dtype=np.int64, count=len(links))
    v = np.fromiter((l.v for l in links), dtype=np.int64, count=len(links))
    eu = np.concatenate([u, v])  # directed tails: forward then reverse
    ev = np.concatenate([v, u])

    pad = padded_neighbors(topo)
    flow = np.zeros(len(eu))
    sub = max(1, BRANDES_BLOCK_ENTRIES // max(1, len(eu)))
    # Distances come 64-source words at a time; Brandes runs on
    # sub-blocks of them, so neither pass holds more than about
    # BRANDES_BLOCK_ENTRIES (source, channel) entries.
    chunk = -(-sub // 64) * 64
    for c0 in range(0, len(src), chunk):
        dist = source_distances(pad, n, src[c0 : c0 + chunk])
        if dist.min(initial=0) < 0:
            raise ValueError(_DISCONNECTED_MSG)
        for s0 in range(0, dist.shape[1], sub):
            _brandes_block(np.ascontiguousarray(dist[:, s0 : s0 + sub].T), eu, ev, flow)
    total = flow.sum()
    return (flow / total if total else flow), len(src)


def _brandes_block(
    dist: np.ndarray, eu: np.ndarray, ev: np.ndarray, flow: np.ndarray
) -> None:
    """Add one block of sources' Brandes edge dependencies to ``flow``.

    ``dist`` is ``(b, n)``: row ``i`` holds source ``i``'s hop distances.
    The per-node path counts ``sigma`` and dependencies ``delta`` of all
    ``b`` sources live in one array ordered by BFS level, so each level
    of each pass is one ``np.bincount`` over that level's tree edges.
    ``np.bincount`` adds in input order, and the tree edges keep their
    (source, channel) order within a level, so every node sums its
    terms in channel order, exactly as a per-source ``np.add.at`` loop
    does; the per-source rows are then added into ``flow`` in source
    order. The floats are therefore bit-identical to that loop.
    """
    b, n = dist.shape
    m = len(eu)
    # Tree edges, as flat (source, channel) indices ``f = s * m + e``:
    # the head is one level below the tail. Grouped by the head's level.
    dv = dist[:, ev].ravel()
    f = np.flatnonzero(dv == dist[:, eu].ravel() + 1)
    lvl = dv[f]
    order = np.argsort(lvl, kind="stable")
    f, lvl = f[order], lvl[order]
    depth = int(lvl[-1]) if len(lvl) else 0
    edge_off = np.searchsorted(lvl, np.arange(depth + 2))

    # Position of (source, node) in the level-ordered state arrays.
    flat = dist.ravel()
    by_level = np.argsort(flat, kind="stable")
    pos = np.empty(b * n, dtype=np.int64)
    pos[by_level] = np.arange(b * n)
    node_off = np.searchsorted(flat[by_level], np.arange(depth + 2))
    s_idx, e_idx = np.divmod(f, m)
    base = s_idx * n
    tail = pos[base + eu[e_idx]]
    head = pos[base + ev[e_idx]]

    sigma = np.zeros(b * n)
    sigma[: node_off[1]] = 1.0  # the sources themselves
    for lv in range(1, depth + 1):
        e = slice(edge_off[lv], edge_off[lv + 1])
        sigma[node_off[lv] : node_off[lv + 1]] = np.bincount(
            head[e] - node_off[lv],
            weights=sigma[tail[e]],
            minlength=node_off[lv + 1] - node_off[lv],
        )
    delta = np.zeros(b * n)
    contrib = np.empty(len(lvl))
    for lv in range(depth, 0, -1):
        e = slice(edge_off[lv], edge_off[lv + 1])
        t, h = tail[e], head[e]
        c = sigma[t] / sigma[h] * (1.0 + delta[h])
        contrib[e] = c
        delta[node_off[lv - 1] : node_off[lv]] = np.bincount(
            t - node_off[lv - 1], weights=c, minlength=node_off[lv] - node_off[lv - 1]
        )
    rows = np.zeros(b * m)
    rows[f] = contrib
    for row in rows.reshape(b, m):
        flow += row


# ----------------------------------------------------------------------
# one candidate -> one objective vector
# ----------------------------------------------------------------------
def design_eval_key(
    c: Candidate,
    sources: int,
    floorplan: FloorplanConfig | None = None,
    cost_model: CostModel | None = None,
) -> store.RunKey:
    """Store key of one candidate evaluation (spec-addressed, so warm
    hits skip construction entirely)."""
    payload = {
        "v": DESIGN_EVAL_VERSION,
        "candidate": c.as_dict(),
        "sources": int(sources),
        "floorplan": asdict(floorplan or FloorplanConfig()),
        "cost_model": asdict(cost_model or CostModel()),
    }
    return store.run_key("design_eval", payload)


def _compute_evaluation(
    c: Candidate,
    sources: int,
    floorplan: FloorplanConfig | None,
    cost_model: CostModel | None,
) -> dict:
    from repro import cache

    telemetry.count("design.evaluations")
    with telemetry.span("design.evaluate"):
        topo = build_candidate(c)
        stats = cache.hop_stats(topo)
        fp = Floorplan(topo.n, floorplan)
        metres = cable_lengths(topo, floorplan=fp)
        cost = interconnect_cost(topo, model=cost_model, floorplan=fp)
        shares, used = channel_load_shares(topo, sources=sources, seed=c.seed)
        model = LatencyModel(
            topo=topo, cfg=SimConfig(), avg_hops=stats.aspl, channel_shares=shares
        )
        return {
            "label": c.label,
            "candidate": c.as_dict(),
            "name": topo.name,
            "num_links": topo.num_links,
            "max_degree": int(topo.max_degree),
            "avg_degree": float(topo.average_degree),
            "diameter": int(stats.diameter),
            "aspl": float(stats.aspl),
            "cable_avg_m": float(metres.mean()),
            "cable_total_m": float(metres.sum()),
            "cost_total": float(cost.total),
            "cost_cable_share": float(cost.cable_share),
            "saturation_gbps": float(model.saturation_gbps()),
            "hottest_share": float(shares.max()) if len(shares) else 0.0,
            "betweenness_sources": int(used),
        }


def evaluate_candidate(
    c: Candidate,
    sources: int | None = None,
    floorplan: FloorplanConfig | None = None,
    cost_model: CostModel | None = None,
) -> dict:
    """Evaluate one candidate on every objective, store-memoized."""
    sources = sources if sources is not None else design_sources()
    key = design_eval_key(c, sources, floorplan, cost_model)
    return store.cached_value(
        key, lambda: _compute_evaluation(c, sources, floorplan, cost_model)
    )


# ----------------------------------------------------------------------
# picklable fan-out jobs for dedup_map / parallel_map
# ----------------------------------------------------------------------
def evaluation_job(c: Candidate, sources: int) -> tuple:
    """The hashable job tuple one evaluation fans out as."""
    return (c, int(sources))


def run_evaluation_job(job: tuple) -> dict:
    """Module-level worker entry for :func:`repro.store.dedup_map`."""
    c, sources = job
    return evaluate_candidate(c, sources=sources)
