"""Incremental link-percolation engine: resilience sweeps in one BFS.

The ``python -m repro percolation`` experiment, and the compute layer
behind the ROADMAP's stochastic-vs-regular resilience study (the
question Demichev et al., arXiv:1312.0510, ask of large small-world
fabrics): as links fail, which topology keeps a giant component, short
paths and routable pair coverage the longest?

**Coupled monotone sampling.** Each trial draws *one* uniform value per
link (:func:`link_field`, seeded by ``(seed, trial)`` only). A fail
fraction ``f`` is then a threshold: link ``e`` is dead iff
``field[e] < f``. Fault sets therefore *nest* across fractions -- the
survivor at ``f2 > f1`` is the survivor at ``f1`` minus a delta -- and
every fraction of a trial shares one seed-stable random field. This is
classic common-random-numbers coupling: per-fraction curves from the
same trial are perfectly correlated, so the *differences* between
fractions (where resilience lives) carry far less sampling noise than
independently-drawn points would.

**Fused multi-fraction BFS.** Nesting is also what makes the sweep
cheap. Instead of rebuilding a survivor CSR and re-running blocked BFS
per fraction, the incremental engine gives each fraction a group of
whole uint64 words in the bit-parallel frontier and applies the fault
delta as a per-edge *prefix mask*: with fractions ascending, edge ``e``
is alive for exactly the first ``t(e)`` groups where ``t(e)`` counts
fractions ``<= field[e]``, so its mask is all-ones on a word prefix and
zero after. One gather/OR-reduce pass then advances *all* fractions at
once, amortizing the per-level numpy dispatch (the cost floor of
:mod:`repro.analysis.blocked`) across the whole fraction axis. Source
chunks shrink so the working set stays within the blocked-BFS envelope
(``REPRO_BFS_BLOCK``) -- nothing n x n is ever allocated.

**Exact, engine-invariant metrics.** Per (trial, fraction) every
statistic is derived from integer counters (per-source reach sizes via
bit unpacking, per-level pair counts), so the fused engine is
*byte-identical* to a naive per-point reference (``_naive_point_job``:
apply a :class:`~repro.faults.models.FaultSet`, BFS the rebuilt
survivor) for every block size, worker count and ``REPRO_SHM`` setting
-- ``tests/test_percolation.py`` pins all of it. Disconnection
is expected here, not an error: metrics are defined over reachable
pairs, with largest-component and component-count tracking alongside.

Trials fan out through :func:`repro.store.dedup_map` with the slot
tables broadcast over shared memory, and each (topology, trial-seed,
fraction) point is store-backed, so killed sweeps resume. The
degradation and robustness tables (:mod:`repro.faults.degradation`)
are views over the same points and store keys.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from repro import store
from repro.analysis.blocked import default_block_rows, padded_neighbors, popcount_u64
from repro.faults.models import FaultSet
from repro.topologies.base import Topology
from repro.util import format_table
from repro.util import shm
from repro.util.parallel import parallel_map

__all__ = [
    "DEFAULT_PERC_FRACTIONS",
    "DEFAULT_TRIALS",
    "PercolationPoint",
    "link_field",
    "slot_tables",
    "validate_fractions",
    "percolation_trial",
    "percolation_sweep",
    "percolation_artifact",
]

#: Default fail-fraction grid (0 anchors the intact baseline; the tail
#: reaches past the paper trio's typical disconnection onset).
DEFAULT_PERC_FRACTIONS = (0.0, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20)

#: Coupled trials per (kind, fraction) when a caller names none; the
#: degradation view shares it.
DEFAULT_TRIALS = 10

#: Broadcast names of per-kind slot tables in sweep fan-out:
#: ``perc.<kind>.<part>``, one per :func:`slot_tables` output.
_BC_PREFIX = "perc"
_TABLE_PARTS = ("pad", "uv", "eidx")


# ----------------------------------------------------------------------
# coupled sampling + slot tables
# ----------------------------------------------------------------------
def link_field(num_links: int, seed: int, trial: int) -> np.ndarray:
    """The trial's uniform random field, one value per canonical link.

    Seeded by ``(seed, trial)`` only -- *not* by the fraction -- so all
    fractions of a trial threshold the same field (monotone coupling)
    and the field is independent of sweep composition and worker count.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(trial)]))
    return rng.random(int(num_links))


def canonical_links(topo: Topology) -> np.ndarray:
    """Canonical ``(u, v)`` link endpoints, ``u < v``, sorted: the link
    indexing :func:`link_field` is defined over."""
    uv = np.array(
        [(l.u, l.v) if l.u < l.v else (l.v, l.u) for l in topo.links],
        dtype=np.int64,
    ).reshape(-1, 2)
    order = np.argsort(uv[:, 0] * topo.n + uv[:, 1], kind="stable")
    return uv[order]


def slot_tables(topo: Topology) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(pad, uv, eidx)`` for the fused kernel.

    ``pad`` is the blocked engine's padded neighbor table; ``uv`` the
    canonical link list; ``eidx[v, k]`` the canonical link index of the
    edge behind neighbor slot ``(v, k)``, with padded slots mapped to
    ``len(uv)`` (a sentinel whose mask is always all-ones -- harmless,
    because the pad row of the frontier is always zero).
    """
    n = topo.n
    pad = padded_neighbors(topo)
    uv = canonical_links(topo)
    ukey = uv[:, 0] * n + uv[:, 1]  # ascending by construction
    nbr = pad.astype(np.int64)
    node = np.arange(n, dtype=np.int64)[:, None]
    key = np.minimum(node, nbr) * n + np.maximum(node, nbr)
    pos = np.searchsorted(ukey, key)
    pos = np.clip(pos, 0, len(ukey) - 1) if len(ukey) else pos
    valid = (nbr < n) & (len(ukey) > 0)
    match = np.zeros_like(valid)
    if len(ukey):
        match = ukey[pos] == key
    eidx = np.where(valid & match, pos, len(ukey)).astype(np.int64)
    return pad, uv, eidx


# ----------------------------------------------------------------------
# fused multi-fraction kernel
# ----------------------------------------------------------------------
def _block_budget() -> int:
    """Raw block-row budget (``REPRO_BFS_BLOCK`` or 2048), *not*
    clamped to n: the fused kernel divides it across fraction groups,
    so clamping early would shred small-n sweeps into 64-source
    slivers."""
    return default_block_rows(1 << 30)


def _group_words(block_rows: int, num_fractions: int, n: int) -> int:
    """Frontier words per fraction group: the block-row budget divided
    across fractions (so the gather working set matches a plain
    blocked-BFS run at ``block_rows``), capped at the words ``n``
    sources can actually fill."""
    budget = max(1, block_rows // 64)
    need = (n + 63) // 64
    return max(1, min(budget // max(1, num_fractions), need))


def _prefix_masks(num_fractions: int, ws: int) -> np.ndarray:
    """``PREFIX[t]``: all-ones on the first ``t`` groups' words, zero
    after -- the per-edge aliveness mask under monotone coupling."""
    w = num_fractions * ws
    prefix = np.zeros((num_fractions + 1, w), dtype=np.uint64)
    for t in range(1, num_fractions + 1):
        prefix[t, : t * ws] = np.uint64(0xFFFFFFFFFFFFFFFF)
    return prefix


def _chunk_kernel(
    pad: np.ndarray,
    tslot: np.ndarray | None,
    n: int,
    num_fractions: int,
    ws: int,
    start: int,
    stop: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Fused BFS of sources ``[start, stop)`` across all fraction groups.

    ``tslot[v, k]`` is the alive-prefix length of neighbor slot
    ``(v, k)`` (``None`` = every slot alive, the naive-survivor path).
    Returns ``(counts, sizes)``: ``counts[level, j]`` ordered pairs of
    group ``j`` first reached at ``level`` (row 0 is zero), ``sizes[j,
    i]`` the component size (incl. self) of local source ``i`` under
    group ``j``'s fault set. All entries are exact integers, so results
    are invariant to chunking, blocking and worker count.
    """
    b = stop - start
    w = num_fractions * ws
    maxdeg = pad.shape[1]
    one = np.uint64(1)
    # One alive-mask per neighbor slot, built once per chunk; the
    # per-level pull below works slot-by-slot on (n, w) operands, so no
    # (n, maxdeg, w) temporary is ever allocated -- the masks are the
    # kernel's whole large-array footprint (the blocked-BFS envelope).
    pads = [np.ascontiguousarray(pad[:, k]) for k in range(maxdeg)]
    masks = None
    if tslot is not None:
        prefix = _prefix_masks(num_fractions, ws)
        masks = [prefix[tslot[:, k]] for k in range(maxdeg)]
    # Row n is the pad sentinel: always zero, so padded slots are no-ops.
    frontier = np.zeros((n + 1, w), dtype=np.uint64)
    visited = np.zeros((n, w), dtype=np.uint64)
    loc = np.arange(b)
    srcs = np.arange(start, stop)
    words = loc // 64
    bits = one << (loc % 64).astype(np.uint64)
    for j in range(num_fractions):
        frontier[srcs, j * ws + words] = bits
        visited[srcs, j * ws + words] = bits

    counts = [np.zeros(num_fractions, dtype=np.int64)]  # level 0: self pairs
    nxt = np.empty((n, w), dtype=np.uint64)
    lo = 0  # groups < lo have an empty frontier: retired from the pull
    while True:
        # Retired groups form a word *prefix* (fractions ascend, and
        # the intact/low-f groups usually converge first), so dropping
        # them is just an offset into the word axis -- their visited
        # words are frozen and never read again.
        off = lo * ws
        # Pull step, accumulated slot-by-slot: a node's next-frontier
        # word is the OR of its (alive) neighbors' current words.
        nv = nxt[:, off:]
        nv[:] = 0
        for k in range(maxdeg):
            tmp = frontier[:, off:][pads[k]]
            if masks is not None:
                tmp &= masks[k][:, off:]
            nv |= tmp
        new = nv & ~visited[:, off:]
        grp = np.zeros(num_fractions, dtype=np.int64)
        grp[lo:] = (
            popcount_u64(new)
            .sum(axis=0, dtype=np.int64)
            .reshape(num_fractions - lo, ws)
            .sum(axis=1)
        )
        if not grp.any():
            break
        visited[:, off:] |= new
        counts.append(grp)
        frontier[:n, off:] = new
        # An empty frontier stays empty: retire converged leading groups.
        while lo < num_fractions and grp[lo] == 0:
            lo += 1

    # Per-source component sizes: column-sum the visited bit matrix of
    # each group, in row chunks so the unpacked bytes stay bounded.
    sizes = np.zeros((num_fractions, b), dtype=np.int64)
    bit_cols = ws * 64
    step = max(1, (1 << 22) // bit_cols)
    for j in range(num_fractions):
        seg = visited[:, j * ws : (j + 1) * ws]
        for r0 in range(0, n, step):
            blk = np.unpackbits(
                np.ascontiguousarray(seg[r0 : r0 + step]).view(np.uint8),
                bitorder="little",
            ).reshape(-1, bit_cols)
            sizes[j] += blk.sum(axis=0, dtype=np.int64)[:b]
    return np.vstack(counts), sizes


def _chunk_job(args: tuple) -> tuple[np.ndarray, np.ndarray]:
    """One source chunk; module-level for pool pickling. The (large)
    ``pad``/``tslot`` tables arrive as broadcast arrays, not in the
    task tuple."""
    n, num_fractions, ws, start, stop, masked = args
    pad = shm.get(f"{_BC_PREFIX}.pad")
    tslot = shm.get(f"{_BC_PREFIX}.tslot") if masked else None
    return _chunk_kernel(pad, tslot, n, num_fractions, ws, start, stop)


def _run_chunks(
    pad: np.ndarray,
    tslot: np.ndarray | None,
    n: int,
    num_fractions: int,
    block_rows: int,
    workers: int | None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """All source chunks of one fused BFS; returns ``(hist, sizes)``
    with ``hist[level, j]`` summed over chunks and ``sizes`` the
    per-chunk per-source size arrays (in source order)."""
    ws = _group_words(block_rows, num_fractions, n)
    span = ws * 64
    chunks = [
        (n, num_fractions, ws, s, min(s + span, n), tslot is not None)
        for s in range(0, n, span)
    ]
    broadcast = {f"{_BC_PREFIX}.pad": pad}
    if tslot is not None:
        broadcast[f"{_BC_PREFIX}.tslot"] = tslot
    parts = parallel_map(_chunk_job, chunks, workers=workers, broadcast=broadcast)
    depth = max(p[0].shape[0] for p in parts)
    hist = np.zeros((depth, num_fractions), dtype=np.int64)
    for counts, _sizes in parts:
        hist[: counts.shape[0]] += counts
    return hist, [p[1] for p in parts]


def _fraction_metrics(
    hist: np.ndarray,
    sizes: list[np.ndarray],
    field: np.ndarray,
    fractions: tuple[float, ...],
    n: int,
    num_links: int,
) -> list[dict]:
    """Exact per-fraction metric dicts from kernel outputs, group ``g``
    of ``hist``/``sizes`` holding fraction ``fractions[g]``."""
    out = []
    for g, frac in enumerate(fractions):
        levels = np.arange(hist.shape[0], dtype=np.int64)
        total_hops = int((levels * hist[:, g]).sum())
        nz = np.nonzero(hist[:, g])[0]
        diameter = int(nz[-1]) if len(nz) else 0
        chunk_sizes = [s[g] for s in sizes]
        lcc = max(int(s.max()) for s in chunk_sizes)
        reached = sum(int(s.sum()) for s in chunk_sizes)
        ncomp = int(round(sum(float((1.0 / s).sum()) for s in chunk_sizes)))
        reachable_pairs = reached - n
        dead = int((field < frac).sum())
        out.append(
            {
                "fraction": float(frac),
                "dead_links": dead,
                "kept_links": int(num_links - dead),
                "lcc": lcc,
                "ncomp": ncomp,
                "reachable_pairs": int(reachable_pairs),
                "total_hops": total_hops,
                "diameter": diameter,
                "aspl": (total_hops / reachable_pairs) if reachable_pairs > 0 else None,
            }
        )
    return out


# ----------------------------------------------------------------------
# trials
# ----------------------------------------------------------------------
def validate_fractions(fractions) -> tuple[float, ...]:
    """``fractions`` as a float tuple, or a ``ValueError`` naming the
    first bad value. Every entry must be finite, lie in ``[0, 1]`` and
    exceed its predecessor: the fused kernel's prefix masks assume the
    order, and a stored point must never be served for a grid the
    kernel would refuse."""
    out = tuple(float(f) for f in fractions)
    if not out:
        raise ValueError("fractions must be non-empty")
    for i, f in enumerate(out):
        if not 0.0 <= f <= 1.0:  # also rejects nan and inf
            raise ValueError(f"fail fraction {f!r} is not a finite value in [0, 1]")
        if i and f <= out[i - 1]:
            raise ValueError(
                f"fractions must be strictly ascending: {f!r} follows {out[i - 1]!r}"
            )
    return out


def _incremental_trial(
    topo: Topology,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray],
    fractions: tuple[float, ...],
    seed: int,
    trial: int,
    block_rows: int,
    workers: int | None,
) -> list[dict]:
    """All fractions of one trial in a single fused BFS pass."""
    pad, uv, eidx = tables
    field = link_field(len(uv), seed, trial)
    fr = np.asarray(fractions, dtype=np.float64)
    # t(e): how many fractions keep edge e alive (field >= f). The
    # eidx sentinel (padded slots) maps past the field to t = F.
    t_of_link = np.concatenate(
        [np.searchsorted(fr, field, side="right"), [len(fr)]]
    ).astype(np.int64)
    tslot = t_of_link[eidx]
    hist, sizes = _run_chunks(pad, tslot, topo.n, len(fr), block_rows, workers)
    return _fraction_metrics(hist, sizes, field, fractions, topo.n, len(uv))


def _percolation_key(
    kind: str, n: int, topo_seed: int, seed: int, trial: int, fraction: float
):
    """Store key of one (trial, fraction) point, shared by every
    consumer: the sweep, single trials, the degradation view and the
    naive reference."""
    return store.run_key(
        "percolation",
        {
            "kind": kind,
            "n": int(n),
            "topo_seed": int(topo_seed),
            "seed": int(seed),
            "trial": int(trial),
            "fraction": float(fraction),
        },
    )


def _stored_trial(
    kind: str,
    n: int,
    topo_seed: int,
    seed: int,
    trial: int,
    fractions: tuple[float, ...],
    block_rows: int,
    workers: int | None,
) -> list[dict]:
    """One trial's per-fraction rows, store-backed point by point: a
    trial is served when every requested point is stored, else all of
    them are recomputed in one fused pass and published. Slot tables
    come from the sweep's broadcast (``perc.<kind>.*``) when one is
    active, else are rebuilt locally (single-trial calls)."""
    from repro.experiments.sweeps import make_topology

    keys = [
        _percolation_key(kind, n, topo_seed, seed, trial, f) for f in fractions
    ]
    if store.store_enabled():
        stored = [store.get(k) for k in keys]
        if all(v is not None for v in stored):
            return stored
        store.record_misses(sum(v is None for v in stored))
    topo = make_topology(kind, n, seed=topo_seed)
    try:
        tables = tuple(shm.get(f"{_BC_PREFIX}.{kind}.{part}") for part in _TABLE_PARTS)
    except KeyError:
        tables = slot_tables(topo)
    values = _incremental_trial(topo, tables, fractions, seed, trial, block_rows, workers)
    if store.store_enabled():
        for key, value in zip(keys, values):
            store.put(key, value)
    return values


def percolation_trial(
    kind: str,
    n: int,
    fractions: tuple[float, ...] = DEFAULT_PERC_FRACTIONS,
    seed: int = 0,
    trial: int = 0,
    topo_seed: int = 0,
    block_rows: int | None = None,
    workers: int | None = None,
) -> list[dict]:
    """One trial's per-fraction metric dicts (store-backed, resumable).

    Every (kind, n, topo_seed, seed, trial, fraction) point has its own
    store key: a resumed or re-ordered sweep reuses exactly the points
    it already computed.
    """
    fractions = validate_fractions(fractions)
    rows = _block_budget() if block_rows is None else max(1, int(block_rows))
    return _stored_trial(kind, n, topo_seed, seed, trial, fractions, rows, workers)


def _trial_job(args: tuple) -> list[dict]:
    """One sweep trial ``(kind, n, topo_seed, seed, trial, fractions)``;
    module-level for pool pickling. The fan-out is over trials, so the
    inner kernel stays serial."""
    return _stored_trial(*args, _block_budget(), workers=1)


def _naive_point_job(args: tuple) -> dict:
    """The per-point reference the fused engine is checked against (the
    tests and the ``percolation_sweep_speedup`` timing gate). Every
    call re-derives the link list, materializes the :class:`FaultSet`,
    rebuilds the survivor topology + CSR + neighbor table and BFSes it
    from scratch -- per point, which is exactly what the fused engine
    amortizes away. It reads and writes the same store keys."""
    kind, n, topo_seed, seed, trial, fraction = args
    from repro.experiments.sweeps import make_topology

    key = _percolation_key(kind, n, topo_seed, seed, trial, fraction)
    if store.store_enabled():
        stored = store.get(key)
        if stored is not None:
            return stored
        store.record_misses()
    topo = make_topology(kind, n, seed=topo_seed)
    uv = canonical_links(topo)
    field = link_field(len(uv), seed, trial)
    dead = uv[field < fraction]
    faults = FaultSet(
        dead_links=tuple((int(u), int(v)) for u, v in dead), label="percolation"
    )
    survivor = faults.apply(topo)
    pad_s = padded_neighbors(survivor)
    hist, sizes = _run_chunks(pad_s, None, n, 1, _block_budget(), workers=1)
    value = _fraction_metrics(hist, sizes, field, (fraction,), n, len(uv))[0]
    if store.store_enabled():
        store.put(key, value)
    return value

# ----------------------------------------------------------------------
# sweep + artifact
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PercolationPoint:
    """Trial-aggregated percolation statistics at one (kind, fraction)."""

    HEADERS: ClassVar[tuple[str, ...]] = (
        "topology", "fail_frac", "P(connected)", "lcc/n", "components", "reach",
        "aspl", "diameter", "thr_retention",
    )

    name: str
    kind: str
    n: int
    fraction: float
    trials: int
    connected_fraction: float  #: trials whose survivor stayed connected
    mean_lcc_fraction: float  #: largest component / n
    mean_components: float
    mean_reachable: float  #: reachable ordered pairs / (n * (n - 1))
    mean_aspl: float  #: over reachable pairs; nan if nothing reachable
    mean_diameter: float  #: max finite hop distance
    #: capacity proxy retention vs the f=0 baseline, discounted by pair
    #: coverage: kept_links * (aspl_0 / aspl_f) * reachable_f.
    throughput_retention: float

    def row(self) -> list:
        def fmt(x: float, nd: int) -> object:
            return round(x, nd) if x == x else "-"

        return [
            self.name,
            self.fraction,
            round(self.connected_fraction, 3),
            round(self.mean_lcc_fraction, 4),
            fmt(self.mean_components, 1),
            round(self.mean_reachable, 4),
            fmt(self.mean_aspl, 3),
            fmt(self.mean_diameter, 2),
            fmt(self.throughput_retention, 3),
        ]


def _aggregate(
    name: str,
    kind: str,
    n: int,
    fractions: tuple[float, ...],
    per_trial: list[list[dict]],
) -> list[PercolationPoint]:
    """Fold per-trial metric dicts into one point per fraction."""
    points = []
    trials = len(per_trial)
    # Per-trial intact baselines (the coupling makes ratios against
    # them low-variance); only available when the sweep anchors f = 0.
    base_aspl = None
    if fractions and fractions[0] == 0.0:
        base_aspl = [t[0]["aspl"] for t in per_trial]
    denom = n * (n - 1)
    for fi, frac in enumerate(fractions):
        rows = [t[fi] for t in per_trial]
        aspls = [r["aspl"] for r in rows if r["aspl"] is not None]
        retention = float("nan")
        if base_aspl is not None:
            ret = [
                (r["kept_links"] / (r["kept_links"] + r["dead_links"]))
                * (b / r["aspl"])
                * (r["reachable_pairs"] / denom)
                for r, b in zip(rows, base_aspl)
                if r["aspl"] is not None and b is not None
            ]
            retention = float(np.mean(ret)) if ret else float("nan")
        points.append(
            PercolationPoint(
                name=name,
                kind=kind,
                n=n,
                fraction=float(frac),
                trials=trials,
                connected_fraction=sum(r["lcc"] == n for r in rows) / trials,
                mean_lcc_fraction=float(np.mean([r["lcc"] for r in rows])) / n,
                mean_components=float(np.mean([r["ncomp"] for r in rows])),
                mean_reachable=float(np.mean([r["reachable_pairs"] for r in rows])) / denom,
                mean_aspl=float(np.mean(aspls)) if aspls else float("nan"),
                mean_diameter=float(np.mean([r["diameter"] for r in rows])),
                throughput_retention=retention,
            )
        )
    return points


def percolation_sweep(
    n: int = 1024,
    fractions: tuple[float, ...] = DEFAULT_PERC_FRACTIONS,
    trials: int | None = None,
    seed: int = 0,
    kinds: tuple[str, ...] | None = None,
    workers: int | None = None,
) -> tuple[str, list[PercolationPoint], dict]:
    """Full percolation sweep: kinds x trials, all fractions per pass.

    Returns ``(formatted table, aggregated points, raw per-trial
    dicts)``. Trials fan out through :func:`repro.store.dedup_map`
    (store-backed, resumable) with each kind's slot tables broadcast
    once over shared memory, and each job settles every fraction in one
    fused BFS.
    """
    from repro.experiments.sweeps import PAPER_TRIO, make_topology

    fractions = validate_fractions(fractions)
    trials = DEFAULT_TRIALS if trials is None else max(1, int(trials))
    kinds = tuple(kinds) if kinds else PAPER_TRIO
    topos = {kind: make_topology(kind, n, seed=seed) for kind in kinds}
    broadcast = {
        f"{_BC_PREFIX}.{kind}.{part}": table
        for kind, topo in topos.items()
        for part, table in zip(_TABLE_PARTS, slot_tables(topo))
    }
    jobs = [
        (kind, n, seed, seed, t, fractions) for kind in kinds for t in range(trials)
    ]
    results = store.dedup_map(_trial_job, jobs, workers=workers, broadcast=broadcast)

    points: list[PercolationPoint] = []
    raw: dict = {}
    for ki, kind in enumerate(kinds):
        per_trial = results[ki * trials : (ki + 1) * trials]
        points.extend(_aggregate(topos[kind].name, kind, n, fractions, per_trial))
        raw[kind] = per_trial
    table = format_table(
        list(PercolationPoint.HEADERS),
        [p.row() for p in points],
        title=(
            f"Percolation sweep at n={n} "
            f"({trials} coupled trials/kind, incremental engine)"
        ),
    )
    return table, points, raw


def percolation_artifact(
    path: str | Path,
    n: int = 1024,
    fractions: tuple[float, ...] = DEFAULT_PERC_FRACTIONS,
    trials: int | None = None,
    seed: int = 0,
    kinds: tuple[str, ...] | None = None,
    workers: int | None = None,
) -> tuple[str, list[PercolationPoint]]:
    """Run :func:`percolation_sweep` and write the JSON artifact.

    The document is deterministic for fixed inputs (no timestamps) and
    independent of worker count and ``REPRO_SHM``, which is what lets
    CI ``cmp`` two runs under different settings.
    """
    table, points, raw = percolation_sweep(
        n=n, fractions=fractions, trials=trials, seed=seed,
        kinds=kinds, workers=workers,
    )
    payload = {
        "experiment": "percolation_sweep",
        "n": n,
        "fractions": [float(f) for f in fractions],
        "trials": points[0].trials,
        "seed": seed,
        "engine": "incremental",
        "kinds": sorted(raw),
        "points": [asdict(p) for p in points],
        "raw": raw,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return table, points
