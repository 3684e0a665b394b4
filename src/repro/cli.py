"""Command-line interface: ``python -m repro <command>``.

Exposes every reproduction experiment as a subcommand so figures can be
regenerated without writing code:

= =========== =====================================================
  info         inspect one topology (metrics, degrees, cable)
  fig7         diameter vs network size
  fig8         average shortest path length vs network size
  fig9         average cable length vs network size (floorplan model)
  fig10        latency vs accepted traffic (network simulation)
  router-sweep pipelined-router design space (VCs x buffers x depths)
  sweep        resumable fig10 sweep through the persistent run store
  theory       validate the Fact 1-3 / Theorem 1-2 bounds
  balance      custom routing vs up*/down* channel loads (E13)
  related      related-work diameter-and-degree + DLN-x + greedy tables
  robustness   link-failure degradation and bisection bounds
  faults       degradation curves under link loss (percolation view)
  percolation  coupled link-percolation sweep (fused incremental BFS)
  placement    cabinet-placement optimization gains (refs [7], [11])
  claims       machine-checked scorecard of every quantitative claim
  telemetry    run any subcommand with telemetry on, then export/summarize
  serve        HTTP daemon answering queries from the run store
  loadtest     replay a zipf-skewed query mix against the daemon
  store        run-store maintenance (info, gc)
  design       multi-objective topology design-space optimizer
= =========== =====================================================
"""

from __future__ import annotations

import argparse
import sys

from repro.util import format_table

__all__ = ["main", "build_parser"]


def _sizes(arg: str) -> tuple[int, ...]:
    return tuple(int(s) for s in arg.split(","))


def _fractions(arg: str) -> tuple[float, ...]:
    """Parse a fail-fraction list; a bad entry is an argparse error
    naming it (see :func:`repro.faults.percolation.validate_fractions`)."""
    from repro.faults.percolation import validate_fractions

    try:
        return validate_fractions(float(x) for x in arg.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _resilience_args(p: argparse.ArgumentParser, out: str, fractions: str) -> None:
    """Options of ``faults`` and ``percolation``: two views of one
    engine, sharing its per-(trial, fraction) store points."""
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--fractions", type=_fractions, default=None,
                   help=f"ascending fail fractions in [0, 1] (default {fractions})")
    p.add_argument("--trials", type=int, default=None,
                   help="coupled trials per kind (default 10)")
    p.add_argument("--kinds", type=lambda s: tuple(s.split(",")), default=None,
                   help="topology kinds (default the paper trio)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=out, help="artifact path")
    p.add_argument("--workers", type=_workers, default=None,
                   help="process-pool size (or 'auto'); default REPRO_WORKERS")
    _store_args(p, "persist per-(trial, fraction) points under DIR; faults "
                   "and percolation share them")


def _store_args(p: argparse.ArgumentParser, help_: str) -> None:
    """``--store-dir``/``--resume``/``--no-store``; ``help_`` says what
    ``--store-dir DIR`` persists. :func:`_apply_store_flags` acts on them."""
    p.add_argument("--store-dir", default=None, dest="store_dir", metavar="DIR",
                   help=f"{help_} (sets REPRO_STORE_DIR)")
    p.add_argument("--resume", action="store_true",
                   help="shorthand for --store-dir .repro-store: reuse every "
                        "previously stored point and persist new ones")
    p.add_argument("--no-store", action="store_true", dest="no_store",
                   help="bypass the run store entirely (REPRO_STORE=off)")


def _apply_store_flags(args) -> None:
    """Map --no-store / --store-dir / --resume onto the store env knobs.

    Env (not an API call) so spawn-mode pool workers inherit the choice.
    """
    import os

    if args.no_store:
        os.environ["REPRO_STORE"] = "off"
    elif args.store_dir or args.resume:
        os.environ["REPRO_STORE_DIR"] = args.store_dir or ".repro-store"
        os.environ.pop("REPRO_STORE", None)


def _workers(arg: str) -> int:
    if arg.strip().lower() == "auto":
        import os

        return os.cpu_count() or 1
    return max(0, int(arg))


def _byte_size(arg: str) -> int:
    """Parse a byte budget like '512M', '2G', '100K' or a plain integer;
    negative, infinite and NaN sizes are argparse errors."""
    s = arg.strip().lower()
    scale = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}.get(s[-1:], 1)
    if scale != 1:
        s = s[:-1]
    try:
        size = float(s) * scale
    except ValueError:
        size = float("nan")
    if not 0 <= size < float("inf"):
        raise argparse.ArgumentTypeError(
            f"invalid byte size: {arg!r} (need a finite size >= 0)")
    return int(size)


def _positive_int(arg: str) -> int:
    try:
        value = int(arg)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {arg!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Distributed Shortcut Networks (ICPP 2013)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="inspect one topology")
    info.add_argument("n", type=int)
    info.add_argument("--kind", default="dsn")
    info.add_argument("--seed", type=int, default=0)

    for name, help_ in (
        ("fig7", "diameter vs network size"),
        ("fig8", "average shortest path length vs network size"),
        ("fig9", "average cable length vs network size"),
    ):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--sizes", type=_sizes, default=(32, 64, 128, 256, 512, 1024, 2048))
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--workers", type=_workers, default=None,
                        help="process-pool size (or 'auto'); default REPRO_WORKERS")

    f10 = sub.add_parser("fig10", help="latency vs accepted traffic (simulation)")
    f10.add_argument("--pattern", default="uniform",
                     choices=["uniform", "bit_reversal", "neighboring"])
    f10.add_argument("--loads", type=lambda s: tuple(float(x) for x in s.split(",")),
                     default=(1.0, 4.0, 8.0, 12.0))
    f10.add_argument("--n", type=int, default=64)
    f10.add_argument("--full", action="store_true", help="paper-scale windows")
    f10.add_argument("--seed", type=int, default=1)
    f10.add_argument("--workers", type=_workers, default=None,
                     help="process-pool size (or 'auto'); default REPRO_WORKERS")
    f10.add_argument("--engine", default="network", choices=["network", "flit"],
                     dest="sim_engine",
                     help="simulator: packet-level 'network' (default) or the "
                          "flit-level credit/crossbar model (event-driven run "
                          "loop for either router model)")
    f10.add_argument("--router", default=None, choices=["ideal", "pipelined"],
                     help="flit-engine router model: lumped-delay 'ideal' "
                          "(default) or the staged RC/VA/SA/ST 'pipelined' "
                          "microarchitecture; 'pipelined' implies --engine flit")

    rs = sub.add_parser(
        "router-sweep",
        help="pipelined-router design space: VCs x buffer depth x pipeline depth",
        description="Sweep the pipelined router microarchitecture "
                    "(repro.sim.router) over virtual-channel count, per-VC "
                    "buffer depth and per-hop pipeline depth on the DSN-V "
                    "custom routing, at one offered load. One ideal-router "
                    "reference point per VC count anchors the overhead "
                    "columns. Writes a ROUTER_SWEEP.json artifact with --out.",
    )
    rs.add_argument("--vcs", type=_sizes, default=(4, 8),
                    help="virtual channels per link (comma list; DSN-V needs >= 4)")
    rs.add_argument("--buffers", type=_sizes, default=(8, 33),
                    help="per-VC buffer depths in flits (comma list)")
    rs.add_argument("--depths", type=_sizes, default=(2, 10, 38),
                    help="per-hop header lags in cycles (comma list; the "
                         "paper's 100 ns router is 38 cycles)")
    rs.add_argument("--load", type=float, default=4.0,
                    help="offered load Gbit/s/host (default 4)")
    rs.add_argument("--pattern", default="uniform",
                    choices=["uniform", "bit_reversal", "neighboring"])
    rs.add_argument("--n", type=int, default=16)
    rs.add_argument("--full", action="store_true", help="paper-scale windows")
    rs.add_argument("--seed", type=int, default=0)
    rs.add_argument("--workers", type=_workers, default=None,
                    help="process-pool size (or 'auto'); default REPRO_WORKERS")
    rs.add_argument("--out", default=None, metavar="FILE",
                    help="write the sweep artifact JSON to FILE")
    _store_args(rs, "persist sweep points under DIR")

    sw = sub.add_parser(
        "sweep",
        help="resumable latency sweep through the persistent run store",
        description="Run (or resume) a Fig. 10-style sweep: kinds x patterns x "
                    "loads, every point routed through repro.store. With "
                    "--resume (or --store-dir) results persist on disk, so a "
                    "killed or repeated sweep only simulates what is missing.",
    )
    sw.add_argument("--patterns", type=lambda s: tuple(s.split(",")),
                    default=("uniform",),
                    help="comma-separated traffic patterns (default uniform)")
    sw.add_argument("--kinds", type=lambda s: tuple(s.split(",")), default=None,
                    help="topology kinds (default the paper trio)")
    sw.add_argument("--loads", type=lambda s: tuple(float(x) for x in s.split(",")),
                    default=None, help="offered loads Gbit/s/host (default the "
                                       "paper's 1,2,4,6,8,10,12)")
    sw.add_argument("--n", type=int, default=64)
    sw.add_argument("--seed", type=int, default=1)
    sw.add_argument("--full", action="store_true", help="paper-scale windows")
    sw.add_argument("--workers", type=_workers, default=None,
                    help="process-pool size (or 'auto'); default REPRO_WORKERS")
    _store_args(sw, "persist results under DIR")
    sw.add_argument("--store-stats", action="store_true", dest="store_stats",
                    help="print hit/miss/bytes counters after the sweep "
                         "(this process only; pool workers count their own)")
    sw.add_argument("--out", default=None, metavar="PATH",
                    help="write the full curves as a JSON artifact")

    th = sub.add_parser("theory", help="validate Section IV-C bounds")
    th.add_argument("--sizes", type=_sizes, default=(64, 100, 250, 1024))

    bal = sub.add_parser("balance", help="routing balance comparison (E13)")
    bal.add_argument("--n", type=int, default=64)

    sub.add_parser("related", help="related-work comparison tables")

    rob = sub.add_parser("robustness", help="fault tolerance + bisection")
    rob.add_argument("--n", type=int, default=128)
    rob.add_argument("--trials", type=int, default=10)

    fl = sub.add_parser(
        "faults",
        help="degradation curves under link failures (writes a JSON artifact)",
    )
    _resilience_args(fl, out="DEGRADATION.json", fractions="0,0.01,0.02,0.05,0.10")

    pc = sub.add_parser(
        "percolation",
        help="coupled link-percolation sweep (incremental fused engine)",
        description="Resilience sweep in the spirit of Demichev et al. "
                    "(arXiv:1312.0510): per trial, one uniform draw per link; "
                    "each fail fraction thresholds that field, so fault sets "
                    "nest and the incremental engine settles every fraction "
                    "in one fused bit-parallel BFS. Reports giant-component, "
                    "component-count, reachability, ASPL and diameter decay; "
                    "byte-identical for any worker count or REPRO_SHM "
                    "setting. Writes a JSON artifact.",
    )
    _resilience_args(pc, out="PERCOLATION.json",
                     fractions="0,0.01,0.02,0.05,0.10,0.15,0.20")

    pl = sub.add_parser("placement", help="cabinet-placement optimization gains")
    pl.add_argument("--n", type=int, default=256)
    pl.add_argument("--iterations", type=int, default=20_000)

    rep = sub.add_parser("report", help="regenerate the full results document")
    rep.add_argument("--out", default=None, help="write to a file instead of stdout")
    rep.add_argument("--sim", action="store_true", help="include the Fig. 10 simulations")
    rep.add_argument("--full", action="store_true", help="paper-scale sweeps")
    rep.add_argument("--seed", type=int, default=0)

    sub.add_parser("claims", help="run the paper-claims scorecard (E29)")

    tel = sub.add_parser(
        "telemetry",
        help="run any subcommand with telemetry enabled, then export/summarize",
        description="Wrapper: enables the telemetry subsystem (REPRO_TELEMETRY=1), "
                    "dispatches the wrapped subcommand, then exports the recorded "
                    "metrics. With no wrapped command it just prints the summary "
                    "of whatever the current process recorded (usually empty).",
    )
    tel.add_argument("--jsonl", default=None, metavar="PATH",
                     help="write the JSONL export here")
    tel.add_argument("--prom", default=None, metavar="PATH",
                     help="write the Prometheus text exposition here")
    tel.add_argument("--summary", action="store_true",
                     help="print the summary table (default when no export given)")
    tel.add_argument("--interval-ns", type=float, default=None, dest="interval_ns",
                     help="in-sim sampling interval (REPRO_TELEMETRY_INTERVAL_NS)")
    tel.add_argument("inner", nargs=argparse.REMAINDER, metavar="command ...",
                     help="the subcommand (plus its arguments) to run instrumented")

    srv = sub.add_parser(
        "serve",
        help="HTTP daemon answering queries from the run store",
        description="Serve topology-metric and latency-curve queries over HTTP "
                    "(endpoints: /v1/latency, /v1/topology, /healthz, /metrics, "
                    "/stats). Warm hits come straight from the store "
                    "(REPRO_STORE_DIR); misses coalesce and fill through a "
                    "bounded worker pool; a saturated queue answers 429. "
                    "Runs until SIGTERM/SIGINT. See docs/serving.md.",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8351,
                     help="listen port (0 = ephemeral, announced on stdout)")
    srv.add_argument("--store-dir", default=None, dest="store_dir", metavar="DIR",
                     help="serve from DIR (sets REPRO_STORE_DIR)")
    srv.add_argument("--fill-workers", type=_workers, default=1, dest="fill_workers",
                     help="parallel_map workers for miss fills (default 1)")
    srv.add_argument("--queue-limit", type=int, default=64, dest="queue_limit",
                     help="pending miss jobs before 429 (default 64)")
    srv.add_argument("--fill-batch", type=int, default=8, dest="fill_batch",
                     help="max jobs per fill batch (default 8)")

    lt = sub.add_parser(
        "loadtest",
        help="replay a zipf-skewed query mix against the serve daemon",
        description="Measure daemon latency under a deterministic zipfian query "
                    "mix: warm/miss p50/p99 split by the X-Repro-Source header, "
                    "plus sustained throughput. --spawn runs its own daemon "
                    "child (and asserts a clean SIGTERM exit); --populate "
                    "computes every distinct query in-process first so the "
                    "replay is warm. See docs/serving.md.",
    )
    lt.add_argument("--host", default="127.0.0.1")
    lt.add_argument("--port", type=int, default=8351)
    lt.add_argument("--spawn", action="store_true",
                    help="spawn a daemon child for the test (SIGTERM on exit)")
    lt.add_argument("--store-dir", default=None, dest="store_dir", metavar="DIR",
                    help="store directory for --populate / the spawned daemon")
    lt.add_argument("--requests", type=int, default=200)
    lt.add_argument("--concurrency", type=int, default=8)
    lt.add_argument("--skew", type=float, default=1.1,
                    help="zipf exponent of the hot-key mix (0 = uniform)")
    lt.add_argument("--seed", type=int, default=0, help="mix sampling seed")
    lt.add_argument("--n", type=int, default=16,
                    help="network size of the stock candidate queries")
    lt.add_argument("--populate", action="store_true",
                    help="compute every distinct query in-process before replaying")
    lt.add_argument("--out", default=None, metavar="PATH",
                    help="write the report as JSON")
    lt.add_argument("--require-hit-rate", type=float, default=None,
                    dest="require_hit_rate", metavar="RATE",
                    help="fail unless warm hit rate >= RATE (CI gate)")
    lt.add_argument("--require-zero-errors", action="store_true",
                    dest="require_zero_errors",
                    help="fail on any non-200 response (CI gate)")

    st = sub.add_parser(
        "store",
        help="run-store maintenance",
        description="Maintenance of the persistent run store "
                    "(REPRO_STORE_DIR). 'info' prints the entry, stranded-file "
                    "and stale-lock counts; 'gc' deletes stranded entry files "
                    "(never served: at the store root or outside their home "
                    "shard), prunes the disk tier to --max-bytes, evicting "
                    "least-recently-written entries first (evicted entries are "
                    "recomputed on the next resumed sweep, never lost for "
                    "correctness), then reaps stale compute locks.",
    )
    st.add_argument("action", choices=["info", "gc"])
    st.add_argument("--store-dir", default=None, dest="store_dir", metavar="DIR",
                    help="the store to operate on (default REPRO_STORE_DIR)")
    st.add_argument("--max-bytes", type=_byte_size, default=None,
                    dest="max_bytes", metavar="SIZE",
                    help="gc byte budget; accepts K/M/G suffixes (e.g. 512M)")

    dsg = sub.add_parser(
        "design",
        help="multi-objective topology design-space optimizer",
        description="Search the candidate space (DSN-x, DSN-D, flexible DSN, "
                    "DLN, RANDOM/random-regular, grid baselines) for one "
                    "(n, degree budget): 'frontier' prints the Pareto set over "
                    "ASPL/diameter/cable/saturation, 'rank' orders candidates "
                    "by the Demichev quality/cost score, 'explain LABEL' "
                    "details one candidate. Every evaluation is a run-store "
                    "entry, so killed searches resume and re-runs are warm. "
                    "See docs/design.md.",
    )
    dsg.add_argument("action", choices=["frontier", "rank", "explain"])
    dsg.add_argument("label", nargs="?", default=None,
                     help="candidate label for 'explain' (e.g. dsn-x5)")
    dsg.add_argument("--n", type=int, default=1024, help="switch count (default 1024)")
    dsg.add_argument("--budget", type=int, default=5, dest="budget",
                     help="max degree a candidate may use (default 5)")
    dsg.add_argument("--seeds", type=int, default=2,
                     help="instances per stochastic family (default 2)")
    dsg.add_argument("--sources", type=_positive_int, default=None,
                     help="betweenness source budget (default "
                          "REPRO_DESIGN_SOURCES or 64)")
    dsg.add_argument("--workers", type=_workers, default=None,
                     help="process-pool size (or 'auto'); default REPRO_WORKERS")
    _store_args(dsg, "persist evaluations under DIR")
    dsg.add_argument("--out", default=None, metavar="PATH",
                     help="write the canonical frontier JSON artifact to PATH")
    dsg.add_argument("--json", action="store_true", dest="as_json",
                     help="print the canonical JSON artifact instead of tables")
    dsg.add_argument("--plot", action="store_true",
                     help="ASCII scatter of the frontier (ASPL vs cable metres)")

    dia = sub.add_parser("diagram", help="draw a DSN's structure or a route")
    dia.add_argument("n", type=int)
    dia.add_argument("--route", type=lambda s: tuple(int(x) for x in s.split(",")),
                     default=None, metavar="S,T", help="draw the route S -> T")
    dia.add_argument("--max-nodes", type=int, default=40)

    return p


def _cmd_info(args) -> None:
    from repro.analysis import analyze
    from repro.experiments import make_topology
    from repro.layout import average_cable_length

    topo = make_topology(args.kind, args.n, seed=args.seed)
    m = analyze(topo)
    print(f"{topo.name}: n={m.n}, links={m.num_links}")
    print(f"  diameter            {m.diameter}")
    print(f"  avg shortest path   {m.aspl:.3f}")
    print(f"  degrees             {topo.degree_census()} (avg {m.average_degree:.2f})")
    print(f"  avg cable length    {average_cable_length(topo):.2f} m (cabinet floorplan)")
    if hasattr(topo, "p"):
        from repro.core import dsn_theory

        th = dsn_theory(topo.n, topo.x)
        print(f"  DSN parameters      p={topo.p}, r={topo.r}, x={topo.x}")
        print(f"  bounds              diameter <= {th.diameter_bound}, "
              f"routing <= {th.routing_diameter_bound}")


def _cmd_hop_sweep(args, which: str) -> None:
    from repro.experiments import fig7_diameter, fig8_aspl, format_hop_sweep

    fn = fig7_diameter if which == "fig7" else fig8_aspl
    title = "Figure 7: diameter (hops)" if which == "fig7" else "Figure 8: ASPL (hops)"
    print(format_hop_sweep(fn(sizes=args.sizes, seed=args.seed, workers=args.workers), title))


def _cmd_fig9(args) -> None:
    from repro.experiments import fig9_cable, format_cable_sweep

    print(format_cable_sweep(fig9_cable(sizes=args.sizes, seed=args.seed, workers=args.workers),
                             "Figure 9: average cable length (m)"))


def _cmd_fig10(args) -> None:
    from repro.experiments import fig10, format_curves
    from repro.sim import RouterConfig, SimConfig
    from repro.viz import ascii_plot

    kwargs = {} if args.full else dict(warmup_ns=4000, measure_ns=12000, drain_ns=24000)
    sim_engine = args.sim_engine
    if args.router is not None:
        kwargs["router"] = RouterConfig(mode=args.router)
        if args.router == "pipelined" and sim_engine != "flit":
            # The pipelined model exists only in the flit engine.
            sim_engine = "flit"
    config = SimConfig(**kwargs)
    curves = fig10(args.pattern, loads=args.loads, n=args.n, config=config, seed=args.seed,
                   workers=args.workers, sim_engine=sim_engine)
    print(format_curves(curves, f"Figure 10 ({args.pattern})"))
    if len(args.loads) > 1:
        print()
        print(ascii_plot(
            list(args.loads),
            {c.topology: c.latency() for c in curves},
            x_label="offered Gbit/s/host",
            y_label="avg latency ns",
        ))


def _cmd_sweep(args) -> None:
    import json

    from repro import store
    from repro.experiments import fig10, format_curves
    from repro.experiments.latency import DEFAULT_LOADS
    from repro.experiments.sweeps import PAPER_TRIO
    from repro.sim import SimConfig

    _apply_store_flags(args)
    config = SimConfig() if args.full else SimConfig(
        warmup_ns=4000, measure_ns=12000, drain_ns=24000
    )
    kinds = args.kinds or PAPER_TRIO
    loads = args.loads or DEFAULT_LOADS
    store.reset_store_stats()
    artifact_curves = []
    for pattern in args.patterns:
        curves = fig10(pattern, loads=loads, n=args.n, config=config,
                       seed=args.seed, kinds=kinds, workers=args.workers)
        print(format_curves(curves, f"sweep ({pattern})"))
        print()
        for c in curves:
            artifact_curves.append({
                "pattern": pattern,
                "topology": c.topology,
                "points": [store.encode_result(p) for p in c.points],
            })
    if args.out:
        payload = {
            "experiment": "sweep",
            "n": args.n,
            "seed": args.seed,
            "full": bool(args.full),
            "kinds": list(kinds),
            "patterns": list(args.patterns),
            "loads": list(loads),
            "curves": artifact_curves,
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    if args.store_stats:
        s = store.store_stats()
        print(f"store: {s.hits} hits ({s.memory_hits} memory, {s.disk_hits} disk), "
              f"{s.misses} misses, {s.stores} stores, "
              f"{s.inflight_dedup} deduped in flight, "
              f"{s.bytes_written}B written, {s.bytes_read}B read")


def _cmd_router_sweep(args) -> None:
    import json
    from dataclasses import asdict

    from repro.experiments import format_router_sweep, router_sweep
    from repro.sim import SimConfig

    _apply_store_flags(args)
    config = SimConfig() if args.full else SimConfig(
        warmup_ns=4000, measure_ns=12000, drain_ns=24000
    )
    rows = router_sweep(
        vcs=args.vcs, buffers=args.buffers, depths=args.depths,
        load=args.load, n=args.n, pattern_name=args.pattern,
        config=config, seed=args.seed, workers=args.workers,
    )
    print(format_router_sweep(rows))
    if args.out:
        payload = {
            "experiment": "router-sweep",
            "n": args.n,
            "seed": args.seed,
            "load": args.load,
            "pattern": args.pattern,
            "full": bool(args.full),
            "vcs": list(args.vcs),
            "buffers": list(args.buffers),
            "depths": list(args.depths),
            "rows": [asdict(r) for r in rows],
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")


def _cmd_theory(args) -> None:
    from repro.experiments import check_degrees, check_line_cable, check_routing

    deg = [check_degrees(n) for n in args.sizes]
    print(format_table(
        ["n", "x", "min_deg", "max_deg", "avg_deg", "deg5", "deg5_bound", "verdict"],
        [c.row() for c in deg],
        title="Fact 1: degrees",
    ))
    print()
    rt = [check_routing(n, sample_pairs=None if n <= 256 else 2000) for n in args.sizes]
    print(format_table(
        ["n", "x", "rt_diam", "<=3p+r", "diam", "<=2.5p+r",
         "E[route]", "<=2p", "E[short]", "<=1.5p", "verdict"],
        [c.row() for c in rt],
        title="Facts 2-3 / Theorem 2(a): path lengths",
    ))
    print()
    cable = [check_line_cable(n) for n in args.sizes]
    print(format_table(
        ["n", "p", "dsn_avg_sc", "bound", "dln22_avg_sc", "expect",
         "saving", "~p/3", "verdict"],
        [c.row() for c in cable],
        title="Theorem 2(b): line-layout cable",
    ))
    bad = [c for c in deg + rt + cable if not c.ok]
    if bad:
        print(f"\n{len(bad)} BOUND VIOLATIONS", file=sys.stderr)
        sys.exit(1)
    print("\nall bounds hold")


def _cmd_balance(args) -> None:
    from repro.experiments import compare_balance, format_balance

    print(format_balance(compare_balance(args.n)))


def _cmd_related(_args) -> None:
    from repro.experiments import (
        diameter_degree_table,
        dln_family_table,
        greedy_vs_dsn_routing,
    )

    print(diameter_degree_table())
    print()
    print(dln_family_table())
    print()
    rows = [greedy_vs_dsn_routing(side, samples=200).row() for side in (8, 16, 24)]
    print(format_table(
        ["n", "greedy_mean", "greedy_max", "dsn_mean", "dsn_max", "log2n"],
        rows,
        title="Kleinberg greedy (Theta(log^2 n)) vs DSN custom routing (O(log n))",
    ))


def _cmd_robustness(args) -> None:
    from repro.experiments import bisection_table, fault_table, rerouting_table

    table, _ = fault_table(n=args.n, trials=args.trials)
    print(table)
    print()
    table, _ = rerouting_table(n=args.n, trials=max(3, args.trials // 2))
    print(table)
    print()
    table, _ = bisection_table(n=args.n)
    print(table)


def _cmd_resilience(args) -> None:
    """``faults`` and ``percolation``: the same sweep, two artifacts."""
    from repro import faults

    _apply_store_flags(args)
    artifact, default = {
        "faults": (faults.degradation_artifact, faults.DEFAULT_FRACTIONS),
        "percolation": (faults.percolation_artifact, faults.DEFAULT_PERC_FRACTIONS),
    }[args.command]
    table, _ = artifact(
        args.out, n=args.n, fractions=args.fractions or default, trials=args.trials,
        seed=args.seed, kinds=args.kinds, workers=args.workers,
    )
    print(table)
    print(f"\nwrote {args.out}")


def _cmd_placement(args) -> None:
    from repro.experiments import placement_table

    table, _ = placement_table(n=args.n, iterations=args.iterations)
    print(table)


def _cmd_report(args) -> None:
    from repro.experiments.report import generate_report

    text = generate_report(include_sim=args.sim, full=args.full, seed=args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(text)} bytes)")
    else:
        print(text)


def _cmd_claims(_args) -> None:
    from repro.experiments.claims import check_claims, format_claims

    results = check_claims()
    print(format_claims(results))
    failed = [r for r in results if not r.ok]
    if failed:
        print(f"\n{len(failed)} claims FAILED", file=sys.stderr)
        sys.exit(1)
    print("\nall claims reproduced")


def _cmd_telemetry(args) -> None:
    import os

    from repro import telemetry
    from repro.telemetry import export

    if args.interval_ns is not None:
        os.environ["REPRO_TELEMETRY_INTERVAL_NS"] = str(args.interval_ns)
    # Set the env var too (not just the API) so spawn-mode pool workers
    # and any subprocesses the wrapped command launches inherit it.
    os.environ["REPRO_TELEMETRY"] = "1"
    telemetry.enable()
    inner = list(args.inner)
    if inner and inner[0] == "--":
        inner = inner[1:]
    if inner:
        if inner[0] == "telemetry":
            print("telemetry: cannot wrap itself", file=sys.stderr)
            sys.exit(2)
        _dispatch(inner)
    if args.jsonl:
        n = export.write_jsonl(args.jsonl)
        print(f"\nwrote {args.jsonl} ({n} telemetry records)")
    if args.prom:
        with open(args.prom, "w") as fh:
            fh.write(export.prometheus_text())
        print(f"\nwrote {args.prom}")
    if args.summary or not (args.jsonl or args.prom):
        print()
        print(export.summary_table())


def _cmd_serve(args) -> None:
    import os

    from repro.serve import ServeConfig, serve_forever

    if args.store_dir:
        # Env (not an API call) so pool workers inherit it.
        os.environ["REPRO_STORE_DIR"] = args.store_dir
    config = ServeConfig(
        host=args.host, port=args.port, fill_workers=args.fill_workers,
        queue_limit=args.queue_limit, fill_batch=args.fill_batch,
    )
    serve_forever(config)


def _cmd_loadtest(args) -> None:
    import contextlib
    import json
    import os

    from repro import serve

    if args.store_dir:
        os.environ["REPRO_STORE_DIR"] = args.store_dir
    candidates = serve.default_candidates(n=args.n)
    mix = serve.build_mix(candidates, args.requests, skew=args.skew, seed=args.seed)
    if args.populate:
        n_unique = serve.populate(mix)
        print(f"populated {n_unique} distinct queries")
    spawned = None
    if args.spawn:
        spawn_args = ["--host", args.host]
        if args.store_dir:
            spawn_args += ["--store-dir", args.store_dir]
        spawned = serve.spawn_daemon(spawn_args)
    with spawned if spawned is not None else contextlib.nullcontext():
        host = spawned.host if spawned else args.host
        port = spawned.port if spawned else args.port
        report = serve.run_loadtest(host, port, mix, concurrency=args.concurrency)
    print(report.summary())
    if spawned is not None:
        verdict = "clean" if spawned.clean_exit else "UNCLEAN"
        print(f"daemon shutdown on SIGTERM: {verdict} "
              f"(rc={spawned.proc.returncode})")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    failures = []
    if args.require_zero_errors and report.errors:
        failures.append(f"{report.errors} error(s)")
    if args.require_hit_rate is not None and report.warm_hit_rate < args.require_hit_rate:
        failures.append(f"warm hit rate {report.warm_hit_rate:.3f} "
                        f"< required {args.require_hit_rate:.3f}")
    if spawned is not None and not spawned.clean_exit:
        failures.append("daemon did not exit cleanly on SIGTERM")
    if failures:
        print("\nloadtest gate FAILED: " + "; ".join(failures), file=sys.stderr)
        sys.exit(1)


def _cmd_store(args) -> None:
    import os

    from repro import store
    from repro.store import shards

    d = args.store_dir or os.environ.get("REPRO_STORE_DIR", "").strip() or None
    if d is None:
        print("store: no directory (pass --store-dir or set REPRO_STORE_DIR)",
              file=sys.stderr)
        sys.exit(2)
    if args.action == "gc":
        if args.max_bytes is None:
            print("store gc: --max-bytes is required (e.g. --max-bytes 512M)",
                  file=sys.stderr)
            sys.exit(2)
        report = store.gc_store(d, max_bytes=args.max_bytes)
        print(report.summary())
        if not report.ok:
            for err in report.errors:
                print(f"  error: {err}", file=sys.stderr)
            sys.exit(1)
    else:  # info
        entries = sum(1 for _ in shards.iter_entry_paths(d))
        stranded = sum(1 for _ in shards.iter_stranded_paths(d))
        stale = sum(1 for _ in shards.iter_stale_locks(d))
        print(f"{d}: {entries} entries, {stranded} stranded, {stale} stale lock(s)")


def _cmd_design(args) -> None:
    from repro import design

    _apply_store_flags(args)
    if args.action == "explain" and not args.label:
        print("design explain: a candidate label is required "
              "(see 'design frontier' for the list)", file=sys.stderr)
        sys.exit(2)

    artifact = design.compute_frontier(
        args.n, degree_budget=args.budget, seeds=args.seeds,
        sources=args.sources, workers=args.workers,
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(design.frontier_text(artifact))
        print(f"wrote {args.out}")
    if args.as_json:
        sys.stdout.write(design.frontier_text(artifact))
        return
    if args.action == "frontier":
        print(design.format_frontier(artifact))
    elif args.action == "rank":
        print(design.format_rank(artifact))
    else:
        try:
            detail = design.explain_candidate(artifact, args.label)
        except KeyError as exc:
            print(f"design explain: {exc.args[0]}", file=sys.stderr)
            sys.exit(2)
        print(design.format_explain(detail))
    if args.plot:
        from repro.viz import ascii_plot

        front = sorted(
            ((ev["cable_total_m"], ev["aspl"])
             for ev in artifact["evaluations"] if ev["pareto"]),
        )
        print(ascii_plot(
            [x for x, _ in front],
            {"pareto aspl": [y for _, y in front]},
            x_label="cable metres",
            y_label="aspl",
        ))


def _cmd_diagram(args) -> None:
    from repro.core import DSNTopology, dsn_route
    from repro.viz import dsn_ring_diagram, route_diagram

    topo = DSNTopology(args.n)
    if args.route is not None:
        s, t = args.route
        print(route_diagram(topo, dsn_route(topo, s, t)))
    else:
        print(dsn_ring_diagram(topo, max_nodes=args.max_nodes))


def main(argv: list[str] | None = None) -> None:
    """Entry point; tolerates a closed stdout (e.g. ``| head``)."""
    try:
        _dispatch(argv)
    except BrokenPipeError:  # pragma: no cover - shell-pipe convenience
        import os

        # Reopen stdout on devnull so Python's shutdown flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)


def _dispatch(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "fig7": lambda a: _cmd_hop_sweep(a, "fig7"),
        "fig8": lambda a: _cmd_hop_sweep(a, "fig8"),
        "fig9": _cmd_fig9,
        "fig10": _cmd_fig10,
        "router-sweep": _cmd_router_sweep,
        "sweep": _cmd_sweep,
        "theory": _cmd_theory,
        "balance": _cmd_balance,
        "related": _cmd_related,
        "robustness": _cmd_robustness,
        "faults": _cmd_resilience,
        "percolation": _cmd_resilience,
        "placement": _cmd_placement,
        "report": _cmd_report,
        "diagram": _cmd_diagram,
        "claims": _cmd_claims,
        "telemetry": _cmd_telemetry,
        "serve": _cmd_serve,
        "loadtest": _cmd_loadtest,
        "store": _cmd_store,
        "design": _cmd_design,
    }
    handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    main()
