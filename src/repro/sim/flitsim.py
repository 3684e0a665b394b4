"""Flit-level simulator with one production run loop, the event-driven
core, and the linear cycle scan it replaced (kept as the bit-identical
reference oracle).

While :mod:`repro.sim.network` schedules whole-packet transfers (exact
for virtual cut-through with one-packet buffers), this simulator
advances the network in flit-time cycles and moves *individual flits*,
modeling:

* per-flit credit-based flow control with configurable buffer depth
  ``buffer_flits`` -- set it below the packet size to get **wormhole
  switching** (blocked packets stall stretched across switches, the
  mode Section V-A's deadlock discussion also covers), or at/above the
  packet size for **virtual cut-through**;
* a per-cycle crossbar constraint: one flit per output port per cycle,
  with round-robin switch allocation among competing inputs;
* a router pipeline of ``ceil(router_delay / flit_time)`` cycles per
  header and link pipelines of ``ceil(link_delay / flit_time)`` cycles
  -- or, in pipelined-router mode (a pipelined
  :class:`~repro.sim.router.RouterConfig` on the config), explicit
  RC/VA/SA/ST stages with least-recently-granted arbitration and
  per-VC input buffers (see :mod:`repro.sim.router`).

One cycle is one flit time (256 bits / 96 Gbps = 2.67 ns by default).

The per-cycle bookkeeping is batched: input units are dense integer
ids (injection units first, then switch units in canonical channel
order, so id order equals the canonical key order), credits live in
one numpy array indexed by unit id, credit returns are bucketed by due
cycle, and traffic generation scans all hosts with a single vectorized
comparison. Only units flagged busy (or hosts with queued packets) are
touched per cycle, always in ascending id order -- which makes runs
deterministic regardless of ``PYTHONHASHSEED``, unlike the former
dict-of-tuples structures. Round-robin crossbar arbitration semantics
are unchanged: one flit per output resource per cycle, pointer
advanced past the granted requester.

**Engines** (``engine=``): the ``cycle`` engine runs the linear
``while cycle < horizon`` scan, executing every phase every cycle. The
``event`` engine (default, and the only production loop) produces
byte-identical :class:`~repro.sim.metrics.SimResult`\\ s while visiting
only cycles that can change state: host arrivals, credit returns,
router-pipeline completions, fault activations, telemetry samples and
termination probes are heap events (:class:`~repro.sim.engine.
CycleEventQueue`), a *full tick* replays the exact cycle-engine phase
order at each wake, and the stretches between wakes -- where only
ACTIVE units stream payload flits -- run through a send-only burst
loop that proves an uncontended request set stable over a window and
moves it as one batch (see :meth:`FlitLevelSimulator._burst`). Cost
therefore scales with traffic, not simulated cycles. The pipelined
router runs on the same loop: its VA/SA stages act every cycle, so the
loop full-ticks every cycle while any unit is busy and jumps only
across an idle network (bursts stay ideal-router only). The cycle
engine remains the reference oracle the equivalence tests, the CI
smoke step and the ``event_engine_speedup`` timing gate diff against
(``engine="cycle"``). See ``docs/performance.md``.

**Dynamic fault injection** (``fault_schedule=``): links can die
mid-run. At each fault instant the engine discards every flit sitting
on (or committed to) a dead channel -- the owning packets are dropped
whole and counted -- cancels not-yet-used reservations into dead
channels, rebuilds the routing adapter on the survivor graph via
``adapter_factory`` (new topology fingerprint, so :mod:`repro.cache`
re-derives the CSR next-hop and up*/down* tables instead of serving
stale ones) and bumps a *reroute epoch*: every packet still in flight
re-resolves its routing state from its current switch at its next
routing decision. Recovery time (ns until the pre-fault in-flight
population has drained over the new tables) and post-fault accepted
traffic land in the :class:`~repro.sim.metrics.SimResult`. See
``docs/resilience.md`` for the exact semantics.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, insort
from collections import defaultdict, deque
from typing import Any, Callable

import numpy as np

from repro import telemetry
from repro.sim.adapters import RoutingAdapter
from repro.sim.arrivals import PoissonGaps
from repro.sim.config import SimConfig, resolve_flit_engine
from repro.sim.engine import CycleEventQueue
from repro.sim.metrics import FaultRecord, SimResult
from repro.sim.router.pipeline import PipelinedRouter
from repro.telemetry.samplers import SimSampler
from repro.topologies.base import Topology
from repro.traffic.patterns import TrafficPattern
from repro.util import make_rng

__all__ = ["FlitLevelSimulator"]


class _BusyUnits:
    """Busy-unit id set whose ascending order is maintained incrementally.

    Every cycle the run loops walk the busy units in ascending id order
    (the canonical port order the arbitration semantics are defined
    over). Rebuilding that order with ``sorted()`` per cycle was the
    single hottest line of the cycle engine; here membership is a set
    and order a bisect-maintained list, so a snapshot is a plain copy.
    """

    __slots__ = ("_set", "_list")

    def __init__(self) -> None:
        self._set: set[int] = set()
        self._list: list[int] = []

    def add(self, uid: int) -> None:
        if uid not in self._set:
            self._set.add(uid)
            insort(self._list, uid)

    def discard(self, uid: int) -> None:
        if uid in self._set:
            self._set.remove(uid)
            del self._list[bisect_left(self._list, uid)]

    def snapshot(self) -> list[int]:
        """Ascending ids, safe to iterate while units free/occupy."""
        return self._list.copy()

    def __bool__(self) -> bool:
        return bool(self._list)

    def __len__(self) -> int:
        return len(self._list)

    def __iter__(self):
        return iter(self._list)

    def __contains__(self, uid: int) -> bool:
        return uid in self._set


class _FlitPacket:
    """Packet bookkeeping for the flit engine."""

    __slots__ = (
        "pid",
        "src_host",
        "dst_host",
        "dst_switch",
        "size",
        "created_ns",
        "measured",
        "rstate",
        "hops",
        "repoch",
    )

    def __init__(self, pid, src_host, dst_host, dst_switch, size, created_ns, measured):
        self.pid = pid
        self.src_host = src_host
        self.dst_host = dst_host
        self.dst_switch = dst_switch
        self.size = size
        self.created_ns = created_ns
        self.measured = measured
        self.rstate: Any = None
        self.hops = 0
        self.repoch = 0  #: reroute epoch the rstate was derived under


#: input-unit states
_IDLE, _ROUTING, _WAIT_VC, _ACTIVE = range(4)

#: sentinel out_unit meaning "no output allocated"
_NO_OUT = None


class _InputUnit:
    """One (input port, VC) buffer of a switch: holds one packet's flits.

    ``queue`` entries are ``(arrival_cycle, flit_idx)``; a flit is
    usable once ``arrival_cycle <= now`` (link pipelining).
    ``out_unit`` is the downstream unit id, or ``-(host + 1)`` for
    ejection to ``host``.
    """

    __slots__ = (
        "queue",
        "state",
        "packet",
        "route_done_cycle",
        "sa_ready_cycle",
        "out_unit",
        "inject_left",
        "next_flit",
    )

    def __init__(self):
        self.queue: deque[tuple[int, int]] = deque()
        self.state = _IDLE
        self.packet: _FlitPacket | None = None
        self.route_done_cycle = 0
        self.sa_ready_cycle = 0  # pipelined router: cycle the VA grant clears
        self.out_unit: int | None = _NO_OUT
        self.inject_left = 0  # injection units: flits still to stream in
        self.next_flit = 0


class FlitLevelSimulator:
    """Synchronous flit-level simulation of one run.

    Parameters mirror :class:`repro.sim.network.NetworkSimulator`, plus
    ``buffer_flits``: input-buffer depth per VC in flits. ``None`` means
    one full packet (virtual cut-through); smaller values give wormhole
    behaviour.

    ``fault_schedule`` (a :class:`repro.faults.FaultSchedule`, or any
    object with the same ``events``/``validate`` surface) injects timed
    link failures; it requires ``adapter_factory``, a callable mapping
    a survivor :class:`Topology` to a fresh :class:`RoutingAdapter`
    (see :mod:`repro.faults.dynamic` for the standard factories). Only
    link faults are supported dynamically -- a schedule with dead
    switches is rejected, since hosts would vanish mid-run.

    ``tracer`` (a :class:`~repro.sim.trace.TraceRecorder`) receives
    packet inject/hop/deliver events through the same hook surface
    :class:`~repro.sim.network.NetworkSimulator` uses. When telemetry
    is enabled (``REPRO_TELEMETRY=1``) the engine also attaches a
    :class:`~repro.telemetry.samplers.SimSampler` that snapshots
    per-link flit utilization, per-VC queue occupancy and accepted-vs-
    offered load every ``REPRO_TELEMETRY_INTERVAL_NS`` of simulated
    time; the digest lands in ``SimResult.telemetry``.
    """

    #: When the network is completely idle (no busy units, no queued
    #: hosts) the *cycle* run loop jumps straight to the next event
    #: cycle instead of ticking one cycle at a time. Results are
    #: bit-identical (tests/test_sim_flit.py pins this); set to
    #: ``False`` on an instance to force the plain linear scan. The
    #: event engine subsumes this (it never visits provably-idle
    #: cycles), so the flag only affects ``engine="cycle"``.
    _fast_forward = True

    def __init__(
        self,
        topo: Topology,
        adapter: RoutingAdapter,
        pattern: TrafficPattern,
        offered_gbps: float,
        config: SimConfig | None = None,
        buffer_flits: int | None = None,
        fault_schedule=None,
        adapter_factory: Callable[[Topology], RoutingAdapter] | None = None,
        tracer=None,
        engine: str | None = None,
    ):
        self.topo = topo
        self.live_topo = topo  #: survivor graph after applied faults
        self.engine = resolve_flit_engine(engine)
        self.adapter = adapter
        self.adapter_factory = adapter_factory
        self.pattern = pattern
        self.offered_gbps = offered_gbps
        self.cfg = config or SimConfig()
        self.fault_schedule = fault_schedule
        if fault_schedule is not None and len(fault_schedule):
            if adapter_factory is None:
                raise ValueError(
                    "fault_schedule needs adapter_factory to rebuild routing "
                    "on the survivor graph (see repro.faults.dynamic)"
                )
            if any(e.faults.dead_switches for e in fault_schedule.events):
                raise ValueError("dynamic fault injection supports link faults only")
            fault_schedule.validate(topo)
        rcfg = self.cfg.router
        if buffer_flits is None and rcfg.pipelined and rcfg.vc_buffer_flits is not None:
            buffer_flits = rcfg.vc_buffer_flits
        self.buffer_flits = buffer_flits if buffer_flits is not None else self.cfg.packet_flits
        if self.buffer_flits < 1:
            raise ValueError("buffer_flits must be >= 1")
        min_vcs = getattr(adapter, "min_vcs", 1)
        if self.cfg.num_vcs < min_vcs:
            raise ValueError(
                f"{type(adapter).__name__} needs at least {min_vcs} virtual channels "
                f"(its channel-class discipline), got num_vcs={self.cfg.num_vcs}"
            )
        if pattern.num_hosts != topo.n * self.cfg.hosts_per_switch:
            raise ValueError("traffic pattern size does not match the network")
        self.num_hosts = pattern.num_hosts
        self.rng = make_rng(self.cfg.seed)

        self._flit_ns = self.cfg.flit_time_ns  # hot-path cache of the property
        self.router_cycles = max(1, math.ceil(self.cfg.router_delay_ns / self._flit_ns))
        self.link_cycles = max(1, math.ceil(self.cfg.link_delay_ns / self._flit_ns))
        # Pipelined router mode: header processing becomes the staged
        # RC/VA/SA/ST model, so the lumped per-hop pipeline above
        # shrinks to the RC stage alone (VA/SA/ST are simulated cycle
        # by cycle by the PipelinedRouter, see repro.sim.router).
        self._router: PipelinedRouter | None = None
        if rcfg.pipelined:
            self.router_cycles = rcfg.rc_cycles
            self._router = PipelinedRouter(self, rcfg)

        v = self.cfg.num_vcs
        # Dense unit ids: injection units (host-major, VC-minor) first,
        # then switch units in sorted directed-channel order, VC-minor.
        # The unit at switch b fed by the channel a -> b for VC k has id
        # inj_units + chan_index(a, b) * v + k.
        self._v = v
        self._inj_units = self.num_hosts * v
        channels = []
        for link in topo.links:
            channels.append((link.u, link.v))
            channels.append((link.v, link.u))
        channels.sort()
        self._chan_base = {
            ch: self._inj_units + i * v for i, ch in enumerate(channels)
        }
        num_units = self._inj_units + len(channels) * v
        self.units: list[_InputUnit] = [_InputUnit() for _ in range(num_units)]
        # Switch each unit routes at (injection units sit at the host's
        # switch; a channel unit sits at the channel's head switch).
        unit_switch = [0] * num_units
        for h in range(self.num_hosts):
            for vc in range(v):
                unit_switch[h * v + vc] = self.switch_of(h)
        for (a, b), base in self._chan_base.items():
            for vc in range(v):
                unit_switch[base + vc] = b
        self._unit_switch = unit_switch

        # Free downstream buffer slots, tracked at the sender side, and
        # credit returns bucketed by the cycle they come due. Plain int
        # lists: per-flit single-element updates dominate, where list
        # indexing beats numpy scalar round-trips severalfold.
        self.credits: list[int] = [self.buffer_flits] * num_units
        # Pending upstream credit returns, run-length encoded as
        # (first_due_cycle, count, uid): one credit per cycle at
        # first_due .. first_due+count-1. Entries are appended in
        # simulated-time order (send cycles are visited monotonically
        # and the return delay is the constant link latency), so the
        # deque is always sorted by first_due and the earliest pending
        # return is O(1) at the head; a batched stream of N flits is one
        # entry instead of N. Runs from the same batch share a span --
        # _return_credits drains *all* due heads before re-prepending
        # partial remainders so none gets stuck behind another.
        self._credit_due: deque[tuple[int, int, int]] = deque()

        # Output resources for crossbar arbitration: one per ejection
        # host (ids 0..H-1), one per directed channel (H..H+C-1).
        self._rr: list[int] = [0] * (self.num_hosts + len(channels))

        self._busy = _BusyUnits()  # units that may need per-cycle work
        self._headers: set[int] = set()  # units in ROUTING / WAIT_VC state
        self._pending_hosts: set[int] = set()  # hosts with queued packets

        # Injection-side batching (VCT only): a claimed packet's whole
        # flit stream is enqueued up front with per-cycle arrival
        # stamps, and the host is gated off re-claiming until the cycle
        # the one-flit-per-cycle stream would have finished -- the state
        # any observer sees is identical to streaming one flit per
        # cycle. Disabled under wormhole (queue capacity can bind) and
        # under faults (partial-stream drop accounting reads the
        # incremental fields).
        self._host_free_cycle: list[int] = [0] * self.num_hosts
        self._bulk_inject = (
            self.buffer_flits >= self.cfg.packet_flits
            and not (fault_schedule is not None and len(fault_schedule))
        )

        # Fault machinery: events keyed by due cycle, a reroute epoch
        # stamped on packets, and per-event recovery trackers.
        self._reroute_epoch = 0
        self._fault_queue: list[tuple[int, object]] = []
        if fault_schedule is not None:
            self._fault_queue = [
                (math.ceil(e.time_ns / self.cfg.flit_time_ns), e.faults)
                for e in fault_schedule.events
            ]
        self._recovering: list[tuple[FaultRecord, set[int]]] = []
        self._ff_cycles_skipped = 0  #: idle cycles skipped outright
        self._ev_full_cycles = 0  #: event engine: cycles fully ticked
        self._ev_micro_cycles = 0  #: event engine: cycles in send bursts
        self._faults_left = len(self._fault_queue)
        self._last_fault_ns: float | None = None

        #: route-done wake heap of the event engine (None under the
        #: cycle engine, so the shared send/inject paths skip the push).
        self._wakes: CycleEventQueue | None = None

        self.host_queue: list[deque[_FlitPacket]] = [deque() for _ in range(self.num_hosts)]
        self._next_arrival = np.zeros(self.num_hosts)
        self._arr_min_ns = 0.0  #: min(_next_arrival), kept by _generate_traffic
        self._arr_cycle: float | None = None  #: _arrival_cycle() memo
        self._arrivals: PoissonGaps | None = None  # built on first use (needs rate > 0)
        self._next_pid = 0

        # Telemetry: a per-packet-event tracer (same hook surface as
        # NetworkSimulator's) and, when telemetry is enabled, a periodic
        # sampler fed from cumulative per-channel flit counts. With
        # telemetry off both stay None and the only per-cycle cost is
        # one ``is not None`` check in :meth:`run`.
        self._tracer = tracer
        self._sampler: SimSampler | None = None
        self._chan_flits: np.ndarray | None = None
        self._delivered_bits_total = 0.0
        self._sample_cycles = 0
        self._next_sample_cycle = 0
        if telemetry.enabled():
            self._sampler = SimSampler(
                channels,
                num_hosts=self.num_hosts,
                flit_time_ns=self.cfg.flit_time_ns,
                engine="flit",
            )
            self._chan_flits = np.zeros(len(channels), dtype=np.int64)
            self._sample_cycles = max(
                1, math.ceil(self._sampler.interval_ns / self.cfg.flit_time_ns)
            )
            self._next_sample_cycle = self._sample_cycles

        self._measure_start = self.cfg.warmup_ns
        self._measure_end = self.cfg.warmup_ns + self.cfg.measure_ns
        self._result = SimResult(
            topology=topo.name,
            pattern=pattern.name,
            offered_gbps=offered_gbps,
            num_hosts=self.num_hosts,
            measure_window_ns=self.cfg.measure_ns,
        )

    # ------------------------------------------------------------------
    def switch_of(self, host: int) -> int:
        return host // self.cfg.hosts_per_switch

    def _time_ns(self, cycle: int) -> float:
        return cycle * self._flit_ns

    def _resource_of(self, out_unit: int) -> int:
        """Arbitration resource of a downstream unit: its channel."""
        return self.num_hosts + (out_unit - self._inj_units) // self._v

    def _arrival_gaps(self) -> PoissonGaps:
        """Per-host batched Exp(1/rate) gap streams (built lazily so a
        zero offered load still fails at draw time, as before)."""
        if self._arrivals is None:
            rate = self.cfg.packets_per_ns(self.offered_gbps)
            self._arrivals = PoissonGaps(self.cfg.seed, self.num_hosts, 1.0 / rate)
        return self._arrivals

    # ------------------------------------------------------------------
    # per-cycle phases
    # ------------------------------------------------------------------
    def _generate_traffic(self, now: int) -> None:
        t_ns = self._time_ns(now)
        due = np.flatnonzero(self._next_arrival <= t_ns)
        if due.size == 0:
            return
        self._arr_min_ns = math.inf  # recomputed after the draws below
        gaps = self._arrival_gaps()
        for h in due.tolist():
            while self._next_arrival[h] <= t_ns:
                created = float(self._next_arrival[h])
                if created >= self._measure_end:
                    # Sources switch off when the measurement window
                    # closes: the drain phase flushes the backlog only.
                    # With deadlock-free routing the in-flight population
                    # is then finite, so full delivery is guaranteed for
                    # a long enough drain (see tests/test_fuzz_sim.py).
                    self._next_arrival[h] = math.inf
                    break
                dst = self.pattern.destination(h, self.rng)
                measured = self._measure_start <= created < self._measure_end
                pkt = _FlitPacket(
                    self._next_pid, h, dst, self.switch_of(dst),
                    self.cfg.packet_flits, created, measured,
                )
                self._next_pid += 1
                if measured:
                    self._result.generated_measured += 1
                self.host_queue[h].append(pkt)
                self._pending_hosts.add(h)
                self._next_arrival[h] += gaps.next(h)
        self._arr_min_ns = float(np.min(self._next_arrival))
        self._arr_cycle = None

    def _inject(self, now: int) -> None:
        """Stream source-queue packets into injection units, one flit
        per host per cycle (the injection link's bandwidth).

        With ``_bulk_inject`` (VCT, no faults) a claimed packet's whole
        stream is enqueued at once with arrival stamps ``now + k`` --
        exactly the cycles the per-cycle loop would have appended them,
        since with ``buffer_flits >= size`` the queue-capacity check can
        never stall the stream. Every queue read is stamp-gated, so the
        observable evolution is bit-identical; the host is gated off
        claiming its next packet before ``now + size``, the cycle the
        incremental stream would have freed the injection link.
        """
        v = self._v
        bulk = self._bulk_inject
        for h in sorted(self._pending_hosts):
            if bulk and now < self._host_free_cycle[h]:
                continue
            queue = self.host_queue[h]
            pkt = queue[0]
            uid = None
            # Continue streaming into the unit already carrying pkt, or
            # claim the first idle injection VC for a fresh head.
            for vc in range(v):
                i = h * v + vc
                u = self.units[i]
                if u.packet is pkt:
                    uid = i
                    break
                if uid is None and u.packet is None and not u.queue:
                    uid = i
            if uid is None:
                continue
            u = self.units[uid]
            if u.packet is not pkt:
                u.packet = pkt
                u.state = _ROUTING
                u.route_done_cycle = now + self.router_cycles
                u.inject_left = pkt.size
                u.next_flit = 0
                pkt.rstate = self.adapter.initial_state(self.switch_of(h), pkt.dst_switch)
                self._busy.add(uid)
                self._headers.add(uid)
                if self._wakes is not None:
                    self._wakes.wake(u.route_done_cycle)
                if self._tracer is not None:
                    self._tracer.on_inject(
                        self._time_ns(now), pkt.pid, self.switch_of(h), pkt.dst_switch
                    )
            if bulk:
                u.queue.extend((now + k, k) for k in range(pkt.size))
                u.next_flit = pkt.size
                u.inject_left = 0
                self._host_free_cycle[h] = now + pkt.size
                queue.popleft()
                if not queue:
                    self._pending_hosts.discard(h)
            elif u.inject_left > 0 and len(u.queue) < self.buffer_flits:
                u.queue.append((now, u.next_flit))
                u.next_flit += 1
                u.inject_left -= 1
                if u.inject_left == 0:
                    queue.popleft()
                    if not queue:
                        self._pending_hosts.discard(h)

    def _route_and_allocate(self, header_sorted: list[int], now: int) -> bool:
        """Router pipeline + VC allocation for units holding a header
        (``header_sorted``: the ROUTING / WAIT_VC units in ascending
        unit order -- the same subsequence, in the same order, that the
        old full-busy scan acted on).

        Returns whether any unit is left waiting for a VC -- such a
        unit re-runs allocation (and the adapter's RNG draws) every
        cycle, so the event loop must keep ticking while one exists.

        In pipelined-router mode this phase is the router's VA stage
        (LRG-arbitrated, cycle-start bids) instead of the greedy
        first-fit scan below.
        """
        if self._router is not None:
            return self._router.va_tick(header_sorted, now)
        waiting = False
        credits = self.credits
        units = self.units
        headers = self._headers
        for uid in header_sorted:
            u = units[uid]
            if u.state == _ROUTING and now >= u.route_done_cycle:
                u.state = _WAIT_VC
            if u.state != _WAIT_VC:
                continue
            pkt = u.packet
            at_switch = self._unit_switch[uid]
            if pkt.repoch != self._reroute_epoch:
                # A fault rebuilt the tables since this packet's routing
                # state was derived: re-resolve from the current switch
                # (for source-routed adapters this recomputes the whole
                # remaining path on the survivor graph).
                pkt.rstate = self.adapter.initial_state(at_switch, pkt.dst_switch)
                pkt.repoch = self._reroute_epoch
            if at_switch == pkt.dst_switch:
                u.out_unit = -(pkt.dst_host + 1)
                u.state = _ACTIVE
                headers.discard(uid)
                continue
            # VCT requires room for the whole packet downstream before
            # the head advances; wormhole advances on any free slot.
            need = pkt.size if self.buffer_flits >= pkt.size else 1
            for opt in self.adapter.options(at_switch, pkt.dst_switch, pkt.rstate):
                base = self._chan_base[(at_switch, opt.next_node)]
                for vc in opt.vc_indices:
                    tid = base + vc
                    tu = units[tid]
                    if tu.packet is None and not tu.queue and credits[tid] >= need:
                        tu.packet = pkt  # reserve the downstream VC
                        u.out_unit = tid
                        u.state = _ACTIVE
                        pkt.rstate = opt.new_rstate
                        pkt.hops += 1
                        if self._tracer is not None:
                            self._tracer.on_hop(
                                self._time_ns(now), pkt.pid, at_switch, opt.next_node, vc
                            )
                        break
                else:
                    continue
                break
            if u.state == _WAIT_VC:
                waiting = True
            else:
                headers.discard(uid)
        return waiting

    def _switch_allocation(self, busy_sorted: list[int], now: int) -> int:
        """One flit per output resource per cycle, round-robin arbiter.

        Requests are gathered in ascending unit-id order (the canonical
        port order), so each resource's request list is already sorted
        and the round-robin pointer walks it exactly as before. Returns
        the number of resources with at least one request (== flits
        sent this cycle). In pipelined-router mode this phase is the
        router's SA/ST stages (LRG-arbitrated, VA-latency gated).
        """
        if self._router is not None:
            return self._router.sa_tick(busy_sorted, now)
        requests: dict[int, list[int]] = {}
        credits = self.credits
        for uid in busy_sorted:
            u = self.units[uid]
            if u.state != _ACTIVE or not u.queue:
                continue
            if u.queue[0][0] > now:
                continue
            out = u.out_unit
            if out < 0:
                res = -out - 1  # ejection to host
            else:
                if credits[out] <= 0:
                    continue
                res = self._resource_of(out)  # physical channel
            requests.setdefault(res, []).append(uid)

        rr = self._rr
        for res, reqs in requests.items():
            ptr = rr[res] % len(reqs)
            rr[res] = ptr + 1
            self._send_flit(reqs[ptr], now)
        return len(requests)

    def _send_flit(self, uid: int, now: int) -> None:
        u = self.units[uid]
        _, flit_idx = u.queue.popleft()
        pkt = u.packet
        out = u.out_unit
        is_tail = flit_idx == pkt.size - 1

        # Return the freed buffer slot's credit upstream (after the
        # reverse-link latency). Injection units backpressure the source
        # directly through their queue capacity instead.
        if uid >= self._inj_units:
            self._credit_due.append((now + self.link_cycles, 1, uid))

        if out < 0:
            if is_tail:
                self._deliver(pkt, now + self.link_cycles)
        else:
            self.credits[out] -= 1
            if self._chan_flits is not None:
                self._chan_flits[(out - self._inj_units) // self._v] += 1
            tu = self.units[out]
            tu.queue.append((now + self.link_cycles, flit_idx))
            self._busy.add(out)
            if flit_idx == 0:
                tu.state = _ROUTING
                tu.route_done_cycle = now + self.link_cycles + self.router_cycles
                self._headers.add(out)
                if self._wakes is not None:
                    self._wakes.wake(tu.route_done_cycle)

        if is_tail:
            # Packet fully left this unit; free it for the next one.
            u.state = _IDLE
            u.packet = None
            u.out_unit = _NO_OUT
            if not u.queue:
                self._busy.discard(uid)

    def _stream_flits(self, uid: int, t: int, length: int) -> None:
        """Send ``length`` consecutive flits from ``uid`` at cycles
        ``t .. t+length-1``: the batched equivalent of that many
        uncontended :meth:`_send_flit` grants, with identical per-cycle
        timestamps on downstream arrivals and delivery. The caller
        (:meth:`_burst`) has proven the unit wins its resource on every
        one of those cycles, and schedules the upstream credit returns
        itself (interleaved across the batch's streams in per-cycle
        order)."""
        u = self.units[uid]
        q = u.queue
        pkt = u.packet
        out = u.out_unit
        base = t + self.link_cycles
        # Flit indices in a unit queue are consecutive, so the run is
        # f0..f0+length-1: at most one head (first) and one tail (last).
        f0 = q[0][1]
        has_tail = f0 + length == pkt.size
        whole = length == len(q)
        pop = q.popleft
        if out < 0:
            if whole:
                q.clear()
            else:
                for _ in range(length):
                    pop()
            if has_tail:
                self._deliver(pkt, base + length - 1)
        else:
            self.credits[out] -= length
            if self._chan_flits is not None:
                self._chan_flits[(out - self._inj_units) // self._v] += length
            tu = self.units[out]
            tu.queue.extend(zip(range(base, base + length), range(f0, f0 + length)))
            self._busy.add(out)
            if f0 == 0:
                tu.state = _ROUTING
                tu.route_done_cycle = base + self.router_cycles
                self._headers.add(out)
                self._wakes.wake(tu.route_done_cycle)
            if whole:
                q.clear()
            else:
                for _ in range(length):
                    pop()
        if has_tail:
            u.state = _IDLE
            u.packet = None
            u.out_unit = _NO_OUT
            if not q:
                self._busy.discard(uid)

    def _deliver(self, pkt: _FlitPacket, cycle: int) -> None:
        t_ns = self._time_ns(cycle)
        if self._tracer is not None:
            self._tracer.on_deliver(t_ns, pkt.pid, pkt.dst_host)
        if self._sampler is not None:
            self._delivered_bits_total += pkt.size * self.cfg.flit_bits
        if self._measure_start <= t_ns < self._measure_end:
            self._result.delivered_in_window_bits += pkt.size * self.cfg.flit_bits
            self._result.delivered_in_window_count += 1
            if (
                self._last_fault_ns is not None
                and self._faults_left == 0  # only past the *final* event
                and t_ns >= self._last_fault_ns
            ):
                self._result.post_fault_bits += pkt.size * self.cfg.flit_bits
        if pkt.measured:
            self._result.delivered_measured += 1
            self._result.latencies_ns.append(t_ns - pkt.created_ns)
            self._result.hop_counts.append(pkt.hops)
        if self._recovering:
            self._note_done(pkt.pid, t_ns)

    def _note_done(self, pid: int, t_ns: float) -> None:
        """A tracked packet left the network (delivered or dropped);
        close any fault event whose in-flight set it empties."""
        for record, pids in self._recovering:
            pids.discard(pid)
            if not pids and math.isnan(record.recovery_ns):
                record.recovery_ns = t_ns - record.time_ns
        self._recovering = [(r, p) for r, p in self._recovering if p]

    def _return_credits(self, now: int) -> None:
        """Apply every credit due at or before ``now``. Runs straddling
        ``now`` are applied partially and their remainders re-prepended
        (all with first_due ``now + 1``, which every surviving entry is
        at or past, so the deque stays sorted)."""
        dq = self._credit_due
        if dq and dq[0][0] <= now:
            credits = self.credits
            popleft = dq.popleft
            rem = None
            while dq and dq[0][0] <= now:
                start, count, uid = popleft()
                k = now + 1 - start
                if k >= count:
                    credits[uid] += count
                else:
                    credits[uid] += k
                    if rem is None:
                        rem = [(now + 1, count - k, uid)]
                    else:
                        rem.append((now + 1, count - k, uid))
            if rem is not None:
                dq.extendleft(reversed(rem))

    # ------------------------------------------------------------------
    # dynamic fault injection
    # ------------------------------------------------------------------
    def _clear_unit(self, uid: int) -> int:
        """Discard a unit's buffered flits and free it; returns the
        number of flits discarded. Freed slots are credited back to the
        unit immediately (the upstream sender decremented them when it
        sent) -- injection units backpressure via queue length instead,
        so their credits are untouched."""
        u = self.units[uid]
        dropped = len(u.queue)
        if dropped and uid >= self._inj_units:
            self.credits[uid] += dropped
        u.queue.clear()
        u.state = _IDLE
        u.packet = None
        u.out_unit = _NO_OUT
        u.inject_left = 0
        u.next_flit = 0
        u.sa_ready_cycle = 0
        self._busy.discard(uid)
        self._headers.discard(uid)
        return dropped

    def _apply_fault(self, faults, now: int) -> None:
        """Kill the links of one fault event at cycle ``now``.

        Semantics (see docs/resilience.md):

        * every packet with a flit buffered in -- or already forwarded
          through the head of -- a dead channel is dropped whole: its
          flits everywhere in the network are discarded and counted;
        * a packet that merely *reserved* a dead channel (no flit
          crossed yet) is not dropped: the reservation is cancelled and
          the packet re-routes at its current switch;
        * the routing adapter is rebuilt on the survivor graph, and the
          reroute epoch bump makes every in-flight packet re-derive its
          routing state from its current switch at its next decision.
        """
        self._faults_left -= 1
        dead_pairs = faults.dead_link_set(self.live_topo)
        v = self._v
        dead_units: set[int] = set()
        for a, b in dead_pairs:
            for ch in ((a, b), (b, a)):
                base = self._chan_base[ch]
                dead_units.update(range(base, base + v))

        # Packets with at least one flit on a dead channel die whole;
        # pure reservations (idle unit, empty queue) are cancelled.
        dropped_pkts: set = set()
        for tid in dead_units:
            tu = self.units[tid]
            if tu.packet is not None and (tu.queue or tu.state != _IDLE):
                dropped_pkts.add(tu.packet)

        flits_dropped = 0
        for uid, u in enumerate(self.units):
            pkt = u.packet
            if pkt is None:
                if uid in dead_units:
                    flits_dropped += self._clear_unit(uid)
                continue
            if pkt in dropped_pkts:
                if uid < self._inj_units and u.inject_left > 0:
                    # The tail never left the source; drop it from the
                    # host queue too (partial packets are useless).
                    h = uid // v
                    queue = self.host_queue[h]
                    if queue and queue[0] is pkt:
                        queue.popleft()
                        if not queue:
                            self._pending_hosts.discard(h)
                flits_dropped += self._clear_unit(uid)
            elif uid in dead_units:
                # Reserved by a surviving packet but unused: just free it.
                flits_dropped += self._clear_unit(uid)
            elif u.out_unit is not None and u.out_unit >= 0 and u.out_unit in dead_units:
                # Allocation into a dead channel with no flit across it
                # yet: cancel and re-route at this switch (undoing the
                # hop counted when the reservation was made).
                u.out_unit = _NO_OUT
                u.state = _WAIT_VC
                self._headers.add(uid)
                pkt.hops -= 1

        t_ns = self._time_ns(now)
        for pkt in dropped_pkts:
            self._result.packets_dropped += 1
            if pkt.measured:
                self._result.dropped_measured += 1
            if self._recovering:
                self._note_done(pkt.pid, t_ns)
        self._result.flits_dropped += flits_dropped

        # Rebuild routing on the survivor graph. The survivor is a new
        # Topology with a new fingerprint, so repro.cache derives fresh
        # CSR next-hop / up*/down* tables instead of serving the intact
        # network's.
        self.live_topo = faults.apply(self.live_topo)
        t0 = time.perf_counter()
        self.adapter = self.adapter_factory(self.live_topo)
        reroute_wall = time.perf_counter() - t0
        self._reroute_epoch += 1

        survivors = {
            u.packet.pid for u in self.units if u.packet is not None
        }
        record = FaultRecord(
            time_ns=t_ns,
            links_failed=len(dead_pairs),
            packets_dropped=len(dropped_pkts),
            flits_dropped=flits_dropped,
            in_flight_at_fault=len(survivors),
            reroute_wall_s=reroute_wall,
        )
        if survivors:
            self._recovering.append((record, survivors))
        else:
            record.recovery_ns = 0.0
        self._result.fault_records.append(record)
        self._last_fault_ns = t_ns
        if self._sampler is not None:
            self._sampler.on_fault(t_ns, len(dead_pairs))
        telemetry.count("faults.events")
        telemetry.count("faults.packets_dropped", len(dropped_pkts))
        telemetry.count("faults.flits_dropped", flits_dropped)
        telemetry.observe("faults.reroute_s", reroute_wall)

    def _arrival_cycle(self) -> float:
        """Smallest cycle ``c`` with ``c * flit_time >= min(_next_arrival)``,
        matching the exact float comparison :meth:`_generate_traffic`
        performs per cycle; ``inf`` once every source has switched off."""
        c = self._arr_cycle
        if c is None:
            arr = self._arr_min_ns
            if not math.isfinite(arr):
                c = math.inf
            else:
                ft = self._flit_ns
                c = int(arr // ft)
                while c * ft < arr:
                    c += 1
            self._arr_cycle = c
        return c

    def _idle_next_event(self, cycle: int, faults_pending, horizon: int) -> int:
        """Earliest future cycle at which a completely idle network
        (``_busy`` and ``_pending_hosts`` both empty) can do anything.

        An idle tick touches no simulation state, so the run loop may
        jump straight to the next of: a pending fault, a due credit
        return, a telemetry sample, the first cycle whose time reaches
        the earliest host arrival, or -- once the drain is complete --
        the multiple-of-512 cycle where the termination check fires.
        Jumping *to* (never past) each of these reproduces the linear
        scan bit for bit: every cycle skipped is one where the original
        loop ran all phases as no-ops.
        """
        nxt = horizon
        if faults_pending:
            nxt = min(nxt, faults_pending[0][0])
        if self._credit_due:
            nxt = min(nxt, self._credit_due[0][0])
        if self._sampler is not None:
            nxt = min(nxt, self._next_sample_cycle)
        nxt = min(nxt, self._arrival_cycle())
        if (
            not faults_pending
            and self._result.delivered_measured + self._result.dropped_measured
            >= self._result.generated_measured
        ):
            # Next multiple-of-512 cycle past the measurement window:
            # the termination check would break there if nothing else
            # (an arrival, a fault) intervenes -- and if something does,
            # the min above lands us on it first.
            brk = (cycle // 512 + 1) * 512
            if brk < self._probe0:
                brk = self._probe0
            nxt = min(nxt, brk)
        return int(nxt)

    # ------------------------------------------------------------------
    def run(self) -> SimResult:
        horizon_ns = self._measure_end + self.cfg.drain_ns
        horizon = math.ceil(horizon_ns / self.cfg.flit_time_ns)
        # First multiple-of-512 cycle strictly past the measurement
        # window: the earliest candidate termination-probe cycle.
        probe = 512
        while probe * self._flit_ns <= self._measure_end:
            probe += 512
        self._probe0 = probe
        gaps = self._arrival_gaps()
        for h in range(self.num_hosts):
            self._next_arrival[h] = gaps.next(h)
        self._arr_min_ns = float(np.min(self._next_arrival))
        self._arr_cycle = None

        if self.engine == "event":
            self._run_event(horizon)
        else:
            self._run_cycle(horizon)

        if self._router is not None:
            self._router.flush_telemetry()
        if self._last_fault_ns is not None:
            window = self._measure_end - max(self._last_fault_ns, self._measure_start)
            self._result.post_fault_window_ns = max(0.0, window)
        if self._ff_cycles_skipped:
            telemetry.count("flit.fast_forward_cycles", self._ff_cycles_skipped)
        if self._ev_full_cycles:
            telemetry.count("flit.event_full_cycles", self._ev_full_cycles)
            telemetry.count("flit.event_micro_cycles", self._ev_micro_cycles)
        if self._sampler is not None:
            self._result.telemetry = self._sampler.finalize("sim.flit")
            self._result.telemetry["samples"] = self._sampler.records()
        return self._result

    def _run_cycle(self, horizon: int) -> None:
        """The linear reference scan: visit every cycle (modulo the
        whole-network-idle fast-forward) and run all phases."""
        faults_pending = deque(sorted(self._fault_queue, key=lambda f: f[0]))
        cycle = 0
        while cycle < horizon:
            while faults_pending and faults_pending[0][0] <= cycle:
                self._apply_fault(faults_pending.popleft()[1], cycle)
            self._return_credits(cycle)
            self._generate_traffic(cycle)
            if self._pending_hosts:
                self._inject(cycle)
            if self._headers:
                self._route_and_allocate(sorted(self._headers), cycle)
            if self._busy:
                self._switch_allocation(self._busy.snapshot(), cycle)
            if self._sampler is not None and cycle >= self._next_sample_cycle:
                self._take_sample(cycle)
                self._next_sample_cycle += self._sample_cycles
            if (
                cycle % 512 == 0
                and not faults_pending
                and self._time_ns(cycle) > self._measure_end
                and self._result.delivered_measured + self._result.dropped_measured
                >= self._result.generated_measured
            ):
                break
            if self._fast_forward and not self._busy and not self._pending_hosts:
                nxt = max(cycle + 1, self._idle_next_event(cycle, faults_pending, horizon))
                self._ff_cycles_skipped += nxt - cycle - 1
                cycle = nxt
            else:
                cycle += 1

    # ------------------------------------------------------------------
    # event-driven core
    # ------------------------------------------------------------------
    def _run_event(self, horizon: int) -> None:
        """Event-driven run loop: cost scales with traffic, not cycles.

        The loop alternates two regimes, both bit-identical to the
        linear scan by construction:

        * **full ticks** run every phase exactly as :meth:`_run_cycle`
          does. A full tick is scheduled for every cycle on which
          anything other than an ACTIVE-unit flit send can happen: host
          arrivals (exact-cycle conversion of the next Poisson arrival),
          pending-host injection, router-pipeline completions (wake
          events pushed when a head enters a router), fault
          activations (payload events), telemetry samples, and the
          multiple-of-512 termination probe. While any unit waits for a
          VC the loop ticks every cycle -- a failed allocation re-runs
          the adapter (and its RNG draws) per cycle, which must be
          reproduced exactly. In pipelined-router mode it ticks every
          cycle while any unit is busy (the staged VA/SA arbiters act
          every cycle), the same condition the cycle scan's
          fast-forward uses.
        * **send bursts** (:meth:`_burst`, ideal router only) cover
          the windows between full ticks, where provably the only
          possible state changes are credit returns and ACTIVE units
          moving flits -- the route/inject/generate phases are no-ops
          there by the scheduling argument above, so the burst runs
          only the credit and switch-allocation work of each cycle,
          skipping cycles where no flit is usable.
        """
        wakes = CycleEventQueue()
        self._wakes = wakes
        for due, faults in sorted(self._fault_queue, key=lambda f: f[0]):
            wakes.schedule(due, faults)

        measure_end = self._measure_end
        result = self._result
        pipelined = self._router is not None
        cycle = 0
        while cycle < horizon:
            # ---- one full tick: phase order identical to _run_cycle --
            self._ev_full_cycles += 1
            if wakes.payloads_pending:
                for faults in wakes.pop_due(cycle):
                    self._apply_fault(faults, cycle)
            self._return_credits(cycle)
            t_ns = self._time_ns(cycle)
            if self._arr_min_ns <= t_ns:
                self._generate_traffic(cycle)
            if self._pending_hosts:
                self._inject(cycle)
            waiting = False
            if self._headers:
                waiting = self._route_and_allocate(sorted(self._headers), cycle)
            if self._busy:
                self._switch_allocation(self._busy.snapshot(), cycle)
            if self._sampler is not None and cycle >= self._next_sample_cycle:
                self._take_sample(cycle)
                self._next_sample_cycle += self._sample_cycles
            if (
                cycle % 512 == 0
                and not wakes.payloads_pending
                and t_ns > measure_end
                and result.delivered_measured + result.dropped_measured
                >= result.generated_measured
            ):
                break

            # ---- schedule the next full tick -------------------------
            if self._pending_hosts or waiting or (pipelined and self._busy):
                cycle += 1
                continue
            stop = self._next_full_tick(cycle, wakes, horizon)
            if stop <= cycle + 1:
                cycle += 1
            elif self._busy:
                cycle = self._burst(cycle + 1, stop, wakes)
            else:
                # Whole network idle: nothing to do before the next
                # event; land exactly on due credit buckets so none is
                # skipped over.
                if self._credit_due:
                    stop = min(stop, self._credit_due[0][0])
                stop = max(stop, cycle + 1)
                self._ff_cycles_skipped += stop - cycle - 1
                cycle = stop
        self._wakes = None

    def _next_full_tick(self, cycle: int, wakes: CycleEventQueue, horizon: int) -> int:
        """Earliest future cycle that needs a full tick: the next wake
        (router-pipeline completion or fault), host arrival, telemetry
        sample, or termination probe. Credit returns and ACTIVE-unit
        sends are *not* included -- the burst loop replays those
        in-window at their exact cycles."""
        nxt = horizon
        w = wakes.peek(cycle + 1)
        if w is not None and w < nxt:
            nxt = w
        if self._sampler is not None:
            nxt = min(nxt, self._next_sample_cycle)
        nxt = min(nxt, self._arrival_cycle())
        if not wakes.payloads_pending:
            # The termination probe only fires past the measurement
            # window, but deliveries *inside* a burst can make it
            # eligible -- so always cap at the next candidate probe
            # cycle; the full tick there re-evaluates the condition.
            brk = (cycle // 512 + 1) * 512
            if brk < self._probe0:
                brk = self._probe0
            nxt = min(nxt, brk)
        return int(nxt)

    def _burst(self, start: int, stop: int, wakes: CycleEventQueue) -> int:
        """Advance cycles ``[start, stop)`` in the send-only regime.

        Precondition (established by the caller's full tick): no
        pending hosts, no unit waiting for a VC, every ROUTING unit due
        at or after ``stop``, and no arrival, fault, sample or
        termination probe before ``stop``. In that window the cycle
        engine's generate/inject/route phases are no-ops, so each cycle
        reduces to the credit-return and switch-allocation phases over
        the ACTIVE units -- replayed here with the identical request
        order, round-robin pointer arithmetic and credit timing.
        Returns the cycle the next full tick must run at (``stop``, or
        earlier when a sent head starts a router pipeline due inside
        the window).
        """
        units = self.units
        credits = self.credits
        credit_due = self._credit_due
        ret_credits = self._return_credits
        rr = self._rr
        nh = self.num_hosts
        inj = self._inj_units
        v = self._v
        stream = self._stream_flits
        send = self._send_flit
        peek = wakes.peek
        link = self.link_cycles
        cap_hard = link + self.router_cycles
        actors = [uid for uid in self._busy if units[uid].state == _ACTIVE]
        t = start
        micro = 0
        while t < stop:
            micro += 1
            if credit_due and credit_due[0][0] <= t:
                ret_credits(t)
            # Requests in ascending unit order (actors is sorted and
            # only ever filtered), then one grant per resource -- the
            # exact _switch_allocation semantics. The same pass collects
            # batch caps: ``cap`` bounds a multi-cycle batch at the
            # earliest cycle a *future* queue head could start
            # requesting, ``unstable`` marks actors a credit return or
            # an in-run arrival could enable (empty-queue receivers and
            # credit-blocked senders).
            requests: dict[int, int | list[int]] = {}
            contended = False
            unstable = False
            cap = stop - t
            if cap > cap_hard:
                # Router pipelines started by the batch's own head flits
                # must complete at or after its end.
                cap = cap_hard
            for uid in actors:
                u = units[uid]
                if u.state != _ACTIVE:
                    continue
                q = u.queue
                if not q:
                    unstable = True
                    continue
                a = q[0][0]
                if a > t:
                    d = a - t
                    if d < cap:
                        cap = d
                    continue
                out = u.out_unit
                if out < 0:
                    res = -out - 1
                else:
                    if credits[out] <= 0:
                        unstable = True
                        continue
                    res = nh + (out - inj) // v
                prev = requests.get(res)
                if prev is None:
                    requests[res] = uid
                elif type(prev) is int:
                    requests[res] = [prev, uid]
                    contended = True
                else:
                    prev.append(uid)
            if requests:
                # An uncontended request set usually repeats unchanged
                # for a run of cycles: each requester keeps winning its
                # resource until its queue runs dry (contiguous-arrival
                # check below), its credits run out, its packet tail
                # leaves, or an outside actor could join (the caps
                # above). Prove that run length and send it as one
                # batch instead of re-arbitrating every cycle.
                if contended:
                    length = 0
                else:
                    length = cap
                    if unstable:
                        if length > link:
                            length = link
                        if credit_due:
                            m = credit_due[0][0] - t
                            if m < length:
                                length = m
                    if length > 1:
                        for req in requests.values():
                            u = units[req]
                            out = u.out_unit
                            cmax = length if out < 0 else min(length, credits[out])
                            run = 0
                            for arr, _ in u.queue:
                                if run >= cmax or arr > t + run:
                                    break
                                run += 1
                            if run < length:
                                length = run
                if length > 1:
                    for res, req in requests.items():
                        rr[res] = 1  # single requester wins every cycle
                        stream(req, t, length)
                    # Schedule each sender's credit returns as one run
                    # (one per cycle over the batch window, shifted by
                    # the link latency), then apply any return due
                    # strictly inside the batch window -- the per-cycle
                    # loop would have applied each at its exact cycle,
                    # and no request decision in the window reads them
                    # (the batch proof reserved full credit headroom),
                    # so applying them at the window's end is
                    # observationally identical.
                    base = t + link
                    for req in requests.values():
                        if req >= inj:
                            credit_due.append((base, length, req))
                    end = t + length
                    if credit_due and credit_due[0][0] < end:
                        ret_credits(end - 1)
                    micro += length - 1
                    w = peek(end)
                    if w is not None and w < stop:
                        stop = w
                    t = end
                    continue
                for res, req in requests.items():
                    if type(req) is int:
                        rr[res] = 1  # ptr 0 of a 1-list, advanced past
                        send(req, t)
                    else:
                        ptr = rr[res] % len(req)
                        rr[res] = ptr + 1
                        send(req[ptr], t)
                # A sent head may have started a router pipeline due
                # inside the window; the full tick must run there.
                w = peek(t + 1)
                if w is not None and w < stop:
                    stop = w
                t += 1
                continue
            # No flit usable this cycle: hop to the next credit return
            # or flit arrival that could enable one (or straight to
            # ``stop`` when every actor has finished).
            nt = stop
            if credit_due:
                m = credit_due[0][0]
                if m < nt:
                    nt = m
            for uid in actors:
                u = units[uid]
                if u.state == _ACTIVE and u.queue:
                    a = u.queue[0][0]
                    if t < a < nt:
                        nt = a
            t = nt if nt > t else t + 1
        self._ev_micro_cycles += micro
        return min(t, stop)

    def _take_sample(self, cycle: int) -> None:
        """Feed the sampler one snapshot (observation only: no sim state
        or RNG stream is touched, so results match a telemetry-off run
        bit for bit)."""
        if self._router is not None:
            self._router.sample_stages()
        occ = (
            (self.buffer_flits - np.asarray(self.credits[self._inj_units :]))
            .reshape(-1, self._v)
            .sum(axis=1)
        )
        self._sampler.sample(
            self._time_ns(cycle),
            chan_flits=self._chan_flits,
            occupancy=occ,
            delivered_bits=self._delivered_bits_total,
            offered_bits=self._next_pid * self.cfg.packet_bits,
        )
