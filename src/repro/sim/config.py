"""Simulation configuration: the paper's Section VII-A parameters.

Defaults reproduce the paper's setup exactly:

* 64 switches, 4 compute nodes (hosts) per switch;
* virtual cut-through switching, 4 virtual channels;
* header processing (routing, VC allocation, switch allocation,
  crossbar) takes 100 ns per switch;
* flit injection delay and link delay together are 20 ns;
* packets are 33 flits (1 header + 32 payload), flits are 256 bits;
* effective link bandwidth 96 Gbit/s, so one flit serializes in
  256/96 = 2.67 ns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.router.config import ROUTER_MODES, RouterConfig, resolve_router
from repro.util import check_positive

__all__ = [
    "SimConfig",
    "FLIT_ENGINES",
    "resolve_flit_engine",
    "RouterConfig",
    "ROUTER_MODES",
    "resolve_router",
]

#: Run-loop implementations of the flit-level simulator. Both produce
#: bit-identical results (the contract tests/test_sim_flit.py pins);
#: ``event`` visits only cycles that can change state and runs every
#: production simulation, ``cycle`` is the linear reference scan the
#: equivalence tests diff against.
FLIT_ENGINES = ("event", "cycle")


def resolve_flit_engine(engine: str | None = None) -> str:
    """The flit run-loop to use: the explicit argument, else ``event``
    (the only production loop; ``cycle`` is the reference oracle)."""
    eng = "event" if engine is None else engine.strip().lower()
    if eng not in FLIT_ENGINES:
        raise ValueError(f"unknown flit engine {eng!r}: expected one of {FLIT_ENGINES}")
    return eng


@dataclass(frozen=True)
class SimConfig:
    """Physical and workload parameters of one simulation run."""

    hosts_per_switch: int = 4
    num_vcs: int = 4  #: total VCs per channel; VC 0 is the escape channel
    flit_bits: int = 256
    packet_flits: int = 33
    link_bandwidth_gbps: float = 96.0
    router_delay_ns: float = 100.0  #: header pipeline per switch
    link_delay_ns: float = 20.0  #: injection + link delay
    warmup_ns: float = 10_000.0
    measure_ns: float = 30_000.0
    drain_ns: float = 40_000.0  #: extra time allowed to drain measured packets
    seed: int = 1
    #: Router model of the flit engine (``ideal`` keeps the lumped
    #: ``router_delay_ns`` pipeline above; ``pipelined`` switches to the
    #: staged RC/VA/SA/ST microarchitecture -- see repro.sim.router).
    #: The default is the ideal router.
    router: RouterConfig = field(default_factory=RouterConfig)

    def __post_init__(self) -> None:
        check_positive("hosts_per_switch", self.hosts_per_switch)
        check_positive("num_vcs", self.num_vcs)
        check_positive("packet_flits", self.packet_flits)
        check_positive("link_bandwidth_gbps", self.link_bandwidth_gbps)

    @property
    def flit_time_ns(self) -> float:
        """Serialization time of one flit on a link."""
        return self.flit_bits / self.link_bandwidth_gbps

    @property
    def packet_serialization_ns(self) -> float:
        """Time for a whole packet to cross a link after the head starts."""
        return self.packet_flits * self.flit_time_ns

    @property
    def packet_bits(self) -> int:
        return self.packet_flits * self.flit_bits

    def packets_per_ns(self, offered_gbps_per_host: float) -> float:
        """Injection rate (packets/ns/host) for an offered load in Gbit/s/host."""
        return offered_gbps_per_host / self.packet_bits

    def zero_load_latency_ns(self, switch_hops: float) -> float:
        """Analytic no-contention latency for a path of ``switch_hops``
        inter-switch hops (pipelined head latency + tail serialization).

        head: injection link + (hops+1) routers + hops links + ejection
        link; tail: one packet serialization behind the head.
        """
        routers = (switch_hops + 1) * self.router_delay_ns
        links = (switch_hops + 2) * self.link_delay_ns  # inject + hops + eject
        return routers + links + self.packet_serialization_ns
