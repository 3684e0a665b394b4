"""Router-model selection and pipeline parameters.

The flit engine has two router models:

* ``ideal`` -- the model every prior PR simulated: header processing is
  one lumped ``router_delay_ns`` pipeline (``ceil(router_delay /
  flit_time)`` cycles), VC allocation is greedy first-fit in unit-id
  order and switch allocation is round-robin, with allocation and the
  first crossbar traversal collapsed into the completion cycle.
* ``pipelined`` -- the MockSim-style microarchitecture (SNIPPETS.md
  snippets 2-3): explicit RC / VA / SA / ST stages with configurable
  per-stage depths, per-input-port virtual-channel buffers of
  ``vc_buffer_flits``, deterministic least-recently-granted (LRG)
  VA/SA arbitration and credit-based VC flow control
  (:class:`repro.sim.router.pipeline.PipelinedRouter`).

The mode comes from an explicit :class:`RouterConfig` on
:class:`~repro.sim.config.SimConfig`, else ``ideal``. Unknown spellings
raise a :class:`ValueError` naming the accepted values (the same
contract as :func:`~repro.sim.config.resolve_flit_engine`). Both models
run on the flit engine's event-driven loop.

**Timing model.** A pipelined router adds a per-router header lag of
``rc + va + (sa - 1) + (st - 1)`` cycles (:attr:`RouterConfig.
hop_lag_cycles`): the head flit finishes route compute ``rc`` cycles
after arrival, wins VC allocation ``va`` cycles later, then switch
allocation and traversal overlap with the transfer except for their
depth beyond one cycle each. The ideal router's lag is
``ceil(router_delay_ns / flit_time_ns)`` cycles, so an uncontended
packet's latency differs between the models by exactly

    ``(hops + 1) * (hop_lag_cycles - ideal_router_cycles) * flit_time_ns``

-- the closed form ``tests/test_router.py`` and the CI router
cross-validation smoke pin (see docs/performance.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util import check_positive

__all__ = ["RouterConfig", "ROUTER_MODES", "resolve_router"]

#: Router models of the flit engine. ``ideal`` is the lumped-delay
#: greedy/round-robin model (the default and the reference every prior
#: result used); ``pipelined`` is the staged RC/VA/SA/ST model with LRG
#: arbitration and per-VC buffers.
ROUTER_MODES = ("ideal", "pipelined")


def resolve_router(mode: str | None = None) -> str:
    """The router model to use: the explicit argument, else ``ideal``."""
    m = "ideal" if mode is None else mode.strip().lower()
    if m not in ROUTER_MODES:
        raise ValueError(f"unknown router mode {m!r}: expected one of {ROUTER_MODES}")
    return m


@dataclass(frozen=True)
class RouterConfig:
    """Microarchitecture of one router (every switch is identical).

    ``mode=None`` means ``ideal``; the resolved spelling is what
    reaches store keys.

    The stage depths and ``vc_buffer_flits`` only apply in
    ``pipelined`` mode; the ideal model keeps the lumped
    ``router_delay_ns`` pipeline and the constructor-level
    ``buffer_flits``. ``vc_buffer_flits=None`` inherits the simulator's
    buffer depth (one packet by default, i.e. virtual cut-through;
    smaller values give wormhole behaviour per VC).
    """

    mode: str | None = None
    rc_cycles: int = 1  #: route-compute stage depth
    va_cycles: int = 1  #: VC-allocation stage depth
    sa_cycles: int = 1  #: switch-allocation stage depth
    st_cycles: int = 1  #: switch-traversal (crossbar) stage depth
    vc_buffer_flits: int | None = None  #: per-VC input buffer depth

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", resolve_router(self.mode))
        for name in ("rc_cycles", "va_cycles", "sa_cycles", "st_cycles"):
            check_positive(name, getattr(self, name))
        if self.vc_buffer_flits is not None and self.vc_buffer_flits < 1:
            raise ValueError("vc_buffer_flits must be >= 1 (or None to inherit)")

    @property
    def pipelined(self) -> bool:
        return self.mode == "pipelined"

    @property
    def depth(self) -> int:
        """Total pipeline depth in stages-cycles: rc + va + sa + st."""
        return self.rc_cycles + self.va_cycles + self.sa_cycles + self.st_cycles

    @property
    def hop_lag_cycles(self) -> int:
        """Header lag a packet pays per router: ``rc + va + sa + st - 2``
        (SA and ST each overlap the transfer beyond their first cycle)."""
        return self.rc_cycles + self.va_cycles + self.sa_cycles + self.st_cycles - 2

    @classmethod
    def with_depth(cls, hop_lag: int, vc_buffer_flits: int | None = None) -> "RouterConfig":
        """A pipelined config whose per-router header lag is exactly
        ``hop_lag`` cycles (the sweep axis of ``python -m repro
        router-sweep``): the extra depth goes into RC, the longest
        stage of real routers. Requires ``hop_lag >= 2`` (one VA cycle
        after at least one RC cycle is the floor of the staged model).
        """
        if hop_lag < 2:
            raise ValueError("pipelined hop lag is at least 2 cycles (rc >= 1, va >= 1)")
        return cls(
            mode="pipelined",
            rc_cycles=hop_lag - 1,
            va_cycles=1,
            sa_cycles=1,
            st_cycles=1,
            vc_buffer_flits=vc_buffer_flits,
        )
