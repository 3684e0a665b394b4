"""Pipelined multi-VC router microarchitecture for the flit engine.

An opt-in router model (``RouterConfig(mode="pipelined")`` on
:class:`~repro.sim.config.SimConfig`, or ``fig10 --router pipelined``) with
RC/VA/SA/ST stages, per-input-port VC buffers, deterministic LRG
arbitration and credit-based VC flow control -- the MockSim-style
microarchitecture of SNIPPETS.md snippets 2-3, driven against DSN-V's
Section V-A channel discipline. See docs/API.md (Router models) and
docs/paper_mapping.md.
"""

from repro.sim.router.arbiter import LRGArbiter
from repro.sim.router.config import ROUTER_MODES, RouterConfig, resolve_router
from repro.sim.router.pipeline import PipelinedRouter

__all__ = [
    "RouterConfig",
    "ROUTER_MODES",
    "resolve_router",
    "LRGArbiter",
    "PipelinedRouter",
]
