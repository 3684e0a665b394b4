"""Fault injection: deterministic fault models, timed schedules and
live rerouting in the flit-level simulator.

See ``docs/resilience.md`` for the full story. Quick use::

    from repro.core import DSNTopology
    from repro.faults import FaultSet, random_link_schedule, run_with_faults

    topo = DSNTopology(64)
    schedule = random_link_schedule(
        topo, times_ns=[4000.0, 8000.0], fraction_per_event=0.02, seed=7)
    result = run_with_faults(topo, schedule, offered_gbps=2.0)
    print(result.dropped_fraction, result.fault_records)
"""

from repro.faults.degradation import (
    DEFAULT_FRACTIONS,
    DegradationPoint,
    degradation_artifact,
    degradation_curves,
    degradation_point,
)
from repro.faults.dynamic import (
    adaptive_escape_factory,
    dsn_custom_factory,
    run_with_faults,
)
from repro.faults.models import (
    FaultSet,
    bernoulli_link_faults,
    bernoulli_switch_faults,
    induced_survivor,
    sample_link_faults,
)
from repro.faults.percolation import (
    DEFAULT_PERC_FRACTIONS,
    DEFAULT_TRIALS,
    PercolationPoint,
    link_field,
    percolation_artifact,
    percolation_sweep,
    percolation_trial,
    slot_tables,
    validate_fractions,
)
from repro.faults.schedule import FaultEvent, FaultSchedule, random_link_schedule
from repro.faults.spatial import cabinet_burst_faults, cabinet_faults

__all__ = [
    "FaultSet",
    "FaultEvent",
    "FaultSchedule",
    "bernoulli_link_faults",
    "bernoulli_switch_faults",
    "sample_link_faults",
    "induced_survivor",
    "cabinet_burst_faults",
    "cabinet_faults",
    "random_link_schedule",
    "adaptive_escape_factory",
    "dsn_custom_factory",
    "run_with_faults",
    "DegradationPoint",
    "DEFAULT_FRACTIONS",
    "degradation_point",
    "degradation_curves",
    "degradation_artifact",
    "PercolationPoint",
    "DEFAULT_PERC_FRACTIONS",
    "DEFAULT_TRIALS",
    "link_field",
    "slot_tables",
    "validate_fractions",
    "percolation_trial",
    "percolation_sweep",
    "percolation_artifact",
]
