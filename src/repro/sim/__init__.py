"""Discrete-event simulation engine.

The survey observes that "computer simulation remains the most widely used
tool in applications of these models". No simulation package is assumed; this
subpackage implements the substrate from scratch: an event calendar with a
stable tie-breaking order, a simulation clock, time-weighted monitors, and a
replication runner producing confidence intervals.
"""

from repro.sim.engine import Event, EventQueue, Simulator
from repro.sim.monitor import TimeWeightedMonitor, TallyMonitor
from repro.sim.replication import (
    PairedReplicationResult,
    ReplicationResult,
    run_paired_replications,
    run_replications,
    run_replications_parallel,
)
from repro.sim.sequential import (
    PrecisionTarget,
    SequentialOutcome,
    run_sequential_replications,
)
from repro.sim.vectorized import (
    VectorizedKernel,
    get_kernel,
    has_kernel,
    kernel_ids,
    register_kernel,
)

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "TimeWeightedMonitor",
    "TallyMonitor",
    "ReplicationResult",
    "PairedReplicationResult",
    "run_replications",
    "run_replications_parallel",
    "run_paired_replications",
    "PrecisionTarget",
    "SequentialOutcome",
    "run_sequential_replications",
    "VectorizedKernel",
    "register_kernel",
    "get_kernel",
    "has_kernel",
    "kernel_ids",
]
