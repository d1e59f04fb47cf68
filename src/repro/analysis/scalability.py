"""Scalability analysis (paper §8.2).

"Our simulations show that Draconis supports clusters of millions of
cores when running 500 µs tasks." The bound comes from three ceilings:

1. **switch packet budget**: each task costs two pipeline traversals —
   one job_submission and one completion carrying the piggybacked next
   request (§3.1); the task_assignment and the forwarded completion are
   egress products of those same traversals — against the ASIC's packet
   rate (4.7 Bpps on the paper's switch);
2. **queue capacity**: outstanding tasks must fit the circular queue;
3. **per-port bandwidth** is never binding for 100-plus-byte packets at
   these rates.

``max_cluster_cores`` computes the binding ceiling; the ``scalability``
figure of :mod:`repro.experiments.figures` spot-checks the analytic model
against the discrete-event simulator at feasible scales.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.sim.core import us
from repro.switchsim.resources import SwitchModel, TOFINO1

#: scheduler-pipeline traversals per completed task: one job_submission,
#: one completion with the piggybacked next request
PACKETS_PER_TASK = 2


@dataclass(frozen=True)
class ScalabilityPoint:
    """One row of the scalability sweep."""

    cores: int
    task_rate_tps: float
    switch_packet_load: float  # fraction of the ASIC packet budget
    feasible: bool


def max_cluster_cores(
    task_duration_ns: int = us(500),
    model: SwitchModel = TOFINO1,
    utilization: float = 1.0,
    packets_per_task: int = PACKETS_PER_TASK,
) -> int:
    """Largest cluster (cores) the in-switch scheduler can keep busy."""
    if task_duration_ns <= 0:
        raise ConfigurationError(
            f"task duration must be positive: {task_duration_ns}"
        )
    if not 0 < utilization <= 1:
        raise ConfigurationError(f"utilization must be in (0, 1]: {utilization}")
    tasks_per_core_per_sec = utilization * 1e9 / task_duration_ns
    max_task_rate = model.line_rate_pps / packets_per_task
    return int(max_task_rate / tasks_per_core_per_sec)


def scalability_sweep(
    core_counts: Sequence[int],
    task_duration_ns: int = us(500),
    model: SwitchModel = TOFINO1,
    utilization: float = 0.9,
    packets_per_task: int = PACKETS_PER_TASK,
) -> List[ScalabilityPoint]:
    """Evaluate the packet-budget ceiling across cluster sizes."""
    points = []
    for cores in core_counts:
        rate = cores * utilization * 1e9 / task_duration_ns
        packet_load = rate * packets_per_task / model.line_rate_pps
        points.append(
            ScalabilityPoint(
                cores=cores,
                task_rate_tps=rate,
                switch_packet_load=packet_load,
                feasible=packet_load <= 1.0,
            )
        )
    return points
