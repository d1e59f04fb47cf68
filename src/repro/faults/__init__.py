"""Declarative fault injection (paper §3.3 made systematic).

The paper argues the pull model makes failure handling nearly free: dead
executors just stop pulling, switch failure is repaired entirely by
client resubmission, and lost packets surface as client timeouts. This
package turns that claim into a testable subsystem:

* :mod:`repro.faults.events` — typed fault events (link loss/partition/
  duplication/reordering, worker crash/restart/slowdown, switch failover
  and recirculation exhaustion);
* :mod:`repro.faults.plan` — :class:`FaultPlan`, an ordered validated
  schedule, plus seed-reproducible randomized chaos plans;
* :mod:`repro.faults.links` — the wire-fault model (:class:`Degradation`,
  :func:`decide`, :func:`fuzz_parser`) and the per-link hook
  (:class:`LinkChaos`) behind :attr:`repro.net.link.Link.fault_hook`;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, which fires a
  plan on either clock, and :class:`SimTargets`, the simulated cluster
  it acts on (the live one is :class:`repro.live.chaos.LiveTargets`).

The ``repro.experiments.fault_tolerance`` chaos experiment and the
conservation property tests are the primary consumers.
"""

from repro.faults.events import (
    ControllerCrash,
    FaultEvent,
    LinkFault,
    PacketCorruption,
    Partition,
    RecircExhaustion,
    SwitchFailover,
    WorkerCrash,
    WorkerSlowdown,
    event_end,
    event_from_dict,
    event_start,
    event_to_dict,
)
from repro.faults.links import Degradation, LinkChaos, chaos_for
from repro.faults.plan import PLAN_KINDS, FaultPlan, sample_ctrl_faults
from repro.faults.injector import FaultInjector, FaultInjectorStats, SimTargets

__all__ = [
    "ControllerCrash",
    "Degradation",
    "FaultEvent",
    "FaultInjector",
    "FaultInjectorStats",
    "FaultPlan",
    "LinkChaos",
    "LinkFault",
    "PLAN_KINDS",
    "PacketCorruption",
    "Partition",
    "RecircExhaustion",
    "SimTargets",
    "SwitchFailover",
    "WorkerCrash",
    "WorkerSlowdown",
    "chaos_for",
    "event_end",
    "event_from_dict",
    "event_start",
    "event_to_dict",
    "sample_ctrl_faults",
]
