"""repro.obs — the unified observability subsystem.

One :class:`TelemetryBus` per run carries every telemetry signal: raw
switch/net events (the former ``SwitchTracer`` ring), causal task spans,
HDR-style histograms and counters. Components hold ``obs = None`` by
default — an uninstrumented run pays one attribute test per hook site —
and :func:`repro.experiments.common.attach_obs` wires a bus through a
built cluster in one call.

Sub-modules:

* :mod:`repro.obs.bus` — the bus itself plus :class:`BusEvent`;
* :mod:`repro.obs.spans` — per-task causal chains and the bounded store;
* :mod:`repro.obs.hdr` — log-bucketed latency histograms;
* :mod:`repro.obs.profile` — simulator wall-clock self-profiling;
* :mod:`repro.obs.report` — ``python -m repro.obs.report`` timeline CLI.
"""

from repro.obs.bus import SWITCH_KINDS, BusEvent, TelemetryBus, opcode_of
from repro.obs.hdr import LogHistogram
from repro.obs.profile import ComponentCost, SimProfiler, component_of, profile_run
from repro.obs.spans import (
    BREAKDOWN_STAGES,
    HOP_STAGES,
    MILESTONES,
    SpanEvent,
    SpanStore,
    TaskKey,
    TaskSpan,
)

__all__ = [
    "BREAKDOWN_STAGES",
    "BusEvent",
    "ComponentCost",
    "HOP_STAGES",
    "LogHistogram",
    "MILESTONES",
    "SWITCH_KINDS",
    "SimProfiler",
    "SpanEvent",
    "SpanStore",
    "TaskKey",
    "TaskSpan",
    "TelemetryBus",
    "component_of",
    "opcode_of",
    "profile_run",
]
