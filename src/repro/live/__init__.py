"""Real-network runtime: the Draconis protocol over actual UDP sockets.

Every other subsystem executes inside the discrete-event simulator; this
package runs the same wire format (:mod:`repro.protocol`) and the same
scheduling structures (:mod:`repro.core`) on wall-clock time across real
non-blocking UDP sockets on one asyncio loop:

* :class:`~repro.live.softswitch.SoftSwitch` — a software dataplane
  hosting an unmodified :class:`~repro.core.scheduler.DraconisProgram`
  behind a UDP socket, plus executor registration and JBSQ-style
  per-executor dispatch bounds;
* :class:`~repro.live.executor.LiveExecutor` — pulls and executes tasks
  (busy-spin or timer) with the workload's service-time distributions;
* :class:`~repro.live.client.LiveClient` /
  :mod:`~repro.live.loadgen` — submission, bounce/loss retry, and open-
  or closed-loop load generation;
* :mod:`~repro.live.conformance` — runs one workload spec through the
  simulator *and* the live runtime and asserts policy-level agreement.

The point is comparability: the scheduler logic, queues, policies and
codec are shared byte-for-byte with the simulator, so sim-vs-live
deviations isolate the things a simulator cannot model (timer
granularity, socket buffers, real packet loss).
"""

from repro.live.base import WallClock, WallTimers
from repro.live.chaos import (
    ChaosNet,
    ChaosScenario,
    ChaosTransport,
    LiveTargets,
    run_live_chaos,
    sample_scenario,
)
from repro.live.client import LiveClient
from repro.live.executor import LiveExecutor, LiveExecutorConfig
from repro.live.loadgen import ClosedLoopGen, OpenLoopGen
from repro.live.results import LiveResult
from repro.live.runtime import LiveSpec, run_live
from repro.live.softswitch import SoftSwitch

__all__ = [
    "ChaosNet",
    "ChaosScenario",
    "ChaosTransport",
    "ClosedLoopGen",
    "LiveClient",
    "LiveExecutor",
    "LiveExecutorConfig",
    "LiveResult",
    "LiveSpec",
    "LiveTargets",
    "OpenLoopGen",
    "SoftSwitch",
    "WallClock",
    "WallTimers",
    "run_live",
    "run_live_chaos",
    "sample_scenario",
]
