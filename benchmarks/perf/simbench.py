"""The three simulator workloads: inputs, one repetition, and the traced pass.

Everything here drives the simulator from outside through public entry
points (``build_cluster``, ``Simulator.run``, ``Simulator.profiler``, the
collector's derived views); nothing under ``src/`` knows it is measured.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from harness import RepResult
from repro.cluster.task import SubmitEvent
from repro.core.policies import PriorityPolicy
from repro.experiments.common import ClusterConfig, ClusterHandles, build_cluster
from repro.obs.bus import TelemetryBus
from repro.obs.profile import ComponentCost, SimProfiler, component_of
from repro.sim.core import Simulator, ms, us
from repro.sim.rng import RngStreams
from repro.workloads import (
    GoogleTraceConfig,
    accelerate,
    fixed,
    google_like,
    open_loop,
    rate_for_utilization,
    trace_stats,
)

UTILIZATION = 0.8
TASK_US = 500.0
#: a sim "request" is one step of this much simulated time (see README)
STEP_NS = us(100)
#: untimed drain after the horizon, in slices, until every task completed
DRAIN_SLICE_NS = ms(5)
DRAIN_LIMIT_NS = ms(200)

Inputs = Tuple[ClusterConfig, List[SubmitEvent], int]


def _fixed_u80(scheduler: str) -> Callable[[int, int, Optional[TelemetryBus]], Inputs]:
    def make(seed: int, duration_ns: int, obs: Optional[TelemetryBus]) -> Inputs:
        config = ClusterConfig(scheduler=scheduler, seed=seed, obs=obs)
        sampler = fixed(TASK_US)
        rate = rate_for_utilization(
            UTILIZATION, config.total_executors, sampler.mean_ns
        )
        events = list(
            open_loop(
                RngStreams(seed).stream("arrivals"), rate, sampler, duration_ns
            )
        )
        return config, events, duration_ns

    return make


def _prio_burst(seed: int, duration_ns: int, obs: Optional[TelemetryBus]) -> Inputs:
    config = ClusterConfig(
        scheduler="draconis",
        seed=seed,
        policy=PriorityPolicy(4),
        # Deep enough that the recirculation port never overflows: a
        # dropped ladder packet is a lost task, and the benchmark contract
        # wants workloads on which nothing fails. The 72 % recirculation
        # share and the port's rate limit are unchanged.
        recirc_queue_packets=4096,
        obs=obs,
    )
    mean_ns = us(TASK_US)
    trace = GoogleTraceConfig(
        mean_duration_ns=mean_ns,
        target_rate_tps=rate_for_utilization(
            UTILIZATION, config.total_executors, mean_ns
        ),
        horizon_ns=duration_ns,
        with_priorities=True,
    )
    events = list(google_like(RngStreams(seed).stream("google-500us"), trace))
    # A 70 ms bursty trace realises anything from 65 % to 95 % load
    # depending on the seed. Rescale its time axis (the paper's own trace
    # acceleration) so every seed offers exactly 80 %; the burst structure,
    # durations and priority mix are untouched.
    stats = trace_stats(events)
    offered = (
        stats["tasks"] * stats["mean_duration_ns"]
        / (config.total_executors * duration_ns)
    )
    factor = offered / UTILIZATION
    events = list(accelerate(events, factor))
    return config, events, int(duration_ns * factor)


@dataclass(frozen=True)
class SimWorkload:
    name: str
    #: simulated milliseconds that take about one host second on the
    #: reference container; sizes a repetition from ``--seconds``
    sim_ms_per_host_s: float
    make_inputs: Callable[[int, int, Optional[TelemetryBus]], Inputs]

    def duration_ns(self, rep_seconds: float) -> int:
        steps = max(8, round(self.sim_ms_per_host_s * rep_seconds * 1e6 / STEP_NS))
        return steps * STEP_NS


SIM_WORKLOADS: Dict[str, SimWorkload] = {
    w.name: w
    for w in (
        SimWorkload("sim_fcfs_u80", 33.0, _fixed_u80("draconis")),
        SimWorkload("sim_prio_burst", 26.0, _prio_burst),
        SimWorkload("sim_racksched_u80", 68.0, _fixed_u80("racksched")),
    )
}


def set_up(
    workload: SimWorkload,
    seed: int,
    rep_seconds: float,
    obs: Optional[TelemetryBus] = None,
) -> Tuple[ClusterHandles, int, float]:
    """Generate the inputs and build the cluster; returns (handles,
    horizon_ns, setup_s)."""
    start = time.perf_counter()
    config, events, horizon_ns = workload.make_inputs(
        seed, workload.duration_ns(rep_seconds), obs
    )
    handles = build_cluster(config, [events], rngs=RngStreams(seed))
    # Whole steps only, so the stepped and the single-call run stop at the
    # same instant.
    horizon_ns -= horizon_ns % STEP_NS
    return handles, horizon_ns, time.perf_counter() - start


def _drain(handles: ClusterHandles) -> int:
    """Run on, untimed, until every submitted task finished; returns how
    many never did."""
    sim, collector = handles.sim, handles.collector
    deadline = sim.now + DRAIN_LIMIT_NS
    while collector.unfinished_count() and sim.now < deadline:
        sim.run(until=sim.now + DRAIN_SLICE_NS)
    return collector.unfinished_count()


def _summarize(
    handles: ClusterHandles,
    horizon_ns: int,
    setup_s: float,
    wall_s: float,
    cpu_s: float,
    events: int,
    latencies_us: np.ndarray,
) -> RepResult:
    collector = handles.collector
    tasks = collector.completed_count()
    unfinished = _drain(handles)
    duplicates = (
        collector.duplicate_assignments
        + collector.duplicate_finishes
        + collector.duplicate_completions
    )
    delays = collector.scheduling_delays(since=horizon_ns // 8)
    p50, p99 = (
        (float(v) / 1e3 for v in np.percentile(delays, (50, 99)))
        if delays
        else (float("nan"), float("nan"))
    )
    submitted = collector.submitted_count()
    failed = unfinished + duplicates
    problems = []
    if submitted != collector.completed_count() + unfinished:
        problems.append(
            f"conservation broke: submitted {submitted} != completed "
            f"{collector.completed_count()} + unfinished {unfinished}"
        )
    fingerprint = {
        "events": events,
        "tasks_completed": tasks,
        "submitted": submitted,
        "failed": failed,
        "sim_sched_p50_us": p50,
        "sim_sched_p99_us": p99,
    }
    return RepResult(
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=cpu_s,
        tasks=tasks,
        latencies_us=latencies_us,
        attempted=submitted,
        failed=failed,
        fingerprint=fingerprint,
        problems=problems,
        details={
            "events": events,
            "sim_sched_p50_us": p50,
            "sim_sched_p99_us": p99,
            "sim_sched_samples": len(delays),
            "failed_share": failed / submitted if submitted else 0.0,
        },
    )


def run_rep(workload: SimWorkload, seed: int, rep_seconds: float) -> RepResult:
    """One untraced repetition: set up, then time ``Simulator.run`` only.

    The run advances in :data:`STEP_NS` steps so each step's host time is
    a latency sample; that adds one clock read and one ``run`` call per
    step (hundreds of events) to the timed section.
    """
    handles, horizon_ns, setup_s = set_up(workload, seed, rep_seconds)
    sim = handles.sim
    if sim.profiler is not None or handles.switch.obs is not None:
        raise RuntimeError(
            "end-to-end runs must not carry a profiler or telemetry bus"
        )
    gc.collect()
    clock = time.perf_counter
    step_s: List[float] = []
    events_before = Simulator.global_events_processed()
    cpu_start = time.process_time()
    wall_start = clock()
    mark = wall_start
    for until in range(STEP_NS, horizon_ns + 1, STEP_NS):
        sim.run(until=until)
        now = clock()
        step_s.append(now - mark)
        mark = now
    wall_s = mark - wall_start
    cpu_s = time.process_time() - cpu_start
    events = Simulator.global_events_processed() - events_before
    return _summarize(
        handles, horizon_ns, setup_s, wall_s, cpu_s, events,
        np.asarray(step_s) * 1e6,
    )


# -- traced pass ---------------------------------------------------------------

#: profiler label -> per-layer metric suffix; everything else is "other"
_COMPONENTS = {
    "repro.switchsim.pipeline.ProgrammableSwitch": "switch",
    "repro.net.host.Host": "net_host",
    "repro.net.link.Link": "net_link",
    "repro.sim.core.Timeout": "sim_events",
    "repro.sim.core.AnyOf": "sim_events",
    "repro.sim.core.AllOf": "sim_events",
    "repro.sim.core.Event": "sim_events",
    "repro.sim.core.ScheduledCallback": "sim_events",
}
#: attributed components; ``kernel`` is whatever of the run's wall is left
SIM_SHARES = (
    "switch", "net_host", "net_link", "cluster_executor", "cluster_client",
    "baseline_worker", "sim_events", "other",
)


class LayerProfiler(SimProfiler):
    """``SimProfiler`` that splits generator processes by their actor.

    Every cluster actor is a ``sim.core.Process``; the stock label lumps
    executors, clients and push workers together. Process names
    (``executor-7``, ``client0-recv``, ``worker3-exec2``) tell them apart.
    """

    def account(self, callback, wall_ns: int) -> None:
        label = component_of(callback)
        if label == "repro.sim.core.Process":
            name = getattr(callback.__self__, "name", "")
            if name.startswith("executor-"):
                label = "cluster_executor"
            elif name.startswith("client"):
                label = "cluster_client"
            else:
                label = "baseline_worker"
        else:
            label = _COMPONENTS.get(label, "other")
        cost = self.by_component.get(label)
        if cost is None:
            cost = self.by_component[label] = ComponentCost()
        cost.calls += 1
        cost.wall_ns += wall_ns
        self.events += 1
        self.wall_ns += wall_ns


def traced_rep(
    workload: SimWorkload, seed: int, rep_seconds: float
) -> Tuple[RepResult, Dict[str, float]]:
    """One repetition under the profiler; returns it plus ``trace.*`` values."""
    handles, horizon_ns, setup_s = set_up(workload, seed, rep_seconds)
    sim = handles.sim
    profiler = LayerProfiler()
    sim.profiler = profiler
    events_before = Simulator.global_events_processed()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    try:
        sim.run(until=horizon_ns)
    finally:
        sim.profiler = None
    wall_s = time.perf_counter() - wall_start
    cpu_s = time.process_time() - cpu_start
    events = Simulator.global_events_processed() - events_before
    switch = handles.switch
    stats = switch.stats
    result = _summarize(
        handles, horizon_ns, setup_s, wall_s, cpu_s, events,
        np.asarray([wall_s * 1e6]),
    )
    tasks = max(1, result.tasks)
    trace: Dict[str, float] = {}
    attributed = 0.0
    for name in SIM_SHARES:
        cost = profiler.by_component.get(name)
        share = cost.wall_ns / 1e9 / wall_s if cost else 0.0
        trace[f"trace.sim.share.{name}"] = share
        attributed += share
    trace["trace.sim.share.kernel"] = 1.0 - attributed
    trace["trace.events_per_task"] = events / tasks
    trace["trace.packets_per_task"] = stats.pipeline_packets / tasks
    trace["trace.recirc_share"] = stats.recirculation_fraction()
    trace["trace.recirc_dropped"] = stats.recirc_dropped
    trace["trace.bounces"] = handles.collector.bounce_retries
    repairs = noops = assigned = 0
    if handles.draconis is not None:
        for queue in handles.draconis.queues:
            repairs += queue.stats.add_repairs + queue.stats.rtr_repairs
        noops = handles.draconis.sched_stats.noops_sent
        assigned = handles.draconis.sched_stats.tasks_assigned
    trace["trace.repairs_per_ktask"] = repairs * 1000.0 / tasks
    pulls = noops + assigned
    trace["trace.noop_reply_share"] = noops / pulls if pulls else 0.0
    return result, trace


def bus_on_overhead_pct(seed: int, rep_seconds: float, pairs: int = 2) -> float:
    """``sim_fcfs_u80`` slowed down by an attached ``TelemetryBus``, in
    percent of the bus-off rate (ROADMAP item 5's budget row)."""
    workload = SIM_WORKLOADS["sim_fcfs_u80"]
    rates = {False: [], True: []}
    for _ in range(pairs):
        for bus_on in (False, True):
            handles, horizon_ns, _ = set_up(
                workload, seed, rep_seconds, obs=TelemetryBus() if bus_on else None
            )
            start = time.perf_counter()
            handles.sim.run(until=horizon_ns)
            wall_s = time.perf_counter() - start
            rates[bus_on].append(handles.collector.completed_count() / wall_s)
    off, on = (float(np.median(rates[k])) for k in (False, True))
    return (off - on) / off * 100.0
