"""Every table and figure of the paper's evaluation, as one declarative table.

Each reproduced result (Figs. 5a-13, the §7 switch-resource table, the §8.2
scalability claim, the §3 RTT trade-off and two ablations) is one
:class:`Figure`: the systems it compares (label -> ``ClusterConfig``
overrides), the axes it sweeps, a ``cell`` that runs one point, its inputs
at each scale, the columns it keeps, and the paper's expected shape as
predicates. One runner turns a (figure, scale) pair into rows (plain
dicts); one printer, one chart renderer and one :func:`check` serve all.

Scales: ``test`` (tier-1, seconds), ``smoke`` (every figure in minutes),
``report`` (EXPERIMENTS.md) and ``bench`` (where every shape is judged)::

    python -m repro.experiments.figures [fig5a ...] [--scale bench]
        [--check] [--json rows.json] [--jobs N]

``--check`` prints each predicate's signed margin from its threshold and
exits 1 if one fails. A ``deviation`` predicate states a paper claim this
model does not reproduce (EXPERIMENTS.md, "Known deviations"): it is
expected not to hold, and fails only if it starts to.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.scalability import max_cluster_cores, scalability_sweep
from repro.analysis.switch_budget import budget_report, declared_queue_fits
from repro.cluster import Client, ClientConfig, Worker, WorkerSpec
from repro.cluster.executor import ExecutorConfig, LocalityCostModel
from repro.core import DraconisProgram
from repro.core.policies import LocalityPolicy, PriorityPolicy, ResourcePolicy
from repro.experiments import calibration
from repro.experiments.common import ClusterConfig, build_cluster, run_workload
from repro.experiments.parallel_runner import add_jobs_argument, parallel_map
from repro.metrics import MetricsCollector
from repro.metrics.summary import PercentileSummary, cdf_points, percentile
from repro.net import StarTopology
from repro.sim.core import Simulator, ms, us
from repro.sim.rng import RngStreams
from repro.switchsim import ProgrammableSwitch
from repro.workloads import (
    GoogleTraceConfig, bimodal, exponential, fixed, google_like, locality_workload,
    noop_fountain, open_loop, rate_for_utilization, resource_phases_workload, trimodal,
)
from repro.workloads.resources import GROUP_RESOURCES
from repro.workloads.synthetic import heavy_tailed

Row = Dict[str, Any]
Rows = List[Row]
TEST, SMOKE, REPORT, BENCH = SCALES = ("test", "smoke", "report", "bench")
TB = (TEST, BENCH)


@dataclass(frozen=True)
class Pred:
    """One expected shape: ``value(rows) <op> threshold``, judged at ``scales``."""

    name: str
    value: Callable[[Rows], float]
    op: str  # "<", "<=", ">", ">=" or "=="
    threshold: float
    scales: Tuple[str, ...] = (BENCH,)
    deviation: bool = False  # a paper claim this model does not reproduce


class Chart(NamedTuple):
    """Draw ``y`` over ``x`` per ``series``, one chart per ``panel`` value;
    ``x="cdf"`` draws each series' CDF column instead."""

    x: str
    y: str = ""
    series: str = "system"
    panel: Optional[str] = None


@dataclass(frozen=True)
class Figure:
    """One paper table or figure: what to sweep, at what size, and its shape."""

    name: str
    title: str
    cell: Callable[..., Any]  # (figure, **point, **knobs) -> row or rows
    axes: Tuple[str, ...]  # swept outermost first; "system" defaults to all
    columns: Tuple[str, ...]  # measured columns each row keeps
    scales: Dict[str, Any]  # scale -> axis values and knobs (or a list of them)
    checks: Tuple[Pred, ...] = ()
    systems: Optional[Dict[str, dict]] = None
    chart: Optional[Chart] = None


# ---------------------------------------------------------------- runner


def points(fig: Figure, scale: str) -> List[Tuple[Row, dict]]:
    """The (axis point, knobs) pairs of one figure at one scale, in run order."""
    inputs = fig.scales[scale]
    out = []
    for spec in inputs if isinstance(inputs, list) else [inputs]:
        knobs = dict(spec)
        if "system" in fig.axes:
            knobs.setdefault("system", tuple(fig.systems or ()))
        values = [knobs.pop(axis) for axis in fig.axes]
        out += [(dict(zip(fig.axes, combo)), knobs) for combo in product(*values)]
    return out


def _run_cell(item: Tuple[str, Row, dict]) -> Any:
    name, point, knobs = item
    return FIGURES[name].cell(FIGURES[name], **point, **knobs)


def run(fig: Figure, scale: str, jobs: Optional[int] = 1) -> Rows:
    """Every row of ``fig`` at ``scale``; cells fan out over ``jobs`` processes."""
    cells = points(fig, scale)
    results = parallel_map(_run_cell, [(fig.name, p, k) for p, k in cells], jobs)
    rows = []
    for (point, _), result in zip(cells, results):
        for measured in result if isinstance(result, list) else [result]:
            merged = {**point, **measured}
            rows.append({k: merged[k] for k in fig.axes + fig.columns if k in merged})
    return rows


class Verdict(NamedTuple):
    """One predicate judged on one figure's rows."""

    figure: str
    pred: Pred
    value: Optional[float]  # None: rows missing, a zero divisor, or NaN
    margin: Optional[float]  # signed distance from the threshold, > 0 holds

    @property
    def ok(self) -> bool:
        if self.margin is None:
            return False
        holds = self.margin > 0 or (self.margin == 0 and self.pred.op not in ("<", ">"))
        return holds != self.pred.deviation


def check(fig: Figure, rows: Rows, scale: str) -> List[Verdict]:
    """Judge every predicate of ``fig`` that applies at ``scale``."""
    verdicts = []
    for pred in (p for p in fig.checks if scale in p.scales):
        try:
            value: Optional[float] = float(pred.value(rows))
        except (LookupError, ZeroDivisionError):
            value = None
        if value is None or math.isnan(value):
            verdicts.append(Verdict(fig.name, pred, None, None))
            continue
        gap = value - pred.threshold
        margin = gap if ">" in pred.op else -gap if "<" in pred.op else -abs(gap)
        verdicts.append(Verdict(fig.name, pred, value, margin + 0.0))  # no "-0"
    return verdicts


def format_checks(verdicts: Sequence[Verdict]) -> str:
    """A markdown table: each predicate's value, threshold and signed margin."""
    lines = ["| figure | predicate | value | op | threshold | margin | verdict |",
             "|---|---|---:|---|---:|---:|---|"]
    for v in verdicts:
        value = margin = "-"
        if v.margin is not None:
            value, margin = f"{v.value:.4g}", f"{v.margin:+.4g}"
            if v.pred.threshold:
                margin += f" ({v.margin / abs(v.pred.threshold):+.0%})"
        verdict = "ok" if v.ok else "FAIL" if v.margin is not None else "FAIL: no value"
        if v.pred.deviation and v.margin is not None:
            verdict = "deviation, as documented" if v.ok else "FAIL: deviation now holds"
        lines.append(f"| {v.figure} | {v.pred.name} | {value} | {v.pred.op} | "
                     f"{v.pred.threshold:g} | {margin} | {verdict} |")
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, (tuple, list)):
        return "/".join(map(_fmt, value))
    if isinstance(value, float):
        return f"{value:,.0f}" if abs(value) >= 1e5 else f"{value:.4g}"
    return str(value)


def format_table(fig: Figure, rows: Rows) -> str:
    """The rows as an aligned text table (CDF columns are left to the chart)."""
    keys = [k for k in fig.axes + fig.columns if k != "cdf" and any(k in r for r in rows)]
    cells = [keys] + [[_fmt(r.get(k, "-")) for k in keys] for r in rows]
    widths = [max(len(line[i]) for line in cells) for i in range(len(keys))]
    return "\n".join([fig.title] + ["  ".join(
        c.rjust(w) for c, w in zip(line, widths)) for line in cells])


def render_chart(fig: Figure, rows: Rows) -> str:
    """The figure as ASCII charts (log-y lines, or CDFs); "" if it has none."""
    from repro.viz import cdf_chart, line_chart

    spec, out = fig.chart, []
    if spec is None:
        return ""
    for panel in sorted({r[spec.panel] for r in rows}) if spec.panel else [None]:
        chosen = [r for r in rows if panel is None or r[spec.panel] == panel]
        title = fig.name + (f" [{panel}]" if panel else "")
        if spec.x == "cdf":
            out.append(cdf_chart({r[spec.series]: r["cdf"] for r in chosen}, title=f"{title} CDF"))
            continue
        series: Dict[str, list] = {}
        for r in chosen:
            series.setdefault(r[spec.series], []).append((r[spec.x], r[spec.y]))
        out.append(line_chart(series, log_y=True, x_label=spec.x, y_label=spec.y,
                              title=f"{title} {spec.y} vs {spec.x} (log y)"))
    return "\n\n".join(out)


# ------------------------------------------------- predicate value helpers


def _col(rows: Rows, col: str, *key: Any, **where: Any) -> List[Any]:
    """``col`` of every row whose leading axis values are ``key`` and whose
    columns match ``where``; LookupError if no row does."""
    hits = [r[col] for r in rows if col in r and tuple(r.values())[:len(key)] == key
            and all(r.get(k) == v for k, v in where.items())]
    if not hits:
        raise LookupError(f"no row at {key} {where}")
    return hits


def at(col: str, *key: Any, **where: Any) -> Callable[[Rows], Any]:
    """``col`` of the one row at ``key`` and ``where`` (see :func:`_col`)."""
    def value(rows: Rows) -> Any:
        hits = _col(rows, col, *key, **where)
        if len(hits) > 1:
            raise LookupError(f"{len(hits)} rows at {key} {where}")
        return hits[0]
    return value


def most(col: str, *key: Any, **where: Any) -> Callable[[Rows], Any]:
    return lambda rows: max(_col(rows, col, *key, **where))


def least(col: str, *key: Any, **where: Any) -> Callable[[Rows], Any]:
    return lambda rows: min(_col(rows, col, *key, **where))


def over(a: Callable, b: Any) -> Callable[[Rows], float]:
    """``a / b``; ``b`` is a row function or a constant."""
    return lambda rows: a(rows) / (b(rows) if callable(b) else b)


def minus(a: Callable, b: Callable) -> Callable[[Rows], float]:
    return lambda rows: a(rows) - b(rows)


def each(axis: str, fn: Callable[[Any], Callable], pick: Callable = min) -> Callable:
    """``pick`` (min or max) of ``fn(v)(rows)`` over each value ``v`` of ``axis``."""
    return lambda rows: pick(fn(v)(rows) for v in dict.fromkeys(_col(rows, axis)))


# ----------------------------------------------------------------- cells


def _open_loop(overrides: dict, utilization: float, sampler, duration_ns: int, seed: int,
               warmup_ns: Optional[int] = None, drain_ns: int = ms(5)):
    """One Poisson open-loop run at a target utilization: (offered rate, result).
    The warm-up defaults to the first eighth of the run."""
    config = ClusterConfig(seed=seed, **overrides)
    rate = rate_for_utilization(utilization, config.total_executors, sampler.mean_ns)

    def factory(rngs):
        return open_loop(rngs.stream("arrivals"), rate, sampler, duration_ns)

    warmup = duration_ns // 8 if warmup_ns is None else warmup_ns
    return rate, run_workload(config, factory, duration_ns=duration_ns, warmup_ns=warmup,
                              drain_ns=drain_ns)


def _open_loop_cell(fig: Figure, system: str, utilization: float, duration_ns: int,
                    task_us: float = 500.0, workload: Optional[str] = None, seed: int = 0) -> Row:
    """Figs. 5a, 6-8 and the retrieve ablation: fixed or suite task durations."""
    sampler = WORKLOADS[workload]() if workload else fixed(task_us)
    rate, result = _open_loop(fig.systems[system], utilization, sampler, duration_ns, seed)
    tail = PercentileSummary.from_ns(result.scheduling_delays_ns)
    return dict(
        offered_tps=rate, p50_us=tail.p50_us, p99_us=tail.p99_us, p999_us=tail.p999_us,
        completed=result.tasks_completed, submitted=result.tasks_submitted,
        recirculation_fraction=result.recirculation_fraction,
        recirc_packet_drops=result.recirc_dropped,
        dropped=result.recirc_dropped > 0,  # the paper's yellow markers
        task_drop_fraction=result.resubmissions / max(1, result.tasks_submitted),
    )


#: Fig. 5b supply ceilings (tasks/s): feeding far beyond a server's receive
#: ring only tail-drops responses, so each sits just under the capacity.
SUPPLY_CAP = {"draconis-dpdk": 1_060_000, "draconis-socket": 153_000,
              "1-sparrow": 500_000, "2-sparrow": 1_000_000}


def _noop_cell(fig: Figure, system: str, executors: int, duration_ns: int, seed: int = 0) -> Row:
    """No-op executors fed ~1.3x their drain rate: the scheduler is the bottleneck."""
    workers = max(1, executors // 16)
    config = ClusterConfig(
        seed=seed, workers=workers, executors_per_worker=executors // workers,
        queue_capacity=1 << 15, tasks_per_packet=1,  # one task per packet, as in §8
        **fig.systems[system],
    )
    batch, drain_tps = 8, 1.3 * config.total_executors / 2.6e-6  # one no-op per ~RTT
    if system in SUPPLY_CAP:
        drain_tps = min(drain_tps, SUPPLY_CAP[system])
    interval_ns = max(50, int(batch / drain_tps * 1e9))
    result = run_workload(
        config, lambda rngs: noop_fountain(duration_ns, batch=batch, interval_ns=interval_ns),
        duration_ns=duration_ns, warmup_ns=duration_ns // 4, drain_ns=0,
    )
    return dict(executors=config.total_executors, throughput_tps=result.throughput_tps)


def _trace_cell(fig: Figure, system: str, duration_ns: int, mean_rate_tps: float,
                seed: int = 0) -> Row:
    """The google-like trace at 500 us mean (the paper's trace; DESIGN.md)."""
    trace = GoogleTraceConfig(mean_duration_ns=us(500), target_rate_tps=mean_rate_tps,
                              horizon_ns=duration_ns)
    config = ClusterConfig(seed=seed, timeout_factor=calibration.CLIENT_TIMEOUT_FACTOR,
                           queue_capacity=1 << 16, **fig.systems[system])
    result = run_workload(
        config, lambda rngs: google_like(rngs.stream("google-trace"), trace),
        duration_ns=duration_ns, warmup_ns=duration_ns // 8, drain_ns=ms(20),
    )
    delays = result.scheduling_delays_ns
    tail = PercentileSummary.from_ns(delays)
    return dict(
        p50_us=tail.p50_us, p95_us=percentile(delays, 95) / 1e3, p99_us=tail.p99_us,
        p999_us=tail.p999_us, cdf=cdf_points(delays, points=100),
        task_drop_fraction=result.resubmissions / max(1, result.tasks_submitted),
    )


def _locality_cell(fig: Figure, policy: str, duration_ns: int,
                   limits: Tuple[int, int] = (3, 9), seed: int = 0) -> Row:
    """9 nodes in 3 racks, 100 us tasks each local to one node; locality or FCFS."""
    workers, racks = 9, 3
    node_racks = ClusterConfig(workers=workers, racks=racks, seed=seed).node_racks()
    config = ClusterConfig(
        workers=workers, racks=racks, seed=seed,
        locality_cost=LocalityCostModel(node_racks=node_racks),
        policy=LocalityPolicy(node_racks, rack_start_limit=limits[0],
                              global_start_limit=limits[1]) if policy == "locality" else None,
    )
    # 0.42 of the pure 100 us execution time keeps FCFS (~180 us per task
    # with mostly-remote data access) below saturation, as Fig. 10 plots.
    rate = rate_for_utilization(0.42, config.total_executors, us(100))
    result = run_workload(
        config,
        lambda rngs: locality_workload(rngs.stream("locality"), node_ids=list(range(workers)),
                                       rate_tps=rate, horizon_ns=duration_ns),
        duration_ns=duration_ns, warmup_ns=duration_ns // 8,
    )
    placed = result.placements
    return dict(
        node_local=placed.get("node", 0.0), rack_local=placed.get("rack", 0.0),
        remote=placed.get("remote", 0.0), e2e_p50_us=result.end_to_end.p50_us,
        e2e_p66_us=percentile(result.end_to_end_ns, 66) / 1e3,
        e2e_p95_us=result.end_to_end.p95_us, cdf=cdf_points(result.end_to_end_ns, points=100),
    )


def _group_of(node_id: int, workers: int = 9) -> str:
    return ("G1", "G2", "G3")[node_id * 3 // workers]


def _phases_cell(fig: Figure, phase_ns: int, buckets_per_phase: int = 6, seed: int = 0) -> Rows:
    """Per-node throughput by group, 9 nodes x 8 executors, 250 us tasks at 0.5
    of all executors: phase B then runs G2+G3 at 0.75 and phase C overloads
    G3 at 1.5, so its backlog drains after the last submission."""
    config = ClusterConfig(
        scheduler="draconis", workers=9, executors_per_worker=8, seed=seed,
        policy=ResourcePolicy(max_swaps=24),
        exec_rsrc_for_node=lambda node_id: GROUP_RESOURCES[_group_of(node_id)],
    )
    rngs = RngStreams(seed)
    events = list(resource_phases_workload(
        rngs.stream("resources"), rate_tps=0.5 * config.total_executors / (250.0 * 1e-6),
        phase_ns=phase_ns, duration_ns=us(250.0),
    ))
    handles = build_cluster(config, [events], rngs=rngs)
    handles.sim.run(until=4 * phase_ns)  # three phases, then one to drain G3
    bucket_ns = phase_ns // buckets_per_phase
    n_buckets = 4 * phase_ns // bucket_ns
    counts = {g: [0] * n_buckets for g in ("G1", "G2", "G3")}
    for record in handles.collector.records.values():
        if record.finished_at >= 0 and record.node_id >= 0:
            bucket = min(int(record.finished_at // bucket_ns), n_buckets - 1)
            counts[_group_of(record.node_id)][bucket] += 1
    seconds = bucket_ns / 1e9
    return [dict(bucket_start_ns=b * bucket_ns,  # three nodes per group
                 **{f"{g.lower()}_tps": counts[g][b] / seconds / 3 for g in counts})
            for b in range(n_buckets)]


def _priority_cell(fig: Figure, policy: str, duration_ns: int, mean_task_ns: int,
                   workers: int, executors_per_worker: int, seed: int = 0) -> Rows:
    """Queueing delay per level (0 = priority-unaware FCFS) on the trace with
    4 levels, offered at 1.3x capacity so queues build as in the paper."""
    rate = 1.3 * workers * executors_per_worker / (mean_task_ns / 1e9)
    trace = GoogleTraceConfig(mean_duration_ns=mean_task_ns, target_rate_tps=rate,
                              horizon_ns=duration_ns, with_priorities=True, draconis_levels=4)
    config = ClusterConfig(
        scheduler="draconis", workers=workers, executors_per_worker=executors_per_worker,
        seed=seed, policy=PriorityPolicy(levels=4) if policy == "priority" else None,
        queue_capacity=1 << 16, record_queue_delays=True,
    )
    result = run_workload(
        config, lambda rngs: google_like(rngs.stream("google-5ms"), trace),
        duration_ns=duration_ns, warmup_ns=duration_ns // 8, drain_ns=ms(50),
    )
    by_level: Dict[int, List[int]] = {}
    for queue, delay in result.queue_delays:
        by_level.setdefault(queue + 1 if policy == "priority" else 0, []).append(delay)
    return [dict(priority=level, count=len(delays),
                 queueing_p50_us=percentile(delays, 50) / 1e3,
                 queueing_p99_us=percentile(delays, 99) / 1e3)
            for level, delays in sorted(by_level.items())]


def _gettask_cell(fig: Figure, priority: int, duration_ns: int,
                  queues_in_stages: bool = False, seed: int = 0) -> Row:
    """get_task() round trips, 4 x 8 executors, 100 us tasks at 0.6 load, when
    every task carries ``priority`` (4 levels; level L recirculates L-1 times)."""
    config = ClusterConfig(
        scheduler="draconis", workers=4, executors_per_worker=8, seed=seed,
        policy=PriorityPolicy(levels=4), record_pull_rtts=True,
        queues_in_stages=queues_in_stages,
    )
    sampler = fixed(100.0)
    rate = rate_for_utilization(0.6, config.total_executors, sampler.mean_ns)
    rngs = RngStreams(seed)
    events = list(open_loop(rngs.stream("arrivals"), rate, sampler, duration_ns,
                            tprops_for=lambda _rng, _dur: priority))
    handles = build_cluster(config, [events], rngs=rngs)
    handles.sim.run(until=duration_ns + ms(2))
    rtts = [rtt for worker in handles.workers for executor in worker.executors
            for rtt in executor.stats.pull_rtts_ns or ()]
    return dict(pulls=len(rtts), p50_us=percentile(rtts, 50) / 1e3,
                p90_us=percentile(rtts, 90) / 1e3)


def _rtt_cell(fig: Figure, propagation_ns: int, duration_ns: int, seed: int = 0) -> Row:
    """A star of 4 x 8 executors at a host<->switch propagation delay, 100 us
    tasks at 0.85 load: one pull RTT of idle executor time per task."""
    sim = Simulator()
    switch = ProgrammableSwitch(sim, DraconisProgram(queue_capacity=4096))
    topology = StarTopology(sim, switch, propagation_ns=propagation_ns)
    collector = MetricsCollector()
    nodes = [Worker(sim, topology, WorkerSpec(node_id=n, executors=8),
                    scheduler=switch.service_address, collector=collector,
                    config=ExecutorConfig(record_pull_rtts=True), executor_id_base=n * 8)
             for n in range(4)]
    sampler = fixed(100.0)
    rate = rate_for_utilization(0.85, 32, sampler.mean_ns)
    Client(sim, topology.add_host("client0"), uid=0, scheduler=switch.service_address,
           workload=open_loop(RngStreams(seed).stream("arrivals"), rate, sampler, duration_ns),
           collector=collector, config=ClientConfig())
    sim.run(until=duration_ns + ms(5))
    executors = [e for node in nodes for e in node.executors]
    pull_idle = sum(e.stats.idle_pull_time_ns for e in executors)
    busy = sum(e.stats.busy_time_ns for e in executors)
    rtts = [rtt for e in executors for rtt in e.stats.pull_rtts_ns or ()]
    return dict(
        pull_rtt_p50_us=percentile(rtts, 50) / 1e3,
        efficiency_loss=pull_idle / max(1, pull_idle + busy),
        sched_delay_p50_us=percentile(collector.scheduling_delays(), 50) / 1e3,
    )


def _scalability_cell(fig: Figure, model: str, cores: int, duration_ns: int = 0,
                      seed: int = 0) -> Row:
    """The packet-budget model at 500 us tasks, or a DES spot check at 0.8 load."""
    if model == "analytic":
        (point,) = scalability_sweep([cores], task_duration_ns=us(500.0))
        return dict(task_rate_tps=point.task_rate_tps, feasible=point.feasible,
                    switch_packet_load=point.switch_packet_load,
                    ceiling_cores=max_cluster_cores(task_duration_ns=us(500.0)))
    workers = max(1, cores // 16)
    draconis = dict(scheduler="draconis", workers=workers, executors_per_worker=cores // workers)
    rate, result = _open_loop(draconis, 0.8, fixed(500.0), duration_ns, seed)
    return dict(cores=result.config.total_executors, offered_tps=rate,
                achieved_tps=result.throughput_tps, efficiency=result.throughput_tps / rate)


def _budget_cell(fig: Figure) -> Rows:
    """The §7 capacity table from the entry layout and per-stage SRAM budgets."""
    return [dict(model=r.model, queue_capacity=r.queue_capacity,
                 paper_queue_capacity=r.paper_queue_capacity, capacity_error=r.capacity_error(),
                 priority_levels=r.priority_levels, paper_priority_levels=r.paper_priority_levels,
                 paper_queue_fits=declared_queue_fits(r.model, r.paper_queue_capacity))
            for r in budget_report()]


def _intra_node_cell(fig: Figure, workload: str, policy: str, duration_ns: int,
                     seed: int = 3) -> Row:
    """RackSched, 4 x 4 executors at 0.55 load, intra-node cFCFS or Processor
    Sharing, on a bounded-Pareto (alpha 1.6) or a fixed 200 us workload."""
    heavy = workload == "heavy"
    sampler = heavy_tailed(mean_us=200, alpha=1.6, cap_us=10_000) if heavy else fixed(200)
    racksched = dict(scheduler="racksched", workers=4, executors_per_worker=4,
                     racksched_processor_sharing=policy == "ps")
    _, result = _open_loop(racksched, 0.55, sampler, duration_ns, seed, ms(10), ms(30))
    return dict(sched_p99_us=result.scheduling.p99_us, e2e_p99_us=result.end_to_end.p99_us,
                unfinished=result.tasks_unfinished)


# ------------------------------------------------------------- the table

#: Fig. 6's synthetic suite (§8); built per run, so each gets fresh samplers
WORKLOADS = {
    "100us": lambda: fixed(100), "250us": lambda: fixed(250), "500us": lambda: fixed(500),
    "bimodal": bimodal, "trimodal": trimodal, "exponential": lambda: exponential(250),
}
TIMEOUT = dict(timeout_factor=calibration.CLIENT_TIMEOUT_FACTOR)
DRACONIS, RACKSCHED = dict(scheduler="draconis"), dict(scheduler="racksched")
DPDK, SOCKET = dict(scheduler="draconis-dpdk"), dict(scheduler="draconis-socket")
SPARROW_1 = dict(scheduler="sparrow", sparrow_schedulers=1)
SPARROW_2 = dict(scheduler="sparrow", sparrow_schedulers=2, clients=2)


def r2p2(k: int, **extra: Any) -> dict:
    return dict(scheduler="r2p2", jbsq_k=k, **extra)


def sized(*per_scale: Any) -> Dict[str, Any]:
    """Inputs for the test, smoke, report and bench scales, in that order."""
    return dict(zip(SCALES, per_scale))


def span(system: str) -> Callable[[Rows], float]:
    """Throughput at the most executors over throughput at the fewest."""
    def value(rows: Rows) -> float:
        mine = sorted((r["executors"], r["throughput_tps"]) for r in rows if r["system"] == system)
        if len(mine) < 2:
            raise LookupError(f"fewer than two executor counts for {system}")
        return mine[-1][1] / mine[0][1]
    return value


def phase(index: int, cols: Sequence[str], pick: Callable = min) -> Callable[[Rows], float]:
    """``pick`` of ``cols`` over Fig. 11's submission phase ``index``, less its
    first bucket: tasks admitted before a phase switch finish just after it."""
    def value(rows: Rows) -> float:
        per = len(rows) // 4
        return pick(row[c] for row in rows[index * per:(index + 1) * per][1:] for c in cols)
    return value


def spread(rows: Rows) -> float:
    return max(_col(rows, "p50_us")) - min(_col(rows, "p50_us"))


def steps(pick: Callable) -> Callable[[Rows], float]:
    return lambda r: pick(b - a for a, b in zip(_col(r, "p50_us"), _col(r, "p50_us")[1:]))


def on_target(rows: Rows) -> float:
    return min(n + k for n, k in zip(_col(rows, "node_local"), _col(rows, "rack_local")))


P99 = {s: at("p99_us", s, 0.6) for s in ("draconis", "racksched", "r2p2-3", "draconis-dpdk",
                                          "1-sparrow", "draconis-socket")}  # fig5a at 60 %
TPUT = {s: at("throughput_tps", s, 208) for s in ("draconis", "draconis-dpdk",
                                                  "draconis-socket", "1-sparrow", "2-sparrow")}
LEVEL = {n: at("queueing_p50_us", priority=n) for n in range(5)}  # fig12; 0 = FCFS
R2P2_1 = {u: at("recirculation_fraction", "r2p2-1", u) for u in (0.825, 0.93)}  # fig7


FIGURE_LIST = [
    # Paper: Draconis ~4.7 us p99 until saturation; RackSched ~3x, DPDK server
    # ~20x, R2P2 ~120x (pinned at the 500 us service), Sparrow ~200x.
    Figure(
        "fig5a", "Figure 5a — p99 scheduling delay vs load, 500 us tasks", _open_loop_cell,
        ("system", "utilization"),
        ("offered_tps", "p99_us", "p50_us", "completed", "submitted", "p999_us"),
        sized(dict(system=("draconis", "draconis-socket"), utilization=(0.6,), duration_ns=ms(25)),
              dict(utilization=(0.4, 0.8), duration_ns=ms(20)),
              dict(utilization=(0.2, 0.4, 0.6, 0.8, 0.9), duration_ns=ms(60)),
              dict(utilization=(0.4, 0.6, 0.8), duration_ns=ms(50))),
        (
            Pred("draconis_p99_under_50us", most("p99_us", "draconis"), "<", 50),
            Pred("socket_over_3x_draconis", over(P99["draconis-socket"], P99["draconis"]),
                 ">", 3, TB),
            Pred("socket_over_20x_draconis", over(P99["draconis-socket"], P99["draconis"]),
                 ">", 20),
            Pred("r2p2_over_10x_draconis", over(P99["r2p2-3"], P99["draconis"]), ">", 10),
            Pred("sparrow_over_30x_draconis", over(P99["1-sparrow"], P99["draconis"]), ">", 30),
            Pred("racksched_not_below_draconis", minus(P99["racksched"], P99["draconis"]), ">=", 0),
            Pred("r2p2_not_below_racksched", minus(P99["r2p2-3"], P99["racksched"]), ">=", 0),
            Pred("sparrow_not_below_r2p2", minus(P99["1-sparrow"], P99["r2p2-3"]), ">=", 0),
            # Known deviations 1, 2 and 4 (EXPERIMENTS.md)
            Pred("dpdk_20x_draconis", over(P99["draconis-dpdk"], P99["draconis"]), ">=", 20,
                 deviation=True),
            Pred("racksched_3x_draconis", over(P99["racksched"], P99["draconis"]), ">=", 3,
                 deviation=True),
            Pred("sparrow_200x_draconis", over(P99["1-sparrow"], P99["draconis"]), ">=", 200,
                 deviation=True),
        ),
        systems={"draconis": DRACONIS, "racksched": RACKSCHED, "r2p2-3": r2p2(3),
                 "draconis-dpdk": DPDK, "1-sparrow": SPARROW_1, "2-sparrow": SPARROW_2,
                 "draconis-socket": SOCKET},
        chart=Chart("offered_tps", "p99_us"),
    ),
    # Paper: Draconis linear to 58 M decisions/s at 208 executors; DPDK server
    # ~1.1 M (52x less), Sparrow ~500 k / ~900 k, sockets ~160 k.
    Figure(
        "fig5b", "Figure 5b — scheduling throughput, no-op workload", _noop_cell,
        ("system", "executors"), ("throughput_tps",),
        sized(dict(system=("draconis", "draconis-dpdk"), executors=(8, 32), duration_ns=us(1500)),
              dict(executors=(16, 96), duration_ns=ms(6)),
              dict(executors=(16, 48, 96, 160, 208), duration_ns=ms(10)),
              dict(executors=(16, 96, 208), duration_ns=ms(10))),
        (
            Pred("draconis_scales_2_5x", span("draconis"), ">", 2.5, TB),
            Pred("draconis_scales_4x", span("draconis"), ">", 4),
            Pred("draconis_over_40mtps", TPUT["draconis"], ">", 40e6),
            Pred("dpdk_flat_within_1_5x", span("draconis-dpdk"), "<", 1.5, TB),
            Pred("dpdk_flat_within_1_3x", span("draconis-dpdk"), "<", 1.3),
            Pred("dpdk_ceiling_over_0_7m", TPUT["draconis-dpdk"], ">", 0.7e6),
            Pred("dpdk_ceiling_under_1_6m", TPUT["draconis-dpdk"], "<", 1.6e6),
            Pred("socket_ceiling_under_0_25m", TPUT["draconis-socket"], "<", 0.25e6),
            Pred("sparrow_ceiling_over_0_3m", TPUT["1-sparrow"], ">", 0.3e6),
            Pred("sparrow_ceiling_under_0_8m", TPUT["1-sparrow"], "<", 0.8e6),
            Pred("two_sparrows_over_1_35x_one", over(TPUT["2-sparrow"], TPUT["1-sparrow"]),
                 ">", 1.35),
            Pred("draconis_over_20x_dpdk", over(TPUT["draconis"], TPUT["draconis-dpdk"]), ">", 20),
        ),
        systems={"draconis": DRACONIS, "draconis-dpdk": DPDK, "draconis-socket": SOCKET,
                 "1-sparrow": SPARROW_1, "2-sparrow": SPARROW_2},
        chart=Chart("executors", "throughput_tps"),
    ),
    # Paper: Draconis 4.7-20 us p99 on every workload; R2P2's tail equals the
    # service time from 30-40 % load; RackSched above Draconis.
    Figure(
        "fig6", "Figure 6 — p99 scheduling delay, synthetic workload suite", _open_loop_cell,
        ("workload", "system", "utilization"), ("p50_us", "p99_us", "p999_us"),
        sized(dict(workload=("100us",), system=("draconis", "r2p2-3"), utilization=(0.5,),
                   duration_ns=ms(10)),
              dict(workload=("250us", "bimodal"), utilization=(0.5, 0.9), duration_ns=ms(20)),
              dict(workload=tuple(WORKLOADS), utilization=(0.3, 0.5, 0.7, 0.9), duration_ns=ms(50)),
              dict(workload=tuple(WORKLOADS), utilization=(0.5, 0.9), duration_ns=ms(40))),
        (
            Pred("draconis_under_60us_at_50pct", each(
                "workload", lambda w: at("p99_us", w, "draconis", 0.5), max), "<", 60, TB),
            Pred("r2p2_over_half_service_at_50pct", each("workload", lambda w: over(
                at("p99_us", w, "r2p2-3", 0.5), WORKLOADS[w]().mean_ns / 1e3)), ">", 0.5, TB),
            Pred("r2p2_over_5x_draconis_at_50pct", each("workload", lambda w: over(
                at("p99_us", w, "r2p2-3", 0.5), at("p99_us", w, "draconis", 0.5))), ">", 5, TB),
        ),
        systems={"draconis": DRACONIS, "racksched": RACKSCHED, "r2p2-3": r2p2(3),
                 "draconis-dpdk": DPDK},
        chart=Chart("utilization", "p99_us", panel="workload"),
    ),
    # Paper: R2P2-1 recirculates ~50 % of packets at 93 % load and ~75 % at
    # 97 %, dropping tasks; R2P2-3 ~0; Draconis 0.02-0.05 % and no drops.
    Figure(
        "fig7", "Figure 7 — recirculation and drops, 250 us tasks", _open_loop_cell,
        ("system", "utilization"),
        ("recirculation_fraction", "recirc_packet_drops", "task_drop_fraction", "p99_us"),
        sized(dict(system=("r2p2-1", "draconis"), utilization=(0.93,), duration_ns=ms(25),
                   task_us=250.0),
              dict(utilization=(0.93,), duration_ns=ms(25), task_us=250.0),
              dict(utilization=(0.825, 0.875, 0.93, 0.975), duration_ns=ms(60), task_us=250.0),
              dict(utilization=(0.825, 0.93, 0.975), duration_ns=ms(50), task_us=250.0)),
        (
            Pred("r2p2_1_recirc_over_30pct_at_93", R2P2_1[0.93], ">", 0.3, TB),
            Pred("r2p2_1_recirc_over_35pct_at_93", R2P2_1[0.93], ">", 0.35),
            Pred("r2p2_1_recirc_under_95pct_at_93", R2P2_1[0.93], "<", 0.95),
            Pred("r2p2_1_recirc_grows_with_load", minus(R2P2_1[0.93], R2P2_1[0.825]), ">", 0),
            Pred("r2p2_1_drops_at_high_load", lambda r: max(
                at("recirc_packet_drops", "r2p2-1", u)(r) for u in (0.93, 0.975)), ">", 0),
            Pred("r2p2_3_recirc_under_5pct_at_82", at("recirculation_fraction", "r2p2-3", 0.825),
                 "<", 0.05),
            Pred("r2p2_3_recirc_under_8pct_at_93", at("recirculation_fraction", "r2p2-3", 0.93),
                 "<", 0.08),
            Pred("draconis_recirc_under_1pct", most("recirculation_fraction", "draconis"),
                 "<", 0.01, TB),
            Pred("draconis_recirc_under_0_5pct", most("recirculation_fraction", "draconis"),
                 "<", 0.005),
            Pred("draconis_no_recirc_drops", most("recirc_packet_drops", "draconis"), "<=", 0),
            Pred("draconis_task_drops_under_1pct", most("task_drop_fraction", "draconis"),
                 "<", 0.01),
            # Known deviation 5: drops past the onset are steeper than the paper's 9 %
            Pred("r2p2_1_task_drops_near_paper_at_93", at("task_drop_fraction", "r2p2-1", 0.93),
                 "<=", 0.10, deviation=True),
        ),
        systems={"r2p2-1": r2p2(1, **TIMEOUT), "r2p2-3": r2p2(3, **TIMEOUT),
                 "draconis": dict(DRACONIS, **TIMEOUT)},
    ),
    # Paper: R2P2-1 matches Draconis at low load but drops tasks as load grows;
    # R2P2-3 never drops but its tail is the service time from 30-40 % load.
    Figure(
        "fig8", "Figure 8 — R2P2 JBSQ size vs Draconis", _open_loop_cell,
        ("task_us", "system", "utilization"), ("p99_us", "dropped", "task_drop_fraction"),
        sized(dict(task_us=(250.0,), system=("draconis", "r2p2-3"), utilization=(0.6,),
                   duration_ns=ms(30)),
              dict(task_us=(100.0, 250.0), utilization=(0.5, 0.93), duration_ns=ms(25)),
              dict(task_us=(100.0, 250.0), utilization=(0.3, 0.5, 0.7, 0.82, 0.93),
                   duration_ns=ms(50)),
              dict(task_us=(100.0, 250.0), utilization=(0.3, 0.5, 0.93), duration_ns=ms(40))),
        (
            Pred("r2p2_3_over_0_2x_service", over(at("p99_us", 250.0, "r2p2-3", 0.6), 250.0),
                 ">=", 0.2, (TEST,)),
            Pred("r2p2_3_under_1_8x_service", over(at("p99_us", 250.0, "r2p2-3", 0.6), 250.0),
                 "<=", 1.8, (TEST,)),
            Pred("draconis_p99_under_60us", most("p99_us", system="draconis"), "<", 60, (TEST,)),
            Pred("r2p2_1_low_load_within_6x_draconis", each("task_us", lambda t: lambda r: at(
                "p99_us", t, "r2p2-1", 0.3)(r) / max(at("p99_us", t, "draconis", 0.3)(r), 5.0),
                max), "<", 6),
            Pred("r2p2_3_over_half_service_at_50pct", each(
                "task_us", lambda t: over(at("p99_us", t, "r2p2-3", 0.5), t)), ">", 0.5),
            Pred("draconis_never_drops", most("dropped", system="draconis"), "<=", 0),
            Pred("r2p2_1_drops_at_93pct", most("dropped", system="r2p2-1", utilization=0.93),
                 ">", 0),
        ),
        systems={"draconis": dict(DRACONIS, **TIMEOUT), "r2p2-1": r2p2(1, **TIMEOUT),
                 "r2p2-3": r2p2(3, **TIMEOUT)},
    ),
    # Paper (accelerated Google trace, 500 us mean): medians Draconis 4.18 us,
    # R2P2-5 5.2 us, RackSched 5.83 us, DPDK server ~2.1 s; R2P2-1 drops 6.3 %.
    Figure(
        "fig9", "Figure 9 — scheduling delay on the google-like trace, 500 us mean",
        _trace_cell, ("system",),
        ("p50_us", "p95_us", "p99_us", "task_drop_fraction", "cdf", "p999_us"),
        sized(dict(system=("draconis", "racksched"), duration_ns=ms(10), mean_rate_tps=120e3),
              dict(duration_ns=ms(40), mean_rate_tps=120e3),
              dict(duration_ns=ms(80), mean_rate_tps=150e3),
              dict(system=("draconis", "racksched", "r2p2-1", "r2p2-3", "r2p2-5",
                           "draconis-dpdk"), duration_ns=ms(60), mean_rate_tps=150e3)),
        (
            Pred("draconis_p50_under_15us", at("p50_us", "draconis"), "<", 15, TB),
            Pred("racksched_p50_under_20us", at("p50_us", "racksched"), "<", 20, TB),
            Pred("draconis_p95_below_r2p2_3", minus(at("p95_us", "r2p2-3"),
                                                    at("p95_us", "draconis")), ">", 0),
            Pred("draconis_p99_below_r2p2_3", minus(at("p99_us", "r2p2-3"),
                                                    at("p99_us", "draconis")), ">", 0),
            Pred("racksched_p99_within_3x_draconis", over(at("p99_us", "racksched"),
                                                          at("p99_us", "draconis")), "<", 3),
            Pred("r2p2_1_drops_over_2pct", at("task_drop_fraction", "r2p2-1"), ">", 0.02),
            # Known deviation 3, and the DPDK server's collapse (EXPERIMENTS.md)
            Pred("draconis_p50_below_r2p2_5", minus(at("p50_us", "r2p2-5"),
                                                    at("p50_us", "draconis")), ">", 0,
                 deviation=True),
            Pred("dpdk_p50_collapses_over_1ms", at("p50_us", "draconis-dpdk"), ">", 1000,
                 deviation=True),
        ),
        systems={"draconis": DRACONIS, "racksched": RACKSCHED,
                 **{f"r2p2-{k}": r2p2(k) for k in (1, 3, 5, 7, 9)}, "draconis-dpdk": DPDK},
        chart=Chart("cdf"),
    ),
    # Paper (rack limit 3, global 9): 27.66 % node-local + 38.82 % rack-local
    # vs FCFS 10 % / 24 %; median end-to-end 131 vs 204 us.
    Figure(
        "fig10", "Figure 10 — locality-aware vs FCFS, 100 us tasks, 3 racks", _locality_cell,
        ("policy",),
        ("node_local", "rack_local", "remote", "e2e_p50_us", "e2e_p66_us", "e2e_p95_us", "cdf"),
        sized(*(dict(policy=("locality", "fcfs"), duration_ns=ms(d)) for d in (20, 30, 80, 60))),
        (
            Pred("node_local_over_2x_fcfs", over(at("node_local", "locality"),
                                                 at("node_local", "fcfs")), ">", 2, TB),
            Pred("e2e_p50_below_fcfs", over(at("e2e_p50_us", "locality"),
                                            at("e2e_p50_us", "fcfs")), "<", 1, TB),
            Pred("e2e_p50_below_0_8x_fcfs", over(at("e2e_p50_us", "locality"),
                                                 at("e2e_p50_us", "fcfs")), "<", 0.8),
            Pred("on_target_over_49pct", lambda r: at("node_local", "locality")(r)
                 + at("rack_local", "locality")(r), ">", 0.49),
            Pred("fcfs_mostly_remote", at("remote", "fcfs"), ">", 0.5),
        ),
        chart=Chart("cdf", series="policy"),
    ),
    # §8.5: "at least 49% of tasks are scheduled on the target node or rack in
    # all configurations" of the (rack, global) start limits.
    Figure(
        "fig10-limits", "Figure 10 — start-limit sweep, locality-aware placement",
        _locality_cell, ("limits",), ("node_local", "rack_local", "remote", "e2e_p50_us"),
        sized(*(dict(limits=limits, policy="locality", duration_ns=ms(d)) for limits, d in (
            (((1, 3),), 10), (((1, 3), (5, 15)), 20),
            (((1, 3), (3, 9), (5, 15), (2, 4)), 40), (((1, 3), (3, 9), (5, 15), (2, 4)), 30)))),
        (Pred("on_target_at_least_49pct_every_limit", on_target, ">=", 0.49, TB),),
    ),
    # Paper: every group busy in phase A, G1 idle in B, only G3 in C, and G3's
    # backlog drains past the last submission (110 s finish on a 90 s run).
    Figure(
        "fig11", "Figure 11 — per-node throughput by group, resource phases", _phases_cell,
        (), ("bucket_start_ns", "g1_tps", "g2_tps", "g3_tps"),
        sized(dict(phase_ns=ms(6)), dict(phase_ns=ms(8)), dict(phase_ns=ms(15)),
              dict(phase_ns=ms(10), buckets_per_phase=5)),
        (
            Pred("second_bucket_g1_busy", lambda r: r[1]["g1_tps"], ">", 0, TB),
            Pred("sixth_last_bucket_g1_idle", lambda r: r[-6]["g1_tps"], "<=", 0, TB),
            Pred("sixth_last_bucket_g3_busy", lambda r: r[-6]["g3_tps"], ">", 0, TB),
            Pred("phase_a_every_group_busy", phase(0, ("g1_tps", "g2_tps", "g3_tps")), ">", 0),
            Pred("phase_b_g1_idle", phase(1, ("g1_tps",), max), "<=", 0),
            Pred("phase_b_g2_g3_busy", phase(1, ("g2_tps", "g3_tps")), ">", 0),
            Pred("phase_c_g1_g2_idle", phase(2, ("g1_tps", "g2_tps"), max), "<=", 0),
            Pred("phase_c_g3_busy", phase(2, ("g3_tps",)), ">", 0),
            Pred("g3_backlog_drains_late", lambda r: max(
                row["g3_tps"] for row in r[3 * (len(r) // 4):]), ">", 0),
        ),
    ),
    # Paper (overloaded 5 ms trace, 4 levels): medians 1.4 / 2.9 / 13.3 /
    # 53.5 ms; priority-unaware FCFS at 39.5 ms, between levels 3 and 4.
    Figure(
        "fig12", "Figure 12 — queueing delay by priority level, overloaded trace (0 = FCFS)",
        _priority_cell, ("policy",), ("priority", "count", "queueing_p50_us", "queueing_p99_us"),
        sized(dict(policy=("priority",), duration_ns=ms(120), mean_task_ns=ms(2), workers=2,
                   executors_per_worker=8),
              *(dict(policy=("priority", "fcfs"), duration_ns=ms(d), mean_task_ns=ms(2),
                     workers=4, executors_per_worker=8) for d in (150, 400, 300))),
        (
            Pred("level1_below_level3", minus(LEVEL[3], LEVEL[1]), ">", 0, TB),
            Pred("level3_below_level4", minus(LEVEL[4], LEVEL[3]), ">", 0, TB),
            Pred("level1_not_above_level2", minus(LEVEL[2], LEVEL[1]), ">=", 0),
            Pred("level2_below_level3", minus(LEVEL[3], LEVEL[2]), ">", 0),
            Pred("level4_over_10x_level1", over(LEVEL[4], LEVEL[1]), ">", 10),
            Pred("fcfs_above_level1", minus(LEVEL[0], LEVEL[1]), ">", 0),
            Pred("fcfs_below_level4", minus(LEVEL[4], LEVEL[0]), ">", 0),
            Pred("every_level_reached", least("count", "priority"), ">", 0),
        ),
    ),
    # Paper: the recirculation ladder costs ~1 us per level; get_task()
    # medians and p90s differ by only 1-2 us between levels.
    Figure(
        "fig13", "Figure 13 — get_task() delay by priority level", _gettask_cell,
        ("priority",), ("pulls", "p50_us", "p90_us"),
        sized(*(dict(priority=(1, 2, 3, 4), duration_ns=ms(d)) for d in (10, 10, 30, 25))),
        (
            Pred("spread_over_0_5us", spread, ">", 0.5, TB),
            Pred("spread_under_10us", spread, "<", 10, TB),
            Pred("ladder_monotone", steps(min), ">=", 0),
            Pred("ladder_step_over_0_2us", steps(min), ">", 0.2),
            Pred("ladder_step_under_5us", steps(max), "<", 5),
            Pred("top_level_p90_under_15us", at("p90_us", 4), "<", 15),
        ),
    ),
    # §8.7: newer switches house each queue in its own stages: no ladder
    # recirculation, so no per-level spread.
    Figure(
        "fig13-staged", "Figure 13 — get_task() delay, queues in separate stages",
        _gettask_cell, ("priority",), ("pulls", "p50_us", "p90_us"),
        sized(*(dict(priority=levels, duration_ns=ms(d), queues_in_stages=True)
                for levels, d in (((1, 4), 5), ((1, 2, 3, 4), 10), ((1, 2, 3, 4), 30),
                                  ((1, 2, 3, 4), 15)))),
        (Pred("spread_under_1us", spread, "<", 1.0, TB),),
    ),
    # §7: a 164 K-task queue and 4 levels on Tofino 1; ~1 M and 12 on Tofino 2.
    Figure(
        "resources", "§7 — switch resource budget, ours vs paper", _budget_cell, (),
        ("model", "queue_capacity", "paper_queue_capacity", "capacity_error", "priority_levels",
         "paper_priority_levels", "paper_queue_fits"),
        sized({}, {}, {}, {}),
        (
            Pred("tofino1_capacity_within_10pct", at("capacity_error", "tofino1"), "<", 0.1,
                 SCALES),
            Pred("tofino2_capacity_within_10pct", at("capacity_error", "tofino2"), "<", 0.1,
                 SCALES),
            Pred("tofino1_levels_4", at("priority_levels", "tofino1"), "==", 4, SCALES),
            Pred("tofino2_levels_12", at("priority_levels", "tofino2"), "==", 12, SCALES),
            Pred("tofino1_paper_queue_fits", at("paper_queue_fits", "tofino1"), ">", 0, SCALES),
        ),
    ),
    # §8.2: "Draconis supports clusters of millions of cores when running
    # 500 us tasks" (4.7 Bpps budget); the DES must track offered load.
    Figure(
        "scalability", "§8.2 — scalability: packet-budget model and DES spot checks",
        _scalability_cell, ("model", "cores"),
        ("task_rate_tps", "switch_packet_load", "feasible", "ceiling_cores", "offered_tps",
         "achieved_tps", "efficiency"),
        sized(*([dict(model=("analytic",), cores=(10**4, 10**5, 5 * 10**5, 10**6, 2 * 10**6)),
                 dict(model=("des",), cores=cores, duration_ns=ms(d))]
                for cores, d in (((64,), 10), ((64, 160, 320), 50), ((64, 160, 320), 50),
                                 ((64, 160, 320), 30)))),
        (
            Pred("ceiling_over_1m_cores", most("ceiling_cores"), ">", 10**6, TB),
            Pred("feasible_at_1m_cores", at("feasible", "analytic", 10**6), ">", 0, TB),
            Pred("infeasible_at_2m_cores", at("feasible", "analytic", 2 * 10**6), "<=", 0, TB),
            Pred("des_tracks_offered_load", least("efficiency", "des"), ">", 0.85),
        ),
    ),
    # §3: the pull model costs one RTT of executor time per task: <3 % at
    # 100 us tasks on the testbed, less on sub-microsecond networks.
    Figure(
        "rtt", "§3 — RTT sensitivity of the pull model, 100 us tasks at 85 % load", _rtt_cell,
        ("propagation_ns",), ("pull_rtt_p50_us", "efficiency_loss", "sched_delay_p50_us"),
        sized(*(dict(propagation_ns=props, duration_ns=ms(d)) for props, d in (
            ((50, 500, 2_000), 10), ((50, 500, 2_000), 20),
            ((50, 150, 500, 1_000, 2_000), 40), ((50, 500, 2_000), 30)))),
        (
            Pred("pull_rtt_grows_to_500ns", minus(at("pull_rtt_p50_us", 500),
                                                  at("pull_rtt_p50_us", 50)), ">", 0, TB),
            Pred("pull_rtt_grows_to_2us", minus(at("pull_rtt_p50_us", 2_000),
                                                at("pull_rtt_p50_us", 500)), ">", 0, TB),
            Pred("loss_under_3pct_at_500ns", at("efficiency_loss", 500), "<", 0.03, TB),
            Pred("loss_shrinks_at_50ns", minus(at("efficiency_loss", 500),
                                               at("efficiency_loss", 50)), ">", 0, TB),
            Pred("loss_under_10pct_at_2us", at("efficiency_loss", 2_000), "<", 0.1, TB),
            Pred("sched_floor_follows_network", minus(at("sched_delay_p50_us", 2_000),
                                                      at("sched_delay_p50_us", 50)), ">", 0, TB),
        ),
    ),
    # §4.5's delayed pointer correction vs this repo's conditional retrieval:
    # the same task outcomes, but delayed mode pays repair recirculations.
    Figure(
        "ablation-retrieve", "Ablation — retrieve-pointer handling, 250 us tasks",
        _open_loop_cell,
        ("system", "utilization"), ("recirculation_fraction", "p99_us", "completed", "submitted"),
        sized(*(dict(utilization=loads, duration_ns=ms(d), task_us=250.0) for loads, d in (
            ((0.5,), 15), ((0.5,), 20), ((0.3, 0.6, 0.9), 50), ((0.3, 0.9), 30)))),
        (
            Pred("every_task_completes", lambda r: max(
                s - c for s, c in zip(_col(r, "submitted"), _col(r, "completed"))), "<=", 0, TB),
            Pred("delayed_recirculates_more", each("utilization", lambda u: minus(
                at("recirculation_fraction", "delayed", u),
                at("recirculation_fraction", "conditional", u))), ">", 0, TB),
            Pred("conditional_recirc_under_0_5pct", most("recirculation_fraction", "conditional"),
                 "<", 0.005),
        ),
        systems={mode: dict(scheduler="draconis", retrieve_mode=mode)
                 for mode in ("conditional", "delayed")},
    ),
    # §2.2: RackSched advises intra-node cFCFS for light-tailed workloads and
    # Processor Sharing for heavy-tailed ones.
    Figure(
        "ablation-ps", "Ablation — RackSched intra-node cFCFS vs Processor Sharing",
        _intra_node_cell, ("workload", "policy"), ("sched_p99_us", "e2e_p99_us", "unfinished"),
        sized(*(dict(workload=("heavy", "light"), policy=("fcfs", "ps"), duration_ns=ms(d))
                for d in (30, 80, 80, 80))),
        (
            Pred("heavy_ps_below_fcfs", minus(at("sched_p99_us", "heavy", "fcfs"),
                                              at("sched_p99_us", "heavy", "ps")), ">", 0, TB),
            Pred("heavy_ps_over_2x_below_fcfs", over(at("sched_p99_us", "heavy", "fcfs"),
                                                     at("sched_p99_us", "heavy", "ps")), ">", 2),
            Pred("light_ps_e2e_at_least_0_8x_fcfs", over(at("e2e_p99_us", "light", "ps"),
                                                         at("e2e_p99_us", "light", "fcfs")),
                 ">=", 0.8),
            Pred("every_task_finishes", most("unfinished"), "<=", 0, TB),
        ),
    ),
]
FIGURES: Dict[str, Figure] = {fig.name: fig for fig in FIGURE_LIST}


# ------------------------------------------------------------------- CLI


def parse_args(argv: Optional[Sequence[str]] = None, doc: str = __doc__) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=doc.splitlines()[0],
                                     epilog=f"figures: {', '.join(FIGURES)}")
    parser.add_argument("figures", nargs="*", help="figures to run (default: all)")
    parser.add_argument("--scale", choices=SCALES, default=REPORT)
    parser.add_argument("--check", action="store_true",
                        help="print every predicate's margin; exit 1 if one fails")
    parser.add_argument("--json", metavar="PATH", help="write every figure's rows to PATH")
    add_jobs_argument(parser)
    args = parser.parse_args(argv)
    unknown = [name for name in args.figures if name not in FIGURES]
    if unknown:
        parser.error(f"unknown figure {', '.join(unknown)}; choose from {', '.join(FIGURES)}")
    return args


def section(title: str, body: Callable[[], Any], start: float) -> Any:
    """Run one experiment under a banner, then report its wall time and events/s."""
    print(f"\n{'=' * 72}\n{title}  [t+{time.time() - start:.0f}s]\n{'=' * 72}", flush=True)
    events, wall = Simulator.global_events_processed(), time.perf_counter()
    result = body()
    wall = time.perf_counter() - wall
    events = Simulator.global_events_processed() - events
    rate = f", {events / wall:,.0f} events/s" if wall > 0 and events else ""
    print(f"[{wall:.1f}s wall, {events:,} sim events{rate}]", flush=True)
    return result


def report(args: argparse.Namespace, extra: Sequence[Tuple[str, Callable]] = ()) -> int:
    """Run the chosen figures at ``args.scale``; print tables, charts and checks."""
    start, events = time.time(), Simulator.global_events_processed()
    dump: Dict[str, Any] = {}
    verdicts: List[Verdict] = []
    for fig in [FIGURES[name] for name in args.figures] or FIGURE_LIST:
        wall = time.perf_counter()
        rows = section(fig.title, lambda: run(fig, args.scale, args.jobs), start)
        dump[fig.name] = dict(wall_s=time.perf_counter() - wall, rows=rows)
        print(format_table(fig, rows))
        if fig.chart:
            print("\n" + render_chart(fig, rows))
        verdicts += check(fig, rows, args.scale) if args.check else []
    for title, body in extra:
        section(title, body, start)
    wall, events = time.time() - start, Simulator.global_events_processed() - events
    print(f"\nTOTAL {wall:.0f}s, {events:,} sim events ({events / wall:,.0f} events/s)")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(dict(scale=args.scale, figures=dump), handle, indent=1)
    if not args.check:
        return 0
    print(f"\n### figure checks, scale {args.scale}\n\n{format_checks(verdicts)}")
    return 0 if all(v.ok for v in verdicts) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    return report(parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
