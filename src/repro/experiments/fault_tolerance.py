"""Chaos experiment: the paper's §3.3 fault claims, tested end to end.

The paper argues the pull model makes failure handling nearly free: dead
executors simply stop pulling, a failed switch is repaired entirely by
client timeout-resubmission, and lost packets surface as client timeouts.
This experiment runs a Draconis cluster under randomized
:class:`~repro.faults.FaultPlan`\\ s — worker crashes, partitions, switch
failover, lossy links — and checks the **task-conservation invariant**:

* every submitted task completes exactly once (visible completion;
  duplicate executions from resubmission races are suppressed and
  counted, never double-reported);
* no completion is recorded for a task that was never submitted.

It also reports *how much* the faults hurt: goodput dip relative to the
pre-fault baseline and the time from the last fault clearing until
goodput is back within 90% of that baseline.

Usage::

    python -m repro.experiments.fault_tolerance [--seeds N] [--kind ...]
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments import common
from repro.experiments.parallel_runner import add_jobs_argument, parallel_map
from repro.faults import (
    PLAN_KINDS,
    FaultPlan,
    event_end,
    event_start,
)
from repro.metrics.collector import MetricsCollector
from repro.sim.core import ms
from repro.sim.rng import RngStreams
from repro.workloads import exponential, open_loop, rate_for_utilization

#: moderate load — one crashed worker out of three must leave headroom,
#: otherwise recovery is capacity-bound and the invariant check times out
DEFAULT_UTILIZATION = 0.45
#: generous resubmit timeout; recovery correctness is what's under test,
#: not timeout tuning
DEFAULT_TIMEOUT_FACTOR = 4.0


@dataclass
class ChaosResult:
    """One (seed, kind) chaos run and its verdict."""

    seed: int
    kind: str
    plan: str
    faults_fired: int
    tasks_submitted: int
    tasks_completed: int
    resubmissions: int
    duplicate_finishes: int
    duplicate_completions: int
    injected: Dict[str, int] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    baseline_tps: float = 0.0
    dip_fraction: float = 0.0
    recovery_ns: int = 0

    @property
    def conserved(self) -> bool:
        return not self.violations

    def row(self) -> str:
        verdict = "OK" if self.conserved else f"{len(self.violations)} VIOLATIONS"
        recovery = (
            "never"
            if self.recovery_ns < 0
            else f"{self.recovery_ns / 1e6:5.1f}ms"
        )
        injected = sum(self.injected.values())
        return (
            f"seed={self.seed:<3} {self.kind:>9}  faults={self.faults_fired:<2} "
            f"tasks={self.tasks_completed}/{self.tasks_submitted}  "
            f"resub={self.resubmissions:<4} dup_exec={self.duplicate_finishes:<3} "
            f"injected={injected:<5} dip={self.dip_fraction:5.1%}  "
            f"recovery={recovery}  {verdict}"
        )


def conservation_violations(
    collector: MetricsCollector, clients: Sequence
) -> List[str]:
    """Every way a run can break exactly-once visible completion."""
    violations: List[str] = []
    for key, record in sorted(collector.records.items()):
        if record.submitted_at < 0:
            violations.append(
                f"task {key}: lifecycle events recorded but never submitted"
            )
        if record.completed_at < 0:
            violations.append(f"task {key}: submitted but never completed")
    for client in clients:
        if client.stats.tasks_completed != client.stats.tasks_submitted:
            violations.append(
                f"client{client.uid}: {client.stats.tasks_completed} unique "
                f"completions for {client.stats.tasks_submitted} submissions"
            )
    return violations


def goodput_bins(
    collector: MetricsCollector, horizon_ns: int, bin_ns: int
) -> List[int]:
    """Tasks finishing execution per time bin over [0, horizon)."""
    bins = [0] * max(1, -(-horizon_ns // bin_ns))
    for record in collector.records.values():
        if 0 <= record.finished_at < horizon_ns:
            bins[record.finished_at // bin_ns] += 1
    return bins


def recovery_metrics(
    collector: MetricsCollector,
    plan: FaultPlan,
    duration_ns: int,
    bin_ns: int = ms(1),
) -> Tuple[float, float, int]:
    """(baseline_tps, dip_fraction, recovery_ns) for one run.

    Baseline is mean goodput of the whole bins before the first fault
    (bin 0 skipped as warm-up); the dip is the worst bin while any fault
    is active; recovery is the gap between the last fault clearing and
    the first bin back within 90% of baseline (-1 if that never happens
    inside the submission horizon).
    """
    if not len(plan):
        return 0.0, 0.0, 0
    bins = goodput_bins(collector, duration_ns, bin_ns)
    fault_start = min(event_start(e) for e in plan)
    fault_end = min(max(event_end(e) for e in plan), duration_ns - 1)
    start_bin = max(1, fault_start // bin_ns)
    end_bin = min(fault_end // bin_ns, len(bins) - 1)
    pre = bins[1:start_bin]
    baseline = sum(pre) / len(pre) if pre else 0.0
    if baseline <= 0:
        return 0.0, 0.0, 0
    dip = min(bins[start_bin : end_bin + 1], default=baseline)
    dip_fraction = max(0.0, 1.0 - dip / baseline)
    if dip_fraction == 0.0:
        return baseline / (bin_ns / 1e9), 0.0, 0
    recovery_ns = -1
    for i in range(end_bin + 1, len(bins)):
        if bins[i] >= 0.9 * baseline:
            recovery_ns = max(0, i * bin_ns - fault_end)
            break
    return baseline / (bin_ns / 1e9), dip_fraction, recovery_ns


def run_chaos(
    seed: int,
    kind: str = "mixed",
    duration_ns: int = ms(30),
    drain_ns: int = ms(30),
    workers: int = 3,
    executors_per_worker: int = 4,
    utilization: float = DEFAULT_UTILIZATION,
    timeout_factor: float = DEFAULT_TIMEOUT_FACTOR,
    park_pulls: bool = True,
    obs=None,
) -> ChaosResult:
    """Run one workload under one randomized fault plan and judge it.

    ``obs`` optionally attaches a :class:`repro.obs.TelemetryBus`; span
    chains survive switch failover because the standby program reads the
    bus through ``switch.obs`` (see ``repro.obs.report --chaos``).
    """
    config = common.ClusterConfig(
        scheduler="draconis",
        workers=workers,
        executors_per_worker=executors_per_worker,
        seed=seed,
        queue_capacity=4096,
        timeout_factor=timeout_factor,
        park_pulls=park_pulls,
        obs=obs,
    )
    rngs = RngStreams(seed)
    sampler = exponential(150)
    rate = rate_for_utilization(
        utilization, config.total_executors, sampler.mean_ns
    )
    events = list(
        open_loop(rngs.stream("chaos-arrivals"), rate, sampler, duration_ns)
    )
    handles = common.build_cluster(config, [events], rngs=rngs)

    plan = FaultPlan.randomized(
        rngs.stream("chaos-plan"),
        duration_ns,
        worker_nodes=[w.spec.node_id for w in handles.workers],
        kind=kind,
    )

    injector = common.arm_faults(
        handles, config, plan, rngs.stream("chaos-injector")
    )

    handles.sim.run(until=duration_ns + drain_ns)

    collector = handles.collector
    baseline_tps, dip_fraction, recovery_ns = recovery_metrics(
        collector, plan, duration_ns
    )
    return ChaosResult(
        seed=seed,
        kind=kind,
        plan=plan.describe(),
        faults_fired=injector.stats.total(),
        tasks_submitted=collector.submitted_count(),
        tasks_completed=collector.completed_count(),
        resubmissions=collector.resubmissions,
        duplicate_finishes=collector.duplicate_finishes,
        duplicate_completions=collector.duplicate_completions,
        injected=injector.injected_totals(),
        violations=conservation_violations(collector, handles.clients),
        baseline_tps=baseline_tps,
        dip_fraction=dip_fraction,
        recovery_ns=recovery_ns,
    )


def _chaos_cell(item: Tuple[int, str, Dict]) -> ChaosResult:
    """One (seed, kind) cell — module-level so the pool can pickle it."""
    seed, kind, kwargs = item
    return run_chaos(seed, kind=kind, **kwargs)


def run(
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    kinds: Sequence[str] = PLAN_KINDS,
    duration_ns: int = ms(30),
    drain_ns: int = ms(30),
    jobs: Optional[int] = None,
    **kwargs,
) -> List[ChaosResult]:
    """The acceptance sweep: every kind × every seed, forked across cores.

    Every cell seeds its own ``RngStreams`` and simulator, so the results
    are identical (content and order) whatever ``jobs`` is; an attached
    ``obs`` bus forces the serial path since its callbacks cannot cross a
    process boundary.
    """
    cell_kwargs = dict(duration_ns=duration_ns, drain_ns=drain_ns, **kwargs)
    cells = [(seed, kind, cell_kwargs) for kind in kinds for seed in seeds]
    return parallel_map(
        _chaos_cell, cells, jobs=jobs, serial=kwargs.get("obs") is not None
    )


def print_table(results: Sequence[ChaosResult]) -> None:
    for result in results:
        print(result.row())
        if result.violations:
            for violation in result.violations[:5]:
                print(f"    ! {violation}")
            extra = len(result.violations) - 5
            if extra > 0:
                print(f"    ! ... and {extra} more")
    broken = [r for r in results if not r.conserved]
    print(
        f"\n{len(results) - len(broken)}/{len(results)} runs conserved "
        f"every task exactly once"
    )
    if broken:
        raise SystemExit(1)


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5, help="seeds per kind")
    parser.add_argument(
        "--kind",
        choices=PLAN_KINDS,
        action="append",
        help="restrict to one or more plan kinds (default: all)",
    )
    parser.add_argument("--duration-ms", type=float, default=30.0)
    parser.add_argument("--drain-ms", type=float, default=30.0)
    add_jobs_argument(parser)
    args = parser.parse_args(argv)
    results = run(
        seeds=range(args.seeds),
        kinds=tuple(args.kind) if args.kind else PLAN_KINDS,
        duration_ns=int(ms(args.duration_ms)),
        drain_ns=int(ms(args.drain_ms)),
        jobs=args.jobs,
    )
    print_table(results)


if __name__ == "__main__":
    main()
