"""Warm-standby recovery experiment: checkpointed failover vs §3.3 baseline.

The paper's failover story (§3.3) is *lossy*: the standby switch comes up
with empty registers, queued-but-unassigned tasks vanish, and clients
repair the loss by timeout-resubmission. The ``repro.ctrl`` subsystem
adds a warm standby — periodic register checkpoints plus a bounded delta
journal replayed into the standby before it sees its first packet — and
this experiment quantifies the difference:

* **warm arm** (checkpointing on, client timeouts *disabled*): every
  queued task must survive the failover on its own. Zero tasks lost and
  zero resubmissions proves recovery does not lean on the client timeout
  path at all.
* **baseline arm** (empty standby, client timeouts on): the paper's
  story. Tasks queued at the failover instant are lost from the switch
  and come back only via resubmission — counted and reported.

For each checkpoint interval the run reports the modelled recovery time
(detection + journal/checkpoint replay, see
:class:`repro.ctrl.RecoveryReport`), which is bounded by
``detection_ns + replay_ns_per_entry × (checkpoint entries + journal
ops)`` — i.e. by the checkpoint interval via the journal length.

Usage::

    python -m repro.experiments.recovery [--seeds N] [--out summary.json]
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments import common
from repro.experiments.parallel_runner import add_jobs_argument, parallel_map
from repro.faults import FaultPlan, SwitchFailover
from repro.sim.core import ms
from repro.sim.rng import RngStreams
from repro.workloads import exponential, open_loop, rate_for_utilization

#: higher than the chaos experiment: the point is to have a deep queue
#: standing at the failover instant, so loss (or its absence) is visible
DEFAULT_UTILIZATION = 0.55
#: baseline arm resubmit timeout (the §3.3 repair path)
BASELINE_TIMEOUT_FACTOR = 4.0
#: checkpoint intervals swept by :func:`run` (None = empty-standby baseline)
DEFAULT_INTERVALS_NS = (None, ms(4), ms(2), ms(1), int(ms(1) // 2))


@dataclass
class RecoveryResult:
    """One (seed, checkpoint interval) failover run."""

    seed: int
    #: None = empty-standby baseline (paper §3.3), else warm standby
    checkpoint_interval_ns: Optional[int]
    failover_at_ns: int
    tasks_submitted: int
    tasks_completed: int
    #: switch-queued + parked entries captured just before the failover —
    #: the population at risk of being lost with an empty standby
    queued_at_failover: int
    #: submitted tasks that never completed, even after the drain window
    tasks_lost: int
    #: client timeout resubmissions (must be 0 for the warm arm to count
    #: as recovered *without* leaning on §3.3 client repair)
    resubmissions: int
    #: modelled standby recovery time (0 for the baseline: nothing replayed)
    recovery_ns: int
    checkpoint_age_ns: int = 0
    entries_restored: int = 0
    parked_restored: int = 0
    journal_ops_replayed: int = 0
    journal_overflows: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def warm(self) -> bool:
        return self.checkpoint_interval_ns is not None

    @property
    def ok(self) -> bool:
        if not self.warm:
            return True  # the baseline is *expected* to lose/resubmit
        return self.tasks_lost == 0 and self.resubmissions == 0

    def arm(self) -> str:
        if not self.warm:
            return "baseline"
        return f"ckpt={self.checkpoint_interval_ns / 1e6:g}ms"

    def row(self) -> str:
        verdict = "OK" if self.ok else "LOST TASKS"
        recovery = (
            "-" if not self.warm else f"{self.recovery_ns / 1e3:7.1f}us"
        )
        return (
            f"seed={self.seed:<3} {self.arm():>10}  "
            f"tasks={self.tasks_completed}/{self.tasks_submitted}  "
            f"at_risk={self.queued_at_failover:<4} "
            f"lost={self.tasks_lost:<4} resub={self.resubmissions:<4} "
            f"restored={self.entries_restored}+{self.parked_restored}p "
            f"journal={self.journal_ops_replayed:<4} "
            f"recovery={recovery}  {verdict}"
        )


def run_recovery(
    seed: int,
    checkpoint_interval_ns: Optional[int] = ms(1),
    duration_ns: int = ms(24),
    drain_ns: int = ms(24),
    failover_at_ns: Optional[int] = None,
    workers: int = 3,
    executors_per_worker: int = 4,
    utilization: float = DEFAULT_UTILIZATION,
    obs=None,
) -> RecoveryResult:
    """Run one workload through a single mid-run switch failover.

    ``checkpoint_interval_ns=None`` runs the paper's empty-standby
    baseline (client timeouts enabled, §3.3 repair); any other value runs
    the warm-standby arm with client timeouts *disabled*, so completion of
    every task can only come from checkpoint+journal replay plus the
    lease controller's reclaim of parked pulls.
    """
    warm = checkpoint_interval_ns is not None
    if failover_at_ns is None:
        failover_at_ns = duration_ns // 2
    config = common.ClusterConfig(
        scheduler="draconis",
        workers=workers,
        executors_per_worker=executors_per_worker,
        seed=seed,
        queue_capacity=4096,
        timeout_factor=None if warm else BASELINE_TIMEOUT_FACTOR,
        park_pulls=True,
        controller=warm,
        checkpoint_interval_ns=checkpoint_interval_ns,
        obs=obs,
    )
    rngs = RngStreams(seed)
    sampler = exponential(150)
    rate = rate_for_utilization(
        utilization, config.total_executors, sampler.mean_ns
    )
    events = list(
        open_loop(rngs.stream("recovery-arrivals"), rate, sampler, duration_ns)
    )
    handles = common.build_cluster(config, [events], rngs=rngs)
    program = handles.switch.program

    plan = FaultPlan([SwitchFailover(at_ns=failover_at_ns)])
    common.arm_faults(
        handles, config, plan, rngs.stream("recovery-injector")
    )

    at_risk = {"count": 0}

    def capture_at_risk() -> None:
        queued = sum(q.approx_occupancy() for q in program.queues)
        at_risk["count"] = queued + len(program._parked_pulls)

    handles.sim.call_at(max(0, failover_at_ns - 1), capture_at_risk)

    handles.sim.run(until=duration_ns + drain_ns)

    collector = handles.collector
    submitted = collector.submitted_count()
    completed = collector.completed_count()
    violations: List[str] = []
    if warm and collector.resubmissions:
        violations.append(
            f"warm arm recorded {collector.resubmissions} client "
            f"resubmissions — recovery leaned on the §3.3 timeout path"
        )
    report = handles.checkpoints.last_report if handles.checkpoints else None
    if warm and report is None:
        violations.append("failover fired but no recovery report was produced")
    return RecoveryResult(
        seed=seed,
        checkpoint_interval_ns=checkpoint_interval_ns,
        failover_at_ns=failover_at_ns,
        tasks_submitted=submitted,
        tasks_completed=completed,
        queued_at_failover=at_risk["count"],
        tasks_lost=submitted - completed,
        resubmissions=collector.resubmissions,
        recovery_ns=report.recovery_ns if report else 0,
        checkpoint_age_ns=report.checkpoint_age_ns if report else 0,
        entries_restored=report.entries_restored if report else 0,
        parked_restored=report.parked_restored if report else 0,
        journal_ops_replayed=report.journal_ops_replayed if report else 0,
        journal_overflows=report.journal_overflows if report else 0,
        violations=violations,
    )


def _recovery_cell(item) -> RecoveryResult:
    """One (seed, interval) cell — module-level so the pool can pickle it."""
    seed, interval, kwargs = item
    return run_recovery(seed, checkpoint_interval_ns=interval, **kwargs)


def run(
    seeds: Sequence[int] = (0, 1, 2),
    intervals_ns: Sequence[Optional[int]] = DEFAULT_INTERVALS_NS,
    jobs: Optional[int] = None,
    **kwargs,
) -> List[RecoveryResult]:
    """The acceptance sweep: baseline + each checkpoint interval × seeds.

    Cells fork across cores (see :mod:`repro.experiments.parallel_runner`);
    results are identical to the serial sweep in content and order. An
    attached ``obs`` bus forces the serial path.
    """
    cells = [
        (seed, interval, kwargs)
        for interval in intervals_ns
        for seed in seeds
    ]
    return parallel_map(
        _recovery_cell, cells, jobs=jobs, serial=kwargs.get("obs") is not None
    )


def summarize(results: Sequence[RecoveryResult]) -> Dict:
    """JSON-ready summary (the CI chaos job uploads this as an artifact)."""
    warm = [r for r in results if r.warm]
    baseline = [r for r in results if not r.warm]
    return {
        "runs": [asdict(r) for r in results],
        "warm_runs": len(warm),
        "warm_tasks_lost": sum(r.tasks_lost for r in warm),
        "warm_resubmissions": sum(r.resubmissions for r in warm),
        "warm_max_recovery_ns": max((r.recovery_ns for r in warm), default=0),
        "baseline_tasks_lost": sum(r.tasks_lost for r in baseline),
        "baseline_resubmissions": sum(r.resubmissions for r in baseline),
        "baseline_at_risk": sum(r.queued_at_failover for r in baseline),
        "ok": all(r.ok and not r.violations for r in results),
    }


def print_table(results: Sequence[RecoveryResult]) -> None:
    for result in results:
        print(result.row())
        for violation in result.violations:
            print(f"    ! {violation}")
    summary = summarize(results)
    print(
        f"\nwarm arms: {summary['warm_tasks_lost']} tasks lost, "
        f"{summary['warm_resubmissions']} resubmissions, "
        f"max modelled recovery "
        f"{summary['warm_max_recovery_ns'] / 1e3:.1f}us"
    )
    print(
        f"baseline:  {summary['baseline_tasks_lost']} tasks lost outright, "
        f"{summary['baseline_resubmissions']} resubmissions repairing "
        f"{summary['baseline_at_risk']} at-risk tasks"
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=3, help="seeds per arm")
    parser.add_argument("--duration-ms", type=float, default=24.0)
    parser.add_argument("--drain-ms", type=float, default=24.0)
    parser.add_argument(
        "--out", help="write the JSON summary to this path (CI artifact)"
    )
    add_jobs_argument(parser)
    args = parser.parse_args(argv)
    results = run(
        seeds=range(args.seeds),
        duration_ns=int(ms(args.duration_ms)),
        drain_ns=int(ms(args.drain_ms)),
        jobs=args.jobs,
    )
    print_table(results)
    summary = summarize(results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
        print(f"summary written to {args.out}")
    if not summary["ok"]:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
