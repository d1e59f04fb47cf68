"""Controller HA experiment: replicated control plane vs single controller.

The lease controller (``repro.ctrl``) is the component that turns a
worker crash into bounded-time reclamation instead of client-visible
loss — which makes the controller itself the last single point of
failure in the recovery story. This experiment kills it and measures
what replication buys:

* **replicated arm** (``--replicas >= 2``): N :class:`~repro.ctrl.
  replication.ReplicaController` instances elect a leader through the
  switch's election register. The initial leader is crashed permanently
  at a swept fraction of the run, and a worker is crashed shortly after
  — so the *successor* must win a term, reconcile, and reclaim the dead
  worker's in-flight tasks. Client resubmission is disabled: every task
  that survives does so through the replicated control plane alone.
  Acceptance: zero tasks lost at every crash instant, and the takeover
  (next term grant) lands within the group's election timeout bound.
* **baseline arm** (``--replicas 1``): the same crash schedule against
  an unreplicated controller. With the controller dead and client
  timeouts off, the dead worker's in-flight tasks have no recovery path
  — the run is *expected* to lose them, quantifying what the paper's
  single-controller deployment risks.

The summary carries the control-plane health counters (terms, elections,
fencing rejections, leases/tasks reclaimed) so CI can chart them.

Usage::

    python -m repro.experiments.controller_ha [--seeds N] [--out s.json]
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments import common
from repro.experiments.parallel_runner import add_jobs_argument, parallel_map
from repro.faults import FaultPlan
from repro.faults.events import ControllerCrash, WorkerCrash
from repro.sim.core import ms
from repro.sim.rng import RngStreams
from repro.workloads import exponential, open_loop, rate_for_utilization

DEFAULT_UTILIZATION = 0.6
#: crash instants swept, as fractions of the workload duration
DEFAULT_CRASH_FRACTIONS = (0.25, 0.5, 0.75)
#: worker crash follows the controller crash by this much — long enough
#: for a replicated group to have elected a successor, short enough that
#: the baseline controller is definitely still dead
WORKER_CRASH_DELAY_NS = ms(2)


@dataclass
class HaResult:
    """One (seed, replicas, crash instant) cell."""

    seed: int
    replicas: int
    crash_at_ns: int
    tasks_submitted: int
    tasks_completed: int
    tasks_lost: int
    #: ns from the leader crash to the successor's term grant
    #: (None: baseline arm, or no successor was ever granted)
    takeover_ns: Optional[int]
    #: the bound takeover must respect: lease + 2 election polls
    takeover_bound_ns: int
    term: int
    elections_held: int
    fencing_rejections: int
    leases_reclaimed: int
    tasks_reclaimed: int
    step_downs: int
    violations: List[str] = field(default_factory=list)

    @property
    def replicated(self) -> bool:
        return self.replicas >= 2

    @property
    def ok(self) -> bool:
        if not self.replicated:
            return True  # the baseline is *expected* to lose tasks
        return not self.violations

    def row(self) -> str:
        verdict = "OK" if self.ok else "FAIL"
        takeover = (
            "-"
            if self.takeover_ns is None
            else f"{self.takeover_ns / 1e3:.0f}us"
        )
        return (
            f"seed={self.seed:<3} replicas={self.replicas} "
            f"crash@{self.crash_at_ns / 1e6:4.1f}ms  "
            f"tasks={self.tasks_completed}/{self.tasks_submitted}  "
            f"lost={self.tasks_lost:<4} takeover={takeover:<7} "
            f"term={self.term} reclaimed={self.tasks_reclaimed:<3} "
            f"fenced={self.fencing_rejections:<2} {verdict}"
        )


def run_ha(
    seed: int,
    replicas: int = 3,
    crash_fraction: float = 0.5,
    duration_ns: int = ms(20),
    drain_ns: int = ms(20),
    workers: int = 3,
    executors_per_worker: int = 4,
    utilization: float = DEFAULT_UTILIZATION,
    obs=None,
) -> HaResult:
    """One run: crash the (initial) leader, then a worker, then measure.

    Replica 0 always wins the first election (deterministic start
    stagger), so ``ControllerCrash(replica_id=0)`` is a leader kill; the
    dead worker's tasks can only come back through whoever leads next.
    """
    crash_at_ns = int(duration_ns * crash_fraction)
    config = common.ClusterConfig(
        scheduler="draconis",
        workers=workers,
        executors_per_worker=executors_per_worker,
        seed=seed,
        queue_capacity=4096,
        timeout_factor=None,  # no client repair: the controller or nothing
        park_pulls=True,
        controller=True,
        controller_replicas=replicas,
        obs=obs,
    )
    rngs = RngStreams(seed)
    sampler = exponential(150)
    rate = rate_for_utilization(
        utilization, config.total_executors, sampler.mean_ns
    )
    events = list(
        open_loop(rngs.stream("ha-arrivals"), rate, sampler, duration_ns)
    )
    handles = common.build_cluster(config, [events], rngs=rngs)

    group = handles.ctrl_group
    bound_ns = group.election_timeout_bound() if group is not None else 0
    plan = FaultPlan(
        [
            ControllerCrash(
                at_ns=crash_at_ns, replica_id=0, restart_after_ns=None
            ),
            WorkerCrash(
                at_ns=crash_at_ns + WORKER_CRASH_DELAY_NS,
                node_id=0,
                restart_after_ns=None,
            ),
        ]
    )
    common.arm_faults(handles, config, plan, rngs.stream("ha-injector"))

    handles.sim.run(until=duration_ns + drain_ns)

    collector = handles.collector
    submitted = collector.submitted_count()
    completed = collector.completed_count()
    lost = submitted - completed

    election = handles.switch.election
    takeover_ns: Optional[int] = None
    for _term, _leader, granted_at in election.history:
        if granted_at > crash_at_ns:
            takeover_ns = granted_at - crash_at_ns
            break

    if group is not None:
        stats = group.stats()
    else:
        audit = handles.controller.audit() if handles.controller else {}
        stats = {
            "term": 0,
            "elections_held": 0,
            "fencing_rejections": 0,
            "leases_reclaimed": audit.get("leases_reclaimed", 0),
            "tasks_reclaimed": audit.get("tasks_reclaimed", 0),
            "step_downs": 0,
        }

    violations: List[str] = []
    if replicas >= 2:
        if lost:
            violations.append(
                f"replicated arm lost {lost} task(s) across the "
                f"leader+worker crash"
            )
        if takeover_ns is None:
            violations.append(
                "leader crashed but no successor was ever granted a term"
            )
        elif takeover_ns > bound_ns:
            violations.append(
                f"takeover took {takeover_ns / 1e3:.1f}us, above the "
                f"election timeout bound {bound_ns / 1e3:.1f}us"
            )
    return HaResult(
        seed=seed,
        replicas=replicas,
        crash_at_ns=crash_at_ns,
        tasks_submitted=submitted,
        tasks_completed=completed,
        tasks_lost=lost,
        takeover_ns=takeover_ns if replicas >= 2 else None,
        takeover_bound_ns=bound_ns,
        term=stats.get("term", 0),
        elections_held=stats.get("elections_held", 0),
        fencing_rejections=stats.get("fencing_rejections", 0),
        leases_reclaimed=stats.get("leases_reclaimed", 0),
        tasks_reclaimed=stats.get("tasks_reclaimed", 0),
        step_downs=stats.get("step_downs", 0),
        violations=violations,
    )


def _ha_cell(item) -> HaResult:
    """One sweep cell — module-level so the pool can pickle it."""
    seed, replicas, fraction, kwargs = item
    return run_ha(seed, replicas=replicas, crash_fraction=fraction, **kwargs)


def run(
    seeds: Sequence[int] = (0, 1, 2),
    replica_counts: Sequence[int] = (1, 3),
    crash_fractions: Sequence[float] = DEFAULT_CRASH_FRACTIONS,
    jobs: Optional[int] = None,
    **kwargs,
) -> List[HaResult]:
    """The acceptance sweep: replicas × crash instants × seeds."""
    cells = [
        (seed, replicas, fraction, kwargs)
        for replicas in replica_counts
        for fraction in crash_fractions
        for seed in seeds
    ]
    return parallel_map(
        _ha_cell, cells, jobs=jobs, serial=kwargs.get("obs") is not None
    )


def summarize(results: Sequence[HaResult]) -> Dict:
    """JSON-ready summary (uploaded as a CI artifact)."""
    replicated = [r for r in results if r.replicated]
    baseline = [r for r in results if not r.replicated]
    baseline_lost = sum(r.tasks_lost for r in baseline)
    ok = all(r.ok for r in results)
    if baseline and baseline_lost == 0:
        # The baseline arm exists to demonstrate the unreplicated
        # failure mode; a lossless baseline means the scenario never put
        # tasks at risk and the replicated zeros prove nothing.
        ok = False
    return {
        "runs": [asdict(r) for r in results],
        "replicated_runs": len(replicated),
        "replicated_tasks_lost": sum(r.tasks_lost for r in replicated),
        "replicated_max_takeover_ns": max(
            (r.takeover_ns or 0 for r in replicated), default=0
        ),
        "takeover_bound_ns": max(
            (r.takeover_bound_ns for r in replicated), default=0
        ),
        "fencing_rejections": sum(r.fencing_rejections for r in replicated),
        "tasks_reclaimed": sum(r.tasks_reclaimed for r in results),
        "baseline_runs": len(baseline),
        "baseline_tasks_lost": baseline_lost,
        "ok": ok,
    }


def print_table(results: Sequence[HaResult]) -> None:
    for result in results:
        print(result.row())
        for violation in result.violations:
            print(f"    ! {violation}")
    summary = summarize(results)
    print(
        f"\nreplicated: {summary['replicated_tasks_lost']} tasks lost, "
        f"max takeover "
        f"{summary['replicated_max_takeover_ns'] / 1e3:.1f}us "
        f"(bound {summary['takeover_bound_ns'] / 1e3:.1f}us), "
        f"{summary['fencing_rejections']} fenced stale action(s)"
    )
    print(
        f"baseline:   {summary['baseline_tasks_lost']} tasks lost with "
        f"the single controller dead (the failure replication removes)"
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=3, help="seeds per cell")
    parser.add_argument(
        "--replicas",
        type=int,
        nargs="+",
        default=[1, 3],
        help="replica counts to sweep (1 = unreplicated baseline)",
    )
    parser.add_argument("--duration-ms", type=float, default=20.0)
    parser.add_argument("--drain-ms", type=float, default=20.0)
    parser.add_argument(
        "--out", help="write the JSON summary to this path (CI artifact)"
    )
    add_jobs_argument(parser)
    args = parser.parse_args(argv)
    results = run(
        seeds=range(args.seeds),
        replica_counts=args.replicas,
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
