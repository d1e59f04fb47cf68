"""The invariant oracle: what must hold in *every* run, faults or not.

The chaos fuzzer's value is only as good as its oracle. Crashing is easy
to detect; a scheduler that silently loses a task, leaks a lease, or
restores a corrupted checkpoint is not. The oracle encodes the repo's
correctness claims as invariant families, written once over the
:class:`~repro.verify.evidence.RunEvidence` protocol that the simulator
and the live UDP runtime each fill in. A family whose evidence a runtime
cannot supply (its adapter returns ``None``) is skipped:

* **task conservation** — no phantom lifecycle records (completions for
  tasks never submitted), no stray completions, the clients' bookkeeping
  sums exactly, and every incomplete task is *accounted for*: either the
  client deliberately gave it up after exhausting its retry budget, or
  it still has a live resubmit timer at the horizon. An incomplete task
  with neither was silently lost — the bug class the paper's §3.3
  "failure handling is nearly free" claim must exclude. Duplicates are
  counted, never violations: resubmit races under loss *should* produce
  them.
* **lease safety** (runs with a lease-holding controller) — the sweep
  loop collects every expired lease within one period, the reclaim
  backlog drains, and no parked pull belongs to an executor the
  controller believes dead at the end of the run.
* **failover consistency** — after every ``SwitchFailover``, the newly
  installed program's queue contents are explainable: without
  checkpointing the standby must start empty; with checkpointing, the
  restored multiset of task keys may only differ from the pre-failover
  one in ways the :class:`~repro.ctrl.checkpoint.RecoveryReport` admits
  (dropped entries, journal overflow, unmatched dequeues). Extra keys
  that the old program never held are always a violation.
* **election safety** (replicated-controller runs) — at most one leader
  per term (new-term grants strictly increase), every accepted fenced
  action carries the register's *current* term (a deposed leader never
  mutated the switch), the observed register term never moves
  backwards, at most one live replica claims leadership, and a live
  leader holds the lease at the final check whenever any replica
  survived.
* **register sanity** — the switch program's own control-plane checks
  (circular-queue pointer windows, occupancy bounds, parked-pull
  capacity) pass both at the end and in cheap periodic mid-run samples.
* **in-flight bound / epoch monotonicity** (runtimes with an executor
  registry) — every record the evidence supplies satisfies ``0 <=
  in_flight <= max_outstanding``, sampled mid-run and at the end —
  wire-duplicating windows included — and the epochs acked to each
  executor strictly increase across kill/restart and endpoint moves.
  (``in_flight == 0`` at quiescence is *not* required:
  a credit leaked by a dropped assignment only resyncs once the
  executor saturates, by design.)
* **quiescence** — after the drain window every transient is gone:
  switch queues empty, every fault window closed behind itself (no
  residual degradation, delayed packet or pending injector timer),
  speed factors back to 1.0, recirculation limit restored.
* **parser robustness** — the corruption fuzz never provoked anything
  but ``ProtocolError`` out of the codec.

``InvariantOracle.attach`` must be called before the workload starts so
the mid-run sampler and the failover hook are registered;
``check_final`` after the run returns the full :class:`OracleReport`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ReproError

#: cap on mid-run violations kept per family; one broken register check
#: repeats every sample, and the first few are what the shrinker needs
MAX_SAMPLED_VIOLATIONS = 20


@dataclass(frozen=True)
class Violation:
    """One violated invariant: which family, and the evidence."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


@dataclass
class OracleReport:
    """Verdict of one oracle pass over a finished run."""

    violations: List[Violation] = field(default_factory=list)
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def invariants_violated(self) -> List[str]:
        """Sorted, de-duplicated family names — the shrinker's target."""
        return sorted({v.invariant for v in self.violations})

    def describe(self) -> str:
        if self.ok:
            return f"OK ({self.checks} checks)"
        lines = [f"{len(self.violations)} violation(s) / {self.checks} checks"]
        lines.extend(f"  ! {v}" for v in self.violations)
        return "\n".join(lines)


class InvariantOracle:
    """Checks the invariant catalogue against one run's evidence.

    The oracle reads only control-plane state through ``evidence`` (no
    packets, no data-plane registers, no sockets), so attaching it never
    perturbs the run beyond its own sampling ticks — which are pure
    reads.
    """

    def __init__(self, evidence: Any) -> None:
        self.evidence = evidence
        self._sampled: List[Violation] = []
        self._suppressed: Dict[str, int] = {}
        self._checks = 0
        self._attached = False
        self._until_ns: Optional[int] = None
        self._recirc_limit_baseline: Optional[int] = None

    def _check(
        self, out: List[Violation], invariant: str, ok: Any, detail: str
    ) -> None:
        """Count one check; a falsy ``ok`` records the violation."""
        self._checks += 1
        if not ok:
            out.append(Violation(invariant, detail))

    # -- wiring (before the workload starts) ------------------------------

    def attach(self, until_ns: Optional[int] = None) -> "InvariantOracle":
        """Register the mid-run sampler and the failover hook.

        The sampler re-arms itself on the evidence's driver until
        ``until_ns`` (``None``: until the driver is closed).
        """
        if self._attached:
            return self
        self._attached = True
        self._until_ns = until_ns
        self._recirc_limit_baseline = self.evidence.recirc_limit()
        # Registered after CheckpointManager/Controller (built with the
        # cluster), so the hook observes the *post-restore* program.
        self.evidence.on_failover(self._on_install)
        self._schedule_sample()
        return self

    def _schedule_sample(self) -> None:
        driver = self.evidence.driver
        at = driver.now + self.evidence.sample_interval_ns
        if self._until_ns is None or at < self._until_ns:
            driver.call_at_cancellable(at, self._sample)

    def _sample(self) -> None:
        """Cheap register probes between events (the "during")."""
        found: List[Violation] = []
        self._probe_registers(
            found, f"mid-run at t={self.evidence.driver.now}"
        )
        for violation in found:
            family = violation.invariant
            kept = sum(1 for v in self._sampled if v.invariant == family)
            if kept >= MAX_SAMPLED_VIOLATIONS:
                self._suppressed[family] = self._suppressed.get(family, 0) + 1
            else:
                self._sampled.append(violation)
        self._schedule_sample()

    def _probe_registers(self, out: List[Violation], phase: str) -> None:
        """In-flight bounds + program pointer checks (cheap, reentrant)."""
        for record in self.evidence.executor_records() or ():
            self._check(
                out,
                "in-flight-bound",
                0 <= record.in_flight <= record.max_outstanding,
                f"{phase}: exec{record.executor_id} in_flight="
                f"{record.in_flight} outside [0, {record.max_outstanding}]",
            )
        program = self.evidence.program()
        if program is not None and hasattr(program, "check_invariants"):
            try:
                program.check_invariants()
                error = None
            except ReproError as exc:
                error = exc
            self._check(
                out, "register-sanity", error is None, f"{phase}: {error}"
            )

    # -- failover consistency ---------------------------------------------

    def _on_install(self, new_program: Any, old_program: Any) -> None:
        """Judge a completed failover: is the restored state explainable?"""
        if not hasattr(new_program, "queued_keys") or not hasattr(
            old_program, "queued_keys"
        ):
            return
        now = self.evidence.driver.now
        old_keys = Counter(old_program.queued_keys())
        new_keys = Counter(new_program.queued_keys())
        invented = new_keys - old_keys
        self._check(
            self._sampled,
            "failover-consistency",
            not invented,
            f"failover at t={now} installed {sum(invented.values())} queue "
            f"entr(ies) the old program never held, e.g. "
            f"{sorted(invented)[:3]}",
        )
        manager = self.evidence.checkpoints
        if manager is None or manager.last_report is None:
            # No checkpointing: the paper's cold standby. Losing the queue
            # is the *expected* behaviour; inventing entries is not.
            return
        lost = old_keys - new_keys
        report = manager.last_report
        admitted = (
            report.entries_dropped
            + report.journal_overflows
            + report.unmatched_dequeues
        )
        self._check(
            self._sampled,
            "failover-consistency",
            not lost or admitted,
            f"checkpointed failover at t={now} lost {sum(lost.values())} "
            f"queue entr(ies) with a clean recovery report (no drops/"
            f"overflows/unmatched), e.g. {sorted(lost)[:3]}",
        )

    # -- final verdict -----------------------------------------------------

    def check_final(self) -> OracleReport:
        """Run every invariant family against the finished run."""
        out: List[Violation] = list(self._sampled)
        for invariant, count in sorted(self._suppressed.items()):
            out.append(
                Violation(
                    invariant,
                    f"... and {count} more mid-run violation(s) suppressed",
                )
            )
        self._check_conservation(out)
        self._check_lease_safety(out)
        self._check_election(out)
        self._check_epochs(out)
        self._check_register_sanity(out)
        self._check_quiescence(out)
        self._check_parser(out)
        return OracleReport(violations=out, checks=self._checks)

    def _check_conservation(self, out: List[Violation]) -> None:
        ledger = self.evidence.ledger()
        self._checks += ledger.submitted  # each task's record is accounted
        for key in sorted(ledger.phantoms):
            self._check(
                out,
                "task-conservation",
                False,
                f"task {key}: lifecycle events recorded but never "
                f"submitted (phantom)",
            )
        for key in sorted(ledger.unresolved - ledger.retrying):
            self._check(
                out,
                "task-conservation",
                False,
                f"task {key}: submitted but neither completed nor given "
                f"up, and no retry pending — silently lost",
            )
        self._check(
            out,
            "task-conservation",
            ledger.completed <= ledger.submitted,
            f"more completions ({ledger.completed}) than submissions "
            f"({ledger.submitted})",
        )
        accounted = (
            ledger.completed
            + len(ledger.gave_up)
            + len(ledger.unresolved)
            + len(ledger.phantoms)
        )
        self._check(
            out,
            "task-conservation",
            ledger.submitted == accounted,
            f"bookkeeping mismatch: submitted={ledger.submitted} but "
            f"done+gave_up+unresolved+phantom={accounted}",
        )
        self._check(
            out,
            "task-conservation",
            not ledger.duplicates_recorded or ledger.duplicates_suppressed,
            f"metrics saw {ledger.duplicates_recorded} duplicate "
            f"completions but no client suppressed any — a duplicate "
            f"reached the record without a client noticing",
        )
        for client, strays in sorted(ledger.strays.items()):
            self._check(
                out,
                "task-conservation",
                not strays,
                f"{client}: {strays} completion(s) for tasks it never "
                f"submitted",
            )

    def _check_lease_safety(self, out: List[Violation]) -> None:
        controller = self.evidence.controller()
        if controller is None:
            return
        audit = controller.audit()
        stale = [lease.executor_id for lease in audit["stale_leases"]]
        self._check(
            out,
            "lease-safety",
            not stale,
            f"leases for executors {stale} expired more than one sweep ago "
            f"and were never collected",
        )
        self._check(
            out,
            "lease-safety",
            not audit["reclaim_backlog"],
            f"{audit['reclaim_backlog']} reclaimed entr(ies) still stuck in "
            f"the controller backlog after drain",
        )
        program = self.evidence.program()
        if program is not None and hasattr(program, "parked_executor_ids"):
            dead_parked = (
                program.parked_executor_ids() - controller.live_executors()
            )
            self._check(
                out,
                "lease-safety",
                not dead_parked,
                f"parked pulls for executors {sorted(dead_parked)} whose "
                f"leases are gone — proactive reclaim missed them",
            )

    def _check_election(self, out: List[Violation]) -> None:
        election = self.evidence.election()
        if election is None or election.term == 0:
            return  # no replicated control plane ran an election
        terms = [row[0] for row in election.history]
        self._check(
            out,
            "election-safety",
            terms == sorted(set(terms)),
            f"new-term grants are not strictly increasing — two leaders "
            f"shared a term: {terms[:10]}",
        )
        deposed = [
            (stamped, reg)
            for stamped, reg in election.actions
            if stamped != reg
        ]
        self._check(
            out,
            "election-safety",
            not deposed,
            f"{len(deposed)} accepted action(s) stamped with a non-current "
            f"term — a deposed leader mutated the switch, e.g. {deposed[:3]}",
        )
        reg_terms = [reg for _stamped, reg in election.actions]
        self._check(
            out,
            "election-safety",
            reg_terms == sorted(reg_terms),
            "register term moved backwards across accepted actions",
        )
        replicas = self.evidence.replicas()
        if replicas is None:
            return
        leaders = [rid for rid, leads in replicas if leads]
        self._check(
            out,
            "election-safety",
            len(leaders) <= 1,
            f"{len(leaders)} replicas claim live leadership simultaneously: "
            f"{leaders}",
        )
        self._check(
            out,
            "election-safety",
            leaders or not replicas,
            f"no live leader at the final check despite {len(replicas)} "
            f"live replica(s) — election stalled",
        )

    def _check_epochs(self, out: List[Violation]) -> None:
        for executor_id, epochs in (self.evidence.epoch_history() or {}).items():
            self._check(
                out,
                "epoch-monotonicity",
                all(a < b for a, b in zip(epochs, epochs[1:])),
                f"exec{executor_id} acked epochs {epochs}: not strictly "
                f"increasing",
            )

    def _check_register_sanity(self, out: List[Violation]) -> None:
        final: List[Violation] = []
        self._probe_registers(final, "final")
        out.extend(final)
        program = self.evidence.program()
        if program is None:
            return
        if not any(v.invariant == "register-sanity" for v in final):
            # occupancy walks the pointers the probe just vouched for
            for i, queue in enumerate(getattr(program, "queues", [])):
                occupancy = queue.occupancy()
                entries = len(queue.snapshot_entries())
                self._check(
                    out,
                    "register-sanity",
                    occupancy == entries,
                    f"queue {i}: occupancy counter says {occupancy} but "
                    f"{entries} entries are reachable",
                )
        if hasattr(program, "parked_pull_count"):
            self._check(
                out,
                "register-sanity",
                program.parked_pull_count() <= program.pull_queue_capacity,
                f"{program.parked_pull_count()} parked pulls exceed the "
                f"capacity register ({program.pull_queue_capacity})",
            )

    def _check_quiescence(self, out: List[Violation]) -> None:
        program = self.evidence.program()
        if program is not None:
            queued = program.total_queued()
            self._check(
                out,
                "quiescence",
                not queued,
                f"{queued} task(s) still queued in the switch after drain, "
                f"e.g. {program.queued_keys()[:3] if queued else []}",
            )
        # every fault window must have closed behind itself
        for detail in self.evidence.residual_faults() or ():
            self._check(out, "quiescence", False, detail)
        for executor, factor in self.evidence.executor_speeds():
            self._check(
                out,
                "quiescence",
                factor == 1.0,
                f"executor {executor} speed factor stuck at {factor} after "
                f"the slowdown window closed",
            )
        if self._recirc_limit_baseline is not None:
            limit = self.evidence.recirc_limit()
            self._check(
                out,
                "quiescence",
                limit == self._recirc_limit_baseline,
                f"recirculation limit left at {limit}, baseline was "
                f"{self._recirc_limit_baseline}",
            )

    def _check_parser(self, out: List[Violation]) -> None:
        crashes = self.evidence.parser_crashes()
        if crashes is not None:
            self._check(
                out,
                "parser-robustness",
                not crashes,
                f"codec raised non-ProtocolError on {crashes} corrupted "
                f"frame(s)",
            )
