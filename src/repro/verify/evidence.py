"""Run evidence: what a runtime must show the invariant oracle.

:class:`~repro.verify.oracle.InvariantOracle` never touches a cluster
directly; it reads a :class:`RunEvidence`. The simulator fills the
protocol in from its :class:`~repro.experiments.common.ClusterHandles`
(:class:`SimEvidence`), the live UDP runtime from the handle objects its
chaos runner builds (:class:`LiveEvidence`, duck-typed — ``verify/`` must
not import ``repro.live``). A probe that returns ``None`` tells the
oracle this runtime has no such evidence, and the family is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.sim.core import ms

TaskKey = Tuple[int, int, int]


@dataclass
class TaskLedger:
    """Task-conservation evidence, by ``(uid, jid, tid)`` key."""

    #: tasks the clients handed to the scheduler / saw complete
    submitted: int
    completed: int
    #: abandoned after the retry budget ran out (accounted for)
    gave_up: Set[TaskKey]
    #: submitted, neither completed nor given up
    unresolved: Set[TaskKey]
    #: per client: completions for tasks it never submitted
    strays: Dict[str, int]
    #: unresolved keys excused because a resubmit timer is still armed
    retrying: Set[TaskKey] = frozenset()
    #: keys with lifecycle records but no submission
    phantoms: Tuple[TaskKey, ...] = ()
    #: duplicate completions the metrics recorded / the clients noticed
    duplicates_recorded: int = 0
    duplicates_suppressed: int = 0


class RunEvidence:
    """The protocol. What both runtimes' switches expose alike (program,
    election register, install hook, registers) is read here once; every
    other default is "this runtime has no such evidence"."""

    #: the switch object (``ProgrammableSwitch`` or ``SoftSwitch``)
    switch: Any
    #: ``now`` + ``call_at_cancellable``: a Simulator or a WallTimers;
    #: the oracle's sampler ticks on it every ``sample_interval_ns``
    driver: Any
    sample_interval_ns: int
    #: the CheckpointManager restoring failovers, if one is deployed
    checkpoints: Any = None

    def program(self) -> Any:
        """The *currently installed* Draconis program, else ``None``.

        Read off the switch every time: after a ``SwitchFailover`` any
        earlier handle points at the displaced program, whose orphaned
        queues legitimately retain entries.
        """
        program = getattr(self.switch, "program", None)
        return program if hasattr(program, "total_queued") else None

    def on_failover(self, hook: Callable[[Any, Any], None]) -> None:
        """Have ``hook(new_program, old_program)`` run on every failover."""
        if hasattr(self.switch, "add_install_hook"):
            self.switch.add_install_hook(hook)

    def election(self) -> Any:
        """The switch's ElectionRegister."""
        return getattr(self.switch, "election", None)

    def epoch_history(self) -> Optional[Dict[int, List[int]]]:
        """Every epoch acked, per executor id, in ack order."""
        return getattr(self.switch, "epoch_history", None)

    def recirc_limit(self) -> Optional[int]:
        """The switch's recirculation queue limit."""
        return getattr(self.switch, "recirc_queue_packets", None)

    def ledger(self) -> TaskLedger:
        raise NotImplementedError

    def controller(self) -> Any:
        """The controller whose lease table is authoritative right now."""
        return None

    def replicas(self) -> Optional[List[Tuple[int, bool]]]:
        """``(replica_id, claims leadership)`` for every live replica."""
        return None

    def executor_records(self) -> Optional[Iterable[Any]]:
        """Registry rows with ``executor_id/in_flight/max_outstanding``."""
        return None

    def executor_speeds(self) -> List[Tuple[Any, float]]:
        """``(label, slowdown factor)`` of every executor still alive."""
        return []

    def residual_faults(self) -> Optional[List[str]]:
        """One line per fault effect still active after every window."""
        return None

    def parser_crashes(self) -> Optional[int]:
        """Corrupted frames that drew a non-ProtocolError from the codec."""
        return None


@dataclass
class SimEvidence(RunEvidence):
    """Evidence from a simulated cluster's ``ClusterHandles``."""

    handles: Any
    injector: Any = None
    sample_interval_ns = ms(2)

    def __post_init__(self) -> None:
        self.switch = self.handles.switch
        self.driver = self.handles.sim
        self.checkpoints = self.handles.checkpoints

    def ledger(self) -> TaskLedger:
        collector = self.handles.collector
        clients = self.handles.clients
        gave_up: Set[TaskKey] = set()
        retrying: Set[TaskKey] = set()
        for client in clients:
            gave_up |= client.gave_up_keys()
            retrying |= client.pending_timeout_keys()
        records = collector.records.items()
        return TaskLedger(
            submitted=collector.submitted_count(),
            completed=collector.completed_count(),
            gave_up=gave_up,
            unresolved={
                key
                for key, r in records
                if r.submitted_at >= 0 > r.completed_at and key not in gave_up
            },
            retrying=retrying,
            phantoms=tuple(key for key, r in records if r.submitted_at < 0),
            strays={
                f"client{c.uid}": c.stats.stray_completions for c in clients
            },
            duplicates_recorded=collector.duplicate_completions,
            duplicates_suppressed=sum(
                c.stats.duplicate_completions for c in clients
            ),
        )

    def controller(self) -> Any:
        if self.handles.controller is None and self.handles.ctrl_group:
            # Replicated control plane: lease safety is judged against
            # the current leader's view (followers keep warm but
            # non-authoritative tables). Leader absence is the election
            # family's problem, not a lease violation.
            return self.handles.ctrl_group.leader()
        return self.handles.controller

    def replicas(self) -> Optional[List[Tuple[int, bool]]]:
        group = self.handles.ctrl_group
        if group is None:
            return None
        leader = group.leader()
        return [
            (r.replica_id, r is leader) for r in group.replicas if not r.crashed
        ]

    def executor_speeds(self) -> List[Tuple[Any, float]]:
        # permanently-crashed workers keep whatever state they died with
        return [
            (executor.executor_id, executor.speed_factor)
            for worker in self.handles.workers
            if not getattr(worker, "crashed", False)
            for executor in getattr(worker, "executors", None) or ()
        ]

    def residual_faults(self) -> Optional[List[str]]:
        if self.injector is None:
            return None
        return [
            f"link {link.name}: {len(link.fault_hook.active)} degradation(s) "
            f"still active after every fault window closed"
            for link in self.injector.targets.touched_links
            if link.fault_hook.active
        ]


@dataclass
class LiveEvidence(RunEvidence):
    """Evidence from a live chaos cluster (duck-typed handle objects).

    Conservation is by-key from the client's own bookkeeping: nothing
    still pending after the drain is excused, so ``retrying`` is empty.
    ``driver`` is the :class:`~repro.live.base.WallTimers` the oracle's
    sampler ticks on; ``fault_timers`` the one the fault injector and
    its restarts run on (quiescence needs it idle).
    """

    switch: Any
    client: Any
    executors: Dict[int, Any]
    driver: Any = None
    chaos: Any = None
    fault_timers: Any = None
    controllers: Optional[Dict[int, Any]] = None
    checkpoints: Any = None
    sample_interval_ns = ms(50)

    def ledger(self) -> TaskLedger:
        client = self.client
        return TaskLedger(
            submitted=client.tasks_submitted,
            completed=client.completed_count,
            gave_up=client.gave_up_keys(),
            unresolved=client.pending_keys(),
            strays={f"client{client.uid}": client.counters.get("phantoms", 0)},
        )

    def replicas(self) -> Optional[List[Tuple[int, bool]]]:
        if not self.controllers:
            return None
        return [
            (r.replica_id, r.is_leader())
            for r in self.controllers.values()
            if not r.closed
        ]

    def executor_records(self) -> Optional[Iterable[Any]]:
        return list(self.switch.executors.values())

    def executor_speeds(self) -> List[Tuple[Any, float]]:
        # a killed incarnation has no speed left to restore
        return [
            (executor.executor_id, executor.config.time_scale)
            for executor in self.executors.values()
            if not executor.closed
        ]

    def residual_faults(self) -> Optional[List[str]]:
        out = []
        if self.chaos is not None:
            if not self.chaos.windows_closed():
                out.append(
                    "fault windows still open at final check (elapsed "
                    f"{self.chaos.elapsed_ns()}ns < "
                    f"{self.chaos.last_end_ns}ns)"
                )
            delayed = self.chaos.pending_delayed()
            if delayed:
                out.append(
                    f"{delayed} reorder-delayed packet(s) still buffered "
                    "in chaos transports"
                )
        if self.fault_timers is not None and not self.fault_timers.idle():
            out.append(
                "fault injector still has scheduled timers or unfinished "
                "restarts"
            )
        return out

    def parser_crashes(self) -> Optional[int]:
        if self.chaos is None:
            return None
        return self.chaos.counters.get("parser_crashes", 0)
