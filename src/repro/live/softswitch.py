"""The software dataplane: a DraconisProgram behind a real UDP socket.

:class:`SoftSwitch` plays the role the programmable switch plays in the
simulator, with the *same* program object — the scheduler logic, circular
queues, policies and register-access discipline are shared code, not a
reimplementation. The switch shim supplies the three things the program
reads from its host (``sim.now``, ``obs``, ``recirc_backlog_fraction``)
and maps the program's traversal actions onto datagrams:

* ``Reply`` → encode and send to the destination endpoint;
* ``Recirculate`` → re-process inline with a fresh
  :class:`~repro.switchsim.registers.PacketContext` (a software
  recirculation port with a bounded chain budget);
* ``Drop`` / ``Forward`` → counted (there is no fabric behind the soft
  switch to forward into).

On top of the program, the switch owns the live-only concerns the
simulator models implicitly: executor registration/liveness
(:class:`~repro.protocol.messages.ExecutorRegister` → registry + epoch),
JBSQ-style bounded dispatch (at most ``max_outstanding`` assignments in
flight per executor, tracked by task key and enforced where assignments
are emitted), and the priority-inversion probe the conformance harness
asserts on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.core.policies import Policy, PriorityPolicy
from repro.core.scheduler import DraconisProgram
from repro.ctrl.degradation import DegradationPolicy
from repro.errors import ProtocolError
from repro.live.base import Counters, Endpoint, UdpPort, WallClock
from repro.net.packet import Address, Packet
from repro.protocol import codec
from repro.protocol.messages import (
    Completion,
    ExecutorRegister,
    Heartbeat,
    JobSubmission,
    NoOpTask,
    RegisterAck,
    TaskAssignment,
    TaskKey,
    TaskRequest,
)
from repro.switchsim.election import ElectionRegister
from repro.switchsim.pipeline import Drop, Recirculate, Reply
from repro.switchsim.registers import PacketContext

DEFAULT_PULL_TTL_NS = 50_000_000
"""Parked pulls expire after 50 ms of wall time — comfortably above one
event-loop tick, comfortably below the executors' re-poll watchdog."""

CREDIT_RESYNC_NS = 250_000_000
"""A bound-saturated executor that has not been assigned anything for
this long gets its credit reset: an assignment or completion datagram was
lost and the in-flight set leaked (see ``_on_request_bound``)."""

MAX_CHAIN = 4096
"""Inline recirculation budget per ingress datagram (a 32-task
submission chains 31 recirculations plus parked-pull wakes; real
recirculation ports are similarly bounded)."""

MAX_PEERS = 4096
"""Source endpoints remembered as interned :class:`Address` objects; a
full table is emptied and refills from live traffic."""


@dataclass
class ExecutorRecord:
    """Registry entry for one live executor."""

    executor_id: int
    endpoint: Endpoint
    node_id: int
    rack_id: int
    max_outstanding: int
    epoch: int = 1
    #: keys of the assignments sent and not yet completed. A set, not a
    #: count: a wire-duplicated completion releases its credit once, and
    #: only a completion that released credit may bring a pull with it.
    tasks: Set[TaskKey] = field(default_factory=set)
    last_assign_ns: int = 0

    @property
    def in_flight(self) -> int:
        return len(self.tasks)


class SoftSwitch:
    """UDP dataplane hosting an unmodified :class:`DraconisProgram`."""

    def __init__(
        self,
        policy: Optional[Policy] = None,
        queue_capacity: int = 4096,
        park_pulls: bool = True,
        pull_ttl_ns: int = DEFAULT_PULL_TTL_NS,
        degradation: Optional[DegradationPolicy] = None,
        obs=None,
        max_chain: int = MAX_CHAIN,
        transport_wrap: Optional[Callable] = None,
    ) -> None:
        # The program reads its host through three attributes; this object
        # satisfies all of them (sim/obs here, recirc_backlog_fraction
        # below), so attach() binds the live switch like a simulated one.
        self.sim = WallClock()
        self.obs = obs
        self.counters = Counters()
        # Kept so standby_program() can build an identically-configured
        # replacement for checkpoint failover.
        self._program_kwargs = dict(
            policy=policy,
            queue_capacity=queue_capacity,
            record_queue_delays=True,
            # One traversal walks the whole priority ladder (the Tofino 2
            # stage layout): an assignment can never be emitted while a
            # strictly-higher queue still holds a task, which is what
            # makes the conformance harness's inversion count structural.
            queues_in_stages=True,
            park_pulls=park_pulls,
            pull_ttl_ns=pull_ttl_ns,
            degradation=degradation,
        )
        self.program = DraconisProgram(**self._program_kwargs)
        self.program.attach(self)  # type: ignore[arg-type]
        self.max_chain = max_chain
        self.transport_wrap = transport_wrap
        self.priority_inversions = 0
        self._inversion_probe = isinstance(policy, PriorityPolicy)
        # Leadership arbitration for replicated live controllers
        # (repro.live.ctrlplane). Same register class as the simulated
        # switch; ElectionRequest datagrams reach it through the program's
        # normal traversal path, and it survives install_program because
        # it lives on the switch object, not the program.
        self.election = ElectionRegister()
        self.executors: Dict[int, ExecutorRecord] = {}
        #: every epoch ever acked, per executor id, in ack order — the
        #: live oracle asserts each sequence is strictly increasing.
        self.epoch_history: Dict[int, List[int]] = {}
        self._by_endpoint: Dict[Endpoint, ExecutorRecord] = {}
        #: source endpoint -> its one Address object (no per-datagram build)
        self._peers: Dict[Endpoint, Address] = {}
        self._install_hooks: List[Callable] = []
        self._transport: Any = None
        self._service_address: Optional[Address] = None

    # -- switch-shim surface the program reads ----------------------------

    def recirc_backlog_fraction(self) -> float:
        """Inline recirculation has no backlog queue to fill."""
        return 0.0

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Endpoint:
        port_ = UdpPort(
            lambda: self._on_datagram, self.counters, local_addr=(host, port)
        )
        bound = port_.get_extra_info("sockname")
        self._transport = self.transport_wrap(port_) if self.transport_wrap else port_
        self._service_address = Address(bound[0], bound[1])
        return (bound[0], bound[1])

    @property
    def endpoint(self) -> Endpoint:
        if self._service_address is None:
            raise RuntimeError("SoftSwitch.start() has not been awaited")
        return (self._service_address.node, self._service_address.port)

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    # -- failover ----------------------------------------------------------

    def standby_program(self) -> DraconisProgram:
        """A cold standby configured identically to the active program.

        The standby is *empty*; :class:`~repro.ctrl.checkpoint.
        CheckpointManager` install hooks replay checkpoint + journal into
        it during :meth:`install_program`, which is what makes a live
        SwitchFailover lose zero queued tasks.
        """
        return DraconisProgram(**self._program_kwargs)

    def add_install_hook(self, hook: Callable) -> None:
        """Register ``hook(new_program, old_program)`` run on failover.

        Mirrors :meth:`repro.switchsim.pipeline.ProgrammableSwitch.
        add_install_hook` so ``ctrl.CheckpointManager`` binds to the live
        switch unmodified.
        """
        self._install_hooks.append(hook)

    def install_program(self, program: DraconisProgram) -> DraconisProgram:
        """Swap the scheduler program in place (live SwitchFailover).

        The datagram handler chain is serial, so from the dataplane's
        perspective the swap is atomic: every traversal runs entirely
        against one program. Returns the displaced program.
        """
        old = self.program
        program.attach(self)  # type: ignore[arg-type]
        self.program = program
        self.counters.incr("failovers")
        for hook in self._install_hooks:
            hook(program, old)
        return old

    # -- datagram path -----------------------------------------------------

    def _on_datagram(self, data, addr: Endpoint) -> None:
        counters = self.counters
        counters["rx"] += 1
        try:
            message = codec.decode(data)
        except ProtocolError:
            counters["malformed"] += 1
            return
        now = self.sim.now  # the one clock read the shim takes per datagram
        cls = message.__class__
        if cls is Completion:
            record = self.executors.get(message.executor_id)
            if record is not None:
                key = (message.uid, message.jid, message.tid)
                if key in record.tasks:
                    record.tasks.remove(key)
                elif message.piggyback_request is not None:
                    # Not in flight here: a wire duplicate, or credit that a
                    # resync / re-registration already forgot. The client
                    # still gets the notice (it dedups by key); the pull
                    # riding on it has no budget behind it: not admitted.
                    message.piggyback_request = None
                    counters["stale_piggybacks"] += 1
        elif cls is TaskRequest and self._on_request_bound(message, addr, now):
            return
        elif cls is ExecutorRegister:
            self._on_register(message, addr)
            return
        elif cls is Heartbeat:
            counters["heartbeats"] += 1
            return
        src = self._peers.get(addr)
        if src is None:
            if len(self._peers) >= MAX_PEERS:
                self._peers.clear()
            src = self._peers[addr] = Address(addr[0], addr[1])
        self._run(Packet(src, self._service_address, message, len(data)), now)

    def _on_register(self, msg: ExecutorRegister, addr: Endpoint) -> None:
        old = self.executors.get(msg.executor_id)
        if old is not None:
            # Re-registration = a new incarnation (restart or a lost ack
            # retry): the fresh record below bumps the epoch and forgets
            # stale credit; the endpoint moves in case the executor came
            # back on a new port.
            self._by_endpoint.pop(old.endpoint, None)
        record = ExecutorRecord(
            executor_id=msg.executor_id,
            endpoint=addr,
            node_id=msg.node_id,
            rack_id=msg.rack_id,
            max_outstanding=max(1, msg.max_outstanding),
            epoch=old.epoch + 1 if old is not None else 1,
        )
        self.executors[msg.executor_id] = self._by_endpoint[addr] = record
        self.epoch_history.setdefault(msg.executor_id, []).append(record.epoch)
        self.counters.incr("registrations")
        self._send(addr, RegisterAck(msg.executor_id, record.epoch, True))

    def _on_request_bound(
        self, request: TaskRequest, addr: Endpoint, now: int
    ) -> bool:
        """JBSQ-style dispatch bound; True when the pull was absorbed.

        A registered executor with ``max_outstanding`` assignments already
        in flight gets a no-op instead of a queue access. Credit leaks
        (an assignment or completion datagram lost on the floor) self-heal
        after :data:`CREDIT_RESYNC_NS` without traffic. A pull admitted
        here can still be one too many (the wire duplicated it while the
        executor was idle, and every copy parks), so the bound is checked
        again at emission (:meth:`_over_bound`).
        """
        record = self.executors.get(request.executor_id)
        if record is None:
            self.counters.incr("unregistered_pulls")
            return False
        if len(record.tasks) < record.max_outstanding:
            return False
        if now - record.last_assign_ns > CREDIT_RESYNC_NS:
            record.tasks.clear()
            self.counters.incr("credit_resyncs")
            return False
        self.counters.incr("bounded_rejects")
        self._send(addr, NoOpTask())
        return True

    def _run(self, packet: Packet, now: int) -> None:
        """One ingress datagram = one traversal chain.

        Recirculations re-enter in FIFO order with a fresh
        :class:`PacketContext` each, exactly like the simulator's
        recirculation port — the one-access-per-register-array constraint
        is enforced here too, on real traffic. Most traversals do not
        recirculate, so the chain is only allocated when one does.
        """
        program = self.program
        counters = self.counters
        transport = self._transport
        chain: Optional[deque] = None
        budget = self.max_chain
        while budget > 0:
            budget -= 1
            for action in program.process(PacketContext(packet), packet):
                acls = action.__class__
                again = None
                if acls is Reply:
                    payload = action.payload
                    if payload.__class__ is TaskAssignment:
                        again = self._over_bound(action.dst, payload, now)
                    if again is None and transport is not None:
                        transport.sendto(codec.encode(payload), action.dst)
                        counters["tx"] += 1
                elif acls is Recirculate:
                    counters["recirculations"] += 1
                    again = action.packet
                elif acls is Drop:
                    counters["program_drops"] += 1
                else:  # Forward: nothing routable behind the soft switch
                    counters["forwards_dropped"] += 1
                if again is not None:
                    if chain is None:
                        chain = deque()
                    chain.append(again)
            if not chain:
                return
            packet = chain.popleft()
        counters.incr("chain_overflows", 1 + len(chain or ()))

    def _over_bound(
        self, dst: Address, assignment: TaskAssignment, now: int
    ) -> Optional[Packet]:
        """Charge an outgoing assignment to its executor's credit.

        The bound is enforced here, where the assignment would leave,
        not trusted from ingress: when the executor already holds
        ``max_outstanding`` tasks the pull being answered was forged (a
        wire-duplicated pull parks like a real one), and the dequeued
        task is returned as a one-task submission from its own client to
        go back through the queue (the client gets one more ack).
        """
        record = self._by_endpoint.get(dst)
        if record is not None:
            tasks = record.tasks
            if len(tasks) >= record.max_outstanding:
                self.counters["over_dispatch_requeues"] += 1
                job = JobSubmission(
                    assignment.uid, assignment.jid, [assignment.task]
                )
                return Packet(
                    assignment.client,
                    self._service_address,
                    job,
                    codec.wire_size(job),
                )
            tasks.add((assignment.uid, assignment.jid, assignment.task.tid))
            record.last_assign_ns = now
        self.counters["assignments"] += 1
        if self._inversion_probe:
            self._check_inversion(assignment)
        return None

    def _check_inversion(self, assignment: TaskAssignment) -> None:
        """Priority-ordering probe, run on every assignment.

        Under :class:`PriorityPolicy` the task's tprops word *is* its
        level (1 = highest). The handler chain is serial, so occupancy
        observed here is exactly what the traversal that produced the
        assignment saw: any task still queued strictly above the
        assigned level is a policy-level inversion.
        """
        level = assignment.task.tprops
        if level <= 1:
            return
        queues = self.program.queues
        for queue in queues[: min(level - 1, len(queues))]:
            if queue.approx_occupancy() > 0:
                self.priority_inversions += 1
                self.counters.incr("priority_inversions")
                return

    def _send(self, addr: Endpoint, payload) -> None:
        if self._transport is not None:
            self._transport.sendto(codec.encode(payload), addr)
            self.counters["tx"] += 1

    # -- inspection --------------------------------------------------------

    @property
    def sched_stats(self):
        return self.program.sched_stats

    @property
    def queue_delays(self):
        return self.program.queue_delays

    def total_queued(self) -> int:
        return self.program.total_queued()
