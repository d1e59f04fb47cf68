"""The programmable switch: pipeline, programs, and recirculation.

A :class:`ProgrammableSwitch` is a :class:`~repro.net.topology.BaseSwitch`
whose ingress runs a :class:`P4Program` over scheduler-protocol packets.
The model keeps the properties that matter for the paper's results:

* **Serial pipeline**: packets are processed one at a time at event
  granularity; register state is therefore free of read-write hazards
  between packets, matching the hardware's stage-serial execution.
* **Constant traversal latency** plus a tiny per-packet ingress gap
  (line rate is billions of pps — the switch is never the throughput
  bottleneck, §8.2).
* **Metered recirculation**: recirculated packets re-enter ingress through
  a port with a fraction of line rate and a bounded queue. When R2P2-1
  recirculates half of all packets at high load, the queue overflows and
  tasks are dropped (§8.3). Draconis recirculates 0.02–0.05 % and never
  hits the limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappush as _heappush
from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

from repro.errors import SwitchError
from repro.net.packet import ETHERNET_IP_UDP_OVERHEAD, Address, Packet
from repro.net.topology import BaseSwitch
from repro.sim.core import SEC, Simulator
from repro.switchsim.election import ElectionRegister
from repro.switchsim.registers import PacketContext, RegisterFile
from repro.switchsim.resources import SwitchModel, TOFINO1


# -- actions a program can emit per traversal -------------------------------


@dataclass(slots=True)
class Forward:
    """Send the (possibly rewritten) packet to ``dst``."""

    packet: Packet
    dst: Optional[Address] = None  # None = packet.dst


@dataclass(slots=True)
class Reply:
    """Send a new message from the switch itself back to ``dst``.

    The switch synthesizes the response packet (e.g. a task_assignment or
    no-op), claiming the scheduler service address as source.
    """

    dst: Address
    payload: Any
    size: int


@dataclass(slots=True)
class Recirculate:
    """Re-inject the packet into ingress via the recirculation port."""

    packet: Packet


@dataclass(slots=True)
class Drop:
    """Discard the packet (counted)."""

    packet: Packet
    reason: str = "policy"


Action = Union[Forward, Reply, Recirculate, Drop]


@dataclass
class SwitchStats:
    """Counters exposed by the switch for the evaluation harness."""

    pipeline_packets: int = 0
    recirculations: int = 0
    recirc_dropped: int = 0
    program_drops: int = 0
    replies: int = 0
    forwards: int = 0
    failovers: int = 0

    def recirculation_fraction(self) -> float:
        """Share of processed packets that were recirculations (Fig. 7)."""
        if self.pipeline_packets == 0:
            return 0.0
        return self.recirculations / self.pipeline_packets


class P4Program:
    """Base class for switch dataplane programs.

    Subclasses declare register arrays in ``__init__`` via
    ``self.registers`` and implement :meth:`process`, returning the actions
    for one traversal. Programs must not keep per-packet Python state
    outside the packet/context — all persistent state goes through the
    register file, where the access constraint is enforced.
    """

    #: UDP port the scheduler service listens on; packets to other ports
    #: are forwarded as plain traffic.
    service_port: int = 9000

    def __init__(self) -> None:
        self.registers = RegisterFile()
        self.switch: Optional["ProgrammableSwitch"] = None

    def attach(self, switch: "ProgrammableSwitch") -> None:
        self.switch = switch

    def wants(self, packet: Packet) -> bool:
        """Whether this packet enters the scheduler pipeline."""
        return packet.dst.port == self.service_port

    def process(self, ctx: PacketContext, packet: Packet) -> Sequence[Action]:
        raise NotImplementedError

    def check_resources(self, model: SwitchModel) -> None:
        """Validate the declared registers against a hardware budget."""
        model.check_fits(self.registers)


class ProgrammableSwitch(BaseSwitch):
    """A star switch running a P4 program on scheduler traffic."""

    def __init__(
        self,
        sim: Simulator,
        program: P4Program,
        name: str = "switch",
        model: SwitchModel = TOFINO1,
        recirc_queue_packets: int = 64,
        recirc_pps: Optional[int] = None,
        recirc_latency_ns: int = 1_000,
        strict_resources: bool = False,
    ) -> None:
        super().__init__(sim, name)
        self.program = program
        self.model = model
        self.stats = SwitchStats()
        self.recirc_queue_packets = recirc_queue_packets
        self.recirc_latency_ns = recirc_latency_ns
        self._recirc_free_at = 0
        effective_recirc_pps = recirc_pps if recirc_pps else model.recirc_pps()
        self._recirc_gap_ns = max(1, SEC // max(1, effective_recirc_pps))
        self._pipeline_gap_ns = max(1, SEC // model.line_rate_pps)
        self._ingress_free_at = 0
        program.attach(self)
        if strict_resources:
            program.check_resources(model)
        #: service address used as the source of switch-synthesized replies
        self.service_address = Address(name, program.service_port)
        #: optional :class:`repro.obs.bus.TelemetryBus`; when attached the
        #: pipeline emits ingress/reply/forward/recirculate/drop events
        self.obs = None
        #: control-plane observers of program swaps, called as
        #: ``hook(new_program, old_program)`` after the swap but before
        #: the standby sees its first packet (warm-standby restore point)
        self._install_hooks: List[Callable[[P4Program, P4Program], None]] = []
        #: controller-leadership lease cell (repro.ctrl.replication);
        #: switch-resident so the term sequence survives install_program
        self.election = ElectionRegister()

    # -- control plane / fault hooks -------------------------------------

    def add_install_hook(
        self, hook: Callable[[P4Program, P4Program], None]
    ) -> None:
        """Observe :meth:`install_program` swaps (repro.ctrl recovery)."""
        self._install_hooks.append(hook)

    def install_program(self, program: P4Program) -> P4Program:
        """Swap in a fresh dataplane program (switch failover, §3.3).

        Models a standby switch taking over the scheduler pipeline: every
        queued task and register word of the old program is gone; clients
        recover by resubmitting on timeout — unless an install hook (the
        repro.ctrl checkpoint manager) replays saved state into the
        standby first. Returns the replaced program.
        """
        old, self.program = self.program, program
        program.attach(self)
        self.service_address = Address(self.name, program.service_port)
        self.stats.failovers += 1
        for hook in self._install_hooks:
            hook(program, old)
        return old

    def recirc_backlog_fraction(self) -> float:
        """Occupied fraction of the recirculation queue (degradation signal)."""
        if self.recirc_queue_packets <= 0:
            return 1.0
        backlog = max(0, self._recirc_free_at - self.sim.now)
        queued = backlog // self._recirc_gap_ns
        return min(1.0, queued / self.recirc_queue_packets)

    def set_recirc_limit(self, queue_packets: int) -> int:
        """Resize the recirculation queue (fault: budget exhaustion).

        ``0`` drops every recirculation — the regime where R2P2-1 loses
        tasks (§8.3). Returns the previous limit so faults can restore it.
        """
        if queue_packets < 0:
            raise SwitchError(f"recirc queue must be >= 0: {queue_packets}")
        old = self.recirc_queue_packets
        self.recirc_queue_packets = queue_packets
        return old

    # -- ingress ---------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        if not self.program.wants(packet):
            self.forward(packet)
            return
        # Serialize ingress at line rate; the gap is sub-nanosecond in
        # reality, we round up to 1 ns which is still never the bottleneck.
        sim = self.sim
        now = sim._now
        free_at = self._ingress_free_at
        start = now if now > free_at else free_at
        self._ingress_free_at = start + self._pipeline_gap_ns
        # call_at, inlined (start >= now, so the past-check is dead).
        seq = sim._sequence
        sim._sequence = seq + 1
        _heappush(
            sim._heap,
            (start + self.model.pipeline_latency_ns, seq, self._traverse,
             (packet,)),
        )

    def _enter_pipeline(self, packet: Packet) -> None:
        # Kept for subclasses/tests that inject packets mid-pipeline.
        start = max(self.sim.now, self._ingress_free_at)
        self._ingress_free_at = start + self._pipeline_gap_ns
        done = start + self.model.pipeline_latency_ns
        self.sim.call_at(done, self._traverse, packet)

    def _traverse(self, packet: Packet) -> None:
        self.stats.pipeline_packets += 1
        if self.obs is not None:
            self.obs.on_switch_ingress(self.sim.now, packet)
        ctx = PacketContext(packet)
        actions = self.program.process(ctx, packet)
        apply = self._apply
        for action in actions:
            apply(action)

    # -- actions -----------------------------------------------------------

    def _apply(self, action: Action) -> None:
        # Exact-class checks: the action taxonomy is closed (no subclasses)
        # and Reply/Forward dominate, so two identity compares beat the
        # isinstance ladder on every packet.
        obs = self.obs
        cls = action.__class__
        if cls is Reply:
            self.stats.replies += 1
            if obs is not None:
                obs.on_switch_reply(self.sim.now, action.dst.node, action.payload)
            reply = Packet(
                src=self.service_address,
                dst=action.dst,
                payload=action.payload,
                size=action.size + ETHERNET_IP_UDP_OVERHEAD,
            )
            # BaseSwitch.forward, inlined for the two dominant branches.
            port = self._ports.get(reply.dst.node)
            if port is None:
                self.unroutable_packets += 1
            else:
                self.forwarded_packets += 1
                port.send(reply)
        elif cls is Forward:
            pkt = action.packet
            if action.dst is not None:
                pkt.dst = action.dst
            self.stats.forwards += 1
            if obs is not None:
                obs.on_switch_forward(self.sim.now, pkt)
            port = self._ports.get(pkt.dst.node)
            if port is None:
                self.unroutable_packets += 1
            else:
                self.forwarded_packets += 1
                port.send(pkt)
        elif cls is Recirculate:
            if obs is not None:
                obs.on_switch_recirculate(self.sim.now, action.packet)
            self._recirculate(action.packet)
        elif cls is Drop:
            self.stats.program_drops += 1
            if obs is not None:
                obs.on_switch_drop(self.sim.now, action.packet, action.reason)
        else:
            raise SwitchError(f"unknown switch action: {action!r}")

    def _recirculate(self, packet: Packet) -> None:
        """Queue a packet on the recirculation port; overflow drops it."""
        backlog = max(0, self._recirc_free_at - self.sim.now)
        queued = backlog // self._recirc_gap_ns
        if queued >= self.recirc_queue_packets:
            self.stats.recirc_dropped += 1
            if self.obs is not None:
                self.obs.on_switch_drop(self.sim.now, packet, "recirc-overflow")
            return
        self.stats.recirculations += 1
        packet.recirculated += 1
        start = max(self.sim.now, self._recirc_free_at)
        self._recirc_free_at = start + self._recirc_gap_ns
        done = start + self.recirc_latency_ns + self.model.pipeline_latency_ns
        self.sim.call_at(done, self._traverse, packet)
