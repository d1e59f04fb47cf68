"""Point-to-point links with serialization and propagation delay.

A :class:`Link` is unidirectional; :func:`Link.pair` builds the two
directions of a full-duplex cable. Transmission follows the standard
store-and-forward model: a packet occupies the transmitter for
``size * 8 / bandwidth`` and arrives ``propagation`` later. The
transmitter is FIFO — a busy link queues packets (bounded, tail-drop).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from heapq import heappush as _heappush
from typing import Callable, Optional, Tuple

from repro.errors import NetworkError
from repro.net.packet import Packet
from repro.sim.core import SEC, Simulator

DEFAULT_BANDWIDTH_BPS = 100 * 10**9  # the paper's 100 Gbps NICs
DEFAULT_PROPAGATION_NS = 500  # one-way, host NIC <-> ToR switch
DEFAULT_QUEUE_PACKETS = 4096


@dataclass
class SendDecision:
    """What a fault hook wants done with one packet about to be sent.

    ``drop`` discards the packet before it touches the transmitter (a
    lossy or partitioned cable). ``extra_delay_ns`` postpones delivery of
    this packet only, letting later packets overtake it (reordering).
    ``duplicate`` delivers a second copy of the packet shortly after the
    first (e.g. a flapping port re-emitting a frame). ``corrupt`` marks a
    drop as wire corruption (mutated frame caught by the checksum) so it
    is counted in ``Link.corrupt_drops`` separately from plain loss.
    """

    drop: bool = False
    extra_delay_ns: int = 0
    duplicate: bool = False
    corrupt: bool = False


class LinkFaultHook:
    """Interface consulted by :meth:`Link.send` for every packet.

    Implementations (see :mod:`repro.faults.links`) return a
    :class:`SendDecision`, or None for "no fault". The hook lives at the
    link layer so failure experiments degrade the *wire*, not a subclass
    of it — any Link in any topology can be degraded after construction.
    """

    def on_send(self, link: "Link", packet: Packet) -> Optional[SendDecision]:
        raise NotImplementedError


class Link:
    """One direction of a cable; delivers packets to a sink callable."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        sink: Callable[[Packet], None],
        bandwidth_bps: int = DEFAULT_BANDWIDTH_BPS,
        propagation_ns: int = DEFAULT_PROPAGATION_NS,
        queue_packets: int = DEFAULT_QUEUE_PACKETS,
    ) -> None:
        if bandwidth_bps <= 0:
            raise NetworkError(f"bandwidth must be positive: {bandwidth_bps}")
        if propagation_ns < 0:
            raise NetworkError(f"propagation must be >= 0: {propagation_ns}")
        self.sim = sim
        self.name = name
        self.sink = sink
        self.bandwidth_bps = bandwidth_bps
        self.propagation_ns = propagation_ns
        self.queue_packets = queue_packets
        self._tx_free_at = 0  # when the transmitter next becomes idle
        # Bandwidth is immutable, so both the per-byte factor and the
        # 128-byte queue-estimate divisor can be fixed at construction.
        self._bits_sec = 8 * SEC
        self._est_pkt_ns = max(1, (128 * 8 * SEC) // bandwidth_bps)
        self.packets_sent = 0
        self.packets_dropped = 0
        self.bytes_sent = 0
        #: fault-injection hook (see :class:`LinkFaultHook`); None = healthy
        self.fault_hook: Optional[LinkFaultHook] = None
        self.injected_drops = 0
        self.injected_dups = 0
        self.injected_delays = 0
        #: injected drops that were wire corruption (subset of
        #: ``injected_drops``; tx = rx + packets_dropped still holds)
        self.corrupt_drops = 0
        #: optional :class:`repro.obs.bus.TelemetryBus`; wire-level drops
        #: and injected faults are counted there when attached
        self.obs = None

    def serialization_ns(self, size_bytes: int) -> int:
        """Time to clock ``size_bytes`` onto the wire."""
        return max(1, (size_bytes * 8 * SEC) // self.bandwidth_bps)

    def send(self, packet: Packet) -> bool:
        """Enqueue a packet for transmission; False means dropped.

        A drop is either tail-drop (bounded transmit queue) or an injected
        fault; both count in ``packets_dropped`` so packet-conservation
        accounting (tx = rx + drops) holds under fault injection too.
        """
        if self.fault_hook is None:
            # Healthy-link fast path: no fault decision to consult, so all
            # three injected-fault branches below are dead. Every packet on
            # every link passes through here.
            sim = self.sim
            now = sim._now
            free_at = self._tx_free_at
            backlog_ns = free_at - now
            if (
                backlog_ns > 0
                and backlog_ns // self._est_pkt_ns >= self.queue_packets
            ):
                self.packets_dropped += 1
                if self.obs is not None:
                    self.obs.incr("net.drops")
                return False
            size = packet.size
            ser_ns = (size * self._bits_sec) // self.bandwidth_bps
            start = now if now > free_at else free_at
            done = start + (ser_ns if ser_ns > 0 else 1)
            self._tx_free_at = done
            self.packets_sent += 1
            self.bytes_sent += size
            # call_at, inlined: arrival >= now by construction so the
            # past-check is dead.
            seq = sim._sequence
            sim._sequence = seq + 1
            _heappush(
                sim._heap,
                (done + self.propagation_ns, seq, self.sink, (packet,)),
            )
            return True
        decision = self.fault_hook.on_send(self, packet)
        if decision is not None and decision.drop:
            self.injected_drops += 1
            self.packets_dropped += 1
            if decision.corrupt:
                self.corrupt_drops += 1
            if self.obs is not None:
                self.obs.incr("net.injected_drops")
                self.obs.incr("net.drops")
                if decision.corrupt:
                    self.obs.incr("net.corrupt_drops")
            return False
        sim = self.sim
        now = sim._now
        free_at = self._tx_free_at
        backlog_ns = free_at - now
        if (
            backlog_ns > 0
            and backlog_ns // self._est_pkt_ns >= self.queue_packets
        ):
            self.packets_dropped += 1
            if self.obs is not None:
                self.obs.incr("net.drops")
            return False
        size = packet.size
        ser_ns = (size * self._bits_sec) // self.bandwidth_bps
        start = now if now > free_at else free_at
        done = start + (ser_ns if ser_ns > 0 else 1)
        self._tx_free_at = done
        self.packets_sent += 1
        self.bytes_sent += size
        arrival = done + self.propagation_ns
        if decision is not None and decision.extra_delay_ns > 0:
            self.injected_delays += 1
            arrival += decision.extra_delay_ns
        seq = sim._sequence
        sim._sequence = seq + 1
        _heappush(sim._heap, (arrival, seq, self.sink, (packet,)))
        if decision is not None and decision.duplicate:
            # The copy shares the payload object (payloads are never
            # mutated in place, only rebound), but must be a distinct
            # Packet: switch programs rewrite packet.payload/dst on the
            # original while the copy is still in flight.
            self.injected_dups += 1
            dup = replace(
                packet,
                trace=list(packet.trace) if packet.trace is not None else None,
            )
            self.sim.call_at(arrival + self.propagation_ns, self.sink, dup)
        return True

    @staticmethod
    def pair(
        sim: Simulator,
        name: str,
        sink_a: Callable[[Packet], None],
        sink_b: Callable[[Packet], None],
        bandwidth_bps: int = DEFAULT_BANDWIDTH_BPS,
        propagation_ns: int = DEFAULT_PROPAGATION_NS,
    ) -> Tuple["Link", "Link"]:
        """Build a full-duplex cable; returns (a_to_b, b_to_a)."""
        a_to_b = Link(sim, f"{name}:a->b", sink_b, bandwidth_bps, propagation_ns)
        b_to_a = Link(sim, f"{name}:b->a", sink_a, bandwidth_bps, propagation_ns)
        return a_to_b, b_to_a
