"""Hosts and UDP-like sockets.

A :class:`Host` owns one uplink (to the switch it is cabled to) and
demultiplexes arriving packets to per-port :class:`Socket` receive queues.
Sockets provide a ``recv()`` event for process-style actors and an
optional synchronous handler for callback-style actors (used by the
server-based schedulers, which model a packet-at-a-time CPU).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import NetworkError
from repro.net.packet import ETHERNET_IP_UDP_OVERHEAD, Address, Packet
from repro.net.link import Link
from repro.sim.core import Event, Simulator
from repro.sim.resources import Store


class Socket:
    """A bound port on a host."""

    def __init__(self, host: "Host", port: int) -> None:
        self.host = host
        self.port = port
        self.address = Address(host.name, port)
        self._inbox = Store(host.sim)
        self._handler: Optional[Callable[[Packet], None]] = None

    def send(self, dst: Address, payload: Any, payload_size: int) -> bool:
        """Send ``payload`` as a datagram; returns False if dropped locally."""
        packet = Packet(
            src=self.address,
            dst=dst,
            payload=payload,
            size=payload_size + ETHERNET_IP_UDP_OVERHEAD,
        )
        # Host.transmit, inlined: one frame less per datagram (the method
        # remains the public entry point for pre-built packets).
        host = self.host
        uplink = host._uplink
        if uplink is None:
            raise NetworkError(f"host {host.name} has no uplink")
        host.tx_packets += 1
        return uplink.send(packet)

    def recv(self) -> Event:
        """Event triggering with the next :class:`Packet` for this port."""
        if self._handler is not None:
            raise NetworkError(f"socket {self.address} is in handler mode")
        # Store.get, inlined: executors call recv() once per pull cycle.
        inbox = self._inbox
        event = Event(inbox.sim)
        if inbox._items:
            event.succeed(inbox._items.popleft())
        else:
            inbox._getters.append(event)
        return event

    def cancel_recv(self, event: Event) -> bool:
        """Withdraw a pending :meth:`recv` (see Store.cancel_get)."""
        return self._inbox.cancel_get(event)

    def set_handler(self, handler: Callable[[Packet], None]) -> None:
        """Deliver packets synchronously to ``handler`` instead of queuing."""
        self._handler = handler

    def drain(self) -> int:
        """Discard all undelivered packets (crash modelling); see Store.clear."""
        return self._inbox.clear()

    @property
    def pending(self) -> int:
        return len(self._inbox)


class Host:
    """A network endpoint with named address and per-port sockets."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._sockets: Dict[int, Socket] = {}
        self._uplink: Optional[Link] = None
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_unroutable = 0

    def attach_uplink(self, link: Link) -> None:
        """Cable this host to its switch (exactly once)."""
        if self._uplink is not None:
            raise NetworkError(f"host {self.name} already cabled")
        self._uplink = link

    @property
    def uplink(self) -> Optional[Link]:
        """The host→switch link, if cabled."""
        return self._uplink

    def socket(self, port: int) -> Socket:
        """Bind (or return the existing) socket on ``port``."""
        sock = self._sockets.get(port)
        if sock is None:
            sock = Socket(self, port)
            self._sockets[port] = sock
        return sock

    def receive(self, packet: Packet) -> None:
        """Link sink: demux an arriving packet to the bound socket."""
        self.rx_packets += 1
        sock = self._sockets.get(packet.dst.port)
        if sock is None:
            self.rx_unroutable += 1
            return
        # Handler dispatch or Store.put, inlined: two frames less per
        # delivered packet. Socket inboxes are unbounded, so the
        # capacity/tail-drop branch of Store.put is dead here.
        if sock._handler is not None:
            sock._handler(packet)
            return
        inbox = sock._inbox
        inbox.total_put += 1
        getters = inbox._getters
        if getters:
            getters.popleft().succeed(packet)
        else:
            inbox._items.append(packet)
