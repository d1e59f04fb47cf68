"""Replicated live controllers: leader election over real UDP.

The simulator's replicated control plane (``repro.ctrl.replication``)
elects a leader through the switch's :class:`~repro.switchsim.election.
ElectionRegister` and replicates state leader->follower with
``ControllerSync``. This module ports the *protocol* onto real sockets:

* :class:`LiveControllerReplica` is an asyncio UDP endpoint that sends
  ``ElectionRequest`` datagrams to the :class:`~repro.live.softswitch.
  SoftSwitch` (whose program arbitrates them against ``switch.election``
  — the exact code path the simulator exercises), renews its lease while
  leading, and polls for takeover while following.
* The leader drains a :class:`~repro.ctrl.replication.CtrlJournal` into
  chunked ``ControllerSync`` datagrams to its peers on a fixed cadence;
  followers track ``(term, seq)`` and flag gaps exactly as the simulated
  follower does.

What is *not* ported: the live control plane replicates leadership
metadata (term tenure, checkpoint counters) rather than the scheduler's
in-flight assignment mirror — the live switch owns executor liveness
itself (pull TTLs, credit resync), so there is no lease table for a live
controller to reclaim from. The full state-machine replication semantics
are verified in simulation; the live layer verifies the part wall clocks
can falsify — election safety (one leader per term, monotonic terms,
takeover after a leader kill) and the sync wire protocol under chaos.

Like every live component, the cadence knobs are wall-clock values tuned
for loopback CI: a lease of tens of milliseconds, comfortably above an
event-loop tick and below the chaos settle window.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional

from repro.ctrl.replication import CtrlJournal, CtrlOpKind
from repro.errors import ProtocolError
from repro.live.base import Counters, Endpoint, UdpPort, WallClock, WallTimers
from repro.protocol import codec
from repro.protocol.codec import MAX_CTRL_OPS_PER_PACKET
from repro.protocol.messages import (
    ControllerSync,
    CtrlOp,
    ElectionAck,
    ElectionRequest,
)

DEFAULT_LIVE_CTRL_LEASE_NS = 50_000_000
"""50 ms leadership lease: several election round trips fit inside it on
loopback, and a leader kill is detected well inside the 2 s settle."""

DEFAULT_LIVE_RENEW_MARGIN_NS = 15_000_000
"""The leader renews this long before its lease lapses."""

DEFAULT_LIVE_POLL_NS = 10_000_000
"""Follower takeover poll cadence."""

DEFAULT_LIVE_STAGGER_NS = 3_000_000
"""Per-replica start offset so the first election has a deterministic
favourite (replica 0) when nothing is faulted."""

DEFAULT_LIVE_SYNC_INTERVAL_NS = 15_000_000
"""Leader -> follower sync flush cadence."""


def ctrl_name(replica_id: int) -> str:
    """The fault-plan node name of one live controller replica."""
    return f"ctrl{replica_id}"


class LiveControllerReplica:
    """One controller replica on a real UDP socket.

    The election loop is RNG-free — fixed poll periods plus a per-replica
    start stagger — so the leader sequence is a function of the crash
    schedule and wall-clock interleaving, with no seeded draws to keep
    stable (mirrors the simulated replica's design).
    """

    def __init__(
        self,
        replica_id: int,
        switch: Endpoint,
        clock: Optional[WallClock] = None,
        lease_ns: int = DEFAULT_LIVE_CTRL_LEASE_NS,
        renew_margin_ns: int = DEFAULT_LIVE_RENEW_MARGIN_NS,
        poll_ns: int = DEFAULT_LIVE_POLL_NS,
        stagger_ns: int = DEFAULT_LIVE_STAGGER_NS,
        sync_interval_ns: int = DEFAULT_LIVE_SYNC_INTERVAL_NS,
        transport_wrap=None,
    ) -> None:
        self.replica_id = replica_id
        self.switch = switch
        self.clock = clock if clock is not None else WallClock()
        self.lease_ns = lease_ns
        self.renew_margin_ns = min(renew_margin_ns, lease_ns // 2)
        self.poll_ns = poll_ns
        self.stagger_ns = stagger_ns
        self.sync_interval_ns = sync_interval_ns
        self.transport_wrap = transport_wrap
        self.counters = Counters()

        self.role = "follower"
        self.term = 0
        self.known_term = 0
        self.elections_won = 0
        self.step_downs = 0
        self.sync_sent = 0
        self.sync_applied = 0
        self.sync_gaps = 0
        self.ckpt_meta: Dict[str, int] = {}
        self.journal = CtrlJournal()
        self.closed = False

        self.peers: List[Endpoint] = []
        #: when set, called at each flush for the *current* peer
        #: endpoints — restarted peers come back on new ports, so a
        #: static list would sync into dead sockets
        self.peer_resolver: Optional[Any] = None
        self._leader_until = -1
        self._sync_seq = 0
        self._recv_seq = -1
        self._recv_term = 0
        self._gap = True
        self._flushes = 0
        self._need_snapshot = False
        #: send time of the latest ElectionRequest; bounds the local lease
        self._last_request_ns = self.clock.now
        self._transport: Any = None
        self._endpoint: Optional[Endpoint] = None
        #: the election and sync loops
        self._timers = WallTimers(self.clock)

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Endpoint:
        port_ = UdpPort(
            lambda: self._on_datagram, self.counters, local_addr=(host, port)
        )
        bound = port_.get_extra_info("sockname")
        self._transport = self.transport_wrap(port_) if self.transport_wrap else port_
        self._endpoint = (bound[0], bound[1])
        self._timers.spawn(self._election_loop())
        self._timers.spawn(self._sync_loop())
        return self._endpoint

    @property
    def endpoint(self) -> Endpoint:
        if self._endpoint is None:
            raise RuntimeError("LiveControllerReplica.start() not awaited")
        return self._endpoint

    def wire_peers(self, peers: List[Endpoint]) -> None:
        """Tell this replica where the other replicas listen."""
        self.peers = [p for p in peers if p != self._endpoint]

    def _peer_endpoints(self) -> List[Endpoint]:
        if self.peer_resolver is not None:
            return [p for p in self.peer_resolver() if p != self._endpoint]
        return self.peers

    def kill(self) -> None:
        """Fail-stop: drop the socket, stop every loop. Idempotent.

        A restarted incarnation is a *new* object on a new socket built
        by the injector's factory; like executors, live controllers do
        not resurrect in place.
        """
        if self.closed:
            return
        self.closed = True
        self.role = "follower"
        self._leader_until = -1
        self._timers.close()
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    async def aclose(self) -> None:
        self.kill()
        await self._timers.aclose()

    # -- election ----------------------------------------------------------

    def is_leader(self) -> bool:
        """Leading *and* inside the lease it was granted.

        The local bound self-demotes a leader that cannot reach the
        switch (partition, switch overload) before a rival can be
        granted the next term — the live analogue of the simulated
        replica's self-demotion rule.
        """
        return (
            not self.closed
            and self.role == "leader"
            and self.clock.now <= self._leader_until
        )

    async def _election_loop(self) -> None:
        await asyncio.sleep(
            (1 + self.replica_id * self.stagger_ns) / 1e9
        )
        while not self.closed:
            self._send_election_request()
            delay_ns = (
                self.lease_ns - self.renew_margin_ns
                if self.role == "leader"
                else self.poll_ns
            )
            await asyncio.sleep(delay_ns / 1e9)

    def _send_election_request(self) -> None:
        term = self.term if self.role == "leader" else self.known_term
        self._last_request_ns = self.clock.now
        self.counters.incr("election_requests")
        self._send(
            self.switch,
            ElectionRequest(
                candidate_id=self.replica_id,
                term=term,
                lease_ns=self.lease_ns,
            ),
        )

    def _on_ack(self, ack: ElectionAck) -> None:
        self.known_term = max(self.known_term, ack.term)
        if ack.granted and ack.leader_id == self.replica_id:
            if ack.term < self.term:
                return  # stale ack from a previous incarnation of us
            newly = self.role != "leader" or ack.term != self.term
            self.term = ack.term
            # Conservative local bound: the register stamped its own
            # arrival clock; request-send time + lease can only be
            # earlier, so the local lease never outlives the granted one
            # even if this replica ran on a different clock.
            self._leader_until = min(
                ack.expires_at_ns,
                self._last_request_ns + self.lease_ns,
            )
            if newly:
                self._become_leader()
            return
        # Denied (or granted to someone else — cannot happen, acks are
        # unicast): a current or newer term holds the lease.
        if self.role == "leader" and ack.term >= self.term:
            self._step_down()

    def _become_leader(self) -> None:
        self.role = "leader"
        self.elections_won += 1
        self.counters.incr("elections_won")
        self.journal.clear()
        self._sync_seq = 0
        self._flushes = 0
        # First flush of a tenure is a snapshot: followers that missed
        # the term change resync from scratch.
        self._need_snapshot = True
        self.journal.record(
            CtrlOp(kind=int(CtrlOpKind.LEASE), a=self.term, b=self.replica_id)
        )

    def _step_down(self) -> None:
        if self.role != "leader":
            return
        self.role = "follower"
        self._leader_until = -1
        self.step_downs += 1
        self.counters.incr("step_downs")
        self.journal.clear()

    # -- sync --------------------------------------------------------------

    async def _sync_loop(self) -> None:
        while not self.closed:
            await asyncio.sleep(self.sync_interval_ns / 1e9)
            if self.is_leader() and self._peer_endpoints():
                self._flush_sync()

    def _flush_sync(self) -> None:
        ops, _entries, overflowed = self.journal.drain()
        self._flushes += 1
        snapshot = bool(self._need_snapshot or overflowed)
        self._need_snapshot = False
        # Tenure metadata rides every flush so a follower's ckpt_meta
        # mirror converges even when deltas were lost on the wire.
        ops = list(ops) + [
            CtrlOp(
                kind=int(CtrlOpKind.CKPT_META),
                a=self.term,
                b=self.elections_won,
                d=self._flushes,
            )
        ]
        for lo in range(0, len(ops), MAX_CTRL_OPS_PER_PACKET):
            chunk = ops[lo : lo + MAX_CTRL_OPS_PER_PACKET]
            self._sync_seq += 1
            msg = ControllerSync(
                leader_id=self.replica_id,
                term=self.term,
                seq=self._sync_seq,
                snapshot=snapshot and lo == 0,
                ops=chunk,
            )
            for peer in self._peer_endpoints():
                self._send(peer, msg)
                self.sync_sent += 1

    def _on_sync(self, msg: ControllerSync) -> None:
        if msg.leader_id == self.replica_id:
            return
        if msg.term < self._recv_term or msg.term < self.known_term:
            self.counters.incr("stale_sync_dropped")
            return
        self.known_term = max(self.known_term, msg.term)
        if self.role == "leader" and msg.term > self.term:
            self._step_down()
        if msg.term != self._recv_term:
            self._recv_term = msg.term
            self._recv_seq = -1
            self._gap = True
        if msg.snapshot:
            self.ckpt_meta = {}
            self._gap = False
        elif self._recv_seq >= 0 and msg.seq != self._recv_seq + 1:
            self._gap = True
            self.sync_gaps += 1
        self._recv_seq = msg.seq
        for op in msg.ops:
            if op.kind == int(CtrlOpKind.CKPT_META):
                self.ckpt_meta = {
                    "term": op.a,
                    "elections_won": op.b,
                    "flushes": op.d,
                }
        self.sync_applied += 1

    # -- datagram path -----------------------------------------------------

    def _on_datagram(self, data, addr: Endpoint) -> None:
        if self.closed:
            return
        try:
            message = codec.decode(data)
        except ProtocolError:
            self.counters.incr("malformed")
            return
        cls = message.__class__
        if cls is ElectionAck:
            self._on_ack(message)
        elif cls is ControllerSync:
            self._on_sync(message)
        else:
            self.counters.incr("unexpected_messages")

    def _send(self, addr: Endpoint, payload: Any) -> None:
        if self._transport is None or self._transport.is_closing():
            return
        self._transport.sendto(codec.encode(payload), addr)

    # -- inspection --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        return {
            "replica_id": self.replica_id,
            "role": self.role,
            "is_leader": self.is_leader(),
            "term": self.term,
            "known_term": self.known_term,
            "elections_won": self.elections_won,
            "step_downs": self.step_downs,
            "sync_sent": self.sync_sent,
            "sync_applied": self.sync_applied,
            "sync_gaps": self.sync_gaps,
            "closed": self.closed,
            "ckpt_meta": dict(self.ckpt_meta),
        }
