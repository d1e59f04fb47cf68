"""Replicated live controllers: :class:`ReplicaCore` over real UDP.

:class:`LiveControllerReplica` drives the same
:class:`~repro.ctrl.replica_core.ReplicaCore` the simulated
:class:`~repro.ctrl.replication.ReplicaController` does: the core's
``ElectionRequest`` datagrams go to the :class:`~repro.live.softswitch.
SoftSwitch` (whose program arbitrates them against ``switch.election`` —
the exact code path the simulator exercises), its chunked
``ControllerSync`` datagrams to the peers, on wall timers at the
:data:`~repro.ctrl.replica_core.LIVE_REPLICA_PARAMS` cadence.

What differs is *what* is replicated: tenure metadata (term, elections
won, flush count) rather than the scheduler's in-flight assignment
mirror — the live switch owns executor liveness itself (pull TTLs, credit
resync), so there is no lease table for a live controller to reclaim
from. The full state-machine replication semantics are verified in
simulation; the live layer verifies the part wall clocks can falsify —
election safety (one leader per term, monotonic terms, takeover after a
leader kill) and the sync wire protocol under chaos.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional

from repro.ctrl.replica_core import (
    LIVE_REPLICA_PARAMS,
    CtrlOpKind,
    ReplicaCore,
    ReplicaParams,
)
from repro.errors import ProtocolError
from repro.live.base import Endpoint, SwitchPeer, UdpPort, WallClock
from repro.protocol import codec
from repro.protocol.messages import ControllerSync, CtrlOp, ElectionAck


def ctrl_name(replica_id: int) -> str:
    """The fault-plan node name of one live controller replica."""
    return f"ctrl{replica_id}"


class LiveControllerReplica(SwitchPeer):
    """One controller replica on a bound UDP socket.

    Fail-stop is :meth:`kill`; a restarted incarnation is a *new* object
    on a new socket built by the injector's factory — like executors,
    live controllers do not resurrect in place.
    """

    def __init__(
        self,
        replica_id: int,
        switch: Endpoint,
        clock: Optional[WallClock] = None,
        params: ReplicaParams = LIVE_REPLICA_PARAMS,
        transport_wrap: Optional[Callable] = None,
    ) -> None:
        super().__init__(clock or WallClock(), transport_wrap)
        self.replica_id = replica_id
        self.switch = switch
        self.core = ReplicaCore(replica_id, params)
        self.sync_sent = 0
        #: the follower's copy of the leader's tenure metadata
        self.ckpt_meta: Dict[str, int] = {}
        #: called at each flush for the *current* peer endpoints —
        #: restarted peers come back on new ports, so a static list
        #: would sync into dead sockets
        self.peer_resolver: Callable[[], List[Endpoint]] = lambda: []
        self.endpoint: Optional[Endpoint] = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Endpoint:
        bound = UdpPort(
            lambda: self._on_datagram, self.counters, local_addr=(host, port)
        )
        self.endpoint = bound.get_extra_info("sockname")[:2]
        self.connection_made(bound)
        self._timers.spawn(self._election_loop())
        self._timers.spawn(self._sync_loop())
        return self.endpoint

    kill = SwitchPeer.close

    def _peers(self) -> List[Endpoint]:
        return [p for p in self.peer_resolver() if p != self.endpoint]

    def _send(self, addr: Endpoint, payload: Any) -> None:
        if self._transport is not None:
            self._transport.sendto(codec.encode(payload), addr)

    # -- election ----------------------------------------------------------

    def is_leader(self) -> bool:
        return not self.closed and self.core.is_leader(self.clock.now)

    async def _election_loop(self) -> None:
        await asyncio.sleep(self.core.first_request_delay_ns() / 1e9)
        while not self.closed:
            request, wait_ns = self.core.election_request(self.clock.now)
            self.counters.incr("election_requests")
            self._send(self.switch, request)
            await asyncio.sleep(wait_ns / 1e9)

    # -- sync --------------------------------------------------------------

    async def _sync_loop(self) -> None:
        while not self.closed:
            await asyncio.sleep(self.core.params.sync_interval_ns / 1e9)
            if self.is_leader() and self._peers():
                self._flush_sync()

    def _flush_sync(self) -> None:
        core = self.core
        meta = CtrlOp(
            kind=int(CtrlOpKind.CKPT_META),
            a=core.term,
            b=core.elections_won,
            d=core.flushes + 1,
        )
        # The tenure metadata rides every flush, so a snapshot holds
        # nothing else: it only tells followers to start over.
        for msg in core.flush(lambda: ([], {}), meta):
            for peer in self._peers():
                self._send(peer, msg)
                self.sync_sent += 1

    def _on_sync(self, msg: ControllerSync) -> None:
        _deposed, apply = self.core.on_sync(msg)
        if not apply:
            return
        if msg.snapshot:
            self.ckpt_meta = {}
        for op in msg.ops:
            if op.kind == CtrlOpKind.CKPT_META:
                self.ckpt_meta = {
                    "term": op.a,
                    "elections_won": op.b,
                    "flushes": op.d,
                }

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
            self.core.on_ack(message)
        elif cls is ControllerSync:
            self._on_sync(message)
        else:
            self.counters.incr("unexpected_messages")

    # -- inspection --------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        core = self.core
        return {
            "replica_id": self.replica_id,
            "role": core.role,
            "is_leader": self.is_leader(),
            "term": core.term,
            "known_term": core.known_term,
            "elections_won": core.elections_won,
            "step_downs": core.step_downs,
            "sync_sent": self.sync_sent,
            "sync_applied": core.sync_applied,
            "sync_gaps": core.sync_gaps,
            "closed": self.closed,
            "ckpt_meta": dict(self.ckpt_meta),
        }
