"""Replicated control plane in the simulator: N warm controller replicas.

The unreplicated :class:`~repro.ctrl.controller.Controller` is a single
point of failure: when it dies, its lease table and assignment mirror
die with it, and in-flight tasks of crashed executors wait out the full
client timeout window — exactly the gap the paper's "failure handling
is nearly free" claim glosses over for the control plane itself.
:class:`ReplicaController` closes it by driving one
:class:`~repro.ctrl.replica_core.ReplicaCore` (election through the
switch's :class:`~repro.switchsim.election.ElectionRegister`, term
fencing, journal/snapshot sync — see that module) on simulated time, and
supplying what the core does not know: the lease table and assignment
mirror of the base controller, and what to do with them on a win.

Followers build their *lease* tables first-hand from executor heartbeat
broadcasts, so only the mirror and checkpoint metadata travel on sync.
A follower that wins takeover therefore reclaims the dead leader's
orphans immediately: zero queued or in-flight task loss, bounded by one
election timeout (:meth:`ControllerGroup.election_timeout_bound`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

from repro.ctrl.controller import (
    DEFAULT_LEASE_NS,
    DEFAULT_SWEEP_NS,
    Controller,
    TaskKey,
)
from repro.ctrl.replica_core import (
    CtrlOpKind,
    ReplicaCore,
    ReplicaParams,
    Snapshot,
)
from repro.errors import ConfigurationError
from repro.protocol import codec
from repro.protocol.messages import ControllerSync, CtrlOp, ElectionAck
from repro.sim.core import Interrupted, Simulator

__all__ = ["ControllerGroup", "CtrlOpKind", "ReplicaController", "ReplicaParams"]


def _op(kind: CtrlOpKind, key: TaskKey, executor_id: int = 0) -> CtrlOp:
    return CtrlOp(
        kind=int(kind), executor_id=executor_id, a=key[0], b=key[1], c=key[2]
    )


class ReplicaController(Controller):
    """One replica of the replicated controller.

    Extends the lease controller with an election process and a sync
    process driving a :class:`ReplicaCore`, and term fencing on every
    switch mutation. Exactly one replica acts on the switch at a time;
    followers keep warm lease tables from the executors' heartbeat
    broadcasts and a warm assignment mirror from the leader's sync
    stream.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Any,
        name: str = "ctrl0",
        replica_id: int = 0,
        lease_ns: int = DEFAULT_LEASE_NS,
        sweep_ns: int = DEFAULT_SWEEP_NS,
        program: Any = None,
        switch: Any = None,
        obs: Any = None,
        peers: Optional[Sequence[Any]] = None,
        params: ReplicaParams = ReplicaParams(),
        checkpoints: Any = None,
    ) -> None:
        # program=None on the base: only the elected leader may own
        # program.ctrl, so binding waits for the first election win.
        super().__init__(
            sim,
            topology,
            name=name,
            lease_ns=lease_ns,
            sweep_ns=sweep_ns,
            program=None,
            switch=None,
            obs=obs,
        )
        self.replica_id = replica_id
        self.core = ReplicaCore(replica_id, params)
        self.program = program
        self.switch = switch
        self.switch_address = switch.service_address if switch else None
        self.peers: List[Any] = list(peers) if peers else []
        self.checkpoints = checkpoints
        if switch is not None:
            switch.add_install_hook(self._on_install)
        self.ckpt_meta = 0
        self._spawn_loops()

    def _spawn_loops(self) -> None:
        self._election_process = self.sim.spawn(
            self._election_loop(), name=f"{self.name}-election"
        )
        self._sync_process = self.sim.spawn(
            self._sync_loop(), name=f"{self.name}-sync"
        )

    # -- leadership ----------------------------------------------------------

    def is_leader(self) -> bool:
        return not self.crashed and self.core.is_leader(self.sim.now)

    def _term(self) -> Optional[int]:
        return self.core.term

    def _on_install(self, new_program: Any, old_program: Any) -> None:
        self.program = new_program
        if self.is_leader():
            new_program.ctrl = self

    def _election_loop(self):
        core = self.core
        try:
            yield self.sim.timeout(core.first_request_delay_ns())
            while True:
                request, wait_ns = core.election_request(self.sim.now)
                if self.switch_address is not None:
                    self.socket.send(
                        self.switch_address, request, codec.wire_size(request)
                    )
                yield self.sim.timeout(wait_ns)
        except Interrupted:
            return

    def _on_election_ack(self, ack: ElectionAck) -> None:
        if self.crashed:
            return
        outcome = self.core.on_ack(ack)
        if outcome == "elected":
            self._became_leader()
        elif outcome == "deposed":
            self._stepped_down()

    def _became_leader(self) -> None:
        if self.obs is not None:
            self.obs.incr("ctrl.elections_won")
            self.obs.gauge("ctrl.term", self.core.term)
            self.obs.emit(
                self.sim.now,
                "ctrl",
                opcode="leader_elected",
                detail=f"replica={self.replica_id} term={self.core.term}",
            )
        if self.program is not None:
            self.program.ctrl = self
        self._takeover_reconcile()

    def _stepped_down(self) -> None:
        # The new leader re-derives reclaim work from replicated state;
        # retrying here would be fenced anyway, and a backlog that can
        # never drain would trip the oracle's lease-safety check.
        self._reclaim_backlog.clear()
        if self.obs is not None:
            self.obs.incr("ctrl.step_downs")

    def _takeover_reconcile(self) -> None:
        """Reclaim everything the previous leader left orphaned.

        Runs synchronously at the win: parked pulls of executors with no
        live lease are expired (term-stamped, so a zombie predecessor
        cannot race us) and their mirrored in-flight tasks re-injected.
        This is what makes takeover lose zero tasks.
        """
        program = self.program
        if program is None:
            return
        live = self.live_executors()
        dead: Set[int] = {
            eid for eid, _entry in self._inflight.values() if eid not in live
        }
        if hasattr(program, "parked_executor_ids"):
            dead |= program.parked_executor_ids() - live
        if dead:
            self._reclaim(dead)

    # -- fenced mirror + reclaim overrides ----------------------------------

    def note_assign(self, key: TaskKey, entry: Any, executor_id: int) -> None:
        if self.crashed:
            return
        super().note_assign(key, entry, executor_id)
        if self.is_leader():
            self.core.record(_op(CtrlOpKind.ASSIGN, key, executor_id), key, entry)

    def note_complete(self, key: TaskKey) -> None:
        if self.crashed:
            return
        super().note_complete(key)
        if self.is_leader():
            self.core.record(_op(CtrlOpKind.COMPLETE, key))

    def _reclaim(self, executor_ids: Set[int]) -> None:
        orphaned = [
            key
            for key, (eid, _entry) in self._inflight.items()
            if eid in executor_ids
        ]
        super()._reclaim(executor_ids)
        if self.is_leader():
            # Replicate the mirror pops so a follower that later takes
            # over does not re-inject tasks this incarnation already
            # reclaimed (double execution is counted, but why invite it).
            for key in orphaned:
                self.core.record(_op(CtrlOpKind.PULL_RECLAIMED, key))

    def _sweep(self) -> None:
        if self.is_leader():
            super()._sweep()
            return
        # Follower: lease bookkeeping only. Expiry is tracked so the
        # table stays warm, but reclaim is the leader's job — a follower
        # acting on the switch would need a term it does not hold.
        now = self.sim.now
        expired = [
            eid
            for eid, lease in self._leases.items()
            if lease.expires_at_ns < now
        ]
        for eid in expired:
            del self._leases[eid]
            self.stats.leases_expired += 1

    def _post_restart_reconcile(self) -> None:
        # The base class acts on the switch unfenced here; a restarted
        # replica is a follower until it wins an election, and the win
        # path runs its own (fenced) takeover reconcile.
        if self.is_leader():
            super()._post_restart_reconcile()

    # -- packet dispatch -----------------------------------------------------

    def _on_packet(self, packet) -> None:
        payload = packet.payload
        if isinstance(payload, ElectionAck):
            self._on_election_ack(payload)
        elif isinstance(payload, ControllerSync):
            self._on_sync(payload)
        else:
            super()._on_packet(packet)

    # -- leader -> follower sync --------------------------------------------

    def _sync_loop(self):
        try:
            while True:
                yield self.sim.timeout(self.core.params.sync_interval_ns)
                if self.is_leader() and self.peers:
                    self._flush_sync()
        except Interrupted:
            return

    def _mirror_snapshot(self) -> Snapshot:
        inflight = self._inflight.items()
        return (
            [_op(CtrlOpKind.ASSIGN, key, eid) for key, (eid, _) in inflight],
            {key: entry for key, (_eid, entry) in inflight},
        )

    def _flush_sync(self) -> None:
        if self.checkpoints is not None:
            self.ckpt_meta = int(self.checkpoints.stats.checkpoints_taken)
        meta = CtrlOp(kind=int(CtrlOpKind.CKPT_META), d=self.ckpt_meta)
        for msg in self.core.flush(self._mirror_snapshot, meta):
            for peer in self.peers:
                self.socket.send(peer, msg, codec.wire_size(msg))

    def _on_sync(self, msg: ControllerSync) -> None:
        if self.crashed:
            return
        deposed, apply = self.core.on_sync(msg)
        if deposed:
            self._stepped_down()
        if not apply:
            return
        if msg.snapshot:
            self._inflight.clear()
        entries = msg.entries or {}
        for op in msg.ops:
            key = (op.a, op.b, op.c)
            if op.kind == CtrlOpKind.ASSIGN:
                entry = entries.get(key)
                if entry is not None:
                    self._inflight[key] = (op.executor_id, entry)
            elif op.kind in (CtrlOpKind.COMPLETE, CtrlOpKind.PULL_RECLAIMED):
                self._inflight.pop(key, None)
            elif op.kind == CtrlOpKind.CKPT_META:
                self.ckpt_meta = op.d

    # -- fail-stop -----------------------------------------------------------

    def crash(self) -> None:
        if self.crashed:
            return
        super().crash()
        for process in (self._election_process, self._sync_process):
            if not process.triggered:
                process.interrupt("controller crash")
        self.core.reset()

    def restart(self) -> None:
        if not self.crashed:
            return
        super().restart()
        self._spawn_loops()


class ControllerGroup:
    """N controller replicas plus the glue the harness needs.

    Builds ``ctrl0..ctrlN-1`` as topology hosts, cross-wires their peer
    addresses, and exposes the fault-injection surface
    (:meth:`crash`/:meth:`restart` by replica id) and the oracle surface
    (:meth:`leader`, :meth:`stats`).
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Any,
        switch: Any,
        program: Any = None,
        replicas: int = 3,
        lease_ns: int = DEFAULT_LEASE_NS,
        sweep_ns: int = DEFAULT_SWEEP_NS,
        obs: Any = None,
        checkpoints: Any = None,
        params: ReplicaParams = ReplicaParams(),
    ) -> None:
        if replicas < 1:
            raise ConfigurationError(f"need at least one replica: {replicas}")
        self.sim = sim
        self.switch = switch
        self.params = params
        self.replicas: List[ReplicaController] = [
            ReplicaController(
                sim,
                topology,
                name=f"ctrl{i}",
                replica_id=i,
                lease_ns=lease_ns,
                sweep_ns=sweep_ns,
                program=program,
                switch=switch,
                obs=obs,
                params=params,
                checkpoints=checkpoints,
            )
            for i in range(replicas)
        ]
        addrs = [r.address for r in self.replicas]
        for r in self.replicas:
            r.peers = [a for a in addrs if a != r.address]

    def addresses(self) -> List[Any]:
        return [r.address for r in self.replicas]

    def leader(self) -> Optional[ReplicaController]:
        """The replica holding a live switch lease right now, if any."""
        election = getattr(self.switch, "election", None)
        if election is None:
            return None
        rid = election.current_leader(self.sim.now)
        if rid is None or not 0 <= rid < len(self.replicas):
            return None
        replica = self.replicas[rid]
        return None if replica.crashed else replica

    def crash(self, replica_id: int) -> None:
        self.replicas[replica_id % len(self.replicas)].crash()

    def restart(self, replica_id: int) -> None:
        self.replicas[replica_id % len(self.replicas)].restart()

    def election_timeout_bound(self) -> int:
        """Worst-case ns from leader death to successor takeover.

        The dead leader's lease must lapse (one full lease, if it died
        right after renewing), then a follower's next candidacy poll
        lands, plus one poll period of slack for in-flight RTT and
        processing. The controller_ha experiment asserts reclamation
        resumes within this bound.
        """
        return self.params.lease_ns + 2 * self.params.poll_ns

    def stats(self) -> Dict[str, Any]:
        """Group health rollup for experiment summary rows."""
        election = getattr(self.switch, "election", None)
        fencing = 0
        program = getattr(self.switch, "program", None)
        sched_stats = getattr(program, "sched_stats", None)
        if sched_stats is not None:
            fencing = getattr(sched_stats, "fencing_rejections", 0)
        return {
            "elections_held": election.elections_held if election else 0,
            "term": election.term if election else 0,
            "fencing_rejections": fencing,
            "leases_reclaimed": sum(
                r.stats.pulls_reclaimed for r in self.replicas
            ),
            "tasks_reclaimed": sum(
                r.stats.tasks_reclaimed for r in self.replicas
            ),
            "step_downs": sum(r.core.step_downs for r in self.replicas),
        }
