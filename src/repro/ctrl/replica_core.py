"""One controller replica as a pure state machine: election and sync.

:class:`ReplicaCore` is what a replica of the replicated control plane
decides, written once for both clocks.

**Election through the switch.** Replicas run no quorum protocol among
themselves; they CAS a leadership lease in the switch's
:class:`~repro.switchsim.election.ElectionRegister`. The protocol is
RNG-free — a fixed poll period plus a per-replica start stagger — so the
leader sequence is a pure function of the crash schedule.

**Fencing.** Each grant increments a monotonic term, which the driver
stamps into every switch mutation. A leader also *self-demotes* when its
lease expires locally (:meth:`ReplicaCore.is_leader`): it stops acting
before it even learns who replaced it.

**State sync.** The leader journals deltas into a bounded buffer
(overflow forces a snapshot) and :meth:`ReplicaCore.flush` turns them
into chunked :class:`~repro.protocol.messages.ControllerSync` messages,
every ``snapshot_every``-th flush a full snapshot. A follower tracks
``(term, seq)``: after a term change or a sequence gap it applies
nothing until the next snapshot.

Methods take ``now`` and messages and return messages, waits and
verdicts. The drivers — :class:`repro.ctrl.replication.ReplicaController`
in the simulator, :class:`repro.live.ctrlplane.LiveControllerReplica` on
UDP — own the sockets, the timers and *what* is replicated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.protocol.codec import MAX_CTRL_OPS_PER_PACKET
from repro.protocol.messages import (
    ControllerSync,
    CtrlOp,
    ElectionAck,
    ElectionRequest,
    TaskKey,
)

Snapshot = Tuple[List[CtrlOp], Dict[TaskKey, Any]]
"""Ops reproducing the replicated state from scratch, plus the
simulator's piggybacked queue entries by task key (empty on the wire)."""


class CtrlOpKind(IntEnum):
    """Wire op kinds for :class:`~repro.protocol.messages.CtrlOp`.

    The simulator replicates the assignment mirror (ASSIGN / COMPLETE /
    PULL_RECLAIMED) and checkpoint metadata; the live control plane
    replicates tenure metadata (LEASE, CKPT_META). LEASE_EXPIRE exists
    for wire genericity.
    """

    LEASE = 1
    LEASE_EXPIRE = 2
    ASSIGN = 3
    COMPLETE = 4
    PULL_RECLAIMED = 5
    CKPT_META = 6


@dataclass(frozen=True)
class ReplicaParams:
    """Election and sync cadence, in nanoseconds of the driver's clock.

    The defaults are the simulator's (µs-scale network);
    :data:`LIVE_REPLICA_PARAMS` is the wall-clock set.
    """

    #: leadership lease granted by the switch per renewal
    lease_ns: int = 600_000
    #: the leader renews this long before its lease expires
    renew_margin_ns: int = 200_000
    #: follower candidacy poll period (bounds takeover detection)
    poll_ns: int = 100_000
    #: per-replica start offset breaking the t=0 candidacy tie, so
    #: replica 0 deterministically wins term 1 when nothing is faulted
    stagger_ns: int = 5_000
    #: leader->follower sync flush period
    sync_interval_ns: int = 200_000
    #: every Nth flush is a full snapshot regardless of journal state
    snapshot_every: int = 8
    #: journal ops buffered between flushes before overflow forces a snapshot
    journal_ops: int = 256

    def __post_init__(self) -> None:
        if min(self.lease_ns, self.poll_ns, self.sync_interval_ns) <= 0:
            raise ConfigurationError(
                "lease_ns, poll_ns and sync_interval_ns must be positive"
            )
        if not 0 < self.renew_margin_ns < self.lease_ns:
            raise ConfigurationError(
                f"renew_margin_ns must be in (0, lease_ns): "
                f"{self.renew_margin_ns} vs {self.lease_ns}"
            )
        if min(self.snapshot_every, self.journal_ops) <= 0:
            raise ConfigurationError(
                "snapshot_every and journal_ops must be positive: "
                f"{self.snapshot_every}, {self.journal_ops}"
            )


#: Wall-clock cadence tuned for loopback CI: a 50 ms lease — several
#: election round trips fit inside it, comfortably above an event-loop
#: tick — and a leader kill detected well inside the chaos settle window.
LIVE_REPLICA_PARAMS = ReplicaParams(
    lease_ns=50_000_000,
    renew_margin_ns=15_000_000,
    poll_ns=10_000_000,
    stagger_ns=3_000_000,
    sync_interval_ns=15_000_000,
)


class ReplicaCore:
    """Role, term, lease bound, sync journal and follower gap tracking."""

    def __init__(self, replica_id: int, params: ReplicaParams) -> None:
        self.replica_id = replica_id
        self.params = params
        self.journal_overflows = 0
        self.elections_won = 0
        self.step_downs = 0
        self.sync_applied = 0
        self.sync_gaps = 0
        self.sync_stale = 0
        self.reset()

    def reset(self) -> None:
        """Fail-stop: everything but the lifetime counters is lost."""
        self.role = "follower"
        self.term = 0  #: last term granted to *this* replica
        self.known_term = 0  #: highest term seen in any ack/sync
        self._leader_until = -1
        self._requested_at = 0
        self._clear_journal()
        self._sync_seq = 0
        self.flushes = 0
        self._need_snapshot = True
        self._sync_term = -1
        self._sync_last_seq = 0
        self._sync_gap = True  # wait for this term's first snapshot

    # -- election ------------------------------------------------------------

    def is_leader(self, now: int) -> bool:
        """Leader role *and* a live local lease.

        The second clause is the self-demotion half of fencing: a
        partitioned leader stops acting the instant its lease lapses
        locally, before it ever hears about its successor.
        """
        return self.role == "leader" and now <= self._leader_until

    def first_request_delay_ns(self) -> int:
        """Wait before the first candidacy: the per-replica stagger."""
        return 1 + self.replica_id * self.params.stagger_ns

    def election_request(self, now: int) -> Tuple[ElectionRequest, int]:
        """The request to send the switch now — a renewal while leading,
        a candidacy otherwise — and the wait before the next one."""
        self._requested_at = now
        request = ElectionRequest(
            candidate_id=self.replica_id,
            term=self.term if self.role == "leader" else self.known_term,
            lease_ns=self.params.lease_ns,
        )
        if self.is_leader(now):
            return request, self.params.lease_ns - self.params.renew_margin_ns
        return request, self.params.poll_ns

    def on_ack(self, ack: ElectionAck) -> Optional[str]:
        """Apply the switch's answer; ``"elected"`` when it starts a new
        tenure, ``"deposed"`` when it ends one, else None."""
        if ack.term > self.known_term:
            self.known_term = ack.term
        mine = ack.leader_id == self.replica_id
        if ack.granted and mine and ack.term >= self.term:
            newly = self.role != "leader" or ack.term != self.term
            self.term = ack.term
            # The register stamped its own arrival clock; request-send
            # time + lease can only be earlier, so the local lease never
            # outlives the granted one even across different clocks.
            self._leader_until = min(
                ack.expires_at_ns, self._requested_at + self.params.lease_ns
            )
            if not newly:
                return None
            self.role = "leader"
            self.elections_won += 1
            self._clear_journal()
            self._sync_seq = 0
            self.flushes = 0
            self._need_snapshot = True  # followers resync from scratch
            return "elected"
        if self.role == "leader" and not mine and ack.term >= self.term:
            self.step_down()
            return "deposed"
        return None

    def step_down(self) -> None:
        self.role = "follower"
        self._leader_until = -1
        self.step_downs += 1
        self._clear_journal()

    # -- leader -> follower sync ----------------------------------------------

    def _clear_journal(self) -> None:
        self._ops: List[CtrlOp] = []
        #: sim-only piggyback: task key -> queue entry for ASSIGN ops
        self._entries: Dict[TaskKey, Any] = {}
        self._overflowed = False

    def record(
        self, op: CtrlOp, key: Optional[TaskKey] = None, entry: Any = None
    ) -> None:
        """Journal one delta for the next flush. Overflow does not drop
        ops silently: the next flush ships a snapshot instead."""
        if len(self._ops) >= self.params.journal_ops:
            self._overflowed = True
            self.journal_overflows += 1
            return
        self._ops.append(op)
        if entry is not None:
            self._entries[key] = entry

    def flush(
        self, snapshot: Callable[[], Snapshot], meta: CtrlOp
    ) -> List[ControllerSync]:
        """Drain the journal into the messages every peer should get.

        ``snapshot()`` is asked for the full state when this flush must
        be one (first of a tenure, journal overflow, every
        ``snapshot_every``-th); ``meta`` rides every flush so a
        follower's metadata converges even when deltas were lost.
        """
        ops, entries = self._ops, self._entries
        self.flushes += 1
        full = (
            self._need_snapshot
            or self._overflowed
            or self.flushes % self.params.snapshot_every == 0
        )
        self._clear_journal()
        if full:
            self._need_snapshot = False
            ops, entries = snapshot()
        ops.append(meta)
        messages = []
        for lo in range(0, len(ops), MAX_CTRL_OPS_PER_PACKET):
            chunk = ops[lo : lo + MAX_CTRL_OPS_PER_PACKET]
            self._sync_seq += 1
            piggyback = {
                (op.a, op.b, op.c): entries[(op.a, op.b, op.c)]
                for op in chunk
                if op.kind == CtrlOpKind.ASSIGN and (op.a, op.b, op.c) in entries
            }
            messages.append(
                ControllerSync(
                    leader_id=self.replica_id,
                    term=self.term,
                    seq=self._sync_seq,
                    snapshot=full and lo == 0,
                    ops=chunk,
                    entries=piggyback or None,
                )
            )
        return messages

    def on_sync(self, msg: ControllerSync) -> Tuple[bool, bool]:
        """Track the leader's stream; returns ``(deposed, apply)``:
        whether this (leading) replica just learned of a newer term, and
        whether the driver should apply ``msg.ops`` — on ``msg.snapshot``
        over a cleared mirror."""
        if msg.leader_id == self.replica_id:
            return False, False
        if msg.term < self.known_term:
            self.sync_stale += 1  # stale stream from a deposed leader
            return False, False
        if msg.term > self.known_term:
            self.known_term = msg.term
        deposed = self.role == "leader" and msg.term > self.term
        if deposed:
            self.step_down()
        if msg.term != self._sync_term:
            # New leader: wait for its first snapshot before applying
            # deltas — applying a delta over the old mirror would merge
            # two incarnations' state.
            self._sync_term = msg.term
            self._sync_last_seq = 0
            self._sync_gap = True
        if msg.snapshot:
            self._sync_gap = False
        elif self._sync_gap:
            return deposed, False
        elif msg.seq != self._sync_last_seq + 1:
            self._sync_gap = True
            self.sync_gaps += 1
            return deposed, False
        self._sync_last_seq = msg.seq
        self.sync_applied += 1
        return deposed, True
