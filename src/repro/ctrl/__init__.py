"""Control-plane resilience for the in-network scheduler (`repro.ctrl`).

Three cooperating pieces, all strictly control-plane (no data-plane
register budget is spent):

* :class:`Controller` — heartbeat-lease executor membership; an expired
  lease proactively reclaims the dead executor's parked pull and
  in-flight assignments instead of waiting out client timeouts;
* :class:`CheckpointManager` / :class:`DeltaJournal` — warm-standby
  switch recovery: periodic register checkpoints plus a bounded journal
  of enqueue/dequeue deltas, replayed into the standby program on
  ``install_program`` so queued tasks survive a switch failover;
* :class:`DegradationPolicy` — graceful degradation under overload:
  priority-aware load shedding and ``backoff_hint_ns`` backpressure in
  bounce errors once occupancy/recirculation thresholds are crossed;
* :class:`ReplicaController` / :class:`ControllerGroup` — replicated
  control plane: switch-arbitrated leader election with term fencing,
  leader->follower state sync, and lossless follower takeover when the
  leader itself dies (``repro.ctrl.replication``).
"""

from repro.ctrl.checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL_NS,
    DEFAULT_JOURNAL_CAPACITY,
    CheckpointManager,
    CheckpointStats,
    DeltaJournal,
    RecoveryReport,
    SwitchSnapshot,
)
from repro.ctrl.controller import (
    CTRL_PORT,
    DEFAULT_LEASE_NS,
    DEFAULT_SWEEP_NS,
    Controller,
    ControllerStats,
    Lease,
)
from repro.ctrl.degradation import DegradationPolicy
from repro.ctrl.replica_core import CtrlOpKind, ReplicaCore, ReplicaParams
from repro.ctrl.replication import ControllerGroup, ReplicaController

__all__ = [
    "CTRL_PORT",
    "DEFAULT_CHECKPOINT_INTERVAL_NS",
    "DEFAULT_JOURNAL_CAPACITY",
    "DEFAULT_LEASE_NS",
    "DEFAULT_SWEEP_NS",
    "CheckpointManager",
    "CheckpointStats",
    "Controller",
    "ControllerGroup",
    "ControllerStats",
    "CtrlOpKind",
    "DegradationPolicy",
    "DeltaJournal",
    "Lease",
    "ReplicaController",
    "ReplicaCore",
    "ReplicaParams",
    "RecoveryReport",
    "SwitchSnapshot",
]
