"""Scheduler protocol messages (paper §4.1, Fig. 3).

``TaskInfo`` carries exactly the fields of the paper's TASK_INFO record:
task id, pre-compiled function id + argument blob, and the policy-specific
``tprops`` word (priority level, resource bitmap, or data-local node id
depending on the active policy). The unique task identity is the
``(uid, jid, tid)`` tuple.

Messages are ``slots`` dataclasses (built per task and per hop) and the
opcode is a class constant, not a per-instance field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Tuple

from repro.net.packet import Address
from repro.protocol.opcodes import OpCode

TaskKey = Tuple[int, int, int]
"""The globally unique task identity <UID, JID, TID>."""


@dataclass(frozen=True, slots=True)
class TaskInfo:
    """Per-task metadata inside a job_submission packet.

    Attributes:
        tid: task id within the job.
        fn_id: id of the pre-compiled function to run.
        fn_par: argument blob (fixed-size field on the wire; larger
            parameters use the indirection mechanisms of §4.4).
        tprops: policy-specific properties word (priority / resource
            bitmap / data-local node ids).
    """

    tid: int
    fn_id: int = 0
    fn_par: bytes = b""
    tprops: int = 0


@dataclass(slots=True)
class JobSubmission:
    """A batch of independent tasks from one client (OP_CODE=1)."""

    op: ClassVar[OpCode] = OpCode.JOB_SUBMISSION
    uid: int = 0
    jid: int = 0
    tasks: List[TaskInfo] = field(default_factory=list)

    @property
    def num_tasks(self) -> int:
        """The #TASKS wire field."""
        return len(self.tasks)

    def task_keys(self) -> List[TaskKey]:
        return [(self.uid, self.jid, t.tid) for t in self.tasks]


@dataclass(slots=True)
class TaskRequest:
    """An idle executor asking the scheduler for work (pull model, §4.6).

    Attributes:
        executor_id: globally unique executor id.
        node_id: worker node the executor runs on (locality policy).
        rack_id: rack of the worker node (locality policy).
        exec_rsrc: resource bitmap of the node (resource policy, §5.2).
        rtrv_prio: priority queue to try first (priority policy, §6.1).
    """

    op: ClassVar[OpCode] = OpCode.TASK_REQUEST
    executor_id: int = 0
    node_id: int = 0
    rack_id: int = 0
    exec_rsrc: int = 0
    rtrv_prio: int = 1


@dataclass(slots=True)
class TaskAssignment:
    """The scheduler handing a task to an executor (OP_CODE=3)."""

    op: ClassVar[OpCode] = OpCode.TASK_ASSIGNMENT
    uid: int = 0
    jid: int = 0
    task: TaskInfo = field(default_factory=lambda: TaskInfo(tid=0))
    client: Optional[Address] = None

    @property
    def key(self) -> TaskKey:
        return (self.uid, self.jid, self.task.tid)


@dataclass(slots=True)
class NoOpTask:
    """Returned when no task matching the request is queued (§4.6)."""

    op: ClassVar[OpCode] = OpCode.NO_OP


@dataclass(slots=True)
class SubmissionAck:
    """Acknowledgment that a job_submission was fully enqueued."""

    op: ClassVar[OpCode] = OpCode.SUBMISSION_ACK
    uid: int = 0
    jid: int = 0
    accepted: int = 0


@dataclass(slots=True)
class ErrorPacket:
    """Queue-full rejection carrying the tasks that were not enqueued.

    The client retries these after a short wait (§4.3).
    ``backoff_hint_ns`` is the scheduler's backpressure signal: non-zero
    while the switch is in degraded mode, it tells the client the minimum
    wait before retrying so the herd widens its backoff instead of
    re-colliding at the default interval.
    """

    op: ClassVar[OpCode] = OpCode.ERROR
    uid: int = 0
    jid: int = 0
    tasks: List[TaskInfo] = field(default_factory=list)
    backoff_hint_ns: int = 0


@dataclass(slots=True)
class Completion:
    """Executor -> client task-completion notice, routed via the switch.

    In Draconis the next task request is piggybacked on the completion
    (§3.1): ``piggyback_request`` holds it when present.
    """

    op: ClassVar[OpCode] = OpCode.COMPLETION
    uid: int = 0
    jid: int = 0
    tid: int = 0
    executor_id: int = 0
    success: bool = True
    client: Optional[Address] = None
    piggyback_request: Optional[TaskRequest] = None

    @property
    def key(self) -> TaskKey:
        return (self.uid, self.jid, self.tid)


@dataclass(slots=True)
class SwapTaskPacket:
    """Switch-internal packet driving task swapping (§5.1).

    Attributes:
        task: the task popped from the queue that the current executor
            cannot run.
        uid, jid: identity of the popped task's job.
        client: submitting client of the popped task.
        swap_indx: next queue index to examine.
        exec_props: the requesting executor's properties (resources or
            node/rack ids) so the policy check can continue.
        pkt_retrieve_ptr: retrieve pointer value when the swap began; a
            stale value makes the switch swap at the queue head instead
            (concurrency guard, §5.1).
        requester: executor endpoint awaiting the assignment.
        executor_id: id of that executor.
        swaps_left: bound on further swaps (starvation guard).
        skip_counter: times the in-packet task has been skipped (locality).
    """

    op: ClassVar[OpCode] = OpCode.SWAP_TASK
    task: TaskInfo = field(default_factory=lambda: TaskInfo(tid=0))
    uid: int = 0
    jid: int = 0
    client: Optional[Address] = None
    swap_indx: int = 0
    exec_props: int = 0
    node_id: int = 0
    rack_id: int = 0
    pkt_retrieve_ptr: int = 0
    requester: Optional[Address] = None
    executor_id: int = 0
    swaps_left: int = 0
    skip_counter: int = 0
    insert_mode: bool = False
    queue_index: int = 0


@dataclass(slots=True)
class Heartbeat:
    """Executor liveness beacon to the control plane (repro.ctrl).

    Each heartbeat grants or renews a lease of the controller's
    ``lease_ns``; when a lease lapses the controller proactively reclaims
    the executor's parked pull and in-flight assignments instead of
    waiting out the client timeout window.
    """

    op: ClassVar[OpCode] = OpCode.HEARTBEAT
    executor_id: int = 0
    node_id: int = 0


@dataclass(slots=True)
class ExecutorRegister:
    """Live-runtime handshake: an executor announcing itself (repro.live).

    The simulator never needs this — executor membership is implicit in
    the topology — but over a real network the scheduling dataplane must
    learn each executor's datagram endpoint and scheduling properties
    before the first pull. The endpoint itself comes from the datagram
    source address; the body carries the identity and policy inputs.

    ``max_outstanding`` is the executor's JBSQ-style bound on
    concurrently outstanding pulls + running tasks, which the SoftSwitch
    enforces defensively on top of the executor's own self-limiting.
    """

    op: ClassVar[OpCode] = OpCode.EXECUTOR_REGISTER
    executor_id: int = 0
    node_id: int = 0
    rack_id: int = 0
    exec_rsrc: int = 0
    max_outstanding: int = 1


@dataclass(slots=True)
class RegisterAck:
    """Scheduler -> executor registration acknowledgment (repro.live).

    ``epoch`` increments on every re-registration of the same
    ``executor_id`` so a restarted executor can tell stale assignments
    (addressed to a previous incarnation) from fresh ones.
    """

    op: ClassVar[OpCode] = OpCode.REGISTER_ACK
    executor_id: int = 0
    epoch: int = 0
    accepted: bool = True


@dataclass(slots=True)
class ElectionRequest:
    """Controller replica asking the switch for (or renewing) leadership.

    Leadership is a lease arbitrated by the *switch* — its election
    register is the one place that cannot split-brain, because every
    control-plane action flows through it anyway
    (repro.ctrl.replication). ``term`` is the highest term the candidate
    has observed; the register may grant a higher one. ``lease_ns`` is
    the leadership lease duration the candidate requests.
    """

    op: ClassVar[OpCode] = OpCode.ELECTION_REQUEST
    candidate_id: int = 0
    term: int = 0
    lease_ns: int = 0


@dataclass(slots=True)
class ElectionAck:
    """Switch -> candidate election verdict.

    ``granted`` means the candidate now leads ``term`` until
    ``expires_at_ns``. A denial carries the *current* leader, term, and
    expiry, so a deposed leader learns it was fenced the moment it tries
    to renew.
    """

    op: ClassVar[OpCode] = OpCode.ELECTION_ACK
    leader_id: int = 0
    term: int = 0
    granted: bool = False
    expires_at_ns: int = 0


@dataclass(frozen=True, slots=True)
class CtrlOp:
    """One replicated control-plane state operation (wire record).

    A generic fixed-width record so the codec stays policy-free; the
    semantics of ``kind`` and the operand words live in
    ``repro.ctrl.replication`` (lease grant/expiry, assignment,
    completion, pull reclaim, checkpoint metadata).
    """

    kind: int
    executor_id: int = 0
    a: int = 0
    b: int = 0
    c: int = 0
    d: int = 0


@dataclass(slots=True)
class ControllerSync:
    """Leader -> follower control-plane state replication.

    ``seq`` is a per-term monotonic flush sequence so followers detect
    gaps; a gap (or ``snapshot=True``) makes the payload a full snapshot
    rather than a delta. ``entries`` is a simulator-only piggyback of
    the actual queue-entry objects keyed by task key — never encoded on
    the wire (live sync replicates lease/assignment records only).
    """

    op: ClassVar[OpCode] = OpCode.CONTROLLER_SYNC
    leader_id: int = 0
    term: int = 0
    seq: int = 0
    snapshot: bool = False
    ops: List[CtrlOp] = field(default_factory=list)
    entries: Optional[dict] = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class RepairPacket:
    """Switch-internal pointer-repair packet (§4.5).

    ``target`` selects which pointer to fix; ``value`` is the corrected
    pointer value computed when the mistake was detected.
    """

    op: ClassVar[OpCode] = OpCode.REPAIR
    target: str = "add_ptr"  # or "retrieve_ptr"
    value: int = 0
    queue_index: int = 0  # which replicated queue (priority level)
