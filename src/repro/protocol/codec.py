"""Binary wire codec for the scheduler protocol.

Layout conventions (all integers big-endian):

* every message starts with a 1-byte OP_CODE;
* TASK_INFO is ``tid:u32 fn_id:u32 par_len:u16 fn_par:bytes tprops:u64``;
* addresses are ``node_len:u8 node:utf8 port:u16``.

The encoding exists for two reasons: the link layer needs true byte
counts for serialization delay, and round-trip tests pin the format so a
task is never silently widened past what a job_submission packet can
carry. :func:`wire_size` returns the encoded size without building the
bytes (hot path).

Implementation notes (perf): every fixed field group is a precompiled
:class:`struct.Struct`, folded so the per-task messages (request,
assignment, completion) take one or two pack/unpack calls; dispatch is a
dict keyed by message class (encode/size) or by the opcode byte (decode)
instead of an isinstance ladder; messages are built positionally;
:func:`decode` accepts any buffer (``bytes`` or ``memoryview``) and
copies everything it keeps. Addresses are interned in both directions in
two small bounded caches — a cluster talks to a handful of endpoints, so
after the first datagram none is UTF-8 encoded, decoded or constructed
again. The wire format itself is unchanged —
``tests/data/golden_codec.json`` pins the exact bytes produced by the
pre-overhaul codec.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Optional

from repro.errors import ProtocolError
from repro.net.packet import Address
from repro.protocol.messages import (
    Completion,
    ControllerSync,
    CtrlOp,
    ElectionAck,
    ElectionRequest,
    ErrorPacket,
    ExecutorRegister,
    Heartbeat,
    JobSubmission,
    NoOpTask,
    RegisterAck,
    RepairPacket,
    SubmissionAck,
    SwapTaskPacket,
    TaskAssignment,
    TaskInfo,
    TaskRequest,
)
from repro.protocol.opcodes import OpCode

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")

# Fixed field groups, one precompiled Struct per layout. Field order is
# the wire order documented above; the leading ``B`` is the opcode byte.
_TASK_HEAD = struct.Struct(">IIH")  # tid fn_id par_len
_JOB_HEAD = struct.Struct(">BIIH")  # op uid jid #tasks
_TASK_REQUEST_WIRE = struct.Struct(">BIHHQB")  # whole message, 18 bytes
_PAIR_TASK_HEAD = struct.Struct(">BIIIIH")  # op uid jid + task head, 19 bytes
_ACK_WIRE = struct.Struct(">BIIH")  # whole message, 11 bytes
_ERROR_HEAD = struct.Struct(">BIIIH")  # op uid jid backoff #tasks
_COMPLETION_HEAD = struct.Struct(">BIIIIB")  # op uid jid tid exec success
_PIGGYBACK_TAIL = struct.Struct(">BBIHHQB")  # flag=1 + a whole task_request
_SWAP_MID = struct.Struct(">IQHHI")  # swap_indx exec_props node rack rtr_ptr
_SWAP_TAIL = struct.Struct(">IHHBB")  # exec_id swaps skip insert qindex
_HEARTBEAT_WIRE = struct.Struct(">BIH")  # whole message, 7 bytes
_REGISTER_WIRE = struct.Struct(">BIHHQB")  # whole message, 18 bytes
_REGISTER_ACK_WIRE = struct.Struct(">BIIB")  # whole message, 10 bytes
_ELECTION_REQ_WIRE = struct.Struct(">BHIQ")  # whole message, 15 bytes
_ELECTION_ACK_WIRE = struct.Struct(">BHIBQ")  # whole message, 16 bytes
_CTRL_SYNC_HEAD = struct.Struct(">BHIIBH")  # op leader term seq snap #ops
_CTRL_OP_WIRE = struct.Struct(">BIIIIQ")  # kind exec_id a b c d, 25 bytes

_OP_JOB = int(OpCode.JOB_SUBMISSION)
_OP_REQUEST = int(OpCode.TASK_REQUEST)
_OP_ASSIGNMENT = int(OpCode.TASK_ASSIGNMENT)
_OP_ACK = int(OpCode.SUBMISSION_ACK)
_OP_ERROR = int(OpCode.ERROR)
_OP_COMPLETION = int(OpCode.COMPLETION)
_OP_SWAP = int(OpCode.SWAP_TASK)
_OP_REPAIR = int(OpCode.REPAIR)
_NOOP_BYTES = bytes([int(OpCode.NO_OP)])
_HEARTBEAT_OP = int(OpCode.HEARTBEAT)
_OP_REGISTER = int(OpCode.EXECUTOR_REGISTER)
_OP_REGISTER_ACK = int(OpCode.REGISTER_ACK)
_OP_ELECTION_REQ = int(OpCode.ELECTION_REQUEST)
_OP_ELECTION_ACK = int(OpCode.ELECTION_ACK)
_OP_CTRL_SYNC = int(OpCode.CONTROLLER_SYNC)

_MASK64 = 0xFFFFFFFFFFFFFFFF

MAX_CTRL_OPS_PER_PACKET = 48
"""#OPS limit so a controller_sync delta fits in one MTU; bigger flushes
split across packets (the leader's journal flush loop chunks)."""

MAX_FN_PAR_BYTES = 64
"""Fixed FN_PAR field capacity; larger parameters use indirection (§4.4)."""

MAX_TASKS_PER_PACKET = 32
"""#TASKS limit so a job_submission fits in one MTU; bigger jobs split
across packets (§4.3, "Handling Large Jobs")."""

ADDRESS_CACHE_LIMIT = 1024
"""Entries per address-interning cache; a full one is emptied and refills
from traffic (this only bounds memory against address churn)."""


def _checked_fn_par(task: TaskInfo) -> bytes:
    fn_par = task.fn_par
    if len(fn_par) > MAX_FN_PAR_BYTES:
        raise ProtocolError(
            f"fn_par of {len(fn_par)} bytes exceeds the fixed field "
            f"({MAX_FN_PAR_BYTES}); use the indirection mechanisms of §4.4"
        )
    return fn_par


def _task_parts(parts: list, tasks) -> None:
    for task in tasks:
        fn_par = _checked_fn_par(task)
        parts.append(_TASK_HEAD.pack(task.tid, task.fn_id, len(fn_par)))
        parts.append(fn_par)
        parts.append(_U64.pack(task.tprops & _MASK64))


def _decode_task(data, offset: int) -> tuple:
    tid, fn_id, par_len = _TASK_HEAD.unpack_from(data, offset)
    start = offset + 10
    end = start + par_len
    fn_par = bytes(data[start:end])
    tprops = _U64.unpack_from(data, end)[0]
    return TaskInfo(tid, fn_id, fn_par, tprops), end + 8


def _task_size(task: TaskInfo) -> int:
    return 18 + len(task.fn_par)


# Both caches hold only well-formed addresses: an entry is inserted after
# its slice decoded (or its node encoded) without error, never before.
_wire_of_address: Dict[Address, bytes] = {}
_address_of_wire: Dict[bytes, Address] = {}


def _address_wire(address: Optional[Address]) -> bytes:
    if address is None:
        return b"\x00"
    wire = _wire_of_address.get(address)
    if wire is None:
        node = address.node.encode("utf-8")
        if len(node) > 255:
            raise ProtocolError(f"node name too long: {address.node!r}")
        wire = bytes((len(node),)) + node + _U16.pack(address.port)
        if len(_wire_of_address) >= ADDRESS_CACHE_LIMIT:
            _wire_of_address.clear()
        _wire_of_address[address] = wire
    return wire


def _decode_address(data, offset: int) -> tuple:
    length = data[offset]
    if length == 0:
        return None, offset + 1
    end = offset + 3 + length
    # The key keeps the length byte, so a truncated slice (shorter than
    # its own length byte claims) can never equal a cached whole one.
    wire = bytes(data[offset:end])
    address = _address_of_wire.get(wire)
    if address is None:
        if len(wire) != 3 + length:
            raise ProtocolError("truncated address")
        address = Address(
            wire[1 : 1 + length].decode("utf-8"),
            _U16.unpack_from(wire, 1 + length)[0],
        )
        if len(_address_of_wire) >= ADDRESS_CACHE_LIMIT:
            _address_of_wire.clear()
        _address_of_wire[wire] = address
    return address, end


def _address_size(address: Optional[Address]) -> int:
    if address is None:
        return 1
    node = address.node
    # ASCII node names (the only kind the topologies generate) encode to
    # one byte per character; skip the encode on the wire_size hot path.
    if node.isascii():
        return 3 + len(node)
    return 3 + len(node.encode("utf-8"))


# -- encode -------------------------------------------------------------------


def _enc_job(m: JobSubmission) -> bytes:
    tasks = m.tasks
    if len(tasks) > MAX_TASKS_PER_PACKET:
        raise ProtocolError(
            f"{len(tasks)} tasks exceed the per-packet limit "
            f"({MAX_TASKS_PER_PACKET}); split the job across packets"
        )
    parts = [_JOB_HEAD.pack(_OP_JOB, m.uid, m.jid, len(tasks))]
    _task_parts(parts, tasks)
    return b"".join(parts)


def _enc_request(m: TaskRequest) -> bytes:
    return _TASK_REQUEST_WIRE.pack(
        _OP_REQUEST,
        m.executor_id,
        m.node_id,
        m.rack_id,
        m.exec_rsrc & _MASK64,
        m.rtrv_prio,
    )


def _pair_task(op: int, uid: int, jid: int, task: TaskInfo) -> bytes:
    fn_par = _checked_fn_par(task)
    return (
        _PAIR_TASK_HEAD.pack(op, uid, jid, task.tid, task.fn_id, len(fn_par))
        + fn_par
        + _U64.pack(task.tprops & _MASK64)
    )


def _enc_assignment(m: TaskAssignment) -> bytes:
    return _pair_task(_OP_ASSIGNMENT, m.uid, m.jid, m.task) + _address_wire(
        m.client
    )


def _enc_noop(m: NoOpTask) -> bytes:
    return _NOOP_BYTES


def _enc_ack(m: SubmissionAck) -> bytes:
    return _ACK_WIRE.pack(_OP_ACK, m.uid, m.jid, m.accepted)


def _enc_error(m: ErrorPacket) -> bytes:
    parts = [
        _ERROR_HEAD.pack(_OP_ERROR, m.uid, m.jid, m.backoff_hint_ns, len(m.tasks))
    ]
    _task_parts(parts, m.tasks)
    return b"".join(parts)


def _enc_completion(m: Completion) -> bytes:
    head = _COMPLETION_HEAD.pack(
        _OP_COMPLETION,
        m.uid,
        m.jid,
        m.tid,
        m.executor_id,
        1 if m.success else 0,
    )
    request = m.piggyback_request
    if request is None:
        return head + _address_wire(m.client) + b"\x00"
    return (
        head
        + _address_wire(m.client)
        + _PIGGYBACK_TAIL.pack(
            1,
            _OP_REQUEST,
            request.executor_id,
            request.node_id,
            request.rack_id,
            request.exec_rsrc & _MASK64,
            request.rtrv_prio,
        )
    )


def _enc_swap(m: SwapTaskPacket) -> bytes:
    return b"".join(
        (
            _pair_task(_OP_SWAP, m.uid, m.jid, m.task),
            _address_wire(m.client),
            _SWAP_MID.pack(
                m.swap_indx,
                m.exec_props & _MASK64,
                m.node_id,
                m.rack_id,
                m.pkt_retrieve_ptr,
            ),
            _address_wire(m.requester),
            _SWAP_TAIL.pack(
                m.executor_id,
                m.swaps_left,
                m.skip_counter,
                1 if m.insert_mode else 0,
                m.queue_index,
            ),
        )
    )


def _enc_heartbeat(m: Heartbeat) -> bytes:
    return _HEARTBEAT_WIRE.pack(_HEARTBEAT_OP, m.executor_id, m.node_id)


def _enc_register(m: ExecutorRegister) -> bytes:
    return _REGISTER_WIRE.pack(
        _OP_REGISTER,
        m.executor_id,
        m.node_id,
        m.rack_id,
        m.exec_rsrc & _MASK64,
        m.max_outstanding,
    )


def _enc_register_ack(m: RegisterAck) -> bytes:
    return _REGISTER_ACK_WIRE.pack(
        _OP_REGISTER_ACK, m.executor_id, m.epoch, 1 if m.accepted else 0
    )


def _enc_election_request(m: ElectionRequest) -> bytes:
    return _ELECTION_REQ_WIRE.pack(
        _OP_ELECTION_REQ, m.candidate_id, m.term, m.lease_ns
    )


def _enc_election_ack(m: ElectionAck) -> bytes:
    return _ELECTION_ACK_WIRE.pack(
        _OP_ELECTION_ACK,
        m.leader_id,
        m.term,
        1 if m.granted else 0,
        m.expires_at_ns,
    )


def _enc_ctrl_sync(m: ControllerSync) -> bytes:
    ops = m.ops
    if len(ops) > MAX_CTRL_OPS_PER_PACKET:
        raise ProtocolError(
            f"{len(ops)} ctrl ops exceed the per-packet limit "
            f"({MAX_CTRL_OPS_PER_PACKET}); chunk the flush"
        )
    parts = [
        _CTRL_SYNC_HEAD.pack(
            _OP_CTRL_SYNC,
            m.leader_id,
            m.term,
            m.seq,
            1 if m.snapshot else 0,
            len(ops),
        )
    ]
    for op in ops:
        parts.append(
            _CTRL_OP_WIRE.pack(
                op.kind, op.executor_id, op.a, op.b, op.c, op.d & _MASK64
            )
        )
    return b"".join(parts)


def _enc_repair(m: RepairPacket) -> bytes:
    target = m.target.encode("ascii")
    return (
        bytes((_OP_REPAIR, len(target)))
        + target
        + _U32.pack(m.value)
        + bytes((m.queue_index,))
    )


_ENCODERS: Dict[type, Callable] = {
    JobSubmission: _enc_job,
    TaskRequest: _enc_request,
    TaskAssignment: _enc_assignment,
    NoOpTask: _enc_noop,
    SubmissionAck: _enc_ack,
    ErrorPacket: _enc_error,
    Completion: _enc_completion,
    SwapTaskPacket: _enc_swap,
    Heartbeat: _enc_heartbeat,
    ExecutorRegister: _enc_register,
    RegisterAck: _enc_register_ack,
    ElectionRequest: _enc_election_request,
    ElectionAck: _enc_election_ack,
    ControllerSync: _enc_ctrl_sync,
    RepairPacket: _enc_repair,
}


def _for_subclass(table: Dict[type, Callable], message, verb: str) -> Callable:
    """Subclasses of a message type fall back to their base's entry."""
    for cls, candidate in table.items():
        if isinstance(message, cls):
            return candidate
    raise ProtocolError(f"cannot {verb} {type(message).__name__}")


def encode(message) -> bytes:
    """Serialize any protocol message to bytes."""
    encoder = _ENCODERS.get(message.__class__) or _for_subclass(
        _ENCODERS, message, "encode"
    )
    return encoder(message)


# -- decode -------------------------------------------------------------------


def _decode_tasks(data, offset: int, count: int) -> list:
    tasks = []
    for _i in range(count):
        task, offset = _decode_task(data, offset)
        tasks.append(task)
    return tasks


def _dec_job(data):
    _, uid, jid, count = _JOB_HEAD.unpack_from(data, 0)
    return JobSubmission(uid, jid, _decode_tasks(data, 11, count))


def _dec_request(data):
    return TaskRequest(*_TASK_REQUEST_WIRE.unpack_from(data, 0)[1:])


def _dec_pair_task(data) -> tuple:
    _, uid, jid, tid, fn_id, par_len = _PAIR_TASK_HEAD.unpack_from(data, 0)
    end = 19 + par_len
    fn_par = bytes(data[19:end]) if par_len else b""
    tprops = _U64.unpack_from(data, end)[0]
    return uid, jid, TaskInfo(tid, fn_id, fn_par, tprops), end + 8


def _dec_assignment(data):
    uid, jid, task, offset = _dec_pair_task(data)
    return TaskAssignment(uid, jid, task, _decode_address(data, offset)[0])


def _dec_noop(data):
    return NoOpTask()


def _dec_ack(data):
    return SubmissionAck(*_ACK_WIRE.unpack_from(data, 0)[1:])


def _dec_error(data):
    _, uid, jid, backoff_hint_ns, count = _ERROR_HEAD.unpack_from(data, 0)
    return ErrorPacket(uid, jid, _decode_tasks(data, 15, count), backoff_hint_ns)


def _dec_completion(data):
    _, uid, jid, tid, executor_id, success = _COMPLETION_HEAD.unpack_from(
        data, 0
    )
    client, offset = _decode_address(data, 18)
    request = None
    if data[offset]:
        fields = _PIGGYBACK_TAIL.unpack_from(data, offset)
        if fields[1] != _OP_REQUEST:
            raise ProtocolError("completion piggyback must be TaskRequest")
        request = TaskRequest(*fields[2:])
    return Completion(uid, jid, tid, executor_id, success != 0, client, request)


def _dec_swap(data):
    uid, jid, task, offset = _dec_pair_task(data)
    client, offset = _decode_address(data, offset)
    swap_indx, exec_props, node_id, rack_id, pkt_retrieve_ptr = (
        _SWAP_MID.unpack_from(data, offset)
    )
    requester, offset = _decode_address(data, offset + 20)
    executor_id, swaps_left, skip_counter, insert_mode, queue_index = (
        _SWAP_TAIL.unpack_from(data, offset)
    )
    return SwapTaskPacket(
        task,
        uid,
        jid,
        client,
        swap_indx,
        exec_props,
        node_id,
        rack_id,
        pkt_retrieve_ptr,
        requester,
        executor_id,
        swaps_left,
        skip_counter,
        insert_mode != 0,
        queue_index,
    )


def _dec_heartbeat(data):
    return Heartbeat(*_HEARTBEAT_WIRE.unpack_from(data, 0)[1:])


def _dec_register(data):
    return ExecutorRegister(*_REGISTER_WIRE.unpack_from(data, 0)[1:])


def _dec_register_ack(data):
    _, executor_id, epoch, accepted = _REGISTER_ACK_WIRE.unpack_from(data, 0)
    return RegisterAck(executor_id, epoch, accepted != 0)


def _dec_election_request(data):
    return ElectionRequest(*_ELECTION_REQ_WIRE.unpack_from(data, 0)[1:])


def _dec_election_ack(data):
    _, leader_id, term, granted, expires_at_ns = _ELECTION_ACK_WIRE.unpack_from(
        data, 0
    )
    return ElectionAck(leader_id, term, granted != 0, expires_at_ns)


def _dec_ctrl_sync(data):
    _, leader_id, term, seq, snapshot, count = _CTRL_SYNC_HEAD.unpack_from(
        data, 0
    )
    ops = [
        CtrlOp(*_CTRL_OP_WIRE.unpack_from(data, offset))
        for offset in range(14, 14 + 25 * count, 25)
    ]
    return ControllerSync(leader_id, term, seq, snapshot != 0, ops)


def _dec_repair(data):
    length = data[1]
    target = bytes(data[2 : 2 + length]).decode("ascii")
    value = _U32.unpack_from(data, 2 + length)[0]
    queue_index = data[6 + length]
    return RepairPacket(target, value, queue_index)


_DECODERS: Dict[int, Callable] = {
    int(OpCode.JOB_SUBMISSION): _dec_job,
    int(OpCode.TASK_REQUEST): _dec_request,
    int(OpCode.TASK_ASSIGNMENT): _dec_assignment,
    int(OpCode.NO_OP): _dec_noop,
    int(OpCode.SUBMISSION_ACK): _dec_ack,
    int(OpCode.ERROR): _dec_error,
    int(OpCode.COMPLETION): _dec_completion,
    int(OpCode.SWAP_TASK): _dec_swap,
    int(OpCode.HEARTBEAT): _dec_heartbeat,
    int(OpCode.EXECUTOR_REGISTER): _dec_register,
    int(OpCode.REGISTER_ACK): _dec_register_ack,
    int(OpCode.ELECTION_REQUEST): _dec_election_request,
    int(OpCode.ELECTION_ACK): _dec_election_ack,
    int(OpCode.CONTROLLER_SYNC): _dec_ctrl_sync,
    int(OpCode.REPAIR): _dec_repair,
}


def decode(data):
    """Parse bytes (or any buffer) back into a protocol message.

    Raises :class:`ProtocolError` for anything malformed — unknown
    opcodes, truncated fields, bad encodings — never a bare
    ``struct.error`` (a scheduler must not crash on a garbage datagram).
    """
    if not len(data):
        raise ProtocolError("empty message")
    decoder = _DECODERS.get(data[0])
    if decoder is None:
        raise ProtocolError(f"unknown opcode {data[0]}")
    try:
        return decoder(data)
    except ProtocolError:
        raise
    except (struct.error, UnicodeDecodeError, IndexError) as exc:
        raise ProtocolError(f"malformed message: {exc}") from exc


# -- sizes --------------------------------------------------------------------

_TASK_REQUEST_SIZE = _TASK_REQUEST_WIRE.size  # 18


def _tasks_size(size: int, tasks) -> int:
    for task in tasks:
        size += 18 + len(task.fn_par)
    return size


def _size_assignment(m: TaskAssignment) -> int:
    return 9 + _task_size(m.task) + _address_size(m.client)


def _size_completion(m: Completion) -> int:
    size = 19 + _address_size(m.client)
    piggyback = m.piggyback_request
    if piggyback is not None:
        size += wire_size(piggyback)
    return size


def _size_swap(m: SwapTaskPacket) -> int:
    return (
        39  # op + uid + jid + mid block + tail block
        + _task_size(m.task)
        + _address_size(m.client)
        + _address_size(m.requester)
    )


def _size_repair(m: RepairPacket) -> int:
    return 7 + len(m.target.encode("ascii"))


_SIZERS: Dict[type, Callable] = {
    JobSubmission: lambda m: _tasks_size(11, m.tasks),
    TaskRequest: lambda m: _TASK_REQUEST_SIZE,
    TaskAssignment: _size_assignment,
    NoOpTask: lambda m: 1,
    SubmissionAck: lambda m: 11,
    ErrorPacket: lambda m: _tasks_size(15, m.tasks),
    Completion: _size_completion,
    SwapTaskPacket: _size_swap,
    Heartbeat: lambda m: 7,
    ExecutorRegister: lambda m: 18,
    RegisterAck: lambda m: 10,
    ElectionRequest: lambda m: 15,
    ElectionAck: lambda m: 16,
    ControllerSync: lambda m: 14 + 25 * len(m.ops),
    RepairPacket: _size_repair,
}


def wire_size(message) -> int:
    """Encoded size in bytes, without building the byte string."""
    sizer = _SIZERS.get(message.__class__) or _for_subclass(
        _SIZERS, message, "size"
    )
    return sizer(message)
