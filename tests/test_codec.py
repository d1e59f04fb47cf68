"""Round-trip and size tests for the protocol codec, plus hypothesis
property tests pinning the wire format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.net.packet import Address
from repro.protocol import (
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
    OpCode,
    RegisterAck,
    RepairPacket,
    SubmissionAck,
    SwapTaskPacket,
    TaskAssignment,
    TaskInfo,
    TaskRequest,
    decode,
    encode,
    wire_size,
)
from repro.protocol import codec as codec_module
from repro.protocol.codec import (
    MAX_CTRL_OPS_PER_PACKET,
    MAX_FN_PAR_BYTES,
    MAX_TASKS_PER_PACKET,
)


def roundtrip(message):
    data = encode(message)
    assert len(data) == wire_size(message)
    return decode(data)


task_infos = st.builds(
    TaskInfo,
    tid=st.integers(0, 2**32 - 1),
    fn_id=st.integers(0, 2**32 - 1),
    fn_par=st.binary(max_size=MAX_FN_PAR_BYTES),
    tprops=st.integers(0, 2**64 - 1),
)

addresses = st.one_of(
    st.none(),
    st.builds(
        Address,
        node=st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1,
            max_size=16,
        ),
        port=st.integers(0, 65535),
    ),
)


class TestRoundTrips:
    @given(
        uid=st.integers(0, 2**32 - 1),
        jid=st.integers(0, 2**32 - 1),
        tasks=st.lists(task_infos, max_size=MAX_TASKS_PER_PACKET),
    )
    @settings(max_examples=50)
    def test_job_submission(self, uid, jid, tasks):
        msg = JobSubmission(uid=uid, jid=jid, tasks=tasks)
        out = roundtrip(msg)
        assert out == msg
        assert out.num_tasks == len(tasks)

    @given(
        executor_id=st.integers(0, 2**32 - 1),
        node_id=st.integers(0, 2**16 - 1),
        rack_id=st.integers(0, 2**16 - 1),
        exec_rsrc=st.integers(0, 2**64 - 1),
        rtrv_prio=st.integers(0, 255),
    )
    @settings(max_examples=50)
    def test_task_request(self, executor_id, node_id, rack_id, exec_rsrc, rtrv_prio):
        msg = TaskRequest(
            executor_id=executor_id,
            node_id=node_id,
            rack_id=rack_id,
            exec_rsrc=exec_rsrc,
            rtrv_prio=rtrv_prio,
        )
        assert roundtrip(msg) == msg

    @given(task=task_infos, client=addresses)
    @settings(max_examples=50)
    def test_task_assignment(self, task, client):
        msg = TaskAssignment(uid=1, jid=2, task=task, client=client)
        assert roundtrip(msg) == msg

    def test_noop(self):
        assert roundtrip(NoOpTask()) == NoOpTask()
        assert wire_size(NoOpTask()) == 1

    def test_submission_ack(self):
        msg = SubmissionAck(uid=3, jid=4, accepted=5)
        assert roundtrip(msg) == msg

    @given(tasks=st.lists(task_infos, max_size=8))
    @settings(max_examples=25)
    def test_error_packet(self, tasks):
        msg = ErrorPacket(uid=1, jid=9, tasks=tasks)
        assert roundtrip(msg) == msg

    @given(client=addresses, piggyback=st.booleans())
    @settings(max_examples=25)
    def test_completion(self, client, piggyback):
        request = TaskRequest(executor_id=7) if piggyback else None
        msg = Completion(
            uid=1,
            jid=2,
            tid=3,
            executor_id=4,
            success=False,
            client=client,
            piggyback_request=request,
        )
        assert roundtrip(msg) == msg

    @given(task=task_infos, requester=addresses, client=addresses)
    @settings(max_examples=50)
    def test_swap_task(self, task, requester, client):
        msg = SwapTaskPacket(
            uid=5,
            jid=6,
            task=task,
            client=client,
            swap_indx=11,
            exec_props=0xF0,
            node_id=3,
            rack_id=1,
            pkt_retrieve_ptr=10,
            requester=requester,
            executor_id=77,
            swaps_left=4,
            skip_counter=2,
            insert_mode=True,
            queue_index=3,
        )
        assert roundtrip(msg) == msg

    @pytest.mark.parametrize("target", ["add_ptr", "retrieve_ptr"])
    def test_repair(self, target):
        msg = RepairPacket(target=target, value=123456, queue_index=2)
        assert roundtrip(msg) == msg


class TestRegistration:
    @given(
        executor_id=st.integers(0, 2**32 - 1),
        node_id=st.integers(0, 2**16 - 1),
        rack_id=st.integers(0, 2**16 - 1),
        exec_rsrc=st.integers(0, 2**64 - 1),
        max_outstanding=st.integers(0, 255),
    )
    @settings(max_examples=50)
    def test_executor_register(
        self, executor_id, node_id, rack_id, exec_rsrc, max_outstanding
    ):
        msg = ExecutorRegister(
            executor_id=executor_id,
            node_id=node_id,
            rack_id=rack_id,
            exec_rsrc=exec_rsrc,
            max_outstanding=max_outstanding,
        )
        assert roundtrip(msg) == msg

    @given(
        executor_id=st.integers(0, 2**32 - 1),
        epoch=st.integers(0, 2**32 - 1),
        accepted=st.booleans(),
    )
    @settings(max_examples=50)
    def test_register_ack(self, executor_id, epoch, accepted):
        msg = RegisterAck(
            executor_id=executor_id, epoch=epoch, accepted=accepted
        )
        out = roundtrip(msg)
        assert out == msg
        assert isinstance(out.accepted, bool)

    def test_register_matches_request_size(self):
        """The handshake rides the same 18-byte layout as a pull."""
        assert wire_size(ExecutorRegister()) == wire_size(TaskRequest())


class TestElection:
    """Control-plane replication wire messages (repro.ctrl.replication)."""

    def test_election_request_golden_bytes(self):
        msg = ElectionRequest(candidate_id=1, term=2, lease_ns=600_000)
        assert encode(msg) == (
            b"\x0d\x00\x01\x00\x00\x00\x02"
            b"\x00\x00\x00\x00\x00\x09\x27\xc0"
        )

    def test_election_ack_golden_bytes(self):
        msg = ElectionAck(
            leader_id=1, term=2, granted=True, expires_at_ns=0x1234
        )
        assert encode(msg) == (
            b"\x0e\x00\x01\x00\x00\x00\x02\x01"
            b"\x00\x00\x00\x00\x00\x00\x12\x34"
        )

    def test_controller_sync_sizes(self):
        ops = [CtrlOp(kind=3, executor_id=7, a=1, b=2, c=3, d=4)]
        msg = ControllerSync(leader_id=0, term=1, seq=1, ops=ops)
        assert wire_size(msg) == 14 + 25 * len(ops)
        assert roundtrip(msg) == msg

    def test_controller_sync_entries_never_on_wire(self):
        """The sim-only entry piggyback must not affect encoding."""
        ops = [CtrlOp(kind=3, a=1, b=2, c=3)]
        bare = ControllerSync(leader_id=0, term=1, seq=1, ops=ops)
        loaded = ControllerSync(
            leader_id=0, term=1, seq=1, ops=ops, entries={(1, 2, 3): object()}
        )
        assert encode(bare) == encode(loaded)
        assert decode(encode(loaded)).entries is None

    def test_controller_sync_op_limit(self):
        ops = [CtrlOp(kind=4) for _ in range(MAX_CTRL_OPS_PER_PACKET + 1)]
        msg = ControllerSync(leader_id=0, term=1, seq=1, ops=ops)
        with pytest.raises(ProtocolError, match="ops"):
            encode(msg)


# -- every message type, one property -----------------------------------------

_u8 = st.integers(0, 2**8 - 1)
_u16 = st.integers(0, 2**16 - 1)
_u32 = st.integers(0, 2**32 - 1)
_u64 = st.integers(0, 2**64 - 1)

task_requests = st.builds(
    TaskRequest,
    executor_id=_u32,
    node_id=_u16,
    rack_id=_u16,
    exec_rsrc=_u64,
    rtrv_prio=_u8,
)

#: one strategy per wire message type; the inventory test pins this dict
#: to the codec's encoder table, so adding a message without a strategy
#: (or a strategy for a type the codec dropped) fails loudly.
MESSAGE_STRATEGIES = {
    JobSubmission: st.builds(
        JobSubmission,
        uid=_u32,
        jid=_u32,
        tasks=st.lists(task_infos, max_size=MAX_TASKS_PER_PACKET),
    ),
    TaskRequest: task_requests,
    TaskAssignment: st.builds(
        TaskAssignment, uid=_u32, jid=_u32, task=task_infos, client=addresses
    ),
    NoOpTask: st.just(NoOpTask()),
    SubmissionAck: st.builds(
        SubmissionAck, uid=_u32, jid=_u32, accepted=_u16
    ),
    ErrorPacket: st.builds(
        ErrorPacket,
        uid=_u32,
        jid=_u32,
        tasks=st.lists(task_infos, max_size=8),
        backoff_hint_ns=_u32,
    ),
    Completion: st.builds(
        Completion,
        uid=_u32,
        jid=_u32,
        tid=_u32,
        executor_id=_u32,
        success=st.booleans(),
        client=addresses,
        piggyback_request=st.one_of(st.none(), task_requests),
    ),
    SwapTaskPacket: st.builds(
        SwapTaskPacket,
        uid=_u32,
        jid=_u32,
        task=task_infos,
        client=addresses,
        swap_indx=_u32,
        exec_props=_u64,
        node_id=_u16,
        rack_id=_u16,
        pkt_retrieve_ptr=_u32,
        requester=addresses,
        executor_id=_u32,
        swaps_left=_u16,
        skip_counter=_u16,
        insert_mode=st.booleans(),
        queue_index=_u8,
    ),
    Heartbeat: st.builds(Heartbeat, executor_id=_u32, node_id=_u16),
    ExecutorRegister: st.builds(
        ExecutorRegister,
        executor_id=_u32,
        node_id=_u16,
        rack_id=_u16,
        exec_rsrc=_u64,
        max_outstanding=_u8,
    ),
    RegisterAck: st.builds(
        RegisterAck, executor_id=_u32, epoch=_u32, accepted=st.booleans()
    ),
    RepairPacket: st.builds(
        RepairPacket,
        target=st.sampled_from(["add_ptr", "retrieve_ptr"]),
        value=_u32,
        queue_index=_u8,
    ),
    ElectionRequest: st.builds(
        ElectionRequest, candidate_id=_u16, term=_u32, lease_ns=_u64
    ),
    ElectionAck: st.builds(
        ElectionAck,
        leader_id=_u16,
        term=_u32,
        granted=st.booleans(),
        expires_at_ns=_u64,
    ),
    ControllerSync: st.builds(
        ControllerSync,
        leader_id=_u16,
        term=_u32,
        seq=_u32,
        snapshot=st.booleans(),
        ops=st.lists(
            st.builds(
                CtrlOp,
                kind=_u8,
                executor_id=_u32,
                a=_u32,
                b=_u32,
                c=_u32,
                d=_u64,
            ),
            max_size=MAX_CTRL_OPS_PER_PACKET,
        ),
    ),
}

any_message = st.one_of(*MESSAGE_STRATEGIES.values())


class TestEveryMessageType:
    def test_strategy_inventory_matches_codec(self):
        """Every encodable type has a strategy and vice versa."""
        assert set(MESSAGE_STRATEGIES) == set(codec_module._ENCODERS)

    @given(msg=any_message)
    @settings(max_examples=300)
    def test_roundtrip_and_size_all_types(self, msg):
        """decode(encode(m)) == m and wire_size(m) == len(encode(m)),
        for every message type the codec knows — including piggybacked
        completions and the live-runtime registration handshake."""
        data = encode(msg)
        assert len(data) == wire_size(msg)
        assert decode(data) == msg


class TestAddressInterning:
    """The two address caches are invisible: same bytes and same
    messages cold or warm, bounded, and never fed a malformed slice."""

    @staticmethod
    def caches():
        return codec_module._wire_of_address, codec_module._address_of_wire

    @given(msg=any_message)
    @settings(max_examples=200)
    def test_roundtrip_cold_and_warm(self, msg):
        for cache in self.caches():
            cache.clear()
        cold = encode(msg)
        assert decode(cold) == msg
        assert encode(msg) == cold  # warm: identical bytes ...
        assert decode(cold) == msg  # ... and an equal message

    def test_caches_stay_bounded(self):
        limit = codec_module.ADDRESS_CACHE_LIMIT
        for i in range(3 * limit):
            msg = Completion(uid=1, jid=2, tid=3, client=Address(f"n{i}", i % 65536))
            assert decode(encode(msg)) == msg
            assert all(len(cache) <= limit for cache in self.caches())

    @pytest.mark.parametrize(
        "address_field",
        [
            b"\x02\xff\xfe\x00\x07",  # node is not UTF-8
            b"\x05ab\x00\x07",  # claims 5 node bytes, datagram ends after 2
            b"\x02ab\x00",  # port cut short
        ],
    )
    def test_malformed_address_raises_and_is_never_cached(self, address_field):
        # "ab":7 is cached whole; a truncated slice that starts with the
        # same bytes must not hit it.
        good = Completion(uid=1, jid=2, tid=3, client=Address("ab", 7))
        assert decode(encode(good)) == good
        before = [dict(cache) for cache in self.caches()]
        with pytest.raises(ProtocolError):
            decode(encode(good)[:18] + address_field)
        assert [dict(cache) for cache in self.caches()] == before


class TestLimitsAndErrors:
    def test_oversized_fn_par_rejected(self):
        task = TaskInfo(tid=1, fn_par=b"x" * (MAX_FN_PAR_BYTES + 1))
        with pytest.raises(ProtocolError, match="§4.4"):
            encode(JobSubmission(uid=1, jid=1, tasks=[task]))

    def test_too_many_tasks_rejected(self):
        tasks = [TaskInfo(tid=i) for i in range(MAX_TASKS_PER_PACKET + 1)]
        with pytest.raises(ProtocolError, match="split the job"):
            encode(JobSubmission(uid=1, jid=1, tasks=tasks))

    def test_empty_message_rejected(self):
        with pytest.raises(ProtocolError):
            decode(b"")

    def test_unknown_opcode_rejected(self):
        with pytest.raises(ProtocolError, match="unknown opcode"):
            decode(b"\xff")

    def test_opcode_is_first_byte(self):
        data = encode(JobSubmission(uid=1, jid=1, tasks=[]))
        assert data[0] == int(OpCode.JOB_SUBMISSION)

    def test_task_request_is_small(self):
        """Pull-model control traffic must stay tiny (a few dozen bytes)."""
        assert wire_size(TaskRequest()) <= 24

    def test_submission_scales_linearly_with_tasks(self):
        one = wire_size(JobSubmission(uid=1, jid=1, tasks=[TaskInfo(tid=0)]))
        two = wire_size(
            JobSubmission(uid=1, jid=1, tasks=[TaskInfo(tid=0), TaskInfo(tid=1)])
        )
        per_task = two - one
        assert per_task == 18  # tid+fn_id+len+tprops with empty fn_par


class TestDecoderRobustness:
    """A scheduler must not crash on garbage datagrams: every malformed
    input maps to ProtocolError, never a bare struct/unicode error."""

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=200)
    def test_random_bytes_never_crash(self, data):
        try:
            decode(data)
        except ProtocolError:
            pass  # the only acceptable failure mode

    @given(
        msg=st.sampled_from(
            [
                JobSubmission(uid=1, jid=2, tasks=[TaskInfo(tid=0)]),
                TaskRequest(executor_id=3),
                TaskAssignment(uid=1, jid=2, task=TaskInfo(tid=0)),
                Completion(uid=1, jid=2, tid=3, client=Address("c", 1)),
            ]
        ),
        cut=st.integers(1, 10),
    )
    @settings(max_examples=100)
    def test_truncated_messages_raise_protocol_error(self, msg, cut):
        data = encode(msg)
        truncated = data[: max(1, len(data) - cut)]
        try:
            result = decode(truncated)
            # a shorter prefix can still be self-consistent for some
            # types; if it parses, it must at least be a protocol message
            assert hasattr(result, "op")
        except ProtocolError:
            pass

    def test_trailing_garbage_tolerated(self):
        """UDP payload padding after a complete message must not break
        parsing (decoders read fixed offsets, not to-end-of-buffer)."""
        msg = TaskRequest(executor_id=7)
        assert decode(encode(msg) + b"\x00" * 8) == msg

    @given(
        msg=st.sampled_from(
            [
                JobSubmission(uid=1, jid=2, tasks=[TaskInfo(tid=9)]),
                TaskRequest(executor_id=3, node_id=1, rack_id=0),
                TaskAssignment(uid=1, jid=2, task=TaskInfo(tid=0)),
                Completion(uid=1, jid=2, tid=3, client=Address("c", 1)),
                SubmissionAck(uid=4, jid=5, accepted=True),
            ]
        ),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_single_bit_flip_never_crashes(self, msg, data):
        """The fuzzer's wire-corruption model in one property: flip any
        single bit of a valid frame and the decoder must either parse
        *something* or raise ProtocolError — a checksum mismatch on real
        hardware drops the frame, but the parser still sees the bytes and
        must not die on them (this is exactly what
        ``LinkChaos._corrupt`` exercises on every corrupted packet)."""
        encoded = bytearray(encode(msg))
        bit = data.draw(st.integers(0, len(encoded) * 8 - 1))
        encoded[bit // 8] ^= 1 << (bit % 8)
        try:
            result = decode(bytes(encoded))
            assert hasattr(result, "op")
        except ProtocolError:
            pass  # the only acceptable failure mode
