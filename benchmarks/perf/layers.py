"""Isolated per-layer drivers: nanoseconds per operation on real objects.

Each driver builds the layer's own public objects, runs ``calls``
operations in a tight loop and returns the elapsed seconds of the loop;
:func:`measure` turns that into the median ns/op over several batches.
The loop overhead (~30 ns per iteration) is included and constant. No
mocks: the only stand-in is :class:`FakeTransport`, the same kind of
``sendto`` sink ``tests/test_live.py::make_switch`` uses, so the live
drivers run the full datagram-in → replies-out path minus the kernel.
"""

from __future__ import annotations

import asyncio
import time
from typing import Callable, Dict, List

from harness import median
from repro.cluster.task import FN_NOOP, TaskSpec, encode_duration
from repro.core.policies import PriorityPolicy
from repro.core.queue import QueueEntry, SwitchCircularQueue
from repro.core.scheduler import DraconisProgram
from repro.live.client import LiveClient
from repro.live.executor import LiveExecutor
from repro.live.softswitch import SoftSwitch
from repro.metrics.collector import MetricsCollector
from repro.net.link import Link
from repro.net.packet import Address, Packet
from repro.net.topology import StarTopology
from repro.obs.hdr import LogHistogram
from repro.protocol import codec
from repro.protocol.messages import (
    Completion,
    ExecutorRegister,
    JobSubmission,
    RegisterAck,
    TaskAssignment,
    TaskInfo,
    TaskRequest,
)
from repro.sim.core import Simulator
from repro.sim.rng import RngStreams
from repro.switchsim.pipeline import Forward, P4Program, ProgrammableSwitch, Recirculate
from repro.switchsim.registers import PacketContext, RegisterArray, RegisterFile
from repro.workloads import GoogleTraceConfig, fixed, google_like, open_loop

BATCHES = 5
BASE_CALLS = 20_000
JOB_TASKS = 32
clock = time.perf_counter

CLIENT = Address("127.0.0.1", 40000)
EXECUTOR = Address("127.0.0.1", 50001)
SERVICE = Address("switch", 9000)

Driver = Callable[[int], float]


def measure(driver: Driver, calls: int, per_call: float = 1.0) -> float:
    """Median over :data:`BATCHES` batches of ns per operation.

    ``per_call`` is how many operations one driver call performs (32 for
    the per-task job drivers).
    """
    return median(
        [driver(calls) / (calls * per_call) * 1e9 for _ in range(BATCHES)]
    )


class FakeTransport:
    """Counts ``sendto`` calls; quacks enough for the live components."""

    def __init__(self) -> None:
        self.sent = 0

    def sendto(self, data, addr=None) -> None:
        self.sent += 1

    def get_extra_info(self, name, default=None):
        return default

    def close(self) -> None:
        pass


# -- messages the drivers share ------------------------------------------------


def _job(jid: int = 1, tprops: int = 0) -> JobSubmission:
    return JobSubmission(
        uid=0,
        jid=jid,
        tasks=[TaskInfo(tid=i, fn_id=FN_NOOP, tprops=tprops) for i in range(JOB_TASKS)],
    )


REQUEST = TaskRequest(executor_id=1, node_id=1)
ASSIGNMENT = TaskAssignment(
    uid=0, jid=1, task=TaskInfo(tid=3, fn_par=encode_duration(20_000)), client=CLIENT
)
NOOP_ASSIGNMENT = TaskAssignment(
    uid=0, jid=1, task=TaskInfo(tid=3, fn_id=FN_NOOP), client=CLIENT
)
COMPLETION = Completion(
    uid=0, jid=1, tid=3, executor_id=1, client=CLIENT, piggyback_request=REQUEST
)


def _codec_drivers() -> Dict[str, Driver]:
    drivers: Dict[str, Driver] = {}
    for name, message in (
        ("job32", _job()),
        ("request", REQUEST),
        ("assignment", ASSIGNMENT),
        ("completion", COMPLETION),
    ):
        wire = codec.encode(message)

        def enc(calls: int, message=message) -> float:
            encode = codec.encode
            start = clock()
            for _ in range(calls):
                encode(message)
            return clock() - start

        def dec(calls: int, wire=wire) -> float:
            decode = codec.decode
            start = clock()
            for _ in range(calls):
                decode(wire)
            return clock() - start

        drivers[f"protocol.encode_{name}_ns"] = enc
        drivers[f"protocol.decode_{name}_ns"] = dec
    return drivers


# -- switchsim -----------------------------------------------------------------


def register_rmw(calls: int) -> float:
    array = RegisterArray("bench", 1)
    start = clock()
    for _ in range(calls):
        array.read_and_increment(PacketContext())
    return clock() - start


class _ForwardProgram(P4Program):
    def process(self, ctx, packet):
        return [Forward(packet)]


def pipeline_receive(calls: int) -> float:
    """``receive`` → traversal → forward onto the egress link → host."""
    sim = Simulator()
    switch = ProgrammableSwitch(sim, _ForwardProgram())
    StarTopology(sim, switch).add_host("h0")
    packets = [
        Packet(src=CLIENT, dst=Address("h0", 9000), payload=None, size=64)
        for _ in range(calls)
    ]
    start = clock()
    for packet in packets:
        switch.receive(packet)
    sim.run()
    return clock() - start


# -- core.queue ----------------------------------------------------------------

ENTRY = QueueEntry(uid=0, jid=1, task=TaskInfo(tid=0), client=CLIENT)


def _queue(capacity: int) -> SwitchCircularQueue:
    return SwitchCircularQueue(RegisterFile(), "bench", capacity)


def queue_enqueue(calls: int) -> float:
    queue = _queue(calls + 8)
    start = clock()
    for _ in range(calls):
        queue.enqueue(PacketContext(), ENTRY)
    return clock() - start


def queue_dequeue(calls: int) -> float:
    queue = _queue(calls + 8)
    for _ in range(calls):
        queue.enqueue(PacketContext(), ENTRY)
    start = clock()
    for _ in range(calls):
        queue.dequeue_conditional(PacketContext())
    return clock() - start


def queue_dequeue_empty(calls: int) -> float:
    queue = _queue(64)
    start = clock()
    for _ in range(calls):
        queue.dequeue_conditional(PacketContext())
    return clock() - start


def queue_repair(calls: int) -> float:
    """One mistaken enqueue on a full queue plus its add_ptr repair."""
    queue = _queue(8)
    for _ in range(8):
        queue.enqueue(PacketContext(), ENTRY)
    start = clock()
    for _ in range(calls):
        queue.enqueue(PacketContext(), ENTRY)
        queue.apply_add_repair(PacketContext())
    return clock() - start


# -- core.scheduler ------------------------------------------------------------


def _traverse(program: DraconisProgram, packet: Packet) -> None:
    """One ingress packet, recirculations followed to completion."""
    pending = [packet]
    while pending:
        pkt = pending.pop()
        for action in program.process(PacketContext(pkt), pkt):
            if action.__class__ is Recirculate:
                pending.append(action.packet)


def _job_packet(jid: int, tprops: int = 0) -> Packet:
    return Packet(src=CLIENT, dst=SERVICE, payload=_job(jid, tprops), size=400)


def _filled_program(tasks: int, **kwargs) -> DraconisProgram:
    tprops = 3 if "policy" in kwargs else 0
    program = DraconisProgram(queue_capacity=tasks + JOB_TASKS + 8, **kwargs)
    for jid in range(tasks // JOB_TASKS + 1):
        _traverse(program, _job_packet(jid, tprops))
    return program


def program_submit(calls: int) -> float:
    """``calls`` 32-task submissions; divide by 32 for ns per task."""
    program = DraconisProgram(queue_capacity=calls * JOB_TASKS + 8)
    packets = [_job_packet(jid) for jid in range(calls)]
    start = clock()
    for packet in packets:
        _traverse(program, packet)
    return clock() - start


def _request_packets(calls: int) -> List[Packet]:
    return [
        Packet(src=EXECUTOR, dst=SERVICE, payload=REQUEST, size=60)
        for _ in range(calls)
    ]


def _run_requests(program: DraconisProgram, calls: int) -> float:
    packets = _request_packets(calls)
    start = clock()
    for packet in packets:
        _traverse(program, packet)
    return clock() - start


def program_request_hit(calls: int) -> float:
    return _run_requests(_filled_program(calls), calls)


def program_request_miss(calls: int) -> float:
    return _run_requests(DraconisProgram(), calls)


def prio_request_hit(calls: int) -> float:
    """Pull at level 1, tasks at level 3: two ladder recirculations, then a hit."""
    return _run_requests(_filled_program(calls, policy=PriorityPolicy(4)), calls)


def program_completion(calls: int) -> float:
    """Completion forwarded to the client plus its piggybacked pull (hit)."""
    program = _filled_program(calls)
    packets = [
        Packet(src=EXECUTOR, dst=SERVICE, payload=COMPLETION, size=90)
        for _ in range(calls)
    ]
    start = clock()
    for packet in packets:
        _traverse(program, packet)
    return clock() - start


# -- sim / net -----------------------------------------------------------------


def _nothing(*_args) -> None:
    pass


def sim_dispatch(calls: int) -> float:
    sim = Simulator()
    start = clock()
    for delay in range(calls):
        sim.call_in(delay, _nothing)
    sim.run()
    return clock() - start


def sim_timeout_process(calls: int) -> float:
    sim = Simulator()

    def ticker():
        for _ in range(calls):
            yield sim.timeout(1)

    sim.spawn(ticker())
    start = clock()
    sim.run()
    return clock() - start


def link_send(calls: int) -> float:
    sim = Simulator()
    link = Link(sim, "bench", _nothing, queue_packets=calls + 1)
    packet = Packet(src=CLIENT, dst=SERVICE, payload=None, size=64)
    start = clock()
    for _ in range(calls):
        link.send(packet)
    sim.run()
    return clock() - start


# -- workloads / metrics / obs -------------------------------------------------

TASK_RATE = 256_000.0  # 80 % of 160 executors at 500 us


def open_loop_generate(calls: int) -> float:
    # Poisson arrivals make the task count random; scale the elapsed time
    # to ``calls`` tasks so measure() still divides by what was produced.
    rng = RngStreams(1).stream("arrivals")
    horizon_ns = int(calls / TASK_RATE * 1e9)
    start = clock()
    produced = sum(
        e.count for e in open_loop(rng, TASK_RATE, fixed(500.0), horizon_ns)
    )
    return (clock() - start) * calls / max(1, produced)


def google_like_generate(calls: int) -> float:
    rng = RngStreams(1).stream("google")
    config = GoogleTraceConfig(
        target_rate_tps=TASK_RATE,
        horizon_ns=int(calls / TASK_RATE * 1e9),
        with_priorities=True,
    )
    start = clock()
    produced = sum(e.count for e in google_like(rng, config))
    return (clock() - start) * calls / max(1, produced)


def collector_task(calls: int) -> float:
    """The five lifecycle hooks one task fires."""
    collector = MetricsCollector()
    start = clock()
    for tid in range(calls):
        key = (0, 0, tid)
        collector.on_submit(key, 1)
        collector.on_assign(key, 2, 1, 1)
        collector.on_start(key, 3)
        collector.on_finish(key, 4)
        collector.on_complete(key, 5)
    return clock() - start


def hist_record(calls: int) -> float:
    hist = LogHistogram()
    start = clock()
    for value in range(calls):
        hist.record(value * 37)
    return clock() - start


# -- live components on a fake transport -----------------------------------------

REQUEST_WIRE = codec.encode(REQUEST)
#: the wire format caps an executor's credit at one byte
MAX_CREDIT = 255


def _fake_switch(queue_capacity: int = 4096) -> SoftSwitch:
    switch = SoftSwitch(queue_capacity=queue_capacity)
    switch._transport = FakeTransport()
    switch._service_address = Address("127.0.0.1", 9999)
    return switch


def _fill_switch(switch: SoftSwitch, tasks: int) -> None:
    for jid in range(tasks // JOB_TASKS + 1):
        switch._on_datagram(codec.encode(_job(jid)), (CLIENT.node, CLIENT.port))


def switch_request(calls: int) -> float:
    """Pull datagram in → assignment datagram out.

    Pulls rotate over enough registered executors that none reaches its
    in-flight bound, so every pull takes the queue path.
    """
    switch = _fake_switch(calls + JOB_TASKS + 8)
    _fill_switch(switch, calls)
    pulls = []
    for executor_id in range(calls // MAX_CREDIT + 1):
        addr = ("127.0.0.1", 50_000 + executor_id)
        switch._on_datagram(
            codec.encode(
                ExecutorRegister(executor_id=executor_id, max_outstanding=MAX_CREDIT)
            ),
            addr,
        )
        pulls.append(
            (codec.encode(TaskRequest(executor_id=executor_id)), addr)
        )
    on_datagram = switch._on_datagram
    start = clock()
    for i in range(calls):
        wire, addr = pulls[i // MAX_CREDIT]
        on_datagram(wire, addr)
    return clock() - start


def switch_job32(calls: int) -> float:
    """``calls`` 32-task submissions; divide by 32 for ns per task."""
    switch = _fake_switch(calls * JOB_TASKS + 8)
    wires = [codec.encode(_job(jid)) for jid in range(calls)]
    addr = (CLIENT.node, CLIENT.port)
    start = clock()
    for wire in wires:
        switch._on_datagram(wire, addr)
    return clock() - start


def switch_completion(calls: int) -> float:
    """Completion + piggybacked pull in → client notice + assignment out."""
    switch = _fake_switch(calls + JOB_TASKS + 8)
    _fill_switch(switch, calls)
    addr = (EXECUTOR.node, EXECUTOR.port)
    switch._on_datagram(
        codec.encode(ExecutorRegister(executor_id=1, max_outstanding=2)), addr
    )
    wire = codec.encode(COMPLETION)
    on_datagram = switch._on_datagram
    start = clock()
    for _ in range(calls):
        on_datagram(wire, addr)
    return clock() - start


def executor_assignment(calls: int) -> float:
    """No-op assignment in → completion with piggybacked pull out."""
    executor = LiveExecutor(executor_id=1, switch=("127.0.0.1", 9999))
    executor.connection_made(FakeTransport())
    executor.datagram_received(
        codec.encode(RegisterAck(executor_id=1, epoch=1)), None
    )
    wire = codec.encode(NOOP_ASSIGNMENT)
    start = clock()
    for _ in range(calls):
        executor.datagram_received(wire, None)
    return clock() - start


SPECS = [TaskSpec(duration_ns=0, fn_id=FN_NOOP)] * JOB_TASKS


def _fake_client() -> LiveClient:
    client = LiveClient(uid=0)
    client.connection_made(FakeTransport())
    return client


def client_submit(calls: int) -> float:
    """``calls`` 32-task jobs; divide by 32 for ns per task."""
    client = _fake_client()
    start = clock()
    for _ in range(calls):
        client.submit(SPECS)
    return clock() - start


def client_completion(calls: int) -> float:
    client = _fake_client()
    wires = []
    for _ in range(calls // JOB_TASKS + 1):
        jid = client.submit(SPECS)
        wires.extend(
            codec.encode(Completion(uid=0, jid=jid, tid=tid, executor_id=1))
            for tid in range(JOB_TASKS)
        )
    start = clock()
    for wire in wires[:calls]:
        client.datagram_received(wire, None)
    return clock() - start


class _Echo(asyncio.DatagramProtocol):
    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data, addr) -> None:
        self.transport.sendto(data, addr)


class _Pinger(asyncio.DatagramProtocol):
    def __init__(self, trips: int, done: asyncio.Future) -> None:
        self.left = trips
        self.done = done

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data, addr) -> None:
        self.left -= 1
        if self.left > 0:
            self.transport.sendto(data)
        elif not self.done.done():
            self.done.set_result(None)


async def _echo_trips(trips: int) -> float:
    loop = asyncio.get_running_loop()
    server, _ = await loop.create_datagram_endpoint(
        _Echo, local_addr=("127.0.0.1", 0)
    )
    done = loop.create_future()
    client, _ = await loop.create_datagram_endpoint(
        lambda: _Pinger(trips, done),
        remote_addr=server.get_extra_info("sockname"),
    )
    try:
        start = clock()
        client.sendto(b"x" * 18)
        await asyncio.wait_for(done, 30.0)
        return clock() - start
    finally:
        client.close()
        server.close()


def udp_echo(calls: int) -> float:
    """Bare asyncio loopback echo: the floor any live latency sits on."""
    return asyncio.run(_echo_trips(calls))


_CODEC_SHARE = {"job32": 0.05, "request": 1.0, "assignment": 0.5, "completion": 0.5}

#: metric name -> (driver, share of BASE_CALLS per batch, operations per call).
#: Shares keep every batch near 40 ms: 20k calls for sub-2 us operations,
#: proportionally fewer for slower ones.
DRIVERS: Dict[str, tuple] = {
    **{
        name: (driver, _CODEC_SHARE[name.split("_")[1]], 1)
        for name, driver in _codec_drivers().items()
    },
    "switchsim.register_rmw_ns": (register_rmw, 1.0, 1),
    "switchsim.pipeline_receive_ns": (pipeline_receive, 0.5, 1),
    "core.queue_enqueue_ns": (queue_enqueue, 1.0, 1),
    "core.queue_dequeue_ns": (queue_dequeue, 1.0, 1),
    "core.queue_dequeue_empty_ns": (queue_dequeue_empty, 1.0, 1),
    "core.queue_repair_ns": (queue_repair, 0.5, 1),
    "core.program_submit_ns_per_task": (program_submit, 0.01, JOB_TASKS),
    "core.program_request_hit_ns": (program_request_hit, 0.5, 1),
    "core.program_request_miss_ns": (program_request_miss, 0.5, 1),
    "core.program_completion_ns": (program_completion, 0.4, 1),
    "core.prio_request_hit_ns": (prio_request_hit, 0.2, 1),
    "sim.dispatch_ns": (sim_dispatch, 1.0, 1),
    "sim.timeout_process_ns": (sim_timeout_process, 1.0, 1),
    "net.link_send_ns": (link_send, 1.0, 1),
    "workloads.open_loop_ns_per_task": (open_loop_generate, 0.5, 1),
    "workloads.google_like_ns_per_task": (google_like_generate, 0.1, 1),
    "metrics.collector_ns_per_task": (collector_task, 1.0, 1),
    "obs.hist_record_ns": (hist_record, 1.0, 1),
    "live.switch_request_ns": (switch_request, 0.2, 1),
    "live.switch_job32_ns_per_task": (switch_job32, 0.01, JOB_TASKS),
    "live.switch_completion_ns": (switch_completion, 0.1, 1),
    "live.executor_assignment_ns": (executor_assignment, 0.25, 1),
    "live.client_submit_ns_per_task": (client_submit, 0.02, JOB_TASKS),
    "live.client_completion_ns": (client_completion, 0.5, 1),
}


def run_all(scale: float = 1.0) -> Dict[str, dict]:
    """Every isolated per-layer metric, as ``{name: {value, unit}}``."""
    out: Dict[str, dict] = {}
    for name, (driver, share, per_call) in DRIVERS.items():
        calls = max(8, int(BASE_CALLS * share * scale))
        out[name] = {"value": measure(driver, calls, per_call), "unit": "ns"}
    trips = max(50, int(2_000 * scale))
    out["live.udp_echo_rtt_us"] = {
        "value": measure(udp_echo, trips) / 1e3,
        "unit": "us",
    }
    return out


if __name__ == "__main__":
    for metric, entry in run_all().items():
        print(f"{metric:<40} {entry['value']:>14.1f} {entry['unit']}")
