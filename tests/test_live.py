"""Tests for the live UDP runtime (repro.live).

Two layers, matching how the subsystem can fail:

* unit tests drive :meth:`SoftSwitch._on_datagram` directly through a
  fake transport — registration/epochs, the JBSQ-style dispatch bound,
  credit resync, bounce-on-full, malformed input, the inversion probe —
  no sockets, no event loop, fully deterministic;
* short end-to-end tests run real loopback sockets through
  :func:`run_live` (a few hundred ms each) and assert the conformance
  harness's core properties: task conservation, zero policy-level
  priority inversions, a working no-op throughput probe.
"""

import asyncio
import socket
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.client_core import LIVE_CLIENT_CONFIG
from repro.cluster.task import TaskSpec
from repro.errors import ConfigurationError
from repro.experiments import persist
from repro.live import results as live_results
from repro.live.base import RECV_BUDGET, Counters, UdpPort, WallClock
from repro.live.client import LiveClient
from repro.live.results import LiveResult
from repro.live.runtime import LiveSpec, run_live
from repro.live.softswitch import CREDIT_RESYNC_NS, SoftSwitch
from repro.net.packet import Address
from repro.obs.hdr import LogHistogram
from repro.core.policies import PriorityPolicy
from repro.protocol import codec
from repro.protocol.messages import (
    Completion,
    ErrorPacket,
    ExecutorRegister,
    JobSubmission,
    NoOpTask,
    RegisterAck,
    TaskAssignment,
    TaskInfo,
    TaskRequest,
)
from repro.sim.rng import RngStreams


class FakeTransport:
    """Captures sendto calls; quacks enough for SoftSwitch._send."""

    def __init__(self):
        self.sent = []

    def sendto(self, data, addr=None):
        self.sent.append((bytes(data), addr))

    def get_extra_info(self, name):
        return None

    def messages(self, cls=None):
        decoded = [(codec.decode(d), a) for d, a in self.sent]
        if cls is None:
            return decoded
        return [(m, a) for m, a in decoded if isinstance(m, cls)]


def make_switch(**kwargs) -> "tuple[SoftSwitch, FakeTransport]":
    switch = SoftSwitch(**kwargs)
    transport = FakeTransport()
    switch._transport = transport
    switch._service_address = Address("127.0.0.1", 9999)
    return switch, transport


EXEC_ADDR = ("127.0.0.1", 50001)


def register(switch, executor_id=1, addr=EXEC_ADDR, max_outstanding=2):
    switch._on_datagram(
        codec.encode(
            ExecutorRegister(
                executor_id=executor_id, max_outstanding=max_outstanding
            )
        ),
        addr,
    )


class TestRegistration:
    def test_register_creates_record_and_acks(self):
        switch, transport = make_switch()
        register(switch, executor_id=7)
        record = switch.executors[7]
        assert record.epoch == 1
        assert record.endpoint == EXEC_ADDR
        acks = transport.messages(RegisterAck)
        assert len(acks) == 1
        assert acks[0][0].epoch == 1 and acks[0][0].accepted
        assert acks[0][1] == EXEC_ADDR

    def test_reregister_bumps_epoch_and_moves_endpoint(self):
        switch, transport = make_switch()
        register(switch, executor_id=7, addr=("127.0.0.1", 50001))
        # stale credit from incarnation 1
        switch.executors[7].tasks.update({(1, 1, 0), (1, 1, 1)})
        new_addr = ("127.0.0.1", 50002)
        register(switch, executor_id=7, addr=new_addr)
        record = switch.executors[7]
        assert record.epoch == 2
        assert record.in_flight == 0
        assert record.endpoint == new_addr
        assert switch._by_endpoint.get(new_addr) is record
        assert ("127.0.0.1", 50001) not in switch._by_endpoint

    def test_malformed_datagram_counted_not_fatal(self):
        switch, _ = make_switch()
        switch._on_datagram(b"\xff\x00\x01", ("127.0.0.1", 1))
        switch._on_datagram(b"", ("127.0.0.1", 1))
        assert switch.counters["malformed"] == 2


class TestDispatchBound:
    def pull(self, switch, executor_id=1, addr=EXEC_ADDR):
        switch._on_datagram(
            codec.encode(TaskRequest(executor_id=executor_id)), addr
        )

    def test_pull_at_bound_gets_noop(self):
        switch, transport = make_switch()
        register(switch, max_outstanding=1)
        record = switch.executors[1]
        record.tasks.add((1, 1, 0))
        record.last_assign_ns = switch.sim.now
        self.pull(switch)
        assert switch.counters["bounded_rejects"] == 1
        noops = transport.messages(NoOpTask)
        assert len(noops) == 1 and noops[0][1] == EXEC_ADDR

    def test_stale_credit_resyncs(self):
        switch, _ = make_switch()
        register(switch, max_outstanding=1)
        record = switch.executors[1]
        record.tasks.add((1, 1, 0))
        # No assignment for > CREDIT_RESYNC_NS: a datagram leaked credit.
        record.last_assign_ns = switch.sim.now - CREDIT_RESYNC_NS - 1
        self.pull(switch)
        assert switch.counters["credit_resyncs"] == 1
        assert record.in_flight <= 1  # reset, then the pull proceeded

    def test_unregistered_pull_passes_through(self):
        switch, _ = make_switch()
        self.pull(switch, executor_id=99)
        assert switch.counters["unregistered_pulls"] == 1

    def test_assignment_consumes_credit(self):
        switch, transport = make_switch()
        register(switch, max_outstanding=2)
        switch._on_datagram(
            codec.encode(
                JobSubmission(uid=1, jid=1, tasks=[TaskInfo(tid=0)])
            ),
            ("127.0.0.1", 60000),
        )
        self.pull(switch)
        assert len(transport.messages(TaskAssignment)) == 1
        assert switch.executors[1].in_flight == 1

    def test_duplicated_completion_cannot_forge_a_pull(self):
        switch, _ = make_switch()
        register(switch, max_outstanding=2)
        record = switch.executors[1]
        client = ("127.0.0.1", 60000)

        def submit(jid, tasks):
            switch._on_datagram(
                codec.encode(
                    JobSubmission(
                        uid=1,
                        jid=jid,
                        tasks=[TaskInfo(tid=t) for t in range(tasks)],
                    )
                ),
                client,
            )

        def complete(tid):
            return codec.encode(
                Completion(
                    uid=1,
                    jid=1,
                    tid=tid,
                    executor_id=1,
                    piggyback_request=TaskRequest(executor_id=1),
                )
            )

        self.pull(switch)
        self.pull(switch)
        submit(jid=1, tasks=2)
        assert record.in_flight == 2
        # both tasks finish, each completion piggybacking the next pull;
        # the wire duplicates the first one
        for datagram in (complete(0), complete(0), complete(1)):
            switch._on_datagram(datagram, EXEC_ADDR)
        assert record.in_flight == 0
        submit(jid=2, tasks=3)
        assert record.in_flight <= record.max_outstanding


    def test_duplicated_bare_pull_cannot_over_dispatch(self):
        # An idle executor sends its two pulls and the wire duplicates
        # one: all three park (nothing is in flight, so ingress cannot
        # tell). The bound holds where the assignments are emitted: the
        # third task goes back into the queue instead of to the executor.
        switch, transport = make_switch()
        register(switch, max_outstanding=2)
        for _ in range(3):
            self.pull(switch)
        switch._on_datagram(
            codec.encode(
                JobSubmission(
                    uid=1, jid=1, tasks=[TaskInfo(tid=t) for t in range(3)]
                )
            ),
            ("127.0.0.1", 60000),
        )
        assert switch.executors[1].in_flight == 2
        assert len(transport.messages(TaskAssignment)) == 2
        assert switch.counters["over_dispatch_requeues"] == 1
        assert switch.total_queued() == 1  # requeued, not lost


class FakeClock:
    """Settable stand-in for WallClock; everything reads it lazily."""

    def __init__(self, start_ns=1_000):
        self.now = start_ns

    def advance(self, delta_ns):
        self.now += delta_ns


class TestCreditLeakRecovery:
    """The 250 ms credit resync, driven through the full datagram path.

    Unlike ``test_stale_credit_resyncs`` (which fakes the leak by
    rewinding ``last_assign_ns``), this drops a real completion datagram
    on the floor and asserts the per-executor in-flight bound recovers
    without a re-registration.
    """

    def pull(self, switch):
        switch._on_datagram(
            codec.encode(TaskRequest(executor_id=1)), EXEC_ADDR
        )

    def test_dropped_completion_heals_after_resync_window(self):
        switch, transport = make_switch()
        clock = FakeClock()
        switch.sim = clock  # registry and program read switch.sim.now
        register(switch, max_outstanding=1)
        record = switch.executors[1]
        switch._on_datagram(
            codec.encode(
                JobSubmission(
                    uid=1, jid=1, tasks=[TaskInfo(tid=0), TaskInfo(tid=1)]
                )
            ),
            ("127.0.0.1", 60000),
        )
        self.pull(switch)
        assert len(transport.messages(TaskAssignment)) == 1
        assert record.in_flight == 1

        # The executor finished task 0, but its Completion datagram was
        # lost: the credit leaks and the bound stays saturated.
        clock.advance(1_000_000)
        self.pull(switch)
        assert switch.counters["bounded_rejects"] == 1
        assert len(transport.messages(TaskAssignment)) == 1

        # Past the resync window the stale credit is forgotten and the
        # same pull dispatches again — the bound recovered on its own.
        clock.advance(CREDIT_RESYNC_NS + 1)
        self.pull(switch)
        assert switch.counters["credit_resyncs"] == 1
        assert len(transport.messages(TaskAssignment)) == 2
        assert 0 <= record.in_flight <= record.max_outstanding
        assert record.epoch == 1  # healed without re-registration


class TestBackpressure:
    def test_full_queue_bounces_submission(self):
        switch, transport = make_switch(queue_capacity=16)
        for jid in range(4):
            switch._on_datagram(
                codec.encode(
                    JobSubmission(
                        uid=1,
                        jid=jid,
                        tasks=[TaskInfo(tid=t) for t in range(16)],
                    )
                ),
                ("127.0.0.1", 60000),
            )
        bounces = transport.messages(ErrorPacket)
        assert bounces, "overflow submissions must bounce, not vanish"
        bounced = sum(len(m.tasks) for m, _ in bounces)
        assert bounced + switch.total_queued() == 64


class TestInversionProbe:
    def assignment(self, level):
        return TaskAssignment(
            uid=1, jid=1, task=TaskInfo(tid=0, tprops=level)
        )

    def test_no_inversion_on_empty_queues(self):
        switch, _ = make_switch(policy=PriorityPolicy(4))
        switch._check_inversion(self.assignment(3))
        assert switch.priority_inversions == 0

    def test_low_priority_assignment_with_high_waiting_counts(self):
        switch, _ = make_switch(policy=PriorityPolicy(4))
        switch._on_datagram(
            codec.encode(
                JobSubmission(uid=1, jid=1, tasks=[TaskInfo(tid=0, tprops=1)])
            ),
            ("127.0.0.1", 60000),
        )
        switch._check_inversion(self.assignment(3))
        assert switch.priority_inversions == 1

    def test_top_level_never_inverts(self):
        switch, _ = make_switch(policy=PriorityPolicy(4))
        switch._check_inversion(self.assignment(1))
        assert switch.priority_inversions == 0


class TestWallClock:
    def test_monotone_nonnegative(self):
        clock = WallClock()
        a = clock.now
        b = clock.now
        assert 0 <= a <= b

    def test_counters_increment(self):
        counters = Counters()
        counters.incr("x")
        counters.incr("x", 4)
        assert counters == {"x": 5}


class TestLiveSpec:
    def test_events_deterministic_in_seed(self):
        spec = LiveSpec(seed=42, rate_tps=2000, duration_s=0.1)
        first = spec.events(RngStreams(42))
        second = spec.events(RngStreams(42))
        assert first == second
        assert first != spec.events(RngStreams(43))

    def test_sim_config_mirrors_spec(self):
        spec = LiveSpec(executors=3, policy="priority", queue_capacity=128)
        config = spec.sim_config()
        assert config.workers == 3 and config.executors_per_worker == 1
        assert config.queue_capacity == 128
        assert isinstance(config.policy, PriorityPolicy)
        assert config.record_queue_delays and config.park_pulls

    def test_rejects_unknown_knobs(self):
        with pytest.raises(ConfigurationError):
            LiveSpec(policy="srpt").validate()
        with pytest.raises(ConfigurationError):
            LiveSpec(dist="uniform").validate()
        with pytest.raises(ConfigurationError):
            LiveSpec(mode="half-open").validate()


class TestBounceJitter:
    """Bounce-retry backoff jitter draws from the seeded RNG stream."""

    def bounce_delays(self, bounces, **kw):
        client = LiveClient(uid=1, **kw)
        delays = []

        def fire_at_once(delay_s, fn, *args):
            delays.append(delay_s)
            fn(*args)  # the re-send is what counts a retry

        client._timers.call_later = fire_at_once
        jid = client.submit([TaskSpec(duration_ns=1_000)])
        for _ in range(bounces):
            client._on_bounce(
                ErrorPacket(uid=1, jid=jid, tasks=[TaskInfo(tid=0)])
            )
        return delays

    def jittered(self, seed):
        return self.bounce_delays(
            6,
            config=replace(LIVE_CLIENT_CONFIG, bounce_jitter=0.2, max_retries=100),
            rng=np.random.default_rng(seed),
        )

    def test_same_seed_same_schedule(self):
        assert self.jittered(7) == self.jittered(7)
        assert self.jittered(7) != self.jittered(8)

    def test_jitter_bounded_around_exponential(self):
        for retries, delay in enumerate(self.jittered(7)):
            base = 0.001 * (1 << retries)
            assert base * 0.8 <= delay <= base * 1.2

    def test_no_rng_means_no_jitter(self):
        assert self.bounce_delays(3) == [0.001, 0.002, 0.004]


class TestUdpPort:
    """The drained socket under every live component (real loopback)."""

    @staticmethod
    def open_port(got, counters=None, **where):
        """A port appending ``(tag, payload)`` per datagram; also counts
        wakeups (the handler is fetched once per readiness callback)."""
        wakeups = []
        where = where or {"local_addr": ("127.0.0.1", 0)}

        def handler():
            wakeups.append(len(got))
            return lambda data, addr: got.append(bytes(data))

        port = UdpPort(handler, Counters() if counters is None else counters, **where)
        return port, wakeups

    def test_queued_datagrams_all_delivered_in_order_in_one_wakeup(self):
        async def scenario():
            got = []
            port, wakeups = self.open_port(got)
            sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            for i in range(10):  # loopback: queued before the loop polls
                sender.sendto(bytes([i]), port.get_extra_info("sockname"))
            await asyncio.sleep(0.05)
            sender.close()
            port.close()
            assert got == [bytes([i]) for i in range(10)]
            assert wakeups == [0]

        asyncio.run(scenario())

    def test_budget_lets_a_second_socket_in_before_the_tail(self):
        async def scenario():
            got = []
            busy, _ = self.open_port(got)
            other, _ = self.open_port(got)
            sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            flood = RECV_BUDGET + 5
            for i in range(flood):
                sender.sendto(b"busy%d" % i, busy.get_extra_info("sockname"))
            sender.sendto(b"other", other.get_extra_info("sockname"))
            await asyncio.sleep(0.05)
            sender.close()
            busy.close()
            other.close()
            # nothing lost, the busy socket's own order kept ...
            assert [d for d in got if d != b"other"] == [
                b"busy%d" % i for i in range(flood)
            ]
            # ... and the other socket served before the over-budget tail
            assert got.index(b"other") < got.index(b"busy%d" % RECV_BUDGET)

        asyncio.run(scenario())

    def test_send_errors_are_counted_not_raised(self):
        async def scenario():
            dead = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            dead.bind(("127.0.0.1", 0))
            nobody = dead.getsockname()
            dead.close()
            counters = Counters()
            port, _ = self.open_port([], counters, remote_addr=nobody)
            for _ in range(3):  # ICMP port-unreachable -> ECONNREFUSED
                port.sendto(b"x")
                await asyncio.sleep(0.01)
            assert counters["socket_errors"] >= 1
            assert not port.is_closing()

            real = port._sock

            class Full:  # a send buffer with no room left
                def send(self, data):
                    raise BlockingIOError

                def __getattr__(self, name):
                    return getattr(real, name)

            port._sock = Full()
            port.sendto(b"x")
            assert counters["send_drops"] == 1
            port.close()
            port.sendto(b"x")  # after close: dropped silently

        asyncio.run(scenario())

    def test_close_inside_handler_ends_the_batch_cleanly(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            errors = []
            loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
            got = []
            port = UdpPort(
                lambda: lambda data, addr: (got.append(bytes(data)), port.close()),
                Counters(),
                local_addr=("127.0.0.1", 0),
            )
            fd = port.get_extra_info("socket").fileno()
            sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            for i in range(5):
                sender.sendto(bytes([i]), port.get_extra_info("sockname"))
            await asyncio.sleep(0.05)
            sender.close()
            assert got == [b"\x00"] and port.is_closing()
            assert not errors
            assert not loop.remove_reader(fd)  # no reader left behind

        asyncio.run(scenario())


# -- end to end over real loopback sockets ------------------------------------


class TestEndToEnd:
    def test_open_loop_fcfs_conserves_tasks(self):
        result = run_live(
            LiveSpec(
                executors=2,
                rate_tps=400,
                duration_s=0.25,
                mean_us=100,
                drain_s=3.0,
                seed=7,
            )
        )
        assert result.conserved
        assert result.tasks_completed == result.tasks_submitted > 0
        assert result.e2e.count == result.tasks_completed
        assert result.priority_inversions == 0

    def test_open_loop_priority_no_inversions(self):
        result = run_live(
            LiveSpec(
                executors=2,
                policy="priority",
                rate_tps=400,
                duration_s=0.25,
                mean_us=100,
                drain_s=3.0,
                seed=7,
            )
        )
        assert result.conserved
        assert result.priority_inversions == 0
        assert result.tasks_completed == result.tasks_submitted > 0

    def test_closed_loop_noop_probe(self):
        result = run_live(
            LiveSpec(
                executors=2,
                mode="closed",
                dist="noop",
                duration_s=0.3,
                tasks_per_job=16,
                outstanding_jobs=4,
                max_outstanding=4,
                drain_s=3.0,
                seed=7,
            )
        )
        assert result.conserved
        assert result.tasks_completed > 0
        assert result.throughput_tps > 0
        # No-ops execute inline: the service histogram must be tight.
        assert result.service.count == result.tasks_completed


class TestResults:
    def make_result(self):
        e2e = LogHistogram()
        e2e.record(1000)
        return LiveResult(
            spec={"seed": 1},
            wall_s=1.0,
            tasks_submitted=1,
            tasks_completed=1,
            tasks_lost=0,
            duplicates=0,
            phantoms=0,
            resubmits=0,
            bounce_give_ups=0,
            timeout_give_ups=0,
            throughput_tps=1.0,
            priority_inversions=0,
            e2e=e2e,
            queue_delay=LogHistogram(),
            service=LogHistogram(),
        )

    def test_save_load_roundtrip(self, tmp_path):
        path = self.make_result().save(tmp_path / "live.json")
        payload = live_results.load_result(path)
        assert payload["schema"] == live_results.SCHEMA
        assert payload["tasks"]["completed"] == 1
        assert payload["end_to_end"]["count"] == 1

    def test_schema_mismatch_rejected(self, tmp_path):
        path = self.make_result().save(tmp_path / "live.json")
        with pytest.raises(ConfigurationError, match="schema"):
            persist.load_result(path)  # expects the simulator schema

    def test_conserved_property(self):
        result = self.make_result()
        assert result.conserved
        result.tasks_lost = 1
        assert not result.conserved

    def test_mean_queue_depth_littles_law(self):
        result = self.make_result()
        result.queue_delay.record(500_000_000)  # 0.5 s queued over 1 s wall
        assert result.mean_queue_depth() == pytest.approx(0.5, rel=0.3)


def test_executor_event_loop_integration():
    """A lone executor keeps re-registering until a switch appears."""

    async def scenario():
        switch = SoftSwitch()
        endpoint = await switch.start()
        from repro.live.executor import LiveExecutor

        executor = LiveExecutor(executor_id=3, switch=endpoint)
        try:
            await executor.start()
            await executor.wait_registered(2.0)
            assert executor.epoch == 1
            assert switch.executors[3].max_outstanding == 2
        finally:
            executor.close()
            switch.close()
            await asyncio.sleep(0)

    asyncio.run(scenario())


def test_teardown_leaves_no_pending_tasks():
    """aclose() cancels retry timers and awaits watchdogs: nothing may
    outlive the runtime (no "Task was destroyed but it is pending")."""

    async def scenario():
        from repro.live.executor import LiveExecutor

        switch = SoftSwitch()
        endpoint = await switch.start()
        executor = LiveExecutor(executor_id=1, switch=endpoint)
        client = LiveClient(
            uid=0, config=replace(LIVE_CLIENT_CONFIG, timeout_floor_ns=50_000_000)
        )
        await executor.start()
        await executor.wait_registered(2.0)
        await client.start(endpoint)
        client.submit([TaskSpec(duration_ns=50_000) for _ in range(4)])
        await client.drain(2.0)
        await client.aclose()
        await executor.aclose()
        switch.close()
        await asyncio.sleep(0)
        assert not client._timers and not executor._timers
        leftovers = asyncio.all_tasks() - {asyncio.current_task()}
        assert not leftovers, f"leaked tasks: {leftovers}"

    asyncio.run(scenario())
