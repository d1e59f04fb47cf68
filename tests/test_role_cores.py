"""The sans-IO role cores and their two drivers each.

* table-driven scripts straight into :class:`ClientCore` and
  :class:`ReplicaCore` — no simulator, no sockets, no sleeps;
* driver parity: one script through the simulator driver and through the
  wall-clock driver (fake transport, asyncio on a stepped clock) must
  emit the same messages in the same order;
* the two regressions the extraction fixed in the live drivers: the
  retry budget / loss deadline of the client, and the follower that
  applied deltas across a sync gap.
"""

import asyncio
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import Client, SubmitEvent, TaskSpec
from repro.cluster.client_core import (
    DONE,
    DUPLICATE,
    LATE,
    LIVE_CLIENT_CONFIG,
    STRAY,
    ClientConfig,
    ClientCore,
)
from repro.ctrl.replica_core import (
    LIVE_REPLICA_PARAMS,
    CtrlOpKind,
    ReplicaCore,
    ReplicaParams,
)
from repro.ctrl.replication import ReplicaController
from repro.errors import ConfigurationError
from repro.live.base import WallTimers
from repro.live.client import LiveClient
from repro.live.ctrlplane import LiveControllerReplica
from repro.metrics import MetricsCollector
from repro.net.host import Host
from repro.net.packet import Address, Packet
from repro.protocol import codec
from repro.protocol.messages import (
    Completion,
    ControllerSync,
    CtrlOp,
    ElectionAck,
    ElectionRequest,
    ErrorPacket,
    TaskInfo,
)
from repro.sim import Simulator

MS = 1_000_000


# -- ClientCore, table-driven ------------------------------------------------


def digest(result):
    """A core return value as plain data a table row can state."""
    if isinstance(result, tuple) and len(result) == 2:
        first, second = result
        if isinstance(first, int):  # submit -> (jid, packets)
            return first, [[t.tid for t in p.tasks] for p in second]
        return [(p.jid, [t.tid for t in p.tasks]) for p in first], second
    return result


def bounced(jid, *tids, hint=0):
    return ErrorPacket(
        uid=7, jid=jid, tasks=[TaskInfo(tid=t) for t in tids], backoff_hint_ns=hint
    )


SPEC = TaskSpec(duration_ns=10_000)
TIMED = dict(timeout_factor=2.0, timeout_floor_ns=50_000, timeout_backoff=2.0)

CLIENT_SCRIPTS = {
    "packetises at the cap and numbers jobs from zero": (
        dict(max_tasks_per_packet=2),
        [
            ("submit", (0, [SPEC] * 5), (0, [[0, 1], [2, 3], [4]])),
            ("submit", (5, [SPEC]), (1, [[0]])),
        ],
    ),
    "first completion wins; repeats and strangers are told apart": (
        {},
        [
            ("submit", (0, [SPEC] * 2), (0, [[0, 1]])),
            ("complete", ((7, 0, 1),), DONE),
            ("complete", ((7, 0, 1),), DUPLICATE),
            ("complete", ((7, 0, 2),), STRAY),  # tid the job never had
            ("complete", ((7, 3, 0),), STRAY),  # jid never allocated
            ("complete", ((8, 0, 0),), STRAY),  # another client's uid
        ],
    ),
    "a bounce is re-sent max_retries times, then given up once": (
        dict(max_retries=2, bounce_jitter=0.0),
        [
            ("submit", (0, [SPEC] * 2), (0, [[0, 1]])),
            ("complete", ((7, 0, 1),), DONE),  # bounced copies skip it
            ("bounce_delay_ns", (bounced(0, 0, 1),), 50_000),
            ("retry_bounced", (10, bounced(0, 0, 1)), ([(0, [0])], [])),
            ("bounce_delay_ns", (bounced(0, 0),), 100_000),  # doubled
            ("retry_bounced", (20, bounced(0, 0)), ([(0, [0])], [])),
            ("retry_bounced", (30, bounced(0, 0)), ([], [(7, 0, 0)])),
            ("retry_bounced", (40, bounced(0, 0)), ([], [])),  # told once
            ("complete", ((7, 0, 0),), LATE),  # a queued copy ran anyway
        ],
    ),
    "the bounce wait is capped and never under the switch's hint": (
        dict(bounce_backoff_max=1.5, bounce_jitter=0.0),
        [
            ("submit", (0, [SPEC]), (0, [[0]])),
            ("retry_bounced", (1, bounced(0, 0)), ([(0, [0])], [])),
            ("bounce_delay_ns", (bounced(0, 0),), 75_000),
            ("bounce_delay_ns", (bounced(0, 0, hint=900_000),), 900_000),
        ],
    ),
    "a deadline is armed at every send and backs off per retry": (
        dict(max_retries=2, **TIMED),
        [
            ("next_deadline", (), None),
            ("submit", (1_000, [SPEC]), (0, [[0]])),
            ("next_deadline", (), 51_000),  # the floor, from the send
            ("expire", (50_999,), ([], [])),
            ("expire", (51_000,), ([(0, [0])], [])),
            ("next_deadline", (), 151_000),  # 51_000 + 2 x 50_000
            ("expire", (160_000,), ([(0, [0])], [])),
            ("next_deadline", (), 360_000),  # 160_000 + 4 x 50_000
            ("expire", (360_000,), ([], [(7, 0, 0)])),
            ("next_deadline", (), None),
        ],
    ),
    "a completed task's deadline is discarded, not served": (
        dict(**TIMED),
        [
            ("submit", (0, [SPEC] * 2), (0, [[0, 1]])),
            ("complete", ((7, 0, 0),), DONE),
            ("expire", (50_000,), ([(0, [1])], [])),
            ("complete", ((7, 0, 1),), DONE),
            ("next_deadline", (), None),
        ],
    ),
    "bounces and timeouts draw on one budget": (
        dict(max_retries=2, bounce_jitter=0.0, **TIMED),
        [
            ("submit", (0, [SPEC]), (0, [[0]])),
            ("retry_bounced", (10_000, bounced(0, 0)), ([(0, [0])], [])),
            ("expire", (50_000,), ([(0, [0])], [])),  # the first send's
            ("expire", (110_000,), ([], [(7, 0, 0)])),  # the bounce's
        ],
    ),
}


@pytest.mark.parametrize("name", CLIENT_SCRIPTS)
def test_client_core_script(name):
    config, steps = CLIENT_SCRIPTS[name]
    core = ClientCore(7, ClientConfig(**config))
    for step, (method, args, expected) in enumerate(steps):
        assert digest(getattr(core, method)(*args)) == expected, (step, method)


def test_client_core_defers_to_the_drivers_running_evidence():
    core = ClientCore(7, ClientConfig(**TIMED))
    core.submit(0, [SPEC])
    asked = []

    def running(key, window_ns):
        asked.append((key, window_ns))
        return True

    assert core.expire(50_000, running) == ([], [])
    assert asked == [((7, 0, 0), 50_000)]
    assert core.next_deadline() == 100_000  # re-armed, no retry charged
    assert core.retries == {}


def test_client_core_jitter_is_the_rngs():
    def delays(seed):
        core = ClientCore(7, ClientConfig(), np.random.default_rng(seed))
        core.submit(0, [SPEC])
        return [core.bounce_delay_ns(bounced(0, 0)) for _ in range(8)]

    assert delays(1) == delays(1) != delays(2)
    assert all(40_000 <= d <= 60_000 for d in delays(1))


def test_client_core_heap_tracks_the_outstanding_set():
    """Deadlines of completed tasks must not pile up until a timer reads
    the top: compaction keeps the heap proportional to what is pending."""
    core = ClientCore(7, LIVE_CLIENT_CONFIG)
    for now in range(2_000):
        jid, _ = core.submit(now, [SPEC] * 4)
        for tid in range(4):
            assert core.complete((7, jid, tid)) == DONE
    assert len(core.deadlines) <= 2 * 64 + 8
    assert core.next_deadline() is None and core.deadlines == []


# -- ReplicaCore, table-driven ---------------------------------------------------


def ack(leader, term, granted, expires=10**9):
    return ElectionAck(
        leader_id=leader, term=term, granted=granted, expires_at_ns=expires
    )


def sync(leader, term, seq, snapshot=False):
    return ControllerSync(leader_id=leader, term=term, seq=seq, snapshot=snapshot)


#: (method, argument, returned, (role, term, known_term) afterwards)
REPLICA_SCRIPTS = {
    "a grant starts a tenure, its renewal does not restart it": [
        ("on_ack", ack(0, 1, True), "elected", ("leader", 1, 1)),
        ("on_ack", ack(0, 1, True), None, ("leader", 1, 1)),
        ("on_ack", ack(0, 3, True), "elected", ("leader", 3, 3)),
    ],
    "a denial naming a newer leader deposes; a stale grant is ignored": [
        ("on_ack", ack(0, 2, True), "elected", ("leader", 2, 2)),
        ("on_ack", ack(0, 1, True), None, ("leader", 2, 2)),
        ("on_ack", ack(1, 1, False), None, ("leader", 2, 2)),
        ("on_ack", ack(1, 3, False), "deposed", ("follower", 2, 3)),
        ("on_ack", ack(1, 4, False), None, ("follower", 2, 4)),
    ],
    "a newer-term sync deposes the leader; its own and stale ones do not": [
        ("on_ack", ack(0, 2, True), "elected", ("leader", 2, 2)),
        ("on_sync", sync(0, 2, 1, True), (False, False), ("leader", 2, 2)),
        ("on_sync", sync(1, 1, 1, True), (False, False), ("leader", 2, 2)),
        ("on_sync", sync(1, 3, 1, True), (True, True), ("follower", 2, 3)),
    ],
    "a follower applies nothing between a gap and the next snapshot": [
        ("on_sync", sync(1, 1, 2), (False, False), ("follower", 0, 1)),
        ("on_sync", sync(1, 1, 3, True), (False, True), ("follower", 0, 1)),
        ("on_sync", sync(1, 1, 4), (False, True), ("follower", 0, 1)),
        ("on_sync", sync(1, 1, 6), (False, False), ("follower", 0, 1)),
        ("on_sync", sync(1, 1, 7), (False, False), ("follower", 0, 1)),
        ("on_sync", sync(1, 1, 8, True), (False, True), ("follower", 0, 1)),
        ("on_sync", sync(1, 2, 1), (False, False), ("follower", 0, 2)),
    ],
}


@pytest.mark.parametrize("name", REPLICA_SCRIPTS)
def test_replica_core_script(name):
    core = ReplicaCore(0, ReplicaParams())
    for step, (method, message, returned, state) in enumerate(REPLICA_SCRIPTS[name]):
        assert getattr(core, method)(message) == returned, (step, method)
        assert (core.role, core.term, core.known_term) == state, step


def test_replica_core_request_cadence_and_lease_bound():
    params = ReplicaParams()
    core = ReplicaCore(2, params)
    assert core.first_request_delay_ns() == 1 + 2 * params.stagger_ns
    request, wait_ns = core.election_request(1_000)
    assert (request.candidate_id, request.term, request.lease_ns) == (
        2, 0, params.lease_ns
    )
    assert wait_ns == params.poll_ns  # a candidate polls
    core.on_ack(ack(2, 5, True, expires=1_000 + params.lease_ns + 7))
    # never past request-send time + lease, whatever the switch stamped
    assert core.is_leader(1_000 + params.lease_ns)
    assert not core.is_leader(1_000 + params.lease_ns + 1)
    request, wait_ns = core.election_request(2_000)
    assert request.term == 5  # a leader renews with its own term
    assert wait_ns == params.lease_ns - params.renew_margin_ns
    core.reset()
    assert (core.role, core.term, core.known_term) == ("follower", 0, 0)
    assert core.elections_won == 1  # lifetime counters survive a crash


def test_replica_core_flush_chunks_and_resnapshots():
    core = ReplicaCore(0, ReplicaParams(snapshot_every=3, journal_ops=4))
    core.on_ack(ack(0, 1, True))
    meta = CtrlOp(kind=int(CtrlOpKind.CKPT_META))
    full = lambda: ([CtrlOp(kind=int(CtrlOpKind.LEASE), a=1)], {})
    shapes = []
    for flush in range(1, 7):
        if flush == 5:  # five ops into a four-op journal: overflow
            for _ in range(5):
                core.record(CtrlOp(kind=int(CtrlOpKind.COMPLETE)))
        shapes.append([(m.seq, m.snapshot, len(m.ops)) for m in core.flush(full, meta)])
    assert shapes == [
        [(1, True, 2)],   # first of the tenure
        [(2, False, 1)],
        [(3, True, 2)],   # every third
        [(4, False, 1)],
        [(5, True, 2)],   # the overflowed journal is replaced, not sent
        [(6, True, 2)],
    ]
    many = lambda: ([CtrlOp(kind=int(CtrlOpKind.LEASE))] * 70, {})
    core._need_snapshot = True
    parts = core.flush(many, meta)
    assert [m.snapshot for m in parts] == [True] + [False] * (len(parts) - 1)
    assert [m.seq for m in parts] == list(range(7, 7 + len(parts)))
    assert sum(len(m.ops) for m in parts) == 71
    assert max(len(m.ops) for m in parts) <= codec.MAX_CTRL_OPS_PER_PACKET


@pytest.mark.parametrize(
    "bad",
    [
        dict(lease_ns=0),
        dict(poll_ns=0),
        dict(renew_margin_ns=10**9),
        dict(snapshot_every=0),
    ],
)
def test_replica_params_are_validated_once_for_both_drivers(bad):
    with pytest.raises(ConfigurationError):
        ReplicaParams(**bad)
    with pytest.raises(ConfigurationError):
        replace(LIVE_REPLICA_PARAMS, **bad)


# -- the two drivers of each core, on one script ------------------------------------


class VirtualLoop(asyncio.SelectorEventLoop):
    """asyncio on a stepped clock: where the loop would block waiting for
    its next timer, time() jumps there instead."""

    def __init__(self):
        super().__init__()
        self.virtual_s = 0.0
        loop, real = self, self._selector

        class Jump:
            def select(self, timeout=None):
                loop.virtual_s += timeout or 0.0
                return real.select(0)

            def __getattr__(self, name):
                return getattr(real, name)

        self._selector = Jump()

    def time(self):
        return self.virtual_s


class LoopClock:
    def __init__(self, loop):
        self.loop = loop

    @property
    def now(self):
        return round(self.loop.time() * 1e9)


class Tape:
    """A fake transport recording what a live component sends."""

    def __init__(self, clock, log):
        self.clock, self.log = clock, log

    def sendto(self, data, addr=None):
        self.log.append((self.clock.now, codec.decode(data)))

    def close(self):
        pass

    def is_closing(self):
        return False


def run_wall(scenario, until_ns):
    """Run ``scenario(loop, clock)`` then let virtual time pass."""
    loop = VirtualLoop()
    try:
        async def main():
            scenario(loop, LoopClock(loop))
            await asyncio.sleep(until_ns / 1e9)

        loop.run_until_complete(main())
    finally:
        loop.close()


def client_on_sim(config, submits, deliveries, until_ns):
    """The script through ``cluster.Client``; returns (log, client)."""
    sim = Simulator()
    log = []
    client = Client(
        sim,
        Host(sim, "client0"),
        uid=0,
        scheduler=Address("switch", 9000),
        workload=[SubmitEvent(t, tuple(specs)) for t, specs in submits],
        collector=MetricsCollector(),
        config=config,
    )
    client.socket.send = lambda dst, message, size: log.append((sim.now, message))
    for when, message in deliveries:
        packet = Packet(Address("switch", 9000), client.socket.address, message, 64)
        sim.call_at(when, client.host.receive, packet)
    sim.run(until=until_ns)
    return log, client


def client_on_wall(config, submits, deliveries, until_ns):
    """The same script through ``LiveClient``; returns (log, client)."""
    log, made = [], []

    def scenario(loop, clock):
        client = LiveClient(
            uid=0, config=config, clock=clock, rng=np.random.default_rng(100_000)
        )
        client.connection_made(Tape(clock, log))
        client._started = True  # start() minus the real socket
        for when, specs in submits:
            loop.call_later(when / 1e9, client.submit, specs)
        for when, message in deliveries:
            loop.call_later(
                when / 1e9, client.datagram_received, codec.encode(message), None
            )
        made.append(client)

    run_wall(scenario, until_ns)
    made[0].close()
    return log, made[0]


def test_client_drivers_emit_the_same_messages_in_the_same_order():
    config = ClientConfig(
        bounce_retry_ns=2 * MS,
        timeout_factor=2.0,
        timeout_floor_ns=20 * MS,
        timeout_backoff=1.5,
        max_retries=3,
        max_tasks_per_packet=3,
    )
    specs = [TaskSpec(duration_ns=1_000 * (i + 1), tprops=i) for i in range(5)]
    submits = [(0, specs), (7 * MS, specs[:2])]
    deliveries = [
        (3 * MS, ErrorPacket(uid=0, jid=0, tasks=[TaskInfo(tid=1), TaskInfo(tid=4)])),
        (5 * MS, Completion(uid=0, jid=0, tid=0)),
        (9 * MS, ErrorPacket(uid=0, jid=1, tasks=[TaskInfo(tid=0)], backoff_hint_ns=4 * MS)),
        (11 * MS, Completion(uid=0, jid=0, tid=4)),
        (31 * MS, Completion(uid=0, jid=1, tid=1)),
        (33 * MS, Completion(uid=0, jid=1, tid=1)),
    ]
    sim_log, sim_client = client_on_sim(config, submits, deliveries, 400 * MS)
    wall_log, wall_client = client_on_wall(config, submits, deliveries, 400 * MS)
    assert [m for _, m in sim_log] == [m for _, m in wall_log]
    assert len(sim_log) > 12  # submissions, bounce retries and resubmits
    # the wall log's times are the simulator's, to float rounding
    assert all(abs(a - b) <= 1_000 for (a, _), (b, _) in zip(sim_log, wall_log))
    # and the ledgers agree on how it ended
    assert sim_client.gave_up_keys() == wall_client.gave_up_keys() != set()
    assert sim_client.core.completed == wall_client.completed_count == 3
    assert wall_client.counters["duplicates"] == 1
    assert sim_client.stats.duplicate_completions == 1


@pytest.mark.parametrize("driver", [client_on_sim, client_on_wall])
def test_retry_budget_is_max_retries_resends_armed_at_each_send(driver):
    """Nothing ever answers except one bounce: the task is re-sent exactly
    ``max_retries`` times, every send arms its own loss deadline, and the
    bounce does not postpone the deadline of the send before it."""
    floor = 10 * MS
    config = replace(
        LIVE_CLIENT_CONFIG,
        bounce_retry_ns=1 * MS,
        bounce_jitter=0.0,
        timeout_floor_ns=floor,
        max_retries=3,
    )
    bounce = ErrorPacket(uid=0, jid=0, tasks=[TaskInfo(tid=0)])
    log, client = driver(
        config, [(0, [TaskSpec(duration_ns=1_000)])], [(4 * MS, bounce)], 10 * floor
    )
    sent_ms = [round(when / MS) for when, _ in log]
    # the submit, the bounce retry, then one resend per armed deadline:
    # the submit's (10 ms, not pushed back by the bounce), the retry's
    # (5 + 10 ms); the third deadline (20 ms) finds the budget spent
    assert sent_ms == [0, 5, 10, 15]
    assert client.gave_up_keys() == {(0, 0, 0)}
    assert all(m.tasks == log[0][1].tasks for _, m in log)


# -- replica drivers ---------------------------------------------------------------


class StubSwitch:
    service_address = Address("switch", 9000)

    def add_install_hook(self, hook):
        pass


class StubTopology:
    def __init__(self, sim):
        self.sim = sim

    def add_host(self, name):
        return Host(self.sim, name)


REPLICA_ACKS = [
    (0.15, ack(0, 1, True, expires=10**12)),
    (0.50, ack(0, 1, True, expires=10**12)),
    (1.30, ack(1, 2, False, expires=10**12)),
    (1.75, ack(0, 3, True, expires=10**12)),
]
"""(time in lease units, ack): elected, renewed, deposed, elected again."""


def headers(log):
    return [
        (m.term, m.seq, m.snapshot) if isinstance(m, ControllerSync)
        else ("request", m.candidate_id, m.term, m.lease_ns)
        for _, m in log
        if isinstance(m, (ControllerSync, ElectionRequest))
    ]


def replica_on_sim(params, until_ns):
    sim = Simulator()
    log = []
    replica = ReplicaController(
        sim, StubTopology(sim), switch=StubSwitch(), params=params,
        peers=[Address("ctrl1", 6500)],
    )
    replica.socket.send = lambda dst, message, size: log.append((sim.now, message))
    for at, message in REPLICA_ACKS:
        packet = Packet(StubSwitch.service_address, replica.address, message, 64)
        sim.call_at(int(at * params.lease_ns), replica.host.receive, packet)
    sim.run(until=until_ns)
    return log


def replica_on_wall(params, until_ns):
    log = []

    def scenario(loop, clock):
        replica = LiveControllerReplica(0, ("switch", 9000), clock, params)
        replica._timers = WallTimers(clock, loop)
        replica._transport = Tape(clock, log)
        replica.endpoint = ("ctrl0", 6500)
        replica.peer_resolver = lambda: [("ctrl0", 6500), ("ctrl1", 6500)]
        replica._timers.spawn(replica._election_loop())
        replica._timers.spawn(replica._sync_loop())
        for at, message in REPLICA_ACKS:
            loop.call_later(
                at * params.lease_ns / 1e9, replica._on_datagram,
                codec.encode(message), None,
            )
        loop.call_later(until_ns / 1e9 - 1e-6, replica.kill)

    run_wall(scenario, until_ns)
    return log


def test_replica_drivers_emit_the_same_election_and_sync_traffic():
    params = replace(LIVE_REPLICA_PARAMS, snapshot_every=3)
    until_ns = 3 * params.lease_ns
    sim_log = replica_on_sim(params, until_ns)
    wall_log = replica_on_wall(params, until_ns)
    assert headers(sim_log) == headers(wall_log)
    kinds = {h[0] for h in headers(sim_log)}
    assert kinds == {"request", 1, 3}  # candidacies, renewals, two tenures
    assert (1, 3, True) in headers(sim_log)  # the periodic re-snapshot


def test_live_follower_waits_for_a_snapshot_after_missing_the_first_sync():
    """Drop the first ControllerSync of a tenure: the follower must apply
    no delta until the leader's periodic snapshot arrives — and the
    leader must send one."""
    class Clock:
        now = 0

    params = replace(LIVE_REPLICA_PARAMS, snapshot_every=4)
    leader = LiveControllerReplica(0, ("switch", 1), Clock(), params)
    follower = LiveControllerReplica(1, ("switch", 1), Clock(), params)
    wire = []
    leader._transport = Tape(leader.clock, wire)
    leader.peer_resolver = lambda: [("ctrl1", 6500)]
    leader.core.on_ack(ack(0, 1, True))
    applied = []
    for flush in range(1, 6):
        leader._flush_sync()
        for _, message in wire:
            if flush > 1:  # the tenure's first snapshot is lost
                follower._on_datagram(codec.encode(message), None)
        wire.clear()
        applied.append((follower.core.sync_applied, dict(follower.ckpt_meta)))
    assert applied[:3] == [(0, {})] * 3  # deltas 2 and 3 are not applied
    meta = {"term": 1, "elections_won": 1}
    assert applied[3] == (1, {**meta, "flushes": 4})  # flush 4 re-snapshots
    assert applied[4] == (2, {**meta, "flushes": 5})  # and deltas flow again
    assert follower.core.sync_gaps == 0  # it was waiting, not gapped
