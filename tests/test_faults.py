"""The fault-injection subsystem (repro.faults) and scheduler hardening.

Covers the injection hooks layer by layer — link degradations, worker
crash/restart/slowdown, switch failover and recirculation exhaustion —
plus the hardening they motivated: parked-pull TTL expiry in the switch
scheduler, the client's timeout-heap drain, and duplicate suppression in
the metrics collector.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import Client, ClientConfig, SubmitEvent, TaskSpec, Worker, WorkerSpec
from repro.core import DraconisProgram
from repro.errors import ConfigurationError
from repro.live.base import WallTimers
from repro.faults import (
    ControllerCrash,
    Degradation,
    FaultInjector,
    FaultPlan,
    LinkFault,
    Partition,
    RecircExhaustion,
    SimTargets,
    SwitchFailover,
    WorkerCrash,
    WorkerSlowdown,
    chaos_for,
    event_end,
    event_start,
)
from repro.metrics import MetricsCollector, summarize_links
from repro.net import Address, StarTopology
from repro.net.link import Link, LinkFaultHook
from repro.net.packet import Packet
from repro.sim import Simulator, ms, us
from repro.switchsim import ProgrammableSwitch


def build_cluster(
    workers=2,
    executors=2,
    park_pulls=False,
    timeout_factor=None,
    tasks=20,
    gap_us=60,
    duration_us=100,
):
    sim = Simulator()
    program = DraconisProgram(queue_capacity=512, park_pulls=park_pulls)
    switch = ProgrammableSwitch(sim, program)
    topology = StarTopology(sim, switch)
    collector = MetricsCollector()
    worker_objs = [
        Worker(
            sim,
            topology,
            WorkerSpec(node_id=n, executors=executors),
            scheduler=switch.service_address,
            collector=collector,
            executor_id_base=n * executors,
        )
        for n in range(workers)
    ]
    events = [
        SubmitEvent(
            time_ns=us(i * gap_us), tasks=(TaskSpec(duration_ns=us(duration_us)),)
        )
        for i in range(tasks)
    ]
    client = Client(
        sim,
        topology.add_host("client0"),
        uid=0,
        scheduler=switch.service_address,
        workload=events,
        collector=collector,
        config=ClientConfig(timeout_factor=timeout_factor),
    )
    return SimpleNamespace(
        sim=sim,
        program=program,
        switch=switch,
        topology=topology,
        collector=collector,
        workers=worker_objs,
        client=client,
        tasks=tasks,
    )


def sim_targets(cluster, **kwargs):
    return SimTargets(
        cluster.sim, cluster.topology, workers=cluster.workers, **kwargs
    )


class TestPlanValidation:
    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan([LinkFault(start_ns=0, end_ns=1000, loss_prob=1.5)])

    def test_empty_partition_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan([Partition(start_ns=0, end_ns=1000)])

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan([Partition(start_ns=500, end_ns=500, nodes=("w0",))])

    def test_non_event_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(["definitely not a fault"])

    def test_events_sorted_by_start(self):
        plan = FaultPlan(
            [
                SwitchFailover(at_ns=9000),
                WorkerCrash(at_ns=100, node_id=0),
                Partition(start_ns=4000, end_ns=5000, nodes=("w0",)),
            ]
        )
        assert [event_start(e) for e in plan] == [100, 4000, 9000]

    def test_event_end_covers_restart(self):
        crash = WorkerCrash(at_ns=100, node_id=0, restart_after_ns=500)
        assert event_end(crash) == 600
        assert event_end(SwitchFailover(at_ns=100)) == 100

    def test_randomized_is_seed_reproducible(self):
        a = FaultPlan.randomized(
            np.random.default_rng(7), ms(30), worker_nodes=[0, 1, 2]
        )
        b = FaultPlan.randomized(
            np.random.default_rng(7), ms(30), worker_nodes=[0, 1, 2]
        )
        assert a.describe() == b.describe()
        assert len(a) > 0

    def test_randomized_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.randomized(
                np.random.default_rng(0), ms(30), worker_nodes=[0], kind="meteor"
            )

    def test_randomized_needs_workers(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.randomized(np.random.default_rng(0), ms(30), worker_nodes=[])


def make_link(sim):
    received = []
    link = Link(sim, "test-link", lambda pkt: received.append((sim.now, pkt)))
    return link, received


def make_packet(payload="data", size=100):
    return Packet(
        src=Address("a", 1), dst=Address("b", 2), payload=payload, size=size
    )


class TestLinkInjection:
    def test_injected_drop_counts_in_both_counters(self):
        sim = Simulator()
        link, received = make_link(sim)
        chaos = chaos_for(link, sim, rng=np.random.default_rng(0))
        deg = chaos.add(Degradation(loss_prob=1.0))
        assert link.send(make_packet()) is False
        sim.run()
        assert received == []
        assert link.injected_drops == 1
        assert link.packets_dropped == 1  # tx = rx + drops stays coherent
        assert deg.drops == 1

    def test_duplicate_delivers_distinct_packet_object(self):
        sim = Simulator()
        link, received = make_link(sim)
        chaos_for(link, sim).add(Degradation(duplicate_prob=1.0))
        original = make_packet()
        assert link.send(original) is True
        sim.run()
        assert len(received) == 2
        first, second = received[0][1], received[1][1]
        assert first is original and second is not original
        assert second.pkt_id == first.pkt_id  # same datagram, re-emitted
        assert received[1][0] > received[0][0]
        assert link.injected_dups == 1

    def test_delay_defers_arrival(self):
        sim = Simulator()
        link, received = make_link(sim)
        chaos_for(link, sim, rng=np.random.default_rng(3)).add(
            Degradation(reorder_prob=1.0, reorder_jitter_ns=50_000)
        )
        packet = make_packet()
        base = link.serialization_ns(packet.size) + link.propagation_ns
        link.send(packet)
        sim.run()
        assert link.injected_delays == 1
        assert received[0][0] > base

    def test_match_predicate_targets_traffic(self):
        sim = Simulator()
        link, received = make_link(sim)
        chaos_for(link, sim).add(
            Degradation(loss_prob=1.0, match=lambda pkt: pkt.payload == "kill")
        )
        assert link.send(make_packet("keep")) is True
        assert link.send(make_packet("kill")) is False
        sim.run()
        assert [pkt.payload for _, pkt in received] == ["keep"]

    def test_removed_degradation_stops_acting(self):
        sim = Simulator()
        link, received = make_link(sim)
        chaos = chaos_for(link, sim)
        deg = chaos.add(Degradation(loss_prob=1.0))
        chaos.remove(deg)
        assert link.send(make_packet()) is True
        sim.run()
        assert len(received) == 1
        assert link.injected_drops == 0

    def test_chaos_for_is_idempotent_but_refuses_foreign_hooks(self):
        sim = Simulator()
        link, _ = make_link(sim)
        chaos = chaos_for(link, sim)
        assert chaos_for(link, sim) is chaos

        class OtherHook(LinkFaultHook):
            def on_send(self, link, packet):
                return None

        link2, _ = make_link(sim)
        link2.fault_hook = OtherHook()
        with pytest.raises(TypeError):
            chaos_for(link2, sim)


class TestWorkerFaults:
    def test_crash_stops_pulling_and_is_idempotent(self):
        cluster = build_cluster(workers=1, tasks=0)
        cluster.sim.run(until=ms(1))
        worker = cluster.workers[0]
        worker.crash()
        worker.crash()  # idempotent
        worker.stop()  # stop after crash is harmless
        assert worker.crashed
        requests_at_crash = sum(
            e.stats.requests_sent for e in worker.executors
        )
        cluster.sim.run(until=ms(3))
        assert (
            sum(e.stats.requests_sent for e in worker.executors)
            == requests_at_crash
        )

    def test_restart_resumes_pulling(self):
        cluster = build_cluster(workers=1, tasks=0)
        worker = cluster.workers[0]
        cluster.sim.run(until=ms(1))
        worker.crash()
        cluster.sim.run(until=ms(2))
        frozen = sum(e.stats.requests_sent for e in worker.executors)
        worker.restart()
        worker.restart()  # idempotent on a live worker
        assert not worker.crashed
        cluster.sim.run(until=ms(3))
        assert sum(e.stats.requests_sent for e in worker.executors) > frozen

    def test_crash_without_restart_recovered_by_other_worker(self):
        cluster = build_cluster(workers=2, timeout_factor=4.0)
        cluster.sim.call_at(us(200), cluster.workers[0].crash)
        cluster.sim.run(until=ms(40))
        assert cluster.client.stats.tasks_completed == cluster.tasks
        assert cluster.collector.completed_count() == cluster.tasks

    def test_slowdown_scales_execution_time(self):
        cluster = build_cluster(workers=1, executors=1, tasks=1)
        worker = cluster.workers[0]
        worker.set_speed_factor(3.0)
        assert all(e.speed_factor == 3.0 for e in worker.executors)
        cluster.sim.run(until=ms(5))
        busy = worker.executors[0].stats.busy_time_ns
        assert busy == 3 * us(100)
        with pytest.raises(ValueError):
            worker.set_speed_factor(0)


class TestInjectorAndSwitch:
    def test_failover_requires_program_factory(self):
        cluster = build_cluster(tasks=0)
        plan = FaultPlan([SwitchFailover(at_ns=us(10))])
        injector = FaultInjector(cluster.sim, plan, sim_targets(cluster))
        with pytest.raises(ConfigurationError):
            injector.arm()

    def test_failover_swaps_program_and_loses_queue_state(self):
        cluster = build_cluster(tasks=0)
        old = cluster.program
        fresh = DraconisProgram(queue_capacity=512)
        returned = cluster.switch.install_program(fresh)
        assert returned is old
        assert cluster.switch.program is fresh
        assert cluster.switch.stats.failovers == 1
        assert fresh.total_queued() == 0

    def test_failover_mid_run_recovers_via_resubmission(self):
        cluster = build_cluster(workers=2, timeout_factor=4.0)
        plan = FaultPlan([SwitchFailover(at_ns=us(300))])
        FaultInjector(
            cluster.sim,
            plan,
            sim_targets(
                cluster,
                program_factory=lambda: DraconisProgram(queue_capacity=512),
            ),
        ).arm()
        cluster.sim.run(until=ms(40))
        assert cluster.switch.stats.failovers == 1
        assert cluster.client.stats.tasks_completed == cluster.tasks

    def test_partition_heals_and_tasks_survive(self):
        cluster = build_cluster(workers=2, timeout_factor=4.0)
        plan = FaultPlan(
            [Partition(start_ns=us(200), end_ns=us(700), nodes=("worker0",))]
        )
        injector = FaultInjector(
            cluster.sim, plan, sim_targets(cluster)
        ).arm()
        cluster.sim.run(until=ms(40))
        totals = injector.injected_totals()
        assert totals["injected_drops"] > 0
        assert cluster.client.stats.tasks_completed == cluster.tasks

    def test_recirc_limit_is_restored_after_window(self):
        cluster = build_cluster(tasks=0)
        before = cluster.switch.recirc_queue_packets
        plan = FaultPlan(
            [RecircExhaustion(start_ns=us(100), end_ns=us(500), queue_packets=0)]
        )
        FaultInjector(cluster.sim, plan, sim_targets(cluster)).arm()
        cluster.sim.run(until=us(300))
        assert cluster.switch.recirc_queue_packets == 0
        cluster.sim.run(until=ms(1))
        assert cluster.switch.recirc_queue_packets == before

    def test_overlapping_recirc_windows_restore_baseline(self):
        # Chaos-fuzzer regression (seed 42): per-event save/restore
        # pairs unwound in open order, so the later-closing window
        # "restored" the limit the first window had set.
        cluster = build_cluster(tasks=0)
        before = cluster.switch.recirc_queue_packets
        plan = FaultPlan(
            [
                RecircExhaustion(start_ns=us(100), end_ns=us(500), queue_packets=2),
                RecircExhaustion(start_ns=us(300), end_ns=us(700), queue_packets=1),
            ]
        )
        FaultInjector(cluster.sim, plan, sim_targets(cluster)).arm()
        cluster.sim.run(until=us(400))
        assert cluster.switch.recirc_queue_packets == 1
        cluster.sim.run(until=us(600))
        # inner window closed, outer still open: stay exhausted
        assert cluster.switch.recirc_queue_packets == 1
        cluster.sim.run(until=ms(1))
        assert cluster.switch.recirc_queue_packets == before

    def test_unknown_worker_node_rejected(self):
        cluster = build_cluster(workers=1, tasks=0)
        plan = FaultPlan([WorkerCrash(at_ns=us(10), node_id=99)])
        injector = FaultInjector(cluster.sim, plan, sim_targets(cluster))
        with pytest.raises(ConfigurationError):
            injector.arm()

    def test_unknown_host_name_rejected(self):
        cluster = build_cluster(workers=1, tasks=0)
        plan = FaultPlan(
            [Partition(start_ns=0, end_ns=1000, nodes=("ghost-host",))]
        )
        injector = FaultInjector(cluster.sim, plan, sim_targets(cluster))
        with pytest.raises(ConfigurationError):
            injector.arm()

    def test_arm_is_idempotent(self):
        cluster = build_cluster(workers=1, tasks=0)
        plan = FaultPlan([WorkerCrash(at_ns=us(10), node_id=0)])
        injector = FaultInjector(cluster.sim, plan, sim_targets(cluster))
        injector.arm()
        injector.arm()
        cluster.sim.run(until=ms(1))
        assert injector.stats.worker_crashes == 1


class RecordingTargets:
    """Fake *targets*: logs every action with the driver time it fired."""

    def __init__(self, driver):
        self.driver = driver
        self.log = []
        self.down = set()
        self.speed = {}
        self.recirc_limit = 16
        self.program = 0
        self.ctrl_down = set()

    def _note(self, action, target):
        self.log.append((self.driver.now, action, target))

    def check(self, event):
        return True

    def crash(self, node_id):
        self._note("crash", node_id)
        self.down.add(node_id)

    def restart(self, node_id):
        self._note("restart", node_id)
        self.down.discard(node_id)

    def set_speed(self, node_id, factor):
        self._note("set_speed", (node_id, factor))
        self.speed[node_id] = factor

    def failover(self):
        self._note("failover", None)
        self.program += 1

    def ctrl_crash(self, replica_id):
        self._note("ctrl_crash", replica_id)
        self.ctrl_down.add(replica_id)

    def ctrl_restart(self, replica_id):
        self._note("ctrl_restart", replica_id)
        self.ctrl_down.discard(replica_id)

    def set_recirc_limit(self, queue_packets):
        self._note("set_recirc_limit", queue_packets)
        previous, self.recirc_limit = self.recirc_limit, queue_packets
        return previous

    def wire(self, event):
        return None

    def final_state(self):
        return (
            self.down,
            self.speed,
            self.recirc_limit,
            self.program,
            self.ctrl_down,
        )


class FakeHandle:
    def __init__(self, when, callback):
        self.when = when
        self.callback = callback
        self.dead = False

    def cancel(self):
        self.dead = True

    def cancelled(self):
        return self.dead


class FakeLoop:
    """``loop.call_later`` on a virtual clock (FIFO among equal deadlines)
    that doubles as the ``clock.now`` nanosecond reading."""

    def __init__(self):
        self.now_s = 0.0
        self._timers = []

    @property
    def now(self):
        return round(self.now_s * 1e9)

    def call_later(self, delay_s, callback):
        handle = FakeHandle(self.now_s + delay_s, callback)
        self._timers.append(handle)
        return handle

    def run(self):
        while self._timers:
            handle = min(self._timers, key=lambda h: h.when)
            self._timers.remove(handle)
            if not handle.dead:
                self.now_s = handle.when
                handle.callback()


class TestInjectorParity:
    """One injector, two clocks: the same plan must produce the same
    ordered actions and the same restored state under the simulator and
    under the asyncio driver."""

    PLAN = FaultPlan(
        [
            WorkerCrash(at_ns=ms(2), node_id=0, restart_after_ns=ms(3)),
            WorkerSlowdown(start_ns=ms(1), end_ns=ms(6), node_id=1, factor=3.0),
            WorkerSlowdown(start_ns=ms(4), end_ns=ms(8), node_id=1, factor=5.0),
            RecircExhaustion(start_ns=ms(1), end_ns=ms(5), queue_packets=2),
            RecircExhaustion(start_ns=ms(3), end_ns=ms(7), queue_packets=1),
            SwitchFailover(at_ns=ms(4)),
            ControllerCrash(at_ns=ms(5), replica_id=0, restart_after_ns=None),
            WorkerCrash(at_ns=ms(9), node_id=2, restart_after_ns=None),
        ]
    )

    def run_sim(self):
        sim = Simulator()
        targets = RecordingTargets(sim)
        injector = FaultInjector(sim, self.PLAN, targets).arm()
        sim.run()
        return targets, injector

    def run_wall(self):
        loop = FakeLoop()
        timers = WallTimers(loop, loop=loop)
        targets = RecordingTargets(timers)
        injector = FaultInjector(timers, self.PLAN, targets).arm()
        assert not timers.idle()
        loop.run()
        assert timers.idle()
        return targets, injector

    def test_same_actions_same_order_same_final_state(self):
        on_sim, sim_injector = self.run_sim()
        on_wall, wall_injector = self.run_wall()
        assert on_sim.log == on_wall.log
        assert on_sim.final_state() == on_wall.final_state()
        assert sim_injector.stats == wall_injector.stats
        # and the state the shared logic is responsible for restoring
        assert on_sim.speed == {1: 1.0}
        assert on_sim.recirc_limit == 16  # the shared baseline
        assert on_sim.down == {2}
        assert on_sim.ctrl_down == {0}
        assert [action for _, action, _ in on_sim.log].count(
            "set_recirc_limit"
        ) == 3  # two exhaustions, one restore to the baseline

    def test_unsupported_events_are_counted_not_scheduled(self):
        sim = Simulator()
        targets = RecordingTargets(sim)
        targets.check = lambda event: not isinstance(event, RecircExhaustion)
        injector = FaultInjector(sim, self.PLAN, targets).arm()
        sim.run()
        assert injector.stats.unsupported_events == 2
        assert injector.stats.recirc_exhaustions == 0
        assert targets.recirc_limit == 16


class TestPullParking:
    def test_parked_pull_woken_by_submission(self):
        cluster = build_cluster(park_pulls=True, timeout_factor=4.0)
        cluster.sim.run(until=ms(20))
        stats = cluster.program.sched_stats
        assert stats.pulls_parked > 0
        assert stats.parked_wakeups > 0
        assert cluster.client.stats.tasks_completed == cluster.tasks
        assert cluster.program.parked_pull_count() <= 4

    def test_stale_parked_pulls_from_crashed_worker_expire(self):
        cluster = build_cluster(
            park_pulls=True, timeout_factor=4.0, tasks=0
        )
        # Let every executor park an empty-queue pull, then crash one
        # worker: its parked entries go stale and must be garbage
        # collected, not handed the next task.
        cluster.sim.run(until=us(80))
        cluster.workers[0].crash()
        cluster.sim.run(until=us(600))  # > pull TTL (200us)
        submit = SubmitEvent(
            time_ns=0, tasks=(TaskSpec(duration_ns=us(50)),)
        )
        extra = Client(
            cluster.sim,
            cluster.topology.add_host("client9"),
            uid=9,
            scheduler=cluster.switch.service_address,
            workload=[submit],
            collector=cluster.collector,
            config=ClientConfig(timeout_factor=4.0),
        )
        cluster.sim.run(until=ms(10))
        assert cluster.program.sched_stats.pulls_expired > 0
        assert extra.stats.tasks_completed == 1

    def test_parking_disabled_by_default(self):
        cluster = build_cluster(tasks=0)
        cluster.sim.run(until=ms(2))
        assert cluster.program.sched_stats.pulls_parked == 0
        assert cluster.program.parked_pull_count() == 0


class TestClientHardening:
    def test_timeout_heap_drains_after_completions(self):
        cluster = build_cluster(timeout_factor=3.0)
        cluster.sim.run(until=ms(30))
        assert cluster.client.stats.tasks_completed == cluster.tasks
        # Lazy discard: once every task completed and the last deadline
        # passed, no stale entries linger.
        assert cluster.client.core.deadlines == []
        assert cluster.client.stats.timeouts == 0

    def test_crashed_executor_mid_task_does_not_lose_the_task(self):
        # started_at is set but the executor dies before finishing; the
        # grace window expires and the client resubmits elsewhere.
        cluster = build_cluster(workers=2, timeout_factor=3.0)
        cluster.sim.call_at(us(350), cluster.workers[0].crash)
        cluster.sim.run(until=ms(40))
        assert cluster.client.stats.tasks_completed == cluster.tasks


class TestMetricsDuplicates:
    def test_first_report_wins_and_duplicates_counted(self):
        collector = MetricsCollector()
        key = (0, 0, 0)
        collector.on_submit(key, 10)
        collector.on_assign(key, 20, executor_id=1, node_id=0)
        collector.on_assign(key, 25, executor_id=2, node_id=1)
        collector.on_finish(key, 30)
        collector.on_finish(key, 35)
        collector.on_complete(key, 40)
        collector.on_complete(key, 45)
        record = collector.records[key]
        assert record.executor_id == 1
        assert record.finished_at == 30
        assert record.completed_at == 40
        assert collector.duplicate_assignments == 1
        assert collector.duplicate_finishes == 1
        assert collector.duplicate_completions == 1

    def test_summarize_links_aggregates_counters(self):
        links = [
            SimpleNamespace(
                packets_sent=10,
                packets_dropped=3,
                injected_drops=2,
                injected_dups=1,
                injected_delays=4,
            ),
            SimpleNamespace(
                packets_sent=5,
                packets_dropped=0,
                injected_drops=0,
                injected_dups=0,
                injected_delays=0,
            ),
        ]
        summary = summarize_links(links)
        assert summary.links == 2
        assert summary.packets_sent == 15
        assert summary.packets_dropped == 3
        assert summary.injected_total == 7
        assert 0 < summary.loss_fraction < 1
        assert "sent=" in summary.row()
