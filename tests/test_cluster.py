"""Integration tests for the cluster runtime: executors, workers, clients
against a real Draconis switch (paper §3)."""

import pytest

from repro.cluster import (
    Client,
    ClientConfig,
    SubmitEvent,
    TaskSpec,
    Worker,
    WorkerSpec,
    decode_duration,
    encode_duration,
)
from repro.cluster.task import FN_NOOP
from repro.core import DraconisProgram, FcfsPolicy
from repro.metrics import MetricsCollector
from repro.net import StarTopology
from repro.sim import Simulator, ms, us
from repro.switchsim import ProgrammableSwitch


def build(sim=None, queue_capacity=1024, workers=2, executors=4, **program_kw):
    sim = sim or Simulator()
    program = DraconisProgram(queue_capacity=queue_capacity, **program_kw)
    switch = ProgrammableSwitch(sim, program)
    topo = StarTopology(sim, switch)
    collector = MetricsCollector()
    worker_objs = [
        Worker(
            sim,
            topo,
            WorkerSpec(node_id=i, executors=executors),
            scheduler=switch.service_address,
            collector=collector,
            executor_id_base=i * executors,
        )
        for i in range(workers)
    ]
    return sim, topo, switch, program, collector, worker_objs


def make_client(sim, topo, switch, collector, events, **config_kw):
    host = topo.add_host("client0")
    return Client(
        sim,
        host,
        uid=0,
        scheduler=switch.service_address,
        workload=events,
        collector=collector,
        config=ClientConfig(**config_kw),
    )


class TestDurationCodec:
    def test_roundtrip(self):
        assert decode_duration(encode_duration(123_456)) == 123_456

    def test_empty_par_is_zero(self):
        assert decode_duration(b"") == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_duration(-1)


class TestSubmitEvent:
    def test_requires_tasks(self):
        with pytest.raises(ValueError):
            SubmitEvent(time_ns=0, tasks=())

    def test_count(self):
        event = SubmitEvent(
            time_ns=0, tasks=(TaskSpec(duration_ns=1), TaskSpec(duration_ns=2))
        )
        assert event.count == 2


class TestEndToEnd:
    def test_every_task_completes_exactly_once(self):
        sim, topo, switch, program, collector, _ = build()
        events = [
            SubmitEvent(time_ns=us(i * 50), tasks=(TaskSpec(duration_ns=us(100)),))
            for i in range(50)
        ]
        client = make_client(sim, topo, switch, collector, events)
        sim.run(until=ms(20))
        assert client.stats.tasks_submitted == 50
        assert client.stats.tasks_completed == 50
        assert collector.completed_count() == 50
        program.check_invariants()

    def test_scheduling_delay_is_microsecond_scale_at_low_load(self):
        sim, topo, switch, program, collector, _ = build()
        events = [
            SubmitEvent(time_ns=us(i * 200), tasks=(TaskSpec(duration_ns=us(100)),))
            for i in range(30)
        ]
        make_client(sim, topo, switch, collector, events)
        sim.run(until=ms(20))
        delays = collector.scheduling_delays()
        assert len(delays) == 30
        assert max(delays) < us(120)  # well under one task time

    def test_batch_submission(self):
        sim, topo, switch, program, collector, _ = build()
        events = [
            SubmitEvent(
                time_ns=0,
                tasks=tuple(TaskSpec(duration_ns=us(50)) for _ in range(40)),
            )
        ]
        client = make_client(sim, topo, switch, collector, events)
        sim.run(until=ms(10))
        # 40 tasks split across two job_submission packets (32-task cap)
        assert client.stats.packets_sent >= 2
        assert client.stats.tasks_completed == 40

    def test_noop_tasks_complete_instantly(self):
        sim, topo, switch, program, collector, workers = build()
        events = [
            SubmitEvent(
                time_ns=0,
                tasks=tuple(
                    TaskSpec(duration_ns=0, fn_id=FN_NOOP) for _ in range(8)
                ),
            )
        ]
        make_client(sim, topo, switch, collector, events)
        sim.run(until=ms(2))
        assert collector.completed_count() == 8
        total_busy = sum(
            e.stats.busy_time_ns for w in workers for e in w.executors
        )
        assert total_busy == 0

    def test_executors_pull_work_across_nodes(self):
        """Pull model: with enough offered work every node participates."""
        sim, topo, switch, program, collector, workers = build(
            workers=3, executors=2
        )
        events = [
            SubmitEvent(
                time_ns=0,
                tasks=tuple(TaskSpec(duration_ns=us(500)) for _ in range(18)),
            )
        ]
        make_client(sim, topo, switch, collector, events)
        sim.run(until=ms(10))
        per_node = [w.tasks_executed() for w in workers]
        assert sum(per_node) == 18
        assert all(count > 0 for count in per_node)

    def test_queue_full_bounce_retry_eventually_completes(self):
        sim, topo, switch, program, collector, _ = build(queue_capacity=4)
        events = [
            SubmitEvent(
                time_ns=0,
                tasks=tuple(TaskSpec(duration_ns=us(200)) for _ in range(32)),
            )
        ]
        client = make_client(sim, topo, switch, collector, events)
        sim.run(until=ms(40))
        assert client.stats.tasks_completed == 32
        assert client.stats.bounces > 0  # the tiny queue really bounced

    def test_client_timeout_resubmits_unstarted_tasks(self):
        """A task silently dropped before execution is resubmitted."""
        sim, topo, switch, program, collector, _ = build()
        events = [
            SubmitEvent(time_ns=0, tasks=(TaskSpec(duration_ns=us(100)),))
        ]
        client = make_client(
            sim, topo, switch, collector, events, timeout_factor=2.0
        )
        # Sabotage: steal the task out of the switch queue before any
        # executor pulls it (simulating a loss).
        def sabotage():
            queue = program.queues[0]
            for i in range(queue.capacity):
                if queue.slots.cp_read(i) is not None:
                    queue.slots.cp_write(i, None)
        sim.call_in(us(3), sabotage)
        sim.run(until=ms(5))
        assert client.stats.timeouts >= 1
        assert client.stats.tasks_completed == 1

    def test_worker_busy_fraction(self):
        sim, topo, switch, program, collector, workers = build(
            workers=1, executors=2
        )
        events = [
            SubmitEvent(
                time_ns=0,
                tasks=(TaskSpec(duration_ns=ms(1)), TaskSpec(duration_ns=ms(1))),
            )
        ]
        make_client(sim, topo, switch, collector, events)
        sim.run(until=ms(2))
        assert workers[0].busy_fraction(sim.now) == pytest.approx(0.5, abs=0.1)


class TestExecutorBehaviour:
    def test_idle_executors_poll_with_backoff(self):
        sim, topo, switch, program, collector, workers = build(
            workers=1, executors=1
        )
        sim.run(until=ms(5))
        executor = workers[0].executors[0]
        assert executor.stats.noops_received > 2
        # with backoff the poll count is far below 5 ms / 25 us = 200
        assert executor.stats.requests_sent < 100

    def test_executor_records_assignment_metrics(self):
        sim, topo, switch, program, collector, _ = build()
        events = [SubmitEvent(time_ns=0, tasks=(TaskSpec(duration_ns=us(100)),))]
        make_client(sim, topo, switch, collector, events)
        sim.run(until=ms(5))
        record = next(iter(collector.records.values()))
        assert record.assigned_at >= 0
        assert record.started_at == record.assigned_at
        assert record.finished_at == record.started_at + us(100)
        assert record.executor_id >= 0


class TestBounceBackoff:
    """The error_packet retry path: capped exponential backoff with jitter,
    a shared retry budget, and no retry-state leaks."""

    def _client(self, **config_kw):
        sim, topo, switch, program, collector, _ = build()
        return make_client(sim, topo, switch, collector, [], **config_kw)

    def _error(self, client, tids, hint_ns=0):
        from repro.protocol.messages import ErrorPacket, TaskInfo

        for tid in tids:
            client.core.outstanding[(0, 0, tid)] = TaskInfo(tid=tid)
        return ErrorPacket(
            uid=0,
            jid=0,
            tasks=[TaskInfo(tid=t) for t in tids],
            backoff_hint_ns=hint_ns,
        )

    def test_bounce_delay_grows_exponentially_and_caps(self):
        client = self._client(
            bounce_retry_ns=us(50),
            bounce_backoff=2.0,
            bounce_backoff_max=8.0,
            bounce_jitter=0.0,
        )
        error = self._error(client, [0])
        assert client.core.bounce_delay_ns(error) == us(50)
        client.core.retries[(0, 0, 0)] = 2
        assert client.core.bounce_delay_ns(error) == us(200)
        client.core.retries[(0, 0, 0)] = 10  # far past the cap
        assert client.core.bounce_delay_ns(error) == us(400)

    def test_bounce_delay_honours_backpressure_hint(self):
        client = self._client(bounce_retry_ns=us(50), bounce_jitter=0.0)
        error = self._error(client, [0], hint_ns=us(900))
        # degraded-mode hint overrides the (smaller) local backoff
        assert client.core.bounce_delay_ns(error) == us(900)

    def test_bounce_delay_jitter_desynchronizes(self):
        client = self._client(bounce_retry_ns=us(50), bounce_jitter=0.2)
        error = self._error(client, [0])
        delays = {client.core.bounce_delay_ns(error) for _ in range(32)}
        assert len(delays) > 1  # not a fixed wait
        assert all(us(40) <= d <= us(60) for d in delays)

    def test_retry_state_pruned_on_completion(self):
        """The shared retry ledger must not leak one entry per bounced
        task for the lifetime of the client."""
        sim, topo, switch, program, collector, _ = build(queue_capacity=4)
        events = [
            SubmitEvent(
                time_ns=0,
                tasks=tuple(TaskSpec(duration_ns=us(200)) for _ in range(32)),
            )
        ]
        client = make_client(sim, topo, switch, collector, events)
        sim.run(until=ms(40))
        assert client.stats.tasks_completed == 32
        assert client.stats.bounces > 0
        assert client.core.retries == {}

    def test_bounce_budget_exhaustion_gives_up_visibly(self):
        """With a zero retry budget every bounced task is abandoned and
        counted — no infinite fixed-interval bounce loop."""
        sim, topo, switch, program, collector, _ = build(queue_capacity=4)
        events = [
            SubmitEvent(
                time_ns=0,
                tasks=tuple(TaskSpec(duration_ns=us(200)) for _ in range(32)),
            )
        ]
        client = make_client(
            sim, topo, switch, collector, events, max_retries=0
        )
        sim.run(until=ms(40))
        assert client.stats.bounce_give_ups > 0
        assert (
            client.stats.tasks_completed + client.stats.bounce_give_ups == 32
        )
        assert collector.unfinished_count() == client.stats.bounce_give_ups
