"""Tests for the repro.obs observability subsystem."""


import pytest

from repro.experiments.common import ClusterConfig, attach_obs, run_workload
from repro.obs import (
    BREAKDOWN_STAGES,
    HOP_STAGES,
    LogHistogram,
    SimProfiler,
    SpanStore,
    TaskSpan,
    TelemetryBus,
    component_of,
    profile_run,
)
from repro.obs.spans import SpanEvent
from repro.sim.core import Simulator, ms, us
from repro.workloads import fixed, open_loop, rate_for_utilization


def run_instrumented(
    bus, duration_ns=ms(6), utilization=0.5, tasks_per_job=1, seed=3,
    scheduler="draconis",
):
    config = ClusterConfig(seed=seed, scheduler=scheduler, obs=bus)
    sampler = fixed(100.0)
    rate = rate_for_utilization(
        utilization, config.total_executors, sampler.mean_ns
    )

    def factory(rngs):
        return open_loop(
            rngs.stream("arrivals"), rate, sampler, duration_ns,
            tasks_per_job=tasks_per_job,
        )

    return run_workload(config, factory, duration_ns=duration_ns)


class TestLogHistogram:
    def test_percentiles_within_relative_error(self):
        hist = LogHistogram()
        for v in range(1, 100_001):
            hist.record(v)
        for q in (50, 90, 99, 99.9):
            exact = q / 100 * 100_000
            assert abs(hist.percentile(q) - exact) <= exact * 0.02 + 1

    def test_min_max_mean_exact(self):
        hist = LogHistogram()
        for v in (5, 10, 15):
            hist.record(v)
        assert hist.min == 5
        assert hist.max == 15
        assert hist.mean == 10
        assert hist.percentile(0) == 5.0
        assert hist.percentile(100) == 15.0

    def test_merge(self):
        a, b = LogHistogram(), LogHistogram()
        a.record(100, n=10)
        b.record(10_000, n=10)
        a.merge(b)
        assert a.count == 20
        assert a.max == 10_000
        assert a.min == 100

    def test_merge_rejects_mismatched_precision(self):
        with pytest.raises(ValueError):
            LogHistogram(6).merge(LogHistogram(8))

    def test_empty(self):
        hist = LogHistogram()
        assert hist.row() == "n=0"
        assert hist.percentile(50) != hist.percentile(50)  # NaN


class TestSpanStore:
    def test_lifecycle_closes_on_complete(self):
        store = SpanStore(capacity=16)
        key = (0, 1, 2)
        for i, stage in enumerate(("submit", "start", "finish", "complete")):
            store.record(key, stage, time_ns=i * 10)
        span = store.get(key)
        assert span.closed
        assert span.well_formed() == []
        assert not store.open_spans()
        assert store.closed_spans() == [span]

    def test_well_formed_catches_problems(self):
        span = TaskSpan(key=(0, 0, 0))
        span.add(SpanEvent(10, "start"))
        span.add(SpanEvent(5, "submit"))
        problems = "\n".join(span.well_formed())
        assert "not submit" in problems
        assert "not time-ordered" in problems
        assert "never closed" in problems

    def test_ring_buffer_evicts_oldest_closed(self):
        store = SpanStore(capacity=3)
        for tid in range(5):
            key = (0, 0, tid)
            store.record(key, "submit", 0)
            store.record(key, "complete", 1)
        assert store.evicted == 2
        assert len(store) == 3
        assert store.get((0, 0, 0)) is None  # oldest gone, index too
        assert store.get((0, 0, 4)) is not None

    def test_open_spans_not_evicted(self):
        store = SpanStore(capacity=2)
        store.record((9, 9, 9), "submit", 0)  # stays open
        for tid in range(4):
            store.record((0, 0, tid), "submit", 0)
            store.record((0, 0, tid), "complete", 1)
        assert store.get((9, 9, 9)) is not None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SpanStore(capacity=0)


class TestDisabledBus:
    def test_disabled_bus_records_nothing(self):
        bus = TelemetryBus(enabled=False)
        bus.emit(0, "ingress", "submission", 1)
        bus.task_event((0, 0, 0), "submit", 0)
        bus.incr("x")
        bus.observe("y", 10)
        assert not bus.events
        assert len(bus.spans) == 0
        assert not bus.counters
        assert not bus.histograms

    def test_disabled_bus_attached_to_cluster_stays_empty(self):
        bus = TelemetryBus(enabled=False)
        result = run_instrumented(bus, duration_ns=ms(2))
        assert result.tasks_completed > 0
        assert not bus.events
        assert len(bus.spans) == 0
        assert not bus.counters

    def test_uninstrumented_components_default_to_none(self):
        from repro.cluster.executor import Executor
        from repro.net.link import Link
        from repro.switchsim.pipeline import ProgrammableSwitch

        for cls in (Executor, Link, ProgrammableSwitch):
            init = cls.__init__.__code__
            # the hook attribute exists and defaults to None (set in
            # __init__, not passed as a parameter)
            assert "obs" not in init.co_varnames[: init.co_argcount]


class TestInstrumentedRun:
    def test_span_chains_complete_for_every_task(self):
        bus = TelemetryBus()
        result = run_instrumented(bus, tasks_per_job=3)
        assert result.tasks_completed == result.tasks_submitted
        spans = list(bus.spans)
        assert len(spans) == result.tasks_submitted
        for span in spans:
            assert span.well_formed() == [], span.render()

    def test_batched_submissions_record_recirc_hops(self):
        bus = TelemetryBus()
        run_instrumented(bus, tasks_per_job=4)
        recircs = [
            e
            for span in bus.spans
            for e in span.hops()
            if e.stage == "recirc_hop"
        ]
        assert recircs  # 4-task packets must recirculate at least once
        assert bus.matching(kind="recirculate")

    def test_switch_events_and_histograms_flow_to_one_bus(self):
        bus = TelemetryBus()
        run_instrumented(bus)
        assert bus.matching(kind="ingress")
        assert bus.matching(kind="reply")
        assert "task.sched_delay_ns" in bus.histograms
        assert "task.end_to_end_ns" in bus.histograms
        assert "executor.pull_rtt_ns" in bus.histograms

    def test_stage_vocabulary_is_closed(self):
        bus = TelemetryBus()
        run_instrumented(bus, tasks_per_job=3)
        known = set(BREAKDOWN_STAGES) | set(HOP_STAGES) | {"bounce_retry"}
        seen = {e.stage for span in bus.spans for e in span.events}
        assert seen <= known, seen - known

    def test_span_chains_complete_under_chaos(self):
        from repro.experiments.fault_tolerance import run_chaos

        bus = TelemetryBus()
        result = run_chaos(
            seed=1, kind="mixed", duration_ns=ms(8), drain_ns=ms(20), obs=bus
        )
        assert result.conserved, result.violations
        closed = bus.spans.closed_spans()
        assert len(closed) == result.tasks_submitted
        assert not bus.spans.open_spans()
        for span in closed:
            assert span.well_formed() == [], span.render()

    def test_span_chains_complete_under_switch_failover(self):
        from repro.experiments.fault_tolerance import run_chaos

        bus = TelemetryBus()
        result = run_chaos(
            seed=0, kind="failover", duration_ns=ms(8), drain_ns=ms(20), obs=bus
        )
        assert result.conserved, result.violations
        closed = bus.spans.closed_spans()
        assert len(closed) == result.tasks_submitted
        for span in closed:
            assert span.well_formed() == [], span.render()


class TestProfiler:
    def test_profile_attributes_wall_time_by_component(self):
        sim = Simulator()

        class Ticker:
            def __init__(self):
                self.ticks = 0

            def tick(self):
                self.ticks += 1

        ticker = Ticker()
        for i in range(50):
            sim.call_at(i * 10, ticker.tick)
        profiler = profile_run(sim, until=us(1))
        assert ticker.ticks == 50
        assert profiler.events == 50
        assert sim.profiler is None  # detached afterwards
        (label, cost), = profiler.rows()
        assert label.endswith(".Ticker")
        assert cost.calls == 50
        assert profiler.events_per_sec() > 0
        assert "Ticker" in profiler.report()

    def test_component_of_plain_function(self):
        def helper():
            pass

        assert component_of(helper).endswith(".helper")

    def test_global_event_counter_advances(self):
        before = Simulator.global_events_processed()
        sim = Simulator()
        sim.call_at(0, lambda: None)
        sim.run(until=10)
        assert Simulator.global_events_processed() == before + 1


class TestTracerShim:
    def test_tracer_shares_cluster_bus(self):
        from repro.core import DraconisProgram
        from repro.switchsim import ProgrammableSwitch
        from repro.switchsim.tracer import SwitchTracer

        sim = Simulator()
        switch = ProgrammableSwitch(sim, DraconisProgram())
        bus = TelemetryBus()
        switch.obs = bus
        tracer = SwitchTracer(switch)
        assert tracer.bus is bus  # reuses, does not replace


class TestReport:
    def test_report_renders_timeline_and_breakdown(self, capsys):
        from repro.obs import report

        code = report.main(["--duration-ms", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "task timeline" in out
        assert "submit" in out
        assert "per-stage latency breakdown" in out
        assert "->" in out

    def test_verify_chains_reports_gaps(self):
        from repro.obs.report import verify_chains

        store = SpanStore(capacity=8)
        store.record((0, 0, 0), "submit", 0)  # never completes
        problems = "\n".join(verify_chains(store, expected_tasks=2))
        assert "never closed" in problems
        assert "closed spans for 2 submitted tasks" in problems


class TestAttachObs:
    def test_attach_obs_covers_collector_switch_links(self):
        from repro.experiments.common import build_cluster

        bus = TelemetryBus()
        config = ClusterConfig(seed=0, scheduler="draconis", obs=bus)
        handles = build_cluster(config, [[]])
        assert handles.collector._obs is bus
        assert handles.switch.obs is bus
        assert all(link.obs is bus for link in handles.topology.links())
        for worker in handles.workers:
            assert all(e.obs is bus for e in worker.executors)
