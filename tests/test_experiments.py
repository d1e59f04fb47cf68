"""Tests for the experiment harness and the figure table.

Every figure runs at ``test`` scale and its predicates (the *shape*
properties the paper reports) must hold; the ``bench``-scale judgement is
``python -m repro.experiments.figures --scale bench --check``.
"""

from dataclasses import replace

import pytest

from repro.core.policies import PriorityPolicy
from repro.errors import ConfigurationError
from repro.experiments import figures
from repro.experiments.common import (
    ClusterConfig,
    build_cluster,
    run_workload,
    split_round_robin,
)
from repro.cluster import SubmitEvent, TaskSpec
from repro.sim.core import ms, us
from repro.sim.rng import RngStreams
from repro.workloads import fixed, open_loop


def small_factory(rate=60_000, duration=ms(15), task_us=100):
    sampler = fixed(task_us)

    def factory(rngs):
        return open_loop(rngs.stream("arrivals"), rate, sampler, duration)

    return factory


class TestHarness:
    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigurationError):
            build_cluster(ClusterConfig(scheduler="nope"), [[]])

    def test_workload_stream_count_must_match_clients(self):
        with pytest.raises(ConfigurationError):
            build_cluster(ClusterConfig(clients=2), [[]])

    def test_split_round_robin(self):
        events = [
            SubmitEvent(time_ns=i, tasks=(TaskSpec(duration_ns=1),))
            for i in range(5)
        ]
        streams = split_round_robin(events, 2)
        assert [e.time_ns for e in streams[0]] == [0, 2, 4]
        assert [e.time_ns for e in streams[1]] == [1, 3]

    def test_run_workload_returns_consistent_result(self):
        config = ClusterConfig(
            scheduler="draconis", workers=2, executors_per_worker=4
        )
        result = run_workload(
            config, small_factory(), duration_ns=ms(15), warmup_ns=ms(2)
        )
        assert result.tasks_completed == result.tasks_submitted
        assert result.tasks_unfinished == 0
        assert result.scheduling.count > 0
        assert 0 < result.utilization < 1
        assert result.throughput_tps > 0

    def test_same_seed_is_deterministic(self):
        config = ClusterConfig(
            scheduler="draconis", workers=2, executors_per_worker=4, seed=3
        )
        a = run_workload(config, small_factory(), duration_ns=ms(10))
        b = run_workload(config, small_factory(), duration_ns=ms(10))
        assert a.scheduling_delays_ns == b.scheduling_delays_ns

    def test_different_seeds_differ(self):
        results = []
        for seed in (1, 2):
            config = ClusterConfig(
                scheduler="draconis", workers=2, executors_per_worker=4,
                seed=seed,
            )
            results.append(
                run_workload(config, small_factory(), duration_ns=ms(10))
            )
        assert results[0].scheduling_delays_ns != results[1].scheduling_delays_ns

    def test_worker_specs_rack_assignment(self):
        config = ClusterConfig(workers=9, racks=3)
        racks = [spec.rack_id for spec in config.worker_specs()]
        assert racks == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_queue_delay_recording(self):
        config = ClusterConfig(
            scheduler="draconis",
            workers=2,
            executors_per_worker=4,
            record_queue_delays=True,
            policy=PriorityPolicy(levels=2),
        )
        sampler = fixed(100)

        def factory(rngs):
            return open_loop(
                rngs.stream("arrivals"), 50_000, sampler, ms(10),
                tprops_for=lambda rng, dur: 1 + int(rng.integers(2)),
            )

        result = run_workload(config, factory, duration_ns=ms(10))
        assert result.queue_delays
        levels = {q for q, _d in result.queue_delays}
        assert levels <= {0, 1}


class TestFigureShapes:
    """Every figure of the table runs at ``test`` scale and its predicates hold."""

    @pytest.mark.parametrize("name", list(figures.FIGURES))
    def test_checks_hold_at_test_scale(self, name):
        fig = figures.FIGURES[name]
        rows = figures.run(fig, figures.TEST)
        assert rows
        verdicts = figures.check(fig, rows, figures.TEST)
        assert verdicts, f"{name} judges nothing at test scale"
        failed = [v for v in verdicts if not v.ok]
        assert not failed, figures.format_checks(failed)

    ROWS = [dict(system="draconis", utilization=0.6, p99_us=9.0),
            dict(system="sparrow", utilization=0.6, p99_us=900.0)]

    def _judge(self, *preds):
        fig = replace(figures.FIGURES["fig5a"], checks=preds)
        return figures.check(fig, self.ROWS, figures.TEST)

    def test_margin_is_signed_distance_from_threshold(self):
        ratio = figures.over(figures.at("p99_us", "sparrow", 0.6),
                             figures.at("p99_us", "draconis", 0.6))
        (holds,) = self._judge(figures.Pred("ratio", ratio, ">", 30, (figures.TEST,)))
        assert holds.ok and holds.value == 100 and holds.margin == 70

    def test_check_fails_on_a_broken_predicate(self):
        broken = figures.Pred("broken", figures.at("p99_us", "draconis", 0.6), ">", 50,
                              (figures.TEST,))
        missing = figures.Pred("missing", figures.at("p99_us", "racksched", 0.6), "<", 50,
                               (figures.TEST,))
        verdicts = self._judge(broken, missing)
        assert [v.ok for v in verdicts] == [False, False]
        assert verdicts[0].margin == -41 and verdicts[1].value is None
        assert "FAIL" in figures.format_checks(verdicts)

    def test_deviation_fails_only_once_it_holds(self):
        still = figures.Pred("still", figures.at("p99_us", "draconis", 0.6), ">", 50,
                             (figures.TEST,), deviation=True)
        now = figures.Pred("now", figures.at("p99_us", "sparrow", 0.6), ">", 50,
                           (figures.TEST,), deviation=True)
        verdicts = self._judge(still, now)
        assert [v.ok for v in verdicts] == [True, False]
        assert "deviation now holds" in figures.format_checks(verdicts)


class TestRunAllScales:
    def test_scales_define_every_figure(self):
        assert len(figures.FIGURES) == len(figures.FIGURE_LIST)
        for fig in figures.FIGURE_LIST:
            assert set(fig.scales) == set(figures.SCALES), fig.name
            for scale in figures.SCALES:
                assert figures.points(fig, scale), (fig.name, scale)

    def test_smoke_scale_is_cheaper_than_report(self):
        def work(fig, scale):
            """Simulated time summed over every point of the sweep."""
            return sum(
                knobs.get("duration_ns") or knobs.get("phase_ns") or 0
                for _point, knobs in figures.points(fig, scale)
            )

        for fig in figures.FIGURE_LIST:
            assert work(fig, figures.SMOKE) <= work(fig, figures.REPORT), fig.name
            assert work(fig, figures.TEST) <= work(fig, figures.BENCH), fig.name

    def test_every_deviation_is_judged_at_bench_scale(self):
        for fig in figures.FIGURE_LIST:
            for pred in fig.checks:
                assert figures.BENCH in pred.scales or figures.TEST in pred.scales, pred.name
                assert not pred.deviation or figures.BENCH in pred.scales, pred.name


class TestFigureCharts:
    def test_fig5a_chart_renders(self):
        rows = [
            dict(system="draconis", utilization=0.5, offered_tps=1e5, p99_us=9.0),
            dict(system="sparrow", utilization=0.5, offered_tps=1e5, p99_us=900.0),
        ]
        out = figures.render_chart(figures.FIGURES["fig5a"], rows)
        assert "draconis" in out and "sparrow" in out

    def test_fig6_charts_render_one_panel_per_workload(self):
        rows = [
            dict(workload="100us", system="draconis", utilization=0.5, p99_us=6.0),
            dict(workload="100us", system="r2p2-3", utilization=0.5, p99_us=90.0),
            dict(workload="500us", system="draconis", utilization=0.5, p99_us=9.0),
        ]
        out = figures.render_chart(figures.FIGURES["fig6"], rows)
        assert out.count("p99_us vs utilization") == 2

    def test_fig9_chart_renders(self):
        rows = [dict(system="draconis", cdf=[(1000.0, 0.5), (10000.0, 1.0)])]
        assert "log10" in figures.render_chart(figures.FIGURES["fig9"], rows)

    def test_table_prints_every_kept_column(self):
        fig = figures.FIGURES["fig10"]
        rows = [dict(policy="fcfs", node_local=0.1, cdf=[(1.0, 1.0)])]
        out = figures.format_table(fig, rows)
        assert "node_local" in out and "cdf" not in out
