"""The chaos-fuzz pipeline: oracle, scenario runner, artifacts, replay.

The bit-determinism test here is the acceptance gate for the whole
subsystem: one scenario run twice must produce the identical simulator
event count, task-trace fingerprint, and oracle verdict.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import common
from repro.faults import FaultPlan, RecircExhaustion, WorkerCrash
from repro.sim.core import ms, us
from repro.verify import (
    FuzzScenario,
    InvariantOracle,
    SimEvidence,
    load_artifact,
    run_scenario,
    sample_scenario,
    save_artifact,
    shrink_failure,
)
from repro.verify.replay import replay


def small(scenario: FuzzScenario) -> FuzzScenario:
    """Shrink a scenario's horizon so tests stay fast."""
    return replace(scenario, duration_ns=ms(6), drain_ns=ms(14))


class TestScenarioRunner:
    def test_clean_run_passes_oracle(self):
        result = run_scenario(small(sample_scenario(0)))
        assert result.ok, [str(v) for v in result.violations]
        assert result.checks > 0
        assert result.tasks_submitted > 0
        assert result.tasks_completed == result.tasks_submitted
        # the result pins the plan for replay
        assert result.scenario.plan_json is not None

    def test_same_scenario_twice_is_bit_identical(self):
        scenario = small(sample_scenario(3))
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.event_count == second.event_count
        assert first.fingerprint == second.fingerprint
        assert first.ok == second.ok
        assert first.invariants_violated() == second.invariants_violated()

    def test_pinned_plan_reproduces_sampled_run(self):
        scenario = small(sample_scenario(5))
        sampled = run_scenario(scenario)  # plan implicit in the seed
        replayed = run_scenario(sampled.scenario)  # plan pinned to JSON
        assert replayed.event_count == sampled.event_count
        assert replayed.fingerprint == sampled.fingerprint

    def test_scenario_dict_round_trip(self):
        scenario = sample_scenario(9)
        assert FuzzScenario.from_dict(scenario.to_dict()) == scenario
        with pytest.raises(ConfigurationError, match="unknown"):
            FuzzScenario.from_dict({"seed": 0, "warp_drive": True})


class TestOracle:
    def _run_quiet_cluster(self):
        config = common.ClusterConfig(
            scheduler="draconis", workers=1, executors_per_worker=2, seed=0
        )
        handles = common.build_cluster(config, [[]])
        oracle = InvariantOracle(SimEvidence(handles)).attach(ms(2))
        handles.sim.run(until=ms(2))
        return handles, oracle

    def test_clean_cluster_has_no_violations(self):
        _handles, oracle = self._run_quiet_cluster()
        report = oracle.check_final()
        assert report.ok
        assert report.checks > 0
        assert "OK" in report.describe()

    def test_phantom_record_is_a_conservation_violation(self):
        handles, oracle = self._run_quiet_cluster()
        # a completion for a task nobody submitted
        handles.collector.on_complete((0, 99, 0), handles.sim.now)
        report = oracle.check_final()
        assert not report.ok
        assert "task-conservation" in report.invariants_violated()

    def test_unrestored_recirc_limit_is_a_quiescence_violation(self):
        handles, oracle = self._run_quiet_cluster()
        handles.switch.recirc_queue_packets += 5  # a window that never closed
        report = oracle.check_final()
        assert "quiescence" in report.invariants_violated()
        assert any("recirculation" in str(v) for v in report.violations)

    def test_stuck_speed_factor_is_a_quiescence_violation(self):
        handles, oracle = self._run_quiet_cluster()
        handles.workers[0].set_speed_factor(3.0)
        report = oracle.check_final()
        assert "quiescence" in report.invariants_violated()


class TestRecircOverlapRegression:
    def test_overlapping_exhaustion_windows_restore_baseline(self):
        """Found by the fuzzer (seed 42), shrunk to two overlapping
        RecircExhaustion windows: per-event save/restore unwound in open
        order left the limit at the first window's value forever."""
        plan = FaultPlan(
            [
                RecircExhaustion(start_ns=us(100), end_ns=us(500), queue_packets=2),
                RecircExhaustion(start_ns=us(300), end_ns=us(700), queue_packets=1),
            ]
        )
        scenario = replace(
            small(sample_scenario(0)), plan_json=plan.to_json()
        )
        result = run_scenario(scenario)
        assert result.ok, [str(v) for v in result.violations]


class TestArtifacts:
    def test_save_load_round_trip(self, tmp_path):
        result = run_scenario(small(sample_scenario(1)))
        path = tmp_path / "artifact.json"
        save_artifact(result, str(path))
        payload = load_artifact(str(path))
        assert payload["scenario"] == result.scenario
        assert payload["expected"]["fingerprint"] == result.fingerprint
        assert payload["expected"]["event_count"] == result.event_count
        # the plan is stored as a nested object, not an escaped string
        raw = json.loads(path.read_text())
        assert isinstance(raw["scenario"]["plan"], dict)

    def test_version_mismatch_rejected(self, tmp_path):
        result = run_scenario(small(sample_scenario(1)))
        path = tmp_path / "artifact.json"
        save_artifact(result, str(path))
        raw = json.loads(path.read_text())
        raw["version"] = 999
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigurationError, match="version"):
            load_artifact(str(path))

    def test_replay_reproduces_artifact(self, tmp_path):
        result = run_scenario(small(sample_scenario(2)))
        path = tmp_path / "artifact.json"
        save_artifact(result, str(path))
        assert replay(str(path)) == 0

    def test_replay_detects_divergence(self, tmp_path):
        result = run_scenario(small(sample_scenario(2)))
        path = tmp_path / "artifact.json"
        save_artifact(result, str(path))
        raw = json.loads(path.read_text())
        raw["expected"]["fingerprint"] = "0" * 64  # a "fixed bug" artifact
        path.write_text(json.dumps(raw))
        assert replay(str(path)) == 1


class TestCampaign:
    def test_small_campaign_runs_clean(self):
        scenarios = [small(sample_scenario(seed)) for seed in range(3)]
        results = [run_scenario(s) for s in scenarios]
        assert len(results) == 3
        assert all(r.ok for r in results), [
            str(v) for r in results for v in r.violations
        ]

    def test_failing_scenario_shrinks_to_minimal_plan(self):
        # one relevant event (permanent crash of the only worker: queued
        # tasks rot in the switch -> quiescence) + irrelevant noise
        noise = FaultPlan.fuzzed(
            np.random.default_rng(0), ms(6), worker_nodes=[0], max_events=4
        )
        events = [
            e for e in noise if not isinstance(e, WorkerCrash)
        ] + [WorkerCrash(at_ns=ms(1), node_id=0, restart_after_ns=None)]
        scenario = FuzzScenario(
            seed=123,
            duration_ns=ms(4),
            drain_ns=ms(6),
            workers=1,
            executors_per_worker=2,
            plan_json=FaultPlan(events).to_json(),
        )
        result = run_scenario(scenario)
        assert not result.ok
        assert "quiescence" in result.invariants_violated()

        failure = shrink_failure(result, max_attempts=60)
        assert failure.minimized_events <= 2
        assert failure.minimized_events < failure.original_events
        minimal = FaultPlan.from_json(failure.minimized.plan_json)
        assert any(isinstance(e, WorkerCrash) for e in minimal)
        # the minimal plan still reproduces the violation
        rerun = run_scenario(failure.minimized)
        assert "quiescence" in rerun.invariants_violated()
