"""Replicated control plane: election, fencing, sync, crash chaos.

Covers the pieces PR "controller replication" added:

* the switch's :class:`~repro.switchsim.election.ElectionRegister` —
  CAS lease semantics, inclusive expiry boundary, monotonic terms;
* term fencing on the program's control-plane mutations
  (``expire_parked_for`` / ``reinject``);
* the executor-lease expiry boundary (a heartbeat landing exactly at
  ``expires_at_ns`` renews; the sweep never races it) — regression for
  the off-by-one the replication work flushed out;
* the ``ControllerCrash`` fault event and its sampling grammar;
* leader-crash takeover end to end in simulation (zero loss) against
  the lossy single-controller baseline;
* the live replica's sync/ack state machine on a fake transport; and
* Hypothesis properties: election outcome is a pure function of the
  request script (register), the ack script (live replica), and the
  (seed, crash schedule) pair (simulation).
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DraconisProgram
from repro.ctrl import Controller
from repro.errors import ConfigurationError
from repro.experiments.controller_ha import run_ha
from repro.faults import FaultPlan, event_from_dict, event_to_dict
from repro.faults.events import ControllerCrash
from repro.faults.plan import sample_ctrl_faults
from repro.live.ctrlplane import LiveControllerReplica
from repro.metrics import MetricsCollector
from repro.net import StarTopology
from repro.protocol.messages import (
    ControllerSync,
    CtrlOp,
    ElectionAck,
    Heartbeat,
)
from repro.sim import Simulator, ms, us
from repro.sim.rng import RngStreams
from repro.switchsim import ProgrammableSwitch
from repro.switchsim.election import ElectionRegister


# -- the ControllerCrash fault event ----------------------------------------


class TestControllerCrashEvent:
    def test_round_trip_with_restart(self):
        event = ControllerCrash(
            at_ns=ms(3), replica_id=1, restart_after_ns=ms(2)
        )
        payload = event_to_dict(event)
        assert payload["kind"] == "ControllerCrash"
        assert event_from_dict(payload) == event

    def test_round_trip_permanent(self):
        event = ControllerCrash(at_ns=ms(3), replica_id=0)
        assert event.restart_after_ns is None
        assert event_from_dict(event_to_dict(event)) == event

    def test_plan_json_round_trip(self):
        plan = FaultPlan(
            [ControllerCrash(at_ns=ms(1), replica_id=2, restart_after_ns=None)]
        )
        assert list(FaultPlan.from_json(plan.to_json())) == list(plan)

    def test_grammar_same_seed_same_events(self):
        a = sample_ctrl_faults(
            RngStreams(9).stream("ctrl"), ms(12), replica_ids=[0, 1, 2]
        )
        b = sample_ctrl_faults(
            RngStreams(9).stream("ctrl"), ms(12), replica_ids=[0, 1, 2]
        )
        assert a == b

    def test_grammar_keeps_one_replica_alive(self):
        for seed in range(40):
            events = sample_ctrl_faults(
                RngStreams(seed).stream("ctrl"), ms(12), replica_ids=[0, 1, 2]
            )
            permanent = {
                e.replica_id
                for e in events
                if isinstance(e, ControllerCrash)
                and e.restart_after_ns is None
            }
            assert len(permanent) < 3

    def test_grammar_rejects_single_replica(self):
        with pytest.raises(ConfigurationError, match="replicas"):
            sample_ctrl_faults(
                RngStreams(0).stream("ctrl"), ms(12), replica_ids=[0]
            )


# -- the switch's election register -----------------------------------------


class TestElectionRegister:
    def test_first_grant_opens_term_one(self):
        reg = ElectionRegister()
        ack = reg.request(candidate_id=0, term=0, now=0, lease_ns=100)
        assert ack.granted and ack.term == 1 and ack.leader_id == 0
        assert reg.history == [(1, 0, 0)]

    def test_renewal_at_exact_expiry_is_not_a_new_term(self):
        # Inclusive boundary: the incumbent renewing at precisely
        # expires_at_ns keeps its term; no rival could have slipped in.
        reg = ElectionRegister()
        reg.request(candidate_id=0, term=0, now=0, lease_ns=100)
        ack = reg.request(candidate_id=0, term=1, now=100, lease_ns=100)
        assert ack.granted and ack.term == 1
        assert reg.renewals == 1 and reg.elections_held == 1

    def test_rival_denied_while_lease_live(self):
        reg = ElectionRegister()
        reg.request(candidate_id=0, term=0, now=0, lease_ns=100)
        ack = reg.request(candidate_id=1, term=1, now=100, lease_ns=100)
        assert not ack.granted
        assert ack.leader_id == 0 and ack.term == 1
        assert reg.denials == 1

    def test_lapsed_lease_grants_next_term(self):
        reg = ElectionRegister()
        reg.request(candidate_id=0, term=0, now=0, lease_ns=100)
        ack = reg.request(candidate_id=1, term=1, now=101, lease_ns=100)
        assert ack.granted and ack.term == 2 and ack.leader_id == 1
        assert [row[0] for row in reg.history] == [1, 2]

    def test_current_leader_respects_boundary(self):
        reg = ElectionRegister()
        reg.request(candidate_id=3, term=0, now=0, lease_ns=100)
        assert reg.current_leader(100) == 3
        assert reg.current_leader(101) is None


# -- term fencing on the program's control-plane surface --------------------


class TestFencing:
    def build(self):
        sim = Simulator()
        program = DraconisProgram(queue_capacity=64, park_pulls=True)
        switch = ProgrammableSwitch(sim, program)
        return sim, switch, program

    def test_stale_term_is_rejected_and_counted(self):
        sim, switch, program = self.build()
        switch.election.request(candidate_id=0, term=0, now=0, lease_ns=100)
        switch.election.request(candidate_id=1, term=1, now=500, lease_ns=100)
        assert switch.election.term == 2
        assert program.expire_parked_for({1}, term=1) == 0
        assert program.sched_stats.fencing_rejections == 1

    def test_current_term_is_accepted_and_audited(self):
        sim, switch, program = self.build()
        switch.election.request(candidate_id=0, term=0, now=0, lease_ns=100)
        assert program.expire_parked_for({1}, term=1) == 0  # nothing parked
        assert program.sched_stats.fencing_rejections == 0
        assert switch.election.actions == [(1, 1)]

    def test_unfenced_legacy_path_keeps_no_audit(self):
        sim, switch, program = self.build()
        program.expire_parked_for({1})
        assert switch.election.actions == []
        assert program.sched_stats.fencing_rejections == 0


# -- executor-lease expiry boundary (regression) ----------------------------


class TestLeaseExpiryBoundary:
    def build_controller(self):
        sim = Simulator()
        program = DraconisProgram(queue_capacity=64)
        switch = ProgrammableSwitch(sim, program)
        topology = StarTopology(sim, switch)
        ctrl = Controller(
            sim,
            topology,
            program=program,
            lease_ns=us(500),
            sweep_ns=us(100),
        )
        return sim, ctrl

    def test_lease_lives_through_its_expiry_instant(self):
        # Heartbeat at t=100us grants a lease through 600us inclusive.
        # The sweep that fires exactly at 600us must NOT expire it: a
        # renewal landing at that same instant is valid, so treating the
        # boundary as dead would race heartbeat against sweep ordering.
        sim, ctrl = self.build_controller()
        sim.call_at(us(100), lambda: ctrl._on_heartbeat(Heartbeat(
            executor_id=7, node_id=0)))
        sim.run(until=us(650))
        assert ctrl.live_executors() == {7}
        assert ctrl.stats.leases_expired == 0

    def test_heartbeat_at_exact_expiry_renews(self):
        sim, ctrl = self.build_controller()
        beat = lambda: ctrl._on_heartbeat(Heartbeat(executor_id=7, node_id=0))
        sim.call_at(us(100), beat)
        sim.call_at(us(600), beat)  # exactly expires_at_ns
        sim.run(until=ms(1))
        assert ctrl.live_executors() == {7}
        assert ctrl.stats.leases_renewed == 1
        assert ctrl.stats.leases_expired == 0

    def test_lease_expires_one_sweep_past_the_boundary(self):
        sim, ctrl = self.build_controller()
        sim.call_at(us(100), lambda: ctrl._on_heartbeat(Heartbeat(
            executor_id=7, node_id=0)))
        sim.run(until=us(750))
        assert ctrl.live_executors() == set()
        assert ctrl.stats.leases_expired == 1


# -- leader-crash takeover, end to end in simulation ------------------------


class TestReplicatedTakeover:
    def test_leader_and_worker_crash_lose_nothing(self):
        result = run_ha(
            seed=0,
            replicas=3,
            crash_fraction=0.5,
            duration_ns=ms(12),
            drain_ns=ms(12),
        )
        assert result.ok, result.violations
        assert result.tasks_lost == 0
        assert result.term == 2  # exactly one takeover
        assert result.takeover_ns is not None
        assert result.takeover_ns <= result.takeover_bound_ns
        assert result.tasks_reclaimed > 0  # the successor did the work

    def test_single_controller_baseline_loses_tasks(self):
        result = run_ha(
            seed=0,
            replicas=1,
            crash_fraction=0.5,
            duration_ns=ms(12),
            drain_ns=ms(12),
        )
        # The same crash schedule with no replica to take over: the dead
        # worker's in-flight tasks have no recovery path (client
        # timeouts are disabled in this experiment).
        assert result.tasks_lost > 0
        assert result.takeover_ns is None


# -- the live replica's state machine (fake transport) ----------------------


def make_fake_replica(replica_id: int = 0, clock=None):
    class FakeClock:
        now = 0

    replica = LiveControllerReplica(
        replica_id=replica_id,
        switch=("127.0.0.1", 1),
        clock=clock if clock is not None else FakeClock(),
    )
    replica.endpoint = ("127.0.0.1", 100 + replica_id)
    replica._transport = None  # _send becomes a no-op
    return replica, replica.core


class TestLiveReplicaStateMachine:
    def test_granted_ack_makes_leader(self):
        replica, core = make_fake_replica()
        core.on_ack(
            ElectionAck(leader_id=0, term=1, granted=True, expires_at_ns=50)
        )
        assert core.role == "leader"
        assert core.term == 1 and replica.is_leader()

    def test_denial_with_newer_term_steps_down(self):
        replica, core = make_fake_replica()
        core.on_ack(
            ElectionAck(leader_id=0, term=1, granted=True, expires_at_ns=50)
        )
        core.on_ack(
            ElectionAck(leader_id=2, term=2, granted=False, expires_at_ns=90)
        )
        assert core.role == "follower"
        assert core.step_downs == 1
        assert core.known_term == 2

    def test_lease_lapse_self_demotes(self):
        replica, core = make_fake_replica()
        core.on_ack(
            ElectionAck(leader_id=0, term=1, granted=True, expires_at_ns=50)
        )
        replica.clock.now = 51
        assert not replica.is_leader()

    def test_sync_snapshot_then_gap_detection(self):
        replica, core = make_fake_replica(replica_id=2)
        meta = CtrlOp(kind=6, a=1, b=1, d=3)  # CKPT_META
        replica._on_sync(
            ControllerSync(
                leader_id=0, term=1, seq=1, snapshot=True, ops=[meta]
            )
        )
        assert core.sync_applied == 1 and core.sync_gaps == 0
        assert replica.ckpt_meta["flushes"] == 3
        replica._on_sync(
            ControllerSync(leader_id=0, term=1, seq=4, ops=[meta])
        )
        assert core.sync_gaps == 1  # seq jumped 1 -> 4

    def test_stale_term_sync_is_dropped(self):
        replica, core = make_fake_replica(replica_id=2)
        replica._on_sync(ControllerSync(leader_id=1, term=3, seq=1,
                                        snapshot=True, ops=[]))
        before = core.sync_applied
        replica._on_sync(ControllerSync(leader_id=0, term=2, seq=1, ops=[]))
        assert core.sync_applied == before
        assert core.sync_stale == 1

    def test_leader_steps_down_on_higher_term_sync(self):
        replica, core = make_fake_replica()
        core.on_ack(
            ElectionAck(leader_id=0, term=1, granted=True, expires_at_ns=50)
        )
        replica._on_sync(ControllerSync(leader_id=1, term=2, seq=1,
                                        snapshot=True, ops=[]))
        assert core.role == "follower" and core.step_downs == 1


# -- purity: election outcome is a function of its inputs -------------------


request_scripts = st.lists(
    st.tuples(
        st.integers(0, 2),      # candidate
        st.integers(0, 40),     # time delta since previous request
        st.integers(1, 60),     # requested lease
    ),
    min_size=1,
    max_size=30,
)


class TestElectionPurity:
    @given(script=request_scripts)
    @settings(max_examples=100)
    def test_register_is_a_pure_function_of_the_request_script(self, script):
        def replay():
            reg = ElectionRegister()
            acks, now = [], 0
            for candidate, delta, lease in script:
                now += delta
                term = reg.term  # candidates ask with the observed term
                acks.append(
                    reg.request(candidate, term, now=now, lease_ns=lease)
                )
            return acks, reg.history, reg.term

        assert replay() == replay()

    @given(script=request_scripts)
    @settings(max_examples=100)
    def test_register_terms_never_regress(self, script):
        reg = ElectionRegister()
        now, last_term = 0, 0
        for candidate, delta, lease in script:
            now += delta
            ack = reg.request(candidate, reg.term, now=now, lease_ns=lease)
            assert ack.term >= last_term
            last_term = ack.term
        assert [row[0] for row in reg.history] == sorted(
            {row[0] for row in reg.history}
        )

    @given(
        acks=st.lists(
            st.tuples(
                st.integers(0, 1),   # leader_id in the ack
                st.integers(1, 6),   # term
                st.booleans(),       # granted
                st.integers(0, 99),  # expires_at_ns
            ),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=100)
    def test_live_replica_is_a_pure_function_of_the_ack_script(self, acks):
        def replay():
            replica, core = make_fake_replica(replica_id=0)
            trace = []
            for leader_id, term, granted, expires in acks:
                core.on_ack(
                    ElectionAck(
                        leader_id=leader_id,
                        term=term,
                        granted=granted,
                        expires_at_ns=expires,
                    )
                )
                trace.append(
                    (core.role, core.term, core.known_term,
                     core.step_downs, core.elections_won)
                )
            return trace

        assert replay() == replay()

    @given(
        seed=st.integers(0, 3),
        crash_fraction=st.sampled_from([0.3, 0.5, 0.7]),
    )
    @settings(max_examples=4, deadline=None)
    def test_sim_election_outcome_is_pure_in_seed_and_schedule(
        self, seed, crash_fraction
    ):
        """Same (seed, crash schedule) -> identical takeover, terms,
        reclaim counts — the whole HA result replays bit-identically."""
        kwargs = dict(
            seed=seed,
            replicas=3,
            crash_fraction=crash_fraction,
            duration_ns=ms(6),
            drain_ns=ms(8),
            workers=2,
            executors_per_worker=2,
        )
        assert asdict(run_ha(**kwargs)) == asdict(run_ha(**kwargs))


class TestHaArtifact:
    """The shipped counterexample must keep reproducing bit-identically."""

    def test_example_artifact_replays_exactly(self):
        import pathlib

        from repro.verify.replay import replay

        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "examples"
            / "ha_artifact.json"
        )
        assert replay(str(path)) == 0

    def test_example_artifact_is_the_unreplicated_story(self):
        """The artifact documents the replicas=1 failure mode: a
        controller crash followed by a worker crash loses tasks."""
        import json
        import pathlib

        path = (
            pathlib.Path(__file__).resolve().parent.parent
            / "examples"
            / "ha_artifact.json"
        )
        payload = json.loads(path.read_text())
        scenario = payload["scenario"]
        assert scenario["controller"] is True
        assert scenario["controller_replicas"] == 1
        kinds = [e["kind"] for e in scenario["plan"]["events"]]
        assert kinds == ["ControllerCrash", "WorkerCrash"]
        expected = payload["expected"]
        assert expected["ok"] is False
        families = {v["invariant"] for v in expected["violations"]}
        assert "task-conservation" in families
        assert expected["tasks_completed"] < expected["tasks_submitted"]


class TestControlPlaneHealthCounters:
    """Satellite: control-plane health exported through the TelemetryBus."""

    def test_gauge_is_last_write_wins(self):
        from repro.obs import TelemetryBus

        bus = TelemetryBus()
        bus.gauge("ctrl.term", 1)
        bus.gauge("ctrl.term", 3)
        assert bus.counters["ctrl.term"] == 3
        bus.enabled = False
        bus.gauge("ctrl.term", 9)
        assert bus.counters["ctrl.term"] == 3

    def test_ha_run_populates_the_bus(self):
        from repro.obs import TelemetryBus

        bus = TelemetryBus()
        result = run_ha(
            0,
            replicas=3,
            crash_fraction=0.5,
            duration_ns=ms(8),
            drain_ns=ms(10),
            workers=2,
            executors_per_worker=2,
            obs=bus,
        )
        # initial win + post-crash takeover
        assert bus.counters.get("ctrl.elections_won", 0) >= 2
        assert bus.counters.get("ctrl.term") == result.term
        assert bus.counters.get("ctrl.tasks_reclaimed", 0) > 0
        elected = bus.matching(kind="ctrl", opcode="leader_elected")
        assert len(elected) >= 2
