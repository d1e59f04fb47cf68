"""Tests for the live chaos layer: fault-injecting transports, the
process-fault injector plumbing, scenario/artifact serialization, and
the shared invariant oracle over live evidence.

Same split as test_live.py: unit tests drive :class:`ChaosTransport`
and ``InvariantOracle(LiveEvidence(...))`` against fakes (no sockets,
fully deterministic), and a handful of short end-to-end scenarios run real
loopback UDP through :func:`run_live_chaos` — including the seeded
executor-crash scenario that must demonstrably re-register with zero
lost tasks.
"""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigurationError, LiveTimeoutError, SwitchError
from repro.faults.events import (
    LinkFault,
    PacketCorruption,
    Partition,
    SwitchFailover,
    WorkerCrash,
)
from repro.faults.plan import LIVE_GRAMMAR, FaultPlan
from repro.live.chaos import (
    ChaosNet,
    ChaosScenario,
    run_live_chaos,
    sample_scenario,
)
from repro.protocol import codec
from repro.protocol.messages import Heartbeat
from repro.verify.artifact import (
    LIVE_ARTIFACT_VERSION,
    load_artifact,
    save_artifact,
)
from repro.verify.evidence import LiveEvidence
from repro.verify.oracle import InvariantOracle


class FakeClock:
    def __init__(self, start_ns=0):
        self.now = start_ns


class FakeInner:
    """Quacks like a DatagramTransport under a ChaosTransport."""

    def __init__(self, sockname=("127.0.0.1", 50001)):
        self.sockname = sockname
        self.sent = []

    def sendto(self, data, addr=None):
        self.sent.append((bytes(data), addr))

    def is_closing(self):
        return False

    def close(self):
        pass

    def get_extra_info(self, name, default=None):
        return self.sockname if name == "sockname" else default


def make_net(events, now_ns=1_000, seed=0):
    net = ChaosNet(
        FaultPlan(events),
        rng=np.random.default_rng(seed),
        clock=FakeClock(0),
    )
    net.arm()
    net.clock.now = now_ns
    return net


def wrap(net, name, sockname=("127.0.0.1", 50001)):
    inner = FakeInner(sockname)
    return net.wrap(name)(inner), inner


PAYLOAD = codec.encode(Heartbeat(executor_id=1))
WINDOW = dict(start_ns=0, end_ns=1_000_000)


class TestChaosTransport:
    def test_unarmed_passes_through(self):
        net = ChaosNet(
            FaultPlan([LinkFault(loss_prob=1.0, **WINDOW)]),
            rng=np.random.default_rng(0),
            clock=FakeClock(0),
        )
        transport, inner = wrap(net, "exec0")
        transport.sendto(PAYLOAD)
        assert len(inner.sent) == 1

    def test_total_loss_drops_everything(self):
        net = make_net(
            [LinkFault(loss_prob=1.0, nodes=("exec0",), **WINDOW)]
        )
        transport, inner = wrap(net, "exec0")
        for _ in range(5):
            transport.sendto(PAYLOAD)
        assert inner.sent == []
        assert net.counters["loss_drops"] == 5

    def test_outside_window_passes_through(self):
        net = make_net(
            [LinkFault(loss_prob=1.0, **WINDOW)], now_ns=2_000_000
        )
        transport, inner = wrap(net, "exec0")
        transport.sendto(PAYLOAD)
        assert len(inner.sent) == 1

    def test_other_link_unaffected(self):
        net = make_net(
            [LinkFault(loss_prob=1.0, nodes=("exec1",), **WINDOW)]
        )
        transport, inner = wrap(net, "exec0")
        transport.sendto(PAYLOAD)
        assert len(inner.sent) == 1

    def test_duplication_sends_twice(self):
        net = make_net([LinkFault(duplicate_prob=1.0, **WINDOW)])
        transport, inner = wrap(net, "exec0")
        transport.sendto(PAYLOAD)
        assert len(inner.sent) == 2
        assert net.counters["wire_duplicates"] == 1

    def test_partition_blackout(self):
        net = make_net([Partition(nodes=("exec0",), **WINDOW)])
        transport, inner = wrap(net, "exec0")
        transport.sendto(PAYLOAD)
        assert inner.sent == []
        assert net.counters["partition_drops"] == 1

    def test_corruption_always_drops_never_crashes(self):
        net = make_net(
            [PacketCorruption(corrupt_prob=1.0, **WINDOW)], seed=3
        )
        transport, inner = wrap(net, "exec0")
        for _ in range(50):
            transport.sendto(PAYLOAD)
        assert inner.sent == []  # FCS model: mutated frames discarded
        assert net.counters["corrupt_drops"] == 50
        assert net.counters.get("parser_crashes", 0) == 0

    def test_switch_sends_attributed_to_destination_link(self):
        # The switch's transport must match faults against the link the
        # packet travels, i.e. the *destination* executor's name.
        net = make_net([Partition(nodes=("exec0",), **WINDOW)])
        exec_endpoint = ("127.0.0.1", 50007)
        net.register_endpoint("exec0", exec_endpoint)
        transport, inner = wrap(net, "switch", ("127.0.0.1", 9999))
        transport.sendto(PAYLOAD, exec_endpoint)
        assert inner.sent == []
        transport.sendto(PAYLOAD, ("127.0.0.1", 60000))  # client link
        assert len(inner.sent) == 1

    def test_controller_partition_cuts_both_directions(self):
        # A link is named by its non-switch end: a partitioned
        # controller must lose its own ElectionRequests to the switch,
        # not only the acks coming back, or the isolated leader keeps
        # renewing its lease and no follower can ever take over.
        net = make_net([Partition(nodes=("ctrl0",), **WINDOW)])
        switch_endpoint = ("127.0.0.1", 9999)
        switch, switch_inner = wrap(net, "switch", switch_endpoint)
        ctrl0, ctrl0_inner = wrap(net, "ctrl0", ("127.0.0.1", 50010))
        ctrl1, ctrl1_inner = wrap(net, "ctrl1", ("127.0.0.1", 50011))
        ctrl0.sendto(PAYLOAD, switch_endpoint)
        assert ctrl0_inner.sent == []
        switch.sendto(PAYLOAD, ("127.0.0.1", 50010))
        assert switch_inner.sent == []
        # peer-to-peer sync crosses both peers' links
        ctrl1.sendto(PAYLOAD, ("127.0.0.1", 50010))
        ctrl0.sendto(PAYLOAD, ("127.0.0.1", 50011))
        assert ctrl1_inner.sent == [] and ctrl0_inner.sent == []
        assert net.counters["partition_drops"] == 4
        # the healthy replica still reaches the switch
        ctrl1.sendto(PAYLOAD, switch_endpoint)
        assert len(ctrl1_inner.sent) == 1

    def test_windows_closed_tracks_last_end(self):
        net = make_net([LinkFault(loss_prob=0.5, **WINDOW)], now_ns=0)
        assert not net.windows_closed()
        net.clock.now = 1_000_000
        assert net.windows_closed()


class TestLivePlanGrammar:
    HORIZON = 300_000_000

    def sample(self, seed, max_events=5):
        return FaultPlan.fuzzed(
            np.random.default_rng(seed),
            self.HORIZON,
            worker_nodes=[0, 1, 2],
            max_events=max_events,
            grammar=LIVE_GRAMMAR,
        )

    def test_deterministic_in_seed(self):
        assert self.sample(5).to_json() == self.sample(5).to_json()
        assert self.sample(5).to_json() != self.sample(6).to_json()

    def test_no_recirc_exhaustion_and_all_valid(self):
        for seed in range(40):
            plan = self.sample(seed)
            plan.validate()
            assert "RecircExhaustion" not in plan.kinds()

    def test_one_executor_always_survives(self):
        for seed in range(40):
            permanent = [
                e
                for e in self.sample(seed, max_events=8)
                if isinstance(e, WorkerCrash) and e.restart_after_ns is None
            ]
            assert len({e.node_id for e in permanent}) <= 2  # of 3 nodes

    def test_scenario_roundtrip_and_unknown_field(self):
        scenario = sample_scenario(9)
        assert ChaosScenario.from_dict(scenario.to_dict()) == scenario
        assert sample_scenario(9) == scenario  # seed-deterministic
        with pytest.raises(ConfigurationError, match="unknown fields"):
            ChaosScenario.from_dict({"seed": 1, "warp_factor": 9})


# -- oracle unit tests against stub clusters ----------------------------------


class StubRecord:
    def __init__(self, executor_id, in_flight=0, max_outstanding=2):
        self.executor_id = executor_id
        self.in_flight = in_flight
        self.max_outstanding = max_outstanding


class StubProgram:
    def check_invariants(self):
        pass

    def total_queued(self):
        return 0


class StubSwitch:
    def __init__(self, records=(), epoch_history=None):
        self.executors = {r.executor_id: r for r in records}
        self.epoch_history = epoch_history if epoch_history is not None else {}
        self.program = StubProgram()

    def add_install_hook(self, hook):
        pass


class StubClient:
    def __init__(self, submitted=0, done=0, pending=(), phantoms=0):
        self.uid = 0
        self.counters = {"phantoms": phantoms}
        self.tasks_submitted = submitted
        self.completed_count = done
        self._pending = set(pending)

    @property
    def pending_count(self):
        return len(self._pending)

    def pending_keys(self):
        return set(self._pending)

    def gave_up_keys(self):
        return set()


def check(switch, client):
    oracle = InvariantOracle(
        LiveEvidence(switch=switch, client=client, executors={})
    )
    return oracle.check_final()


class TestLiveOracle:
    def test_clean_cluster_passes(self):
        report = check(
            StubSwitch([StubRecord(1, in_flight=1)], {1: [1, 2, 3]}),
            StubClient(submitted=4, done=4),
        )
        assert report.ok, report.describe()

    def test_epoch_regression_flagged(self):
        report = check(
            StubSwitch([], {1: [1, 3, 2]}), StubClient()
        )
        assert [v.invariant for v in report.violations] == [
            "epoch-monotonicity"
        ]

    def test_phantom_completion_flagged(self):
        report = check(StubSwitch(), StubClient(phantoms=2))
        assert [v.invariant for v in report.violations] == [
            "task-conservation"
        ]

    def test_in_flight_bound_flagged(self):
        report = check(
            StubSwitch([StubRecord(1, in_flight=5)]), StubClient()
        )
        assert "in-flight-bound" in {v.invariant for v in report.violations}

    def test_in_flight_bound_checked_during_duplicating_windows(self):
        # The SoftSwitch enforces the bound where assignments are emitted,
        # so a wire-duplicated pull or completion cannot inflate a count:
        # every executor is judged while a duplicating window is open on
        # its link, exactly as outside one.
        net = make_net(
            [
                LinkFault(duplicate_prob=0.5, nodes=("exec1",), **WINDOW),
                LinkFault(loss_prob=1.0, nodes=("exec2",), **WINDOW),
            ]
        )
        assert net.active(("exec1",))[0].duplicate_prob > 0  # window open
        switch = StubSwitch(
            [
                StubRecord(1, in_flight=3),
                StubRecord(2, in_flight=3),
                StubRecord(3, in_flight=2),
            ]
        )
        report = InvariantOracle(
            LiveEvidence(
                switch=switch, client=StubClient(), executors={}, chaos=net
            )
        ).check_final()
        flagged = sorted(
            v.detail.split()[1]
            for v in report.violations
            if v.invariant == "in-flight-bound"
        )
        assert flagged == ["exec1", "exec2"]

    def test_suppressed_samples_reported_under_their_own_family(self):
        # One broken check repeats every sample; past the cap the rest
        # are only counted. The count must be reported under the family
        # that overflowed (the live oracle used to file every suppressed
        # sample under in-flight-bound, the sim one under
        # register-sanity), or the shrinker chases the wrong invariant.
        class BrokenProgram(StubProgram):
            def check_invariants(self):
                raise SwitchError("head pointer outside window")

        switch = StubSwitch([StubRecord(1, in_flight=1)])
        switch.program = BrokenProgram()
        driver = SimpleNamespace(now=0, call_at_cancellable=lambda *a: None)
        oracle = InvariantOracle(
            LiveEvidence(
                switch=switch, client=StubClient(), executors={}, driver=driver
            )
        )
        for _ in range(25):
            oracle._sample()
        report = oracle.check_final()
        suppressed = [v for v in report.violations if "suppressed" in v.detail]
        assert [(v.invariant, v.detail.split()[2]) for v in suppressed] == [
            ("register-sanity", "5")
        ]
        assert report.invariants_violated() == ["register-sanity"]

    def test_pending_after_drain_flagged(self):
        report = check(
            StubSwitch(),
            StubClient(submitted=1, pending={(0, 0, 0)}),
        )
        assert [v.invariant for v in report.violations] == [
            "task-conservation"
        ]
        assert "neither completed nor given up" in (
            report.violations[0].detail
        )


# -- end to end: real sockets, real faults ------------------------------------


def pinned_scenario(plan, seed=11, executors=2):
    return ChaosScenario(
        seed=seed,
        executors=executors,
        duration_s=0.25,
        plan_json=plan.to_json(),
    )


@pytest.fixture(scope="module")
def crash_run():
    """One seeded executor kill/restart scenario, shared across tests."""
    plan = FaultPlan(
        [WorkerCrash(at_ns=60_000_000, node_id=0, restart_after_ns=80_000_000)]
    )
    return run_live_chaos(pinned_scenario(plan), timeout_s=60.0)


class TestEndToEndChaos:
    def test_crash_triggers_reregistration_zero_loss(self, crash_run):
        assert crash_run.ok, [str(v) for v in crash_run.violations]
        assert crash_run.injected.get("worker_crashes", 0) == 1
        assert crash_run.injected.get("worker_restarts", 0) == 1
        assert crash_run.observed["reregistrations"] >= 1
        assert len(crash_run.observed["epoch_history"][0]) >= 2
        assert crash_run.observed["tasks_lost"] == 0
        assert crash_run.tasks_submitted > 0

    def test_switch_failover_zero_loss(self):
        plan = FaultPlan([SwitchFailover(at_ns=100_000_000)])
        run = run_live_chaos(pinned_scenario(plan, seed=13), timeout_s=60.0)
        assert run.ok, [str(v) for v in run.violations]
        assert run.injected.get("failovers", 0) >= 1
        assert run.observed["tasks_lost"] == 0

    def test_lossy_link_recovers_by_resubmission(self):
        plan = FaultPlan(
            [
                LinkFault(
                    start_ns=50_000_000,
                    end_ns=200_000_000,
                    loss_prob=0.4,
                    duplicate_prob=0.05,
                )
            ]
        )
        run = run_live_chaos(pinned_scenario(plan, seed=17), timeout_s=60.0)
        assert run.ok, [str(v) for v in run.violations]
        assert run.injected.get("loss_drops", 0) > 0
        assert run.observed["tasks_lost"] == 0

    def test_timeout_raises_with_diagnostics(self):
        scenario = sample_scenario(5)
        with pytest.raises(LiveTimeoutError, match="hard cap"):
            run_live_chaos(scenario, timeout_s=0.05)


class TestLiveArtifact:
    def test_roundtrip(self, crash_run, tmp_path):
        path = tmp_path / "crash.json"
        save_artifact(crash_run, str(path))
        payload = load_artifact(str(path), ChaosScenario)
        assert payload["version"] == LIVE_ARTIFACT_VERSION
        assert payload["kind"] == "live-chaos"
        assert payload["expected"]["ok"] == crash_run.ok
        assert (
            payload["expected"]["tasks_submitted"]
            == crash_run.tasks_submitted
        )
        assert payload["observed"]["reregistrations"] == (
            crash_run.observed["reregistrations"]
        )
        assert payload["scenario"] == crash_run.scenario

    def mutated(self, crash_run, tmp_path, **changes):
        path = tmp_path / "bad.json"
        save_artifact(crash_run, str(path))
        payload = json.loads(path.read_text())
        payload.update(changes)
        path.write_text(json.dumps(payload))
        return str(path)

    def test_wrong_version_rejected(self, crash_run, tmp_path):
        path = self.mutated(crash_run, tmp_path, version=99)
        with pytest.raises(ConfigurationError, match="version"):
            load_artifact(path, ChaosScenario)

    def test_wrong_kind_rejected(self, crash_run, tmp_path):
        path = self.mutated(crash_run, tmp_path, kind="sim-fuzz")
        with pytest.raises(ConfigurationError, match="live-chaos"):
            load_artifact(path, ChaosScenario)
