"""Live chaos: seeded fault injection for the real-socket runtime.

The chaos stack (plan grammar, injector, wire-fault model, oracle) is
shared with the simulator; this module is the live runtime's side of its
three contracts (DESIGN.md §5b):

* **wire faults** — :class:`ChaosTransport` wraps the
  :class:`~repro.live.base.UdpPort` of
  :class:`~repro.live.softswitch.SoftSwitch`,
  :class:`~repro.live.executor.LiveExecutor`,
  :class:`~repro.live.client.LiveClient` and the controller replicas. It
  matches each datagram against the plan's open windows on the link it
  travels and hands the verdict to the shared model
  (:func:`repro.faults.links.decide` / ``fuzz_parser``): loss,
  duplication, reorder/delay jitter, blackouts, and corruption under the
  FCS model — a mutated frame is a parser fuzz, then *always dropped*.
  Every datagram is *somebody's* send, so wrapping every component
  covers both directions of every link; a link is named by its
  non-switch end.
* **targets** — :class:`LiveTargets` is what the shared
  :class:`~repro.faults.injector.FaultInjector` acts on: ``WorkerCrash``
  kills an executor and restarts it on a *new socket* (exercising the
  epoch-bump / endpoint-move re-register path for real),
  ``WorkerSlowdown`` scales its ``time_scale``, ``SwitchFailover`` swaps
  in :meth:`SoftSwitch.standby_program` (with
  :class:`~repro.ctrl.checkpoint.CheckpointManager` replaying checkpoint
  + journal so queued tasks survive), ``ControllerCrash`` kills a
  replica.
* **scenarios** — :func:`sample_scenario` draws a recoverable
  :class:`ChaosScenario` from a seed and :func:`run_live_chaos` runs it
  under the shared :class:`~repro.verify.oracle.InvariantOracle`.

All randomness comes from named :class:`~repro.sim.rng.RngStreams`
streams, so a scenario's *decisions* (which packet dropped, which bits
flipped) replay deterministically from its seed; wall-clock interleaving
is the one thing that cannot (see DESIGN.md §9.4).
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.client_core import LIVE_CLIENT_CONFIG
from repro.ctrl.checkpoint import CheckpointManager
from repro.faults.events import (
    ControllerCrash,
    LinkFault,
    PacketCorruption,
    Partition,
    RecircExhaustion,
    event_end,
)
from repro.faults.injector import FaultInjector
from repro.faults.links import Degradation, decide, degradation_for, fuzz_parser
from repro.faults.plan import LIVE_GRAMMAR, FaultPlan, sample_ctrl_faults
from repro.live.base import Counters, Endpoint, WallTimers
from repro.live.ctrlplane import LiveControllerReplica, ctrl_name
from repro.live.loadgen import OpenLoopGen
from repro.live.runtime import (
    CLIENT_NAME,
    SWITCH_NAME,
    LiveCluster,
    LiveSpec,
    exec_name,
)
from repro.sim.rng import RngStreams
from repro.verify.evidence import LiveEvidence
from repro.verify.fuzzer import FuzzResult, ScenarioCodec
from repro.verify.oracle import InvariantOracle

#: wire-fault windows the transport layer matches at send time
_WIRE_FAULTS = (LinkFault, PacketCorruption, Partition)


# ---------------------------------------------------------------------------
# the fault-injecting datagram layer
# ---------------------------------------------------------------------------


class ChaosNet:
    """Shared state for every :class:`ChaosTransport` in one run.

    Holds the plan's wire-fault windows (each with the
    :class:`~repro.faults.links.Degradation` it puts on a link), the
    seeded RNG, the chaos clock origin (``arm()`` at workload start —
    fault windows are nanoseconds relative to it, the same convention the
    injector uses), and the endpoint → component-name registry that lets
    any transport name the link an outgoing packet will travel.
    """

    def __init__(
        self,
        plan: FaultPlan,
        rng: np.random.Generator,
        clock,
    ) -> None:
        self.rng = rng
        self.clock = clock
        self.counters = Counters()
        self.endpoints: Dict[Endpoint, str] = {}
        self.transports: List["ChaosTransport"] = []
        self._t0: Optional[int] = None
        self._windows: List[Tuple[Any, Degradation]] = [
            (event, degradation_for(event))
            for event in plan
            if isinstance(event, _WIRE_FAULTS)
        ]
        #: when the plan's last fault window ends (chaos-clock ns)
        self.last_end_ns = max((event_end(e) for e in plan.events), default=0)

    def arm(self) -> None:
        """Start the chaos clock; fault windows count from here."""
        self._t0 = self.clock.now

    @property
    def armed(self) -> bool:
        return self._t0 is not None

    def elapsed_ns(self) -> int:
        if self._t0 is None:
            return -1
        return self.clock.now - self._t0

    def windows_closed(self) -> bool:
        """True once every fault window in the plan has ended."""
        return self.armed and self.elapsed_ns() >= self.last_end_ns

    def register_endpoint(self, name: str, endpoint: Endpoint) -> None:
        self.endpoints[endpoint] = name

    def link_names(self, sender: str, addr) -> Tuple[str, ...]:
        """Which links a packet crosses, each named by its non-switch end.

        Everything is cabled to the switch, so a packet to or from it
        crosses one link — the other party's (connected sockets pass
        ``addr=None`` and only ever talk to the switch). Controller
        peer-to-peer sync crosses both peers' links. An unregistered
        destination leaves only window-wide (``nodes=None``) faults.
        """
        remote = None if addr is None else self.endpoints.get((addr[0], addr[1]))
        return tuple(
            name
            for name in (sender, remote)
            if name is not None and name != SWITCH_NAME
        )

    def active(self, links: Tuple[str, ...]) -> List[Degradation]:
        """Degradations whose window is open on any of ``links``."""
        now = self.elapsed_ns()
        return [
            degradation
            for event, degradation in self._windows
            if event.start_ns <= now < event.end_ns
            and (
                event.nodes is None
                or any(link in event.nodes for link in links)
            )
        ]

    def count_drop(self, corrupt: bool, culprit: Degradation, data: bytes) -> None:
        """Account one dropped datagram; a corrupted one fuzzes the parser.

        The FCS model: the mutated frame never reaches the peer (a real
        NIC discards a frame whose checksum fails), but decoding it is a
        free protocol-parser fuzz — anything but ``ProtocolError`` out of
        the codec is a bug the oracle flags.
        """
        if corrupt:
            try:
                fuzz_parser(self.rng, culprit, data)
            except Exception:
                self.counters.incr("parser_crashes")
            self.counters.incr("corrupt_drops")
        elif any(
            d is culprit and isinstance(e, Partition) for e, d in self._windows
        ):
            self.counters.incr("partition_drops")
        else:
            self.counters.incr("loss_drops")

    def wrap(self, name: str) -> Callable:
        """A ``transport_wrap`` factory for one named component.

        Registers the transport's local endpoint under ``name`` (so
        sends toward it are attributed to the same link) and returns the
        wrapping :class:`ChaosTransport`.
        """

        def factory(transport) -> "ChaosTransport":
            sockname = transport.get_extra_info("sockname")
            if sockname:
                self.register_endpoint(name, (sockname[0], sockname[1]))
            wrapped = ChaosTransport(self, name, transport)
            self.transports.append(wrapped)
            return wrapped

        return factory

    def pending_delayed(self) -> int:
        """Reorder-delayed packets not yet released (quiescence check)."""
        return sum(t.delayed.pending() for t in self.transports)


class ChaosTransport:
    """A fault-injecting façade over one :class:`~repro.live.base.UdpPort`.

    Injection is send-side only — sufficient because every packet is
    someone's send. What happens to a datagram is decided by the shared
    wire-fault model from the shared seeded RNG; this class only finds
    the open windows on the packet's link and releases delayed copies.
    """

    def __init__(self, net: ChaosNet, name: str, inner) -> None:
        self.net = net
        self.name = name
        self.inner = inner
        self.delayed = WallTimers(net.clock)
        self._closing = False

    def sendto(self, data: bytes, addr=None) -> None:
        net = self.net
        if not net.armed:
            self.inner.sendto(data, addr)
            return
        links = net.link_names(self.name, addr)
        decision, culprit = decide(net.rng, net.active(links))
        if decision is None:
            self.inner.sendto(data, addr)
            return
        if decision.drop:
            net.count_drop(decision.corrupt, culprit, data)
            return
        copies = 1
        if decision.duplicate:
            net.counters.incr("wire_duplicates")
            copies = 2
        if decision.extra_delay_ns > 0:
            net.counters.incr("reorder_delays")
            when_ns = net.clock.now + decision.extra_delay_ns
            for _ in range(copies):
                self.delayed.call_at_cancellable(
                    when_ns, self._release, data, addr
                )
        else:
            for _ in range(copies):
                self.inner.sendto(data, addr)

    def _release(self, data: bytes, addr) -> None:
        if not self._closing and not self.inner.is_closing():
            self.inner.sendto(data, addr)

    # -- transport façade --------------------------------------------------

    def close(self) -> None:
        self._closing = True
        self.delayed.close()
        self.inner.close()

    abort = close  # a UdpPort has nothing to flush: same thing

    def is_closing(self) -> bool:
        return self._closing or self.inner.is_closing()

    def get_extra_info(self, name: str, default=None):
        return self.inner.get_extra_info(name, default)


# ---------------------------------------------------------------------------
# process-level faults
# ---------------------------------------------------------------------------


class LiveTargets:
    """The live cluster as the shared fault injector sees it.

    Implements the *targets* contract documented on
    :class:`repro.faults.injector.SimTargets`. Killed components are not
    resurrected in place: a restart builds a new incarnation on a new
    socket and starts it on ``timers`` (the injector's own
    :class:`~repro.live.base.WallTimers`, so "every restart finished" is
    part of its ``idle()``).
    """

    def __init__(
        self,
        timers: WallTimers,
        cluster: LiveCluster,
        chaos: ChaosNet,
        controllers: Dict[int, LiveControllerReplica],
        make_controller: Callable[[int], LiveControllerReplica],
    ) -> None:
        self.timers = timers
        self.cluster = cluster
        self.chaos = chaos
        self.controllers = controllers
        self.make_controller = make_controller
        #: killed replicas, kept for stats and teardown
        self.ctrl_retired: List[LiveControllerReplica] = []

    def check(self, event) -> bool:
        if isinstance(event, RecircExhaustion):
            # the soft switch recirculates inline: no backlog queue to shrink
            return False
        if isinstance(event, ControllerCrash):
            return bool(self.controllers)
        return True

    def crash(self, node_id: int) -> None:
        executor = self.cluster.executors.get(node_id)
        if executor is not None and not executor.closed:
            self.cluster.retired.append(executor)
            executor.kill()

    def restart(self, node_id: int) -> None:
        # A fresh socket: the OS hands out a new ephemeral port, so the
        # re-register is also an endpoint move — the switch must bump the
        # epoch and re-home the record, or completions go to a dead port.
        executor = self.cluster.make_executor(node_id)
        self.cluster.executors[node_id] = executor
        self.timers.spawn(executor.start())

    def set_speed(self, node_id: int, factor: float) -> None:
        executor = self.cluster.executors.get(node_id)
        if executor is not None:
            executor.config.time_scale = factor

    def failover(self) -> None:
        switch = self.cluster.switch
        switch.install_program(switch.standby_program())

    def ctrl_crash(self, replica_id: int) -> None:
        replica = self.controllers.get(replica_id)
        if replica is not None and not replica.closed:
            self.ctrl_retired.append(replica)
            replica.kill()

    def ctrl_restart(self, replica_id: int) -> None:
        # Fresh socket, fresh incarnation: the replica rejoins as a
        # follower at term 0 and relearns the current term from acks and
        # peer sync — it must never be granted a stale term again (the
        # register only moves forward).
        replica = self.make_controller(replica_id)
        self.controllers[replica_id] = replica
        self.timers.spawn(replica.start())

    def wire(self, event) -> None:
        """Nothing to schedule: :class:`ChaosNet` matches the plan's wire
        windows against the chaos clock per datagram."""
        return None

    def injected_totals(self) -> Dict[str, int]:
        return dict(self.chaos.counters)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


@dataclass
class ChaosScenario(ScenarioCodec):
    """One seed-deterministic live chaos run, fully pinned.

    Live durations are short (hundreds of milliseconds of workload, a
    generous drain) because wall-clock seconds are CI seconds; the retry
    budget and resubmit timeout are deliberately generous so a plan from
    the recoverable grammar *can* always converge — an oracle violation
    then means a bug, not an impossible scenario.
    """

    seed: int
    executors: int = 3
    policy: str = "fcfs"  # "fcfs" | "priority"
    rate_tps: float = 400.0
    duration_s: float = 0.3
    drain_s: float = 6.0
    tasks_per_job: int = 2
    mean_us: float = 100.0
    max_outstanding: int = 2
    resubmit_timeout_s: float = 0.25
    max_retries: int = 24
    checkpoint_interval_s: float = 0.05
    max_events: int = 5
    #: 0 = no live control plane (the pre-replication default); >= 2
    #: runs that many LiveControllerReplica endpoints electing through
    #: the soft switch, and the plan may contain ControllerCrash events
    controller_replicas: int = 0
    plan_json: str = ""

    ARTIFACT_KIND = "live-chaos"

    def features(self) -> str:
        """Result-row flags: Replicated control plane, prioritY policy."""
        return ("R" if self.controller_replicas >= 2 else "") + (
            "Y" if self.policy == "priority" else ""
        )

    def plan(self) -> FaultPlan:
        return FaultPlan.from_json(self.plan_json)

    def spec(self) -> LiveSpec:
        """The workload half, as the live runtime describes workloads."""
        return LiveSpec(
            executors=self.executors,
            policy=self.policy,
            seed=self.seed,
            rate_tps=self.rate_tps,
            duration_s=self.duration_s,
            tasks_per_job=self.tasks_per_job,
            dist="exponential",
            mean_us=self.mean_us,
            max_outstanding=self.max_outstanding,
            drain_s=self.drain_s,
        )


def sample_scenario(
    seed: int,
    max_events: int = 5,
    duration_s: float = 0.3,
    controller_replicas: Optional[int] = None,
) -> ChaosScenario:
    """Sample one scenario; the seed fully determines workload and plan.

    ``controller_replicas=None`` samples the toggle (half the runs get a
    3-replica live control plane); an explicit value pins it, which is
    what the CI matrix uses. Replication decisions draw from their own
    RNG streams so pre-replication seeds still produce byte-identical
    scenarios when the toggle is pinned to 0.
    """
    rngs = RngStreams(seed)
    rng = rngs.stream("live-fuzz")
    scenario = ChaosScenario(
        seed=seed,
        policy="priority" if rng.random() < 0.3 else "fcfs",
        rate_tps=float(rng.choice([200.0, 400.0, 800.0])),
        duration_s=duration_s,
        max_events=max_events,
    )
    if controller_replicas is None:
        rep_rng = rngs.stream("live-fuzz-ctrl")
        controller_replicas = 3 if rep_rng.random() < 0.5 else 0
    scenario.controller_replicas = int(controller_replicas)
    horizon_ns = int(scenario.duration_s * 1e9)
    executor_ids = list(range(scenario.executors))
    plan = FaultPlan.fuzzed(
        rng,
        horizon_ns,
        worker_nodes=executor_ids,
        worker_names=[exec_name(i) for i in executor_ids] + [CLIENT_NAME],
        max_events=max_events,
        grammar=LIVE_GRAMMAR,
    )
    events = list(plan.events)
    if scenario.controller_replicas >= 2:
        events.extend(
            sample_ctrl_faults(
                rngs.stream("live-fuzz-ctrl-plan"),
                horizon_ns,
                replica_ids=list(range(scenario.controller_replicas)),
                ctrl_names=[
                    ctrl_name(i)
                    for i in range(scenario.controller_replicas)
                ],
                max_events=2,
            )
        )
        plan = FaultPlan(events)
    scenario.plan_json = plan.to_json()
    return scenario


# ---------------------------------------------------------------------------
# running one scenario
# ---------------------------------------------------------------------------


async def run_live_chaos_async(
    scenario: ChaosScenario, timeout_s: Optional[float] = None
) -> FuzzResult:
    """Run one chaos scenario end to end in this event loop."""
    spec = scenario.spec()
    plan = scenario.plan()
    rngs = RngStreams(scenario.seed)
    cluster = LiveCluster(
        spec,
        rngs,
        client_config=replace(
            LIVE_CLIENT_CONFIG,
            timeout_floor_ns=int(scenario.resubmit_timeout_s * 1e9),
            max_retries=scenario.max_retries,
        ),
    )
    switch, clock = cluster.switch, cluster.clock
    chaos = ChaosNet(plan, rng=rngs.stream("live-chaos"), clock=clock)
    cluster.wrap = chaos.wrap
    # Two drivers: the checkpoint loop and the oracle's sampler tick
    # forever; the injector's timers and restarts must all have finished
    # before the run may be judged quiescent.
    timers = WallTimers(clock)
    fault_timers = WallTimers(clock)
    controllers: Dict[int, LiveControllerReplica] = {}

    def make_controller(replica_id: int) -> LiveControllerReplica:
        replica = LiveControllerReplica(
            replica_id=replica_id,
            switch=switch.endpoint,
            clock=clock,
            transport_wrap=chaos.wrap(ctrl_name(replica_id)),
        )
        replica.peer_resolver = lambda: [
            r.endpoint
            for r in controllers.values()
            if not r.closed and r.endpoint is not None
        ]
        return replica

    targets = LiveTargets(
        fault_timers, cluster, chaos, controllers, make_controller
    )
    injector = FaultInjector(fault_timers, plan, targets)

    async def drive() -> FuzzResult:
        await cluster.start()
        client = cluster.client
        checkpoints = CheckpointManager(
            timers,  # type: ignore[arg-type]
            switch,
            interval_ns=int(scenario.checkpoint_interval_s * 1e9),
        )
        if scenario.controller_replicas >= 2:
            for i in range(scenario.controller_replicas):
                controllers[i] = make_controller(i)
                await controllers[i].start()
        oracle = InvariantOracle(
            LiveEvidence(
                switch=switch,
                client=client,
                executors=cluster.executors,
                driver=timers,
                chaos=chaos,
                fault_timers=fault_timers,
                controllers=controllers,
                checkpoints=checkpoints,
            )
        ).attach()

        start_ns = clock.now
        chaos.arm()
        injector.arm()
        gen = OpenLoopGen(client, spec.events(rngs), clock=clock)
        await gen.run()

        await client.drain(scenario.drain_s)
        # Every fault window must close before the final sweep — a
        # partition still open at check time is not a violation, it is
        # the scenario.
        while not chaos.windows_closed():
            await asyncio.sleep(0.01)
        # A leader killed near the end of the horizon needs up to one
        # lease + one poll before a successor is granted the next term;
        # give the election that long before the oracle demands a leader.
        if controllers:
            ctrl_deadline = clock.now + int(1.0 * 1e9)
            while clock.now < ctrl_deadline:
                alive = [r for r in controllers.values() if not r.closed]
                if not alive or any(r.is_leader() for r in alive):
                    break
                await asyncio.sleep(0.01)
        # Settle: late completions, reorder-delayed stragglers, the last
        # queued tasks behind a slow executor.
        deadline = clock.now + int(2.0 * 1e9)
        while clock.now < deadline:
            if (
                client.pending_count == 0
                and switch.total_queued() == 0
                and chaos.pending_delayed() == 0
                and fault_timers.idle()
            ):
                break
            await asyncio.sleep(0.02)
        await asyncio.sleep(0.05)

        wall_ns = clock.now - start_ns
        report = oracle.check_final()
        observed: Dict[str, Any] = {
            "tasks_lost": client.lost_count,
            "duplicates": client.counters.get("duplicates", 0),
            "resubmits": client.counters.get("resubmits", 0),
            # re-registrations beyond each executor's first (epoch bumps)
            "reregistrations": sum(
                len(history) - 1 for history in switch.epoch_history.values()
            ),
            "wall_s": round(wall_ns / 1e9, 2),
            "epoch_history": {
                k: list(v) for k, v in switch.epoch_history.items()
            },
        }
        if controllers:
            live_replicas = list(controllers.values())
            observed["ctrl"] = {
                "election": switch.election.audit(),
                "replicas": [r.stats() for r in live_replicas],
                "retired": [
                    r.stats()
                    for r in targets.ctrl_retired
                    if r not in live_replicas
                ],
            }
        return FuzzResult(
            scenario=scenario,
            ok=report.ok,
            violations=list(report.violations),
            checks=report.checks,
            tasks_submitted=client.tasks_submitted,
            tasks_completed=client.completed_count,
            faults_fired=injector.stats.total(),
            injected=_fired(injector),
            observed=observed,
        )

    try:
        return await cluster.guarded(
            drive,
            timeout_s,
            f"live chaos run (seed {scenario.seed})",
            lambda: f"plan: {plan.describe()}\n"
            f"injected: {_fired(injector)}\n",
        )
    finally:
        await fault_timers.aclose()
        await timers.aclose()
        for replica in targets.ctrl_retired + list(controllers.values()):
            await replica.aclose()
        await cluster.aclose()


def _fired(injector: FaultInjector) -> Dict[str, int]:
    """What actually fired: per-packet wire counters + the injector's
    non-zero process-fault counts."""
    fired = injector.injected_totals()
    fired.update({k: n for k, n in asdict(injector.stats).items() if n})
    return fired


def run_live_chaos(
    scenario: ChaosScenario, timeout_s: Optional[float] = None
) -> FuzzResult:
    """Synchronous wrapper: one fresh event loop per scenario."""
    return asyncio.run(run_live_chaos_async(scenario, timeout_s=timeout_s))
