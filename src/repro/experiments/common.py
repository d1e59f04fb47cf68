"""Shared cluster builder and run loop for every experiment.

``build_cluster`` wires up any of the six schedulers the paper compares
(§8 "Schedulers") behind the same workload/client/metrics machinery, so a
figure module is just a parameter sweep:

    config = ClusterConfig(scheduler="draconis")
    result = run_workload(config, workload_factory, duration_ns=ms(200))
    print(result.scheduling.row())
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.baselines.push_worker import PushWorker
from repro.baselines.r2p2 import R2P2Program
from repro.baselines.racksched import RackSchedProgram
from repro.baselines.server_scheduler import (
    DPDK_SERVER,
    SOCKET_SERVER,
    ServerProfile,
    ServerScheduler,
)
from repro.baselines.sparrow import SparrowScheduler
from repro.cluster.client import Client, ClientConfig
from repro.cluster.executor import ExecutorConfig, LocalityCostModel
from repro.cluster.task import SubmitEvent
from repro.cluster.worker import Worker, WorkerSpec
from repro.core.policies import Policy
from repro.core.scheduler import DEFAULT_PULL_TTL_NS, DraconisProgram
from repro.ctrl import (
    DEFAULT_JOURNAL_CAPACITY,
    DEFAULT_LEASE_NS,
    CheckpointManager,
    Controller,
    ControllerGroup,
    DegradationPolicy,
)
from repro.errors import ConfigurationError
from repro.experiments import calibration
from repro.faults import FaultInjector, FaultPlan, SimTargets
from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import (
    LatencySummary,
    NetworkFaultSummary,
    summarize_links,
    summarize_ns,
)
from repro.net.packet import Address
from repro.net.topology import BaseSwitch, StarTopology
from repro.obs.bus import TelemetryBus
from repro.sim.core import Simulator, ms
from repro.sim.rng import RngStreams
from repro.switchsim.pipeline import ProgrammableSwitch

SCHEDULERS = (
    "draconis",
    "draconis-dpdk",
    "draconis-socket",
    "r2p2",
    "racksched",
    "sparrow",
)


@dataclass
class ClusterConfig:
    """Everything needed to stand up one scheduler configuration."""

    scheduler: str = "draconis"
    workers: int = calibration.DEFAULT_WORKERS
    executors_per_worker: int = calibration.DEFAULT_EXECUTORS_PER_WORKER
    racks: int = 1
    seed: int = 0
    # Draconis
    policy: Optional[Policy] = None
    queue_capacity: int = 16_384
    record_queue_delays: bool = False
    retrieve_mode: str = "conditional"  # or "delayed" (§4.5 ablation)
    queues_in_stages: bool = False  # Tofino 2 layout, no ladder recirc (§8.7)
    park_pulls: bool = False  # park empty-queue pulls instead of no-op reply
    pull_ttl_ns: int = DEFAULT_PULL_TTL_NS  # parked-pull expiry (crash GC)
    # control plane (repro.ctrl, draconis only)
    controller: bool = False  # heartbeat-lease membership + reclaim
    #: >=2 replaces the single controller with a ControllerGroup
    #: (repro.ctrl.replication): switch-arbitrated leader election,
    #: term fencing, and leader->follower state sync
    controller_replicas: int = 1
    lease_ns: int = DEFAULT_LEASE_NS
    heartbeat_interval_ns: Optional[int] = None  # None = ExecutorConfig default
    checkpoint_interval_ns: Optional[int] = None  # None = no checkpointing
    journal_capacity: int = DEFAULT_JOURNAL_CAPACITY
    degradation: Optional[DegradationPolicy] = None  # None = accept-or-bounce
    # R2P2
    jbsq_k: int = 3
    # RackSched intra-node policy: cFCFS (default, light-tailed) or
    # Processor Sharing with preemption (heavy-tailed, §2.2)
    racksched_processor_sharing: bool = False
    # Sparrow
    sparrow_schedulers: int = 1
    # executors / clients
    poll_interval_ns: int = calibration.POLL_INTERVAL_NS
    record_pull_rtts: bool = False
    exec_rsrc_for_node: Optional[Callable[[int], int]] = None
    locality_cost: Optional[LocalityCostModel] = None
    timeout_factor: Optional[float] = None
    tasks_per_packet: Optional[int] = None  # None = codec max (32)
    clients: int = 1
    # switch
    recirc_pps: int = calibration.RECIRC_PPS
    recirc_queue_packets: int = calibration.RECIRC_QUEUE_PACKETS
    # observability: attach this telemetry bus to the collector, switch,
    # links and executors (None = uninstrumented, the zero-cost default)
    obs: Optional[TelemetryBus] = None

    @property
    def total_executors(self) -> int:
        return self.workers * self.executors_per_worker

    def worker_specs(self) -> List[WorkerSpec]:
        specs = []
        for node_id in range(self.workers):
            rack_id = node_id * self.racks // self.workers
            resources = (
                self.exec_rsrc_for_node(node_id)
                if self.exec_rsrc_for_node
                else 0
            )
            specs.append(
                WorkerSpec(
                    node_id=node_id,
                    rack_id=rack_id,
                    executors=self.executors_per_worker,
                    resources=resources,
                )
            )
        return specs

    def standby_program(self) -> DraconisProgram:
        """The standby switch's program for a ``SwitchFailover``.

        Configured like the active one but always *built* empty — the
        paper's failover story (§3.3): queued-but-unassigned tasks are
        lost and repaired by client resubmission, unless a
        CheckpointManager install hook replays checkpoint + journal into
        it before it sees a packet.
        """
        return DraconisProgram(
            policy=self.policy,
            queue_capacity=self.queue_capacity,
            retrieve_mode=self.retrieve_mode,
            queues_in_stages=self.queues_in_stages,
            park_pulls=self.park_pulls,
            pull_ttl_ns=self.pull_ttl_ns,
        )

    def node_racks(self) -> Dict[int, int]:
        return {s.node_id: s.rack_id for s in self.worker_specs()}


@dataclass
class ClusterHandles:
    """Live objects of a built cluster."""

    sim: Simulator
    topology: StarTopology
    collector: MetricsCollector
    scheduler_address: Address
    clients: List[Client] = field(default_factory=list)
    workers: List[object] = field(default_factory=list)
    switch: Optional[ProgrammableSwitch] = None
    draconis: Optional[DraconisProgram] = None
    server: Optional[ServerScheduler] = None
    sparrows: List[SparrowScheduler] = field(default_factory=list)
    r2p2: Optional[R2P2Program] = None
    racksched: Optional[RackSchedProgram] = None
    controller: Optional[Controller] = None
    ctrl_group: Optional[ControllerGroup] = None
    checkpoints: Optional[CheckpointManager] = None


def arm_faults(
    handles: ClusterHandles, config: ClusterConfig, plan: FaultPlan, rng
) -> FaultInjector:
    """Arm ``plan`` on a built cluster with every fault target wired."""
    targets = SimTargets(
        handles.sim,
        handles.topology,
        workers=handles.workers,
        switch=handles.switch,
        controllers=handles.ctrl_group or handles.controller,
        program_factory=config.standby_program,
        rng=rng,
    )
    return FaultInjector(handles.sim, plan, targets).arm()


@dataclass
class RunResult:
    """Summary of one run, the unit every figure is assembled from."""

    config: ClusterConfig
    duration_ns: int
    tasks_submitted: int
    tasks_completed: int
    tasks_unfinished: int
    resubmissions: int
    bounces: int
    scheduling: LatencySummary
    end_to_end: LatencySummary
    throughput_tps: float
    recirculation_fraction: float
    recirc_dropped: int
    utilization: float
    scheduling_delays_ns: List[int] = field(default_factory=list)
    end_to_end_ns: List[int] = field(default_factory=list)
    queue_delays: List[Tuple[int, int]] = field(default_factory=list)
    placements: Dict[str, float] = field(default_factory=dict)
    delays_by_priority: Dict[int, List[int]] = field(default_factory=dict)
    network: Optional[NetworkFaultSummary] = None

    @property
    def drop_fraction(self) -> float:
        if self.tasks_submitted == 0:
            return 0.0
        return self.tasks_unfinished / self.tasks_submitted


def build_cluster(
    config: ClusterConfig,
    workloads: List[Iterable[SubmitEvent]],
    rngs: Optional[RngStreams] = None,
) -> ClusterHandles:
    """Stand up the configured scheduler plus workers and clients.

    ``workloads``: one event stream per client (round-robin split done by
    the caller or :func:`run_workload`).
    """
    if config.scheduler not in SCHEDULERS:
        raise ConfigurationError(
            f"unknown scheduler {config.scheduler!r}; one of {SCHEDULERS}"
        )
    if len(workloads) != config.clients:
        raise ConfigurationError(
            f"need {config.clients} workload streams, got {len(workloads)}"
        )
    if config.scheduler != "draconis" and (
        config.controller
        or config.checkpoint_interval_ns is not None
        or config.degradation is not None
    ):
        raise ConfigurationError(
            "controller/checkpointing/degradation (repro.ctrl) only apply "
            f"to the draconis scheduler, not {config.scheduler!r}"
        )
    rngs = rngs or RngStreams(config.seed)
    sim = Simulator()
    collector = MetricsCollector()
    handles = ClusterHandles(
        sim=sim,
        topology=None,  # type: ignore[arg-type]
        collector=collector,
        scheduler_address=None,  # type: ignore[arg-type]
    )

    if config.scheduler == "draconis":
        program = DraconisProgram(
            policy=config.policy,
            queue_capacity=config.queue_capacity,
            record_queue_delays=config.record_queue_delays,
            retrieve_mode=config.retrieve_mode,
            queues_in_stages=config.queues_in_stages,
            park_pulls=config.park_pulls,
            pull_ttl_ns=config.pull_ttl_ns,
            degradation=config.degradation,
        )
        switch = ProgrammableSwitch(
            sim,
            program,
            recirc_pps=config.recirc_pps,
            recirc_queue_packets=config.recirc_queue_packets,
            recirc_latency_ns=calibration.RECIRC_LATENCY_NS,
        )
        topology = StarTopology(sim, switch)
        handles.switch, handles.draconis = switch, program
        handles.scheduler_address = switch.service_address
        controller_address = None
        if config.checkpoint_interval_ns is not None:
            handles.checkpoints = CheckpointManager(
                sim,
                switch,
                interval_ns=config.checkpoint_interval_ns,
                journal_capacity=config.journal_capacity,
                obs=config.obs,
            )
        if config.controller:
            if config.controller_replicas >= 2:
                handles.ctrl_group = ControllerGroup(
                    sim,
                    topology,
                    switch,
                    program=program,
                    replicas=config.controller_replicas,
                    lease_ns=config.lease_ns,
                    obs=config.obs,
                    checkpoints=handles.checkpoints,
                )
                # Executors broadcast heartbeats to every replica so
                # followers keep warm lease tables for takeover.
                controller_address = tuple(handles.ctrl_group.addresses())
            else:
                handles.controller = Controller(
                    sim,
                    topology,
                    lease_ns=config.lease_ns,
                    program=program,
                    switch=switch,
                    obs=config.obs,
                )
                controller_address = handles.controller.address
        _build_pull_workers(
            config, sim, topology, collector, handles,
            controller=controller_address,
        )
    elif config.scheduler in ("draconis-dpdk", "draconis-socket"):
        switch = BaseSwitch(sim)
        topology = StarTopology(sim, switch)
        profile = (
            DPDK_SERVER if config.scheduler == "draconis-dpdk" else SOCKET_SERVER
        )
        server = ServerScheduler(
            sim, topology, profile=profile, queue_capacity=config.queue_capacity
        )
        handles.server = server
        handles.scheduler_address = server.address
        _build_pull_workers(config, sim, topology, collector, handles)
    elif config.scheduler == "r2p2":
        program = None  # placed after workers exist (needs addresses)
        switch = ProgrammableSwitch(
            sim,
            _DeferredProgram(),
            recirc_pps=config.recirc_pps,
            recirc_queue_packets=config.recirc_queue_packets,
            recirc_latency_ns=calibration.RECIRC_LATENCY_NS,
        )
        topology = StarTopology(sim, switch)
        handles.switch = switch
        handles.scheduler_address = switch.service_address
        executor_addresses: List[Address] = []
        for spec in config.worker_specs():
            worker = PushWorker(
                sim,
                topology,
                spec,
                collector,
                scheduler=handles.scheduler_address,
                executor_id_base=spec.node_id * config.executors_per_worker,
                per_executor_queues=True,
            )
            handles.workers.append(worker)
            executor_addresses.extend(
                worker.executor_address(i) for i in range(spec.executors)
            )
        program = R2P2Program(
            executor_addresses,
            bound_k=config.jbsq_k,
            rng=rngs.stream("r2p2-sampling"),
        )
        switch.program = program
        program.attach(switch)
        handles.r2p2 = program
    elif config.scheduler == "racksched":
        switch = ProgrammableSwitch(
            sim,
            _DeferredProgram(),
            recirc_pps=config.recirc_pps,
            recirc_queue_packets=config.recirc_queue_packets,
            recirc_latency_ns=calibration.RECIRC_LATENCY_NS,
        )
        topology = StarTopology(sim, switch)
        handles.switch = switch
        handles.scheduler_address = switch.service_address
        monitor_addresses: List[Address] = []
        executors_per_node: List[int] = []
        for spec in config.worker_specs():
            worker = PushWorker(
                sim,
                topology,
                spec,
                collector,
                scheduler=handles.scheduler_address,
                executor_id_base=spec.node_id * config.executors_per_worker,
                per_executor_queues=False,
                intra_node_overhead_ns=calibration.INTRA_NODE_OVERHEAD_NS,
                intra_node_overhead_sigma=calibration.INTRA_NODE_OVERHEAD_SIGMA,
                processor_sharing=config.racksched_processor_sharing,
            )
            handles.workers.append(worker)
            monitor_addresses.append(worker.monitor_address())
            executors_per_node.append(spec.executors)
        program = RackSchedProgram(
            monitor_addresses,
            executors_per_node,
            rng=rngs.stream("racksched-sampling"),
        )
        switch.program = program
        program.attach(switch)
        handles.racksched = program
    elif config.scheduler == "sparrow":
        switch = BaseSwitch(sim)
        topology = StarTopology(sim, switch)
        monitors: List[Tuple[Address, Address]] = []
        for spec in config.worker_specs():
            worker = PushWorker(
                sim,
                topology,
                spec,
                collector,
                scheduler=Address("sparrow0", 9000),
                executor_id_base=spec.node_id * config.executors_per_worker,
                per_executor_queues=False,
                completion_direct=True,
            )
            handles.workers.append(worker)
            monitors.append((worker.monitor_address(), worker.probe_address()))
        for i in range(config.sparrow_schedulers):
            handles.sparrows.append(
                SparrowScheduler(
                    sim,
                    topology,
                    monitors,
                    name=f"sparrow{i}",
                    probes_per_task=calibration.SPARROW_PROBES_PER_TASK,
                    per_message_ns=calibration.SPARROW_PER_MESSAGE_NS,
                    cores=calibration.SPARROW_CORES,
                    task_overhead_ns=calibration.SPARROW_TASK_OVERHEAD_NS,
                    task_overhead_jitter=calibration.SPARROW_TASK_OVERHEAD_JITTER,
                    rng=rngs.stream(f"sparrow-{i}"),
                )
            )
        handles.scheduler_address = handles.sparrows[0].address

    handles.topology = topology

    client_config = ClientConfig(
        bounce_retry_ns=calibration.CLIENT_BOUNCE_RETRY_NS,
        timeout_factor=config.timeout_factor,
    )
    if config.tasks_per_packet is not None:
        client_config = replace(
            client_config, max_tasks_per_packet=config.tasks_per_packet
        )
    for i, workload in enumerate(workloads):
        host = topology.add_host(f"client{i}")
        if config.scheduler == "sparrow":
            scheduler_addr = handles.sparrows[
                i % len(handles.sparrows)
            ].address
        else:
            scheduler_addr = handles.scheduler_address
        handles.clients.append(
            Client(
                sim,
                host,
                uid=i,
                scheduler=scheduler_addr,
                workload=workload,
                collector=collector,
                config=client_config,
            )
        )
    if config.obs is not None:
        attach_obs(config.obs, handles)
    return handles


def attach_obs(bus: TelemetryBus, handles: ClusterHandles) -> None:
    """Point every instrumented component of a built cluster at ``bus``.

    Idempotent; safe to call again after a switch failover installs a
    fresh program (programs read the bus through ``switch.obs``).
    """
    handles.collector.bind_obs(bus)
    if handles.switch is not None:
        handles.switch.obs = bus
    for worker in handles.workers:
        if isinstance(worker, Worker):
            worker.attach_obs(bus)
    for link in handles.topology.links():
        link.obs = bus


class _DeferredProgram:
    """Placeholder while worker addresses are being created."""

    service_port = 9000

    def attach(self, switch) -> None:
        pass

    def wants(self, packet) -> bool:
        return packet.dst.port == self.service_port

    def process(self, ctx, packet):
        raise ConfigurationError("switch program was never installed")


def _build_pull_workers(
    config: ClusterConfig,
    sim: Simulator,
    topology: StarTopology,
    collector: MetricsCollector,
    handles: ClusterHandles,
    controller: object = None,  # Address | Sequence[Address] | None
) -> None:
    exec_config = ExecutorConfig(
        poll_interval_ns=config.poll_interval_ns,
        locality=config.locality_cost,
        record_pull_rtts=config.record_pull_rtts,
    )
    if config.heartbeat_interval_ns is not None:
        exec_config.heartbeat_interval_ns = config.heartbeat_interval_ns
    rngs = RngStreams(config.seed)
    for spec in config.worker_specs():
        handles.workers.append(
            Worker(
                sim,
                topology,
                spec,
                scheduler=handles.scheduler_address,
                collector=collector,
                config=replace(exec_config, exec_rsrc=spec.resources),
                executor_id_base=spec.node_id * config.executors_per_worker,
                rng=rngs.stream(f"worker-{spec.node_id}"),
                controller=controller,
            )
        )


def split_round_robin(
    events: Iterable[SubmitEvent], ways: int
) -> List[List[SubmitEvent]]:
    """Split one event stream across ``ways`` clients."""
    streams: List[List[SubmitEvent]] = [[] for _ in range(ways)]
    for i, event in enumerate(events):
        streams[i % ways].append(event)
    return streams


def run_workload(
    config: ClusterConfig,
    workload_factory: Callable[[RngStreams], Iterator[SubmitEvent]],
    duration_ns: int,
    warmup_ns: int = 0,
    drain_ns: int = ms(5),
    mean_duration_ns: Optional[float] = None,
) -> RunResult:
    """Build, run, and summarize one configuration."""
    rngs = RngStreams(config.seed)
    events = list(workload_factory(rngs))
    workloads = split_round_robin(events, config.clients)
    handles = build_cluster(config, workloads, rngs=rngs)
    handles.sim.run(until=duration_ns + drain_ns)

    collector = handles.collector
    delays = collector.scheduling_delays(since=warmup_ns)
    e2e = collector.end_to_end_latencies(since=warmup_ns)
    throughput = collector.throughput_tps(warmup_ns, duration_ns + drain_ns)
    recirc_fraction = (
        handles.switch.stats.recirculation_fraction() if handles.switch else 0.0
    )
    recirc_dropped = handles.switch.stats.recirc_dropped if handles.switch else 0

    busy = 0
    for worker in handles.workers:
        if isinstance(worker, Worker):
            busy += sum(e.stats.busy_time_ns for e in worker.executors)
        elif isinstance(worker, PushWorker):
            busy += worker.busy_time_ns
    elapsed = handles.sim.now
    utilization = (
        busy / (elapsed * config.total_executors) if elapsed else 0.0
    )

    return RunResult(
        config=config,
        duration_ns=duration_ns,
        tasks_submitted=collector.submitted_count(),
        tasks_completed=collector.completed_count(),
        tasks_unfinished=collector.unfinished_count(),
        resubmissions=collector.resubmissions,
        bounces=collector.bounce_retries,
        scheduling=summarize_ns(delays),
        end_to_end=summarize_ns(e2e),
        throughput_tps=throughput,
        recirculation_fraction=recirc_fraction,
        recirc_dropped=recirc_dropped,
        utilization=utilization,
        scheduling_delays_ns=delays,
        end_to_end_ns=e2e,
        queue_delays=(
            list(handles.draconis.queue_delays) if handles.draconis else []
        ),
        placements=collector.placement_fractions(),
        delays_by_priority=collector.delays_by_priority(since=warmup_ns),
        network=summarize_links(handles.topology.links()),
    )
