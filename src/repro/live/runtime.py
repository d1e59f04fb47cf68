"""Stand up a full live cluster in one event loop and run a workload.

:class:`LiveSpec` is the single description both sides of a conformance
comparison consume: :meth:`LiveSpec.events` materializes the workload
through :func:`repro.workloads.synthetic.open_loop` from the spec's seed,
and :meth:`LiveSpec.sim_config` maps the same parameters onto a
:class:`~repro.experiments.common.ClusterConfig` — same policy object,
same queue capacity, same arrival times, durations and priorities.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster.client_core import ClientConfig
from repro.core.policies import Policy, PriorityPolicy
from repro.errors import ConfigurationError, LiveTimeoutError
from repro.experiments.common import ClusterConfig
from repro.live.client import LiveClient
from repro.live.executor import LiveExecutor, LiveExecutorConfig
from repro.live.loadgen import ClosedLoopGen, OpenLoopGen
from repro.live.results import LiveResult
from repro.live.softswitch import SoftSwitch
from repro.obs.hdr import LogHistogram
from repro.sim.rng import RngStreams
from repro.workloads import synthetic

DISTRIBUTIONS = ("fixed", "bimodal", "trimodal", "exponential", "heavy", "noop")


@dataclass
class LiveSpec:
    """One live-cluster configuration plus its workload."""

    executors: int = 4
    policy: str = "fcfs"  # "fcfs" | "priority"
    priority_levels: int = 4
    queue_capacity: int = 4096
    seed: int = 42
    mode: str = "open"  # "open" | "closed"
    rate_tps: float = 1000.0
    duration_s: float = 1.0
    tasks_per_job: int = 2
    outstanding_jobs: int = 8  # closed loop
    dist: str = "exponential"
    mean_us: float = 250.0
    #: per-executor JBSQ-style bound (pulls + running tasks)
    max_outstanding: int = 2
    drain_s: float = 3.0
    time_scale: float = 1.0

    def validate(self) -> None:
        if self.policy not in ("fcfs", "priority"):
            raise ConfigurationError(f"unknown live policy {self.policy!r}")
        if self.mode not in ("open", "closed"):
            raise ConfigurationError(f"unknown live mode {self.mode!r}")
        if self.dist not in DISTRIBUTIONS:
            raise ConfigurationError(
                f"unknown distribution {self.dist!r}; one of {DISTRIBUTIONS}"
            )
        if self.executors < 1 or self.duration_s <= 0:
            raise ConfigurationError("need executors >= 1 and duration > 0")

    # -- shared workload description ---------------------------------------

    def policy_obj(self) -> Optional[Policy]:
        if self.policy == "priority":
            return PriorityPolicy(self.priority_levels)
        return None

    def sampler(self) -> Optional[synthetic.DurationSampler]:
        if self.dist == "noop":
            return None
        if self.dist == "fixed":
            return synthetic.fixed(self.mean_us)
        if self.dist == "bimodal":
            return synthetic.bimodal()
        if self.dist == "trimodal":
            return synthetic.trimodal()
        if self.dist == "heavy":
            return synthetic.heavy_tailed(self.mean_us)
        return synthetic.exponential(self.mean_us)

    def tprops_for(
        self,
    ) -> Optional[Callable[[np.random.Generator, int], int]]:
        if self.policy != "priority":
            return None
        levels = self.priority_levels

        def draw(rng: np.random.Generator, _duration_ns: int) -> int:
            return int(rng.integers(1, levels + 1))

        return draw

    def events(self, rngs: RngStreams) -> List[synthetic.SubmitEvent]:
        """The open-loop schedule; deterministic in ``rngs``' seed.

        Both the live load generator and the simulator counterpart call
        this with ``RngStreams(spec.seed)``, so the two runs see the
        same jobs at the same offsets with the same durations.
        """
        sampler = self.sampler()
        if sampler is None:
            raise ConfigurationError("open-loop mode needs a duration dist")
        return list(
            synthetic.open_loop(
                rngs.stream("arrivals"),
                rate_tps=self.rate_tps,
                duration_sampler=sampler,
                horizon_ns=int(self.duration_s * 1e9),
                tasks_per_job=self.tasks_per_job,
                tprops_for=self.tprops_for(),
            )
        )

    def sim_config(self) -> ClusterConfig:
        """The simulator configuration matching this live spec."""
        return ClusterConfig(
            scheduler="draconis",
            workers=self.executors,
            executors_per_worker=1,
            seed=self.seed,
            policy=self.policy_obj(),
            queue_capacity=self.queue_capacity,
            record_queue_delays=True,
            queues_in_stages=True,
            park_pulls=True,
        )

    def describe(self) -> dict:
        return asdict(self)


def exec_name(executor_id: int) -> str:
    """The fault-plan node name of one live executor."""
    return f"exec{executor_id}"


CLIENT_NAME = "client"
SWITCH_NAME = "switch"


class LiveCluster:
    """A switch, its executors and one client on loopback sockets.

    The plain runner and the chaos runner both stand this up. ``wrap``
    maps a component's fault-plan name to its ``transport_wrap`` (the
    chaos layer's hook; set it before :meth:`start`). Executors live in
    a dict by id so a fault injector can replace a killed incarnation
    through :meth:`make_executor`; ``retired`` keeps the killed ones for
    counter aggregation and teardown.
    """

    def __init__(
        self,
        spec: LiveSpec,
        rngs: RngStreams,
        client_config: Optional[ClientConfig] = None,
    ) -> None:
        spec.validate()
        self.spec = spec
        self.rngs = rngs
        self.client_config = client_config
        self.wrap: Callable[[str], Optional[Callable]] = lambda name: None
        self.switch = SoftSwitch(
            policy=spec.policy_obj(), queue_capacity=spec.queue_capacity
        )
        self.clock = self.switch.sim
        self.executors: Dict[int, LiveExecutor] = {}
        self.retired: List[LiveExecutor] = []
        self.client: Optional[LiveClient] = None

    def make_executor(self, executor_id: int) -> LiveExecutor:
        return LiveExecutor(
            executor_id=executor_id,
            switch=self.switch.endpoint,
            config=LiveExecutorConfig(
                max_outstanding=self.spec.max_outstanding,
                time_scale=self.spec.time_scale,
            ),
            node_id=executor_id,
            transport_wrap=self.wrap(exec_name(executor_id)),
        )

    async def start(self) -> None:
        """Bind every socket; returns once all executors registered."""
        self.switch.transport_wrap = self.wrap(SWITCH_NAME)
        await self.switch.start()
        self.client = LiveClient(
            uid=0,
            config=self.client_config,
            clock=self.clock,
            rng=self.rngs.stream("live-client"),
            transport_wrap=self.wrap(CLIENT_NAME),
        )
        for i in range(self.spec.executors):
            self.executors[i] = self.make_executor(i)
            await self.executors[i].start()
        await asyncio.gather(
            *(e.wait_registered(5.0) for e in self.executors.values())
        )
        await self.client.start(self.switch.endpoint)

    def all_executors(self) -> List[LiveExecutor]:
        return self.retired + list(self.executors.values())

    async def guarded(
        self,
        drive: Callable,
        timeout_s: Optional[float],
        what: str,
        context: Callable[[], str] = lambda: "",
    ):
        """Run ``drive()`` under a *hard* wall-clock cap.

        A live run that hangs — a drain that never quiesces, an executor
        wedged on a dead socket — raises :class:`LiveTimeoutError`
        carrying ``context()`` and a component diagnostic dump, instead
        of eating the CI job timeout.
        """
        if timeout_s is None:
            return await drive()
        try:
            return await asyncio.wait_for(drive(), timeout_s)
        except asyncio.TimeoutError:
            raise LiveTimeoutError(
                f"{what} exceeded the {timeout_s}s hard cap\n"
                + context()
                + self.diagnostic_dump()
            ) from None

    async def aclose(self) -> None:
        if self.client is not None:
            await self.client.aclose()
        for executor in self.all_executors():
            await executor.aclose()
        self.switch.close()

    def diagnostic_dump(self) -> str:
        """Where a hung run was stuck, one component per line."""
        switch, client = self.switch, self.client
        lines = [
            "switch: queued="
            + str(switch.total_queued())
            + f" executors={len(switch.executors)} {dict(switch.counters)}",
        ]
        for record in switch.executors.values():
            lines.append(
                f"  exec{record.executor_id}: epoch={record.epoch}"
                f" in_flight={record.in_flight}/{record.max_outstanding}"
            )
        for executor in self.all_executors():
            lines.append(
                f"executor {executor.executor_id}: closed={executor.closed}"
                f" {dict(executor.counters)}"
            )
        if client is not None:
            lines.append(
                f"client: pending={client.pending_count}"
                f" done={client.completed_count}"
                f" gave_up={len(client.gave_up_keys())} {dict(client.counters)}"
            )
        return "\n".join(lines)

    def collect(self, wall_ns: int, max_lag_ns: int) -> LiveResult:
        switch, client = self.switch, self.client
        queue_delay = LogHistogram()
        for _queue_index, delay_ns in switch.queue_delays:
            queue_delay.record(delay_ns)
        service = LogHistogram()
        executor_counters: dict = {}
        for executor in self.all_executors():
            service.merge(executor.service_hist)
            for name, value in executor.counters.items():
                executor_counters[name] = (
                    executor_counters.get(name, 0) + value
                )
        wall_s = wall_ns / 1e9
        completed = client.completed_count
        return LiveResult(
            spec=self.spec.describe(),
            wall_s=wall_s,
            tasks_submitted=client.tasks_submitted,
            tasks_completed=completed,
            tasks_lost=client.lost_count,
            duplicates=client.counters.get("duplicates", 0),
            phantoms=client.counters.get("phantoms", 0),
            resubmits=client.counters.get("resubmits", 0),
            bounce_give_ups=client.counters.get("bounce_give_ups", 0),
            timeout_give_ups=client.counters.get("timeout_give_ups", 0),
            throughput_tps=completed / wall_s if wall_s > 0 else 0.0,
            priority_inversions=switch.priority_inversions,
            e2e=client.e2e_hist,
            queue_delay=queue_delay,
            service=service,
            sched_stats=asdict_ints(switch.sched_stats),
            switch_counters=dict(switch.counters),
            executor_counters=executor_counters,
            client_counters=dict(client.counters),
            max_loadgen_lag_ns=max_lag_ns,
        )


async def run_live_async(
    spec: LiveSpec, timeout_s: Optional[float] = None
) -> LiveResult:
    """Run one spec end to end on localhost; everything in this loop.

    ``timeout_s`` is the hard cap of :meth:`LiveCluster.guarded`.
    """
    rngs = RngStreams(spec.seed)
    cluster = LiveCluster(spec, rngs)

    async def drive() -> LiveResult:
        await cluster.start()
        client, clock = cluster.client, cluster.clock
        start_ns = clock.now
        max_lag_ns = 0
        if spec.mode == "open":
            gen = OpenLoopGen(client, spec.events(rngs), clock=clock)
            await gen.run()
            max_lag_ns = gen.max_lag_ns
        else:
            closed = ClosedLoopGen(
                client,
                outstanding=spec.outstanding_jobs,
                tasks_per_job=spec.tasks_per_job,
                horizon_s=spec.duration_s,
                sampler=spec.sampler(),
                rng=rngs.stream("closed-loop"),
                tprops_for=spec.tprops_for(),
                clock=clock,
            )
            await closed.run()
        await client.drain(spec.drain_s)
        return cluster.collect(clock.now - start_ns, max_lag_ns)

    try:
        return await cluster.guarded(drive, timeout_s, "live run")
    finally:
        await cluster.aclose()


def asdict_ints(stats) -> dict:
    return {k: int(v) for k, v in asdict(stats).items()}


def run_live(spec: LiveSpec, timeout_s: Optional[float] = None) -> LiveResult:
    """Synchronous wrapper: one fresh event loop per run."""
    return asyncio.run(run_live_async(spec, timeout_s=timeout_s))
