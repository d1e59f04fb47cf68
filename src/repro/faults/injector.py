"""Fire a :class:`FaultPlan` at a cluster, on either clock.

:class:`FaultInjector` is the one scheduler of plan events. It knows
nothing about simulators, sockets or workers; it needs

* a **driver** — ``now`` and ``call_at_cancellable(when_ns, fn, *args)``:
  a :class:`~repro.sim.core.Simulator`, or the asyncio
  :class:`~repro.live.base.WallTimers`;
* a **targets** object that applies each action to the cluster it wraps
  (the contract is spelled out on :class:`SimTargets`, the simulator's
  implementation; :class:`repro.live.chaos.LiveTargets` is the other).

What is shared therefore lives here once: the plan-to-actions mapping,
the fired-fault statistics, the absolute (not relative) speed restore,
and the one saved baseline that overlapping ``RecircExhaustion`` windows
unwind to.

Everything is scheduled up front by :meth:`FaultInjector.arm` — the
injector never acts mid-callback of another actor. Plan times count
from the instant of arming.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.events import (
    ControllerCrash,
    LinkFault,
    PacketCorruption,
    Partition,
    RecircExhaustion,
    SwitchFailover,
    WorkerCrash,
    WorkerSlowdown,
)
from repro.faults.links import chaos_for, degradation_for
from repro.faults.plan import FaultPlan
from repro.net.link import Link
from repro.net.topology import StarTopology
from repro.sim.core import Simulator

#: wire-fault event -> the stats field counting it
_WIRE_STATS = {
    LinkFault: "link_faults",
    PacketCorruption: "corruptions",
    Partition: "partitions",
}


@dataclass
class FaultInjectorStats:
    """How many faults of each family actually fired."""

    worker_crashes: int = 0
    worker_restarts: int = 0
    controller_crashes: int = 0
    controller_restarts: int = 0
    slowdowns: int = 0
    partitions: int = 0
    link_faults: int = 0
    corruptions: int = 0
    failovers: int = 0
    recirc_exhaustions: int = 0
    #: plan events the runtime's targets cannot express (scheduled
    #: nowhere, counted so a plan that expected them to bite is visibly
    #: a no-op); not part of :meth:`total`
    unsupported_events: int = 0

    def total(self) -> int:
        return sum(
            getattr(self, f.name)
            for f in fields(self)
            if f.name != "unsupported_events"
        )


class FaultInjector:
    """Schedules a plan's events on a driver and applies them to targets."""

    def __init__(self, driver: Any, plan: FaultPlan, targets: Any) -> None:
        self.driver = driver
        self.plan = plan
        self.targets = targets
        self.stats = FaultInjectorStats()
        #: driver time of arm(); plan times count from it (None = unarmed)
        self._t0: Optional[int] = None
        # Overlapping RecircExhaustion windows share one saved baseline:
        # per-event save/restore pairs unwind in open order, so the
        # later-closing window would "restore" the limit the first one
        # had set, leaving the switch degraded forever (found by the
        # chaos fuzzer, seed 42, minimized to two overlapping windows).
        self._recirc_windows = 0
        self._recirc_baseline: Optional[int] = None

    def arm(self) -> "FaultInjector":
        """Schedule every plan event; idempotent (second call is a no-op)."""
        if self._t0 is not None:
            return self
        self._t0 = self.driver.now
        for event in self.plan:
            if self.targets.check(event):
                self._arm_event(event)
            else:
                self.stats.unsupported_events += 1
        return self

    def _count(self, name: str) -> None:
        setattr(self.stats, name, getattr(self.stats, name) + 1)

    def _at(self, at_ns: int, fn: Callable, *args: Any, count: str = "") -> None:
        """Run ``fn(*args)`` at plan time ``at_ns``; ``count`` names the
        stats field a firing increments."""

        def fire() -> None:
            if count:
                self._count(count)
            fn(*args)

        self.driver.call_at_cancellable(self._t0 + at_ns, fire)

    def _arm_event(self, event) -> None:
        targets = self.targets
        if isinstance(event, (LinkFault, PacketCorruption, Partition)):
            self._count(_WIRE_STATS[type(event)])
            window = targets.wire(event)
            if window is not None:
                self._at(event.start_ns, window[0])
                self._at(event.end_ns, window[1])
        elif isinstance(event, WorkerCrash):
            self._at(
                event.at_ns, targets.crash, event.node_id, count="worker_crashes"
            )
            if event.restart_after_ns is not None:
                self._at(
                    event.at_ns + event.restart_after_ns,
                    targets.restart,
                    event.node_id,
                    count="worker_restarts",
                )
        elif isinstance(event, ControllerCrash):
            self._at(
                event.at_ns,
                targets.ctrl_crash,
                event.replica_id,
                count="controller_crashes",
            )
            if event.restart_after_ns is not None:
                self._at(
                    event.at_ns + event.restart_after_ns,
                    targets.ctrl_restart,
                    event.replica_id,
                    count="controller_restarts",
                )
        elif isinstance(event, WorkerSlowdown):
            self._at(
                event.start_ns,
                targets.set_speed,
                event.node_id,
                event.factor,
                count="slowdowns",
            )
            # Absolute restore (not division): idempotent across
            # overlapping windows and across a crash/restart that replaced
            # the incarnation mid-window with a base-speed one.
            self._at(event.end_ns, targets.set_speed, event.node_id, 1.0)
        elif isinstance(event, SwitchFailover):
            self._at(event.at_ns, targets.failover, count="failovers")
        elif isinstance(event, RecircExhaustion):
            self._at(
                event.start_ns,
                self._exhaust,
                event.queue_packets,
                count="recirc_exhaustions",
            )
            self._at(event.end_ns, self._restore_recirc)
        else:  # pragma: no cover - plan.validate() rejects unknown events
            raise ConfigurationError(f"unhandled fault event {event!r}")

    def _exhaust(self, queue_packets: int) -> None:
        previous = self.targets.set_recirc_limit(queue_packets)
        if self._recirc_windows == 0:
            self._recirc_baseline = previous
        self._recirc_windows += 1

    def _restore_recirc(self) -> None:
        self._recirc_windows -= 1
        if self._recirc_windows == 0 and self._recirc_baseline is not None:
            self.targets.set_recirc_limit(self._recirc_baseline)
            self._recirc_baseline = None

    def injected_totals(self) -> Dict[str, int]:
        """What the wire faults actually did, as the targets counted it."""
        return self.targets.injected_totals()


class SimTargets:
    """The simulated cluster as the injector sees it.

    This is the *targets* contract (the live runtime's
    :class:`~repro.live.chaos.LiveTargets` implements the same names):

    * ``check(event)`` — arm-time validation; raises
      ``ConfigurationError`` when the plan names something the cluster
      lacks, returns ``False`` when the runtime cannot express the event
      at all (the injector counts it and schedules nothing);
    * ``crash(node)`` / ``restart(node)`` / ``set_speed(node, factor)``;
    * ``failover()`` — install the standby scheduler program;
    * ``ctrl_crash(id)`` / ``ctrl_restart(id)``;
    * ``set_recirc_limit(n)`` — returns the previous limit;
    * ``wire(event)`` — an ``(open, close)`` pair for the injector to
      schedule at the window's edges, or ``None`` when the runtime
      matches wire windows itself;
    * ``injected_totals()`` — per-packet fault counters.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: StarTopology,
        workers: Iterable = (),
        switch=None,
        program_factory: Optional[Callable[[], object]] = None,
        rng: Optional[np.random.Generator] = None,
        controllers=None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.switch = switch if switch is not None else topology.switch
        self.workers: Dict[int, object] = {
            w.spec.node_id: w for w in workers
        }
        self.program_factory = program_factory
        #: crash target for ControllerCrash events: a ControllerGroup
        #: (which picks the replica) or the cluster's lone Controller
        self.controllers = controllers
        self.rng = rng or np.random.default_rng(0)
        self.touched_links: List[Link] = []

    def check(self, event) -> bool:
        if isinstance(event, (WorkerCrash, WorkerSlowdown)):
            self._worker(event.node_id)
        elif isinstance(event, ControllerCrash):
            if self.controllers is None:
                raise ConfigurationError(
                    "plan contains ControllerCrash but no controllers given"
                )
        elif isinstance(event, SwitchFailover):
            if self.program_factory is None:
                raise ConfigurationError(
                    "plan contains SwitchFailover but no program_factory given"
                )
            if not hasattr(self.switch, "install_program"):
                raise ConfigurationError(
                    "switch does not support program failover"
                )
        elif isinstance(event, RecircExhaustion):
            if not hasattr(self.switch, "set_recirc_limit"):
                raise ConfigurationError(
                    "switch does not support recirculation faults"
                )
        return True

    def _worker(self, node_id: int):
        worker = self.workers.get(node_id)
        if worker is None:
            raise ConfigurationError(
                f"plan names worker node {node_id}, cluster has "
                f"{sorted(self.workers)}"
            )
        return worker

    def crash(self, node_id: int) -> None:
        self._worker(node_id).crash()

    def restart(self, node_id: int) -> None:
        self._worker(node_id).restart()

    def set_speed(self, node_id: int, factor: float) -> None:
        self._worker(node_id).set_speed_factor(factor)

    def failover(self) -> None:
        self.switch.install_program(self.program_factory())

    def ctrl_crash(self, replica_id: int) -> None:
        if hasattr(self.controllers, "replicas"):
            self.controllers.crash(replica_id)
        else:
            self.controllers.crash()

    def ctrl_restart(self, replica_id: int) -> None:
        if hasattr(self.controllers, "replicas"):
            self.controllers.restart(replica_id)
        else:
            self.controllers.restart()

    def set_recirc_limit(self, queue_packets: int) -> int:
        return self.switch.set_recirc_limit(queue_packets)

    def _links_for(self, nodes: Optional[Iterable[str]]) -> List[Link]:
        """Both directions of each named host's cable (all hosts if None)."""
        hosts = self.topology.hosts
        names = list(hosts) if nodes is None else list(nodes)
        links: List[Link] = []
        for name in names:
            host = hosts.get(name)
            if host is None:
                raise ConfigurationError(f"no host named {name!r} in topology")
            if host.uplink is not None:
                links.append(host.uplink)
            port = self.topology.switch.port_for(name)
            if port is not None:
                links.append(port)
        return links

    def wire(self, event) -> Tuple[Callable[[], None], Callable[[], None]]:
        pairs = []
        for link in self._links_for(event.nodes):
            # one injector-stream draw per (window, link), whether or not
            # the link already has its hook: the replay contract
            link_rng = np.random.default_rng(int(self.rng.integers(0, 2**63)))
            chaos = chaos_for(link, self.sim, rng=link_rng)
            pairs.append((chaos, degradation_for(event)))
            if link not in self.touched_links:
                self.touched_links.append(link)

        def open_window() -> None:
            for chaos, deg in pairs:
                chaos.add(deg)

        def close_window() -> None:
            for chaos, deg in pairs:
                chaos.remove(deg)

        return open_window, close_window

    def injected_totals(self) -> Dict[str, int]:
        """Aggregate injected-fault counters over every touched link."""
        return {
            name: sum(getattr(link, name) for link in self.touched_links)
            for name in (
                "injected_drops",
                "injected_dups",
                "injected_delays",
                "corrupt_drops",
            )
        }
