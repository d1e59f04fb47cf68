"""Declarative fault schedules.

A :class:`FaultPlan` is an ordered, validated collection of fault events
(see :mod:`repro.faults.events`). Plans are plain data — they know
nothing about a live cluster — so the same plan can be replayed against
different scheduler configurations, printed, or generated from a seed.

``FaultPlan.randomized`` builds the chaos plans used by the
``fault_tolerance`` experiment and the conservation property tests: one
seed fully determines the plan, so failures reproduce exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.events import (
    ControllerCrash,
    FaultEvent,
    LinkFault,
    PacketCorruption,
    Partition,
    RecircExhaustion,
    SwitchFailover,
    WorkerCrash,
    WorkerSlowdown,
    event_from_dict,
    event_start,
    event_to_dict,
)

#: plan kinds understood by :meth:`FaultPlan.randomized`
PLAN_KINDS = ("crash", "partition", "failover", "corrupt", "mixed")


@dataclass(frozen=True)
class PlanGrammar:
    """The constants of :meth:`FaultPlan.fuzzed` that differ per runtime."""

    #: most crash/restart cycles one burst puts on a node
    crash_cycles_max: int
    #: chance a cycle is a permanent (no-restart) crash, budget allowing
    permanent_crash_prob: float
    #: restart delay and the gap before the next cycle, as horizon fractions
    restart_frac: Tuple[float, float]
    gap_frac: Tuple[float, float]
    #: ceiling of the WorkerSlowdown factor draw
    slowdown_max: float
    #: bounds of the per-LinkFault reorder-jitter draw; ``None`` draws
    #: nothing and keeps the event's default
    reorder_jitter_ns: Optional[Tuple[int, int]]
    #: production weights in the order link fault, corruption, partition,
    #: crash burst, slowdown, failover burst[, recirculation exhaustion]
    weights: Tuple[float, ...]


#: simulated time is free, so bursts are longer and slowdowns deeper
SIM_GRAMMAR = PlanGrammar(
    crash_cycles_max=3,
    permanent_crash_prob=0.25,
    restart_frac=(0.03, 0.15),
    gap_frac=(0.01, 0.05),
    slowdown_max=8.0,
    reorder_jitter_ns=None,
    weights=(0.20, 0.18, 0.15, 0.17, 0.12, 0.10, 0.08),
)

#: wall-clock runs: restarts leave a real socket time to re-register,
#: reorder jitter is large enough for an event loop to notice, and there
#: is no RecircExhaustion (the soft switch recirculates inline)
LIVE_GRAMMAR = PlanGrammar(
    crash_cycles_max=2,
    permanent_crash_prob=0.2,
    restart_frac=(0.05, 0.2),
    gap_frac=(0.02, 0.08),
    slowdown_max=6.0,
    reorder_jitter_ns=(100_000, 5_000_000),
    weights=(0.22, 0.18, 0.15, 0.20, 0.12, 0.13),
)


@dataclass
class FaultPlan:
    """A validated, start-time-ordered schedule of fault events."""

    events: List[object] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.validate()
        self.events = sorted(self.events, key=event_start)

    def validate(self) -> None:
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ConfigurationError(
                    f"not a fault event: {event!r} "
                    f"(expected one of {[t.__name__ for t in FaultEvent]})"
                )
            event.validate()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def describe(self) -> str:
        """One line per event, for experiment logs."""
        if not self.events:
            return "(no faults)"
        return "; ".join(
            f"{type(e).__name__}@{event_start(e) / 1e6:.1f}ms"
            for e in self.events
        )

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({type(e).__name__ for e in self.events}))

    # -- JSON round-trip --------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to JSON (the replay-artifact plan format)."""
        return json.dumps(
            {"events": [event_to_dict(e) for e in self.events]},
            indent=indent,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json`; validates every event."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"plan is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "events" not in payload:
            raise ConfigurationError(
                'plan JSON must be an object with an "events" list'
            )
        return cls([event_from_dict(e) for e in payload["events"]])

    # -- randomized chaos plans -------------------------------------------

    @staticmethod
    def randomized(
        rng: np.random.Generator,
        horizon_ns: int,
        worker_nodes: Sequence[int],
        worker_names: Optional[Sequence[str]] = None,
        kind: str = "mixed",
    ) -> "FaultPlan":
        """Build a reproducible chaos plan for one run.

        Faults land in the middle 60% of the horizon so the run has a
        healthy lead-in (baseline goodput) and room to recover before the
        workload drains. ``kind`` picks the §3.3 regime to exercise;
        ``mixed`` samples several.
        """
        if kind not in PLAN_KINDS:
            raise ConfigurationError(
                f"unknown plan kind {kind!r}; one of {PLAN_KINDS}"
            )
        if not worker_nodes:
            raise ConfigurationError("randomized plan needs worker nodes")
        names = list(
            worker_names
            if worker_names is not None
            else [f"worker{n}" for n in worker_nodes]
        )
        lo, hi = int(horizon_ns * 0.2), int(horizon_ns * 0.8)

        def when() -> int:
            return int(rng.integers(lo, hi))

        def window(max_frac: float = 0.2) -> Tuple[int, int]:
            start = when()
            length = int(rng.integers(horizon_ns * 0.05, horizon_ns * max_frac))
            return start, min(start + length, hi)

        events: List[object] = []
        if kind == "corrupt":
            # Kept out of "mixed" so pre-existing mixed plans stay
            # byte-stable for a given seed; the fuzzed grammar below is
            # where corruption composes with everything else.
            start, end = window()
            events.append(
                PacketCorruption(
                    start_ns=start,
                    end_ns=end,
                    nodes=None,
                    corrupt_prob=float(rng.uniform(0.02, 0.2)),
                    truncate_prob=float(rng.uniform(0.1, 0.5)),
                    max_bit_flips=int(rng.integers(1, 5)),
                )
            )
        if kind in ("crash", "mixed"):
            node = int(rng.choice(list(worker_nodes)))
            restart = (
                int(rng.integers(horizon_ns * 0.05, horizon_ns * 0.25))
                if rng.random() < 0.7
                else None
            )
            events.append(
                WorkerCrash(at_ns=when(), node_id=node, restart_after_ns=restart)
            )
        if kind in ("partition", "mixed"):
            start, end = window()
            node = str(rng.choice(names))
            events.append(Partition(start_ns=start, end_ns=end, nodes=(node,)))
        if kind in ("failover", "mixed"):
            if kind == "failover" or rng.random() < 0.5:
                events.append(SwitchFailover(at_ns=when()))
        if kind == "mixed":
            if rng.random() < 0.6:
                start, end = window()
                events.append(
                    LinkFault(
                        start_ns=start,
                        end_ns=end,
                        nodes=None,
                        loss_prob=float(rng.uniform(0.02, 0.15)),
                        duplicate_prob=float(rng.uniform(0.0, 0.05)),
                        reorder_prob=float(rng.uniform(0.0, 0.1)),
                    )
                )
            if rng.random() < 0.4:
                node = int(rng.choice(list(worker_nodes)))
                start, end = window()
                events.append(
                    WorkerSlowdown(
                        start_ns=start,
                        end_ns=end,
                        node_id=node,
                        factor=float(rng.uniform(2.0, 6.0)),
                    )
                )
            if rng.random() < 0.3:
                start, end = window(max_frac=0.1)
                events.append(
                    RecircExhaustion(start_ns=start, end_ns=end, queue_packets=0)
                )
        return FaultPlan(events)

    @staticmethod
    def fuzzed(
        rng: np.random.Generator,
        horizon_ns: int,
        worker_nodes: Sequence[int],
        worker_names: Optional[Sequence[str]] = None,
        max_events: int = 8,
        grammar: PlanGrammar = SIM_GRAMMAR,
    ) -> "FaultPlan":
        """The chaos-fuzzer grammar: overlapping windows, bursts, corruption.

        Unlike :meth:`randomized` (one fault per §3.3 regime, tuned for
        the recovery experiment's metrics), this grammar free-composes the
        whole catalogue: windows overlap, the same node can crash
        repeatedly (a burst), failovers can fire back to back, and wire
        corruption runs concurrently with partitions or failovers. Two
        guardrails keep generated plans *recoverable*, so an invariant
        violation means a bug rather than an impossible scenario: at
        least one worker always survives (or restarts), and every window
        closes inside the middle 60% of the horizon, leaving room to
        drain.

        ``grammar`` holds the constants that differ per runtime
        (:data:`SIM_GRAMMAR`, :data:`LIVE_GRAMMAR`); ``worker_names`` are
        the wire-fault targets. The draw order is part of the replay
        contract: a seed's plan is pinned byte for byte by
        ``tests/test_plan_codec.py``.
        """
        if not worker_nodes:
            raise ConfigurationError("fuzzed plan needs worker nodes")
        if max_events < 1:
            raise ConfigurationError(f"max_events must be >= 1: {max_events}")
        nodes = list(worker_nodes)
        names = list(
            worker_names
            if worker_names is not None
            else [f"worker{n}" for n in nodes]
        )
        lo, hi = int(horizon_ns * 0.2), int(horizon_ns * 0.8)

        def when() -> int:
            return int(rng.integers(lo, hi))

        def span(frac: Tuple[float, float]) -> int:
            return int(rng.integers(horizon_ns * frac[0], horizon_ns * frac[1]))

        def window(max_frac: float = 0.2) -> Tuple[int, int]:
            start = when()
            length = int(
                rng.integers(max(1, horizon_ns * 0.02), horizon_ns * max_frac)
            )
            return start, min(start + length, hi)

        def maybe_target():
            return (
                None if rng.random() < 0.5 else (str(rng.choice(names)),)
            )

        # Permanent (no-restart) crashes are budgeted: one worker must
        # always survive so the drain phase can actually drain.
        state = {"permanent_budget": len(nodes) - 1}
        permanently_dead: set = set()

        def crash_burst() -> List[object]:
            node = int(rng.choice(nodes))
            cycles = int(rng.integers(1, grammar.crash_cycles_max + 1))
            out: List[object] = []
            at = when()
            for _ in range(cycles):
                if at >= hi:
                    break
                permanent = (
                    rng.random() < grammar.permanent_crash_prob
                    and state["permanent_budget"] > 0
                    and node not in permanently_dead
                )
                if permanent:
                    out.append(
                        WorkerCrash(
                            at_ns=at, node_id=node, restart_after_ns=None
                        )
                    )
                    state["permanent_budget"] -= 1
                    permanently_dead.add(node)
                    break
                restart = span(grammar.restart_frac)
                out.append(
                    WorkerCrash(
                        at_ns=at, node_id=node, restart_after_ns=restart
                    )
                )
                # Next cycle strictly after the restart lands, so the
                # injector never crashes an already-crashed worker.
                at = at + restart + span(grammar.gap_frac)
            return out

        def link_fault() -> List[object]:
            start, end = window()
            fault = dict(
                start_ns=start,
                end_ns=end,
                nodes=maybe_target(),
                loss_prob=float(rng.uniform(0.0, 0.2)),
                duplicate_prob=float(rng.uniform(0.0, 0.08)),
                reorder_prob=float(rng.uniform(0.0, 0.15)),
            )
            if grammar.reorder_jitter_ns is not None:
                fault["reorder_jitter_ns"] = int(
                    rng.integers(*grammar.reorder_jitter_ns)
                )
            return [LinkFault(**fault)]

        def corruption() -> List[object]:
            start, end = window()
            return [
                PacketCorruption(
                    start_ns=start,
                    end_ns=end,
                    nodes=maybe_target(),
                    corrupt_prob=float(rng.uniform(0.01, 0.25)),
                    truncate_prob=float(rng.uniform(0.0, 0.6)),
                    max_bit_flips=int(rng.integers(1, 6)),
                )
            ]

        def partition() -> List[object]:
            start, end = window(max_frac=0.15)
            return [
                Partition(
                    start_ns=start,
                    end_ns=end,
                    nodes=(str(rng.choice(names)),),
                )
            ]

        def slowdown() -> List[object]:
            start, end = window()
            return [
                WorkerSlowdown(
                    start_ns=start,
                    end_ns=end,
                    node_id=int(rng.choice(nodes)),
                    factor=float(rng.uniform(1.5, grammar.slowdown_max)),
                )
            ]

        def failover_burst() -> List[object]:
            return [
                SwitchFailover(at_ns=when())
                for _ in range(int(rng.integers(1, 3)))
            ]

        def recirc() -> List[object]:
            start, end = window(max_frac=0.08)
            return [
                RecircExhaustion(
                    start_ns=start,
                    end_ns=end,
                    queue_packets=int(rng.integers(0, 3)),
                )
            ]

        # grammar.weights pairs with this order; a grammar with six
        # weights has no RecircExhaustion production
        productions = (
            link_fault,
            corruption,
            partition,
            crash_burst,
            slowdown,
            failover_burst,
            recirc,
        )[: len(grammar.weights)]
        weights = np.array(grammar.weights)
        weights = weights / weights.sum()
        target = int(rng.integers(1, max_events + 1))
        events: List[object] = []
        while len(events) < target:
            idx = int(rng.choice(len(productions), p=weights))
            events.extend(productions[idx]())
        return FaultPlan(events[:max_events])


def sample_ctrl_faults(
    rng: np.random.Generator,
    horizon_ns: int,
    replica_ids: Sequence[int],
    ctrl_names: Optional[Sequence[str]] = None,
    max_events: int = 3,
) -> List[object]:
    """Controller-fault productions for replicated control-plane runs.

    Deliberately *not* part of :meth:`FaultPlan.fuzzed`: adding a
    production there would shift the draw sequence and break byte-stable
    replay of every pre-replication artifact. The fuzzer draws these
    from a dedicated RNG stream and appends them to the base plan only
    when the scenario runs >= 2 controller replicas.

    Two guardrails keep generated plans recoverable: at most
    ``len(replica_ids) - 1`` replicas are ever crashed without a
    scheduled restart (an election can always complete), and every
    partition window closes inside the middle 60% of the horizon.
    """
    ids = list(replica_ids)
    if len(ids) < 2:
        raise ConfigurationError(
            f"controller faults need >= 2 replicas, got {ids}"
        )
    if max_events < 1:
        raise ConfigurationError(f"max_events must be >= 1: {max_events}")
    names = list(
        ctrl_names if ctrl_names is not None else [f"ctrl{i}" for i in ids]
    )
    lo, hi = int(horizon_ns * 0.2), int(horizon_ns * 0.8)
    permanent_budget = len(ids) - 1
    permanently_dead: set = set()
    target = int(rng.integers(1, max_events + 1))
    events: List[object] = []
    while len(events) < target:
        if rng.random() < 0.7:
            rid = int(rng.choice(ids))
            at = int(rng.integers(lo, hi))
            permanent = (
                rng.random() < 0.3
                and permanent_budget > 0
                and rid not in permanently_dead
            )
            if permanent:
                events.append(
                    ControllerCrash(
                        at_ns=at, replica_id=rid, restart_after_ns=None
                    )
                )
                permanent_budget -= 1
                permanently_dead.add(rid)
            else:
                restart = int(
                    rng.integers(horizon_ns * 0.05, horizon_ns * 0.2)
                )
                events.append(
                    ControllerCrash(
                        at_ns=at, replica_id=rid, restart_after_ns=restart
                    )
                )
        else:
            start = int(rng.integers(lo, hi))
            length = int(
                rng.integers(max(1, horizon_ns * 0.02), horizon_ns * 0.12)
            )
            events.append(
                Partition(
                    start_ns=start,
                    end_ns=min(start + length, hi),
                    nodes=(str(rng.choice(names)),),
                )
            )
    return events[:max_events]
