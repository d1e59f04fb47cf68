"""The chaos fuzzer: sample a scenario + fault plan, run it, judge it.

One fuzz iteration is fully described by a :class:`FuzzScenario` — a
seed plus the cluster feature toggles drawn from it. Everything
downstream (workload arrivals, fault plan, injector randomness, link
chaos) derives from named :class:`~repro.sim.rng.RngStreams` of that
seed, so a scenario is its own reproduction recipe: ``run_scenario``
on the same scenario returns the same simulator event count, the same
task-trace fingerprint, and the same oracle verdict, bit for bit.

The campaign driver is ``python -m repro.experiments.fuzz``: it samples
scenarios, fans them out across cores (each cell seeds its own
simulator, so results are independent of ``--jobs``), shrinks every
failure to a minimal plan (:func:`shrink_failure`), and writes each one
as a replayable artifact (:mod:`repro.verify.artifact`).
:class:`FuzzResult` and :class:`ScenarioCodec` are shared with the live
runtime's runner (:mod:`repro.live.chaos`), so both print, summarize and
save runs through the same code.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.experiments import common
from repro.faults import FaultPlan, sample_ctrl_faults
from repro.sim.core import ms
from repro.sim.rng import RngStreams
from repro.verify.evidence import SimEvidence
from repro.verify.oracle import InvariantOracle, OracleReport, Violation
from repro.verify.shrink import shrink_plan
from repro.workloads import exponential, open_loop, rate_for_utilization

#: moderate load, same reasoning as experiments.fault_tolerance: a
#: crashed worker must leave headroom or recovery is capacity-bound
DEFAULT_UTILIZATION = 0.45
DEFAULT_TIMEOUT_FACTOR = 4.0


class ScenarioCodec:
    """``to_dict`` / ``from_dict`` for a scenario dataclass (the artifact
    format); unknown fields fail loudly instead of being dropped."""

    #: the ``kind`` its artifacts carry (``None``: a simulator artifact)
    ARTIFACT_KIND: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]):
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(
                f"{cls.__name__}: unknown fields {sorted(unknown)}"
            )
        return cls(**payload)


@dataclass(frozen=True)
class FuzzScenario(ScenarioCodec):
    """One fuzz iteration, fully determined by its fields.

    ``plan_json`` is ``None`` while the plan is still implicit in the
    seed (the fuzzer's normal sampling path); results and artifacts pin
    it to the explicit JSON so a replay — or a shrunk variant — runs the
    exact plan without re-deriving it.
    """

    seed: int
    duration_ns: int = ms(12)
    drain_ns: int = ms(30)
    workers: int = 3
    executors_per_worker: int = 4
    utilization: float = DEFAULT_UTILIZATION
    timeout_factor: float = DEFAULT_TIMEOUT_FACTOR
    park_pulls: bool = True
    controller: bool = False
    #: >= 2 runs the replicated control plane (repro.ctrl.replication)
    #: and arms the controller-fault grammar on a dedicated stream
    controller_replicas: int = 1
    checkpoints: bool = False
    max_events: int = 8

    plan_json: Optional[str] = None

    def features(self) -> str:
        """Result-row flags: Controller, Replicated, checKpoints, Parking."""
        return "".join(
            flag
            for flag, on in (
                ("C", self.controller),
                ("R", self.controller_replicas >= 2),
                ("K", self.checkpoints),
                ("P", self.park_pulls),
            )
            if on
        )


@dataclass
class FuzzResult:
    """Outcome of one chaos run on either runtime (plan pinned to JSON)."""

    scenario: Any
    ok: bool
    violations: List[Violation]
    checks: int
    tasks_submitted: int
    tasks_completed: int
    faults_fired: int
    injected: Dict[str, int] = field(default_factory=dict)
    #: simulator runs: bit-reproducible, what a replay compares
    event_count: Optional[int] = None
    fingerprint: Optional[str] = None
    #: live runs: wall-clock evidence, recorded for diagnosis only
    #: (tasks lost, duplicates, resubmits, re-registrations, ...)
    observed: Dict[str, Any] = field(default_factory=dict)

    def invariants_violated(self) -> List[str]:
        return sorted({v.invariant for v in self.violations})

    def row(self) -> str:
        verdict = "OK" if self.ok else ",".join(self.invariants_violated())
        columns = []
        if self.fingerprint is not None:
            columns = [
                f"events={self.event_count:<7}",
                f"fp={self.fingerprint[:12]}",
            ]
        columns += [
            f"{name}={value}"
            for name, value in self.observed.items()
            if not isinstance(value, (dict, list))
        ]
        return (
            f"seed={self.scenario.seed:<6} "
            f"feat={self.scenario.features() or '-':<4} "
            f"faults={self.faults_fired:<2} "
            f"tasks={self.tasks_completed}/{self.tasks_submitted:<5} "
            f"{' '.join(columns)}  {verdict}"
        )

    def summary(self) -> Dict[str, Any]:
        """This run's entry in the fuzz CLI's ``--out`` JSON."""
        return {"seed": self.scenario.seed, **asdict(self)}


def sample_scenario(
    seed: int,
    max_events: int = 8,
    controller_replicas: Optional[int] = None,
) -> FuzzScenario:
    """Draw the cluster feature toggles for one iteration from the seed.

    The draws come from a dedicated named stream so adding a toggle
    later never perturbs the workload, plan, or injector streams of
    existing seeds. Replication rides its own "fuzz-replication"
    stream for the same reason: pre-replication seeds keep their exact
    scenarios. ``controller_replicas`` pins the replica count (the CI
    matrix runs explicit 1 vs 3 legs); ``None`` samples it.
    """
    rng = RngStreams(seed).stream("fuzz-scenario")
    controller = bool(rng.random() < 0.4)
    checkpoints = bool(rng.random() < 0.4)
    park_pulls = bool(rng.random() < 0.7)
    if controller_replicas is None:
        rep_rng = RngStreams(seed).stream("fuzz-replication")
        controller_replicas = 1
        if controller and rep_rng.random() < 0.5:
            controller_replicas = 3
    elif controller_replicas >= 2:
        controller = True  # a replica group implies the controller
    return FuzzScenario(
        seed=seed,
        controller=controller,
        controller_replicas=controller_replicas,
        checkpoints=checkpoints,
        park_pulls=park_pulls,
        max_events=max_events,
    )


def _trace_fingerprint(handles: common.ClusterHandles) -> str:
    """sha256 over the full task trace + counters — the determinism probe.

    Any divergence in scheduling order, retry timing, or fault impact
    shows up here even when aggregate counts happen to collide.
    """
    collector = handles.collector
    digest = hashlib.sha256()
    for key in sorted(collector.records):
        record = collector.records[key]
        digest.update(
            (
                f"{key}:{record.submitted_at}:{record.assigned_at}:"
                f"{record.started_at}:{record.finished_at}:"
                f"{record.completed_at}:{record.executor_id}:"
                f"{record.submissions}:{record.bounces}\n"
            ).encode()
        )
    digest.update(
        (
            f"resub={collector.resubmissions} bounce={collector.bounce_retries}"
            f" dup_a={collector.duplicate_assignments}"
            f" dup_f={collector.duplicate_finishes}"
            f" dup_c={collector.duplicate_completions}\n"
        ).encode()
    )
    return digest.hexdigest()


def plan_for(scenario: FuzzScenario) -> FaultPlan:
    """The scenario's fault plan: pinned JSON, else sampled from the seed.

    The plan streams are named, hence independent of every stream the
    run itself draws from — a pinned replay needs no burn-in to keep the
    injector and link-chaos draws aligned with the sampling run.
    """
    if scenario.plan_json is not None:
        return FaultPlan.from_json(scenario.plan_json)
    rngs = RngStreams(scenario.seed)
    plan = FaultPlan.fuzzed(
        rngs.stream("fuzz-plan"),
        scenario.duration_ns,
        worker_nodes=list(range(scenario.workers)),
        max_events=scenario.max_events,
    )
    if scenario.controller and scenario.controller_replicas >= 2:
        plan = FaultPlan(
            list(plan.events)
            + sample_ctrl_faults(
                rngs.stream("fuzz-ctrl-plan"),
                scenario.duration_ns,
                replica_ids=list(range(scenario.controller_replicas)),
            )
        )
    return plan


def run_scenario(scenario: FuzzScenario) -> FuzzResult:
    """Build, fault, run, and judge one scenario. Bit-deterministic."""
    config = common.ClusterConfig(
        scheduler="draconis",
        workers=scenario.workers,
        executors_per_worker=scenario.executors_per_worker,
        seed=scenario.seed,
        queue_capacity=4096,
        timeout_factor=scenario.timeout_factor,
        park_pulls=scenario.park_pulls,
        controller=scenario.controller,
        controller_replicas=scenario.controller_replicas,
        checkpoint_interval_ns=ms(1) if scenario.checkpoints else None,
    )
    rngs = RngStreams(scenario.seed)
    sampler = exponential(150)
    rate = rate_for_utilization(
        scenario.utilization, config.total_executors, sampler.mean_ns
    )
    events = list(
        open_loop(
            rngs.stream("fuzz-arrivals"), rate, sampler, scenario.duration_ns
        )
    )
    handles = common.build_cluster(config, [events], rngs=rngs)

    plan = plan_for(scenario)

    injector = common.arm_faults(
        handles, config, plan, rngs.stream("fuzz-injector")
    )

    horizon = scenario.duration_ns + scenario.drain_ns
    oracle = InvariantOracle(SimEvidence(handles, injector)).attach(horizon)
    handles.sim.run(until=horizon)
    report: OracleReport = oracle.check_final()

    collector = handles.collector
    return FuzzResult(
        scenario=replace(scenario, plan_json=plan.to_json()),
        ok=report.ok,
        violations=list(report.violations),
        checks=report.checks,
        event_count=handles.sim.events_processed,
        fingerprint=_trace_fingerprint(handles),
        tasks_submitted=collector.submitted_count(),
        tasks_completed=collector.completed_count(),
        faults_fired=injector.stats.total(),
        injected=injector.injected_totals(),
    )


@dataclass
class CampaignFailure:
    """One failing scenario, with its shrunk minimal reproduction."""

    result: FuzzResult
    minimized: FuzzScenario
    minimized_events: int
    original_events: int
    shrink_attempts: int


def shrink_failure(result: FuzzResult, max_attempts: int = 200) -> CampaignFailure:
    """Delta-debug a failing scenario's plan to a minimal repro.

    A candidate plan "still fails" when it reproduces at least one
    of the original run's violated invariant families — not
    necessarily all of them; a smaller plan that still trips
    ``task-conservation`` is a better bug report than a fat plan
    that also happens to trip ``quiescence``.
    """
    scenario = result.scenario
    original = FaultPlan.from_json(scenario.plan_json)
    target = set(result.invariants_violated())

    def still_fails(candidate: FaultPlan) -> bool:
        trial = replace(scenario, plan_json=candidate.to_json())
        rerun = run_scenario(trial)
        return bool(target & set(rerun.invariants_violated()))

    minimal, attempts = shrink_plan(
        original, still_fails, max_attempts=max_attempts
    )
    return CampaignFailure(
        result=result,
        minimized=replace(scenario, plan_json=minimal.to_json()),
        minimized_events=len(minimal),
        original_events=len(original),
        shrink_attempts=attempts,
    )
