"""Chaos fuzzing + invariant verification (the ROADMAP's "as many
scenarios as you can imagine", made systematic).

The package turns the hand-picked chaos sweeps of
``experiments.fault_tolerance`` into a generative pipeline:

* :mod:`repro.verify.oracle` — the invariant catalogue checked after
  (and cheaply during) every run, simulated or live: task conservation,
  lease safety, checkpoint/journal consistency across failover, election
  safety, switch register sanity, in-flight/epoch bounds, quiescence and
  parser robustness;
* :mod:`repro.verify.evidence` — the :class:`RunEvidence` protocol the
  oracle reads, with the simulator's and the live runtime's adapters;
* :mod:`repro.verify.fuzzer` — samples cluster scenarios and
  :meth:`FaultPlan.fuzzed` fault schedules from a seeded grammar and
  judges each run with the oracle (:func:`run_scenario`);
* :mod:`repro.verify.shrink` — a delta-debugging shrinker that reduces
  a failing plan (drop events, narrow windows, reduce intensities) to a
  minimal reproduction that still trips the oracle;
* :mod:`repro.verify.artifact` — the serialized plan+seed+verdict
  format every failure is saved as;
* :mod:`repro.verify.replay` — ``python -m repro.verify.replay
  artifact.json`` re-runs an artifact bit-deterministically.

Everything is seed-deterministic: the same scenario produces the same
event count, task trace fingerprint, and oracle verdict on every run.
"""

from repro.verify.artifact import (
    ARTIFACT_VERSION,
    LIVE_ARTIFACT_VERSION,
    load_artifact,
    save_artifact,
)
from repro.verify.evidence import LiveEvidence, SimEvidence
from repro.verify.fuzzer import (
    FuzzResult,
    FuzzScenario,
    run_scenario,
    sample_scenario,
    shrink_failure,
)
from repro.verify.oracle import InvariantOracle, OracleReport, Violation
from repro.verify.shrink import shrink_plan

__all__ = [
    "ARTIFACT_VERSION",
    "LIVE_ARTIFACT_VERSION",
    "FuzzResult",
    "FuzzScenario",
    "InvariantOracle",
    "LiveEvidence",
    "OracleReport",
    "SimEvidence",
    "Violation",
    "load_artifact",
    "run_scenario",
    "sample_scenario",
    "save_artifact",
    "shrink_failure",
    "shrink_plan",
]
