"""Replay artifacts: a failing (or exemplary) fuzz run, serialized.

An artifact is everything needed to re-run one scenario and check that
it reproduces: the scenario (seed + feature toggles + the *explicit*
fault plan, stored as a parsed JSON object so artifacts stay greppable
and diffable), and the expected outcome (verdict, violated invariant
families, simulator event count, task-trace fingerprint). The replay
CLI (:mod:`repro.verify.replay`) compares a fresh run against the
``expected`` block field by field.

The format is versioned; loading a newer-versioned artifact fails
loudly rather than misinterpreting it.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any, Dict, Optional

from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.verify.fuzzer import FuzzResult, FuzzScenario

ARTIFACT_VERSION = 1
LIVE_ARTIFACT_VERSION = 1


def artifact_dict(result: FuzzResult) -> Dict[str, Any]:
    """Build the artifact payload for one finished run.

    A simulator run is bit-reproducible: ``expected`` pins its event
    count and trace fingerprint. A live run is wall-clock: ``expected``
    pins only what a replay *must* reproduce (verdict, conservation
    totals) and ``observed`` records the timing-dependent evidence for
    diagnosis, under the scenario's ``kind``.
    """
    scenario = result.scenario.to_dict()
    # store the plan as a nested object, not an escaped string
    scenario["plan"] = json.loads(scenario.pop("plan_json"))
    expected = {
        "ok": result.ok,
        "violations": [asdict(v) for v in result.violations],
        "tasks_submitted": result.tasks_submitted,
        "tasks_completed": result.tasks_completed,
    }
    payload = {
        "version": ARTIFACT_VERSION,
        "scenario": scenario,
        "expected": expected,
    }
    kind = result.scenario.ARTIFACT_KIND
    if kind is None:
        expected["event_count"] = result.event_count
        expected["fingerprint"] = result.fingerprint
    else:
        observed = dict(result.observed)
        expected["tasks_lost"] = observed.pop("tasks_lost")
        payload.update(
            version=LIVE_ARTIFACT_VERSION,
            kind=kind,
            observed={"injected": dict(result.injected), **observed},
        )
    return payload


def save_artifact(result: FuzzResult, path: str) -> None:
    """Write ``result`` as a replayable artifact at ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact_dict(result), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(path: str, version: int, kind: Optional[str]) -> Dict[str, Any]:
    """Load and structurally validate an artifact of one version/kind.

    The scenario comes back as a plain dict with its plan canonicalized
    through :class:`FaultPlan` into ``plan_json``: that validates every
    event and restores the exact ``to_json()`` form it was saved with.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"artifact {path} is not valid JSON: {exc}"
            ) from exc
    if not isinstance(payload, dict):
        raise ConfigurationError(f"artifact {path} must be a JSON object")
    if payload.get("version") != version:
        raise ConfigurationError(
            f"artifact {path} has version {payload.get('version')!r}, this "
            f"build reads version {version}"
        )
    if payload.get("kind") != kind:
        raise ConfigurationError(
            f"artifact {path} is not a {kind or 'simulator'} artifact "
            f"(kind={payload.get('kind')!r})"
        )
    for section in ("scenario", "expected"):
        if section not in payload:
            raise ConfigurationError(
                f"artifact {path} is missing its {section!r} section"
            )
    scenario = dict(payload["scenario"])
    plan = scenario.pop("plan", None)
    if plan is None:
        raise ConfigurationError(f"artifact {path} scenario has no plan")
    scenario["plan_json"] = FaultPlan.from_json(json.dumps(plan)).to_json()
    payload["scenario"] = scenario
    return payload


def load_artifact(path: str, scenario_cls: Any = FuzzScenario) -> Dict[str, Any]:
    """Load an artifact of ``scenario_cls``'s kind, scenario hydrated.

    The simulator's :class:`~repro.verify.fuzzer.FuzzScenario` by
    default; pass ``repro.live.chaos.ChaosScenario`` for a live one
    (this module stays import-free of ``repro.live``).
    """
    kind = scenario_cls.ARTIFACT_KIND
    version = ARTIFACT_VERSION if kind is None else LIVE_ARTIFACT_VERSION
    payload = _load(path, version, kind)
    payload["scenario"] = scenario_cls.from_dict(payload["scenario"])
    return payload
