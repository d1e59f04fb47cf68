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
LIVE_KIND = "live-chaos"


def _scenario_dict(scenario: Any) -> Dict[str, Any]:
    payload = scenario.to_dict()
    # store the plan as a nested object, not an escaped string
    payload["plan"] = json.loads(payload.pop("plan_json"))
    return payload


def artifact_dict(result: FuzzResult) -> Dict[str, Any]:
    """Build the artifact payload for one finished simulator run."""
    return {
        "version": ARTIFACT_VERSION,
        "scenario": _scenario_dict(result.scenario),
        "expected": {
            "ok": result.ok,
            "violations": [asdict(v) for v in result.violations],
            "event_count": result.event_count,
            "fingerprint": result.fingerprint,
            "tasks_submitted": result.tasks_submitted,
            "tasks_completed": result.tasks_completed,
        },
    }


def live_artifact_dict(run: Any) -> Dict[str, Any]:
    """Artifact payload for one live chaos run.

    Duck-typed on :class:`repro.live.chaos.ChaosRunResult` — this module
    must not import ``repro.live`` (``repro.live.chaos`` imports the
    oracle from here-adjacent modules). Live runs are wall-clock:
    the ``expected`` block pins only what a replay *must* reproduce
    (verdict, conservation totals), while ``observed`` records the
    timing-dependent evidence for diagnosis.
    """
    return {
        "version": LIVE_ARTIFACT_VERSION,
        "kind": LIVE_KIND,
        "scenario": _scenario_dict(run.scenario),
        "expected": {
            "ok": run.ok,
            "violations": [asdict(v) for v in run.violations],
            "tasks_submitted": run.result.tasks_submitted,
            "tasks_completed": run.result.tasks_completed,
            "tasks_lost": run.result.tasks_lost,
        },
        "observed": {
            "injected": dict(run.injected),
            "reregistrations": run.reregistrations,
            "epoch_history": {
                str(k): list(v) for k, v in run.epoch_history.items()
            },
            "duplicates": run.result.duplicates,
            "resubmits": run.result.resubmits,
            "wall_s": run.wall_s,
        },
    }


def _save(payload: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_artifact(result: FuzzResult, path: str) -> None:
    """Write ``result`` as a replayable artifact at ``path``."""
    _save(artifact_dict(result), path)


def save_live_artifact(run: Any, path: str) -> None:
    """Write one live chaos run as a versioned JSON artifact."""
    _save(live_artifact_dict(run), path)


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


def load_live_artifact(path: str) -> Dict[str, Any]:
    """Load a live chaos artifact; the scenario stays a plain dict.

    Hydrate it with ``repro.live.chaos.ChaosScenario.from_dict`` at the
    call site; this module stays import-free of ``repro.live``.
    """
    return _load(path, LIVE_ARTIFACT_VERSION, LIVE_KIND)


def load_artifact(path: str) -> Dict[str, Any]:
    """Load a simulator artifact, ``scenario`` hydrated to a
    :class:`~repro.verify.fuzzer.FuzzScenario`."""
    payload = _load(path, ARTIFACT_VERSION, None)
    payload["scenario"] = FuzzScenario.from_dict(payload["scenario"])
    return payload
