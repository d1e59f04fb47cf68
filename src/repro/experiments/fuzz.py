"""Chaos-fuzz campaign entry point, one CLI for both runtimes.

    python -m repro.experiments.fuzz --runtime sim --runs 60 --jobs 0
    python -m repro.experiments.fuzz --runtime live --seed 42 --runs 10
    python -m repro.experiments.fuzz --artifact-dir fuzz-artifacts
    python -m repro.verify.replay fuzz-artifacts/seed42.min.json

Each run derives one scenario from ``seed + run index`` — a workload, a
fault plan from the shared grammar (:meth:`FaultPlan.fuzzed`) and the
cluster feature toggles — executes it, and judges it with the shared
:class:`~repro.verify.oracle.InvariantOracle`. Exit status is 0 iff
every run upheld every invariant.

``--runtime sim`` (default) runs Draconis clusters in the simulator,
fanned out over ``--jobs`` cores. Every failure is shrunk (at most
``--shrink-attempts`` re-runs) and produces two artifacts in
``--artifact-dir``: the original failing run (``seedN.json``) and the
minimal reproduction (``seedN.min.json``), either replayable bit for bit
with ``python -m repro.verify.replay``.

``--runtime live`` runs on loopback UDP sockets, one scenario at a time
(``--duration`` workload seconds each, ``--timeout-s`` hard cap). A live
failure replays the *decisions* deterministically (same plan, same RNG
draws) but not the wall-clock interleaving, so its artifact
(``live_chaos_seedN.json``) pins the scenario and records the observed
evidence rather than promising bit-identical reproduction (DESIGN.md
§9.4).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from types import SimpleNamespace
from typing import Any, Dict, Iterator, Optional, Sequence

from repro.errors import LiveTimeoutError
from repro.experiments.parallel_runner import add_jobs_argument, parallel_map
from repro.live import chaos
from repro.verify import fuzzer
from repro.verify.artifact import save_artifact, save_live_artifact

#: what the shared flags default to, and which flags only one runtime has
#: (with their defaults there)
_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "sim": dict(seed=0, runs=60, max_events=8),
    "live": dict(seed=42, runs=10, max_events=5),
}
_ONLY: Dict[str, Dict[str, Any]] = {
    "sim": dict(jobs=None, shrink_attempts=200),
    "live": dict(duration=0.3, timeout_s=60.0),
}


def _sim_campaign(args) -> Iterator[Any]:
    """All scenarios across ``--jobs`` cores, then shrink the failures."""
    results = parallel_map(
        fuzzer.run_scenario,
        [
            fuzzer.sample_scenario(
                seed,
                max_events=args.max_events,
                controller_replicas=args.controller_replicas,
            )
            for seed in range(args.seed, args.seed + args.runs)
        ],
        jobs=args.jobs,
    )
    for result in results:
        yield result
        if result.ok:
            continue
        failure = fuzzer.shrink_failure(result, args.shrink_attempts)
        print(
            f"  shrunk {failure.original_events} -> "
            f"{failure.minimized_events} event(s) in "
            f"{failure.shrink_attempts} attempts"
        )
        if args.artifact_dir:
            stem = os.path.join(args.artifact_dir, f"seed{result.scenario.seed}")
            save_artifact(result, stem + ".json")
            # the minimized artifact records the *minimized* run's own
            # outcome so replay compares against what it reproduces
            save_artifact(
                fuzzer.run_scenario(failure.minimized), stem + ".min.json"
            )
            print(f"  wrote {stem}.json and {stem}.min.json")


def _timed_out(seed: int, error: LiveTimeoutError) -> SimpleNamespace:
    """A live run that hit the hard cap: no verdict, only the diagnosis."""
    return SimpleNamespace(
        ok=False,
        violations=[],
        checks=0,
        row=lambda: f"seed={seed:<6d} TIMEOUT\n  {error}",
        summary=lambda: {"seed": seed, "ok": False, "timeout": True},
    )


def _live_campaign(args) -> Iterator[Any]:
    """One scenario at a time on loopback sockets."""
    for seed in range(args.seed, args.seed + args.runs):
        scenario = chaos.sample_scenario(
            seed,
            max_events=args.max_events,
            duration_s=args.duration,
            controller_replicas=args.controller_replicas,
        )
        try:
            run = chaos.run_live_chaos(scenario, timeout_s=args.timeout_s or None)
        except LiveTimeoutError as exc:
            yield _timed_out(seed, exc)
            continue
        yield run
        if not run.ok:
            print(f"  plan: {scenario.plan().describe()}")
            if args.artifact_dir:
                path = os.path.join(
                    args.artifact_dir, f"live_chaos_seed{seed}.json"
                )
                save_live_artifact(run, path)
                print(f"  artifact: {path}")


_CAMPAIGNS = {"sim": _sim_campaign, "live": _live_campaign}


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--runtime", choices=sorted(_CAMPAIGNS), default="sim")
    parser.add_argument(
        "--seed", type=int, help="first scenario seed (sim: 0, live: 42)"
    )
    parser.add_argument(
        "--runs", type=int, help="scenarios to run (sim: 60, live: 10)"
    )
    parser.add_argument(
        "--max-events",
        type=int,
        help="fault events per plan cap (sim: 8, live: 5)",
    )
    parser.add_argument(
        "--controller-replicas",
        type=int,
        help="pin the control plane size (sim: 1 = unreplicated; live: 0 "
        "= none; >= 2 replicates); default samples the toggle per seed",
    )
    parser.add_argument(
        "--artifact-dir", help="write failing runs here as replay artifacts"
    )
    parser.add_argument("--out", help="write the summary JSON here")
    add_jobs_argument(parser)
    parser.add_argument(
        "--shrink-attempts",
        type=int,
        help="sim only: re-run budget per failure during shrinking (200)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        help="live only: workload seconds per run (0.3)",
    )
    parser.add_argument(
        "--timeout-s",
        type=float,
        help="live only: hard wall-clock cap per run, 0 disables (60)",
    )
    args = parser.parse_args(argv)
    for runtime, flags in _ONLY.items():
        for flag, default in flags.items():
            if runtime == args.runtime:
                if getattr(args, flag) is None:
                    setattr(args, flag, default)
            elif getattr(args, flag) is not None:
                parser.error(
                    f"--{flag.replace('_', '-')} only applies to "
                    f"--runtime {runtime}"
                )
    for flag, default in _DEFAULTS[args.runtime].items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    if args.artifact_dir:
        os.makedirs(args.artifact_dir, exist_ok=True)
    print(
        f"{args.runtime} chaos fuzz: {args.runs} run(s) from seed "
        f"{args.seed}, <= {args.max_events} fault events each"
    )
    started = time.monotonic()
    failures = 0
    checks = 0
    summary = []
    for result in _CAMPAIGNS[args.runtime](args):
        print(result.row())
        for violation in result.violations:
            print(f"  ! {violation}")
        failures += not result.ok
        checks += result.checks
        summary.append(result.summary())

    elapsed = time.monotonic() - started
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "schema": "repro.fuzz/2",
                    "runtime": args.runtime,
                    "base_seed": args.seed,
                    "runs": args.runs,
                    "failures": failures,
                    "elapsed_s": elapsed,
                    "results": summary,
                },
                fh,
                indent=2,
            )
        print(f"wrote {args.out}")
    print(
        f"\n{args.runs - failures}/{args.runs} {args.runtime} run(s) upheld "
        f"every invariant ({checks} oracle checks, {elapsed:.1f}s)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
