"""Chaos-fuzz campaign entry point, one CLI for both runtimes.

    python -m repro.experiments.fuzz --runtime sim --runs 60 --jobs 0
    python -m repro.experiments.fuzz --runtime live --seed 42 --runs 10
    python -m repro.experiments.fuzz --artifact-dir fuzz-artifacts
    python -m repro.verify.replay fuzz-artifacts/seed42.min.json

Each run derives one scenario from ``seed + run index`` — a workload, a
fault plan from the shared grammar (:meth:`FaultPlan.fuzzed`) and the
cluster feature toggles — executes it, and judges it with the shared
:class:`~repro.verify.oracle.InvariantOracle`. A failing run is written
to ``--artifact-dir``. Exit status is 0 iff every run upheld every
invariant.

``--runtime sim`` (default) runs Draconis clusters in the simulator,
fanned out over ``--jobs`` cores. Every failure is also shrunk (at most
``--shrink-attempts`` re-runs): beside the original failing run
(``seedN.json``) lands the minimal reproduction (``seedN.min.json``),
either replayable bit for bit with ``python -m repro.verify.replay``.

``--runtime live`` runs on loopback UDP sockets, one scenario at a time
(``--duration`` workload seconds each, ``--timeout-s`` hard cap). A live
failure replays the *decisions* deterministically (same plan, same RNG
draws) but not the wall-clock interleaving, so its artifact
(``live_chaos_seedN.json``) pins the scenario and records the observed
evidence rather than promising bit-identical reproduction (DESIGN.md
§9.4) — and there is nothing to shrink against.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Optional, Sequence

from repro.errors import LiveTimeoutError
from repro.experiments.parallel_runner import add_jobs_argument, parallel_map
from repro.faults import FaultPlan
from repro.live import chaos
from repro.verify import fuzzer
from repro.verify.artifact import save_artifact
from repro.verify.oracle import Violation

#: flags only one runtime has, with their defaults there
_ONLY = {
    "sim": dict(jobs=None, shrink_attempts=200),
    "live": dict(duration=0.3, timeout_s=60.0),
}


def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--runtime", choices=sorted(_ONLY), default="sim")
    parser.add_argument(
        "--seed", type=int, default=0, help="first scenario seed"
    )
    parser.add_argument("--runs", type=int, default=60, help="scenarios to run")
    parser.add_argument(
        "--max-events", type=int, default=8, help="fault events per plan cap"
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
    return args


def _run_live(scenario, timeout_s: Optional[float]) -> fuzzer.FuzzResult:
    """One live run; hitting the hard cap is a verdict, not a crash."""
    try:
        return chaos.run_live_chaos(scenario, timeout_s=timeout_s)
    except LiveTimeoutError as exc:
        return fuzzer.FuzzResult(
            scenario=scenario,
            ok=False,
            violations=[Violation("timeout", str(exc))],
            checks=0,
            tasks_submitted=0,
            tasks_completed=0,
            faults_fired=0,
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    if args.artifact_dir:
        os.makedirs(args.artifact_dir, exist_ok=True)
    print(
        f"{args.runtime} chaos fuzz: {args.runs} run(s) from seed "
        f"{args.seed}, <= {args.max_events} fault events each"
    )
    started = time.monotonic()
    pins = dict(
        max_events=args.max_events,
        controller_replicas=args.controller_replicas,
    )
    seeds = range(args.seed, args.seed + args.runs)
    if args.runtime == "sim":
        results = parallel_map(
            fuzzer.run_scenario,
            [fuzzer.sample_scenario(seed, **pins) for seed in seeds],
            jobs=args.jobs,
        )
        stem = "seed"
    else:
        # wall-clock runs must not compete for cores: one at a time
        results = (
            _run_live(
                chaos.sample_scenario(seed, duration_s=args.duration, **pins),
                args.timeout_s or None,
            )
            for seed in seeds
        )
        stem = "live_chaos_seed"

    failures = 0
    checks = 0
    summary = []
    for result in results:
        print(result.row())
        checks += result.checks
        summary.append(result.summary())
        if result.ok:
            continue
        failures += 1
        for violation in result.violations:
            print(f"  ! {violation}")
        plan = FaultPlan.from_json(result.scenario.plan_json)
        print(f"  plan: {plan.describe()}")
        path = None
        if args.artifact_dir:
            path = os.path.join(
                args.artifact_dir, f"{stem}{result.scenario.seed}"
            )
            save_artifact(result, path + ".json")
            print(f"  artifact: {path}.json")
        if args.runtime == "sim":
            failure = fuzzer.shrink_failure(result, args.shrink_attempts)
            print(
                f"  shrunk {failure.original_events} -> "
                f"{failure.minimized_events} event(s) in "
                f"{failure.shrink_attempts} attempts"
            )
            if path:
                # the minimized artifact records the *minimized* run's own
                # outcome so replay compares against what it reproduces
                save_artifact(
                    fuzzer.run_scenario(failure.minimized), path + ".min.json"
                )
                print(f"  artifact: {path}.min.json")

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
