"""The repo benchmark: one workload per process, metrics as one JSON line.

    python3 benchmarks/perf/run.py --workload sim_fcfs_u80 --seed 7 \\
        --seconds 15 --trace 0        # end-to-end metrics, tracing off
    python3 benchmarks/perf/run.py --workload live_open_3k --seed 7 \\
        --seconds 15 --trace 1        # per-layer metrics, traced pass
    python3 benchmarks/perf/run.py --aa 10   # two sets of ten seeds each

The last line of standard output is the result object ``{"correct",
"attempted", "failed", "metrics"}``; everything above it is the
human-readable report. ``BENCHMARK.json`` at the repository root names
the workloads, the metrics, their units and bounds; this program refuses
to print a result whose metric names differ from that file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_FILE = ROOT / "BENCHMARK.json"


def _pin_hash_seed() -> None:
    """Re-exec with ``PYTHONHASHSEED=0``: set iteration order, and with it
    allocation patterns, must not differ between two runs being compared."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def load_spec() -> dict:
    with SPEC_FILE.open() as handle:
        return json.load(handle)


def _emit(spec_metrics: List[dict], metrics: Dict[str, dict], **result) -> None:
    """Print the result line after checking names and units against
    ``BENCHMARK.json``."""
    declared = {m["name"]: m["unit"] for m in spec_metrics}
    measured = {name: entry["unit"] for name, entry in metrics.items()}
    if declared != measured:
        raise SystemExit(
            "metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(declared) - set(measured))}, "
            f"undeclared {sorted(set(measured) - set(declared))}, "
            f"unit mismatch {sorted(k for k in declared.keys() & measured.keys() if declared[k] != measured[k])}"
        )
    print(json.dumps({**result, "metrics": metrics}))


# -- one workload ----------------------------------------------------------------


def _rep_function(name: str, rep_seconds: float):
    import livebench
    import simbench

    if name in simbench.SIM_WORKLOADS:
        workload = simbench.SIM_WORKLOADS[name]
        return lambda seed: simbench.run_rep(workload, seed, rep_seconds)
    workload = livebench.LIVE_WORKLOADS[name]
    return lambda seed: livebench.run_rep(workload, seed, rep_seconds)


def _report_reps(name: str, env: dict, warmup, timed) -> None:
    import numpy as np

    print(f"workload {name}   " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'rep':>6} {'setup_s':>9} {'wall_s':>8} {'tasks':>8} {'tasks/s':>10} "
          f"{'cpu us/task':>12} {'p50 us':>10} {'p99 us':>10} {'failed':>7}")
    for label, rep in [("warmup", warmup)] + [(str(i), r) for i, r in enumerate(timed)]:
        p50, p99 = np.percentile(rep.latencies_us, (50, 99))
        print(f"{label:>6} {rep.setup_s:>9.4f} {rep.wall_s:>8.3f} {rep.tasks:>8} "
              f"{rep.tasks_per_s:>10.1f} {rep.cpu_us_per_task:>12.2f} "
              f"{p50:>10.1f} {p99:>10.1f} {rep.failed:>7}")
    print(f"latency samples per rep: {len(timed[0].latencies_us)}")
    for key in timed[0].details:
        values = [rep.details[key] for rep in timed]
        print(f"  {key:<22} median {statistics.median(values):>14.4f}   "
              f"per rep {' '.join(f'{v:.4g}' for v in values)}")


def run_end_to_end(name: str, seed: int, seconds: float) -> int:
    import harness

    spec = load_spec()
    env = harness.environment()
    warmup, timed = harness.run_reps(
        _rep_function(name, seconds / harness.REPS), seed
    )
    problems = harness.determinism_problems(warmup, timed[0])
    for index, rep in enumerate(timed):
        problems += [f"rep {index}: {p}" for p in rep.problems]
    _report_reps(name, env, warmup, timed)
    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    _emit(
        spec["end_to_end"],
        harness.end_to_end_metrics(timed),
        correct=not problems,
        attempted=sum(rep.attempted for rep in timed),
        failed=sum(rep.failed for rep in timed),
    )
    return 0


def run_traced(name: str, seed: int, seconds: float) -> int:
    """The traced pass: isolated layer drivers, then one untraced and one
    traced repetition of the workload; their difference in CPU per task
    is the tracing overhead."""
    import harness
    import layers
    import livebench
    import simbench

    spec = load_spec()
    env = harness.environment()
    rep_seconds = seconds / harness.REPS
    rep_seed = harness.derive_seed(seed, 0)
    metrics = layers.run_all(scale=seconds / spec["run_seconds"])
    metrics["calib.pyops_per_s"] = {"value": env["calib.pyops_per_s"], "unit": "1/s"}

    plain = _rep_function(name, rep_seconds)
    plain(rep_seed)  # warm-up, discarded
    untraced = plain(rep_seed)
    if name in simbench.SIM_WORKLOADS:
        traced, trace = simbench.traced_rep(
            simbench.SIM_WORKLOADS[name], rep_seed, rep_seconds
        )
    else:
        traced, trace = livebench.traced_rep(
            livebench.LIVE_WORKLOADS[name], rep_seed, rep_seconds,
            HERE / "out" / f"spans-{name}.jsonl",
        )
    problems = untraced.problems + traced.problems
    if untraced.fingerprint is not None:
        # The profiler must observe the run, not change it: same inputs,
        # same events, same simulated outcome.
        problems += harness.determinism_problems(untraced, traced)

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # CPU per task rather than rate, so that the open-loop workload, whose
    # rate is pinned by the offered load, shows its tracing cost too.
    trace["trace.overhead_pct"] = (
        (traced.cpu_us_per_task - untraced.cpu_us_per_task)
        / untraced.cpu_us_per_task * 100.0
    )
    trace["trace.cpu_us_per_task"] = traced.cpu_us_per_task
    trace["obs.bus_on_overhead_pct"] = simbench.bus_on_overhead_pct(
        rep_seed, rep_seconds / 4
    )
    trace["sim.sched_p50_us"] = untraced.details.get("sim_sched_p50_us", 0.0)
    trace["sim.sched_p99_us"] = untraced.details.get("sim_sched_p99_us", 0.0)
    # A layer the workload never enters has a share and a count of zero.
    for metric in units:
        if metric.startswith("trace.") and metric not in trace:
            trace[metric] = 0.0
    for metric, value in trace.items():
        metrics[metric] = {"value": value, "unit": units.get(metric, "?")}

    print(f"workload {name} (traced pass)   "
          + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"untraced {untraced.tasks_per_s:.1f} tasks/s, traced "
          f"{traced.tasks_per_s:.1f} tasks/s, cpu {traced.cpu_us_per_task:.2f} us/task")
    for metric in sorted(metrics):
        entry = metrics[metric]
        print(f"  {metric:<40} {entry['value']:>16.4f} {entry['unit']}")
        if metric.startswith("trace.live.share.") and entry["value"]:
            layer = metric.rsplit(".", 1)[1]
            print(f"  {'trace.live.self_us_per_task.' + layer:<40} "
                  f"{entry['value'] * traced.cpu_us_per_task:>16.4f} us")
    for key, value in traced.details.items():
        print(f"  (traced rep) {key:<27} {value:>16.4f}")
    for problem in problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    _emit(
        spec["per_layer"],
        metrics,
        correct=not problems,
        attempted=untraced.attempted + traced.attempted,
        failed=untraced.failed + traced.failed,
    )
    return 0


# -- A/A ---------------------------------------------------------------------------


def _run_child(name: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{name} seed {seed} was not correct:\n{done.stderr}")
    return result


def _spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile range as a share of the median (needs four values)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_aa(runs: int, seed: int, seconds: float) -> int:
    """Two full sets of runs of the same code, compared against the bounds.

    Each set runs every workload ``runs`` times (seeds ``seed``,
    ``seed+1``, …); the second set walks the workloads in reverse order.
    Fails when a metric's medians differ by more than half its bound, or
    (with at least four runs per set) its spread across seeds exceeds the
    bound; a spread above a third of the bound is flagged.
    """
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    sets: List[Dict[str, List[dict]]] = []
    for order in (names, names[::-1]):
        results: Dict[str, List[dict]] = {}
        for name in order:
            results[name] = [
                _run_child(name, seed + i, seconds)["metrics"] for i in range(runs)
            ]
            print(f"# set {len(sets) + 1}: {name} done", file=sys.stderr)
        sets.append(results)

    failures = 0
    print("| workload | metric | median A | median B | diff | spread A | spread B | bound | verdict |")
    print("|---|---|---:|---:|---:|---:|---:|---:|---|")
    for name in names:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = [run[key]["value"] for run in sets[0][name]]
            b = [run[key]["value"] for run in sets[1][name]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = abs(med_b - med_a) / med_a
            spreads = [_spread(a), _spread(b)]
            verdict = "ok"
            if diff > bound / 2:
                verdict = "FAIL diff > bound/2"
            elif key != "setup_s" and any(s is not None and s > bound for s in spreads):
                verdict = "FAIL spread > bound"
            elif key != "setup_s" and any(s is not None and s > bound / 3 for s in spreads):
                verdict = "spread > bound/3"
            failures += verdict.startswith("FAIL")
            shown = ["-" if s is None else f"{s:.2%}" for s in spreads]
            print(f"| {name} | {key} | {med_a:.6g} | {med_b:.6g} | {diff:.2%} "
                  f"| {shown[0]} | {shown[1]} | {bound:.0%} | {verdict} |")
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds "
                             "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", type=int, nargs="?", const=1, default=None,
                        metavar="RUNS",
                        help="run two sets of RUNS runs per workload and "
                             "compare them against the bounds")
    args = parser.parse_args(argv)
    _pin_hash_seed()
    sys.path.insert(0, str(ROOT / "src"))
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.aa is not None:
        return run_aa(args.aa, args.seed, seconds)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")
    if args.trace:
        return run_traced(args.workload, args.seed, seconds)
    return run_end_to_end(args.workload, args.seed, seconds)


if __name__ == "__main__":
    raise SystemExit(main())
