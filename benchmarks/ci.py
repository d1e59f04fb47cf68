"""CI gates on the repo benchmark (``benchmarks/perf/run.py``, unedited) and the figure table.

    python3 benchmarks/ci.py determinism
        the three sim_* workloads, traced, twice at one seed: what the
        simulator computed (task counts, simulated scheduling delay,
        events and packets per task) must repeat exactly
    python3 benchmarks/ci.py pairs --parent ../parent-checkout
        every workload on the parent checkout and on this one, alternating
        which side runs first, on the same machine; fails if an
        end-to-end metric's median is worse than the parent's by more than
        its BENCHMARK.json bound (and the parent's own runs agree to within
        that bound), or an operation failed
    python3 benchmarks/ci.py rows --parent ../parent-checkout
        every figure of the evaluation table at smoke scale
        (``repro.experiments.figures --json``) on both checkouts, diffed row
        by row: floats compared exactly, wall-time fields excluded; names
        every figure, row and column that moved

``--summary FILE`` appends the markdown table (``$GITHUB_STEP_SUMMARY``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: what a simulator run *computed*, as opposed to how long it took
EXACT = (
    "sim.sched_p50_us",
    "sim.sched_p99_us",
    "trace.events_per_task",
    "trace.packets_per_task",
)


def run(checkout: Path, workload: str, *options: str) -> dict:
    """One benchmark process in ``checkout``; its last stdout line."""
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload, *options],
        cwd=checkout, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def fingerprint(result: dict) -> dict:
    exact = {name: result["metrics"][name]["value"] for name in EXACT}
    return {**{k: result[k] for k in ("correct", "attempted", "failed")}, **exact}


def determinism(args) -> List[str]:
    lines, bad = ["| workload | fingerprint | repeat |", "|---|---|---|"], []
    for workload in (w for w in WORKLOADS if w.startswith("sim_")):
        options = ("--trace", "1", "--seconds", str(args.seconds), "--seed", "7")
        first, second = (fingerprint(run(ROOT, workload, *options)) for _ in range(2))
        same = first == second and first["correct"] and not first["failed"]
        lines.append(f"| {workload} | `{json.dumps(first)}` | {'same' if same else second} |")
        if not same:
            bad.append(workload)
    return lines + ([f"**not deterministic: {', '.join(bad)}**"] if bad else [])


def pairs(args) -> List[str]:
    parent = Path(args.parent).resolve()
    lines = ["| workload | metric | parent | change | delta | bound | |", "|---|---|---:|---:|---:|---:|---|"]
    bad = []
    for workload in WORKLOADS:
        runs = {parent: [], ROOT: []}
        for pair in range(args.pairs):
            order = (parent, ROOT) if pair % 2 == 0 else (ROOT, parent)
            for checkout in order:
                runs[checkout].append(run(checkout, workload, "--seed", str(7 + pair)))
        if any(r["failed"] or not r["correct"] for r in runs[ROOT]):
            bad.append(f"{workload}: failed operations")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = {
                side: [r["metrics"][name]["value"] for r in runs[side]]
                for side in (parent, ROOT)
            }
            before, after = (statistics.median(values[s]) for s in (parent, ROOT))
            delta = (after - before) / before if before else 0.0
            worse = -delta if metric["better"] == "higher" else delta
            verdict = ""
            if worse > bound:
                # the parent's own runs spread wider than the bound: cannot tell
                spread = max(values[parent]) - min(values[parent])
                verdict = "unresolved" if spread > bound * before else "REGRESSION"
            if verdict == "REGRESSION":
                bad.append(f"{workload} {name} {delta:+.1%}")
            lines.append(
                f"| {workload} | {name} | {before:.4g} | {after:.4g} | {delta:+.1%} | {bound:.0%} | {verdict} |"
            )
    return lines + ([f"**outside the bounds: {'; '.join(bad)}**"] if bad else [])


#: fields that measure the host, not the simulation
WALL = ("wall_s",)


def figure_rows(checkout: Path) -> dict:
    """figure name -> rows, from the figure table run in ``checkout``."""
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "rows.json"
        subprocess.run(
            [sys.executable, "-m", "repro.experiments.figures", "--scale", "smoke", "--json", str(out)],
            cwd=checkout, check=True, stdout=subprocess.DEVNULL,
            env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        )
        return {name: fig["rows"] for name, fig in json.loads(out.read_text())["figures"].items()}


def rows(args) -> List[str]:
    parent = Path(args.parent).resolve()
    before, after = figure_rows(parent), figure_rows(ROOT)
    lines, moved = ["| figure | rows (parent) | rows (change) | moved cells |", "|---|---:|---:|---:|"], []
    for name in dict.fromkeys([*before, *after]):
        old, new = before.get(name, []), after.get(name, [])
        cells = [] if name in before and name in after else [f"{name}: only in one checkout"]
        if len(old) != len(new):
            cells.append(f"{name}: {len(old)} rows -> {len(new)}")
        for index, (a, b) in enumerate(zip(old, new)):
            label = " ".join(f"{k}={v}" for k, v in list(a.items())[:2])
            for col in dict.fromkeys([*a, *b]):
                if col not in WALL and json.dumps(a.get(col)) != json.dumps(b.get(col)):
                    cells.append(f"{name} row {index} ({label}): {col} {a.get(col)!r} -> {b.get(col)!r}")
        lines.append(f"| {name} | {len(old)} | {len(new)} | {len(cells)} |")
        moved += cells
    return lines + [f"- {cell}" for cell in moved] + (
        [f"**rows moved: {len(moved)} cells**"] if moved else [])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("gate", choices=("determinism", "pairs", "rows"))
    parser.add_argument("--parent", help="checkout of the parent commit (pairs, rows)")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--summary", help="file to append the markdown table to")
    args = parser.parse_args()
    lines = {"determinism": determinism, "pairs": pairs, "rows": rows}[args.gate](args)
    print("\n".join(lines))
    if args.summary:
        with open(args.summary, "a") as handle:
            handle.write(f"### benchmark {args.gate}\n\n" + "\n".join(lines) + "\n")
    return 1 if lines[-1].startswith("**") else 0


if __name__ == "__main__":
    sys.exit(main())
