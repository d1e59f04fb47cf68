"""Smoke test of the benchmark harness.

Not part of the tier-1 ``testpaths``; run it with

    python -m pytest benchmarks/perf -q

Every workload runs at a tenth of its real length in a fresh process,
exactly as the driver invokes it, and must print the metric names and
units ``BENCHMARK.json`` declares.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SHORT_SECONDS = "1.5"


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
         "--seed", "3", "--seconds", SHORT_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def assert_matches(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_emits_declared_metrics(workload):
    result = result_of(run_benchmark(workload, trace=0))
    assert_matches(result, SPEC["end_to_end"])
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, f"{name} must never be 0"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_declared_metrics(workload):
    result = result_of(run_benchmark(workload, trace=1))
    assert_matches(result, SPEC["per_layer"])
    metrics = result["metrics"]
    family = "sim" if workload.startswith("sim_") else "live"
    shares = [v["value"] for k, v in metrics.items()
              if k.startswith(f"trace.{family}.share.")]
    assert sum(shares) == pytest.approx(1.0, abs=0.02)
    other = "live" if family == "sim" else "sim"
    assert all(v["value"] == 0 for k, v in metrics.items()
               if k.startswith(f"trace.{other}.share."))


def test_every_isolated_driver_returns_a_positive_finite_number():
    for name, entry in layers.run_all(scale=0.02).items():
        assert math.isfinite(entry["value"]) and entry["value"] > 0, name


def _rep(**fingerprint) -> harness.RepResult:
    return harness.RepResult(
        setup_s=0.1, wall_s=1.0, cpu_s=1.0, tasks=10,
        latencies_us=np.asarray([1.0]), attempted=10, failed=0,
        fingerprint=fingerprint,
    )


def test_determinism_check_catches_a_repetition_that_counts_differently():
    same = harness.determinism_problems(
        _rep(events=100, tasks_completed=10), _rep(events=100, tasks_completed=10)
    )
    assert same == []
    broken = harness.determinism_problems(
        _rep(events=100, tasks_completed=10), _rep(events=101, tasks_completed=10)
    )
    assert len(broken) == 1 and "events" in broken[0]


def test_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    """With only ``BENCHMARK.json`` and the benchmark's own directory there
    is no program to measure: fail, and print no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = run_benchmark(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_is_within_the_contract_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = (
        WORKLOADS
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * 30 <= 3420, "a run may average 30 s at most"
