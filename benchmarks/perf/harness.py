"""Run shape, statistics and correctness checks shared by every workload.

One *run* is one process: a discarded warm-up repetition, then
:data:`REPS` timed repetitions, each on a freshly built system. Every
timing metric is the median over the timed repetitions. Repetition ``i``
draws its inputs from ``derive_seed(seed, i)``; the warm-up shares
repetition 0's inputs, so a deterministic workload must reproduce its
fingerprint exactly on the second pass.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

REPS = 5
LOADAVG_WARN = 1.5


def derive_seed(seed: int, rep: int) -> int:
    """Input seed of repetition ``rep`` of a run started with ``seed``."""
    return seed * 1000 + rep


@dataclass
class RepResult:
    """What one repetition measured."""

    setup_s: float
    wall_s: float
    cpu_s: float
    #: tasks completed inside the timed section
    tasks: int
    #: per-request host latencies in microseconds (see README: a request is
    #: a job on live workloads and one simulated step on sim workloads)
    latencies_us: np.ndarray
    attempted: int
    failed: int
    #: values that must repeat exactly when the inputs repeat (sim only)
    fingerprint: Optional[dict] = None
    #: reasons this repetition is not a valid measurement
    problems: List[str] = field(default_factory=list)
    #: named extras for the human-readable report and the traced pass
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def tasks_per_s(self) -> float:
        return self.tasks / self.wall_s

    @property
    def cpu_us_per_task(self) -> float:
        return self.cpu_s * 1e6 / self.tasks


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """High-water resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_reps(
    rep: Callable[[int], RepResult], seed: int
) -> "tuple[RepResult, List[RepResult]]":
    """Warm-up plus :data:`REPS` timed repetitions of ``rep(input_seed)``.

    Returns ``(warmup, timed)``. Garbage from the previous repetition is
    collected before each one so no repetition pays for its predecessor.
    """
    gc.collect()
    warmup = rep(derive_seed(seed, 0))
    timed = []
    for index in range(REPS):
        gc.collect()
        timed.append(rep(derive_seed(seed, index)))
    return warmup, timed


def determinism_problems(warmup: RepResult, first: RepResult) -> List[str]:
    """Differences between two repetitions of identical inputs.

    The warm-up and the first timed repetition share a seed; whatever the
    simulation produced (events, completions, simulated percentiles,
    failures) must match bit for bit, or the simulator stopped being
    deterministic and none of its numbers can be compared across commits.
    """
    if warmup.fingerprint is None or first.fingerprint is None:
        return []
    problems = []
    for key in sorted(set(warmup.fingerprint) | set(first.fingerprint)):
        a, b = warmup.fingerprint.get(key), first.fingerprint.get(key)
        if a != b:
            problems.append(
                f"determinism broke: {key} differs between two repetitions "
                f"of the same inputs ({a!r} vs {b!r})"
            )
    return problems


def end_to_end_metrics(timed: Sequence[RepResult]) -> Dict[str, dict]:
    """The gated metrics, each the median over the timed repetitions."""
    values = {
        "setup_s": (median([r.setup_s for r in timed]), "s"),
        "tasks_per_s": (median([r.tasks_per_s for r in timed]), "1/s"),
        "cpu_us_per_task": (median([r.cpu_us_per_task for r in timed]), "us"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "latency_p50_us": (
            median([float(np.percentile(r.latencies_us, 50)) for r in timed]),
            "us",
        ),
        "latency_p99_us": (
            median([float(np.percentile(r.latencies_us, 99)) for r in timed]),
            "us",
        ),
    }
    return {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}


def pyops_per_s(loops: int = 200_000, batches: int = 3) -> float:
    """Hardware score: a fixed pure-python loop, best of ``batches``.

    Printed beside the results so numbers from different machines can be
    read side by side; never used to rescale a gated value.
    """
    best = math.inf
    for _ in range(batches):
        acc = 0
        start = time.perf_counter()
        for i in range(loops):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return loops / best


def environment() -> dict:
    """Where this run happened; printed, never gated."""
    load1 = os.getloadavg()[0]
    if load1 > LOADAVG_WARN:
        print(
            f"WARNING: 1-min load average {load1:.2f} > {LOADAVG_WARN}: "
            "timings from this run will be noisy",
            file=sys.stderr,
        )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_1m": load1,
        "calib.pyops_per_s": pyops_per_s(),
    }
