"""Experiment harness for the paper's evaluation.

``repro.experiments.common`` builds clusters for every scheduler under
test and runs workloads against them; ``repro.experiments.figures`` is the
declarative table of every reproduced figure and table (its sweep, its
inputs at the ``test`` / ``smoke`` / ``report`` / ``bench`` scales and the
paper's expected shape as predicates), and ``run_all`` runs the whole
table plus the chaos sweep. The remaining modules are the fault, recovery,
replication and fuzzing experiments.
"""

from repro.experiments.common import (
    ClusterConfig,
    RunResult,
    build_cluster,
    run_workload,
)

__all__ = ["ClusterConfig", "RunResult", "build_cluster", "run_workload"]
